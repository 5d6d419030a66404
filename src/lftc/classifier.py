"""End-to-end pipelines and batch evaluation.

Variants:

* ``lftc``         -- compressor-list scoring, two-candidate shortlist, NCD-KNN.
* ``lftc-mcc``     -- ablation: lftc at the whole-class plan (one dictionary
                      per class, not a segment list); reasoning unchanged.
* ``lftc-cr``      -- ablation: no reasoning stage; the lowest-scoring class wins.
* ``baseline-ncd`` -- the reasoning stage over every class: NCD-KNN with the
                      whole training set as gold data (gzip-KNN).

Every variant goes through the one ``Pipeline.predict`` body: MCC when the
pipeline has lists, CR when it has fitted sizes. A train split needs two or
more classes, for MCC's pair and for every variant alike.

A pipeline is fitted once per (train corpus, config), from those two
alone, and reused for every query. The fit trains the level-free
dictionaries of the compressor lists (``Pipeline.dictionaries``), digests
them at ``PipelineConfig.level``, and computes each training text's NCD
size C(y) (``Pipeline.sizes``). It runs inside ``zstd_bindings.keep_heap()``
for every variant: ZDICT's scratch tables stay mapped from one training to
the next, and every process that predicts does so on the tuned heap, where
each query's deflate state is served without fresh pages.

All parallel work goes through ``compression.lane_map``: the calling
thread and tasks of one process-wide pool, whose threads outlive the fit.
``lane_map`` alone decides how many threads share a call; only
``predict_corpus`` passes it a count. The fit is one ``lane_map`` pass over
two kinds of item: the training of one segment (``mcc.class_segments``),
in class then segment order, whatever the segment size, then the C(y) of
contiguous slices of the training texts, four per CPU; both are C calls
that release the GIL. The slices are the longer items: on the 16-class
generated split at step 8192 a slice is 80 texts, about 3.6 ms on one
thread, and a training about 0.25 ms, so the pass ends on the slices, and
the threads' ends differ by up to one slice. Sizes are joined back in
corpus order and dictionaries in class order, the lowest-index failure is
raised as itself, and the digests are made afterwards on the calling
thread, so a fit's output is the same at any CPU count.

Nothing is written after the fit, so evaluation parallelizes over test
samples with bit-identical results at any worker count:
``predict_corpus`` maps the queries with ``lane_map`` on
``PipelineConfig.threads`` threads, so a count above the CPUs runs no
more queries at once than there are CPUs (two on one CPU). Every
``predict``, a direct call included, offers its MCC class sums and its CR
forks to the same pool, where the pool threads that no worker holds take
them; with every pool thread running a worker, the query runs them alone.
Results are joined by index, so they are bit-identical at any lane count
too.

``evaluate(pipeline, test)`` takes only a fitted pipeline, so its report
echoes the train split and config that the predictions came from. Report
timings keep the fit and the predictions apart: ``list_build_seconds`` is
the fit, ``total_seconds`` the predictions.
"""

from __future__ import annotations

import functools
import itertools
import time
from dataclasses import dataclass, field

from . import compression, cr, mcc
from .compression import DICT_MODES, CompressionError, TrainedDictionary, lane_map
from .corpus import DEFAULT_SEPARATOR, Corpus, DatasetError, few_shot_sample
from .report import TIMING_KEYS, EvalReport, confidence_interval
from .mcc import CandidatePair, SegmentPlan
from .zstd_bindings import MAX_LEVEL, MIN_LEVEL, keep_heap

VARIANTS = ("lftc", "lftc-mcc", "lftc-cr", "baseline-ncd")


@dataclass(frozen=True)
class PipelineConfig:
    """A fit's configuration. ``lftc-mcc`` sets its own plan, whatever it is
    given, so ``dataclasses.replace(cfg, variant="lftc")`` of an ``lftc-mcc``
    config keeps the whole-class plan."""

    variant: str = "lftc"
    plan: SegmentPlan = field(default_factory=SegmentPlan)
    k: int = 1
    level: int = 3  # zstd level of the compressor lists' digests
    threads: int = 1
    dict_mode: str = "trained"

    def __post_init__(self):
        if self.variant not in VARIANTS:
            raise ValueError(f"unknown variant {self.variant!r}, expected one of {VARIANTS}")
        if self.variant == "lftc-mcc":
            # One dictionary per class, from the first MiB of the class's text.
            object.__setattr__(self, "plan", SegmentPlan(1 << 20, 1))
        if self.dict_mode not in DICT_MODES:
            raise ValueError(
                f"unknown dictionary mode {self.dict_mode!r}, expected one of {DICT_MODES}"
            )
        if not (MIN_LEVEL <= self.level <= MAX_LEVEL):
            raise ValueError(f"zstd level out of range: {self.level}")
        if self.k < 1:
            raise ValueError("k must be >= 1")
        if self.threads < 1:
            raise ValueError("threads must be >= 1")


@dataclass(frozen=True, slots=True)
class Prediction:
    sample_index: int
    predicted: str
    truth: str | None
    candidate_pair: CandidatePair | None
    ncd_calls: int = 0
    mcc_seconds: float = 0.0
    cr_seconds: float = 0.0
    fallback: bool = False  # never set; perfbench/bench.py's signature() reads it
    tie: bool = False
    neighbors: tuple[cr.NcdNeighbor, ...] = ()
    error: str | None = None


class Pipeline:
    """Fitted classifier; ``predict`` is a pure function of the query. A
    train split of fewer than two classes raises ``DegenerateCorpusError``."""

    def __init__(self, train: Corpus, config: PipelineConfig):
        if len(train.classes) < 2:
            raise mcc.DegenerateCorpusError(
                f"train split {train.name!r} has {len(train.classes)} class; "
                "classification needs at least 2"
            )
        self.train = train
        self.config = config
        self.classes = list(train.by_class)
        t0 = time.perf_counter()
        self.lists: dict[str, mcc.ClassCompressorList] | None = None
        self.dictionaries: dict[str, list[TrainedDictionary]] | None = None
        with keep_heap():
            # One lane_map pass: a training per segment, in class then
            # segment order, then C(y) of the training texts in contiguous
            # slices, four per CPU.
            segments = []
            if config.variant != "baseline-ncd":
                segments = mcc.class_segments(train, config.plan)
            tasks = [functools.partial(mcc.train_segment, s, config.dict_mode) for s in segments]
            if config.variant != "lftc-cr":
                n = len(train.samples)
                parts = min(n, 4 * compression.usable_cpus())
                for i in range(parts):
                    part = train.samples[i * n // parts:(i + 1) * n // parts]
                    tasks.append(functools.partial(cr.sample_sizes, part))
            done = lane_map(lambda task: task(), tasks)
            if segments:
                self.dictionaries = mcc.by_class(done[:len(segments)])
                self.lists = mcc.compressor_lists(self.dictionaries, config.level)
            self.sizes = tuple(itertools.chain.from_iterable(done[len(segments):]))
        self.list_build_seconds = time.perf_counter() - t0

    def predict(self, text: bytes, sample_index: int = 0, truth: str | None = None) -> Prediction:
        """MCC shortlists a pair when the pipeline has lists; CR then votes
        over the pair's training texts, or over every class for
        baseline-ncd. lftc-cr, which fits no sizes, answers the pair's first
        class. Both stages share their compressions with idle lane threads
        (``lane_map``), and every lane task has ended when this returns."""
        t_start = mcc_end = cr_end = time.perf_counter()
        pair = None
        labels = self.classes
        try:
            if self.lists is not None:
                pair = mcc.select_candidates(mcc.score_query(self.lists, text))
                labels = [pair.first, pair.second]
                mcc_end = cr_end = time.perf_counter()
            outcome = cr.ReasoningOutcome(label=labels[0], neighbors=(), ncd_calls=0)
            if self.sizes:
                outcome = cr.reason_detail(self.train, labels, text, self.sizes, self.config.k)
                cr_end = time.perf_counter()
        except (ValueError, CompressionError) as exc:
            # Bad data and compressor failures count as incorrect, never
            # abort the run; programming errors propagate.
            return Prediction(
                sample_index=sample_index,
                predicted="",
                truth=truth,
                candidate_pair=None,
                error=f"{type(exc).__name__}: {exc}",
            )
        return Prediction(
            sample_index=sample_index,
            predicted=outcome.label,
            truth=truth,
            candidate_pair=pair,
            ncd_calls=outcome.ncd_calls,
            mcc_seconds=mcc_end - t_start,
            cr_seconds=cr_end - mcc_end,
            tie=outcome.tie,
            neighbors=outcome.neighbors,
        )


def predict_corpus(
    train: Corpus, test: Corpus, config: PipelineConfig, pipeline: Pipeline | None = None
) -> tuple[list[Prediction], Pipeline]:
    """All test predictions, in test order at any worker count, on
    ``config.threads`` workers."""
    pipeline = pipeline or Pipeline(train, config)
    items = list(enumerate(test.samples))

    def run(item):
        i, sample = item
        return pipeline.predict(sample.text, sample_index=i, truth=sample.label)

    return lane_map(run, items, config.threads), pipeline


def evaluate(pipeline: Pipeline, test: Corpus) -> tuple[EvalReport, list[Prediction]]:
    """The fitted pipeline over the whole test corpus: its report, whose
    echo is the pipeline's own train split and config, and the per-sample
    predictions. ``total_seconds`` times the predictions only."""
    train, config = pipeline.train, pipeline.config
    if not (train.classes & test.classes):
        raise ValueError("train and test label sets do not overlap")
    t0 = time.perf_counter()
    preds, _ = predict_corpus(train, test, config, pipeline)
    total_seconds = time.perf_counter() - t0

    right = [p.error is None and p.predicted == p.truth for p in preds]
    per_class = {c: sum(right[i] for i in indices) / len(indices)
                 for c, indices in test.by_class.items()}
    errors = sum(1 for p in preds if p.error is not None)

    report = EvalReport(
        dataset=test.name,
        variant=config.variant,
        config=config_echo(config, train, test),
        accuracy=sum(right) / len(preds),
        per_class=per_class,
        timings={
            "list_build_seconds": pipeline.list_build_seconds,
            "mcc_seconds": sum(p.mcc_seconds for p in preds),
            "cr_seconds": sum(p.cr_seconds for p in preds),
            "total_seconds": total_seconds,
        },
        errors=errors,
    )
    return report, preds


def config_echo(config: PipelineConfig, train: Corpus, test: Corpus) -> dict:
    """Full run configuration for the report."""
    return {
        "variant": config.variant,
        "step_size": config.plan.step_size,
        "max_compressors": config.plan.max_compressors_per_class,
        "mcc_backend": {"kind": "zstd", "level": config.level},
        "ncd_backend": {"kind": cr.NCD_BACKEND.kind, "level": cr.NCD_BACKEND.level},
        "k": config.k,
        "threads": config.threads,
        "dict_mode": config.dict_mode,
        "separator": DEFAULT_SEPARATOR.decode(),
        "train_dataset": train.name,
        "train_size": len(train),
        "train_sha256": train.digest(),
        "test_size": len(test),
        "test_sha256": test.digest(),
    }


def evaluate_fewshot(
    train: Corpus,
    test: Corpus,
    config: PipelineConfig,
    shots: int,
    seed: int,
    trials: int,
) -> EvalReport:
    """Repeated seeded few-shot draws, one pipeline fitted per trial; mean
    accuracy with a normal-approx 95% interval when there are at least two
    trials. The echo is the full train split plus shots, seed and trials."""
    if trials < 1:
        raise DatasetError("trials must be >= 1")
    reports = [
        evaluate(Pipeline(few_shot_sample(train, shots, seed, trial), config), test)[0]
        for trial in range(trials)
    ]
    accs = [r.accuracy for r in reports]
    timings = {key: sum(r.timings[key] for r in reports) for key in TIMING_KEYS}
    echo = config_echo(config, train, test)
    echo.update({"shots": shots, "seed": seed, "trials": trials})
    return EvalReport(
        dataset=test.name,
        variant=config.variant,
        config=echo,
        accuracy=sum(accs) / len(accs),
        per_class={c: sum(r.per_class[c] for r in reports) / trials for c in test.by_class},
        timings=timings,
        trials=accs,
        ci95=confidence_interval(accs) if trials >= 2 else None,
        errors=sum(r.errors for r in reports),
    )

