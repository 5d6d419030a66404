"""End-to-end pipelines and batch evaluation.

Variants:

* ``lftc``         -- compressor-list scoring, two-candidate shortlist, NCD-KNN.
* ``lftc-mcc``     -- ablation: one whole-class dictionary per class instead of
                      a segment list; reasoning stage unchanged.
* ``lftc-cr``      -- ablation: no reasoning stage; the lowest-scoring class wins.
* ``baseline-ncd`` -- the reasoning stage over every class: NCD-KNN with the
                      whole training set as gold data (gzip-KNN).

Every variant goes through the one ``Pipeline.predict`` body: MCC when the
pipeline has lists, CR when it has fitted sizes. A train split needs two or
more classes, for MCC's pair and for every variant alike.

A pipeline is fitted once per (train corpus, config) and reused for every
query. The fit trains the level-free dictionaries of the compressor lists
(``Pipeline.dictionaries``), or takes those it is given, digests them at
``PipelineConfig.level``, and computes each training text's NCD size C(y)
(``Pipeline.sizes``). It runs inside ``zstd_bindings.keep_heap()`` for
every variant: ZDICT's scratch tables stay mapped from one training to the
next, and every process that predicts does so on the tuned heap, where
each query's deflate state is served without fresh pages. Dictionaries are
trained on one thread, as glibc cannot trim a worker thread's heap (a
16-class fit over two threads kept 14.6 MB more resident after it ended).
Nothing is written after the fit, so evaluation parallelizes over test
samples with bit-identical results at any worker count;
``PipelineConfig.threads`` sets only those prediction workers.

``evaluate(pipeline, test)`` takes only a fitted pipeline, so its report
echoes the train split and config that the predictions came from. Report
timings keep the fit and the predictions apart: ``list_build_seconds`` is
the fit, ``total_seconds`` the predictions.
"""

from __future__ import annotations

import time
from concurrent.futures import ThreadPoolExecutor
from dataclasses import dataclass, field

from . import cr, mcc
from .compression import DICT_MODES, CompressionError, TrainedDictionary
from .corpus import DEFAULT_SEPARATOR, Corpus, DatasetError, few_shot_sample
from .report import TIMING_KEYS, EvalReport, confidence_interval
from .mcc import CandidatePair, SegmentPlan
from .zstd_bindings import MAX_LEVEL, MIN_LEVEL, keep_heap

VARIANTS = ("lftc", "lftc-mcc", "lftc-cr", "baseline-ncd")

# The whole-class dictionary of the lftc-mcc ablation is built from at most
# this many bytes of the class's concatenated text.
WHOLE_CLASS_DICT_LIMIT = 1 << 20


@dataclass(frozen=True)
class PipelineConfig:
    variant: str = "lftc"
    plan: SegmentPlan = field(default_factory=SegmentPlan)
    k: int = 1
    level: int = 3  # zstd level of the compressor lists' digests
    threads: int = 1
    dict_mode: str = "trained"

    def __post_init__(self):
        if self.variant not in VARIANTS:
            raise ValueError(f"unknown variant {self.variant!r}, expected one of {VARIANTS}")
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


@dataclass(frozen=True)
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


def list_plan(config: PipelineConfig) -> SegmentPlan:
    """The segment plan the variant's compressor lists are built with: the
    lftc-mcc ablation trains one dictionary per class on the first
    WHOLE_CLASS_DICT_LIMIT bytes of the concatenated class text."""
    if config.variant == "lftc-mcc":
        return SegmentPlan(step_size=WHOLE_CLASS_DICT_LIMIT, max_compressors_per_class=1)
    return config.plan


class Pipeline:
    """Fitted classifier; ``predict`` is a pure function of the query. A
    train split of fewer than two classes raises ``DegenerateCorpusError``.
    Given ``dictionaries`` (a list for each training class, from a fit at
    any level or a bundle), it digests those and trains none."""

    def __init__(
        self,
        train: Corpus,
        config: PipelineConfig,
        dictionaries: dict[str, list[TrainedDictionary]] | None = None,
    ):
        if len(train.classes) < 2:
            raise mcc.DegenerateCorpusError(
                f"train split {train.name!r} has {len(train.classes)} class; "
                "classification needs at least 2"
            )
        if config.variant == "baseline-ncd" and dictionaries is not None:
            raise ValueError("baseline-ncd builds no compressor lists")
        self.train = train
        self.config = config
        self.classes = sorted(train.classes)
        t0 = time.perf_counter()
        self.lists: dict[str, mcc.ClassCompressorList] | None = None
        with keep_heap():
            if config.variant != "baseline-ncd":
                if dictionaries is None:
                    dictionaries = mcc.build_all_lists(train, list_plan(config), config.dict_mode)
                differ = set(self.classes) ^ set(dictionaries)
                if differ:
                    raise ValueError(
                        f"dictionaries do not match the training classes: {sorted(differ)}"
                    )
                self.lists = mcc.compressor_lists(dictionaries, config.level)
            # C(y) of every training text, aligned with train.samples.
            self.sizes = () if config.variant == "lftc-cr" else cr.sample_sizes(train.samples)
        self.list_build_seconds = time.perf_counter() - t0
        self.dictionaries: dict[str, list[TrainedDictionary]] | None = dictionaries

    def predict(self, text: bytes, sample_index: int = 0, truth: str | None = None) -> Prediction:
        """MCC shortlists a pair when the pipeline has lists; CR then votes
        over the pair's training texts, or over every class for
        baseline-ncd. lftc-cr, which fits no sizes, answers the pair's first
        class."""
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
    """All test predictions, in test order at any worker count."""
    pipeline = pipeline or Pipeline(train, config)
    items = list(enumerate(test.samples))

    def run(item):
        i, sample = item
        return pipeline.predict(sample.text, sample_index=i, truth=sample.label)

    if config.threads > 1:
        with ThreadPoolExecutor(max_workers=config.threads) as pool:
            preds = list(pool.map(run, items))
    else:
        preds = [run(it) for it in items]
    return preds, pipeline


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

    correct = sum(1 for p in preds if p.error is None and p.predicted == p.truth)
    per_class_total: dict[str, int] = {}
    per_class_correct: dict[str, int] = {}
    for p in preds:
        per_class_total[p.truth] = per_class_total.get(p.truth, 0) + 1
        if p.error is None and p.predicted == p.truth:
            per_class_correct[p.truth] = per_class_correct.get(p.truth, 0) + 1
    per_class = {
        c: per_class_correct.get(c, 0) / n for c, n in sorted(per_class_total.items())
    }
    errors = sum(1 for p in preds if p.error is not None)

    report = EvalReport(
        dataset=test.name,
        variant=config.variant,
        config=config_echo(config, train, test),
        accuracy=correct / len(preds),
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
    """Full run configuration for the report; the plan is the one the
    variant's lists are built with."""
    plan = list_plan(config)
    return {
        "variant": config.variant,
        "step_size": plan.step_size,
        "max_compressors": plan.max_compressors_per_class,
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
        per_class=_mean_per_class(reports),
        timings=timings,
        trials=accs,
        ci95=confidence_interval(accs) if trials >= 2 else None,
        errors=sum(r.errors for r in reports),
    )


def _mean_per_class(reports: list[EvalReport]) -> dict[str, float]:
    keys = sorted({c for r in reports for c in r.per_class})
    return {
        c: sum(r.per_class.get(c, 0.0) for r in reports) / len(reports) for c in keys
    }
