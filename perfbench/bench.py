"""One benchmark run: a workload's seeded split through lftc's batch API.

Traffic is a closed loop through ``classifier.predict_corpus``: with 1
worker and with ``nproc`` workers, each worker sends its next query only
when the previous one has returned, as ``lftc eval`` and ``lftc compare``
do.

A run first loads the split, fits at 1 thread and sends every query once
at ``nproc`` workers, untimed: this warms the pipeline the warm steps use,
and its answers are the reference every later answer must equal. Then it
interleaves five kinds of step:

* cold:   one piece of a cold pass (load both CSVs and fit at 1 thread,
          or the next chunk of the fresh pipeline's first pass over the
          queries at 1 worker); a finished pass is one ``eval_s`` sample;
* setup:  one fit at 1 thread and one at ``nproc`` threads;
* warm1:  one chunk of queries at 1 worker on the warm pipeline;
* warmN:  the same at ``nproc`` workers;
* ratio:  the next of a few queries sent to lftc and to baseline-ncd in
          turn, cycling over those queries.

For ``--seconds``, the kind furthest below its share of the time spent
(``SHARES``) goes next, so each kind's samples spread over the whole run
rather than one window of a shared host's shifting background load. Then
kinds short of their floor (one cold pass; the others are in ``Sizes``)
run until they reach it. Last, an independent zlib NCD-KNN re-derives a
few answers.

Rates are queries done over seconds spent across all of a kind's steps, not
medians of per-chunk rates: on a 2-core shared host, background load
switched a chunk's rate between two levels about a third apart, and a
median over chunks jumps between them with the share of time spent at
each, where the overall rate moves smoothly.

With tracing on, the untraced run gets ``1 - TRACED_SHARE`` of
``--seconds`` and is followed by traced load, fit and cold pass on a fresh
pipeline and by warm chunks on it, traced and untraced in turn; the spans
give the per-layer metrics.
"""

from __future__ import annotations

import os
import platform
import resource
import statistics
import tempfile
import zlib
from dataclasses import dataclass, replace
from pathlib import Path
from time import perf_counter
from typing import Callable

from lftc import corpus
from lftc import zstd_bindings as zb
from lftc.classifier import Pipeline, PipelineConfig, Prediction, predict_corpus
from lftc.corpus import Corpus

from tracing import Tracer, layer_metrics
from workloads import ROOT, WORKLOADS, write_inputs

NPROC = len(os.sched_getaffinity(0))
TRACE_DIR = ROOT / ".perfbench-traces"

# How step kinds share --seconds.
SHARES = {"cold": 0.15, "setup": 0.15, "warm1": 0.4, "warmN": 0.15, "ratio": 0.15}
# Share of --seconds given to the traced run's warm chunks.
TRACED_SHARE = 0.3


@dataclass(frozen=True)
class Sizes:
    """Floors of a run, and caps that shrink the inputs for the smoke test."""

    # Latencies at 1 worker: 1000 put at least ten samples beyond p99. At
    # nproc workers the floor is one pass over the queries.
    latency_samples: int = 1000
    chunk: int = 60  # queries per predict_corpus call
    setup_repeats: int = 3  # fits per thread count
    ratio_queries: int = 20  # queries timed on both lftc and baseline-ncd
    reference_queries: int = 3  # answers re-derived by the independent NCD-KNN
    max_docs: int | None = None  # cap on generated documents per class
    test_limit: int | None = None  # keep only this many test queries


FULL = Sizes()


def machine() -> dict:
    cpu = platform.processor()
    try:
        with open("/proc/cpuinfo", encoding="utf-8") as fh:
            cpu = next((ln.split(":", 1)[1].strip() for ln in fh if ln.startswith("model name")), cpu)
    except OSError:
        pass
    return {
        "nproc": NPROC,
        "cpu": cpu,
        "python": platform.python_version(),
        "zstd": ".".join(map(str, zb.version())),
        "zlib": zlib.ZLIB_VERSION,
    }


def signature(p: Prediction) -> tuple:
    """Everything a prediction decides; timings excluded."""
    pair = p.candidate_pair
    return (
        p.predicted,
        None if pair is None else (pair.first, pair.second, pair.scores),
        p.neighbors,
        p.tie,
        p.fallback,
        p.error,
    )


def in_pair(p: Prediction, label: str) -> bool:
    pair = p.candidate_pair
    return pair is not None and label in (pair.first, pair.second)


class Ledger:
    """Counts every prediction the run asked for and checks each lftc answer:
    none dropped, the answer is one of its candidate pair, the pair is the
    two lowest class scores, and the answer equals the first answer seen
    for that query (the reference pass's)."""

    def __init__(self):
        self.attempted = 0
        self.failed = 0  # predictions with Prediction.error set
        self.reference: dict[int, tuple] = {}  # query id -> signature
        self.failures: list[str] = []

    def check(self, ok: bool, what: str) -> None:
        if not ok and len(self.failures) < 20:
            self.failures.append(what)

    def record(self, ids: list[int], preds: list[Prediction], listwise: bool = True) -> None:
        self.attempted += len(ids)
        self.failed += sum(1 for p in preds if p.error is not None)
        got = [p.sample_index for p in preds]
        self.check(got == list(range(len(ids))), f"sent {len(ids)} queries, got answers for {got[:8]}")
        if not listwise:
            return
        for qid, p in zip(ids, preds):
            if p.error is None:
                self.check(in_pair(p, p.predicted), f"query {qid}: {p.predicted!r} is not in its candidate pair")
                if p.candidate_pair is not None:
                    pair = p.candidate_pair
                    low = sorted(pair.scores, key=lambda s: (s.score, s.class_id))[:2]
                    self.check(
                        [s.class_id for s in low] == [pair.first, pair.second],
                        f"query {qid}: candidate pair is not the two lowest class scores",
                    )
            self.check(
                signature(p) == self.reference.setdefault(qid, signature(p)),
                f"query {qid}: answer differs from the reference pass",
            )


def run_chunk(train, queries, ids, config, pipe) -> tuple[list[Prediction], float]:
    batch = Corpus("chunk", tuple(queries[i] for i in ids))
    t0 = perf_counter()
    preds, _ = predict_corpus(train, batch, config, pipe)
    return preds, perf_counter() - t0


class ClosedLoop:
    """Chunks of queries through predict_corpus at a fixed worker count,
    cycling over the test set; keeps chunk rates and per-query latencies.

    Latency percentiles that carry a bound are taken over the queries, each
    at its mean latency over the run: a query's passes fall in both of a
    shared host's speed levels, so its mean moves smoothly with the share
    of time spent at each, where a percentile of all samples jumps between
    the levels."""

    def __init__(self, pipe, train, queries, threads, chunk, ledger):
        self.pipe = pipe
        self.train = train
        self.queries = queries
        self.config = replace(pipe.config, threads=threads)
        self.chunk = chunk
        self.ledger = ledger
        self.sent = 0
        self.seconds = 0.0  # summed over chunks
        self.rates: list[float] = []  # queries/s per chunk
        self.latencies: list[float] = []  # seconds per prediction
        self.by_query: dict[int, list[float]] = {}  # query id -> its latencies

    def step(self) -> None:
        ids = [(self.sent + i) % len(self.queries) for i in range(self.chunk)]
        inner = self.pipe.predict
        latencies, by_query = self.latencies, self.by_query

        def timed(*args, **kwargs):
            t0 = perf_counter()
            try:
                return inner(*args, **kwargs)
            finally:
                seconds = perf_counter() - t0
                latencies.append(seconds)
                by_query.setdefault(ids[kwargs["sample_index"]], []).append(seconds)

        self.pipe.predict = timed  # predict_corpus looks it up on the instance
        try:
            preds, seconds = run_chunk(self.train, self.queries, ids, self.config, self.pipe)
        finally:
            del self.pipe.predict
        self.ledger.record(ids, preds)
        self.rates.append(len(ids) / seconds)
        self.seconds += seconds
        self.sent += len(ids)

    def rate(self) -> float:
        return self.sent / self.seconds

    def query_means(self) -> list[float]:
        return [statistics.fmean(v) for v in self.by_query.values()]


class ColdPasses:
    """What one ``lftc eval`` does, in pieces: load both CSVs and fit at 1
    thread, then every query once at 1 worker, a chunk per step. ``times``
    holds the summed seconds of each finished pass."""

    def __init__(self, inputs, config, chunk, ledger):
        self.inputs = inputs
        self.config = config
        self.chunk = chunk
        self.ledger = ledger
        self.times: list[float] = []
        self._pass = None  # [seconds so far, train, test samples, pipeline, next query]

    def step(self) -> None:
        if self._pass is None:
            t0 = perf_counter()
            train = corpus.load_csv(self.inputs.train_csv)
            test = corpus.load_csv(self.inputs.test_csv)
            pipe = Pipeline(train, self.config)
            self._pass = [perf_counter() - t0, train, test.samples, pipe, 0]
            return
        _, train, queries, pipe, pos = self._pass
        ids = list(range(pos, min(pos + self.chunk, len(queries))))
        preds, seconds = run_chunk(train, queries, ids, self.config, pipe)
        self.ledger.record(ids, preds)
        self._pass[0] += seconds
        self._pass[4] = ids[-1] + 1
        if self._pass[4] == len(queries):
            self.times.append(self._pass[0])
            self._pass = None

    def passes(self) -> float:
        """Finished passes plus the finished share of the current one."""
        if self._pass is None:
            return len(self.times)
        return len(self.times) + self._pass[4] / (len(self._pass[2]) + 1)


@dataclass
class Step:
    name: str
    run: Callable[[], None]
    progress: Callable[[], float]  # reaches 1.0 at the floor


def interleave(steps: list[Step], budget: float) -> None:
    """Until ``budget`` seconds have passed, run the kind furthest below its
    share of the time spent; then, until every floor is met, the kind
    furthest from its floor."""
    spent = {s.name: 0.0 for s in steps}
    t_end = perf_counter() + budget
    while True:
        behind = [s for s in steps if s.progress() < 1.0]
        if perf_counter() < t_end:
            step = min(steps, key=lambda s: spent[s.name] / SHARES[s.name])
        elif behind:
            step = min(behind, key=lambda s: s.progress())
        else:
            return
        t0 = perf_counter()
        step.run()
        spent[step.name] += perf_counter() - t0


def p99(values) -> float:
    return statistics.quantiles(values, n=100)[98]


def p90(values) -> float:
    return statistics.quantiles(values, n=10)[8]


def nearest_reference(train: Corpus, query: bytes, labels) -> tuple[float, str]:
    """k=1 NCD nearest neighbour with plain zlib at level 6, corpus order
    breaking ties: what lftc's CR stage and baseline-ncd must return."""
    c_x = len(zlib.compress(query, 6))
    best = None
    for s in train.samples:
        if s.label in labels:
            c_y = len(zlib.compress(s.text, 6))
            c_xy = len(zlib.compress(query + s.text, 6))
            d = (c_xy - min(c_x, c_y)) / max(c_x, c_y)
            if best is None or d < best[0]:
                best = (d, s.label)
    return best


@dataclass
class Measured:
    metrics: dict[str, float]  # the end-to-end metrics
    unbounded: dict[str, float]  # end-to-end figures reported with the per-layer ones
    details: dict
    ledger: Ledger
    queries: list


def measure(inputs, seconds: float, sizes: Sizes) -> Measured:
    """The untraced run: every end-to-end metric."""
    cfg1 = PipelineConfig(plan=inputs.plan, threads=1)
    cfg_n = replace(cfg1, threads=NPROC)
    base_cfg = replace(cfg1, variant="baseline-ncd")
    ledger = Ledger()

    train = corpus.load_csv(inputs.train_csv)
    queries = list(corpus.load_csv(inputs.test_csv).samples)
    ids = list(range(len(queries)))
    pipe = Pipeline(train, cfg1)
    reference, _ = run_chunk(train, queries, ids, cfg_n, pipe)
    ledger.record(ids, reference)

    cold = ColdPasses(inputs, cfg1, sizes.chunk, ledger)
    fits = {1: [], NPROC: []}

    def setup() -> None:
        for config in (cfg1, cfg_n):
            t0 = perf_counter()
            fitted = Pipeline(train, config)
            fits[config.threads].append(perf_counter() - t0)
        if len(fits[1]) == 1:  # an nproc fit must answer as the 1-thread fit does
            check = ids[:10]
            ledger.record(check, run_chunk(train, queries, check, cfg_n, fitted)[0])

    base = Pipeline(train, base_cfg)
    subset = ids[: sizes.ratio_queries]
    ledger.record(subset[:2], run_chunk(train, queries, subset[:2], base_cfg, base)[0], listwise=False)
    spent = {"lftc": 0.0, "baseline-ncd": 0.0}
    base_preds: dict[int, Prediction] = {}  # first baseline-ncd answer per query
    pairs = [0]  # queries sent to both sides

    def ratio() -> None:
        k = pairs[0]
        qid = subset[k % len(subset)]
        sides = ((cfg1, pipe), (base_cfg, base))
        for config, pipeline in sides if k % 2 == 0 else sides[::-1]:
            preds, sec = run_chunk(train, queries, [qid], config, pipeline)
            spent[config.variant] += sec
            listwise = config.variant == "lftc"
            ledger.record([qid], preds, listwise)
            if not listwise:
                first = base_preds.setdefault(qid, preds[0])
                ledger.check(signature(preds[0]) == signature(first),
                             f"query {qid}: baseline-ncd answer differs from its first")
        pairs[0] += 1

    loop1 = ClosedLoop(pipe, train, queries, 1, sizes.chunk, ledger)
    loop_n = ClosedLoop(pipe, train, queries, NPROC, sizes.chunk, ledger)
    interleave([
        Step("cold", cold.step, cold.passes),
        Step("setup", setup, lambda: len(fits[1]) / sizes.setup_repeats),
        Step("warm1", loop1.step, lambda: len(loop1.latencies) / sizes.latency_samples),
        Step("warmN", loop_n.step, lambda: loop_n.sent / len(queries)),
        Step("ratio", ratio, lambda: pairs[0] / len(subset)),
    ], seconds)

    for qid in subset[: sizes.reference_queries]:
        text = queries[qid].text
        p, b = reference[qid], base_preds[qid]
        if p.candidate_pair is not None:
            d, label = nearest_reference(train, text, {p.candidate_pair.first, p.candidate_pair.second})
            ledger.check(
                p.predicted == label and p.neighbors[0].distance == d,
                f"query {qid}: lftc says {p.predicted!r}, NCD-KNN over its pair says {label!r} at {d}",
            )
        d, label = nearest_reference(train, text, train.classes)
        ledger.check(
            b.error is None and b.predicted == label and b.neighbors[0].distance == d,
            f"query {qid}: baseline-ncd says {b.predicted!r}, NCD-KNN says {label!r} at {d}",
        )

    lat1, lat_n = loop1.latencies, loop_n.latencies
    correct = sum(1 for p in reference if p.error is None and p.predicted == p.truth)
    metrics = {
        "setup_s": statistics.median(fits[1]),
        "eval_s": statistics.median(cold.times),
        "queries_per_s": loop1.rate(),
        "latency_p50_ms": 1e3 * statistics.median(loop1.query_means()),
        "latency_p90_ms": 1e3 * p90(loop1.query_means()),
        "queries_per_s_nproc": loop_n.rate(),
        "latency_p50_ms_nproc": 1e3 * statistics.median(loop_n.query_means()),
        "baseline_queries_per_s": pairs[0] / spent["baseline-ncd"],
        "speed_ratio": spent["baseline-ncd"] / spent["lftc"],
        "accuracy": correct / len(reference),
        "error_free_rate": 1.0 - ledger.failed / ledger.attempted,
        "peak_rss_mb": resource.getrusage(resource.RUSAGE_SELF).ru_maxrss / 1024,
    }
    details = {
        "queries": len(queries),
        "train": len(train),
        "eval_runs": cold.times,
        "setup_runs": fits[1],
        "setup_runs_nproc": fits[NPROC],
        "chunk_rates": [round(r, 2) for r in loop1.rates],
        "chunk_rates_nproc": [round(r, 2) for r in loop_n.rates],
        "latency_samples": [len(lat1), len(lat_n)],
        "samples_beyond_p99": [sum(1 for x in lat if x > p99(lat)) for lat in (lat1, lat_n)],
        "segments_per_class": {c: len(cl.compressors) for c, cl in sorted(pipe.lists.items())},
        "pair_recall": sum(1 for p in reference if in_pair(p, p.truth)) / len(reference),
    }
    # These swing with a shared host's background load beyond any bound the
    # benchmark may set: on motif-16c, whole runs of nproc fits sat at
    # ~0.9 s instead of ~0.55 s, and a p99 of all samples moves with the
    # few stalls a run happens to meet (20 to 37 ms over five seeds).
    unbounded = {
        "setup_s_nproc": statistics.median(fits[NPROC]),
        "latency_p99_ms": 1e3 * p99(lat1),
        "latency_p99_ms_nproc": 1e3 * p99(lat_n),
    }
    return Measured(metrics, unbounded, details, ledger, queries)


def measure_traced(inputs, seconds: float, sizes: Sizes, m: Measured, trace_path: Path) -> dict[str, float]:
    """Traced load, fit and cold pass on a fresh pipeline, then warm chunks
    on it, traced and untraced in turn, for the tracing overhead. The ledger
    checks every answer against the untraced run's."""
    cfg1 = PipelineConfig(plan=inputs.plan, threads=1)
    ids = list(range(len(m.queries)))
    tracer = Tracer()
    tracer.query_index = {id(q.text): i for i, q in enumerate(m.queries)}
    with tracer.recording("load"):
        train = corpus.load_csv(inputs.train_csv)
        corpus.load_csv(inputs.test_csv)
    tracer.train_text_ids = frozenset(id(s.text) for s in train.samples)
    with tracer.recording("fit"):
        pipe = Pipeline(train, cfg1)
    with tracer.recording("cold"):
        preds, _ = run_chunk(train, m.queries, ids, cfg1, pipe)
    m.ledger.record(ids, preds)
    traced = ClosedLoop(pipe, train, m.queries, 1, sizes.chunk, m.ledger)
    plain = ClosedLoop(pipe, train, m.queries, 1, sizes.chunk, m.ledger)
    t_end = perf_counter() + TRACED_SHARE * seconds
    while traced.sent < len(m.queries) or perf_counter() < t_end:
        plain.step()
        with tracer.recording("warm"):
            traced.step()
    tracer.write(trace_path)

    layers = layer_metrics(tracer)
    counts = m.details["segments_per_class"].values()
    layers.update({
        "mcc.segments_per_class.min": min(counts),
        "mcc.segments_per_class.max": max(counts),
        "mcc.pair_recall": m.details["pair_recall"],
        "classifier.parallel_efficiency": m.metrics["queries_per_s_nproc"] / (m.metrics["queries_per_s"] * NPROC),
        "trace.overhead_ratio": traced.rate() / plain.rate(),
        **m.unbounded,
    })
    return layers


def run(workload: str, seed: int, seconds: float, trace: bool, sizes: Sizes = FULL):
    """Measure one workload. Returns the result (``correct``, ``attempted``,
    ``failed`` and metric values by name) and a dict of run details."""
    with tempfile.TemporaryDirectory(dir=ROOT, prefix=".perfbench-") as tmp:
        inputs = write_inputs(WORKLOADS[workload], seed, Path(tmp), sizes.max_docs, sizes.test_limit)
        m = measure(inputs, (1 - TRACED_SHARE) * seconds if trace else seconds, sizes)
        metrics = m.metrics
        if trace:
            path = TRACE_DIR / f"{workload}-seed{seed}.jsonl"
            metrics = measure_traced(inputs, seconds, sizes, m, path)
            m.details["trace_file"] = str(path.relative_to(ROOT))
    m.details.update(workload=workload, seed=seed, machine=machine(), failed_checks=m.ledger.failures)
    result = {
        "correct": not m.ledger.failures,
        "attempted": m.ledger.attempted,
        "failed": m.ledger.failed,
        "metrics": metrics,
    }
    return result, m.details
