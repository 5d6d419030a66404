import os
import random
import subprocess
import sys
import threading
import time
import zlib
from dataclasses import replace

import pytest

from lftc import classifier, compression, cr
from lftc.classifier import (
    VARIANTS,
    Pipeline,
    PipelineConfig,
    evaluate,
    evaluate_fewshot,
)
from lftc import mcc
from lftc import zstd_bindings as zb
from lftc.compression import CompressionError, TrainedDictionary
from lftc.corpus import Corpus, DatasetError
from lftc.mcc import SegmentPlan
from lftc.synthetic import MotifGenerator

from conftest import DATA_DIR, REPO_ROOT, class_text, corpus_from, make_motif_split


def test_two_class_corpus_forces_pair(motif_split):
    train, test = motif_split
    two = Corpus(
        name="two",
        samples=tuple(s for s in train.samples if s.label in ("alpha", "beta")),
    )
    config = PipelineConfig()
    pred = Pipeline(two, config).predict(test.samples[0].text)
    assert {pred.candidate_pair.first, pred.candidate_pair.second} == {"alpha", "beta"}
    assert pred.predicted in {"alpha", "beta"}


def test_identical_query_identical_fields(motif_split):
    train, test = motif_split
    pipeline = Pipeline(train, PipelineConfig())
    q = test.samples[0].text
    a = pipeline.predict(q, sample_index=3, truth="alpha")
    b = pipeline.predict(q, sample_index=3, truth="alpha")
    assert (a.predicted, a.candidate_pair, a.ncd_calls) == (
        b.predicted, b.candidate_pair, b.ncd_calls)


def test_lftc_prediction_within_pair(motif_split):
    train, test = motif_split
    pipeline = Pipeline(train, PipelineConfig())
    for s in test.samples[:6]:
        pred = pipeline.predict(s.text)
        assert pred.predicted in {pred.candidate_pair.first, pred.candidate_pair.second}


def test_ablation_cr_equals_pair_first(motif_split):
    train, test = motif_split
    config = PipelineConfig()
    full = Pipeline(train, config)
    argmin_only = Pipeline(train, PipelineConfig(variant="lftc-cr"))
    for s in test.samples:
        assert argmin_only.predict(s.text).predicted == full.predict(s.text).candidate_pair.first


def test_ablation_mcc_single_dictionary_per_class(motif_split):
    train, _ = motif_split
    pipeline = Pipeline(train, PipelineConfig(variant="lftc-mcc"))
    assert all(len(cl.compressors) == 1 for cl in pipeline.lists.values())


def test_ablation_mcc_tiny_class_uses_raw_fallback():
    train = corpus_from([("a", b"short a text"), ("b", b"short b text")])
    pipeline = Pipeline(train, PipelineConfig(variant="lftc-mcc"))
    for ds in pipeline.dictionaries.values():
        assert ds[0].source_span.mode == "raw"


def test_lftc_mcc_config_sets_the_whole_class_plan():
    whole_class, given = SegmentPlan(1 << 20, 1), SegmentPlan(1024, 4)
    config = PipelineConfig(variant="lftc-mcc", plan=given)
    assert config.plan == whole_class
    assert replace(config, variant="lftc").plan == whole_class
    assert PipelineConfig(variant="lftc", plan=given).plan == given


@pytest.mark.parametrize("split", ["bundled", "noise-0.9"])
def test_lftc_mcc_is_lftc_at_the_whole_class_plan(split, bundled_train, bundled_test):
    if split == "bundled":
        train, test = bundled_train, bundled_test
    else:
        train, test = make_motif_split(5, train_docs=20, test_docs=10, classes=4,
                                       tokens_per_doc=(20, 40), noise_ratio=0.9)
    ablation = Pipeline(train, PipelineConfig(variant="lftc-mcc"))
    lftc = Pipeline(train, PipelineConfig(plan=SegmentPlan(1 << 20, 1)))
    assert ablation.dictionaries == lftc.dictionaries
    for s in test.samples:
        a, b = ablation.predict(s.text), lftc.predict(s.text)
        assert a.error is None
        assert (a.predicted, a.candidate_pair, a.neighbors, a.tie) == (
            b.predicted, b.candidate_pair, b.neighbors, b.tie)


def test_baseline_counts_whole_train(motif_split):
    train, test = motif_split
    pred = Pipeline(train, PipelineConfig(variant="baseline-ncd")).predict(test.samples[0].text)
    assert pred.ncd_calls == len(train)
    assert pred.candidate_pair is None


def test_lftc_counts_gold_only(motif_split):
    train, test = motif_split
    pipeline = Pipeline(train, PipelineConfig())
    pred = pipeline.predict(test.samples[0].text)
    wanted = {pred.candidate_pair.first, pred.candidate_pair.second}
    gold_size = sum(1 for s in train.samples if s.label in wanted)
    assert pred.ncd_calls == gold_size
    assert pred.ncd_calls <= len(train)


def test_baseline_exact_copy_query(motif_split):
    train, _ = motif_split
    query = train.samples[5].text
    config = PipelineConfig(variant="baseline-ncd", k=1)
    pred = Pipeline(train, config).predict(query)
    assert pred.predicted == train.samples[5].label


@pytest.mark.parametrize("variant", VARIANTS)
def test_single_class_train_split_refused(variant):
    # Two lowest-scoring classes need two classes, and a one-class split
    # leaves nothing to classify for any variant.
    train = corpus_from([("only", b"text one two three"), ("only", b"four five six")])
    with pytest.raises(mcc.DegenerateCorpusError, match="'tiny' has 1 class"):
        Pipeline(train, PipelineConfig(variant=variant))


def test_lftc_synthetic_separation_200_queries():
    gen = MotifGenerator(11, classes=3, tokens_per_doc=(20, 40), noise_ratio=0.45)
    train = gen.corpus("t", 40, "train")
    pipeline = Pipeline(train, PipelineConfig(threads=8))
    rng = random.Random("sep:11")
    correct = 0
    for i in range(200):
        class_id = gen.class_names[i % 3]
        correct += pipeline.predict(gen.document(class_id, rng)).predicted == class_id
    assert correct / 200 >= 0.95


def test_evaluate_report_and_recount(motif_split):
    train, test = motif_split
    report, preds = evaluate(Pipeline(train, PipelineConfig(threads=2)), test)
    recount = sum(1 for p in preds if p.error is None and p.predicted == p.truth) / len(preds)
    assert report.accuracy == recount
    assert set(report.per_class) == test.classes
    assert report.timings["total_seconds"] > 0
    assert report.errors == 0
    assert report.config["train_sha256"] == train.digest()


def test_report_echoes_the_pipeline_that_ran(bundled_train, bundled_test):
    # The echo is read from the fitted pipeline, so a report cannot describe
    # a train split or config other than the one its predictions came from.
    half = Corpus("half", bundled_train.samples[::2])
    pipeline = Pipeline(half, PipelineConfig(variant="baseline-ncd", k=3))
    report, preds = evaluate(pipeline, bundled_test)
    assert report.variant == report.config["variant"] == "baseline-ncd"
    assert report.config["k"] == 3
    assert report.config["train_size"] == len(half) == len(bundled_train) // 2
    assert report.config["train_sha256"] == half.digest() != bundled_train.digest()
    assert all(p.candidate_pair is None for p in preds)


def test_evaluate_accuracy_bounds(motif_split):
    train, test = motif_split
    report, _ = evaluate(Pipeline(train, PipelineConfig()), test)
    assert 0.0 <= report.accuracy <= 1.0


def test_evaluate_worker_count_invariance(motif_split):
    train, test = motif_split
    results = {}
    for threads in (1, 4):
        report, preds = evaluate(Pipeline(train, PipelineConfig(threads=threads)), test)
        results[threads] = (
            report.accuracy,
            [(p.sample_index, p.predicted, p.candidate_pair) for p in preds],
        )
    assert results[1] == results[4]


def test_evaluate_test_order_invariance(motif_split):
    train, test = motif_split
    rng = random.Random(3)
    shuffled_samples = list(test.samples)
    rng.shuffle(shuffled_samples)
    shuffled = Corpus(name=test.name, samples=tuple(shuffled_samples))
    pipeline = Pipeline(train, PipelineConfig())
    a, _ = evaluate(pipeline, test)
    b, _ = evaluate(pipeline, shuffled)
    assert a.accuracy == b.accuracy


def test_evaluate_rejects_disjoint_labels(motif_split):
    train, _ = motif_split
    other = corpus_from([("zzz", b"no overlap")])
    with pytest.raises(ValueError, match="overlap"):
        evaluate(Pipeline(train, PipelineConfig()), other)


def test_libzstd_error_reaches_the_prediction(motif_split, monkeypatch):
    # A zero-byte output buffer is too small for any frame: the error
    # libzstd returns is the one the prediction reports.
    train, test = motif_split
    pipeline = Pipeline(train, PipelineConfig())
    monkeypatch.setattr(zb, "_compress_bound", lambda size: 0)
    pred = pipeline.predict(test.samples[0].text)
    assert pred.error == "CompressionError: zstd: Destination buffer is too small"


def test_evaluate_runtime_error_counted_not_fatal(motif_split, monkeypatch):
    train, test = motif_split
    pipeline = Pipeline(train, PipelineConfig())
    calls = {"n": 0}
    original = mcc.score_query

    def flaky(lists, query):
        calls["n"] += 1
        if calls["n"] == 2:
            raise CompressionError("injected failure")
        return original(lists, query)

    monkeypatch.setattr(mcc, "score_query", flaky)
    report, preds = evaluate(pipeline, test)
    assert report.errors == 1
    assert preds[1].error == "CompressionError: injected failure"
    # the failed sample counts as incorrect, the run completes
    assert report.accuracy <= 1.0 - 1 / len(test)


def test_empty_query_is_an_error_prediction(motif_split):
    train, _ = motif_split
    for variant in ("lftc", "baseline-ncd"):
        pred = Pipeline(train, PipelineConfig(variant=variant)).predict(b"", truth="alpha")
        assert pred.error is not None and "ValueError" in pred.error
        assert pred.predicted == ""


def test_programming_error_propagates(motif_split, monkeypatch):
    train, test = motif_split
    pipeline = Pipeline(train, PipelineConfig())

    def broken(lists, query):
        raise TypeError("injected bug")

    monkeypatch.setattr(mcc, "score_query", broken)
    with pytest.raises(TypeError, match="injected bug"):
        pipeline.predict(test.samples[0].text)


def _decision(p):
    return (p.predicted, p.candidate_pair, p.neighbors, p.tie, p.ncd_calls, p.error)


def _count_fit_tasks(monkeypatch):
    # Every training and every slice of C(y) counts as running while it
    # runs; those on lane threads take longer, so the calling thread runs
    # out of work first and a fit that returned without awaiting its lanes
    # would leave some running.
    running, lock = [0], threading.Lock()

    def counted(fn):
        def run(*args, **kwargs):
            with lock:
                running[0] += 1
            try:
                if _on_a_lane():
                    time.sleep(0.002)
                return fn(*args, **kwargs)
            finally:
                with lock:
                    running[0] -= 1
        return run

    monkeypatch.setattr(mcc, "train_dictionary", counted(mcc.train_dictionary))
    monkeypatch.setattr(cr, "sample_sizes", counted(cr.sample_sizes))
    return running


@pytest.mark.parametrize("split", ["bundled", "motif"])
@pytest.mark.parametrize("variant", ["lftc", "lftc-mcc", "baseline-ncd"])
def test_fit_is_the_same_at_any_fit_worker_count(
    split, variant, bundled_train, bundled_test, motif_split, monkeypatch, lane_pool
):
    # One CPU, three (which split a class's segments between threads) and
    # four (more than the classes of either split): the same dictionaries,
    # spans included, the same C(y) and the same answers, at step 4096 and
    # at the default plan's 65536. No fit task runs once the fit has
    # returned.
    train, test = (bundled_train, bundled_test) if split == "bundled" else motif_split
    want_sizes = cr.sample_sizes(train.samples)
    running = _count_fit_tasks(monkeypatch)
    for step in (4096, 65536):
        config = PipelineConfig(variant=variant, plan=SegmentPlan(step_size=step))
        fits = {}
        for cpus in (1, 3, 4):
            lane_pool(cpus)
            fits[cpus] = Pipeline(train, config)
            assert running[0] == 0
        one = fits[1]
        assert one.sizes == want_sizes
        for other in (fits[3], fits[4]):
            assert other.dictionaries == one.dictionaries
            assert other.sizes == one.sizes
            for s in test.samples[:30]:
                assert _decision(other.predict(s.text)) == _decision(one.predict(s.text))


def _training_threads(train, monkeypatch, lane_pool, cpus=2):
    # The threads a default fit on ``cpus`` CPUs trains on. The first
    # training on each thread waits until trainings have started on
    # ``cpus`` threads, so a fit that trains on fewer threads fails here.
    lane_pool(cpus)
    original = mcc.train_dictionary
    threads, lock, barrier = set(), threading.Lock(), threading.Barrier(cpus, timeout=20)

    def recorded(*args, **kwargs):
        with lock:
            first = threading.get_ident() not in threads
            threads.add(threading.get_ident())
        if first:
            barrier.wait()
        return original(*args, **kwargs)

    monkeypatch.setattr(mcc, "train_dictionary", recorded)
    Pipeline(train, PipelineConfig())
    return threads


def test_fit_trains_on_two_threads(motif_split, monkeypatch, lane_pool):
    threads = _training_threads(motif_split[0], monkeypatch, lane_pool)
    assert len(threads) == 2 and threading.get_ident() in threads


def test_default_plan_segments_train_on_two_threads(bundled_train, monkeypatch, lane_pool):
    # The bundled split's 64 KiB segments train on the lanes like any other.
    assert SegmentPlan().step_size == 65536
    threads = _training_threads(bundled_train, monkeypatch, lane_pool)
    assert len(threads) == 2 and threading.get_ident() in threads


def test_trainings_run_on_more_threads_than_there_are_classes(
    bundled_train, monkeypatch, lane_pool
):
    # Two classes of two default-plan segments each, on three CPUs and a
    # fresh pool of two lane threads: each segment's training is its own
    # item, so three threads train, more than there are classes.
    two = Corpus("two", tuple(s for s in bundled_train.samples if s.label != "gamma"))
    threads = _training_threads(two, monkeypatch, lane_pool, cpus=3)
    assert len(threads) == 3 and threading.get_ident() in threads


@pytest.mark.parametrize("cpus", [1, 4])
def test_refused_segments_come_back_raw_from_the_pool(bundled_train, lane_pool, cpus):
    # libzstd refuses every 1 KiB segment; the refusal is handled inside
    # each segment's item, and the fit keeps the raw bytes.
    lane_pool(cpus)
    plan = SegmentPlan(step_size=1024, max_compressors_per_class=4)
    pipeline = Pipeline(bundled_train, PipelineConfig(plan=plan))
    for class_id, ds in pipeline.dictionaries.items():
        text = class_text(bundled_train, class_id)
        assert [d.source_span.mode for d in ds] == ["raw"] * 4
        assert all(d.payload == text[d.source_span.start:d.source_span.stop] for d in ds)


@pytest.mark.parametrize("stage", ["training", "sizes", "both"])
def test_programming_error_in_a_fit_task_leaves_the_fit_as_itself(
    motif_split, monkeypatch, lane_pool, stage
):
    # A TypeError raised in one segment's training or in one slice of C(y)
    # reaches the caller as the same object; with one of each in the fit,
    # the training's, queued before every slice, does. No fit task runs
    # once the fit has failed.
    train, _ = motif_split
    lane_pool(4)
    training_bug, sizes_bug = TypeError("injected training bug"), TypeError("injected sizes bug")
    if stage != "sizes":
        train_dictionary = mcc.train_dictionary

        def failing_training(segment, span, mode="trained"):
            if span.class_id == "beta":
                raise training_bug
            return train_dictionary(segment, span, mode)

        monkeypatch.setattr(mcc, "train_dictionary", failing_training)
    if stage != "training":
        sample_sizes = cr.sample_sizes

        def failing_sizes(samples):
            if train.samples[-1] in samples:
                raise sizes_bug
            return sample_sizes(samples)

        monkeypatch.setattr(cr, "sample_sizes", failing_sizes)
    running = _count_fit_tasks(monkeypatch)
    with pytest.raises(TypeError) as caught:
        Pipeline(train, PipelineConfig())
    assert caught.value is (sizes_bug if stage == "sizes" else training_bug)
    assert running[0] == 0


class _Stream:
    """A zlib compress object whose copies pass each compression through
    ``hook(suffix, compute)``: a CR fork's one compression of a gold text."""

    def __init__(self, stream, hook, forked=False):
        self.stream, self.hook, self.forked = stream, hook, forked

    def compress(self, data):
        if self.forked:
            return self.hook(data, lambda: self.stream.compress(data))
        return self.stream.compress(data)

    def flush(self):
        return self.stream.flush()

    def copy(self):
        return _Stream(self.stream.copy(), self.hook, forked=True)


def _hook_compressions(monkeypatch, pipeline, hook):
    """Every MCC score goes through ``hook(class_id, compute)`` and every CR
    fork through ``hook(gold_text, compute)``; ``compute()`` is the call."""
    owner = {id(c): cid for cid, cl in (pipeline.lists or {}).items() for c in cl.compressors}
    score = compression.DictCompressor.score
    compressobj = zlib.compressobj
    monkeypatch.setattr(compression.DictCompressor, "score",
                        lambda self, data: hook(owner[id(self)], lambda: score(self, data)))
    monkeypatch.setattr(zlib, "compressobj", lambda level: _Stream(compressobj(level), hook))


def _on_a_lane():
    return threading.current_thread() is not threading.main_thread()


@pytest.mark.parametrize("threads", [1, 2, 3, 8])
def test_predict_corpus_passes_only_its_worker_count(threads, motif_split, monkeypatch):
    # predict_corpus maps its queries on config.threads workers; every
    # query's calls, its class sums and its gold texts' forks, leave the
    # count to lane_map, whatever the worker count.
    train, test = motif_split
    pipeline = Pipeline(train, PipelineConfig(threads=threads))
    lane_map, counts = compression.lane_map, []

    def recorded(fn, items, lanes=None):
        counts.append(lanes)
        return lane_map(fn, items, lanes)

    for module in (classifier, mcc, compression):
        monkeypatch.setattr(module, "lane_map", recorded)
    preds, _ = classifier.predict_corpus(train, test, pipeline.config, pipeline)
    assert all(p.error is None for p in preds)
    assert counts == [threads] + [None] * (2 * len(test))


def test_a_direct_predict_shares_its_compressions_with_idle_lanes(
    motif_split, monkeypatch, lane_pool
):
    # A predict with no worker count, on 4 CPUs: in each query the calling
    # thread's first compression waits until a lane has taken one, so a
    # predict that runs its compressions alone fails here.
    train, test = motif_split
    pipeline = Pipeline(train, PipelineConfig())
    threads, lock, taken = set(), threading.Lock(), threading.Event()

    def hook(key, compute):
        with lock:
            threads.add(threading.get_ident())
        if _on_a_lane():
            taken.set()
        else:
            assert taken.wait(timeout=20)
        return compute()

    _hook_compressions(monkeypatch, pipeline, hook)
    lane_pool(4)
    for s in test.samples:
        taken.clear()
        assert pipeline.predict(s.text).error is None
    assert len(threads) >= 2 and threading.get_ident() in threads


@pytest.mark.parametrize("split", ["bundled", "motif"])
@pytest.mark.parametrize("variant", VARIANTS)
def test_answers_are_the_same_at_any_lane_count(
    split, variant, bundled_train, bundled_test, motif_split, lane_pool
):
    # 1, 2 and 8 prediction workers on 1, 2 and 4 CPUs: each query's calls
    # offer 0 to 3 lane tasks, and take the pool threads that no worker
    # holds, if any. MCC scores, pair, neighbours, tie flag, NCD calls and
    # error are the same.
    train, test = (bundled_train, bundled_test) if split == "bundled" else motif_split
    pipeline = Pipeline(train, PipelineConfig(variant=variant))
    decisions = {}
    for threads in (1, 2, 8):
        config = replace(pipeline.config, threads=threads)
        for cpus in (1, 2, 4):
            lane_pool(cpus)
            preds, _ = classifier.predict_corpus(train, test, config, pipeline)
            decisions[threads, cpus] = [_decision(p) for p in preds]
    assert all(d == decisions[1, 1] for d in decisions.values())


@pytest.mark.parametrize("stage", ["mcc", "cr"])
def test_a_compressor_failure_is_the_same_error_at_any_lane_count(
    stage, motif_split, monkeypatch, lane_pool
):
    # Two items fail: the later one at once, the earlier one late. The
    # prediction reports the earlier one's error, whichever thread ran it.
    train, test = motif_split
    pipeline = Pipeline(train, PipelineConfig())
    query = test.samples[:1]
    pair = pipeline.predict(query[0].text).candidate_pair
    if stage == "mcc":
        items = sorted(pipeline.lists)
    else:
        items = [s.text for s in train.samples if s.label in (pair.first, pair.second)]
    slow, fast = items[0], items[2]

    def hook(key, compute):
        if key is slow:
            time.sleep(0.02)
        if key is slow or key is fast:
            raise CompressionError(f"{stage}: injected at item {items.index(key)}")
        return compute()

    _hook_compressions(monkeypatch, pipeline, hook)
    for cpus in (1, 2, 4):
        lane_pool(cpus)
        preds, _ = classifier.predict_corpus(train, Corpus("one", query), pipeline.config, pipeline)
        assert preds[0].error == f"CompressionError: {stage}: injected at item 0"


@pytest.mark.parametrize("stage", ["mcc", "cr"])
def test_a_programming_error_on_a_lane_propagates_as_itself(
    stage, motif_split, monkeypatch, lane_pool
):
    # The calling thread's first item waits until a lane has taken one, and
    # every item a lane takes raises the one TypeError.
    train, test = motif_split
    pipeline = Pipeline(train, PipelineConfig())
    bug = TypeError("injected bug")
    mcc_key = sorted(pipeline.lists)
    taken = threading.Event()

    def hook(key, compute):
        if (key in mcc_key) != (stage == "mcc"):
            return compute()
        if _on_a_lane():
            taken.set()
            raise bug
        assert taken.wait(timeout=20)
        return compute()

    _hook_compressions(monkeypatch, pipeline, hook)
    lane_pool(2)
    with pytest.raises(TypeError) as caught:
        classifier.predict_corpus(train, test, pipeline.config, pipeline)
    assert caught.value is bug


def test_no_lane_task_outlives_its_query(motif_split, monkeypatch, lane_pool):
    # In every query the calling thread's first item waits until a lane has
    # taken one, and items on lanes are slower, so the calling thread runs
    # out of items first: when predict returns, none of its query's
    # compressions runs.
    train, test = motif_split
    pipeline = Pipeline(train, PipelineConfig())
    running, threads, lock = [0], set(), threading.Lock()
    taken = threading.Event()

    def hook(key, compute):
        with lock:
            running[0] += 1
            threads.add(threading.get_ident())
        try:
            if _on_a_lane():
                taken.set()
                time.sleep(0.002)
            else:
                assert taken.wait(timeout=20)
            return compute()
        finally:
            with lock:
                running[0] -= 1

    _hook_compressions(monkeypatch, pipeline, hook)
    inner, after = pipeline.predict, []

    def checked(*args, **kwargs):
        taken.clear()
        pred = inner(*args, **kwargs)
        after.append(running[0])
        return pred

    pipeline.predict = checked
    lane_pool(4)
    preds, _ = classifier.predict_corpus(train, test, pipeline.config, pipeline)
    assert all(p.error is None for p in preds)
    assert after == [0] * len(test)
    assert len(threads) > 1


def test_fits_at_two_levels_train_the_same_dictionaries(motif_split):
    # Dictionaries carry no level: a level-3 fit and a level-19 fit train
    # equal dictionaries, and the level-19 fit's digests and report say 19.
    train, test = motif_split
    low, high = (Pipeline(train, PipelineConfig(level=level)) for level in (3, 19))
    assert high.dictionaries == low.dictionaries
    assert {x.cdict.level for cl in high.lists.values() for x in cl.compressors} == {19}
    report, _ = evaluate(high, test)
    assert report.config["mcc_backend"] == {"kind": "zstd", "level": 19}


def test_given_dictionaries_share_one_table_log_across_classes(bundled_train):
    # Raw 4 KiB dictionaries with alpha's cut to 1,000 bytes: digested class
    # by class they would take table logs 10, 12 and 12; compressor_lists
    # gives every class the largest dictionary's 12.
    config = PipelineConfig(
        plan=SegmentPlan(step_size=4096, max_compressors_per_class=2), dict_mode="raw"
    )
    dictionaries = dict(Pipeline(bundled_train, config).dictionaries)
    dictionaries["alpha"] = [
        TrainedDictionary(d.payload[:1000], d.source_span) for d in dictionaries["alpha"]
    ]
    assert {c: {len(d.payload) for d in ds} for c, ds in dictionaries.items()} == {
        "alpha": {1000}, "beta": {4096}, "gamma": {4096}
    }
    alone = mcc.compressor_lists({"alpha": dictionaries["alpha"]}, 3)["alpha"]
    assert {x.cdict.table_log for x in alone.compressors} == {10}
    lists = mcc.compressor_lists(dictionaries, 3)
    assert {x.cdict.table_log for cl in lists.values() for x in cl.compressors} == {12}


# Fits baseline-ncd, which trains no dictionary, on the bundled split,
# predicts 20 of its test queries and prints the minor page faults per query.
_UNTRAINED_FIT_FAULTS = """
import resource, sys
from lftc.classifier import Pipeline, PipelineConfig
from lftc.corpus import load_csv
train, test = load_csv(sys.argv[1]), load_csv(sys.argv[2])
pipeline = Pipeline(train, PipelineConfig(variant="baseline-ncd"))
before = resource.getrusage(resource.RUSAGE_SELF).ru_minflt
for sample in test.samples[:20]:
    pipeline.predict(sample.text)
print((resource.getrusage(resource.RUSAGE_SELF).ru_minflt - before) / 20)
"""


@pytest.mark.skipif(zb._tuned_libc() is None, reason="libc cannot keep the heap (not glibc)")
def test_a_fit_that_trains_nothing_predicts_without_fresh_pages():
    # A fit that trains no dictionary still runs inside keep_heap(), so each
    # deflate state comes from the kept heap. Under glibc's default
    # thresholds the same loop took about 2,000 faults per query.
    proc = subprocess.run(
        [sys.executable, "-c", _UNTRAINED_FIT_FAULTS, str(DATA_DIR / "synthetic_train.csv"),
         str(DATA_DIR / "synthetic_test.csv")],
        capture_output=True, text=True, timeout=120, check=True,
        env={**os.environ, "PYTHONPATH": str(REPO_ROOT / "src")},
    )
    assert float(proc.stdout) < 100, proc.stdout


def test_fewshot_evaluate_trials_and_ci(motif_split):
    train, test = motif_split
    report = evaluate_fewshot(train, test, PipelineConfig(), shots=3, seed=5, trials=3)
    assert len(report.trials) == 3
    assert report.ci95 is not None
    mean, half = report.ci95
    assert mean == pytest.approx(sum(report.trials) / 3)
    assert half >= 0
    single = evaluate_fewshot(train, test, PipelineConfig(), shots=3, seed=5, trials=1)
    assert single.ci95 is None


def test_fewshot_evaluate_needs_one_trial(motif_split):
    train, test = motif_split
    with pytest.raises(DatasetError, match="trials must be >= 1"):
        evaluate_fewshot(train, test, PipelineConfig(), shots=3, seed=5, trials=0)


def test_variant_validation():
    with pytest.raises(ValueError):
        PipelineConfig(variant="bogus")
    with pytest.raises(ValueError):
        PipelineConfig(threads=0)
    with pytest.raises(ValueError, match="dictionary mode"):
        PipelineConfig(dict_mode="bogus")
    for level in (0, 20):
        with pytest.raises(ValueError, match="zstd level out of range"):
            PipelineConfig(level=level)
