import os
import random
import subprocess
import sys

import pytest

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

from conftest import DATA_DIR, REPO_ROOT, corpus_from


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


def test_fitted_dictionaries_reuse(motif_split):
    # Given a fit's dictionaries, a pipeline digests them as the fit did:
    # it shares the fit's digests and predicts the same.
    train, test = motif_split
    config = PipelineConfig()
    fitted = Pipeline(train, config)
    reused = Pipeline(train, config, fitted.dictionaries)
    for c, cl in reused.lists.items():
        pairs = zip(cl.compressors, fitted.lists[c].compressors, strict=True)
        assert all(x.cdict is y.cdict for x, y in pairs)
    a, b = (p.predict(test.samples[0].text) for p in (reused, fitted))
    assert (a.predicted, a.candidate_pair, a.neighbors) == (
        b.predicted, b.candidate_pair, b.neighbors
    )


def test_given_dictionaries_digest_at_the_configs_level(motif_split):
    # Dictionaries carry no level: a level-3 fit's dictionaries under a
    # level-19 config score as a level-19 fit, and the report says 19.
    train, test = motif_split
    dictionaries = Pipeline(train, PipelineConfig()).dictionaries
    reused = Pipeline(train, PipelineConfig(level=19), dictionaries)
    assert {x.cdict.level for cl in reused.lists.values() for x in cl.compressors} == {19}
    fresh = Pipeline(train, PipelineConfig(level=19))
    for sample in test.samples:
        assert mcc.score_query(reused.lists, sample.text) == mcc.score_query(
            fresh.lists, sample.text
        )
    report, _ = evaluate(reused, test)
    assert report.config["mcc_backend"] == {"kind": "zstd", "level": 19}


def test_given_dictionaries_share_one_table_log_across_classes(bundled_train):
    # Raw 4 KiB dictionaries with alpha's cut to 1,000 bytes: digested class
    # by class they would take table logs 10, 12 and 12; the pipeline gives
    # every class the largest dictionary's 12.
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
    lists = Pipeline(bundled_train, config, dictionaries).lists
    assert {x.cdict.table_log for cl in lists.values() for x in cl.compressors} == {12}


# Predicts 20 bundled test queries with lists read from a bundle, and prints
# the minor page faults per query.
_BUNDLE_REUSE_FAULTS = """
import resource, sys
from lftc import mcc
from lftc.classifier import Pipeline, PipelineConfig
from lftc.corpus import load_csv
train, test, bundle = (load_csv(sys.argv[1]), load_csv(sys.argv[2]), sys.argv[3])
dictionaries, _ = mcc.load_bundle(bundle)
pipeline = Pipeline(train, PipelineConfig(), dictionaries)
before = resource.getrusage(resource.RUSAGE_SELF).ru_minflt
for sample in test.samples[:20]:
    pipeline.predict(sample.text)
print((resource.getrusage(resource.RUSAGE_SELF).ru_minflt - before) / 20)
"""


@pytest.mark.skipif(zb._tuned_libc() is None, reason="libc cannot keep the heap (not glibc)")
def test_bundle_reuse_predicts_without_fresh_pages(bundled_train, tmp_path):
    # A process that only loads a bundle still fits inside keep_heap(), so
    # each deflate state comes from the kept heap. Under glibc's default
    # thresholds the same loop took about 1,600 faults per query.
    config = PipelineConfig()
    dictionaries = Pipeline(bundled_train, config).dictionaries
    bundle = tmp_path / "bundle.json"
    source = mcc.BundleSource(config.plan, bundled_train.digest(), "trained")
    mcc.save_bundle(bundle, dictionaries, source)
    proc = subprocess.run(
        [sys.executable, "-c", _BUNDLE_REUSE_FAULTS, str(DATA_DIR / "synthetic_train.csv"),
         str(DATA_DIR / "synthetic_test.csv"), str(bundle)],
        capture_output=True, text=True, timeout=120, check=True,
        env={**os.environ, "PYTHONPATH": str(REPO_ROOT / "src")},
    )
    assert float(proc.stdout) < 100, proc.stdout


def test_given_dictionaries_must_match_training_classes(motif_split):
    train, _ = motif_split
    dictionaries = Pipeline(train, PipelineConfig()).dictionaries
    two = Corpus("two", tuple(s for s in train.samples if s.label in ("alpha", "beta")))
    with pytest.raises(ValueError, match="gamma"):
        Pipeline(two, PipelineConfig(), dictionaries)  # an extra class
    fewer = {c: ds for c, ds in dictionaries.items() if c != "gamma"}
    with pytest.raises(ValueError, match="gamma"):
        Pipeline(train, PipelineConfig(), fewer)  # a missing class
    with pytest.raises(ValueError, match="baseline-ncd builds no compressor lists"):
        Pipeline(train, PipelineConfig(variant="baseline-ncd"), dictionaries)


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
