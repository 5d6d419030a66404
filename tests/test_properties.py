"""Properties of fitted pipelines over arbitrary queries and corpora."""

import copy
from unittest import mock

import pytest
from hypothesis import assume, given, settings
from hypothesis import strategies as st

from lftc import cr, mcc
from lftc.classifier import VARIANTS, Pipeline, PipelineConfig, list_plan
from lftc.compression import DeflateBackend
from lftc.corpus import Corpus, LabeledText

queries = st.binary(min_size=1, max_size=600)


@pytest.fixture(scope="module")
def pipelines(motif_split):
    train, _ = motif_split
    return {v: Pipeline(train, PipelineConfig(variant=v)) for v in VARIANTS}


def fitted_state(pipe):
    """vars() of the pipeline and of each of its DictCompressors, with
    container values copied so that growth in place shows too."""
    objects = [pipe] + [c for cl in (pipe.lists or {}).values() for c in cl.compressors]
    return [
        {k: copy.copy(v) if isinstance(v, (dict, list, set)) else v for k, v in vars(o).items()}
        for o in objects
    ]


@settings(max_examples=30, deadline=None)
@given(query=queries)
def test_arbitrary_bytes_never_raise(pipelines, query):
    for variant, pipe in pipelines.items():
        fitted = fitted_state(pipe)
        pred = pipe.predict(query)
        assert pred.error is None, (variant, pred.error)
        assert pred.predicted in pipe.classes
        assert fitted_state(pipe) == fitted  # predict writes nothing back


@settings(max_examples=30, deadline=None)
@given(query=queries)
def test_lftc_prediction_in_candidate_pair(pipelines, query):
    pred = pipelines["lftc"].predict(query)
    assert pred.predicted in (pred.candidate_pair.first, pred.candidate_pair.second)


@settings(max_examples=10, deadline=None)
@given(query=queries)
def test_baseline_makes_one_ncd_per_training_text(pipelines, query):
    pipe = pipelines["baseline-ncd"]
    real = DeflateBackend.prefixed_sizes
    primed = []

    def recording(self, prefix, suffixes):
        suffixes = list(suffixes)
        primed.append((prefix, suffixes))
        return real(self, prefix, suffixes)

    with (
        mock.patch.object(DeflateBackend, "compressed_size") as single,
        mock.patch.object(DeflateBackend, "prefixed_sizes", recording),
    ):
        pred = pipe.predict(query)
    assert pred.ncd_calls == len(pipe.train)
    # Every C(y) comes from the fit; the query is compressed once, followed
    # by each training text in corpus order.
    assert single.call_count == 0
    assert primed == [(query, [s.text for s in pipe.train.samples])]


@pytest.fixture(scope="module")
def baselines(motif_split):
    train, _ = motif_split
    return {k: Pipeline(train, PipelineConfig(variant="baseline-ncd", k=k)) for k in (1, 3)}


@settings(max_examples=20, deadline=None)
@given(query=queries, k=st.sampled_from([1, 3]))
def test_baseline_is_knn_over_the_whole_train_set(baselines, query, k):
    # CR over every class is NCD-KNN over every training text, in corpus order.
    pipe = baselines[k]
    pred = pipe.predict(query)
    want = cr.vote_detail(cr.ncd_distances(query, pipe.train.samples, pipe.sizes), k)
    assert (pred.predicted, pred.neighbors, pred.tie) == (want.label, want.neighbors, want.tie)
    assert pred.candidate_pair is None


@pytest.fixture(scope="module")
def reloaded(pipelines, tmp_path_factory):
    """lftc and lftc-mcc pipelines on lists saved to a bundle and loaded back."""
    out = {}
    for variant in ("lftc", "lftc-mcc"):
        pipe = pipelines[variant]
        path = tmp_path_factory.mktemp("bundle") / f"{variant}.bundle"
        source = mcc.BundleSource(
            pipe.config.mcc_backend, list_plan(pipe.config), pipe.train.digest(),
            pipe.config.dict_mode,
        )
        mcc.save_bundle(path, pipe.lists, source)
        lists, _ = mcc.load_bundle(path)
        out[variant] = Pipeline(pipe.train, pipe.config, prebuilt_lists=lists)
    return out


@settings(max_examples=20, deadline=None)
@given(query=queries)
def test_bundle_round_trip_predicts_as_a_fresh_fit(pipelines, reloaded, query):
    for variant, pipe in reloaded.items():
        a, b = pipelines[variant].predict(query), pipe.predict(query)
        assert (a.predicted, a.candidate_pair, a.neighbors, a.tie) == (
            b.predicted, b.candidate_pair, b.neighbors, b.tie), variant


texts = st.binary(min_size=1, max_size=300)


@settings(max_examples=25, deadline=None)
@given(st.lists(st.tuples(st.sampled_from("abc"), texts), min_size=1, max_size=12))
def test_fitted_sizes_are_deflate_sizes(items):
    assume(len({label for label, _ in items}) >= 2)  # one class is refused
    train = Corpus("h", tuple(LabeledText(label, text) for label, text in items))
    want = tuple(DeflateBackend().compressed_size(text) for _, text in items)
    assert Pipeline(train, PipelineConfig(variant="baseline-ncd")).sizes == want


def test_fitted_sizes_for_each_reasoning_variant(pipelines):
    for variant in ("lftc", "lftc-mcc", "baseline-ncd"):
        pipe = pipelines[variant]
        assert pipe.sizes == tuple(
            DeflateBackend().compressed_size(s.text) for s in pipe.train.samples
        )
    assert pipelines["lftc-cr"].sizes == ()
