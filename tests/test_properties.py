"""Properties of fitted pipelines over arbitrary queries and corpora."""

from unittest import mock

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from lftc.classifier import VARIANTS, Pipeline, PipelineConfig
from lftc.compression import DeflateBackend
from lftc.corpus import Corpus, LabeledText

queries = st.binary(min_size=1, max_size=600)


@pytest.fixture(scope="module")
def pipelines(motif_split):
    train, _ = motif_split
    return {v: Pipeline(train, PipelineConfig(variant=v)) for v in VARIANTS}


@settings(max_examples=30, deadline=None)
@given(query=queries)
def test_arbitrary_bytes_never_raise(pipelines, query):
    for variant, pipe in pipelines.items():
        fitted = dict(vars(pipe))
        pred = pipe.predict(query)
        assert pred.error is None, (variant, pred.error)
        assert pred.predicted in pipe.classes
        assert vars(pipe) == fitted  # predict writes nothing back


@settings(max_examples=30, deadline=None)
@given(query=queries)
def test_lftc_prediction_in_candidate_pair(pipelines, query):
    pred = pipelines["lftc"].predict(query)
    assert pred.predicted in (pred.candidate_pair.first, pred.candidate_pair.second)


@settings(max_examples=10, deadline=None)
@given(query=queries)
def test_baseline_makes_one_ncd_per_training_text(pipelines, query):
    pipe = pipelines["baseline-ncd"]
    real = DeflateBackend.compressed_size
    inputs = []

    def counting(self, data):
        inputs.append(data)
        return real(self, data)

    with mock.patch.object(DeflateBackend, "compressed_size", counting):
        pred = pipe.predict(query)
    assert pred.ncd_calls == len(pipe.train)
    # C(x) once, then C(xy) per training text: every C(y) comes from the fit.
    assert inputs == [query] + [query + s.text for s in pipe.train.samples]


texts = st.binary(min_size=1, max_size=300)


@settings(max_examples=25, deadline=None)
@given(st.lists(st.tuples(st.sampled_from("abc"), texts), min_size=1, max_size=12))
def test_fitted_sizes_are_deflate_sizes(items):
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
