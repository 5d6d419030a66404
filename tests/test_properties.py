"""Properties of fitted pipelines over arbitrary queries and corpora."""

import copy
import itertools
from unittest import mock

import pytest
from hypothesis import assume, given, settings
from hypothesis import strategies as st

from lftc import cr, mcc
from lftc.classifier import VARIANTS, Pipeline, PipelineConfig, evaluate
from lftc.compression import DeflateBackend
from lftc.corpus import DEFAULT_SEPARATOR, Corpus, LabeledText
from lftc.synthetic import CLASS_NAMES

from conftest import class_text, make_motif_split

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


@pytest.fixture(scope="module")
def five_classes():
    """An lftc-cr pipeline over five generated classes: the cheapest fit
    whose evaluate reports per-class accuracy for any of their labels."""
    train, _ = make_motif_split(7, train_docs=4, test_docs=1, classes=5, tokens_per_doc=(20, 40))
    return Pipeline(train, PipelineConfig(variant="lftc-cr"))


@st.composite
def interleaved_corpora(draw):
    """2-5 labels, one drawn for each sample, so classes interleave."""
    labels = CLASS_NAMES[:draw(st.integers(min_value=2, max_value=5))]
    items = draw(st.lists(st.tuples(st.sampled_from(labels), st.binary(min_size=1, max_size=30)),
                          min_size=1, max_size=16))
    return Corpus("mixed", tuple(LabeledText(label, text) for label, text in items))


@settings(max_examples=100, deadline=None)
@given(corpus=interleaved_corpora(), step=st.integers(min_value=1, max_value=8))
def test_the_class_index_on_interleaved_labels(five_classes, corpus, step):
    samples = corpus.samples
    index = corpus.by_class
    assert index is corpus.by_class and corpus.classes == frozenset(index)
    assert list(index) == sorted({s.label for s in samples})
    assert index == {c: tuple(i for i, s in enumerate(samples) if s.label == c) for c in index}
    # CR's gold data is the full scan's, for every subset of the labels and
    # one no sample carries; a subset with no known label has none.
    for n in range(6):
        for subset in itertools.combinations(CLASS_NAMES[:5], n):
            picked = tuple(i for i, s in enumerate(samples) if s.label in subset)
            if not picked:
                with pytest.raises(ValueError, match="no training samples"):
                    cr.extract_gold(corpus, subset)
                continue
            gold = cr.extract_gold(corpus, subset + ("nowhere",))
            assert gold.corpus_indices == picked
            assert gold.samples == tuple(samples[i] for i in picked)
    # Every segment's bytes are a slice of its class's whole join.
    for texts, base, span in mcc.class_segments(corpus, mcc.SegmentPlan(step, 1 << 20)):
        segment = DEFAULT_SEPARATOR.join(texts)[span.start - base:span.stop - base]
        assert segment == class_text(corpus, span.class_id)[span.start:span.stop]
    report, preds = evaluate(five_classes, corpus)
    want = {}
    for c in sorted(index):
        mine = [p for p in preds if p.truth == c]
        want[c] = sum(p.error is None and p.predicted == c for p in mine) / len(mine)
    assert report.per_class == want and list(report.per_class) == list(want)
