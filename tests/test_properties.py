"""Properties of fitted pipelines over arbitrary queries and corpora."""

import copy
import itertools
import random
from dataclasses import replace
from unittest import mock

import pytest
from hypothesis import assume, given, settings
from hypothesis import strategies as st

from lftc import cr, mcc
from lftc.classifier import VARIANTS, Pipeline, PipelineConfig, evaluate
from lftc.compression import DICT_MODES, DeflateBackend
from lftc.corpus import Corpus, LabeledText
from lftc.synthetic import CLASS_NAMES, MotifGenerator

import paper_reference
from conftest import make_motif_split

queries = st.binary(min_size=1, max_size=600)
texts = st.binary(min_size=1, max_size=300)


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


@st.composite
def oracle_cases(draw):
    """A train split with two or more classes, a config with no variant or
    dictionary mode, and queries. The split is generated, with one class
    thinned so that the classes' segment counts differ, or arbitrary bytes
    under interleaved labels."""
    if draw(st.booleans()):
        gen = MotifGenerator(draw(st.integers(0, 99)), classes=draw(st.integers(2, 4)),
                             tokens_per_doc=(20, 60))
        thin, keep = draw(st.sampled_from(gen.class_names)), draw(st.integers(1, 3))
        full = gen.corpus("generated", draw(st.integers(6, 14)), "train").samples
        samples = [s for s in full if s.label != thin] + [s for s in full if s.label == thin][:keep]
        rng = random.Random(draw(st.integers(0, 99)))
        asked = [gen.document(c, rng) for c in gen.class_names]
    else:
        items = draw(st.lists(st.tuples(st.sampled_from("abc"), texts), min_size=2, max_size=10))
        assume(len({label for label, _ in items}) >= 2)
        samples = [LabeledText(label, text) for label, text in items]
        asked = [draw(st.sampled_from(samples)).text]
    config = PipelineConfig(
        k=draw(st.sampled_from([1, 2, 3])), level=draw(st.sampled_from([1, 3, 19])),
        plan=mcc.SegmentPlan(draw(st.sampled_from([64, 256, 1024, 2048, 4096])),
                             draw(st.sampled_from([1, 2, 3, 16]))))
    return Corpus("train", tuple(samples)), config, asked + [draw(queries)]


@settings(max_examples=40, deadline=None)
@given(case=oracle_cases())
def test_pipeline_is_the_paper(case):
    # For every variant and dictionary mode, the fit's dictionaries and
    # every field of each answer are those of the paper's classifier
    # stated the slow way (tests/paper_reference.py).
    train, base, asked = case
    for variant, dict_mode in itertools.product(VARIANTS, DICT_MODES):
        config = replace(base, variant=variant, dict_mode=dict_mode)
        pipe = Pipeline(train, config)
        dictionaries = paper_reference.dictionaries(train, config)
        assert pipe.dictionaries == dictionaries, variant
        for query in asked:
            got = pipe.predict(query)
            pair = got.candidate_pair and (
                got.candidate_pair.first, got.candidate_pair.second,
                tuple((s.class_id, s.score) for s in got.candidate_pair.scores))
            neighbors = tuple((n.distance, n.label, n.index) for n in got.neighbors)
            assert (got.error, got.predicted, pair, neighbors, got.tie, got.ncd_calls) == (
                None, *paper_reference.predict(train, config, dictionaries, query)), variant


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
@given(corpus=interleaved_corpora())
def test_the_class_index_on_interleaved_labels(five_classes, corpus):
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
    report, preds = evaluate(five_classes, corpus)
    want = {}
    for c in sorted(index):
        mine = [p for p in preds if p.truth == c]
        want[c] = sum(p.error is None and p.predicted == c for p in mine) / len(mine)
    assert report.per_class == want and list(report.per_class) == list(want)
