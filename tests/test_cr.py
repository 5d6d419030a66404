import random

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from lftc.compression import DeflateBackend
from lftc.cr import (
    NcdNeighbor,
    extract_gold,
    ncd_distances,
    reason_detail,
    sample_sizes,
    vote_detail,
)
from codec_helpers import ncd
from conftest import corpus_from

PAIR = ("p", "q")


def neighbors(*items):
    return [NcdNeighbor(d, label, i) for i, (d, label) in enumerate(items)]


def gold_distances(query, gold):
    return ncd_distances(query, gold.samples, sample_sizes(gold.samples))


def reason(corpus, query):
    return reason_detail(corpus, PAIR, query, sample_sizes(corpus.samples))


# --- extract_gold -------------------------------------------------------------

def test_extract_gold_filters_and_counts():
    corpus = corpus_from(
        [("p", b"p%d" % i) for i in range(5)]
        + [("q", b"q%d" % i) for i in range(7)]
        + [("r", b"r%d" % i) for i in range(9)]
    )
    gold = extract_gold(corpus, PAIR)
    assert len(gold.samples) == 12
    assert all(s.label in {"p", "q"} for s in gold.samples)


def test_extract_gold_preserves_order():
    corpus = corpus_from([("r", b"x1"), ("p", b"x2"), ("q", b"x3"), ("p", b"x4")])
    gold = extract_gold(corpus, PAIR)
    assert gold.corpus_indices == (1, 2, 3)
    assert list(gold.corpus_indices) == sorted(gold.corpus_indices)


def test_extract_gold_single_label_present():
    corpus = corpus_from([("p", b"only p here"), ("p", b"more p")])
    gold = extract_gold(corpus, PAIR)
    assert {s.label for s in gold.samples} == {"p"}


def test_extract_gold_empty_raises():
    corpus = corpus_from([("r", b"nothing relevant")])
    with pytest.raises(ValueError, match="no training samples"):
        extract_gold(corpus, PAIR)


def test_extract_gold_every_class_is_the_corpus():
    corpus = corpus_from([("r", b"x1"), ("p", b"x2"), ("q", b"x3")])
    gold = extract_gold(corpus, sorted(corpus.classes))
    assert gold.samples == corpus.samples
    assert gold.corpus_indices == (0, 1, 2)


# --- ncd_distances ------------------------------------------------------------

def seeded_text(seed, n=300):
    rng = random.Random(seed)
    return bytes(rng.randrange(256) for _ in range(n))


def test_exact_copy_is_nearest():
    query = b"the exact same document body, repeated words repeated words." * 4
    samples = [("q", query)] + [("p", seeded_text(i)) for i in range(20)]
    corpus = corpus_from(samples)
    gold = extract_gold(corpus, PAIR)
    dists = gold_distances(query, gold)
    best = min(dists, key=lambda n: n.distance)
    assert best.label == "q"
    others = [d.distance for d in dists if d.index != best.index]
    assert all(best.distance < d for d in others)


def test_single_gold_sample():
    corpus = corpus_from([("p", b"lone sample")])
    gold = extract_gold(corpus, PAIR)
    dists = gold_distances(b"query text", gold)
    assert len(dists) == 1
    assert dists[0].index == 0


def test_distances_deterministic_and_cache_neutral():
    # Distances read from the fitted sizes equal NCDs computed from scratch.
    corpus = corpus_from([("p", seeded_text(1)), ("q", seeded_text(2)), ("p", seeded_text(1))])
    gold = extract_gold(corpus, PAIR)
    q = seeded_text(3)
    fitted = gold_distances(q, gold)
    assert fitted == gold_distances(q, gold)
    assert [n.distance for n in fitted] == [
        ncd(DeflateBackend(), q, s.text) for s in gold.samples
    ]


def test_distances_reject_misaligned_sizes():
    corpus = corpus_from([("p", b"first"), ("q", b"second")])
    with pytest.raises(ValueError):
        ncd_distances(b"query", corpus.samples, sample_sizes(corpus.samples)[:1])


def test_distances_reject_empty_query():
    corpus = corpus_from([("p", b"x")])
    with pytest.raises(ValueError):
        gold_distances(b"", extract_gold(corpus, PAIR))


# --- vote_detail -------------------------------------------------------------

def test_k1_argmin():
    assert vote_detail(neighbors((0.4, "p"), (0.2, "q")), 1).label == "q"


def test_k2_tie_takes_closest():
    assert vote_detail(neighbors((0.1, "p"), (0.2, "q")), 2).label == "p"


def test_k3_majority():
    assert vote_detail(neighbors((0.1, "p"), (0.2, "q"), (0.3, "q")), 3).label == "q"


def test_k1_equal_distance_index_tiebreak():
    nbrs = [NcdNeighbor(0.5, "b", 1), NcdNeighbor(0.5, "a", 0)]
    assert vote_detail(nbrs, 1).label == "a"


def test_k_larger_than_pool():
    assert vote_detail(neighbors((0.3, "p"), (0.2, "p"), (0.1, "q")), 10).label == "p"


@settings(max_examples=100, deadline=None)
@given(
    st.lists(
        st.tuples(st.floats(min_value=0.001, max_value=1.2, allow_nan=False),
                  st.sampled_from("pq")),
        min_size=1,
        max_size=10,
    ),
    st.sampled_from([1, 3]),
    st.floats(min_value=0.1, max_value=50),
)
def test_knn_scale_invariance(items, k, factor):
    nbrs = neighbors(*items)
    scaled = [NcdNeighbor(n.distance * factor, n.label, n.index) for n in nbrs]
    assert vote_detail(nbrs, k).label == vote_detail(scaled, k).label


def test_knn_permutation_invariance_distinct_distances():
    rng = random.Random(0)
    base = [(round(0.1 + 0.07 * i, 3), rng.choice("pq")) for i in range(9)]
    want = vote_detail(neighbors(*base), 3).label
    for _ in range(10):
        perm = base[:]
        rng.shuffle(perm)
        # re-indexing after the shuffle models a reordered gold corpus
        assert vote_detail(neighbors(*perm), 3).label == want


def test_knn_output_in_present_labels():
    nbrs = neighbors((0.9, "a"), (0.8, "b"), (0.7, "c"))
    assert vote_detail(nbrs, 2).label in {"a", "b", "c"}


def test_knn_rejects_empty():
    with pytest.raises(ValueError):
        vote_detail([])
    with pytest.raises(ValueError):
        vote_detail(neighbors((0.1, "p")), 0)


# --- reason_detail -----------------------------------------------------------

def test_reason_single_label_gold():
    corpus = corpus_from([("p", b"aaa bbb ccc"), ("p", b"ddd eee fff")])
    assert reason(corpus, b"some query").label == "p"


def test_reason_exact_copy_wins():
    query = b"unmistakably class q content with queue quay quiz words" * 3
    corpus = corpus_from(
        [("p", seeded_text(i)) for i in range(5)] + [("q", query)]
    )
    assert reason(corpus, query).label == "q"


def test_reason_deterministic():
    corpus = corpus_from([("p", seeded_text(1)), ("q", seeded_text(2)), ("p", seeded_text(3))])
    q = seeded_text(9)
    a = reason(corpus, q).label
    b = reason(corpus, q).label
    assert a == b


def test_reason_without_gold_raises():
    # Labels with no training text are an error, not a flagged guess.
    corpus = corpus_from([("r", b"unrelated class only")])
    with pytest.raises(ValueError, match="no training samples"):
        reason(corpus, b"query")


def test_reason_always_within_pair():
    corpus = corpus_from(
        [("p", seeded_text(1)), ("q", seeded_text(2)), ("r", seeded_text(3))]
    )
    for seed in range(10):
        got = reason(corpus, seeded_text(100 + seed)).label
        assert got in {"p", "q"}

