import ctypes
import random
import resource

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from lftc import mcc
from lftc.compression import ZstdBackend
from lftc.corpus import Corpus, concat_class_text
from lftc.mcc import (
    BundleSource,
    ClassScore,
    DegenerateCorpusError,
    SegmentPlan,
    build_all_lists,
    load_bundle,
    save_bundle,
    score_query,
    segment_count,
    select_candidates,
)
from lftc.synthetic import MotifGenerator, make_motif_split

from conftest import corpus_from
from reference_lz import ref_compress_size


def test_segment_count_examples():
    assert segment_count(1000, 400) == 3
    assert segment_count(400, 400) == 1
    assert segment_count(1, 1_000_000) == 1


@settings(max_examples=200, deadline=None)
@given(st.integers(min_value=1, max_value=10**9), st.integers(min_value=1, max_value=10**6))
def test_segment_count_bracket_property(total, step):
    n = segment_count(total, step)
    assert n * step >= total > (n - 1) * step


def test_segment_count_rejects_nonpositive():
    with pytest.raises(ValueError):
        segment_count(0, 4)
    with pytest.raises(ValueError):
        segment_count(4, 0)


def one_text_per_class(total_len: int):
    # single samples avoid separator arithmetic in span checks; "b" is as
    # long as "a", so the shared list length is a's own segment count
    return corpus_from([("a", bytes(i % 251 for i in range(total_len))),
                        ("b", bytes(i % 13 for i in range(total_len)))])


def spans(class_list):
    return [(c.dictionary.source_span.start, c.dictionary.source_span.stop)
            for c in class_list.compressors]


def test_build_class_list_spans_tile():
    corpus = one_text_per_class(1000)
    cl = build_all_lists(corpus, SegmentPlan(step_size=400, max_compressors_per_class=None),
                         ZstdBackend())["a"]
    assert len(cl.compressors) == 3
    assert spans(cl) == [(0, 400), (400, 800), (800, 1000)]


def test_build_class_list_cap_evenly_spaced():
    corpus = one_text_per_class(10_000)
    cl = build_all_lists(corpus, SegmentPlan(step_size=100, max_compressors_per_class=10),
                         ZstdBackend())["a"]
    assert len(cl.compressors) == 10
    got = [c.dictionary.source_span.segment_index for c in cl.compressors]
    assert got == [0, 10, 20, 30, 40, 50, 60, 70, 80, 90]
    starts = [s for s, _ in spans(cl)]
    assert starts[0] == 0 and starts[-1] == 9000


def test_build_class_list_single_short_text():
    corpus = corpus_from([("a", b"tiny text of fifty bytes or so, quite short."), ("b", b"zz")])
    cl = build_all_lists(corpus, SegmentPlan(step_size=400), ZstdBackend())["a"]
    assert len(cl.compressors) == 1
    assert cl.compressors[0].dictionary.source_span.mode == "raw"  # too small to train


def test_build_all_lists_keys(motif_split):
    train, _ = motif_split
    lists = build_all_lists(train, SegmentPlan(step_size=1024), ZstdBackend())
    assert set(lists) == train.classes


def test_build_all_lists_spans_are_evenly_spaced_steps(motif_split):
    # Every class keeps m step-size slices of its concatenated text, with m
    # the fewest segments any class has; the first slice starts at 0.
    train, _ = motif_split
    plan = SegmentPlan(step_size=1024, max_compressors_per_class=None)
    lists = build_all_lists(train, plan, ZstdBackend())
    lengths = {c: len(concat_class_text(train, c)) for c in lists}
    counts = {c: segment_count(n, plan.step_size) for c, n in lengths.items()}
    m = min(counts.values())
    assert len(set(counts.values())) > 1  # the split is ragged
    for class_id, cl in lists.items():
        indices = mcc._segment_indices(counts[class_id], m)
        assert [c.dictionary.source_span.segment_index for c in cl.compressors] == indices
        assert spans(cl) == [
            (i * 1024, min(lengths[class_id], (i + 1) * 1024)) for i in indices
        ]
        assert spans(cl)[0][0] == 0


def test_build_all_lists_equal_lengths_on_a_ragged_corpus():
    # One class with far fewer documents sets the length of every list,
    # capped or not.
    gen = MotifGenerator(1, classes=5, tokens_per_doc=(200, 400), noise_ratio=0.3)
    full = gen.corpus("t", 24, "train")
    small = [s for s in full.samples if s.label == "alpha"][:4]
    train = Corpus("ragged", tuple(small) + tuple(s for s in full.samples if s.label != "alpha"))
    for cap in (None, 16, 2):
        plan = SegmentPlan(step_size=4096, max_compressors_per_class=cap)
        counts = {c: segment_count(len(concat_class_text(train, c)), 4096)
                  for c in train.classes}
        assert counts["alpha"] < min(n for c, n in counts.items() if c != "alpha")
        lists = build_all_lists(train, plan, ZstdBackend())
        m = counts["alpha"] if cap is None else min(counts["alpha"], cap)
        assert {c: len(cl.compressors) for c, cl in lists.items()} == dict.fromkeys(lists, m)
    assert counts["beta"] > m


def test_build_all_lists_passes_errors_through(motif_split, monkeypatch):
    # An exception whose constructor takes more than a message comes out as
    # itself, not as a TypeError from rebuilding it.
    train, _ = motif_split

    def failing(*args, **kwargs):
        raise UnicodeDecodeError("utf-8", b"\xff", 0, 1, "invalid start byte")

    monkeypatch.setattr(mcc, "train_dictionary", failing)
    with pytest.raises(UnicodeDecodeError):
        build_all_lists(train, SegmentPlan(), ZstdBackend())


def test_dictionaries_do_not_depend_on_the_level(motif_split):
    # ZDICT is given no level: the level enters only the digest.
    train, _ = motif_split
    plan = SegmentPlan(step_size=2048, max_compressors_per_class=None)

    def dictionaries(level):
        lists = build_all_lists(train, plan, ZstdBackend(level))
        return {c: [x.dictionary for x in l.compressors] for c, l in lists.items()}

    fast = dictionaries(1)
    modes = {d.source_span.mode for ds in fast.values() for d in ds}
    assert modes == {"trained", "raw"}
    assert dictionaries(3) == fast
    assert dictionaries(19) == fast


@pytest.mark.skipif(
    not hasattr(ctypes.CDLL(None), "mallopt"), reason="libc has no mallopt (not glibc)"
)
def test_build_all_lists_faults_in_one_dictionarys_tables():
    # ZDICT's scratch tables stay mapped across a fit. At step 8192 each
    # dictionary's tables take 256 KiB, above glibc's default mmap
    # threshold: kept mapped, each dictionary past the first few costs ~16
    # minor page faults; mapped afresh per dictionary, ~500.
    gen = MotifGenerator(1, classes=4, tokens_per_doc=(200, 400), noise_ratio=0.3)
    train = gen.corpus("t", 40, "train")

    def faults(cap):
        plan = SegmentPlan(step_size=8192, max_compressors_per_class=cap)
        before = resource.getrusage(resource.RUSAGE_SELF).ru_minflt
        lists = build_all_lists(train, plan, ZstdBackend())
        dictionaries = sum(len(cl.compressors) for cl in lists.values())
        return resource.getrusage(resource.RUSAGE_SELF).ru_minflt - before, dictionaries

    faults(1)  # loads libzstd and settles the allocator
    few, small = faults(1)
    many, large = faults(None)
    assert (small, large) == (4, 48)
    assert (many - few) / (large - small) < 50, (many, few)


def test_score_query_prefers_own_class():
    gen = MotifGenerator(3, classes=2, noise_ratio=0.1)
    train = gen.corpus("t", 20, "train")
    lists = build_all_lists(train, SegmentPlan(), ZstdBackend())
    rng = random.Random(5)
    query = gen.document("alpha", rng)
    scores = {s.class_id: s.score for s in score_query(lists, query)}
    assert scores["alpha"] < scores["beta"]


def test_score_query_single_class():
    corpus = corpus_from([("only", b"some text here")])
    lists = build_all_lists(corpus, SegmentPlan(), ZstdBackend())
    scores = score_query(lists, b"a query")
    assert len(scores) == 1 and scores[0].class_id == "only"


def test_score_query_deterministic(motif_split):
    train, test = motif_split
    lists = build_all_lists(train, SegmentPlan(step_size=2048), ZstdBackend())
    q = test.samples[0].text
    assert score_query(lists, q) == score_query(lists, q)


def test_score_query_equals_recomputed_sum(motif_split):
    train, test = motif_split
    lists = build_all_lists(train, SegmentPlan(step_size=2048), ZstdBackend())
    q = test.samples[1].text
    for cs in score_query(lists, q):
        manual = sum(c.score(q) for c in lists[cs.class_id].compressors)
        assert cs.score == manual


def test_pair_recall_with_equal_lists_on_32_classes():
    # With each class's own segment count (11 to 13 here), classes with
    # fewer segments sum lower, and only 0.7375 of these queries have their
    # class in the pair; with equal lists every one does.
    train, test = make_motif_split(1, classes=32, tokens_per_doc=(200, 400), noise_ratio=0.3)
    lists = build_all_lists(train, SegmentPlan(step_size=8192, max_compressors_per_class=None),
                            ZstdBackend())
    queries = test.samples[::3]
    assert len(queries) == 320
    missed = []
    for i, sample in enumerate(queries):
        pair = select_candidates(score_query(lists, sample.text))
        if sample.label not in (pair.first, pair.second):
            missed.append(i)
    assert missed == []


def test_select_candidates_ordering():
    scores = [ClassScore("a", 100), ClassScore("b", 90), ClassScore("c", 120)]
    pair = select_candidates(scores)
    assert (pair.first, pair.second) == ("b", "a")
    assert pair.scores == tuple(scores)  # full audit trail


def test_select_candidates_tie_lexicographic():
    scores = [ClassScore("b", 100), ClassScore("a", 100), ClassScore("c", 120)]
    pair = select_candidates(scores)
    assert (pair.first, pair.second) == ("a", "b")


def test_select_candidates_degenerate():
    with pytest.raises(DegenerateCorpusError):
        select_candidates([ClassScore("a", 10)])


def test_class_regularity_separation():
    # argmin class matches the query's generator on >= 95% of 200 trials
    correct = 0
    trials = 0
    for seed in range(4):
        gen = MotifGenerator(seed, classes=3, tokens_per_doc=(20, 40), noise_ratio=0.45)
        train = gen.corpus("t", 40, "train")
        lists = build_all_lists(train, SegmentPlan(), ZstdBackend())
        rng = random.Random(f"queries:{seed}")
        for i in range(50):
            class_id = gen.class_names[i % 3]
            query = gen.document(class_id, rng)
            pair = select_candidates(score_query(lists, query))
            correct += pair.first == class_id
            trials += 1
    assert trials == 200
    assert correct / trials >= 0.95


def test_reference_and_zstd_rankings_agree():
    # sanity link between the literal scoring pipeline and the production
    # backend: argmin class agrees on >= 90% of repetitive synthetic trials.
    # The reference scores each query against the raw bytes of the same
    # segments the zstd lists were built from.
    agree = 0
    trials = 0
    for seed in range(5):
        gen = MotifGenerator(seed, classes=3, tokens_per_doc=(25, 45), noise_ratio=0.2)
        train = gen.corpus("t", 10, "train")
        zstd_lists = build_all_lists(train, SegmentPlan(step_size=4096), ZstdBackend())
        segments = {}
        for class_id, cl in zstd_lists.items():
            text = concat_class_text(train, class_id)
            spans = [c.dictionary.source_span for c in cl.compressors]
            segments[class_id] = [text[s.start : s.stop] for s in spans]
        rng = random.Random(f"agree:{seed}")
        for i in range(10):
            query = gen.document(gen.class_names[i % 3], rng)
            z = select_candidates(score_query(zstd_lists, query)).first
            ref_scores = [
                ClassScore(c, sum(ref_compress_size(seg, query) for seg in segs))
                for c, segs in sorted(segments.items())
            ]
            r = select_candidates(ref_scores).first
            agree += z == r
            trials += 1
    assert trials == 50
    assert agree / trials >= 0.90


def test_bundle_round_trip(tmp_path, motif_split):
    train, test = motif_split
    plan = SegmentPlan(step_size=2048)
    backend = ZstdBackend()
    lists = build_all_lists(train, plan, backend)
    path = tmp_path / "lists.bundle"
    source = BundleSource(backend, plan, train.digest(), "trained")
    save_bundle(path, lists, source)
    loaded, loaded_source = load_bundle(path)
    assert loaded_source == source
    q = test.samples[0].text
    assert score_query(loaded, q) == score_query(lists, q)


def test_bundle_rejects_other_files(tmp_path):
    path = tmp_path / "bogus.json"
    path.write_text('{"format": "something-else"}')
    with pytest.raises(ValueError, match="not a compressor bundle"):
        load_bundle(path)
