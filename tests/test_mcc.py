import ctypes
import random
import resource

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from lftc import mcc
from lftc import zstd_bindings as zb
from lftc.classifier import Pipeline, PipelineConfig
from lftc.compression import SourceSpan, TrainedDictionary, train_dictionary
from lftc.corpus import DEFAULT_SEPARATOR, Corpus
from lftc.mcc import (
    ClassScore,
    DegenerateCorpusError,
    SegmentPlan,
    build_all_lists,
    compressor_lists,
    score_query,
    segment_count,
    select_candidates,
)
from lftc.synthetic import MotifGenerator

from codec_helpers import sizeof_cdict
from conftest import corpus_from, make_motif_split
from paper_reference import class_text
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


@pytest.mark.parametrize("field", ["step_size", "max_compressors_per_class"])
@pytest.mark.parametrize("value", [None, 0, -1, 2.0, "16", True])
def test_segment_plan_takes_integers_at_least_one(field, value):
    with pytest.raises(ValueError, match=f"{field} must be an integer >= 1"):
        SegmentPlan(**{field: value})


def fitted_lists(corpus, plan):
    """Compressor lists as a fit builds them: trained, then digested at 3."""
    return compressor_lists(build_all_lists(corpus, plan), 3)


def test_build_all_lists_keys(motif_split):
    train, _ = motif_split
    dictionaries = build_all_lists(train, SegmentPlan(step_size=1024))
    assert set(dictionaries) == train.classes


def _training_inputs(corpus, plan, monkeypatch):
    """``(texts, base, span, segment)`` for each of ``class_segments``'
    items, where ``segment`` is the bytes its ``train_segment`` trains on."""
    inputs = []
    monkeypatch.setattr(mcc, "train_dictionary",
                        lambda segment, span, mode: inputs.append(segment))
    items = mcc.class_segments(corpus, plan)
    for item in items:
        mcc.train_segment(item, "trained")
    return [(*item, segment) for item, segment in zip(items, inputs)]


def _separator_corpus():
    # "a" is one text. "b" joins as b"abc|de|fghij|k", | being the separator
    # at 3, 6 and 12: at step 2 segments end on 3 and start on 6 and 12, at
    # step 4 the first ends on 3 and the last starts on 12.
    return corpus_from([("a", b"0123456789ABCDEF"), ("b", b"abc"), ("b", b"de"),
                        ("b", b"fghij"), ("b", b"k")], name="separators")


@pytest.mark.parametrize("split, plan", [
    ("bundled", SegmentPlan()),
    ("bundled", SegmentPlan(1024, 4)),
    ("generated", SegmentPlan(8192)),
    ("separators", SegmentPlan(2, 16)),
    ("separators", SegmentPlan(4, 16)),
])
def test_a_segment_trains_on_its_span_of_the_class_text_from_its_own_texts(
    split, plan, bundled_train, monkeypatch
):
    # Each item trains on the bytes of its span in the class's joined text,
    # and holds no more than the span plus one training text on each side,
    # so where texts are far shorter than a step, as in the bundled and
    # generated splits, no item keeps the whole of a multi-segment class.
    if split == "bundled":
        corpus = bundled_train
    elif split == "generated":
        corpus = MotifGenerator(7, tokens_per_doc=(200, 400)).corpus("g", 40, "train")
    else:
        corpus = _separator_corpus()
    wholes = {c: class_text(corpus, c) for c in corpus.classes}
    items = _training_inputs(corpus, plan, monkeypatch)
    edges = set()
    for texts, base, span, segment in items:
        whole = wholes[span.class_id]
        joined = DEFAULT_SEPARATOR.join(texts)
        assert segment == whole[span.start:span.stop]
        assert whole[base:base + len(joined)] == joined
        assert len(joined) <= (span.stop - span.start + len(texts[0]) + len(texts[-1])
                               + 2 * len(DEFAULT_SEPARATOR))
        if split != "separators" and segment_count(len(whole), plan.step_size) > 1:
            assert len(joined) < len(whole)
        if whole[span.start:span.start + 1] == DEFAULT_SEPARATOR:
            edges.add("starts")
        if whole[span.stop - 1:span.stop] == DEFAULT_SEPARATOR:
            edges.add("ends")
    if split == "separators":
        assert any(len(corpus.by_class[c]) == 1 for c in corpus.classes)
        assert edges == {"starts", "ends"}


def test_build_all_lists_equal_lengths_on_a_ragged_corpus():
    # One class with far fewer documents sets the length of every list,
    # capped or not.
    gen = MotifGenerator(1, classes=5, tokens_per_doc=(200, 400), noise_ratio=0.3)
    full = gen.corpus("t", 24, "train")
    small = [s for s in full.samples if s.label == "alpha"][:4]
    train = Corpus("ragged", tuple(small) + tuple(s for s in full.samples if s.label != "alpha"))
    counts = {c: segment_count(len(class_text(train, c)), 4096) for c in train.classes}
    assert counts["alpha"] < min(n for c, n in counts.items() if c != "alpha")
    for cap, m in ((max(counts.values()), counts["alpha"]), (16, counts["alpha"]), (2, 2)):
        plan = SegmentPlan(step_size=4096, max_compressors_per_class=cap)
        dictionaries = build_all_lists(train, plan)
        assert {c: len(ds) for c, ds in dictionaries.items()} == dict.fromkeys(dictionaries, m)
    assert counts["beta"] > m


def test_build_all_lists_passes_errors_through(motif_split, monkeypatch):
    # An exception whose constructor takes more than a message comes out as
    # itself, not as a TypeError from rebuilding it.
    train, _ = motif_split

    def failing(*args, **kwargs):
        raise UnicodeDecodeError("utf-8", b"\xff", 0, 1, "invalid start byte")

    monkeypatch.setattr(mcc, "train_dictionary", failing)
    with pytest.raises(UnicodeDecodeError):
        build_all_lists(train, SegmentPlan())


def test_dictionaries_do_not_depend_on_the_level(motif_split):
    # ZDICT is given no level: fits at levels 1, 3 and 19 train the same
    # dictionaries, and the level enters only the digests.
    train, _ = motif_split
    plan = SegmentPlan(2048, 1 << 20)
    fits = {level: Pipeline(train, PipelineConfig(plan=plan, level=level)) for level in (1, 3, 19)}
    fast = fits[1].dictionaries
    assert [len(ds) for ds in fast.values()] == [2] * len(train.classes)
    modes = {d.source_span.mode for ds in fast.values() for d in ds}
    assert modes == {"trained", "raw"}
    for level, fit in fits.items():
        assert fit.dictionaries == fast
        assert {x.cdict.level for cl in fit.lists.values() for x in cl.compressors} == {level}


@pytest.mark.skipif(
    not hasattr(ctypes.CDLL(None), "mallopt"), reason="libc has no mallopt (not glibc)"
)
def test_build_all_lists_faults_in_one_dictionarys_tables():
    # Under keep_heap(), as in every Pipeline fit, ZDICT's scratch tables
    # stay mapped across a fit. At step 8192 each dictionary's tables take
    # 384 KiB, above glibc's default mmap threshold: kept mapped, each
    # dictionary past the first few costs ~3 minor page faults; mapped
    # afresh per dictionary, ~100.
    gen = MotifGenerator(1, classes=4, tokens_per_doc=(200, 400), noise_ratio=0.3)
    train = gen.corpus("t", 40, "train")

    def faults(plan):
        before = resource.getrusage(resource.RUSAGE_SELF).ru_minflt
        with zb.keep_heap():
            lists = compressor_lists(build_all_lists(train, plan), 3)
        dictionaries = sum(len(cl.compressors) for cl in lists.values())
        return resource.getrusage(resource.RUSAGE_SELF).ru_minflt - before, dictionaries

    one = SegmentPlan(step_size=8192, max_compressors_per_class=1)
    faults(one)  # loads libzstd and settles the allocator
    few, small = faults(one)
    many, large = faults(SegmentPlan(8192, 1 << 20))
    assert (small, large) == (4, 48)
    assert (many - few) / (large - small) < 50, (many, few)


def test_one_table_log_for_dictionaries_across_a_power_of_two(bundled_train):
    # The default plan's dictionaries on the bundled split straddle 8 KiB:
    # every digest gets the largest's table log, 14, and none the 13 that
    # its own size would give.
    dictionaries = build_all_lists(bundled_train, SegmentPlan())
    lists = compressor_lists(dictionaries, 3)
    pairs = [
        (d, c) for class_id, ds in dictionaries.items()
        for d, c in zip(ds, lists[class_id].compressors, strict=True)
    ]
    sizes = [len(d.payload) for d, _ in pairs]
    assert min(sizes) <= 8192 < max(sizes) <= 16384
    assert {c.cdict.table_log for _, c in pairs} == {14}
    smallest, compressor = min(pairs, key=lambda pair: len(pair[0].payload))
    own = sizeof_cdict(compressor.cdict)
    assert own == sizeof_cdict(zb.CDict(smallest.payload, 3, 14))
    assert own > sizeof_cdict(zb.CDict(smallest.payload, 3, 13))


def test_compressor_lists_reject_unequal_lengths(motif_split):
    train, _ = motif_split
    dictionaries = build_all_lists(train, SegmentPlan(step_size=1024))
    assert len({len(ds) for ds in dictionaries.values()}) == 1
    dictionaries["alpha"] = dictionaries["alpha"][1:]
    with pytest.raises(ValueError, match="unequal lengths"):
        compressor_lists(dictionaries, 3)


@pytest.fixture(scope="module")
def whole_class_dictionary():
    """A trained lftc-mcc dictionary at ZDICT's 110 KiB capacity."""
    gen = MotifGenerator(7, classes=1, motifs_per_class=400, tokens_per_doc=(200, 400))
    limit = PipelineConfig(variant="lftc-mcc").plan.step_size
    text = class_text(gen.corpus("w", 220, "train"), "alpha")[:limit]
    dictionary = train_dictionary(text, SourceSpan("alpha", 0, 0, len(text)))
    assert dictionary.source_span.mode == "trained"
    assert len(dictionary.payload) == 110 * 1024
    return dictionary


@pytest.mark.parametrize("level", [1, 3, 9, 19])
def test_extreme_dictionaries_digest_and_score(level, whole_class_dictionary):
    # Table logs at the floor of 6 (a 1-byte raw dictionary) and at 17,
    # above what the fast levels' own rows allow, against each level's
    # parameter row.
    tiny = TrainedDictionary(b"x", SourceSpan("tiny", 0, 0, 1))
    query = MotifGenerator(3).document("alpha", random.Random(1)) * 8
    for dictionary, table_log in ((tiny, 6), (whole_class_dictionary, 17)):
        lists = compressor_lists({"c": [dictionary]}, level)
        (compressor,) = lists["c"].compressors
        assert compressor.cdict.table_log == table_log
        assert 0 < compressor.score(query) < len(query)


def test_score_query_prefers_own_class():
    gen = MotifGenerator(3, classes=2, noise_ratio=0.1)
    train = gen.corpus("t", 20, "train")
    lists = fitted_lists(train, SegmentPlan())
    rng = random.Random(5)
    query = gen.document("alpha", rng)
    scores = {s.class_id: s.score for s in score_query(lists, query)}
    assert scores["alpha"] < scores["beta"]


def test_score_query_single_class():
    corpus = corpus_from([("only", b"some text here")])
    lists = fitted_lists(corpus, SegmentPlan())
    scores = score_query(lists, b"a query")
    assert len(scores) == 1 and scores[0].class_id == "only"


def test_score_query_deterministic(motif_split):
    train, test = motif_split
    lists = fitted_lists(train, SegmentPlan(step_size=2048))
    q = test.samples[0].text
    assert score_query(lists, q) == score_query(lists, q)


def test_score_query_equals_recomputed_sum(motif_split):
    # Each class sum is one summed_size loop on a lane; this pins it to the
    # per-dictionary scores, one call each on the calling thread.
    train, test = motif_split
    lists = fitted_lists(train, SegmentPlan(step_size=2048))
    q = test.samples[1].text
    for cs in score_query(lists, q):
        manual = sum(c.score(q) for c in lists[cs.class_id].compressors)
        assert cs.score == manual


def test_pair_recall_with_equal_lists_on_32_classes():
    # With each class's own segment count (11 to 13 here), classes with
    # fewer segments sum lower, and only 0.7375 of these queries have their
    # class in the pair; with equal lists every one does.
    train, test = make_motif_split(1, classes=32, tokens_per_doc=(200, 400), noise_ratio=0.3)
    lists = fitted_lists(train, SegmentPlan(8192, 1 << 20))
    assert {len(cl.compressors) for cl in lists.values()} == {11}
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
        lists = fitted_lists(train, SegmentPlan())
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
        dictionaries = build_all_lists(train, SegmentPlan(step_size=4096))
        zstd_lists = compressor_lists(dictionaries, 3)
        segments = {}
        for class_id, ds in dictionaries.items():
            text = class_text(train, class_id)
            spans = [d.source_span for d in ds]
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
