import ctypes
import gc
import math
import random
import sys
import threading
import time
import zlib
from concurrent.futures import ThreadPoolExecutor

import pytest
from hypothesis import example, given, settings
from hypothesis import strategies as st

from lftc import compression, mcc
from lftc import zstd_bindings as zb
from lftc.compression import (
    DICT_MODES,
    CompressionError,
    DeflateBackend,
    DictCompressor,
    SourceSpan,
    TrainedDictionary,
    ncd_value,
    train_dictionary,
)

import codec_helpers as frames
from codec_helpers import ncd
from reference_lz import (
    ref_compress_size,
    ref_entropy_coded_size,
    ref_longest_match,
    reference_tokens,
)


def zstd_size(data: bytes) -> int:
    """Plain zstd frame size at the default level, the no-dictionary
    reference the dictionary scores are compared against."""
    return frames.compressed_size(data, 3)


class ZstdSizes:
    """zstd frame sizes as an NCD backend."""

    kind = "zstd"
    compressed_size = staticmethod(zstd_size)


def digested(dictionary: TrainedDictionary, level: int = 3) -> DictCompressor:
    """The compressor of a list set that holds only ``dictionary``: its
    digest has the table log of that one dictionary."""
    return mcc.compressor_lists({"c": [dictionary]}, level)["c"].compressors[0]


def dict_scorer(data: bytes) -> int:
    """DictCompressor.score against a fixed raw dictionary."""
    return digested(train_dictionary(
        b"dictionary", SourceSpan("c", 0, 0, 10), mode="raw")).score(data)


REAL_BACKENDS = [ZstdSizes(), DeflateBackend()]
# Size functions by kind that reject empty input; zstd's is the dictionary
# scorer, the only zstd path that production code takes.
SIZE_FUNCTIONS = {
    "zstd": dict_scorer,
    "deflate": DeflateBackend().compressed_size,
    "reference-lz": lambda data: ref_compress_size(b"", data),
}


def motif_bytes(seed: int, words: int = 25, tokens: int = 400) -> bytes:
    rng = random.Random(seed)
    vocab = ["".join(rng.choice("abcdefghij") for _ in range(rng.randint(4, 8))) for _ in range(words)]
    return (" ".join(rng.choice(vocab) for _ in range(tokens))).encode()


def random_bytes(seed: int, n: int) -> bytes:
    rng = random.Random(seed)
    return bytes(rng.randrange(256) for _ in range(n))


# --- compressed_size ---------------------------------------------------------

def test_redundant_input_collapses():
    # observed: zstd 19, deflate 34 (pin with +-10%)
    data = b"a" * 10_000
    assert zstd_size(data) < 200
    assert DeflateBackend().compressed_size(data) < 200
    assert 17 <= zstd_size(data) <= 21
    assert 30 <= DeflateBackend().compressed_size(data) <= 38


def test_incompressible_input_does_not_shrink():
    data = random_bytes(42, 1000)
    size = DeflateBackend().compressed_size(data)
    assert size >= 1000
    assert size == 1011  # pinned observed value (zlib container overhead)


@pytest.mark.parametrize("kind", SIZE_FUNCTIONS)
def test_deterministic(kind):
    data = motif_bytes(1, tokens=120)
    assert SIZE_FUNCTIONS[kind](data) == SIZE_FUNCTIONS[kind](data)


@pytest.mark.parametrize("kind", SIZE_FUNCTIONS)
def test_empty_input_rejected(kind):
    with pytest.raises(ValueError):
        SIZE_FUNCTIONS[kind](b"")


@settings(max_examples=40, deadline=None)
@given(st.binary(min_size=1, max_size=400))
def test_size_positive_property(data):
    for backend in REAL_BACKENDS:
        assert backend.compressed_size(data) >= 1


def test_large_query_scores_at_the_backend_level():
    # One level for every query size: 64 KiB and more too.
    seg = motif_bytes(2, tokens=2000)
    dictionary = train_dictionary(seg, SourceSpan("c", 0, 0, len(seg)))
    comp = digested(dictionary)
    for query in (motif_bytes(12, tokens=12000)[: 64 * 1024], motif_bytes(13, tokens=30000)):
        assert len(query) >= 64 * 1024
        want = zb.compressed_size_with_cdict(
            query, zb.CDict(dictionary.payload, 3, comp.cdict.table_log)
        )
        assert comp.score(query) == want


# --- zstd / deflate interoperability ----------------------------------------

def test_zstd_frame_round_trip():
    data = motif_bytes(3)
    frame = frames.compress(data, 3)
    assert frames.decompress(frame) == data
    assert len(frame) == zstd_size(data)


def test_deflate_container_round_trip():
    data = motif_bytes(4)
    assert DeflateBackend().compressed_size(data) == len(zlib.compress(data, 6))


def test_zstd_dict_frame_round_trip():
    seg = motif_bytes(5, tokens=2000)
    dictionary = train_dictionary(seg, SourceSpan("c", 0, 0, len(seg)))
    comp = digested(dictionary)
    data = motif_bytes(5, tokens=150)
    frame = frames.compress_with_cdict(data, comp.cdict)
    assert frames.decompress(frame, dictionary.payload) == data
    assert len(frame) == comp.score(data)


def test_mismatched_dictionary_raises_zstd_error():
    seg = motif_bytes(5, tokens=2000)
    dictionary = train_dictionary(seg, SourceSpan("c", 0, 0, len(seg)))
    frame = frames.frame_with_dict_id(motif_bytes(5, tokens=150), digested(dictionary).cdict)
    assert frames.decompress(frame, dictionary.payload) == motif_bytes(5, tokens=150)
    seg = motif_bytes(6, tokens=2000)
    other = train_dictionary(seg, SourceSpan("c", 0, 0, len(seg)))
    with pytest.raises(zb.CompressionError, match="(?i)dictionary"):
        frames.decompress(frame, other.payload)


def test_a_dictionary_libzstd_cannot_read_fails_its_digest():
    # A trained dictionary's magic number and ID, then no entropy tables.
    seg = motif_bytes(5, tokens=2000)
    dictionary = train_dictionary(seg, SourceSpan("c", 0, 0, len(seg)))
    assert dictionary.source_span.mode == "trained"
    broken = TrainedDictionary(dictionary.payload[:8] + b"\xff" * 64, dictionary.source_span)
    with pytest.raises(CompressionError, match="^zstd: "):
        digested(broken)


def test_a_dictionary_of_an_unknown_mode_is_refused():
    with pytest.raises(ValueError, match="unknown dictionary mode: 'bogus'"):
        TrainedDictionary(b"x", SourceSpan("c", 0, 0, 1, "bogus"))


def test_scored_frames_carry_no_dictionary_id():
    # The low 2 bits of the frame header descriptor, the byte after the
    # magic number, give the size of the dictionary ID field: 0 means none.
    # A trained dictionary has an ID and a raw one has none, so both are
    # charged the same header.
    seg = motif_bytes(5, tokens=2000)
    data = motif_bytes(5, tokens=150)
    for mode in DICT_MODES:
        dictionary = train_dictionary(seg, SourceSpan("c", 0, 0, len(seg)), mode=mode)
        assert dictionary.source_span.mode == mode
        comp = digested(dictionary)
        frame = frames.compress_with_cdict(data, comp.cdict)
        assert frame[:4] == b"\x28\xb5\x2f\xfd"
        assert frame[4] & 3 == 0
        assert frames.decompress(frame, dictionary.payload) == data
        assert len(frame) == comp.score(data)
        if mode == "trained":
            # the same frame with the trained dictionary's ID written out
            named = frames.frame_with_dict_id(data, comp.cdict)
            assert named[4] & 3 != 0
            assert len(named) > len(frame)


def test_train_dictionary_is_fastcover_at_k50_over_every_sample(monkeypatch):
    # One fastCover pass is libzstd's optimiser held to k=50, d=8 and a
    # split point of 1.0: every piece trains, none is held out to test.
    # The oracle cuts the segment and sizes the capacity and the frequency
    # table by its own arithmetic.
    assert ctypes.sizeof(zb._FastCoverParams) == 56
    assert zb._FastCoverParams.splitPoint.offset == 24
    lib = zb._load()
    optimise = lib.ZDICT_optimizeTrainFromBuffer_fastCover
    optimise.restype = ctypes.c_size_t
    optimise.argtypes = [ctypes.c_void_p, ctypes.c_size_t, ctypes.c_void_p,
                         ctypes.POINTER(ctypes.c_size_t), ctypes.c_uint,
                         ctypes.POINTER(zb._FastCoverParams)]
    calls = []
    train = zb.train_dictionary

    def recording(segment):
        payload = train(segment)
        calls.append((segment, payload))
        return payload

    monkeypatch.setattr(zb, "train_dictionary", recording)
    for size in (4096, 8192, 65536, 1 << 20):
        for seed in range(4 if size < (1 << 20) else 1):
            seg = motif_bytes(seed, tokens=size // 4)[:size]
            assert len(seg) == size
            assert train_dictionary(seg, SourceSpan("c", 0, 0, size)).source_span.mode == "trained"
    assert len(calls) == 13
    for seg, payload in calls:
        piece = max(256, len(seg) // 64)
        whole, rest = divmod(len(seg), piece)
        pieces = [piece] * whole + ([rest] if rest else [])
        capacity = sorted((1024, len(seg) // 4, 110 * 1024))[1]
        f = min(16, math.ceil(math.log2(8 * len(seg))))
        sizes = (ctypes.c_size_t * len(pieces))(*pieces)
        dst = ctypes.create_string_buffer(capacity)
        params = zb._FastCoverParams(k=50, d=8, f=f, splitPoint=1.0)
        n = optimise(dst, capacity, seg, sizes, len(pieces), ctypes.byref(params))
        assert n <= capacity  # not an error code
        assert payload == dst.raw[:n]


@pytest.mark.parametrize("offset", [6144, 7168])
def test_text_only_in_the_last_quarter_reaches_the_dictionary(offset):
    # No sample is held out: a phrase that repeats only in the tail of an
    # 8 KiB segment is taken into its dictionary.
    phrase = b" QUICK ZEBRAS VEX 42 JUMPING OWLS;"
    seg = motif_bytes(1, tokens=3000)[:offset] + (phrase * 100)[: 8192 - offset]
    assert phrase not in seg[:offset]
    dictionary = train_dictionary(seg, SourceSpan("c", 0, 0, len(seg)))
    assert dictionary.source_span.mode == "trained"
    grams = {phrase[i : i + 8] for i in range(len(phrase) - 7)}
    assert sum(g in dictionary.payload for g in grams) >= 0.9 * len(grams)


def test_frequency_table_grows_with_the_segment(monkeypatch):
    # f as libzstd receives it: eight entries per segment byte, up to 2^16,
    # which an 8 KiB segment reaches.
    tables = []
    lib = zb._load()
    fastcover = lib.ZDICT_trainFromBuffer_fastCover

    def recording(dst, capacity, samples, sizes, count, params):
        tables.append(params.f)
        return fastcover(dst, capacity, samples, sizes, count, params)

    monkeypatch.setattr(lib, "ZDICT_trainFromBuffer_fastCover", recording)
    for size in (4096, 8192, 8193, 65536, 131072, 131073):
        seg = motif_bytes(size, tokens=size // 4)[:size]
        assert len(seg) == size
        train_dictionary(seg, SourceSpan("c", 0, 0, size))
    assert tables == [15, 16, 16, 16, 16, 16]


def test_output_bound_is_libzstds():
    # The bound is computed in Python; the margin term ends at 128 KiB.
    # Declared here, the only caller: undeclared, ctypes would read the
    # size_t result as a C int.
    lib = zb._load()
    lib.ZSTD_compressBound.restype = ctypes.c_size_t
    lib.ZSTD_compressBound.argtypes = [ctypes.c_size_t]
    sizes = range(300_001)
    assert [zb._compress_bound(n) for n in sizes] == [lib.ZSTD_compressBound(n) for n in sizes]


# --- deflate prefixed sizes --------------------------------------------------

def _seeded_bytes(seed_and_size) -> bytes:
    seed, size = seed_and_size
    return random.Random(seed).randbytes(size)


prefixes = st.one_of(
    st.binary(min_size=1, max_size=2000),
    # repetitive, up to 192 KiB: matches reach back across the 32 KiB window
    st.tuples(st.binary(min_size=1, max_size=64), st.integers(1, 3000)).map(
        lambda t: t[0] * t[1]
    ),
    # incompressible, up to 96 KiB
    st.tuples(st.integers(0, 2**32 - 1), st.integers(1, 96 << 10)).map(_seeded_bytes),
)


@settings(max_examples=60, deadline=None)
@given(
    prefix=prefixes,
    suffixes=st.lists(st.binary(min_size=1, max_size=3000), max_size=4),
)
@example(prefix=_seeded_bytes((1, 70_000)), suffixes=[b"x", b"\0"])
@example(prefix=motif_bytes(8, tokens=30000), suffixes=[b"a", motif_bytes(9)])
def test_prefixed_sizes_match_one_shot_compression(prefix, suffixes):
    c_prefix, c_xys = DeflateBackend().prefixed_sizes(prefix, suffixes)
    assert c_prefix == len(zlib.compress(prefix, 6))
    assert c_xys == [len(zlib.compress(prefix + y, 6)) for y in suffixes]


def test_prefixed_sizes_reject_an_empty_prefix():
    with pytest.raises(ValueError):
        DeflateBackend().prefixed_sizes(b"", [b"x"])


@pytest.mark.parametrize("count", [0, 1, 2, 7])
def test_prefixed_sizes_are_the_same_on_any_lane_count(count, lane_pool):
    # Fewer suffixes than lanes included: one, two and four lanes, forced
    # through the CPU count that lane_map reads, each on a pool with a
    # thread for every lane but the caller's, share 0, 1, 2 or 7 forks.
    prefix = motif_bytes(1)
    suffixes = [motif_bytes(seed) for seed in range(2, 2 + count)]
    want = (len(zlib.compress(prefix, 6)), [len(zlib.compress(prefix + y, 6)) for y in suffixes])
    for cpus in (1, 2, 4):
        lane_pool(cpus)
        assert DeflateBackend().prefixed_sizes(prefix, suffixes) == want


def test_lane_map_shares_the_items_between_threads(monkeypatch):
    # The first item on each thread waits until another thread has taken
    # one, so a map that runs on the calling thread alone fails here.
    monkeypatch.setattr(compression, "usable_cpus", lambda: 2)
    threads, lock = set(), threading.Lock()
    barrier = threading.Barrier(2, timeout=20)

    def recorded(item):
        with lock:
            first = threading.get_ident() not in threads
            threads.add(threading.get_ident())
        if first:
            barrier.wait()
        return item * item

    assert compression.lane_map(recorded, range(40), 2) == [i * i for i in range(40)]
    assert len(threads) == 2 and threading.get_ident() in threads


def test_lane_map_offers_its_items_to_a_task_per_cpu_but_the_callers(
    monkeypatch, lane_tasks, lane_pool
):
    # On a pool made at 4 CPUs, with no count: three tasks, or one for two
    # items, and none once one CPU is left; a count, as predict_corpus
    # passes its worker count, overrides the CPUs.
    lane_pool(4)
    for cpus, items, lanes, tasks in [
        (4, 8, None, 3), (4, 2, None, 1), (4, 8, 2, 1), (1, 8, None, 0), (1, 8, 3, 2)
    ]:
        monkeypatch.setattr(compression, "usable_cpus", lambda: cpus)
        lane_tasks.clear()
        assert compression.lane_map(abs, range(-items, 0), lanes) == list(range(items, 0, -1))
        assert len(lane_tasks) == tasks
    # The one lane pool, made at 8 CPUs, has a thread for each but the caller's.
    assert len(lane_pool(8).threads) == 7


def test_a_call_sends_no_task_while_every_pool_thread_is_busy(lane_tasks, lane_pool):
    # Two pool threads run a call's items until released, so a second call
    # finds none free: it runs its items alone and queues nothing that would
    # wait, holding its call's objects, until a thread is free.
    lane_pool(3)
    release, started = threading.Event(), threading.Semaphore(0)

    def held(item):
        started.release()
        return release.wait(20)

    holder = ThreadPoolExecutor(1)
    try:
        outer = holder.submit(compression.lane_map, held, range(3))
        for _ in range(3):
            assert started.acquire(timeout=20)
        lane_tasks.clear()
        assert compression.lane_map(abs, range(-8, 0)) == list(range(8, 0, -1))
        assert lane_tasks == []
    finally:
        release.set()
        holder.shutdown()
    assert outer.result() == [True] * 3


def test_lane_map_takes_each_item_once_under_stress(monkeypatch, lane_pool):
    # Eight lanes, more than the cores, and a thread switch every
    # microsecond: an item taken twice or skipped shows in the call count
    # or in the results, and a task's free thread lost or counted twice,
    # run or cancelled, in the pool's count of free threads.
    pool = lane_pool(8)
    calls, lock = [0], threading.Lock()

    def fn(item):
        with lock:
            calls[0] += 1
        return -item

    interval = sys.getswitchinterval()
    sys.setswitchinterval(1e-6)
    try:
        for _ in range(20):
            calls[0] = 0
            assert compression.lane_map(fn, range(500), 8) == [-i for i in range(500)]
            assert calls[0] == 500
        assert [pool.free.acquire(blocking=False) for _ in range(8)] == [True] * 7 + [False]
        # Sixteen first uses at once make one pool (no task is sent to it).
        monkeypatch.setattr(compression, "_pool", None)
        start = threading.Barrier(16, timeout=20)

        def first_use(_):
            start.wait()
            return id(compression._lane_pool())

        with ThreadPoolExecutor(16) as workers:
            assert len(set(workers.map(first_use, range(16)))) == 1
    finally:
        sys.setswitchinterval(interval)


@pytest.mark.parametrize("lanes", [1, 2, 4])
def test_lane_map_raises_the_lowest_index_failure(lanes, lane_pool):
    # Item 3 fails late and item 5 at once: item 3's exception is raised, as
    # the same object, at any lane count (on a pool of three lane threads),
    # and no item runs after the call.
    lane_pool(4)
    errors = {3: TypeError("item 3"), 5: CompressionError("deflate: item 5")}
    running = []

    def fn(item):
        running.append(item)
        if item == 3:
            time.sleep(0.05)
        running.remove(item)
        if item in errors:
            raise errors[item]
        return item

    with pytest.raises(TypeError) as caught:
        compression.lane_map(fn, range(8), lanes)
    assert caught.value is errors[3]
    assert running == []


def test_a_base_exception_on_a_lane_reaches_the_caller_as_itself(lane_pool):
    # Every item a lane takes raises one exception outside Exception, and the
    # calling thread's first item waits until a lane has taken one: the call
    # raises it as itself, and the lane thread lives on, free for the next call.
    class Stop(BaseException):
        pass

    pool = lane_pool(2)
    stop, taken = Stop("on a lane"), threading.Event()

    def fn(item):
        if threading.current_thread() is not threading.main_thread():
            taken.set()
            raise stop
        assert taken.wait(timeout=20)
        return item

    with pytest.raises(Stop) as caught:
        compression.lane_map(fn, range(8), 2)
    assert caught.value is stop
    assert all(thread.is_alive() for thread in pool.threads)
    assert compression.lane_map(abs, range(-4, 0), 2) == [4, 3, 2, 1]
    assert [pool.free.acquire(blocking=False) for _ in range(2)] == [True, False]


def test_a_failure_on_the_calling_thread_stops_the_call(lane_pool):
    # Ctrl-C's stand-in, raised by the calling thread's first item of 500
    # on two lanes: the call raises it as itself after a few items,
    # where running the rest first took 500 items' time.
    class Interrupt(BaseException):
        pass

    lane_pool(2)
    caller, interrupt, ran = threading.get_ident(), Interrupt("Ctrl-C"), []

    def fn(item):
        ran.append(item)
        time.sleep(0.002)
        if threading.get_ident() == caller:
            raise interrupt
        return item

    with pytest.raises(Interrupt) as caught:
        compression.lane_map(fn, range(500), 2)
    assert caught.value is interrupt
    assert len(ran) < 50


# --- dictionary training -----------------------------------------------------

def test_train_dictionary_benefit():
    seg = b"abcabcabc" * 100
    dictionary = train_dictionary(seg, SourceSpan("c", 0, 0, len(seg)))
    assert dictionary.payload
    comp = digested(dictionary)
    query = b"abcabc" * 40
    assert comp.score(query) < zstd_size(query)


def test_train_dictionary_empty_segment():
    with pytest.raises(ValueError):
        train_dictionary(b"", SourceSpan("c", 0, 0, 1))


def test_train_dictionary_small_segment_falls_back_to_raw():
    seg = b"xyz" * 20
    dictionary = train_dictionary(seg, SourceSpan("c", 0, 0, len(seg)))
    assert dictionary.source_span.mode == "raw"
    assert dictionary.payload == seg


@pytest.mark.parametrize("n,mode", [
    (1, "raw"), (255, "raw"), (256, "raw"), (1024, "raw"),
    (1025, "trained"), (1280, "trained"), (8192, "trained"),
])
def test_libzstd_refuses_segments_of_fewer_than_five_pieces(n, mode):
    # Up to 1 KiB a segment is cut into at most four 256-byte pieces, and
    # fastCover refuses fewer than five: the segment is kept raw, with no
    # stub and no check in Python.
    text = motif_bytes(7, tokens=2000)
    assert len(text) > 8192
    dictionary = train_dictionary(text[:n], SourceSpan("c", 0, 0, n))
    assert dictionary.source_span.mode == mode
    if mode == "raw":
        assert dictionary.payload == text[:n]


def test_train_dictionary_large_segment_trains():
    seg = motif_bytes(6, tokens=12000)[:65536]
    dictionary = train_dictionary(seg, SourceSpan("c", 0, 0, len(seg)))
    assert dictionary.source_span.mode == "trained"
    assert 0 < len(dictionary.payload) < len(seg)


def test_train_dictionary_raw_mode_requested():
    seg = motif_bytes(6, tokens=12000)[:65536]
    dictionary = train_dictionary(seg, SourceSpan("c", 0, 0, len(seg)), mode="raw")
    assert dictionary.source_span.mode == "raw"
    assert dictionary.payload == seg


def test_refused_training_falls_back_to_raw(monkeypatch):
    def refuse(segment):
        raise CompressionError("zstd: Src size is incorrect")

    monkeypatch.setattr(zb, "train_dictionary", refuse)
    seg = motif_bytes(6, tokens=12000)[:65536]
    dictionary = train_dictionary(seg, SourceSpan("c", 0, 0, len(seg)))
    assert dictionary.source_span.mode == "raw"
    assert dictionary.payload == seg


def test_training_programming_errors_propagate(monkeypatch):
    def broken(segment):
        raise TypeError("broken binding")

    monkeypatch.setattr(zb, "train_dictionary", broken)
    seg = motif_bytes(6, tokens=12000)[:65536]
    with pytest.raises(TypeError, match="broken binding"):
        train_dictionary(seg, SourceSpan("c", 0, 0, len(seg)))


# --- DictCompressor.score -----------------------------------------------------

@pytest.mark.parametrize("mode", ["trained", "raw"])
def test_dict_size_smaller_on_source_segment(mode):
    seg = motif_bytes(8, tokens=2000)
    dictionary = train_dictionary(seg, SourceSpan("c", 0, 0, len(seg)), mode=mode)
    comp = digested(dictionary)
    assert comp.score(seg) < zstd_size(seg)


def _disjoint_alphabet_pair():
    rng = random.Random(9)
    vocab_a = ["".join(rng.choice("abcdefghij") for _ in range(6)) for _ in range(25)]
    vocab_b = ["".join(rng.choice("KLMNOPQRST") for _ in range(6)) for _ in range(25)]
    seg = (" ".join(rng.choice(vocab_a) for _ in range(2000))).encode()
    query = (" ".join(rng.choice(vocab_b) for _ in range(300))).encode()
    return seg, query


def test_dict_size_disjoint_alphabet_near_plain_raw_mode():
    seg, query = _disjoint_alphabet_pair()
    plain = zstd_size(query)
    dictionary = train_dictionary(seg, SourceSpan("c", 0, 0, len(seg)), mode="raw")
    size = digested(dictionary).score(query)
    assert abs(size - plain) <= 0.05 * plain


def test_dict_size_disjoint_alphabet_inflates_trained_mode():
    # ZDICT dictionaries carry entropy tables fitted to their source alphabet;
    # compress_usingCDict applies them unconditionally, so alien content costs
    # MORE than plain compression. That asymmetry widens class separation and
    # is pinned here rather than hidden (observed +24%).
    seg, query = _disjoint_alphabet_pair()
    plain = zstd_size(query)
    dictionary = train_dictionary(seg, SourceSpan("c", 0, 0, len(seg)), mode="trained")
    assert dictionary.source_span.mode == "trained"
    size = digested(dictionary).score(query)
    assert plain <= size <= 1.4 * plain


def test_identical_dictionaries_share_one_digest():
    seg = motif_bytes(14, tokens=2000)
    dictionary = train_dictionary(seg, SourceSpan("c", 0, 0, len(seg)))
    copy = TrainedDictionary(bytes(bytearray(dictionary.payload)), dictionary.source_span)
    assert copy.payload is not dictionary.payload
    comp = DictCompressor(dictionary, 3, 11)
    assert DictCompressor(copy, 3, 11).cdict is comp.cdict
    assert DictCompressor(dictionary, 5, 11).cdict is not comp.cdict
    assert DictCompressor(dictionary, 3, 12).cdict is not comp.cdict


def test_refused_digest_raises_compression_error():
    # Match tables of 2^1 entries are below libzstd's minimum of 2^6, so
    # ZSTD_createCDict_advanced refuses the parameters.
    dictionary = train_dictionary(b"dictionary", SourceSpan("c", 0, 0, 10), mode="raw")
    with pytest.raises(CompressionError) as info:
        DictCompressor(dictionary, 3, 1)
    assert str(info.value) == "zstd: ZSTD_createCDict_advanced failed"


def test_digest_of_a_2kib_dictionary_fits_32kib():
    # Its match tables take table log 11 from the dictionary's size; sized
    # for level 3's parameter row alone, the digest took ~64 KiB.
    seg = motif_bytes(15, tokens=2000)[:8192]
    dictionary = train_dictionary(seg, SourceSpan("c", 0, 0, len(seg)))
    assert dictionary.source_span.mode == "trained"
    assert len(dictionary.payload) == 2048
    comp = digested(dictionary)
    assert comp.cdict.table_log == 11
    assert frames.sizeof_cdict(comp.cdict) <= 32 * 1024


def test_digest_does_not_copy_its_dictionary():
    # libzstd reads the dictionary where it lies (ZSTD_dlm_byRef): a 1 MiB
    # raw dictionary at table log 6 digests in ~15 KiB, not in ~1 MiB.
    payload = motif_bytes(16, tokens=180_000)[: 1 << 20]
    assert len(payload) == 1 << 20
    assert frames.sizeof_cdict(zb.CDict(payload, 3, 6)) < 64 * 1024


def test_digest_keeps_its_dictionary_alive():
    # The digest holds the bytes it reads: a digest of a temporary scores
    # the same after the memory of dropped objects has been handed out again.
    payload = motif_bytes(17, tokens=2000)[:8192]
    query = payload[1000:3000]
    want = zb.compressed_size_with_cdict(query, zb.CDict(payload, 3, 13))
    assert want < zstd_size(query) // 4
    cdict = zb.CDict(bytes(bytearray(payload)), 3, 13)  # its only reference
    gc.collect()
    scratch = [bytes([i]) * len(payload) for i in range(64)]
    assert zb.compressed_size_with_cdict(query, cdict) == want
    del scratch


def test_concurrent_construction_makes_one_digest_per_dictionary():
    payloads = [motif_bytes(seed, tokens=300) for seed in range(20)]
    dictionaries = [
        TrainedDictionary(p, SourceSpan("c", i, 0, len(p))) for i, p in enumerate(payloads)
    ]
    work = [d for d in dictionaries for _ in range(16)]  # workers race on one key
    interval = sys.getswitchinterval()
    sys.setswitchinterval(1e-6)
    try:
        with ThreadPoolExecutor(max_workers=8) as pool:
            comps = list(
                pool.map(lambda d: DictCompressor(d, 3, 11), work, timeout=60)
            )
    finally:
        sys.setswitchinterval(interval)
    digests = {}
    for d, c in zip(work, comps, strict=True):
        digests.setdefault(d.payload, set()).add(id(c.cdict))
    assert len(digests) == len(payloads)
    assert all(len(ids) == 1 for ids in digests.values())


def test_dict_size_deterministic():
    seg = motif_bytes(10, tokens=1500)
    comp = digested(train_dictionary(seg, SourceSpan("c", 0, 0, len(seg))))
    q = motif_bytes(10, tokens=100)
    assert comp.score(q) == comp.score(q)


def test_dictionary_benefit_property():
    # same-generator inputs >= 256 bytes compress better with the dictionary
    for seed in range(8):
        seg = motif_bytes(100 + seed, tokens=3000)
        comp = digested(train_dictionary(seg, SourceSpan("c", 0, 0, len(seg))))
        query = motif_bytes(100 + seed, tokens=60)
        assert len(query) >= 256
        assert comp.score(query) < zstd_size(query)


# --- ref_longest_match -------------------------------------------------------

def test_longest_match_self_referential_run():
    assert ref_longest_match(b"", b"aaaa", 1) == (3, 1)


def test_longest_match_full_window():
    assert ref_longest_match(b"hello", b"hello", 0) == (5, 5)


def test_longest_match_distinct_bytes():
    data = bytes(range(32))
    for pos in (0, 5, 31):
        assert ref_longest_match(b"", data, pos) == (0, 0)


def test_longest_match_prefers_nearest_on_tie():
    # "abc" occurs twice in the window; nearest start wins
    assert ref_longest_match(b"abcXabcY", b"abcZ", 0) == (3, 4)


def test_longest_match_position_bounds():
    with pytest.raises(ValueError):
        ref_longest_match(b"", b"abc", 3)


def brute_longest_match(window: bytes, text: bytes, position: int):
    """Independent O(n^2) oracle: scan every start, extend byte by byte."""
    buf = window + text
    pos = len(window) + position
    best_len, best_off = 0, 0
    for start in range(pos):
        length = 0
        while pos + length < len(buf) and buf[start + length] == buf[pos + length]:
            length += 1
        # ties prefer the smallest offset: >= on later (nearer) starts
        if length >= 3 and length >= best_len:
            best_len, best_off = length, pos - start
    return (best_len, best_off) if best_len >= 3 else (0, 0)


def test_longest_match_against_brute_force_spot():
    rng = random.Random(11)
    for _ in range(60):
        alphabet = rng.choice([2, 4, 8])
        n = rng.randint(4, 200)
        text = bytes(rng.randrange(alphabet) for _ in range(n))
        window = bytes(rng.randrange(alphabet) for _ in range(rng.randint(0, 40)))
        pos = rng.randrange(n)
        assert ref_longest_match(window, text, pos) == brute_longest_match(window, text, pos)


# --- ref_entropy_coded_size --------------------------------------------------

def test_entropy_uniform_four_symbols():
    assert ref_entropy_coded_size(["a", "b", "c", "d"]) == pytest.approx(8.0)


def test_entropy_single_symbol():
    assert ref_entropy_coded_size(["x"] * 50) == pytest.approx(0.0)


def test_entropy_three_one_split():
    assert ref_entropy_coded_size(["a", "a", "a", "b"]) == pytest.approx(3.2451124978, abs=1e-9)


@settings(max_examples=100, deadline=None)
@given(st.lists(st.integers(min_value=0, max_value=9), min_size=1, max_size=200))
def test_entropy_matches_closed_form(tokens):
    from collections import Counter

    counts = Counter(tokens)
    total = len(tokens)
    expected = -sum(c * math.log2(c / total) for c in counts.values())
    got = ref_entropy_coded_size(tokens)
    assert got == pytest.approx(expected, rel=1e-9, abs=1e-9)


def test_entropy_empty_rejected():
    with pytest.raises(ValueError):
        ref_entropy_coded_size([])


# --- ref_compress_size -------------------------------------------------------

def test_ref_dictionary_strictly_helps():
    data = b"the quick brown fox jumps over the lazy dog. " * 20
    with_dict = ref_compress_size(data, data)
    without = ref_compress_size(b"", data)
    assert with_dict < without


def test_ref_all_distinct_literals_closed_form():
    for n in (2, 17, 100, 200):
        data = bytes(range(n))
        assert ref_compress_size(b"", data) == math.ceil(n * math.log2(n) / 8)


def test_ref_window_one_never_beats_full_window():
    for seed in range(6):
        data = (motif_bytes(seed, words=6, tokens=80))[:512]
        assert ref_compress_size(b"", data, 1) >= ref_compress_size(b"", data, len(data))


def test_ref_monotone_on_seeded_families():
    """Appending bytes does not decrease the size on random and motif data.

    This is a family-scoped property: adversarial inputs exist where
    completing a truncated final match merges a rare token into a frequent
    one and saves more than a byte (see the regression below).
    """
    rng = random.Random(13)
    for seed in range(10):
        base = motif_bytes(seed, words=8, tokens=60) if seed % 2 else random_bytes(seed, 300)
        suffix = motif_bytes(seed + 50, words=8, tokens=10) if seed % 2 else random_bytes(seed + 50, 40)
        cut = rng.randint(1, len(suffix))
        small = ref_compress_size(b"", base)
        grown = ref_compress_size(b"", base + suffix[:cut])
        assert grown >= small


def test_ref_monotonicity_has_adversarial_exception():
    # Documented limitation of per-message empirical-entropy accounting:
    # the final truncated "xyz" token merges into the frequent "xyzw" token.
    data = b"xyzw"
    for i in range(120):
        data += bytes([128 + i]) + b"xyzw"
    data += b"\x7f" + b"xyz"
    assert ref_compress_size(b"", data + b"w") < ref_compress_size(b"", data)


def test_ref_tokens_greedy_parse():
    toks = reference_tokens(b"", b"ababab", 64)
    # literals a, b then one overlapping match covering "abab"
    assert toks == [b"a", b"b", b"abab"]


def test_ref_compress_rejects_bad_args():
    with pytest.raises(ValueError):
        ref_compress_size(b"", b"")
    with pytest.raises(ValueError):
        ref_compress_size(b"", b"abc", 0)


# --- ncd ----------------------------------------------------------------------

def test_ncd_identical_inputs_small():
    x = motif_bytes(20, tokens=800)  # ~5 KB of patterned text
    assert len(x) >= 4500
    value = ncd(DeflateBackend(), x, x)
    assert 0.0 <= value <= 0.15
    assert value == pytest.approx(0.0562, abs=0.02)  # pinned observed


def test_ncd_independent_random():
    x = random_bytes(21, 2000)
    y = random_bytes(22, 2000)
    value = ncd(DeflateBackend(), x, y)
    assert 0.85 <= value <= 1.1
    assert value == pytest.approx(1.0005, abs=0.02)  # pinned observed


def test_ncd_near_symmetry_sampled():
    for seed in range(5):
        x = motif_bytes(30 + seed, tokens=300)
        y = motif_bytes(40 + seed, tokens=300)
        assert abs(ncd(DeflateBackend(), x, y) - ncd(DeflateBackend(), y, x)) <= 0.05


def test_ncd_stubbed_sizes_exact():
    class Stub:
        kind = "stub"

        def __init__(self, sizes):
            self.sizes = sizes

        def compressed_size(self, data):
            return self.sizes[data]

    stub = Stub({b"x": 100, b"y": 80, b"xy": 130})
    assert ncd(stub, b"x", b"y") == (130 - 80) / 100
    stub2 = Stub({b"x": 50, b"y": 200, b"xy": 205})
    assert ncd(stub2, b"x", b"y") == (205 - 50) / 200
    assert ncd_value(12, 10, 10) == pytest.approx(0.2)


def test_ncd_rejects_empty():
    with pytest.raises(ValueError):
        ncd(DeflateBackend(), b"", b"x")
    with pytest.raises(ValueError):
        ncd(DeflateBackend(), b"x", b"")


@settings(max_examples=30, deadline=None)
@given(st.binary(min_size=1, max_size=600), st.binary(min_size=1, max_size=600))
def test_ncd_bounded_property(x, y):
    for backend in REAL_BACKENDS:
        assert -0.05 <= ncd(backend, x, y) <= 1.15
