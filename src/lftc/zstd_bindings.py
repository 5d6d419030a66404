"""Minimal ctypes bindings for the system Zstandard library.

Only the pieces this package needs: dictionary training (ZDICT) and the
compressed size of a frame made with a digested dictionary (CDict).
Besides the stable API they use libzstd's experimental calls, which the
shared library exports: ``ZSTD_getCParams``, ``ZSTD_createCDict_advanced``,
``ZSTD_compress_usingCDict_advanced`` and ``ZDICT_trainFromBuffer_fastCover``.
libzstd is loaded on the first call that needs it, by its Linux soname,
``libzstd.so.1``. Where the dynamic loader knows no such name (macOS names
it ``libzstd.1.dylib``) the platform's search,
``ctypes.util.find_library("zstd")``, names the file; on Linux that search
runs ``ldconfig -p`` in a child process, so it is neither imported nor run
where the soname loads. If neither finds libzstd, the call raises
``CompressionError`` ("zstd: cannot load libzstd ..."). Compression contexts
and their output buffers are kept thread-local because a ZSTD_CCtx is not
thread-safe; CDict handles are immutable and may be shared freely between
threads.

A call that fails raises ``CompressionError`` where it fails, with
libzstd's error name after ``"zstd: "`` (``zstd: Destination buffer is too
small``); it is the one error of every compressor in the package, and
``lftc.compression`` imports it.

``summed_size(data, cdicts)`` is the one caller of
``ZSTD_compress_usingCDict_advanced``: one MCC class sum, a loop of one C
call per digest, each dropping the GIL, with nothing but the addition
between calls, so two lanes summing at once seldom wait on each other's
GIL wake-ups; ``compressed_size_with_cdict`` is its one-digest case. On
the 16-class generated split at step 8192 (11 digests per class), MCC took
1.66 and 1.84 ms per query on 2 lanes this way, against 1.98 and 2.07 ms
with four Python frames around each score (medians of 20 interleaved runs,
two such comparisons on a shared 2-CPU x86-64 Xeon, Python 3.11).

Frames are scored without a dictionary ID in their header
(``noDictIDFlag``), so a trained dictionary, which has an ID, and a raw
one, which has none, are charged the same header bytes.

A digest's match tables are sized by its ``table_log``, not by the
level's parameter row alone: ``CDict`` caps the row's hash log at
``table_log`` and its chain log at ``table_log - 1`` (floors of 6). The
caller gives every dictionary of one set of compressor lists the same
``table_log``, sized to the largest dictionary of the set, because in
attach mode libzstd also sizes the query's own match tables from the
digest, and a query scored with smaller tables compresses worse. The
16-class generated split at step 8192 (176 level-3 dictionaries of
1.5-2 KiB) digests in 4.6 MiB with table log 11, against 10.7 MiB sized by
the level alone. What it costs: a query much longer than the set's
largest dictionary finds fewer matches within itself, and every class
pays the same. A 3 KiB generated query scored against a 1-byte raw
dictionary at level 3 takes 976 bytes at table log 6, and 753 bytes with
the level's own tables.

``train_dictionary`` sets every parameter of the trainer. It hands libzstd
the segment as one buffer of pieces, ``max(256, len // 64)`` bytes each
with a shorter last one, and makes one fastCover pass over every piece at
k=50 and d=8: the dictionary is built from 50-byte stretches of the
segment, picked by the frequency of the 8-byte strings in them. Its
capacity is a quarter of the segment, clamped to [1 KiB, 110 KiB]. k is
fixed rather than searched. ``ZDICT_trainFromBuffer`` runs libzstd's
optimiser, which builds, finalizes and test-compresses a dictionary for
each of five values of k, and tests them on the last quarter of the
samples, which then never reaches the dictionary; over the 176 segments of
the 16-class generated split at step 8192 its picks spread over all five
values, and the search was about three quarters of that fit. The
frequency table (2^f entries of 4 bytes, plus a 2-byte table as long) gets
eight entries per segment byte up to f=16, an 8 KiB segment's 384 KiB;
libzstd's default f=20 allocates 6 MiB per dictionary however small the
segment is. Larger segments share the 2^16 entries, which count hashed
8-byte strings to rank the stretches; on the bundled split's 64 KiB
segments the cap changes no predicted label. fastCover refuses fewer than
five pieces, so a segment of 1 KiB or less is never trained.

``keep_heap()`` wraps every fit (``lftc.classifier.Pipeline``). From 4
KiB segments up the scratch tables reach glibc's default mmap threshold
(128 KiB), so they are mmapped fresh and unmapped on every call, and the
kernel zero-fills them page by page: training the 176 dictionaries of
the 16-class generated split at step 8192 took ~18,000 minor page faults
and 0.04 s of system time beside 0.09 s of user time. Inside the block,
glibc serves such tables from the heap and keeps them mapped (mmap
threshold 32 MiB, trim threshold 64 MiB), which cuts that training to
~600 faults and 0.08 s in all; leaving the block
returns the free heap to the system with ``malloc_trim(0)``. The
thresholds are set on the first entry and stay set for the rest of the
process, so the predictions after a fit run under them too. There they
keep zlib's ~256 KB deflate state, taken afresh by every NCD
compression, off fresh pages: under the defaults a process whose fit
trained nothing (``baseline-ncd``) took, depending on its heap layout,
about 2,000 minor faults per query of the bundled corpus, and under the
thresholds fewer than 10.
Where libc lacks ``mallopt`` or ``malloc_trim`` the block does nothing.
The allocator changes no compressor's output.
"""

from __future__ import annotations

import contextlib
import ctypes
import functools
import threading
import weakref

MIN_LEVEL = 1
MAX_LEVEL = 19  # ultra levels need explicit window handling; not used here

# glibc mallopt parameters and the values keep_heap() sets.
_M_TRIM_THRESHOLD = -1
_M_MMAP_THRESHOLD = -3
_HEAP_SETTINGS = ((_M_MMAP_THRESHOLD, 32 << 20), (_M_TRIM_THRESHOLD, 64 << 20))


class CompressionError(RuntimeError):
    """A compressor call failed; the message starts with the compressor's
    kind ("zstd: ", "deflate: ")."""


class _FrameParams(ctypes.Structure):
    """ZSTD_frameParameters."""

    _fields_ = [("contentSizeFlag", ctypes.c_int), ("checksumFlag", ctypes.c_int),
                ("noDictIDFlag", ctypes.c_int)]


# Scored frames: content size in the header, no checksum, no dictionary ID.
_SCORE_FRAME = _FrameParams(contentSizeFlag=1, checksumFlag=0, noDictIDFlag=1)

# ZSTD_HASHLOG_MIN and ZSTD_CHAINLOG_MIN: the smallest match tables.
MIN_TABLE_LOG = 6
# ZSTD_dictLoadMethod_e and ZSTD_dictContentType_e: reference the
# dictionary, and tell a trained one from raw content by its magic number.
_DLM_BY_REF = 1
_DCT_AUTO = 0


class _CParams(ctypes.Structure):
    """ZSTD_compressionParameters."""

    _fields_ = [
        ("windowLog", ctypes.c_uint), ("chainLog", ctypes.c_uint), ("hashLog", ctypes.c_uint),
        ("searchLog", ctypes.c_uint), ("minMatch", ctypes.c_uint),
        ("targetLength", ctypes.c_uint), ("strategy", ctypes.c_int),
    ]


class _CustomMem(ctypes.Structure):
    """ZSTD_customMem; all NULL is libzstd's default allocator."""

    _fields_ = [("customAlloc", ctypes.c_void_p), ("customFree", ctypes.c_void_p),
                ("opaque", ctypes.c_void_p)]


class _ZDictParams(ctypes.Structure):
    """ZDICT_params_t; all zero is libzstd's default (level 3, silent, no
    fixed dictionary ID)."""

    _fields_ = [("compressionLevel", ctypes.c_int), ("notificationLevel", ctypes.c_uint),
                ("dictID", ctypes.c_uint)]


class _FastCoverParams(ctypes.Structure):
    """ZDICT_fastCover_params_t, all 56 bytes of it, as
    ZDICT_trainFromBuffer_fastCover takes it by value. A zero field means
    libzstd's default."""

    _fields_ = [
        ("k", ctypes.c_uint), ("d", ctypes.c_uint), ("f", ctypes.c_uint),
        ("steps", ctypes.c_uint), ("nbThreads", ctypes.c_uint), ("splitPoint", ctypes.c_double),
        ("accel", ctypes.c_uint), ("shrinkDict", ctypes.c_uint),
        ("shrinkDictMaxRegression", ctypes.c_uint), ("zParams", _ZDictParams),
    ]


@functools.cache
def _load():
    """libzstd, loaded on the first call, with the signatures of the calls
    this module makes declared (see the module docstring for how it is
    found)."""
    name = "libzstd.so.1"
    try:
        lib = ctypes.CDLL(name)
    except OSError as exc:
        from ctypes.util import find_library  # here, not at import: it loads subprocess

        name = find_library("zstd")
        if name is None:
            raise CompressionError(f"zstd: cannot load libzstd (libzstd.so.1): {exc}") from exc
        try:
            lib = ctypes.CDLL(name)
        except OSError as exc:
            raise CompressionError(f"zstd: cannot load libzstd ({name}): {exc}") from exc

    c = ctypes
    lib.ZSTD_versionNumber.restype = c.c_uint
    lib.ZSTD_getErrorName.restype = c.c_char_p
    lib.ZSTD_getErrorName.argtypes = [c.c_size_t]

    lib.ZSTD_createCCtx.restype = c.c_void_p
    lib.ZSTD_freeCCtx.restype = c.c_size_t
    lib.ZSTD_freeCCtx.argtypes = [c.c_void_p]

    lib.ZSTD_getCParams.restype = _CParams
    lib.ZSTD_getCParams.argtypes = [c.c_int, c.c_ulonglong, c.c_size_t]
    lib.ZSTD_createCDict_advanced.restype = c.c_void_p
    lib.ZSTD_createCDict_advanced.argtypes = [
        c.c_void_p, c.c_size_t, c.c_int, c.c_int, _CParams, _CustomMem,
    ]
    lib.ZSTD_freeCDict.restype = c.c_size_t
    lib.ZSTD_freeCDict.argtypes = [c.c_void_p]
    lib.ZSTD_compress_usingCDict_advanced.restype = c.c_size_t
    lib.ZSTD_compress_usingCDict_advanced.argtypes = [
        c.c_void_p, c.c_void_p, c.c_size_t, c.c_void_p, c.c_size_t, c.c_void_p,
        _FrameParams,
    ]

    lib.ZDICT_trainFromBuffer_fastCover.restype = c.c_size_t
    lib.ZDICT_trainFromBuffer_fastCover.argtypes = [
        c.c_void_p, c.c_size_t, c.c_void_p, c.POINTER(c.c_size_t), c.c_uint,
        _FastCoverParams,
    ]

    return lib


def _check(lib, code: int, capacity: int) -> int:
    """``code`` when it is a size that fits ``capacity`` bytes, else a
    CompressionError: zstd's error codes, ZDICT's included, are the top
    values of size_t, above any buffer's size, so this needs no
    ZSTD_isError call."""
    if code > capacity:
        raise CompressionError("zstd: " + lib.ZSTD_getErrorName(code).decode("ascii", "replace"))
    return code


def _compress_bound(size: int) -> int:
    """ZSTD_compressBound(size), as zstd.h's ZSTD_COMPRESSBOUND macro
    computes it, without a call into libzstd."""
    margin = ((128 << 10) - size) >> 11 if size < (128 << 10) else 0
    return size + (size >> 8) + margin


class _CCtxHolder:
    def __init__(self, lib):
        self.ptr = lib.ZSTD_createCCtx()
        if not self.ptr:
            raise CompressionError("zstd: ZSTD_createCCtx failed")
        self._finalizer = weakref.finalize(self, lib.ZSTD_freeCCtx, self.ptr)
        self.dst = ctypes.create_string_buffer(0)


_tls = threading.local()


def _cctx_dst(lib, size: int):
    """This thread's compression context and an output buffer of at least
    ZSTD_compressBound(size) bytes, grown only when a larger one is needed."""
    holder = getattr(_tls, "cctx", None)
    if holder is None:
        holder = _CCtxHolder(lib)
        _tls.cctx = holder
    bound = _compress_bound(size)
    if len(holder.dst) < bound:
        holder.dst = ctypes.create_string_buffer(bound)
    return holder.ptr, holder.dst, bound


def version() -> tuple[int, int, int]:
    v = _load().ZSTD_versionNumber()
    return (v // 10000, (v // 100) % 100, v % 100)


class CDict:
    """A digested dictionary, shareable across threads.

    `payload` may be a ZDICT-trained dictionary or arbitrary raw content;
    libzstd distinguishes the two by the dictionary magic number. It is
    digested with the level's parameters for a dictionary of its size,
    with the match tables capped by ``table_log`` (see the module
    docstring). libzstd reads ``payload`` in place, so the digest holds it.
    """

    def __init__(self, payload: bytes, level: int, table_log: int):
        lib = _load()
        self.level = level
        self.table_log = table_log
        self._payload = payload
        params = lib.ZSTD_getCParams(level, 0, len(payload))
        params.hashLog = min(params.hashLog, table_log)
        params.chainLog = min(params.chainLog, max(MIN_TABLE_LOG, table_log - 1))
        self._ptr = lib.ZSTD_createCDict_advanced(
            payload, len(payload), _DLM_BY_REF, _DCT_AUTO, params, _CustomMem()
        )
        if not self._ptr:
            raise CompressionError("zstd: ZSTD_createCDict_advanced failed")
        self._finalizer = weakref.finalize(self, lib.ZSTD_freeCDict, self._ptr)


def summed_size(data: bytes, cdicts) -> int:
    """The sum of ``data``'s compressed sizes with each of ``cdicts``, 0 for
    none, with this thread's context and output buffer taken once (see the
    module docstring); the first failing digest raises its CompressionError."""
    lib = _load()
    holder = getattr(_tls, "cctx", None)
    size = len(data)
    bound = _compress_bound(size)
    if holder is None or len(holder.dst) < bound:
        _cctx_dst(lib, size)
        holder = _tls.cctx
    compress, cctx, dst = lib.ZSTD_compress_usingCDict_advanced, holder.ptr, holder.dst
    total = 0
    for cdict in cdicts:
        n = compress(cctx, dst, bound, data, size, cdict._ptr, _SCORE_FRAME)
        total += n if n <= bound else _check(lib, n, bound)
    return total


def compressed_size_with_cdict(data: bytes, cdict: CDict) -> int:
    return summed_size(data, (cdict,))


def train_dictionary(segment: bytes) -> bytes:
    """A dictionary trained on ``segment`` by one fastCover pass (see the
    module docstring); CompressionError when ZDICT refuses the segment
    (fewer than five pieces, too little data, ...) or returns nothing."""
    lib = _load()
    size = len(segment)
    piece = max(256, size // 64)
    pieces = [min(piece, size - start) for start in range(0, size, piece)]
    capacity = max(1 << 10, min(110 << 10, size // 4))
    dst = ctypes.create_string_buffer(capacity)
    params = _FastCoverParams(k=50, d=8, f=min(16, (8 * size - 1).bit_length()))
    sizes = (ctypes.c_size_t * len(pieces))(*pieces)
    n = _check(
        lib,
        lib.ZDICT_trainFromBuffer_fastCover(dst, capacity, segment, sizes, len(pieces), params),
        capacity,
    )
    if not n:
        raise CompressionError("zstd: ZDICT_trainFromBuffer_fastCover returned no dictionary")
    return dst.raw[:n]


@functools.cache
def _tuned_libc():
    """libc with keep_heap()'s thresholds set, on the first call only; None
    where libc lacks mallopt or malloc_trim, or refuses a threshold."""
    libc = ctypes.CDLL(None)
    if not (hasattr(libc, "mallopt") and hasattr(libc, "malloc_trim")):
        return None
    libc.mallopt.restype = ctypes.c_int
    libc.mallopt.argtypes = [ctypes.c_int, ctypes.c_int]
    libc.malloc_trim.restype = ctypes.c_int
    libc.malloc_trim.argtypes = [ctypes.c_size_t]
    if all(libc.mallopt(param, value) == 1 for param, value in _HEAP_SETTINGS):
        return libc
    return None


@contextlib.contextmanager
def keep_heap():
    """Keep freed memory mapped, from here to the end of the process: ZDICT's
    scratch tables across the trainings in the block, and the deflate state
    of every NCD compression after it. The free heap is released once at the
    block's end (see the module docstring). ``malloc_trim(0)`` trims the lane
    threads' arenas too, but it returned only about two thirds of the free
    space at the top of a thread's heap (glibc 2.36); what stays there, the
    trainer's cap at f=16 keeps small."""
    libc = _tuned_libc()
    try:
        yield
    finally:
        if libc is not None:
            libc.malloc_trim(0)
