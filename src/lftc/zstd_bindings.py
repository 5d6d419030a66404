"""Minimal ctypes bindings for the system Zstandard library.

Only the pieces this package needs: dictionary training (ZDICT) and the
compressed size of a frame made with a digested dictionary (CDict).
Compression contexts and their output buffers are kept thread-local
because a ZSTD_CCtx is not thread-safe; CDict handles are immutable and
may be shared freely between threads.

Frames are scored without a dictionary ID in their header
(``noDictIDFlag``), so a trained dictionary, which has an ID, and a raw
one, which has none, are charged the same header bytes.

``train_dictionary`` runs zstd's fastCover optimiser as
``ZDICT_trainFromBuffer`` does, except that the caller sizes its frequency
table (2^f entries of 4 bytes, plus a 2-byte table per value of k tried):
libzstd's default f=20 allocates ~10 MB per dictionary however small the
samples are, and clearing those tables was most of an 8 KiB segment's
training time.

``keep_heap()`` wraps every fit (``lftc.classifier.Pipeline``). From 4
KiB segments up the scratch tables reach glibc's default mmap threshold
(128 KiB), so they are mmapped fresh and unmapped on every call, and the
kernel zero-fills them page by page: a 16-class fit of 193 dictionaries
at f=20 took ~575,000 minor page faults, with more system time than user
time. Inside the block, glibc serves such tables from the heap and keeps
them mapped (mmap threshold 32 MiB, trim threshold 64 MiB), which cuts
that fit to ~3,300 faults, one dictionary's worth; leaving the block
returns the free heap to the system with ``malloc_trim(0)``. The
thresholds are set on the first entry and stay set for the rest of the
process, so the predictions after a fit run under them too. There they
keep zlib's ~256 KB deflate state, taken afresh by every NCD
compression, off fresh pages: under the defaults a process that reused a
bundle took, depending on its heap layout, up to ~1,600 minor faults per
query of the bundled corpus, and under the thresholds fewer than 10.
Where libc lacks ``mallopt`` or ``malloc_trim`` the block does nothing.
The allocator changes no compressor's output.
"""

from __future__ import annotations

import contextlib
import ctypes
import ctypes.util
import functools
import threading
import weakref

MIN_LEVEL = 1
MAX_LEVEL = 19  # ultra levels need explicit window handling; not used here

# glibc mallopt parameters and the values keep_heap() sets.
_M_TRIM_THRESHOLD = -1
_M_MMAP_THRESHOLD = -3
_HEAP_SETTINGS = ((_M_MMAP_THRESHOLD, 32 << 20), (_M_TRIM_THRESHOLD, 64 << 20))


class ZstdError(RuntimeError):
    """A libzstd call returned an error code."""


class _FrameParams(ctypes.Structure):
    """ZSTD_frameParameters."""

    _fields_ = [("contentSizeFlag", ctypes.c_int), ("checksumFlag", ctypes.c_int),
                ("noDictIDFlag", ctypes.c_int)]


# Scored frames: content size in the header, no checksum, no dictionary ID.
_SCORE_FRAME = _FrameParams(contentSizeFlag=1, checksumFlag=0, noDictIDFlag=1)


class _FastCoverParams(ctypes.Structure):
    """ZDICT_fastCover_params_t: its first four fields, then zeros for the
    rest (nbThreads, splitPoint, accel, shrinkDict, shrinkDictMaxRegression
    and the ZDICT_params_t, 56 bytes in all in libzstd 1.5), where zero
    means libzstd's default. The tail is longer than any libzstd's struct."""

    _fields_ = [
        ("k", ctypes.c_uint), ("d", ctypes.c_uint), ("f", ctypes.c_uint),
        ("steps", ctypes.c_uint), ("_defaults", ctypes.c_char * 128),
    ]


_lib = None
_lib_lock = threading.Lock()


def _load():
    global _lib
    if _lib is not None:
        return _lib
    with _lib_lock:
        if _lib is not None:
            return _lib
        name = ctypes.util.find_library("zstd") or "libzstd.so.1"
        try:
            lib = ctypes.CDLL(name)
        except OSError as exc:  # pragma: no cover - environment dependent
            raise ZstdError(f"cannot load libzstd ({name}): {exc}") from exc

        c = ctypes
        lib.ZSTD_versionNumber.restype = c.c_uint
        lib.ZSTD_getErrorName.restype = c.c_char_p
        lib.ZSTD_getErrorName.argtypes = [c.c_size_t]
        lib.ZSTD_compressBound.restype = c.c_size_t
        lib.ZSTD_compressBound.argtypes = [c.c_size_t]

        lib.ZSTD_createCCtx.restype = c.c_void_p
        lib.ZSTD_freeCCtx.restype = c.c_size_t
        lib.ZSTD_freeCCtx.argtypes = [c.c_void_p]

        lib.ZSTD_createCDict.restype = c.c_void_p
        lib.ZSTD_createCDict.argtypes = [c.c_void_p, c.c_size_t, c.c_int]
        lib.ZSTD_freeCDict.restype = c.c_size_t
        lib.ZSTD_freeCDict.argtypes = [c.c_void_p]
        lib.ZSTD_compress_usingCDict_advanced.restype = c.c_size_t
        lib.ZSTD_compress_usingCDict_advanced.argtypes = [
            c.c_void_p, c.c_void_p, c.c_size_t, c.c_void_p, c.c_size_t, c.c_void_p,
            _FrameParams,
        ]

        lib.ZDICT_optimizeTrainFromBuffer_fastCover.restype = c.c_size_t
        lib.ZDICT_optimizeTrainFromBuffer_fastCover.argtypes = [
            c.c_void_p, c.c_size_t, c.c_void_p, c.POINTER(c.c_size_t), c.c_uint,
            c.POINTER(_FastCoverParams),
        ]
        lib.ZDICT_isError.restype = c.c_uint
        lib.ZDICT_isError.argtypes = [c.c_size_t]
        lib.ZDICT_getErrorName.restype = c.c_char_p
        lib.ZDICT_getErrorName.argtypes = [c.c_size_t]

        _lib = lib
    return _lib


def _check(lib, code: int, capacity: int) -> int:
    """``code`` when it is a size that fits ``capacity`` bytes, else a
    ZstdError: zstd's error codes are the top values of size_t, above any
    buffer's size, so this needs no ZSTD_isError call."""
    if code > capacity:
        raise ZstdError(lib.ZSTD_getErrorName(code).decode("ascii", "replace"))
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
            raise ZstdError("ZSTD_createCCtx failed")
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
    libzstd distinguishes the two by the dictionary magic number.
    """

    def __init__(self, payload: bytes, level: int):
        lib = _load()
        self.level = level
        self._ptr = lib.ZSTD_createCDict(payload, len(payload), level)
        if not self._ptr:
            raise ZstdError("ZSTD_createCDict failed")
        self._finalizer = weakref.finalize(self, lib.ZSTD_freeCDict, self._ptr)


def compressed_size_with_cdict(data: bytes, cdict: CDict) -> int:
    lib = _load()
    cctx, dst, bound = _cctx_dst(lib, len(data))
    return _check(
        lib,
        lib.ZSTD_compress_usingCDict_advanced(
            cctx, dst, bound, data, len(data), cdict._ptr, _SCORE_FRAME
        ),
        bound,
    )


def train_dictionary(samples: list[bytes], capacity: int, f: int) -> bytes:
    """Run ZDICT's fastCover optimiser over the sample set with a 2^f-entry
    frequency table, trying d=8 and five values of k as
    ``ZDICT_trainFromBuffer`` does (which is this call at f=20); raises
    ZstdError when it refuses (too little data, too few samples, ...)."""
    lib = _load()
    if not samples:
        raise ZstdError("no samples")
    blob = b"".join(samples)
    sizes = (ctypes.c_size_t * len(samples))(*[len(s) for s in samples])
    dst = ctypes.create_string_buffer(capacity)
    params = _FastCoverParams(d=8, f=f, steps=4)
    n = lib.ZDICT_optimizeTrainFromBuffer_fastCover(
        dst, capacity, blob, sizes, len(samples), ctypes.byref(params)
    )
    if lib.ZDICT_isError(n):
        raise ZstdError(lib.ZDICT_getErrorName(n).decode("ascii", "replace"))
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
    block's end (see the module docstring). Only the main glibc arena can be
    trimmed, so train on one thread."""
    libc = _tuned_libc()
    try:
        yield
    finally:
        if libc is not None:
            libc.malloc_trim(0)
