"""Codec calls that only the tests make: plain zstd frames, the frames that
dictionary scores measure, decompression for round trips, the memory a
digest holds, and NCD from three one-shot compressions.

The program never builds a frame it keeps; it scores dictionary frames by
size (``lftc.zstd_bindings.compressed_size_with_cdict``) and computes NCD
from sizes taken at fit and from one primed deflate stream per query
(``lftc.cr``). These helpers state the same quantities the long way, so
the tests can check one against the other.
"""

from __future__ import annotations

import ctypes
import functools
from typing import Protocol

from lftc import zstd_bindings as zb
from lftc.compression import ncd_value

_CONTENTSIZE_UNKNOWN = 2**64 - 1
_CONTENTSIZE_ERROR = 2**64 - 2


@functools.cache
def _lib():
    """libzstd with the signatures of the calls below declared."""
    lib = zb._load()
    c = ctypes
    lib.ZSTD_compressCCtx.restype = c.c_size_t
    lib.ZSTD_compressCCtx.argtypes = [
        c.c_void_p, c.c_void_p, c.c_size_t, c.c_void_p, c.c_size_t, c.c_int,
    ]
    lib.ZSTD_compress_usingCDict.restype = c.c_size_t
    lib.ZSTD_compress_usingCDict.argtypes = [
        c.c_void_p, c.c_void_p, c.c_size_t, c.c_void_p, c.c_size_t, c.c_void_p,
    ]
    lib.ZSTD_createDCtx.restype = c.c_void_p
    lib.ZSTD_freeDCtx.restype = c.c_size_t
    lib.ZSTD_freeDCtx.argtypes = [c.c_void_p]
    lib.ZSTD_decompress_usingDict.restype = c.c_size_t
    lib.ZSTD_decompress_usingDict.argtypes = [
        c.c_void_p, c.c_void_p, c.c_size_t, c.c_void_p, c.c_size_t, c.c_void_p, c.c_size_t,
    ]
    lib.ZSTD_getFrameContentSize.restype = c.c_ulonglong
    lib.ZSTD_getFrameContentSize.argtypes = [c.c_void_p, c.c_size_t]
    lib.ZSTD_sizeof_CDict.restype = c.c_size_t
    lib.ZSTD_sizeof_CDict.argtypes = [c.c_void_p]
    return lib


def sizeof_cdict(cdict: zb.CDict) -> int:
    """Bytes the digest holds: its copy of the dictionary, its match tables
    and its entropy tables."""
    return _lib().ZSTD_sizeof_CDict(cdict._ptr)


def compress(data: bytes, level: int) -> bytes:
    """One-shot compression into a standard Zstandard frame."""
    lib = _lib()
    cctx, dst, bound = zb._cctx_dst(lib, len(data))
    n = zb._check(lib, lib.ZSTD_compressCCtx(cctx, dst, bound, data, len(data), level), bound)
    return ctypes.string_at(dst, n)


def compressed_size(data: bytes, level: int) -> int:
    return len(compress(data, level))


def compress_with_cdict(data: bytes, cdict: zb.CDict) -> bytes:
    """The frame ``DictCompressor.score`` measures: the same call with the
    same frame parameters (no dictionary ID) as
    ``zb.compressed_size_with_cdict``, keeping the bytes."""
    lib = _lib()
    cctx, dst, bound = zb._cctx_dst(lib, len(data))
    n = zb._check(
        lib,
        lib.ZSTD_compress_usingCDict_advanced(
            cctx, dst, bound, data, len(data), cdict._ptr, zb._SCORE_FRAME
        ),
        bound,
    )
    return ctypes.string_at(dst, n)


def frame_with_dict_id(data: bytes, cdict: zb.CDict) -> bytes:
    """A frame that names its dictionary, as ZSTD_compress_usingCDict writes
    it; scored frames leave the ID out, so a decoder cannot tell which
    dictionary they need."""
    lib = _lib()
    cctx, dst, bound = zb._cctx_dst(lib, len(data))
    n = zb._check(
        lib, lib.ZSTD_compress_usingCDict(cctx, dst, bound, data, len(data), cdict._ptr), bound
    )
    return ctypes.string_at(dst, n)


def decompress(frame: bytes, dict_payload: bytes = b"") -> bytes:
    """Round-trip helper; relies on the frame header carrying the content size."""
    lib = _lib()
    size = lib.ZSTD_getFrameContentSize(frame, len(frame))
    if size in (_CONTENTSIZE_UNKNOWN, _CONTENTSIZE_ERROR):
        raise zb.ZstdError("frame content size unavailable")
    dctx = lib.ZSTD_createDCtx()
    if not dctx:
        raise zb.ZstdError("ZSTD_createDCtx failed")
    try:
        dst = ctypes.create_string_buffer(max(1, size))
        n = zb._check(
            lib,
            lib.ZSTD_decompress_usingDict(
                dctx, dst, size, frame, len(frame), dict_payload, len(dict_payload)
            ),
            size,
        )
        return dst.raw[:n]
    finally:
        lib.ZSTD_freeDCtx(dctx)


class Backend(Protocol):
    """What ``ncd`` compresses with: a ``DeflateBackend`` or a stub."""

    kind: str

    def compressed_size(self, data: bytes) -> int: ...


def ncd(backend: Backend, x: bytes, y: bytes) -> float:
    """Normalized compression distance with C(.) = ``backend.compressed_size``;
    the pair is concatenated with no separator."""
    if not (x and y):
        raise ValueError("data must be non-empty")
    return ncd_value(
        backend.compressed_size(x + y), backend.compressed_size(x), backend.compressed_size(y)
    )
