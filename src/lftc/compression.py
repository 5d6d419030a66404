"""Compressed-size oracles.

Two backends expose ``compressed_size``:

* ``ZstdBackend`` -- Zstandard frames via the system libzstd; the only
  backend that supports per-segment dictionaries, scored by
  ``DictCompressor``.
* ``DeflateBackend`` -- zlib/DEFLATE containers; used for NCD distances.

The pure-Python reference scorer the tests validate zstd against lives in
``lftc.reference_lz``.
"""

from __future__ import annotations

from dataclasses import dataclass, field, replace
from typing import Protocol

from . import zstd_bindings as zb

# Inputs at or above this size are compressed at the fast level.
ADAPTIVE_SIZE_CUTOFF = 64 * 1024
ADAPTIVE_FAST_LEVEL = 1

# "trained" runs ZDICT on a segment, "raw" keeps its bytes as the dictionary.
DICT_MODES = ("trained", "raw")

# Trained dictionaries: a lone segment is chunked into pseudo-samples for
# ZDICT, capacity clamped to [1 KiB, 110 KiB].
_ZDICT_CHUNKS = 64
_ZDICT_MIN_CAPACITY = 1024
_ZDICT_MAX_CAPACITY = 110 * 1024


class CompressionError(RuntimeError):
    """A backend failed; message carries the backend kind."""


class UnsupportedBackendError(CompressionError):
    """The requested operation needs a capability the backend lacks."""


class Backend(Protocol):
    kind: str

    def compressed_size(self, data: bytes) -> int: ...


@dataclass(frozen=True)
class ZstdBackend:
    """Zstandard backend. Inputs of 64 KiB or more are compressed at the
    fast level, with or without a dictionary."""

    level: int = 3
    kind: str = field(default="zstd", init=False)

    def __post_init__(self):
        if not (zb.MIN_LEVEL <= self.level <= zb.MAX_LEVEL):
            raise ValueError(f"zstd level out of range: {self.level}")

    def effective_level(self, size: int) -> int:
        if size >= ADAPTIVE_SIZE_CUTOFF:
            return min(self.level, ADAPTIVE_FAST_LEVEL)
        return self.level

    def compressed_size(self, data: bytes) -> int:
        _require_nonempty(data)
        try:
            return zb.compressed_size(data, self.effective_level(len(data)))
        except zb.ZstdError as exc:
            raise CompressionError(f"zstd: {exc}") from exc

    def compress(self, data: bytes) -> bytes:
        _require_nonempty(data)
        try:
            return zb.compress(data, self.effective_level(len(data)))
        except zb.ZstdError as exc:
            raise CompressionError(f"zstd: {exc}") from exc


@dataclass(frozen=True)
class DeflateBackend:
    """zlib container (RFC 1950); no dictionary support in this toolkit."""

    level: int = 6
    kind: str = field(default="deflate", init=False)

    def __post_init__(self):
        if not (0 <= self.level <= 9):
            raise ValueError(f"deflate level out of range: {self.level}")

    def compressed_size(self, data: bytes) -> int:
        _require_nonempty(data)
        return len(self.compress(data))

    def compress(self, data: bytes) -> bytes:
        import zlib

        _require_nonempty(data)
        try:
            return zlib.compress(data, self.level)
        except zlib.error as exc:  # pragma: no cover - zlib does not fail on bytes
            raise CompressionError(f"deflate: {exc}") from exc


@dataclass(frozen=True)
class SourceSpan:
    """Where a dictionary's bytes came from: a byte range of one class's
    concatenated training text. ``mode`` records whether ZDICT training
    succeeded ("trained") or the raw segment bytes were kept ("raw")."""

    class_id: str
    segment_index: int
    start: int
    stop: int
    mode: str = "raw"


@dataclass(frozen=True)
class TrainedDictionary:
    payload: bytes
    source_span: SourceSpan

    def __post_init__(self):
        if not self.payload:
            raise ValueError("dictionary payload must be non-empty")
        if self.source_span.start < 0 or self.source_span.stop <= self.source_span.start:
            raise ValueError("source span must be a non-empty byte range")


class DictCompressor:
    """Scores byte strings by their zstd-compressed size against one
    dictionary.

    The dictionary is digested once per level and the digest is shared
    across threads; scoring is then a single C call.
    """

    def __init__(self, backend: ZstdBackend, dictionary: TrainedDictionary):
        _require_zstd(backend)
        self.backend = backend
        self.dictionary = dictionary
        self._cdicts: dict[int, zb.CDict] = {}

    def _cdict(self, level: int) -> zb.CDict:
        cd = self._cdicts.get(level)
        if cd is None:
            cd = zb.CDict(self.dictionary.payload, level)
            self._cdicts[level] = cd
        return cd

    def score(self, data: bytes) -> int:
        _require_nonempty(data)
        try:
            return zb.compressed_size_with_cdict(
                data, self._cdict(self.backend.effective_level(len(data)))
            )
        except zb.ZstdError as exc:
            raise CompressionError(f"zstd: {exc}") from exc

    def compress(self, data: bytes) -> bytes:
        """Actual frame bytes (round-trip and interoperability checks)."""
        _require_nonempty(data)
        return zb.compress_with_cdict(data, self._cdict(self.backend.effective_level(len(data))))


def train_dictionary(
    backend: ZstdBackend,
    segment: bytes,
    span: SourceSpan,
    mode: str = "trained",
) -> TrainedDictionary:
    """Build a dictionary from one corpus segment.

    ``mode="trained"`` runs ZDICT and falls back to the raw segment bytes when
    the trainer refuses the segment (too small / too uniform); the fallback is
    recorded in the span's ``mode``. ``mode="raw"`` skips training entirely.
    """
    if not segment:
        raise ValueError("segment must be non-empty")
    _require_zstd(backend)
    if mode not in DICT_MODES:
        raise ValueError(f"unknown dictionary mode: {mode!r}")

    if mode == "trained":
        payload = _zdict_train_segment(segment)
        if payload is not None:
            return TrainedDictionary(payload, replace(span, mode="trained"))
    return TrainedDictionary(segment, replace(span, mode="raw"))


def _zdict_train_segment(segment: bytes) -> bytes | None:
    capacity = max(_ZDICT_MIN_CAPACITY, min(_ZDICT_MAX_CAPACITY, len(segment) // 4))
    chunk = max(256, len(segment) // _ZDICT_CHUNKS)
    samples = [segment[off : off + chunk] for off in range(0, len(segment), chunk)]
    if len(samples) < 5:  # ZDICT rejects tiny sample sets outright
        return None
    try:
        payload = zb.train_dictionary(samples, capacity)
    except zb.ZstdError:
        return None
    return payload or None


def ncd(backend: Backend, x: bytes, y: bytes) -> float:
    """Normalized compression distance with C(.) = backend compressed size;
    the pair is concatenated with no separator."""
    _require_nonempty(x)
    _require_nonempty(y)
    cx = backend.compressed_size(x)
    cy = backend.compressed_size(y)
    cxy = backend.compressed_size(x + y)
    return ncd_value(cxy, cx, cy)


def ncd_value(c_xy: int, c_x: int, c_y: int) -> float:
    """The distance formula itself, usable with precomputed sizes."""
    return (c_xy - min(c_x, c_y)) / max(c_x, c_y)


def _require_nonempty(data: bytes) -> None:
    if not data:
        raise ValueError("data must be non-empty")


def _require_zstd(backend: Backend) -> None:
    if not isinstance(backend, ZstdBackend):
        raise UnsupportedBackendError(f"{backend.kind} backend does not support dictionaries")
