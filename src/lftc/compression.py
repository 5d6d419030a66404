"""Compressed-size oracles.

* ``DictCompressor`` -- zstd with one dictionary, digested once and scored
  with whatever the query's size; ``lftc.mcc.compressor_lists`` builds them.
* ``DeflateBackend`` -- zlib/DEFLATE containers, C(.) of the NCD
  distances: ``compressed_size`` for one text, ``prefixed_sizes`` for one
  prefix followed by each of many suffixes, with the prefix compressed once.

A compressor that fails raises ``CompressionError`` (from
``lftc.zstd_bindings``), its message starting with the compressor's kind,
"zstd: " or "deflate: "; nothing here catches or re-words it, except that
``train_dictionary`` keeps the raw segment when ZDICT refuses it. Empty
input is a ``ValueError``.
"""

from __future__ import annotations

import threading
import weakref
import zlib
from collections.abc import Iterable
from dataclasses import dataclass, replace

from . import zstd_bindings as zb
from .zstd_bindings import CompressionError

# "trained" runs ZDICT on a segment, "raw" keeps its bytes as the dictionary.
DICT_MODES = ("trained", "raw")

# Trained dictionaries: a lone segment is chunked into pseudo-samples, all
# of which ZDICT's one fastCover pass trains on, capacity clamped to
# [1 KiB, 110 KiB], with a frequency table of eight slots per segment byte,
# up to libzstd's default of 2^20.
_ZDICT_CHUNKS = 64
_ZDICT_MIN_CAPACITY = 1024
_ZDICT_MAX_CAPACITY = 110 * 1024
_ZDICT_MAX_F = 20


class DeflateBackend:
    """zlib container (RFC 1950) at level 6, the NCD stage's one compressor;
    no dictionary support in this toolkit."""

    kind = "deflate"
    level = 6

    def compressed_size(self, data: bytes) -> int:
        _require_nonempty(data)
        try:
            return len(zlib.compress(data, self.level))
        except zlib.error as exc:  # pragma: no cover - zlib does not fail on bytes
            raise CompressionError(f"deflate: {exc}") from exc

    def prefixed_sizes(self, prefix: bytes, suffixes: Iterable[bytes]) -> tuple[int, list[int]]:
        """C(prefix), and the list of C(prefix + suffix), one per suffix.

        The prefix goes through one deflate stream; each suffix is
        compressed and flushed on a copy of it, and C(prefix) comes from a
        copy flushed with no suffix. Deflate's output does not depend on
        how its input is split, so every size equals
        ``compressed_size(prefix + suffix)``.
        """
        _require_nonempty(prefix)
        primed = zlib.compressobj(self.level)
        head = len(primed.compress(prefix))
        sizes = []
        for suffix in suffixes:
            fork = primed.copy()
            sizes.append(head + len(fork.compress(suffix)) + len(fork.flush()))
        return head + len(primed.copy().flush()), sizes


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
        if self.source_span.mode not in DICT_MODES:
            raise ValueError(f"unknown dictionary mode: {self.source_span.mode!r}")


# Live digests by (payload, level, table_log). A digest is a pure function
# of its key, so every DictCompressor with the same dictionary, level and
# table log shares one, and pipelines fitted on the same corpus hold one
# set of digests (4.6 MiB for the 176 level-3 dictionaries of a 16-class
# generated split at step 8192, at table log 11).
_digests: weakref.WeakValueDictionary = weakref.WeakValueDictionary()
_digests_lock = threading.Lock()


class DictCompressor:
    """Scores byte strings by their zstd-compressed size against one
    dictionary.

    The dictionary is digested at construction, at zstd ``level`` with
    match tables capped by ``table_log`` (``zstd_bindings.CDict``), or the
    live digest of an identical dictionary is reused; a digest is never
    written again and is shared across threads, so scoring is a single C
    call.
    """

    def __init__(self, dictionary: TrainedDictionary, level: int, table_log: int):
        key = (dictionary.payload, level, table_log)
        with _digests_lock:
            self.cdict = _digests.get(key)
            if self.cdict is None:
                self.cdict = _digests[key] = zb.CDict(*key)

    def score(self, data: bytes) -> int:
        _require_nonempty(data)
        return zb.compressed_size_with_cdict(data, self.cdict)


def train_dictionary(segment: bytes, span: SourceSpan, mode: str = "trained") -> TrainedDictionary:
    """Build a dictionary from one corpus segment.

    ``mode="trained"`` runs ZDICT and falls back to the raw segment bytes when
    the trainer refuses the segment (too small / too uniform); the fallback is
    recorded in the span's ``mode``. ``mode="raw"`` skips training entirely.
    No zstd level enters the dictionary: ZDICT is given none, and the level
    applies only when ``DictCompressor`` digests it.
    """
    if not segment:
        raise ValueError("segment must be non-empty")
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
    f = min(_ZDICT_MAX_F, (8 * len(segment) - 1).bit_length())
    try:
        payload = zb.train_dictionary(samples, capacity, f)
    except CompressionError:
        return None
    return payload or None


def ncd_value(c_xy: int, c_x: int, c_y: int) -> float:
    """Normalized compression distance from the sizes C(xy), C(x), C(y)."""
    return (c_xy - min(c_x, c_y)) / max(c_x, c_y)


def _require_nonempty(data: bytes) -> None:
    if not data:
        raise ValueError("data must be non-empty")
