"""Compressed-size oracles.

* ``DictCompressor`` -- zstd with one dictionary, digested once and scored
  with whatever the query's size; ``lftc.mcc.compressor_lists`` builds them.
* ``DeflateBackend`` -- zlib/DEFLATE containers, C(.) of the NCD
  distances: ``compressed_size`` for one text, ``prefixed_sizes`` for one
  prefix followed by each of many suffixes, with the prefix compressed once.

A compressor that fails raises ``CompressionError`` (from
``lftc.zstd_bindings``), its message starting with the compressor's kind,
"zstd: " or "deflate: "; nothing here catches or re-words it, except that
``train_dictionary`` keeps the raw segment when ZDICT refuses it. The
trainer's parameters belong to ``zstd_bindings.train_dictionary``; this
module only chooses between its dictionary and the raw segment. Empty
input is a ``ValueError``.

``lane_map`` is the package's one way to run work in parallel, and the
only code that decides how many threads share a call: a fit's segment
trainings and C(y) slices, ``predict_corpus``'s queries, and one query's
compressions (MCC's class sums, CR's forks), mostly C calls that release
the GIL. It shares them between the calling thread and the free threads
of one process-wide lane pool of ``usable_cpus() - 1`` threads (at least
one), started on first use and kept for the life of the process. Results
are joined by index, so they are the same at any lane count.
"""

from __future__ import annotations

import os
import threading
import weakref
import zlib
from collections.abc import Callable, Iterable
from concurrent.futures import ThreadPoolExecutor
from dataclasses import dataclass, replace

from . import zstd_bindings as zb
from .zstd_bindings import CompressionError

# "trained" runs ZDICT on a segment, "raw" keeps its bytes as the dictionary.
DICT_MODES = ("trained", "raw")


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
        compressed and flushed on a copy of it, one ``lane_map`` item each,
        and C(prefix) comes from a copy flushed with no suffix. Deflate's
        output does not depend on how its input is split, so every size
        equals ``compressed_size(prefix + suffix)``.
        """
        _require_nonempty(prefix)
        primed = zlib.compressobj(self.level)
        head = len(primed.compress(prefix))

        def forked(suffix: bytes) -> int:
            fork = primed.copy()
            return head + len(fork.compress(suffix)) + len(fork.flush())

        return head + len(primed.copy().flush()), lane_map(forked, suffixes)


def usable_cpus() -> int:
    """The CPUs this process may run on; ``lane_map`` and its pool are
    sized from it."""
    try:
        return len(os.sched_getaffinity(0))
    except AttributeError:  # no sched_getaffinity on this platform
        return os.cpu_count() or 1


class _LanePool(ThreadPoolExecutor):
    """A thread pool that counts its threads no lane task holds."""

    def __init__(self, threads: int):
        super().__init__(threads, thread_name_prefix="lftc-lane")
        self.free = threading.Semaphore(threads)


# The lane pool, made on first use with one thread per CPU but the
# caller's; the lock keeps two first uses at once from making two.
_pool: _LanePool | None = None
_pool_lock = threading.Lock()


def _lane_pool() -> _LanePool:
    global _pool
    with _pool_lock:
        if _pool is None:
            _pool = _LanePool(max(1, usable_cpus() - 1))
        return _pool


def lane_map(fn: Callable, items: Iterable, lanes: int | None = None) -> list:
    """``[fn(item) for item in items]``, shared between the calling thread
    and up to ``lanes - 1`` lane tasks (``usable_cpus() - 1`` when no count
    is given), each taking the next item from one iterator (``next`` on a
    C iterator is atomic under the GIL). A task is sent only while a pool
    thread is free, so none waits behind busy threads; with none free the
    caller runs the items alone. Lane tasks not started when the items run
    out are cancelled and the others awaited, so none outlives the call.
    The lowest-index item's exception is raised as itself, as the serial
    loop would raise it. ``fn`` may call ``lane_map`` itself: a call awaits
    only tasks that have started, so nested calls cannot deadlock."""
    items = list(items)
    if lanes is None:
        lanes = usable_cpus()
    if lanes < 2 or len(items) < 2:
        return [fn(item) for item in items]
    results = [None] * len(items)
    failures = {}
    todo = enumerate(items)

    def work():
        for i, item in todo:
            try:
                results[i] = fn(item)
            except Exception as exc:
                failures[i] = exc

    pool = _lane_pool()

    def lane():
        try:
            work()
        finally:
            pool.free.release()

    tasks = []
    while len(tasks) < min(lanes, len(items)) - 1 and pool.free.acquire(blocking=False):
        tasks.append(pool.submit(lane))
    try:
        work()
    finally:
        for task in tasks:
            if task.cancel():
                pool.free.release()
            else:
                task.result()
    if failures:
        raise failures[min(failures)]
    return results


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
        if not data:  # _require_nonempty, inlined for the lanes' GIL
            raise ValueError("data must be non-empty")
        return zb.compressed_size_with_cdict(data, self.cdict)


def train_dictionary(segment: bytes, span: SourceSpan, mode: str = "trained") -> TrainedDictionary:
    """Build a dictionary from one corpus segment.

    ``mode="trained"`` trains one with ``zstd_bindings.train_dictionary``,
    which sets every ZDICT parameter, and keeps the raw segment bytes when
    libzstd refuses the segment (1 KiB or less, too uniform, ...); the
    span's ``mode`` records which. ``mode="raw"`` skips training entirely.
    No zstd level enters the dictionary: ZDICT is given none, and the level
    applies only when ``DictCompressor`` digests it.
    """
    if not segment:
        raise ValueError("segment must be non-empty")
    if mode not in DICT_MODES:
        raise ValueError(f"unknown dictionary mode: {mode!r}")

    if mode == "trained":
        try:
            return TrainedDictionary(zb.train_dictionary(segment), replace(span, mode="trained"))
        except CompressionError:
            pass
    return TrainedDictionary(segment, replace(span, mode="raw"))


def ncd_value(c_xy: int, c_x: int, c_y: int) -> float:
    """Normalized compression distance from the sizes C(xy), C(x), C(y)."""
    return (c_xy - min(c_x, c_y)) / max(c_x, c_y)


def _require_nonempty(data: bytes) -> None:
    if not data:
        raise ValueError("data must be non-empty")
