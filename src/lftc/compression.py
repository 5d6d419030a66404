"""Compressed-size oracles.

* ``DictCompressor`` -- zstd with one dictionary, digested once and scored
  with whatever the query's size; ``lftc.mcc.compressor_lists`` builds them.
* ``DeflateBackend`` -- zlib/DEFLATE containers, C(.) of the NCD
  distances: ``compressed_size`` for one text, ``prefixed_sizes`` for one
  prefix followed by each of many suffixes, with the prefix compressed once.

A compressor that fails raises ``CompressionError`` (from
``lftc.zstd_bindings``), its message starting with the compressor's kind,
"zstd: " or "deflate: "; nothing here catches or re-words it, except that
``train_dictionary`` keeps the raw segment when ZDICT refuses it (the
trainer's parameters belong to ``zstd_bindings.train_dictionary``). Empty
input is a ``ValueError``.

``lane_map`` is the package's one way to run work in parallel, and the
only code that decides how many threads share a call: a fit's segment
trainings and C(y) slices, ``predict_corpus``'s queries, and one query's
compressions (MCC's class sums, CR's forks), mostly C calls that release
the GIL. It shares them between the calling thread and the free threads
of one process-wide lane pool of ``usable_cpus() - 1`` daemon threads (at
least one) on one ``_queue.SimpleQueue``, started on first use and kept
for the life of the process; ``concurrent.futures`` would load
``logging``, ``queue`` and ``traceback`` into every process that predicts.
Results are joined by index, so they are the same at any lane count.
"""

from __future__ import annotations

import os
import threading
import weakref
import zlib
from _queue import SimpleQueue
from collections.abc import Callable, Iterable
from dataclasses import dataclass, replace
from functools import partial

from . import zstd_bindings as zb
from .zstd_bindings import CompressionError

# "trained" runs ZDICT on a segment, "raw" keeps its bytes as the dictionary.
DICT_MODES = ("trained", "raw")


class DeflateBackend:
    """zlib container (RFC 1950) at level 6, the NCD stage's one compressor."""

    kind = "deflate"
    level = 6

    def compressed_size(self, data: bytes) -> int:
        if not data:
            raise ValueError("data must be non-empty")
        return len(zlib.compress(data, self.level))

    def prefixed_sizes(self, prefix: bytes, suffixes: Iterable[bytes]) -> tuple[int, list[int]]:
        """C(prefix), and the list of C(prefix + suffix), one per suffix.

        The prefix goes through one deflate stream; each suffix is
        compressed and flushed on a copy of it, one ``lane_map`` item each,
        and C(prefix) comes from a copy flushed with no suffix. Deflate's
        output does not depend on how its input is split, so every size
        equals ``compressed_size(prefix + suffix)``.
        """
        if not prefix:
            raise ValueError("data must be non-empty")
        primed = zlib.compressobj(self.level)
        head = len(primed.compress(prefix))

        def forked(suffix: bytes) -> int:
            fork = primed.copy()
            return head + len(fork.compress(suffix)) + len(fork.flush())

        return head + len(primed.copy().flush()), lane_map(forked, suffixes)


def usable_cpus() -> int:
    """The CPUs this process may run on, which size ``lane_map`` and its pool."""
    try:
        return len(os.sched_getaffinity(0))
    except AttributeError:  # no sched_getaffinity on this platform
        return os.cpu_count() or 1


class _LanePool(SimpleQueue):
    """A queue of lane tasks, the threads that run them, and a count of the
    threads that no lane task holds."""

    def __init__(self, threads: int):
        self.free = threading.Semaphore(threads)
        self.threads = [threading.Thread(target=self._serve, name=f"lftc-lane_{n}", daemon=True)
                        for n in range(threads)]
        for thread in self.threads:
            thread.start()

    def _serve(self):
        for task in iter(self.get, None):
            task()
            del task  # so no call's items outlive it here, waiting for the next

    def shutdown(self):
        for thread in self.threads:
            self.put(None)
        for thread in self.threads:
            thread.join()


# The lane pool, made on first use; the lock keeps two first uses from making two.
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
    caller runs the items alone. When the items run out the caller claims
    each task not yet started, so it never runs, and awaits the others:
    none outlives the call, and ``fn`` may call ``lane_map`` without
    deadlock. A failure or an interrupt of the caller empties the iterator,
    so no thread takes another item; the lowest-index item's exception (any
    ``BaseException``) is raised as itself, as the serial loop would raise
    it, since every lower item was handed out first."""
    items = list(items)
    lanes = usable_cpus() if lanes is None else lanes
    if lanes < 2 or len(items) < 2:
        return [fn(item) for item in items]
    results, failures, todo = [None] * len(items), {}, enumerate(items)

    def work():
        try:
            for i, item in todo:
                try:
                    results[i] = fn(item)
                except BaseException as exc:
                    failures[i] = exc
                    break
        finally:  # after a failure or an interrupt, no thread takes another item
            for _ in todo:
                pass

    pool, tasks = _lane_pool(), []

    def lane(claim, done):
        if claim.acquire(blocking=False):
            try:
                work()
            finally:
                pool.free.release()
                done.release()

    while len(tasks) < min(lanes, len(items)) - 1 and pool.free.acquire(blocking=False):
        claim, done = threading.Lock(), threading.Lock()
        done.acquire()
        pool.put(partial(lane, claim, done))
        tasks.append((claim, done))
    try:
        work()
    finally:
        for claim, done in tasks:
            if claim.acquire(blocking=False):  # not started: it never will
                pool.free.release()
            else:
                done.acquire()
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


# Live digests by (payload, level, table_log), a digest being a pure function
# of its key: pipelines fitted on the same corpus hold one set of digests
# (4.6 MiB for the 176 level-3 dictionaries of a 16-class generated split at
# step 8192, at table log 11).
_digests: weakref.WeakValueDictionary = weakref.WeakValueDictionary()
_digests_lock = threading.Lock()


class DictCompressor:
    """Scores byte strings by their zstd-compressed size against one
    dictionary, digested at construction at zstd ``level`` with match tables
    capped by ``table_log`` (``zstd_bindings.CDict``), or the live digest of
    an identical dictionary; a digest is never written again and is shared
    across threads, so scoring is a single C call."""

    def __init__(self, dictionary: TrainedDictionary, level: int, table_log: int):
        key = (dictionary.payload, level, table_log)
        with _digests_lock:
            self.cdict = _digests.get(key)
            if self.cdict is None:
                self.cdict = _digests[key] = zb.CDict(*key)

    def score(self, data: bytes) -> int:
        if not data:
            raise ValueError("data must be non-empty")
        return zb.compressed_size_with_cdict(data, self.cdict)


def train_dictionary(segment: bytes, span: SourceSpan, mode: str = "trained") -> TrainedDictionary:
    """Build a dictionary from one corpus segment: ``mode="trained"``
    trains one with ``zstd_bindings.train_dictionary``, which sets every
    ZDICT parameter, and keeps the raw segment bytes when libzstd refuses
    the segment (1 KiB or less, too uniform, ...), the span's ``mode``
    recording which; ``mode="raw"`` skips training. No zstd level enters the
    dictionary: it applies only when ``DictCompressor`` digests it."""
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
