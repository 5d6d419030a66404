"""Multi-compressor classification stage.

Builds one ordered list of dictionary compressors per class (the class's
concatenated training text sliced into fixed-size segments, one dictionary
per segment) and scores queries by summing their dictionary-compressed
sizes per list. The two lowest-scoring classes form the candidate pair
handed to the reasoning stage.

Per-class scores are plain sums over the list, so every list of a fit has
the same length: the fewest segments any class has, capped by the plan,
taken evenly spaced over each class's text.

Dictionaries are trained without a zstd level, which applies only to their
digests, so lists built at any level hold the same dictionaries.

The fit trains every dictionary serially on the calling thread, inside
``zstd_bindings.keep_heap()``, so ZDICT's scratch tables stay mapped from
one training to the next and are released once at the end. It is serial
because glibc cannot trim a worker thread's heap: a 16-class fit over two
threads kept 14.6 MB more resident after it ended than the serial fit.

A saved bundle of lists records what they were built from (``BundleSource``)
and is reusable only by a run with the same source.
"""

from __future__ import annotations

import base64
import json
from dataclasses import asdict, dataclass

from .compression import (
    DictCompressor,
    SourceSpan,
    TrainedDictionary,
    ZstdBackend,
    train_dictionary,
)
from .corpus import Corpus, concat_class_text
from .zstd_bindings import keep_heap

BUNDLE_FORMAT = "lftc-compressor-bundle"
BUNDLE_VERSION = 3


class DegenerateCorpusError(ValueError):
    """Fewer than two classes: candidate selection is impossible."""


@dataclass(frozen=True)
class SegmentPlan:
    """Segmenting policy: bytes per segment and an optional cap on the number
    of compressors per class (capped lists keep evenly spaced segments)."""

    step_size: int = 65536
    max_compressors_per_class: int | None = 16

    def __post_init__(self):
        if self.step_size < 1:
            raise ValueError("step_size must be >= 1")
        cap = self.max_compressors_per_class
        if cap is not None and cap < 1:
            raise ValueError("max_compressors_per_class must be >= 1 or None")


@dataclass(frozen=True)
class ClassScore:
    class_id: str
    score: int


@dataclass(frozen=True)
class CandidatePair:
    first: str
    second: str
    scores: tuple[ClassScore, ...]

    def __post_init__(self):
        if self.first == self.second:
            raise ValueError("candidate pair must hold two distinct classes")


@dataclass(frozen=True)
class ClassCompressorList:
    class_id: str
    compressors: tuple[DictCompressor, ...]

    def __post_init__(self):
        if not self.compressors:
            raise ValueError(f"class {self.class_id!r} has an empty compressor list")


def segment_count(total_len: int, step_size: int) -> int:
    """ceil(total_len / step_size)."""
    if total_len < 1:
        raise ValueError("total_len must be >= 1")
    if step_size < 1:
        raise ValueError("step_size must be >= 1")
    return -(-total_len // step_size)


def _segment_indices(n_full: int, count: int) -> list[int]:
    # Evenly spaced over the full span; strictly increasing since
    # count <= n_full, and every index when count == n_full.
    return [(i * n_full) // count for i in range(count)]


def _class_list(
    class_id: str,
    text: bytes,
    plan: SegmentPlan,
    count: int,
    backend: ZstdBackend,
    dict_mode: str,
) -> ClassCompressorList:
    """One dictionary for each of ``count`` evenly spaced step_size segments
    of ``text`` (the last segment may be shorter)."""
    indices = _segment_indices(segment_count(len(text), plan.step_size), count)
    compressors = []
    for segment_index in indices:
        start = segment_index * plan.step_size
        stop = min(len(text), start + plan.step_size)
        span = SourceSpan(class_id, segment_index, start, stop)
        dictionary = train_dictionary(text[start:stop], span, mode=dict_mode)
        compressors.append(DictCompressor(backend, dictionary))
    return ClassCompressorList(class_id=class_id, compressors=tuple(compressors))


def build_all_lists(
    corpus: Corpus,
    plan: SegmentPlan,
    backend: ZstdBackend,
    dict_mode: str = "trained",
) -> dict[str, ClassCompressorList]:
    """One compressor list per class, all of one length (see the module
    docstring), trained serially."""
    texts = {class_id: concat_class_text(corpus, class_id) for class_id in sorted(corpus.classes)}
    count = min(segment_count(len(text), plan.step_size) for text in texts.values())
    if plan.max_compressors_per_class is not None:
        count = min(count, plan.max_compressors_per_class)
    with keep_heap():
        return {
            class_id: _class_list(class_id, text, plan, count, backend, dict_mode)
            for class_id, text in texts.items()
        }


def score_query(lists: dict[str, ClassCompressorList], query: bytes) -> list[ClassScore]:
    """Sum of dictionary-compressed sizes of the query bytes per class, all
    classes, sorted by class id for a stable audit trail."""
    if not lists:
        raise ValueError("no compressor lists")
    if not query:
        raise ValueError("query text must be non-empty")
    return [
        ClassScore(class_id, sum(c.score(query) for c in lists[class_id].compressors))
        for class_id in sorted(lists)
    ]


def select_candidates(scores: list[ClassScore]) -> CandidatePair:
    """Two lowest-scoring classes; ties break lexicographically on class id."""
    if len(scores) < 2:
        raise DegenerateCorpusError(
            f"need at least 2 scored classes, got {len(scores)}"
        )
    ordered = sorted(scores, key=lambda s: (s.score, s.class_id))
    return CandidatePair(ordered[0].class_id, ordered[1].class_id, tuple(scores))


@dataclass(frozen=True)
class BundleSource:
    """What a bundle's lists were built from; only a run with the same
    source may reuse them. ``dict_mode`` is the requested mode: a segment's
    own ``mode`` reads "raw" under "trained" when ZDICT refused it."""

    backend: ZstdBackend
    plan: SegmentPlan
    train_sha256: str
    dict_mode: str


def save_bundle(path, lists: dict[str, ClassCompressorList], source: BundleSource) -> None:
    """Persist dictionary payloads so repeated runs skip reconstruction.
    Versioned JSON container; not a cross-version stability promise."""
    doc = {
        "format": BUNDLE_FORMAT,
        "version": BUNDLE_VERSION,
        "backend": {"kind": source.backend.kind, "level": source.backend.level},
        "plan": asdict(source.plan),
        "train_sha256": source.train_sha256,
        "dict_mode": source.dict_mode,
        "classes": [
            {
                "class": cl.class_id,
                "segments": [
                    {
                        "index": c.dictionary.source_span.segment_index,
                        "start": c.dictionary.source_span.start,
                        "stop": c.dictionary.source_span.stop,
                        "mode": c.dictionary.source_span.mode,
                        "payload": base64.b64encode(c.dictionary.payload).decode("ascii"),
                    }
                    for c in cl.compressors
                ],
            }
            for _, cl in sorted(lists.items())
        ],
    }
    with open(path, "w", encoding="utf-8") as fh:
        json.dump(doc, fh)


def load_bundle(path) -> tuple[dict[str, ClassCompressorList], BundleSource]:
    """Lists from a bundle and what they were built from; a ValueError that
    names the bundle when it is not a well-formed version 3 bundle."""
    with open(path, encoding="utf-8") as fh:
        try:
            doc = json.load(fh)
        except ValueError as exc:  # not UTF-8, not JSON
            raise ValueError(f"{path}: not a compressor bundle ({exc})") from exc
    if not isinstance(doc, dict) or doc.get("format") != BUNDLE_FORMAT:
        raise ValueError(f"{path}: not a compressor bundle")
    if doc.get("version") != BUNDLE_VERSION:
        # Version 1 recorded neither the train split nor the dictionary mode;
        # version 2 trained with libzstd's default table and ragged lists.
        raise ValueError(
            f"{path}: unsupported bundle version {doc.get('version')}; delete it to rebuild"
        )
    try:
        meta = doc["backend"]
        if meta["kind"] != "zstd":
            raise ValueError(f"unsupported backend {meta['kind']!r}")
        backend = ZstdBackend(level=meta["level"])
        lists: dict[str, ClassCompressorList] = {}
        for entry in doc["classes"]:
            if entry["class"] in lists:
                raise ValueError(f"class {entry['class']!r} appears twice")
            compressors = []
            for seg in entry["segments"]:
                span = SourceSpan(
                    entry["class"], seg["index"], seg["start"], seg["stop"], seg["mode"]
                )
                dictionary = TrainedDictionary(base64.b64decode(seg["payload"]), span)
                compressors.append(DictCompressor(backend, dictionary))
            lists[entry["class"]] = ClassCompressorList(entry["class"], tuple(compressors))
        plan = SegmentPlan(**doc["plan"])
        return lists, BundleSource(backend, plan, doc["train_sha256"], doc["dict_mode"])
    except (KeyError, TypeError, AttributeError, ValueError) as exc:
        raise ValueError(f"{path}: malformed bundle ({type(exc).__name__}: {exc})") from exc
