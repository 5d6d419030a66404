"""Centralized reasoning: NCD nearest neighbours over gold data.

Gold data is every training sample labeled with one of the labels reasoned
over: the MCC candidate pair for lftc, every class for baseline-ncd
(gzip-KNN). ``extract_gold`` reads it from the training corpus's
``Corpus.by_class``, so a query touches only its gold texts. Nothing is
removed: candidates are class labels, not individual training texts, so
there is no sample-level exclusion to perform. The query's NCD to each
gold sample feeds a KNN vote; on a tied vote the label of the single
closest neighbour wins. There is no fallback:
labels with no training text are an error.

Every compression goes through ``NCD_BACKEND`` (DEFLATE level 6). Each
training text's C(y) is computed once at fit (``sample_sizes``), and a
query is compressed once per prediction: ``DeflateBackend.prefixed_sizes``
primes one deflate stream with it and forks a copy per gold sample, so C(x)
and every C(xy) cost one pass over the query plus one over each gold text.
The forks are items of one ``compression.lane_map`` call, shared between
the calling thread and idle lane threads.
The sizes are those of compressing x and xy from scratch, returned as plain
integers; a compressor failure reaches the caller as the backend raised it.
"""

from __future__ import annotations

from collections import Counter
from collections.abc import Collection
from dataclasses import dataclass

from .compression import DeflateBackend, ncd_value
from .corpus import Corpus, LabeledText

NCD_BACKEND = DeflateBackend()


@dataclass(frozen=True)
class GoldData:
    samples: tuple[LabeledText, ...]
    corpus_indices: tuple[int, ...]  # positions in the training corpus and its sizes


@dataclass(frozen=True, slots=True)
class NcdNeighbor:
    distance: float
    label: str
    index: int  # position within the gold data


@dataclass(frozen=True, slots=True)
class ReasoningOutcome:
    label: str
    neighbors: tuple[NcdNeighbor, ...]  # the k used for the decision
    ncd_calls: int
    tie: bool = False


def sample_sizes(samples: tuple[LabeledText, ...]) -> tuple[int, ...]:
    """C(y) of each sample, aligned with ``samples``."""
    return tuple(NCD_BACKEND.compressed_size(s.text) for s in samples)


def extract_gold(corpus: Corpus, labels: Collection[str]) -> GoldData:
    """Training samples labeled with any of ``labels``, in corpus order:
    the labels' ``Corpus.by_class`` indices merged, so no other sample is
    read; a ValueError when there are none."""
    wanted = set(labels)
    indices = tuple(sorted(i for label in wanted for i in corpus.by_class.get(label, ())))
    if not indices:
        raise ValueError(f"no training samples labeled {sorted(wanted)}")
    return GoldData(tuple(corpus.samples[i] for i in indices), indices)


def ncd_distances(
    query: bytes, samples: tuple[LabeledText, ...], sizes: tuple[int, ...]
) -> list[NcdNeighbor]:
    """One neighbour per sample; ``sizes`` holds each sample's C(y)."""
    if not query:
        raise ValueError("query text must be non-empty")
    c_query, c_xys = NCD_BACKEND.prefixed_sizes(query, [s.text for s in samples])
    return [
        NcdNeighbor(ncd_value(c_xy, c_query, c_y), sample.label, i)
        for i, (sample, c_y, c_xy) in enumerate(zip(samples, sizes, c_xys, strict=True))
    ]


def vote_detail(neighbors: list[NcdNeighbor], k: int = 1) -> ReasoningOutcome:
    """KNN vote over the k nearest neighbours (ties on distance go to the
    lower index, tied votes to the single closest neighbour), with the
    audit fields (top-k neighbours, tie flag)."""
    if k < 1:
        raise ValueError("k must be >= 1")
    if not neighbors:
        raise ValueError("no neighbors to vote on")
    ranked = sorted(neighbors, key=lambda n: (n.distance, n.index))
    top = ranked[:k]
    counts = Counter(n.label for n in top)
    best = max(counts.values())
    winners = [label for label, c in counts.items() if c == best]
    tie = len(winners) > 1
    label = top[0].label if tie else winners[0]
    return ReasoningOutcome(
        label=label, neighbors=tuple(top), ncd_calls=len(neighbors), tie=tie
    )


def reason_detail(
    corpus: Corpus, labels: Collection[str], query: bytes, sizes: tuple[int, ...], k: int = 1
) -> ReasoningOutcome:
    """Final label for the query, always one of ``labels``, with the audit
    fields; ``sizes`` is ``sample_sizes(corpus.samples)``."""
    gold = extract_gold(corpus, labels)
    gold_sizes = tuple(sizes[i] for i in gold.corpus_indices)
    neighbors = ncd_distances(query, gold.samples, gold_sizes)
    return vote_detail(neighbors, k)
