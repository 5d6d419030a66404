"""Candidate-pair reasoning: NCD nearest neighbours over gold data.

Gold data is every training sample labeled with one of the two candidate
classes (nothing is removed: candidates are class labels, not individual
training texts, so there is no sample-level exclusion to perform). The
query's NCD to each gold sample feeds a KNN vote; on a tied vote the label
of the single closest neighbour wins.
"""

from __future__ import annotations

from collections import Counter
from dataclasses import dataclass, field

from .compression import Backend, CompressionError, DeflateBackend, ncd_value
from .corpus import Corpus, LabeledText
from .mcc import CandidatePair


class EmptyGoldError(ValueError):
    """Neither candidate label occurs in the training corpus."""


@dataclass(frozen=True)
class GoldData:
    samples: tuple[LabeledText, ...]
    corpus_indices: tuple[int, ...]  # positions in the training corpus
    source: CandidatePair


@dataclass(frozen=True)
class NcdNeighbor:
    distance: float
    label: str
    index: int  # position within the gold data


@dataclass(frozen=True)
class KnnConfig:
    k: int = 1
    backend: Backend = field(default_factory=DeflateBackend)

    def __post_init__(self):
        if self.k < 1:
            raise ValueError("k must be >= 1")


@dataclass(frozen=True)
class ReasoningOutcome:
    label: str
    neighbors: tuple[NcdNeighbor, ...]  # the k used for the decision
    ncd_calls: int
    fallback: bool = False
    tie: bool = False


def extract_gold(corpus: Corpus, pair: CandidatePair) -> GoldData:
    """Training samples labeled first or second, corpus order preserved."""
    wanted = {pair.first, pair.second}
    picked = [(i, s) for i, s in enumerate(corpus.samples) if s.label in wanted]
    if not picked:
        raise EmptyGoldError(
            f"no training samples labeled {pair.first!r} or {pair.second!r}"
        )
    return GoldData(
        samples=tuple(s for _, s in picked),
        corpus_indices=tuple(i for i, _ in picked),
        source=pair,
    )


def sample_distances(
    query: bytes,
    samples: tuple[LabeledText, ...],
    config: KnnConfig,
    size_cache: dict[bytes, int] | None = None,
) -> list[NcdNeighbor]:
    """NCD from the query to each sample; the machinery behind both the
    gold-data distances and the whole-training-set baseline."""
    backend = config.backend
    c_query = backend.compressed_size(query)
    out = []
    for i, sample in enumerate(samples):
        try:
            if size_cache is not None:
                c_y = size_cache.get(sample.text)
                if c_y is None:
                    c_y = backend.compressed_size(sample.text)
                    size_cache[sample.text] = c_y
            else:
                c_y = backend.compressed_size(sample.text)
            c_xy = backend.compressed_size(query + sample.text)
        except CompressionError as exc:
            raise CompressionError(f"sample {i}: {exc}") from exc
        out.append(NcdNeighbor(ncd_value(c_xy, c_query, c_y), sample.label, i))
    return out


def ncd_distances(
    query: bytes,
    gold: GoldData,
    config: KnnConfig,
    size_cache: dict[bytes, int] | None = None,
) -> list[NcdNeighbor]:
    """One neighbour per gold sample. ``size_cache`` may memoize the
    samples' own compressed sizes; distances are identical either way."""
    if not query:
        raise ValueError("query must be non-empty")
    if not gold.samples:
        raise EmptyGoldError("gold data is empty")
    return sample_distances(query, gold.samples, config, size_cache)


def vote_detail(neighbors: list[NcdNeighbor], config: KnnConfig) -> ReasoningOutcome:
    """KNN vote over the k nearest neighbours (ties on distance go to the
    lower index, tied votes to the single closest neighbour), with the
    audit fields (top-k neighbours, tie flag)."""
    if not neighbors:
        raise ValueError("no neighbors to vote on")
    ranked = sorted(neighbors, key=lambda n: (n.distance, n.index))
    top = ranked[: config.k]
    counts = Counter(n.label for n in top)
    best = max(counts.values())
    winners = [label for label, c in counts.items() if c == best]
    tie = len(winners) > 1
    label = top[0].label if tie else winners[0]
    return ReasoningOutcome(
        label=label, neighbors=tuple(top), ncd_calls=len(neighbors), tie=tie
    )


def reason_detail(
    corpus: Corpus,
    pair: CandidatePair,
    query: bytes,
    config: KnnConfig,
    size_cache: dict[bytes, int] | None = None,
) -> ReasoningOutcome:
    """Final label for the query, always one of the candidate pair, with the
    audit fields; falls back to pair.first (flagged) when no gold data
    exists."""
    try:
        gold = extract_gold(corpus, pair)
    except EmptyGoldError:
        return ReasoningOutcome(label=pair.first, neighbors=(), ncd_calls=0, fallback=True)
    neighbors = ncd_distances(query, gold, config, size_cache)
    return vote_detail(neighbors, config)

