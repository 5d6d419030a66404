"""Seeded synthetic corpora for tests and benchmarks.

Each class owns a distinct vocabulary of repeated motifs; documents mix
class motifs with a shared noise vocabulary. Class regularity is therefore
a byte-level property that compressors can exploit, while the shared noise
keeps the task non-trivial.
"""

from __future__ import annotations

import random

from .corpus import Corpus, LabeledText

CLASS_NAMES = ("alpha", "beta", "gamma", "delta", "epsilon", "zeta", "eta", "theta")

_ALPHABET = "abcdefghijklmnopqrstuvwxyz"


def _words(rng: random.Random, count: int, length: tuple[int, int], taken: set[str]) -> list[str]:
    out: list[str] = []
    while len(out) < count:
        w = "".join(rng.choice(_ALPHABET) for _ in range(rng.randint(*length)))
        if w not in taken:
            taken.add(w)
            out.append(w)
    return out


class MotifGenerator:
    """Document factory for a fixed class/motif layout (one seed)."""

    def __init__(
        self,
        seed: int,
        classes: int = 3,
        motifs_per_class: int = 12,
        motif_len: tuple[int, int] = (5, 9),
        noise_vocab: int = 30,
        noise_ratio: float = 0.2,
        tokens_per_doc: tuple[int, int] = (60, 120),
    ):
        if classes < 1:
            raise ValueError("classes must be >= 1")
        if not (0.0 <= noise_ratio < 1.0):
            raise ValueError("noise_ratio must be in [0, 1)")
        self.seed = seed
        self.noise_ratio = noise_ratio
        self.tokens_per_doc = tokens_per_doc
        # str seeds hash via sha512 inside random.seed, so streams are stable
        # across processes (tuple seeds would go through randomized hash()).
        layout_rng = random.Random(f"layout:{seed}")
        taken: set[str] = set()
        self.class_names = tuple(
            CLASS_NAMES[i] if i < len(CLASS_NAMES) else f"class{i:02d}" for i in range(classes)
        )
        self.motifs = {
            name: _words(layout_rng, motifs_per_class, motif_len, taken)
            for name in self.class_names
        }
        self.noise = _words(layout_rng, noise_vocab, motif_len, taken)

    def document(self, class_id: str, rng: random.Random) -> bytes:
        motifs = self.motifs[class_id]
        n = rng.randint(*self.tokens_per_doc)
        toks = [
            rng.choice(self.noise) if rng.random() < self.noise_ratio else rng.choice(motifs)
            for _ in range(n)
        ]
        return " ".join(toks).encode()

    def corpus(self, name: str, docs_per_class: int, stream: str) -> Corpus:
        """A corpus of ``docs_per_class`` documents per class; ``stream``
        labels the draw so train/test splits never share documents."""
        rng = random.Random(f"{stream}:{self.seed}")
        samples = [
            LabeledText(class_id, self.document(class_id, rng))
            for class_id in self.class_names
            for _ in range(docs_per_class)
        ]
        return Corpus(name=name, samples=tuple(samples))

