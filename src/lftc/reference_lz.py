"""Reference match/replace/entropy-code scorer.

A literal, pure-Python statement of the dictionary-compressed size the MCC
stage scores with. It is too slow for production and is kept as the
reference the tests compare zstd's rankings and the formulas against.

The pipeline parses greedily: at each position the longest earlier
occurrence of the upcoming bytes (within a sliding window, overlap allowed)
is replaced by one token; tokens are keyed by the substring they cover and
charged their empirical Shannon cost. A dictionary is a window seed: its
bytes precede the data and may be matched but are not charged.
"""

from __future__ import annotations

import math
from collections import Counter
from typing import Iterable, Sequence

MIN_MATCH = 3
DEFAULT_REFERENCE_WINDOW = 32 * 1024


def ref_longest_match(window: bytes, text: bytes, position: int) -> tuple[int, int]:
    """Longest prefix of ``text[position:]`` occurring earlier in
    ``window + text[:position]``.

    Overlapping (self-referential) matches are allowed, so a run like
    ``aaaa`` matches itself at offset 1.  Returns ``(length, offset)`` with
    the offset counted backwards from the current position; ties on length
    prefer the smallest offset.  ``(0, 0)`` when no match reaches MIN_MATCH.
    """
    if not (0 <= position < len(text)):
        raise ValueError(f"position {position} out of range for text of length {len(text)}")
    buf = bytes(window) + bytes(text)
    return _longest_match(buf, len(window) + position, 0)


def _longest_match(buf: bytes, pos: int, lo: int) -> tuple[int, int]:
    """Longest match for buf[pos:] with source start in [lo, pos).

    Feasibility of a given length is monotone (a length-L occurrence yields a
    length-(L-1) one at the same start), so the maximal length is found by
    bisection over C-level ``find`` calls.
    """
    limit = len(buf) - pos
    if limit < MIN_MATCH or pos <= lo:
        return (0, 0)
    if buf.find(buf[pos : pos + MIN_MATCH], lo, pos + MIN_MATCH - 1) < 0:
        return (0, 0)
    low, high = MIN_MATCH, limit
    while low < high:
        mid = (low + high + 1) // 2
        if buf.find(buf[pos : pos + mid], lo, pos + mid - 1) >= 0:
            low = mid
        else:
            high = mid - 1
    start = buf.rfind(buf[pos : pos + low], lo, pos + low - 1)
    return (low, pos - start)


def reference_tokens(dictionary_bytes: bytes, data: bytes, window: int) -> list[bytes]:
    """Greedy left-to-right parse; each token is the substring it covers
    (a single byte for literals, >= MIN_MATCH bytes for matches)."""
    if not data:
        raise ValueError("data must be non-empty")
    if window < 1:
        raise ValueError("window must be >= 1")
    buf = bytes(dictionary_bytes) + bytes(data)
    out: list[bytes] = []
    i = len(dictionary_bytes)
    n = len(buf)
    while i < n:
        length, _offset = _longest_match(buf, i, max(0, i - window))
        if length >= MIN_MATCH:
            out.append(buf[i : i + length])
            i += length
        else:
            out.append(buf[i : i + 1])
            i += 1
    return out


def ref_entropy_coded_size(tokens: Sequence | Iterable) -> float:
    """Shannon lower bound, in bits, of the token stream under its own
    empirical distribution: sum over occurrences of -log2 p(token)."""
    counts = Counter(tokens)
    total = sum(counts.values())
    if total == 0:
        raise ValueError("token stream must be non-empty")
    log_total = math.log2(total)
    return sum(c * (log_total - math.log2(c)) for c in counts.values())


def ref_compress_size(dictionary_bytes: bytes, data: bytes, window: int = DEFAULT_REFERENCE_WINDOW) -> int:
    """Reference pipeline size in bytes: greedy parse, then the entropy-coded
    bit count rounded up to whole bytes.  Degenerate single-symbol streams
    legitimately cost zero bits."""
    return math.ceil(ref_entropy_coded_size(reference_tokens(dictionary_bytes, data, window)) / 8)
