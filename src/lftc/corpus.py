"""Labeled text corpora: CSV loading, the per-class index, few-shot draws.

Everything downstream is byte-oriented, so texts are stored as bytes
(UTF-8 with surrogate escapes, which keeps CSV round-trips lossless even
for non-UTF-8 input). Corpora are immutable after construction and safe
to share across worker threads. ``Corpus.by_class``, each class's sample
indices, is the one grouping of a corpus by label: MCC's segments, CR's
gold data, few-shot draws and per-class accuracy all read it.
"""

from __future__ import annotations

import csv
import functools
import struct
from dataclasses import dataclass
from pathlib import Path

DEFAULT_SEPARATOR = b"\n"


class DatasetError(ValueError):
    """Bad input data: missing files, malformed rows, infeasible requests."""


@dataclass(frozen=True, slots=True)
class LabeledText:
    label: str
    text: bytes

    def __post_init__(self):
        if not self.label:
            raise DatasetError("label must be non-empty")
        if not self.text:
            raise DatasetError("text must be non-empty")


@dataclass(frozen=True)
class Corpus:
    name: str
    samples: tuple[LabeledText, ...]

    def __post_init__(self):
        if not self.samples:
            raise DatasetError(f"corpus {self.name!r} has no samples")

    @functools.cached_property
    def by_class(self) -> dict[str, tuple[int, ...]]:
        """Class -> its sample indices in corpus order, classes sorted;
        computed on first use and kept."""
        out: dict[str, list[int]] = {}
        for i, s in enumerate(self.samples):
            out.setdefault(s.label, []).append(i)
        return {label: tuple(out[label]) for label in sorted(out)}

    @functools.cached_property
    def classes(self) -> frozenset[str]:
        return frozenset(self.by_class)

    def __len__(self) -> int:
        return len(self.samples)

    def digest(self) -> str:
        """Order-sensitive checksum of the full sample list."""
        # CPython's own sha256, as hashlib loads OpenSSL's libcrypto to make one.
        try:
            from _sha2 import sha256  # Python 3.12 and later
        except ImportError:
            try:
                from _sha256 import sha256
            except ImportError:  # an interpreter built without them
                from hashlib import sha256
        h = sha256()
        for s in self.samples:
            lab = s.label.encode("utf-8", "surrogateescape")
            h.update(struct.pack("<II", len(lab), len(s.text)))
            h.update(lab)
            h.update(s.text)
        return h.hexdigest()


def load_csv(
    path,
    label_column: str | int = "label",
    text_column: str | int = "text",
    delimiter: str = ",",
    name: str | None = None,
) -> Corpus:
    """Load a two-column-or-more CSV into a Corpus.

    Columns are addressed by header name (a header row is then required) or
    by zero-based index (the file is then read as headerless). Quoting per
    RFC 4180; rows with missing/blank label or text, or that the csv module
    cannot parse, are rejected with their record number. A leading UTF-8
    byte order mark is skipped.
    """
    path = Path(path)
    if len(delimiter) != 1:
        raise DatasetError(f"delimiter must be one character, got {delimiter!r}")
    for column in (label_column, text_column):
        if isinstance(column, int) and column < 0:
            raise DatasetError(f"{path}: column index {column} is negative")
    if not path.exists():
        raise DatasetError(f"dataset file not found: {path}")
    positional = isinstance(label_column, int) and isinstance(text_column, int)

    samples: list[LabeledText] = []
    with open(path, newline="", encoding="utf-8-sig", errors="surrogateescape") as fh:
        records = _records(csv.reader(fh, delimiter=delimiter), path)
        if positional:
            label_idx, text_idx = label_column, text_column
        else:
            _, header = next(records, (0, None))
            if header is None:
                raise DatasetError(f"{path}: empty file")
            label_idx = _resolve_column(header, label_column, path)
            text_idx = _resolve_column(header, text_column, path)
        if label_idx == text_idx:
            raise DatasetError(
                f"{path}: label column {label_column!r} and text column {text_column!r} "
                "are the same column"
            )
        for row_no, row in records:
            if not row:
                continue
            if max(label_idx, text_idx) >= len(row):
                raise DatasetError(
                    f"{path}: row {row_no} has {len(row)} fields, "
                    f"need column {max(label_idx, text_idx)}"
                )
            label = row[label_idx].strip()
            text = row[text_idx]
            if not label:
                raise DatasetError(f"{path}: row {row_no} has an empty label")
            if not text.strip():
                raise DatasetError(f"{path}: row {row_no} has an empty text field")
            samples.append(LabeledText(label, text.encode("utf-8", "surrogateescape")))
    if not samples:
        raise DatasetError(f"{path}: no data rows")
    return Corpus(name=name or path.stem, samples=tuple(samples))


def _records(reader, path):
    """(record number from 1, row) for each row; a record the csv module
    cannot parse, such as a field over its size limit, is a DatasetError."""
    row_no = 1
    while True:
        try:
            row = next(reader)
        except StopIteration:
            return
        except csv.Error as exc:
            raise DatasetError(f"{path}: row {row_no} is not valid CSV ({exc})") from None
        yield row_no, row
        row_no += 1


def _resolve_column(header: list[str], column: str | int, path) -> int:
    if isinstance(column, int):
        if column >= len(header):
            raise DatasetError(f"{path}: column index {column} out of range")
        return column
    try:
        return header.index(column)
    except ValueError:
        raise DatasetError(f"{path}: no column named {column!r} in header {header}") from None


def save_csv(corpus: Corpus, path) -> None:
    """Write with a `label,text` header; inverse of load_csv."""
    with open(path, "w", newline="", encoding="utf-8", errors="surrogateescape") as fh:
        writer = csv.writer(fh)
        writer.writerow(["label", "text"])
        for s in corpus.samples:
            writer.writerow([s.label, s.text.decode("utf-8", "surrogateescape")])


def _draw_rank(seed: int, trial_index: int, class_id: str, sample_index: int) -> bytes:
    # Keyed PRF: stable across platforms and library versions.
    import hashlib  # here, not at import: it loads OpenSSL's libcrypto

    key = struct.pack("<qq", seed, trial_index)
    h = hashlib.blake2b(digest_size=8, key=key)
    h.update(class_id.encode("utf-8", "surrogateescape"))
    h.update(b"\x00")
    h.update(struct.pack("<q", sample_index))
    return h.digest()


def few_shot_sample(corpus: Corpus, shots: int, seed: int, trial_index: int = 0) -> Corpus:
    """Draw exactly ``shots`` (>= 1) samples per class, without replacement.

    The draw is a pure function of (seed, trial_index, class): each sample is
    ranked by a keyed hash and the lowest ranks win, so equal inputs always
    select identical samples and distinct trials are independent.
    """
    if shots < 1:
        raise DatasetError("shots must be >= 1")
    selected: list[int] = []
    for class_id, indices in corpus.by_class.items():
        if len(indices) < shots:
            raise DatasetError(
                f"class {class_id!r} has {len(indices)} samples, fewer than shots={shots}"
            )
        ranked = sorted(indices, key=lambda i: (_draw_rank(seed, trial_index, class_id, i), i))
        selected.extend(ranked[:shots])
    selected.sort()
    return Corpus(
        name=f"{corpus.name}@{shots}shot.t{trial_index}",
        samples=tuple(corpus.samples[i] for i in selected),
    )
