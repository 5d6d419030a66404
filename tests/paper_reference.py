"""The paper's classifier stated the slow, obvious way: the tests' oracle.

A fit joins each class's training texts in corpus order and cuts m evenly
spaced ``step_size`` segments from each, m being the fewest segments any
class has, capped by the plan; every segment becomes a dictionary. A
query's class score is the sum of its zstd sizes under the class's
dictionaries, all digested with one table log, and the two lowest
(score, class id) form the pair (MCC). NCD-KNN over the pair's training
texts, in corpus order, then votes, a tied vote going to the nearest
neighbour (CR). ``lftc-mcc`` is ``lftc`` at one whole-class segment,
``lftc-cr`` answers the pair's first class, and ``baseline-ncd`` runs CR
over every class. Nothing here goes through ``lftc.mcc``, ``lftc.cr``,
``DictCompressor`` or ``Corpus.by_class``.
"""

import zlib
from collections import Counter

from lftc import zstd_bindings as zb
from lftc.compression import SourceSpan, train_dictionary
from lftc.corpus import DEFAULT_SEPARATOR


def class_text(corpus, class_id: str) -> bytes:
    """One class's texts in corpus order, joined by ``DEFAULT_SEPARATOR``:
    the text whose byte ranges dictionary spans name."""
    texts = [s.text for s in corpus.samples if s.label == class_id]
    if not texts:
        raise KeyError(class_id)
    return DEFAULT_SEPARATOR.join(texts)


def dictionaries(corpus, config):
    """What ``Pipeline(corpus, config).dictionaries`` holds."""
    if config.variant == "baseline-ncd":
        return None
    step, cap = (1 << 20, 1) if config.variant == "lftc-mcc" else (
        config.plan.step_size, config.plan.max_compressors_per_class)
    texts = {c: class_text(corpus, c) for c in sorted({s.label for s in corpus.samples})}
    counts = {c: -(-len(text) // step) for c, text in texts.items()}
    m = min(cap, *counts.values())
    out = {}
    for c, text in texts.items():
        spans = [SourceSpan(c, j, j * step, min(len(text), (j + 1) * step))
                 for j in (i * counts[c] // m for i in range(m))]
        out[c] = [train_dictionary(text[s.start:s.stop], s, config.dict_mode) for s in spans]
    return out


def vote(neighbors, k: int):
    """(label, the k nearest, tie) of a KNN vote over (distance, label,
    index) triples, nearest first by (distance, index)."""
    top = sorted(neighbors, key=lambda n: (n[0], n[2]))[:k]
    votes = Counter(label for _, label, _ in top)
    winners = [label for label, n in votes.items() if n == max(votes.values())]
    return (top[0][1] if len(winners) > 1 else winners[0]), tuple(top), len(winners) > 1


def predict(corpus, config, dicts, query: bytes):
    """(label, pair, neighbours, tie, NCD count) for ``query``, where pair is
    (first, second, ((class, score), ...)) in class order, or None, and
    each neighbour is (distance, label, index in the gold texts)."""
    labels, pair = {s.label for s in corpus.samples}, None
    if dicts is not None:
        largest = max(len(d.payload) for ds in dicts.values() for d in ds)
        table_log = max(zb.MIN_TABLE_LOG, (largest - 1).bit_length())
        scores = tuple((c, sum(zb.compressed_size_with_cdict(
            query, zb.CDict(d.payload, config.level, table_log)) for d in ds))
            for c, ds in dicts.items())
        first, second = (c for c, _ in sorted(scores, key=lambda s: (s[1], s[0]))[:2])
        pair, labels = (first, second, scores), {first, second}
        if config.variant == "lftc-cr":
            return first, pair, (), False, 0
    gold = [s for s in corpus.samples if s.label in labels]

    def size(data):
        return len(zlib.compress(data, 6))

    def ncd(y):
        c_x, c_y = size(query), size(y)
        return (size(query + y) - min(c_x, c_y)) / max(c_x, c_y)

    label, top, tie = vote([(ncd(s.text), s.label, i) for i, s in enumerate(gold)], config.k)
    return label, pair, top, tie, len(gold)
