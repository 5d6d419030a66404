import os
from pathlib import Path

import pytest

from lftc import compression
from lftc.corpus import DEFAULT_SEPARATOR, Corpus, LabeledText, load_csv
from lftc.synthetic import MotifGenerator

REPO_ROOT = Path(__file__).resolve().parent.parent
DATA_DIR = REPO_ROOT / "data"

# External benchmark datasets (R8, AGNews, ...) are looked up here when the
# paper-scale acceptance checks run; see README for the expected layout.
DATASET_DIR = Path(os.environ.get("LFTC_DATA_DIR", DATA_DIR))


# Corpus.digest of the bundled split: the train_sha256 and test_sha256 that
# reports record.
BUNDLED_DIGESTS = {
    "synthetic_train.csv": "b4e9b224c84247b192daac6a07e77ef4a90d9fce2d3888f5c9f57de6a036e044",
    "synthetic_test.csv": "0785ba329df9d9af0eeeddca11982f69885f145c6322d121c2d69d4c9851b1a0",
}


def corpus_from(pairs, name="tiny") -> Corpus:
    return Corpus(name=name, samples=tuple(LabeledText(l, t) for l, t in pairs))


def class_text(corpus: Corpus, class_id: str) -> bytes:
    """One class's texts in corpus order, joined by ``DEFAULT_SEPARATOR``:
    the text whose byte ranges dictionary spans name. A fit never builds
    it (``mcc.class_segments`` joins only the texts each segment overlaps)."""
    return DEFAULT_SEPARATOR.join(corpus.samples[i].text for i in corpus.by_class[class_id])


def make_motif_split(
    seed: int,
    train_docs: int = 40,
    test_docs: int = 30,
    **kwargs,
) -> tuple[Corpus, Corpus]:
    """Seeded train/test pair from one motif layout."""
    gen = MotifGenerator(seed, **kwargs)
    train = gen.corpus(f"motif{seed}-train", train_docs, "train")
    test = gen.corpus(f"motif{seed}-test", test_docs, "test")
    return train, test


@pytest.fixture
def lane_tasks(monkeypatch) -> list:
    """Every task that ``lane_map`` puts on a lane pool's queue; each still
    runs."""
    sent, put = [], compression._LanePool.put

    def recorded(pool, task):
        if task is not None:  # not shutdown()'s end marker
            sent.append(task)
        return put(pool, task)

    monkeypatch.setattr(compression._LanePool, "put", recorded)
    return sent


@pytest.fixture
def lane_pool(monkeypatch):
    """``lane_pool(cpus)`` forces ``usable_cpus()`` to ``cpus`` and returns
    a fresh lane pool of that size, shut down after the test."""
    pools = []

    def make(cpus):
        monkeypatch.setattr(compression, "usable_cpus", lambda: cpus)
        monkeypatch.setattr(compression, "_pool", None)
        pools.append(compression._lane_pool())
        return pools[-1]

    yield make
    for pool in pools:
        pool.shutdown()


@pytest.fixture(scope="session")
def bundled_train() -> Corpus:
    return load_csv(DATA_DIR / "synthetic_train.csv")


@pytest.fixture(scope="session")
def bundled_test() -> Corpus:
    return load_csv(DATA_DIR / "synthetic_test.csv")


@pytest.fixture(scope="session")
def motif_split():
    """Small, quickly separable split shared by pipeline-level tests."""
    return make_motif_split(7, train_docs=12, test_docs=8, tokens_per_doc=(20, 40),
                            noise_ratio=0.3)
