"""The benchmark's workloads: seeded batch-classification splits.

Each workload is a fixed train/test split and a segment plan; the seed
orders the test queries. The program sees only the split's CSV files, loaded through ``lftc.corpus.load_csv``
exactly as ``lftc eval`` loads them. The two workloads put the cost in
different layers, so neither alone can show every layer's gain:

* ``bundled-3c``   -- CR (deflate NCD over ~5 KB inputs) is ~95% of a query;
                      fit and MCC are barely touched.
* ``motif-16c``    -- ~190 ZDICT trainings at fit and ~190 dictionary scores
                      per query; CR touches 2/16 of the train set.
"""

from __future__ import annotations

import random
from dataclasses import dataclass
from pathlib import Path

from lftc.corpus import Corpus, load_csv, save_csv
from lftc.mcc import SegmentPlan
from lftc.synthetic import MotifGenerator

ROOT = Path(__file__).resolve().parent.parent
# The generated corpus is fixed; --seed only orders the queries. Across
# generator seeds, accuracy moves by whole classes (0.74 to 1.0 on
# motif-16c) with the ragged segment counts of each layout, which would
# swamp any regression bound. Seed 7 gives the corpus the workload was
# sized on: pair recall 0.87 on motif-16c.
GENERATOR_SEED = 7
BUNDLED_TRAIN = ROOT / "data" / "synthetic_train.csv"
BUNDLED_TEST = ROOT / "data" / "synthetic_test.csv"


@dataclass(frozen=True)
class Workload:
    name: str
    why: str
    plan: SegmentPlan
    # MotifGenerator keyword arguments and documents per class; None means
    # the bundled CSVs.
    generator: dict | None = None
    train_docs: int = 0
    test_docs: int = 0


WORKLOADS = {
    w.name: w
    for w in (
        Workload(
            name="bundled-3c",
            why="bundled 3-class CSVs, default plan: 6 ZDICTs, ~80 deflate NCDs per query; loads CR and deflate, barely fit or MCC",
            plan=SegmentPlan(),
        ),
        Workload(
            name="motif-16c",
            why="16 generated classes, step 8192: ~190 ZDICT trainings at fit and CDict scores per query; loads fit and MCC, CR sees 2/16 of train",
            plan=SegmentPlan(step_size=8192),
            generator=dict(classes=16, tokens_per_doc=(200, 400), noise_ratio=0.3),
            train_docs=40,
            test_docs=30,
        ),
    )
}


@dataclass(frozen=True)
class Inputs:
    train_csv: Path
    test_csv: Path
    plan: SegmentPlan


def write_inputs(workload: Workload, seed: int, workdir: Path,
                 max_docs: int | None = None, test_limit: int | None = None) -> Inputs:
    """Materialize the seeded split as CSV files under ``workdir``.

    The test set is shuffled by ``seed``. ``max_docs`` caps the generated
    documents per class and ``test_limit`` the test queries; the smoke test
    uses them to stay fast."""
    if workload.generator is None:
        train_csv = BUNDLED_TRAIN
        test = load_csv(BUNDLED_TEST)
    else:
        cap = max_docs or max(workload.train_docs, workload.test_docs)
        gen = MotifGenerator(GENERATOR_SEED, **workload.generator)
        train = gen.corpus(f"{workload.name}-train", min(cap, workload.train_docs), "train")
        test = gen.corpus(f"{workload.name}-test", min(cap, workload.test_docs), "test")
        train_csv = workdir / "train.csv"
        save_csv(train, train_csv)
    samples = list(test.samples)
    random.Random(f"order:{seed}").shuffle(samples)
    if test_limit is not None:
        samples = samples[:test_limit]
    test_csv = workdir / "test.csv"
    save_csv(Corpus(f"{workload.name}-test", tuple(samples)), test_csv)
    return Inputs(train_csv, test_csv, workload.plan)
