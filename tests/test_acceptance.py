"""Acceptance checks, one test per criterion, each printing a PASS/FAIL line.

Criteria over external benchmark datasets run only when the datasets are
present under LFTC_DATA_DIR (see README for the expected layout: one
directory per dataset containing train.csv/test.csv with label,text
columns); otherwise they are reported as SKIPPED with the reason. Run with
``pytest tests/test_acceptance.py -s`` to see the status lines inline.
"""

import math
import random
import time
from collections import Counter

import pytest

from lftc.classifier import Pipeline, PipelineConfig, evaluate, evaluate_fewshot
from lftc.corpus import load_csv
from lftc.cr import NcdNeighbor, vote_detail
from lftc.mcc import SegmentPlan
from lftc.synthetic import MotifGenerator

from codec_helpers import ncd
from conftest import DATASET_DIR
from reference_lz import ref_entropy_coded_size, ref_longest_match


@pytest.fixture
def status(capsys):
    def emit(line: str) -> None:
        with capsys.disabled():
            print(line)

    return emit


def dataset_split(name: str):
    """Load <DATASET_DIR>/<name>/{train,test}.csv or skip the criterion."""
    root = DATASET_DIR / name
    train_path, test_path = root / "train.csv", root / "test.csv"
    if not (train_path.exists() and test_path.exists()):
        return None
    return load_csv(train_path, name=f"{name}-train"), load_csv(test_path, name=f"{name}-test")


def skip_missing(status, criterion: str, name: str):
    line = (f"[ACCEPTANCE] {criterion}: SKIPPED - dataset {name!r} not present "
            f"under {DATASET_DIR} (no network route in this environment)")
    status(line)
    pytest.skip(f"dataset {name} not available")


# --- criterion 1: formula fidelity -------------------------------------------

def test_criterion_1_formula_fidelity(status):
    t0 = time.perf_counter()
    rng = random.Random(101)

    # entropy-coded size vs an independent closed-form evaluation
    for _ in range(1000):
        stream = [rng.randrange(rng.randint(1, 12)) for _ in range(rng.randint(1, 300))]
        counts = Counter(stream)
        total = len(stream)
        expected = -sum(c * math.log2(c / total) for c in counts.values())
        got = ref_entropy_coded_size(stream)
        assert math.isclose(got, expected, rel_tol=1e-9, abs_tol=1e-9)

    # longest match vs a brute-force O(n^2) matcher
    def brute(window, text, position):
        buf = window + text
        pos = len(window) + position
        best_len, best_off = 0, 0
        for start in range(pos):
            length = 0
            while pos + length < len(buf) and buf[start + length] == buf[pos + length]:
                length += 1
            if length >= 3 and length >= best_len:
                best_len, best_off = length, pos - start
        return (best_len, best_off) if best_len >= 3 else (0, 0)

    for _ in range(1000):
        alphabet = rng.choice([2, 3, 4, 8, 16, 256])
        n = rng.randint(1, 512)
        text = bytes(rng.randrange(alphabet) for _ in range(n))
        window = bytes(rng.randrange(alphabet) for _ in range(rng.randint(0, 64)))
        position = rng.randrange(n)
        assert ref_longest_match(window, text, position) == brute(window, text, position)

    # NCD against hand-computed values with stubbed sizes
    class Stub:
        kind = "stub"

        def __init__(self, sizes):
            self.sizes = sizes

        def compressed_size(self, data):
            return self.sizes[data]

    assert ncd(Stub({b"x": 100, b"y": 80, b"xy": 130}), b"x", b"y") == 0.5
    assert ncd(Stub({b"x": 50, b"y": 200, b"xy": 205}), b"x", b"y") == 0.775
    assert ncd(Stub({b"x": 60, b"y": 60, b"xy": 60}), b"x", b"y") == 0.0
    assert ncd(Stub({b"x": 10, b"y": 10, b"xy": 12}), b"x", b"y") == (12 - 10) / 10

    elapsed = time.perf_counter() - t0
    assert elapsed < 60
    status(f"[ACCEPTANCE] 1 formula fidelity: PASS ({elapsed:.1f}s)")


# --- criterion 2: knn oracle equivalence ---------------------------------------

def brute_vote(neighbors, k):
    ranked = sorted(neighbors, key=lambda n: (n.distance, n.index))
    votes = Counter(n.label for n in ranked[:k])
    top = max(votes.values())
    tied = sorted(label for label, c in votes.items() if c == top)
    if len(tied) > 1:
        return ranked[0].label
    return tied[0]


def test_criterion_2_knn_oracle(status):
    t0 = time.perf_counter()
    rng = random.Random(202)
    checked = 0
    for _ in range(2500):
        size = rng.randint(1, 14)
        labels = "pqrs"[: rng.randint(2, 4)]
        nbrs = [
            NcdNeighbor(
                # occasional coarse rounding forces distance and vote ties
                round(rng.random(), rng.choice([1, 1, 3, 6])),
                rng.choice(labels),
                i,
            )
            for i in range(size)
        ]
        for k in (1, 2, 3, 5):
            assert vote_detail(nbrs, k).label == brute_vote(nbrs, k)
            checked += 1
    assert checked == 10_000
    elapsed = time.perf_counter() - t0
    assert elapsed < 60
    status(f"[ACCEPTANCE] 2 knn oracle equivalence: PASS ({checked} sets, {elapsed:.1f}s)")


# --- criterion 3: synthetic separation ------------------------------------------

def test_criterion_3_synthetic_separation(status):
    t0 = time.perf_counter()
    per_seed = []
    for seed in range(10):
        gen = MotifGenerator(seed, classes=3, tokens_per_doc=(20, 40), noise_ratio=0.45)
        train = gen.corpus(f"sep{seed}-train", 40, "train")
        test = gen.corpus(f"sep{seed}-test", 67, "test")
        test = type(test)(name=test.name, samples=test.samples[:200])
        assert len(test) == 200
        accs = {}
        for variant in ("lftc", "lftc-mcc", "lftc-cr"):
            pipeline = Pipeline(train, PipelineConfig(variant=variant, threads=8))
            accs[variant] = evaluate(pipeline, test)[0].accuracy
        per_seed.append(accs)
        assert accs["lftc"] >= 0.95, f"seed {seed}: lftc accuracy {accs['lftc']:.3f}"
        assert accs["lftc-mcc"] >= accs["lftc"] - 0.03, f"seed {seed}: {accs}"
        assert accs["lftc-cr"] >= accs["lftc"] - 0.03, f"seed {seed}: {accs}"
    mean_delta_mcc = sum(a["lftc-mcc"] - a["lftc"] for a in per_seed) / len(per_seed)
    mean_delta_cr = sum(a["lftc-cr"] - a["lftc"] for a in per_seed) / len(per_seed)
    assert mean_delta_mcc <= 0.01
    assert mean_delta_cr <= 0.01
    elapsed = time.perf_counter() - t0
    assert elapsed < 300
    mean_full = sum(a["lftc"] for a in per_seed) / len(per_seed)
    status(
        f"[ACCEPTANCE] 3 synthetic separation: PASS (lftc mean {mean_full:.3f}, "
        f"ablation deltas mcc {mean_delta_mcc:+.3f} / cr {mean_delta_cr:+.3f}, {elapsed:.0f}s)"
    )


# --- criteria 4-5: paper-scale reproduction (dataset-gated) ---------------------

# Segment size, cap, and level have no published reference values.
R8_CONFIG = dict(
    plan=SegmentPlan(step_size=2048, max_compressors_per_class=8),
    dict_mode="raw",
    threads=8,
)


def test_criterion_4_full_split_accuracy(status):
    targets = {"r8": 0.93, "kirnews": 0.88, "kinnews": 0.89}
    table1 = {"r8": (5500, 2200, 8), "kirnews": (3700, 900, 14), "kinnews": (17000, 4300, 14)}
    results = {}
    for name, floor in targets.items():
        split = dataset_split(name)
        if split is None:
            skip_missing(status, f"4 full-split accuracy ({name} >= {floor})", name)
        train, test = split
        n_train, n_test, n_classes = table1[name]
        assert abs(len(train) - n_train) <= 0.01 * n_train, f"{name}: train size {len(train)}"
        assert abs(len(test) - n_test) <= 0.01 * n_test, f"{name}: test size {len(test)}"
        assert len(train.classes) == n_classes
        report, _ = evaluate(Pipeline(train, PipelineConfig(variant="lftc", **R8_CONFIG)), test)
        results[name] = report.accuracy
        assert report.accuracy >= floor, f"{name}: accuracy {report.accuracy:.3f} < {floor}"
    status(f"[ACCEPTANCE] 4 full-split accuracy: PASS {results}")


def test_criterion_5_fewshot_reproduction(status):
    split = dataset_split("agnews")
    if split is None:
        skip_missing(status, "5 few-shot reproduction (agnews 5-shot in [0.436, 0.624])", "agnews")
    train, test = split
    report = evaluate_fewshot(
        train, test, PipelineConfig(variant="lftc", threads=8), shots=5, seed=0, trials=10
    )
    assert 0.436 <= report.accuracy <= 0.624, f"agnews 5-shot mean {report.accuracy:.3f}"
    line = f"[ACCEPTANCE] 5 few-shot reproduction: PASS agnews={report.accuracy:.3f}"
    sogou = dataset_split("sogou")
    if sogou is not None:
        rep2 = evaluate_fewshot(
            sogou[0], sogou[1], PipelineConfig(variant="lftc", threads=8),
            shots=5, seed=0, trials=10,
        )
        assert 0.485 <= rep2.accuracy <= 0.717
        line += f" sogou={rep2.accuracy:.3f}"
    else:
        line += " (sogou omitted: dataset unavailable, allowed by the criterion)"
    status(line)


# --- criterion 6: relative speed -------------------------------------------------

def test_criterion_6_speed_synthetic(status, bundled_train, bundled_test):
    t0 = time.perf_counter()
    lftc = Pipeline(bundled_train, PipelineConfig(variant="lftc", threads=1, dict_mode="raw"))
    base = Pipeline(bundled_train, PipelineConfig(variant="baseline-ncd", threads=1))

    # untimed warmup: the first compression-heavy run per process is slower
    from lftc.corpus import Corpus

    head = Corpus(name="warmup", samples=bundled_test.samples[:10])
    evaluate(lftc, head)
    evaluate(base, head)

    rep_lftc, preds_lftc = evaluate(lftc, bundled_test)
    rep_base, preds_base = evaluate(base, bundled_test)

    # instrumented NCD-evaluation counts are exact
    by_class = bundled_train.by_class
    for p in preds_lftc:
        gold = len(by_class[p.candidate_pair.first]) + len(by_class[p.candidate_pair.second])
        assert p.ncd_calls == gold
    assert all(p.ncd_calls == len(bundled_train) for p in preds_base)

    ratio = rep_base.timings["total_seconds"] / rep_lftc.timings["total_seconds"]
    assert ratio > 1.0, f"baseline/lftc ratio {ratio:.2f} on the bundled corpus"
    elapsed = time.perf_counter() - t0
    status(f"[ACCEPTANCE] 6 relative speed (synthetic): PASS ratio={ratio:.2f} ({elapsed:.0f}s)")


def test_criterion_6_speed_r8(status):
    split = dataset_split("r8")
    if split is None:
        skip_missing(status, "6 relative speed (r8 ratio >= 3.0)", "r8")
    train, test = split
    rep_lftc, _ = evaluate(Pipeline(train, PipelineConfig(variant="lftc", **R8_CONFIG)), test)
    base = Pipeline(train, PipelineConfig(variant="baseline-ncd", threads=8))
    rep_base, _ = evaluate(base, test)
    ratio = rep_base.timings["total_seconds"] / rep_lftc.timings["total_seconds"]
    assert ratio >= 3.0, f"r8 baseline/lftc ratio {ratio:.2f}"
    status(f"[ACCEPTANCE] 6 relative speed (r8): PASS ratio={ratio:.2f}")


# --- criterion 7: determinism -----------------------------------------------------

def test_criterion_7_determinism(status, bundled_train, bundled_test):
    t0 = time.perf_counter()
    observed = []
    for threads in (1, 4, 8):
        for _repeat in range(2):
            pipeline = Pipeline(bundled_train, PipelineConfig(variant="lftc", threads=threads))
            report, preds = evaluate(pipeline, bundled_test)
            observed.append(
                (
                    report.accuracy,
                    tuple(
                        (p.sample_index, p.predicted, p.truth,
                         p.candidate_pair.first, p.candidate_pair.second,
                         tuple((s.class_id, s.score) for s in p.candidate_pair.scores))
                        for p in preds
                    ),
                )
            )
    assert all(run == observed[0] for run in observed[1:])
    elapsed = time.perf_counter() - t0
    status(
        f"[ACCEPTANCE] 7 determinism: PASS (6 runs, worker counts 1/4/8, "
        f"accuracy {observed[0][0]:.3f}, {elapsed:.0f}s)"
    )
