import json
import time

import pytest

from lftc import classifier
from lftc.cli import EXIT_OK, EXIT_VALIDATION, main
from lftc.corpus import Corpus, load_csv, save_csv
from lftc.report import EvalReport, confidence_interval, write_csv_summary

from conftest import DATA_DIR

TRAIN = str(DATA_DIR / "synthetic_train.csv")
TEST = str(DATA_DIR / "synthetic_test.csv")


def run(args):
    return main(args)


def test_eval_bundled_corpus(tmp_path, capsys):
    out = tmp_path / "report.json"
    code = run(["eval", "--train", TRAIN, "--test", TEST, "--variant", "lftc",
                "--threads", "2", "--out", str(out)])
    assert code == EXIT_OK
    report = json.loads(out.read_text())
    assert report["schema_version"] == 1
    assert report["accuracy"] >= 0.95
    assert report["variant"] == "lftc"
    printed = json.loads(capsys.readouterr().out)
    assert printed["accuracy"] == report["accuracy"]


def test_eval_ablation_direction(tmp_path):
    out_full = tmp_path / "full.json"
    out_cr = tmp_path / "cr.json"
    assert run(["eval", "--train", TRAIN, "--test", TEST, "--out", str(out_full)]) == EXIT_OK
    assert run(["eval", "--train", TRAIN, "--test", TEST, "--variant", "lftc-cr",
                "--out", str(out_cr)]) == EXIT_OK
    full = json.loads(out_full.read_text())
    argmin_only = json.loads(out_cr.read_text())
    assert argmin_only["accuracy"] <= full["accuracy"] + 0.03
    assert full["config"]["threads"] == 1  # --threads defaults to 1


def test_eval_invalid_k_exit_code(capsys):
    with pytest.raises(SystemExit) as exc:
        run(["eval", "--train", TRAIN, "--test", TEST, "--k", "0"])
    assert exc.value.code == EXIT_VALIDATION


def test_eval_missing_file_exit_code(tmp_path, capsys):
    code = run(["eval", "--train", str(tmp_path / "absent.csv"), "--test", TEST])
    assert code == EXIT_VALIDATION
    assert "error" in capsys.readouterr().err


@pytest.mark.parametrize("delimiter", ["", ";;", "\\t"])
def test_eval_bad_delimiter_exit_code(delimiter, capsys):
    code = run(["eval", "--train", TRAIN, "--test", TEST, "--delimiter", delimiter])
    assert code == EXIT_VALIDATION
    err = capsys.readouterr().err
    assert err.startswith("error: delimiter must be one character")
    assert err.count("\n") == 1


def test_eval_audit_jsonl(tmp_path, capsys):
    # An lftc line carries every train class's MCC score, in class-id order,
    # and its pair is the two lowest scores with ties broken by class id.
    classes = sorted(load_csv(TRAIN).classes)
    for variant in ("lftc", "baseline-ncd"):
        audit = tmp_path / f"{variant}.jsonl"
        assert run(["eval", "--train", TRAIN, "--test", TEST, "--variant", variant,
                    "--audit", str(audit)]) == EXIT_OK
        lines = [json.loads(l) for l in audit.read_text().splitlines()]
        assert len(lines) == 180
        for line in lines:
            assert {"sample_index", "truth", "predicted", "candidate_pair",
                    "neighbors", "tie", "error"} == set(line)
            assert len(line["neighbors"]) == 1  # k=1
            pair = line["candidate_pair"]
            if variant == "baseline-ncd":
                assert pair is None
                continue
            assert list(pair["scores"]) == classes
            ranked = sorted(pair["scores"], key=lambda c: (pair["scores"][c], c))
            assert [pair["first"], pair["second"]] == ranked[:2]


@pytest.mark.parametrize("args", [["eval", "--variant", v] for v in classifier.VARIANTS]
                         + [["compare"], ["fewshot"], ["sweep"]],
                         ids=lambda args: "-".join(args))
def test_single_class_train_exit_code(tmp_path, args, capsys):
    train = load_csv(TRAIN)
    only = tmp_path / "one_class.csv"
    save_csv(Corpus("one", tuple(s for s in train.samples if s.label == "alpha")), only)
    code = run(args + ["--train", str(only), "--test", TEST])
    assert code == EXIT_VALIDATION
    err = capsys.readouterr().err
    assert err.startswith("error: train split") and "needs at least 2" in err
    assert err.count("\n") == 1


@pytest.mark.parametrize("label, text", [("text", "text"), ("0", "0"), ("label", "0")])
def test_eval_rejects_one_column_as_label_and_text(label, text, capsys):
    # By name, by index (headerless) and by both: every text would
    # otherwise become its own class, with no error.
    code = run(["eval", "--train", TRAIN, "--test", TEST,
                "--label-column", label, "--text-column", text])
    assert code == EXIT_VALIDATION
    err = capsys.readouterr().err
    assert err.startswith(f"error: {TRAIN}: label column ") and err.count("\n") == 1
    assert "are the same column" in err


def test_eval_lftc_mcc_echoes_its_list_plan(tmp_path, capsys):
    out = tmp_path / "report.json"
    assert run(["eval", "--train", TRAIN, "--test", TEST, "--variant", "lftc-mcc",
                "--out", str(out)]) == EXIT_OK
    config = json.loads(out.read_text())["config"]
    assert (config["step_size"], config["max_compressors"]) == (1048576, 1)


@pytest.mark.parametrize("subcommand, flag", [
    ("eval", "--seed=1"),
    ("compare", "--seed=1"),
    ("sweep", "--seed=1"),
    ("fewshot", "--audit=a.jsonl"),
    ("eval", "--bundle=b.bundle"),
    ("compare", "--bundle=b.bundle"),
    ("sweep", "--bundle=b.bundle"),
    ("eval", "--backend=zstd"),
    ("sweep", "--step-sizes=4096"),
    ("sweep", "--levels=1,3"),
    ("sweep", "--caps=2"),
    ("compare", "--no-cap"),
    pytest.param("eval", "--variant=baseline-ncd --bundle=b.bundle",
                 id="eval-baseline-ncd-bundle"),
])
def test_unused_flags_rejected(subcommand, flag, capsys, tmp_path, monkeypatch):
    # argparse rejects an unknown flag; a flag that only a value of another
    # makes useless is rejected with one error line.
    monkeypatch.chdir(tmp_path)
    try:
        code = run([subcommand, "--train", TRAIN, "--test", TEST, *flag.split()])
    except SystemExit as exc:
        code = exc.code
    assert code == EXIT_VALIDATION
    err = capsys.readouterr().err
    assert "error: " in err.splitlines()[-1]
    if not err.startswith("usage: "):
        assert err.count("\n") == 1
    assert not list(tmp_path.iterdir())


@pytest.mark.parametrize("subcommand, cap", [
    ("eval", "8"), ("eval", "16"), ("sweep", "2,4"), ("fewshot", "16"),
])
def test_no_cap_conflicts_with_max_compressors(subcommand, cap, capsys):
    # There is no --no-cap flag: a cap is only ever set with --max-compressors,
    # and argparse refuses the old flag beside it as unknown.
    with pytest.raises(SystemExit) as exc:
        run([subcommand, "--train", TRAIN, "--test", TEST, "--max-compressors", cap, "--no-cap"])
    assert exc.value.code == EXIT_VALIDATION
    assert "unrecognized arguments: --no-cap" in capsys.readouterr().err


def test_fewshot_reproducible(tmp_path, capsys):
    outs = []
    for name in ("a.json", "b.json"):
        out = tmp_path / name
        code = run(["fewshot", "--train", TRAIN, "--test", TEST, "--shots", "3",
                    "--trials", "3", "--seed", "17", "--out", str(out)])
        assert code == EXIT_OK
        outs.append(json.loads(out.read_text()))
    assert outs[0]["trials"] == outs[1]["trials"]
    assert outs[0]["accuracy"] == outs[1]["accuracy"]
    assert outs[0]["ci95"] == outs[1]["ci95"]


def test_fewshot_single_trial_no_ci(tmp_path, capsys):
    out = tmp_path / "one.json"
    assert run(["fewshot", "--train", TRAIN, "--test", TEST, "--shots", "3",
                "--trials", "1", "--out", str(out)]) == EXIT_OK
    assert json.loads(out.read_text())["ci95"] is None


def test_fewshot_equal_trials_zero_halfwidth(tmp_path, capsys):
    # the bundled corpus is fully separable even at 5 shots, so all trials
    # land at accuracy 1.0 and the interval collapses
    out = tmp_path / "flat.json"
    assert run(["fewshot", "--train", TRAIN, "--test", TEST, "--shots", "5",
                "--trials", "3", "--out", str(out)]) == EXIT_OK
    report = json.loads(out.read_text())
    if len(set(report["trials"])) == 1:
        assert report["ci95"][1] == 0.0


def test_fewshot_infeasible_shots(capsys):
    code = run(["fewshot", "--train", TRAIN, "--test", TEST, "--shots", "100"])
    assert code == EXIT_VALIDATION
    assert "fewer than shots" in capsys.readouterr().err


def test_compare_bundled(tmp_path, capsys):
    out = tmp_path / "cmp.json"
    code = run(["compare", "--train", TRAIN, "--test", TEST, "--dict-mode", "raw",
                "--out", str(out)])
    assert code == EXIT_OK
    doc = json.loads(out.read_text())
    assert doc["speed_ratio_baseline_over_lftc"] > 0
    assert set(doc["reports"]) == {"lftc", "baseline-ncd"}
    lftc_cfg = doc["reports"]["lftc"]["config"]
    base_cfg = doc["reports"]["baseline-ncd"]["config"]
    assert lftc_cfg["train_sha256"] == base_cfg["train_sha256"] == doc["split"]["train_sha256"]
    assert lftc_cfg["test_sha256"] == base_cfg["test_sha256"] == doc["split"]["test_sha256"]
    assert lftc_cfg["threads"] == base_cfg["threads"]


def test_fit_is_outside_total_seconds(tmp_path, monkeypatch):
    # total_seconds times the predictions only; compare fits each variant
    # once, for both its warm-up and its timed run.
    delay = 0.5
    real_init = classifier.Pipeline.__init__
    built = []

    def slow_init(self, train, config):
        time.sleep(delay)
        real_init(self, train, config)
        built.append(config.variant)

    monkeypatch.setattr(classifier.Pipeline, "__init__", slow_init)
    test = load_csv(TEST)
    small_test = tmp_path / "test.csv"
    save_csv(Corpus("small", test.samples[::12]), small_test)
    out = tmp_path / "cmp.json"
    assert run(["compare", "--train", TRAIN, "--test", str(small_test),
                "--out", str(out)]) == EXIT_OK
    assert built == ["lftc", "baseline-ncd"]
    for rep in json.loads(out.read_text())["reports"].values():
        assert rep["timings"]["total_seconds"] < delay


def test_sweep_grid(tmp_path, capsys):
    out = tmp_path / "sweep.json"
    code = run(["sweep", "--train", TRAIN, "--test", TEST,
                "--step-size", "8192,65536", "--level", "1,3", "--out", str(out)])
    assert code == EXIT_OK
    reports = json.loads(out.read_text())
    assert len(reports) == 4
    configs = {(r["config"]["step_size"], r["config"]["mcc_backend"]["level"]) for r in reports}
    assert configs == {(8192, 1), (8192, 3), (65536, 1), (65536, 3)}
    csv_text = (tmp_path / "sweep.csv").read_text()
    assert csv_text.count("\n") == 5  # header + 4 rows


@pytest.mark.parametrize("variant", ["lftc", "lftc-mcc"])
def test_sweep_reports_equal_eval_at_each_point(variant, tmp_path, capsys):
    # Every grid point is a fresh fit: its report, without timings, is
    # lftc eval's at that point. Points come step-major, then by level;
    # lftc-mcc's whole-class plan ignores the step size, and the echo says so.
    out = tmp_path / "sweep.json"
    assert run(["sweep", "--train", TRAIN, "--test", TEST, "--variant", variant,
                "--step-size", "8192,65536", "--level", "1,3", "--out", str(out)]) == EXIT_OK
    reports = json.loads(out.read_text())
    whole_class = classifier.PipelineConfig(variant="lftc-mcc").plan.step_size
    steps = (8192, 65536) if variant == "lftc" else (whole_class,) * 2
    assert [(r["config"]["step_size"], r["config"]["mcc_backend"]["level"])
            for r in reports] == [(step, level) for step in steps for level in (1, 3)]
    points = [(step, level) for step in (8192, 65536) for level in (1, 3)]
    for report, (step, level) in zip(reports, points, strict=True):
        single = tmp_path / "eval.json"
        assert run(["eval", "--train", TRAIN, "--test", TEST, "--variant", variant,
                    "--step-size", str(step), "--level", str(level),
                    "--out", str(single)]) == EXIT_OK
        want = json.loads(single.read_text())
        del report["timings"], want["timings"]
        assert report == want


def test_sweep_out_that_the_csv_summary_would_overwrite(tmp_path, capsys):
    out = tmp_path / "sweep.csv"
    code = run(["sweep", "--train", TRAIN, "--test", TEST, "--out", str(out)])
    assert code == EXIT_VALIDATION
    err = capsys.readouterr().err
    assert err.startswith(f"error: --out {out}") and err.count("\n") == 1
    assert not out.exists()


def test_sweep_empty_grid_rejected(capsys):
    with pytest.raises(SystemExit) as exc:
        run(["sweep", "--train", TRAIN, "--test", TEST, "--step-size", ","])
    assert exc.value.code == EXIT_VALIDATION


def test_unwritable_output_is_runtime_failure(tmp_path, capsys):
    from lftc.cli import EXIT_RUNTIME

    out = tmp_path / "no" / "such" / "dir" / "r.json"
    code = run(["eval", "--train", TRAIN, "--test", TEST, "--out", str(out)])
    assert code == EXIT_RUNTIME
    assert "runtime failure" in capsys.readouterr().err


def test_report_ci_rules():
    base = dict(
        dataset="d", variant="lftc", config={}, accuracy=0.5, per_class={},
        timings={"list_build_seconds": 0, "mcc_seconds": 0, "cr_seconds": 0,
                 "total_seconds": 0},
    )
    with pytest.raises(ValueError):
        EvalReport(**base, trials=[0.5, 0.5])  # trials without ci
    with pytest.raises(ValueError):
        EvalReport(**base, ci95=(0.5, 0.1))  # ci without trials


def test_confidence_interval_formula():
    import math
    import statistics

    values = [0.5, 0.6, 0.7, 0.8]
    mean, half = confidence_interval(values)
    assert mean == pytest.approx(0.65)
    assert half == pytest.approx(1.96 * statistics.stdev(values) / math.sqrt(4))


def test_csv_summary(tmp_path):
    report = EvalReport(
        dataset="d", variant="lftc", config={"step_size": 4096, "k": 1},
        accuracy=0.875, per_class={},
        timings={"list_build_seconds": 0.1, "mcc_seconds": 0.2,
                 "cr_seconds": 0.3, "total_seconds": 0.6},
    )
    path = tmp_path / "summary.csv"
    write_csv_summary(path, [report])
    body = path.read_text()
    assert "0.8750" in body and "lftc" in body
