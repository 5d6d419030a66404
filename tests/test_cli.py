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
    report = EvalReport.loads(out.read_text())
    assert report.accuracy >= 0.95
    assert report.variant == "lftc"
    printed = json.loads(capsys.readouterr().out)
    assert printed["accuracy"] == report.accuracy


def test_eval_ablation_direction(tmp_path):
    out_full = tmp_path / "full.json"
    out_cr = tmp_path / "cr.json"
    assert run(["eval", "--train", TRAIN, "--test", TEST, "--out", str(out_full)]) == EXIT_OK
    assert run(["eval", "--train", TRAIN, "--test", TEST, "--variant", "lftc-cr",
                "--out", str(out_cr)]) == EXIT_OK
    full = EvalReport.loads(out_full.read_text())
    argmin_only = EvalReport.loads(out_cr.read_text())
    assert argmin_only.accuracy <= full.accuracy + 0.03


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


def test_eval_bundle_reuse(tmp_path, capsys):
    bundle = tmp_path / "lists.bundle"
    out1, out2 = tmp_path / "r1.json", tmp_path / "r2.json"
    assert run(["eval", "--train", TRAIN, "--test", TEST, "--bundle", str(bundle),
                "--out", str(out1)]) == EXIT_OK
    assert bundle.exists()
    assert run(["eval", "--train", TRAIN, "--test", TEST, "--bundle", str(bundle),
                "--out", str(out2)]) == EXIT_OK
    a, b = EvalReport.loads(out1.read_text()), EvalReport.loads(out2.read_text())
    assert a.accuracy == b.accuracy
    assert b.timings["list_build_seconds"] <= a.timings["list_build_seconds"]


def test_eval_bundle_config_mismatch(tmp_path, capsys):
    bundle = tmp_path / "lists.bundle"
    base = ["eval", "--train", TRAIN, "--test", TEST, "--bundle", str(bundle)]
    assert run(base + ["--step-size", "65536"]) == EXIT_OK
    capsys.readouterr()
    # Same classes, one training text fewer: another split.
    train = load_csv(TRAIN)
    other_train = tmp_path / "other_train.csv"
    save_csv(Corpus("other", train.samples[1:]), other_train)
    for other in (["--step-size", "4096"], ["--level", "5"], ["--variant", "lftc-mcc"],
                  ["--train", str(other_train)], ["--dict-mode", "raw"]):
        assert run(base + other) == EXIT_VALIDATION
        err = capsys.readouterr().err
        assert err.startswith("error: ") and str(bundle) in err
        assert err.count("\n") == 1
    # Lists of unequal length give class scores that cannot be compared.
    doc = json.loads(bundle.read_text())
    assert [len(c["segments"]) for c in doc["classes"]] == [2, 2, 2]
    ragged = json.loads(json.dumps(doc))
    del ragged["classes"][0]["segments"][1]
    bundle.write_text(json.dumps(ragged))
    assert run(base) == EXIT_VALIDATION
    err = capsys.readouterr().err
    assert err.startswith(f"error: {bundle}: ") and "unequal lengths" in err
    assert err.count("\n") == 1
    # A version 2 bundle trained its dictionaries with libzstd's default
    # table, and a version 1 bundle does not record its split: both must
    # be rebuilt.
    for version in (2, 1):
        doc["version"] = version
        if version == 1:
            del doc["train_sha256"], doc["dict_mode"]
        bundle.write_text(json.dumps(doc))
        assert run(base) == EXIT_VALIDATION
        err = capsys.readouterr().err
        assert err.startswith("error: ") and f"version {version}; delete it to rebuild" in err


def _drop_classes(doc):
    del doc["classes"]
    return json.dumps(doc)


def _unknown_plan_key(doc):
    doc["plan"]["segment_bytes"] = 1
    return json.dumps(doc)


def _class_twice(doc):
    # the last class's dictionaries, filed a second time under the first class
    doc["classes"].append({**doc["classes"][-1], "class": doc["classes"][0]["class"]})
    return json.dumps(doc)


def _unknown_mode(doc):
    doc["classes"][0]["segments"][0]["mode"] = "bogus"
    return json.dumps(doc)


@pytest.mark.parametrize("corrupt", [
    _drop_classes, _unknown_plan_key, lambda doc: json.dumps([doc]), lambda doc: "{not json",
    _class_twice, _unknown_mode,
], ids=["missing-classes", "unknown-plan-key", "top-level-list", "not-json",
        "class-twice", "unknown-mode"])
def test_eval_malformed_bundle_exit_code(tmp_path, capsys, corrupt):
    bundle = tmp_path / "lists.bundle"
    base = ["eval", "--train", TRAIN, "--test", TEST, "--bundle", str(bundle)]
    assert run(base) == EXIT_OK
    bundle.write_text(corrupt(json.loads(bundle.read_text())))
    capsys.readouterr()
    assert run(base) == EXIT_VALIDATION
    err = capsys.readouterr().err
    assert err.startswith("error: ") and str(bundle) in err
    assert err.count("\n") == 1


def test_eval_lftc_mcc_echoes_its_list_plan(tmp_path, capsys):
    out = tmp_path / "report.json"
    assert run(["eval", "--train", TRAIN, "--test", TEST, "--variant", "lftc-mcc",
                "--out", str(out)]) == EXIT_OK
    config = EvalReport.loads(out.read_text()).config
    assert (config["step_size"], config["max_compressors"]) == (1048576, 1)


@pytest.mark.parametrize("subcommand, flag", [
    ("eval", "--seed=1"),
    ("compare", "--seed=1"),
    ("sweep", "--seed=1"),
    ("fewshot", "--audit=a.jsonl"),
    ("compare", "--bundle=b.bundle"),
    ("sweep", "--bundle=b.bundle"),
    ("eval", "--backend=zstd"),
    ("sweep", "--step-sizes=4096"),
    ("sweep", "--levels=1,3"),
    ("sweep", "--caps=2"),
])
def test_unused_flags_rejected(subcommand, flag, capsys):
    with pytest.raises(SystemExit) as exc:
        run([subcommand, "--train", TRAIN, "--test", TEST, flag])
    assert exc.value.code == EXIT_VALIDATION


def test_fewshot_reproducible(tmp_path, capsys):
    outs = []
    for name in ("a.json", "b.json"):
        out = tmp_path / name
        code = run(["fewshot", "--train", TRAIN, "--test", TEST, "--shots", "3",
                    "--trials", "3", "--seed", "17", "--out", str(out)])
        assert code == EXIT_OK
        outs.append(EvalReport.loads(out.read_text()))
    assert outs[0].trials == outs[1].trials
    assert outs[0].accuracy == outs[1].accuracy
    assert outs[0].ci95 == outs[1].ci95


def test_fewshot_single_trial_no_ci(tmp_path, capsys):
    out = tmp_path / "one.json"
    assert run(["fewshot", "--train", TRAIN, "--test", TEST, "--shots", "3",
                "--trials", "1", "--out", str(out)]) == EXIT_OK
    assert EvalReport.loads(out.read_text()).ci95 is None


def test_fewshot_equal_trials_zero_halfwidth(tmp_path, capsys):
    # the bundled corpus is fully separable even at 5 shots, so all trials
    # land at accuracy 1.0 and the interval collapses
    out = tmp_path / "flat.json"
    assert run(["fewshot", "--train", TRAIN, "--test", TEST, "--shots", "5",
                "--trials", "3", "--out", str(out)]) == EXIT_OK
    report = EvalReport.loads(out.read_text())
    if len(set(report.trials)) == 1:
        assert report.ci95[1] == 0.0


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

    def slow_init(self, train, config, prebuilt_lists=None):
        time.sleep(delay)
        real_init(self, train, config, prebuilt_lists)
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


def test_sweep_empty_grid_rejected(capsys):
    with pytest.raises(SystemExit) as exc:
        run(["sweep", "--train", TRAIN, "--test", TEST, "--step-size", ","])
    assert exc.value.code == EXIT_VALIDATION


@pytest.mark.parametrize("subcommand, cap", [
    ("eval", "8"), ("eval", "16"), ("sweep", "2,4"), ("fewshot", "16"),
])
def test_no_cap_conflicts_with_max_compressors(subcommand, cap, capsys):
    with pytest.raises(SystemExit) as exc:
        run([subcommand, "--train", TRAIN, "--test", TEST, "--max-compressors", cap, "--no-cap"])
    assert exc.value.code == EXIT_VALIDATION
    assert "not allowed with argument" in capsys.readouterr().err


def test_threads_env_var_default(monkeypatch, capsys):
    from lftc.cli import build_parser

    monkeypatch.setenv("LFTC_THREADS", "6")
    args = build_parser().parse_args(["eval", "--train", TRAIN, "--test", TEST])
    assert args.threads == 6
    monkeypatch.delenv("LFTC_THREADS")
    args = build_parser().parse_args(["eval", "--train", TRAIN, "--test", TEST])
    assert args.threads == 1
    for bad in ("abc", "0"):
        monkeypatch.setenv("LFTC_THREADS", bad)
        assert run(["eval", "--train", TRAIN, "--test", TEST]) == EXIT_VALIDATION
        err = capsys.readouterr().err
        assert err.startswith("error: ") and "LFTC_THREADS" in err
        assert err.count("\n") == 1


def test_unwritable_output_is_runtime_failure(tmp_path, capsys):
    from lftc.cli import EXIT_RUNTIME

    out = tmp_path / "no" / "such" / "dir" / "r.json"
    code = run(["eval", "--train", TRAIN, "--test", TEST, "--out", str(out)])
    assert code == EXIT_RUNTIME
    assert "runtime failure" in capsys.readouterr().err


def test_report_round_trip():
    report = EvalReport(
        dataset="d", variant="lftc", config={"k": 1}, accuracy=0.5,
        per_class={"a": 1.0, "b": 0.0},
        timings={"list_build_seconds": 0.1, "mcc_seconds": 0.2,
                 "cr_seconds": 0.3, "total_seconds": 0.6},
        trials=[0.4, 0.6], ci95=confidence_interval([0.4, 0.6]),
    )
    again = EvalReport.loads(report.dumps())
    assert again.accuracy == report.accuracy
    assert again.trials == report.trials
    assert again.ci95 == report.ci95
    assert EvalReport.loads(again.dumps()) == again


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
