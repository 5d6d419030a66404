"""Command-line front end.

Subcommands:

* ``eval``    -- one evaluation run on a train/test split.
* ``fewshot`` -- repeated seeded n-shot draws with a 95% confidence interval.
* ``compare`` -- lftc vs baseline-ncd on identical splits; reports the ratio of
                their prediction times (each fit is outside it).
* ``sweep``   -- grid over step-size / level / compressor cap; CSV summary.

Exit codes: 0 success, 2 validation error, 3 runtime failure.
"""

from __future__ import annotations

import argparse
import itertools
import json
import sys
from pathlib import Path

from . import classifier
from .compression import DICT_MODES, CompressionError
from .corpus import Corpus, DatasetError, load_csv
from .classifier import PipelineConfig, VARIANTS
from .mcc import SegmentPlan
from .report import EvalReport, write_csv_summary

EXIT_OK = 0
EXIT_VALIDATION = 2
EXIT_RUNTIME = 3


def _column(value: str) -> str | int:
    return int(value) if value.lstrip("-").isdigit() else value


def _list_of(item):
    """Comma-list type of the sweep's grid axes."""

    def parse(value: str) -> list:
        items = [item(v) for v in value.split(",") if v.strip()]
        if not items:
            raise argparse.ArgumentTypeError("empty list")
        return items

    return parse


def _positive(value: str) -> int:
    n = int(value)
    if n < 1:
        raise argparse.ArgumentTypeError(f"must be >= 1, got {n}")
    return n


def build_parser() -> argparse.ArgumentParser:
    parser = argparse.ArgumentParser(
        prog="lftc",
        description="Compression-list text classification toolkit",
    )
    sub = parser.add_subparsers(dest="subcommand", required=True)

    def add_common(p, variants=True, grid=False):
        # sweep reads each grid axis as a comma list. The defaults are
        # strings, which argparse passes through the type.
        positive, level = (_list_of(_positive), _list_of(int)) if grid else (_positive, int)
        axis = " (a comma list)" if grid else ""
        p.add_argument("--train", required=True, help="training CSV")
        p.add_argument("--test", required=True, help="test CSV")
        if variants:
            p.add_argument("--variant", choices=VARIANTS, default="lftc",
                           help="default lftc; lftc-mcc trains one dictionary per "
                                "class, ignoring --step-size and --max-compressors")
        p.add_argument("--step-size", type=positive, default="65536",
                       help=f"bytes per dictionary segment{axis} (default 65536)")
        p.add_argument("--max-compressors", type=positive, default="16",
                       help=f"cap on compressors per class{axis} (default 16); "
                            "one at or above every class's segment count keeps them all")
        p.add_argument("--level", type=level, default="3",
                       help=f"zstd level of the compressor lists{axis} (default 3)")
        p.add_argument("--k", type=_positive, default=1, help="KNN neighbour count")
        p.add_argument("--threads", type=_positive, default=1,
                       help="prediction worker count (default 1), running at most "
                            "max(2, CPUs) queries at once; each query shares its "
                            "compressions with the lane threads no worker holds, and "
                            "the fit uses every CPU")
        p.add_argument("--dict-mode", choices=DICT_MODES, default="trained")
        p.add_argument("--label-column", type=_column, default="label")
        p.add_argument("--text-column", type=_column, default="text")
        p.add_argument("--delimiter", default=",")
        p.add_argument("--out", type=Path, default=None, help="write the JSON report here")

    p_eval = sub.add_parser("eval", help="single evaluation run")
    add_common(p_eval)
    p_eval.add_argument("--audit", type=Path, default=None,
                        help="write one JSON audit line per prediction")

    p_few = sub.add_parser("fewshot", help="repeated few-shot trials")
    add_common(p_few)
    p_few.add_argument("--shots", type=_positive, default=5)
    p_few.add_argument("--trials", type=_positive, default=10)
    p_few.add_argument("--seed", type=int, default=0)

    p_cmp = sub.add_parser("compare", help="lftc vs baseline-ncd timing on one split")
    add_common(p_cmp, variants=False)

    p_sweep = sub.add_parser("sweep", help="grid over step-size/level/cap")
    add_common(p_sweep, grid=True)
    return parser


def _load_split(args):
    train = load_csv(args.train, args.label_column, args.text_column, args.delimiter)
    test = load_csv(args.test, args.label_column, args.text_column, args.delimiter)
    return train, test


def _config(args, variant=None) -> PipelineConfig:
    return PipelineConfig(
        variant=variant or getattr(args, "variant", "lftc"),
        plan=SegmentPlan(step_size=args.step_size, max_compressors_per_class=args.max_compressors),
        k=args.k,
        level=args.level,
        threads=args.threads,
        dict_mode=args.dict_mode,
    )


def _emit(doc: dict, out: Path | None) -> None:
    text = json.dumps(doc, indent=2, sort_keys=True)
    if out is not None:
        out.write_text(text + "\n", encoding="utf-8")
    print(text)


def _write_audit(path: Path, predictions) -> None:
    with open(path, "w", encoding="utf-8") as fh:
        for p in predictions:
            fh.write(json.dumps({
                "sample_index": p.sample_index,
                "truth": p.truth,
                "predicted": p.predicted,
                "candidate_pair": (
                    {
                        "first": p.candidate_pair.first,
                        "second": p.candidate_pair.second,
                        "scores": {s.class_id: s.score for s in p.candidate_pair.scores},
                    }
                    if p.candidate_pair else None
                ),
                "neighbors": [
                    {"distance": n.distance, "label": n.label, "index": n.index}
                    for n in p.neighbors
                ],
                "tie": p.tie,
                "error": p.error,
            }) + "\n")


def run_eval(args) -> int:
    train, test = _load_split(args)
    pipeline = classifier.Pipeline(train, _config(args))
    report, preds = classifier.evaluate(pipeline, test)
    if args.audit:
        _write_audit(args.audit, preds)
    _emit(report.to_dict(), args.out)
    return EXIT_OK


def run_fewshot(args) -> int:
    train, test = _load_split(args)
    config = _config(args)
    report = classifier.evaluate_fewshot(
        train, test, config, shots=args.shots, seed=args.seed, trials=args.trials
    )
    _emit(report.to_dict(), args.out)
    return EXIT_OK


def run_compare(args) -> int:
    train, test = _load_split(args)
    reports: dict[str, EvalReport] = {}
    head = Corpus(name="warmup", samples=test.samples[: min(10, len(test))])
    for variant in ("lftc", "baseline-ncd"):
        pipeline = classifier.Pipeline(train, _config(args, variant=variant))
        # untimed warmup pass: the first compression-heavy run in a fresh
        # process is measurably slower (allocator growth, cpu ramp-up)
        classifier.evaluate(pipeline, head)
        reports[variant], _ = classifier.evaluate(pipeline, test)
    ratio = reports["baseline-ncd"].timings["total_seconds"] / max(
        reports["lftc"].timings["total_seconds"], 1e-9
    )
    doc = {
        "subcommand": "compare",
        "split": {"train_sha256": train.digest(), "test_sha256": test.digest()},
        "speed_ratio_baseline_over_lftc": round(ratio, 3),
        "reports": {v: r.to_dict() for v, r in reports.items()},
    }
    _emit(doc, args.out)
    return EXIT_OK


def run_sweep(args) -> int:
    out = args.out or Path("sweep.json")
    csv_path = out.with_suffix(".csv")
    if csv_path == out:
        raise ValueError(f"--out {out}: the CSV summary would overwrite the JSON reports")
    train, test = _load_split(args)
    reports = []
    for step, level, cap in itertools.product(args.step_size, args.level, args.max_compressors):
        point = argparse.Namespace(
            **vars(args) | {"step_size": step, "level": level, "max_compressors": cap}
        )
        report, _ = classifier.evaluate(classifier.Pipeline(train, _config(point)), test)
        reports.append(report)
    out.write_text(
        json.dumps([r.to_dict() for r in reports], indent=2, sort_keys=True) + "\n",
        encoding="utf-8",
    )
    write_csv_summary(csv_path, reports)
    print(f"wrote {len(reports)} reports to {out} and {csv_path}")
    return EXIT_OK


_RUNNERS = {
    "eval": run_eval,
    "fewshot": run_fewshot,
    "compare": run_compare,
    "sweep": run_sweep,
}


def main(argv: list[str] | None = None) -> int:
    try:
        args = build_parser().parse_args(argv)
        return _RUNNERS[args.subcommand](args)
    except (DatasetError, ValueError) as exc:
        print(f"error: {exc}", file=sys.stderr)
        return EXIT_VALIDATION
    except (CompressionError, OSError, RuntimeError) as exc:
        print(f"runtime failure: {exc}", file=sys.stderr)
        return EXIT_RUNTIME


if __name__ == "__main__":
    sys.exit(main())
