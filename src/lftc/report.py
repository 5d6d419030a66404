"""Evaluation reports: a versioned JSON document per run plus CSV summaries."""

from __future__ import annotations

import csv
import math
from dataclasses import dataclass

SCHEMA_VERSION = 1

TIMING_KEYS = ("list_build_seconds", "mcc_seconds", "cr_seconds", "total_seconds")


@dataclass
class EvalReport:
    dataset: str
    variant: str
    config: dict
    accuracy: float
    per_class: dict[str, float]
    timings: dict[str, float]
    trials: list[float] | None = None
    ci95: tuple[float, float] | None = None
    errors: int = 0

    def __post_init__(self):
        if not (0.0 <= self.accuracy <= 1.0):
            raise ValueError(f"accuracy out of range: {self.accuracy}")
        for key in TIMING_KEYS:
            if self.timings.get(key, 0.0) < 0:
                raise ValueError(f"negative timing {key}")
        has_ci = self.ci95 is not None
        wants_ci = self.trials is not None and len(self.trials) >= 2
        if has_ci != wants_ci:
            raise ValueError("ci95 must be present exactly when there are >= 2 trials")

    def to_dict(self) -> dict:
        return {
            "schema_version": SCHEMA_VERSION,
            "dataset": self.dataset,
            "variant": self.variant,
            "config": self.config,
            "accuracy": self.accuracy,
            "per_class": self.per_class,
            # millisecond resolution in the serialized form
            "timings": {k: round(v, 3) for k, v in self.timings.items()},
            "trials": self.trials,
            "ci95": list(self.ci95) if self.ci95 is not None else None,
            "errors": self.errors,
        }


def confidence_interval(values: list[float]) -> tuple[float, float]:
    """(mean, half-width) of the normal-approximation 95% interval, with the
    sample standard deviation."""
    if len(values) < 2:
        raise ValueError("confidence interval needs >= 2 values")
    import statistics  # here, not at import: it loads decimal and fractions

    mean = sum(values) / len(values)
    half = 1.96 * statistics.stdev(values) / math.sqrt(len(values))
    return (mean, half)


_CSV_FIELDS = [
    "dataset", "variant", "accuracy", "ci95_halfwidth", "trials",
    "step_size", "max_compressors", "mcc_level", "k", "threads",
    "list_build_seconds", "mcc_seconds", "cr_seconds", "total_seconds", "errors",
]


def summary_row(report: EvalReport) -> dict:
    return {
        "dataset": report.dataset,
        "variant": report.variant,
        "accuracy": f"{report.accuracy:.4f}",
        "ci95_halfwidth": f"{report.ci95[1]:.4f}" if report.ci95 else "",
        "trials": len(report.trials) if report.trials else "",
        "step_size": report.config.get("step_size", ""),
        "max_compressors": report.config.get("max_compressors", ""),
        "mcc_level": report.config.get("mcc_backend", {}).get("level", ""),
        "k": report.config.get("k", ""),
        "threads": report.config.get("threads", ""),
        **{k: f"{report.timings.get(k, 0.0):.3f}" for k in TIMING_KEYS},
        "errors": report.errors,
    }


def write_csv_summary(path, reports: list[EvalReport]) -> None:
    with open(path, "w", newline="", encoding="utf-8") as fh:
        writer = csv.DictWriter(fh, fieldnames=_CSV_FIELDS)
        writer.writeheader()
        for rep in reports:
            writer.writerow(summary_row(rep))
