"""Run every workload over several seeds and summarize each metric.

    python3 perfbench/suite.py --seeds 1-10 [--workloads bundled-3c,motif-16c]
                                [--seconds 20] [--trace 0] [--out results.json]

Each run is its own process (``run.py``), as peak memory is per process.
For each workload and metric the table gives the median over the runs and
the quartile spread: (Q3 - Q1) / median, with quartiles from
``statistics.quantiles(values, n=4)``. Exits 1 if any run fails or reports
``correct: false``.
"""

from __future__ import annotations

import argparse
import json
import statistics
import subprocess
import sys
from pathlib import Path
from time import perf_counter

HERE = Path(__file__).resolve().parent
ROOT = HERE.parent


def seeds(text: str) -> list[int]:
    lo, _, hi = text.partition("-")
    return list(range(int(lo), int(hi or lo) + 1))


def spread(values: list[float]) -> float:
    q1, _, q3 = statistics.quantiles(values, n=4)
    return (q3 - q1) / statistics.median(values)


def main(argv=None) -> int:
    spec = json.loads((ROOT / "BENCHMARK.json").read_text(encoding="utf-8"))
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument("--seeds", type=seeds, default=seeds("1-10"), help="e.g. 1-10")
    parser.add_argument("--workloads", default=",".join(w["name"] for w in spec["workloads"]))
    parser.add_argument("--seconds", type=int, default=spec["run_seconds"])
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    parser.add_argument("--out", type=Path, help="write every run and the summary here")
    args = parser.parse_args(argv)

    bounds = {m["name"]: m.get("bound") for m in spec["end_to_end"]}
    runs: dict[str, list[dict]] = {}
    ok = True
    for workload in args.workloads.split(","):
        for seed in args.seeds:
            cmd = [sys.executable, str(HERE / "run.py"), "--workload", workload, "--seed", str(seed),
                   "--seconds", str(args.seconds), "--trace", str(args.trace)]
            t0 = perf_counter()
            proc = subprocess.run(cmd, cwd=ROOT, capture_output=True, text=True, timeout=600)
            wall = perf_counter() - t0
            lines = proc.stdout.strip().splitlines()
            if proc.returncode != 0 or len(lines) < 2:
                print(f"{workload} seed {seed}: exit {proc.returncode}\n{proc.stderr[-2000:]}", file=sys.stderr)
                ok = False
                continue
            details = json.loads(lines[-2])["details"]
            result = json.loads(lines[-1])
            ok = ok and result["correct"]
            runs.setdefault(workload, []).append({"seed": seed, "result": result, "details": details})
            print(f"{workload} seed {seed}: correct={result['correct']} attempted={result['attempted']} "
                  f"failed={result['failed']} wall={wall:.1f}s", file=sys.stderr)

    summary = {}
    for workload, rs in runs.items():
        summary[workload] = {}
        print(f"\n{workload} ({len(rs)} runs)")
        print(f"  {'metric':44s} {'median':>12s} {'unit':>11s} {'spread':>7s} {'bound':>6s}")
        for name, first in rs[0]["result"]["metrics"].items():
            values = [r["result"]["metrics"][name]["value"] for r in rs]
            med = statistics.median(values)
            sp = spread(values) if len(values) > 1 and med else 0.0
            summary[workload][name] = {"median": med, "unit": first["unit"], "spread": sp}
            bound = bounds.get(name)
            flag = "" if bound is None or sp <= bound / 3 else "  > bound/3"
            print(f"  {name:44s} {med:12.4f} {first['unit']:>11s} {sp:7.3f} "
                  f"{'' if bound is None else bound:>6}{flag}")
    if args.out:
        doc = {
            "machine": next(iter(runs.values()))[0]["details"]["machine"] if runs else None,
            "seconds": args.seconds,
            "trace": args.trace,
            "summary": summary,
            "runs": runs,
        }
        args.out.write_text(json.dumps(doc, indent=1) + "\n", encoding="utf-8")
    return 0 if ok else 1


if __name__ == "__main__":
    sys.exit(main())
