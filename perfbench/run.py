"""lftc benchmark entry point.

    python3 perfbench/run.py --workload bundled-3c --seed 1 --seconds 30 --trace 0

Runs one workload (see workloads.py) from the root of a source checkout,
using the package under ``src/``. Prints a details line (machine, per-chunk
rates, check failures) and, as the last line, one JSON object with
``correct``, ``attempted``, ``failed`` and ``metrics``: the end-to-end
metrics of BENCHMARK.json with ``--trace 0``, its per-layer metrics with
``--trace 1``. Exits 1 when an output check fails and 2 when the checkout
cannot be benchmarked.
"""

from __future__ import annotations

import argparse
import json
import math
import sys
from pathlib import Path

ROOT = Path(__file__).resolve().parent.parent


def main(argv=None) -> int:
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument("--workload", required=True)
    parser.add_argument("--seed", type=int, required=True)
    parser.add_argument("--seconds", type=float, required=True)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    args = parser.parse_args(argv)

    src = ROOT / "src"
    if not (src / "lftc" / "__init__.py").is_file():
        print(f"perfbench: no lftc package under {src}", file=sys.stderr)
        return 2
    sys.path.insert(0, str(src))
    import bench
    from workloads import WORKLOADS

    if args.workload not in WORKLOADS:
        print(f"perfbench: unknown workload {args.workload!r}; have {sorted(WORKLOADS)}", file=sys.stderr)
        return 2
    with open(ROOT / "BENCHMARK.json", encoding="utf-8") as fh:
        declared = json.load(fh)["per_layer" if args.trace else "end_to_end"]

    result, details = bench.run(args.workload, args.seed, args.seconds, bool(args.trace))

    values = result["metrics"]
    if set(values) != {m["name"] for m in declared}:
        print(f"perfbench: measured {sorted(values)}, BENCHMARK.json declares "
              f"{sorted(m['name'] for m in declared)}", file=sys.stderr)
        return 2
    bad = [name for name, v in values.items() if not math.isfinite(v)]
    if bad:
        print(f"perfbench: non-finite metrics {bad}", file=sys.stderr)
        return 2
    result["metrics"] = {m["name"]: {"value": values[m["name"]], "unit": m["unit"]} for m in declared}
    print(json.dumps({"details": details}))
    print(json.dumps(result))
    return 0 if result["correct"] else 1


if __name__ == "__main__":
    sys.exit(main())
