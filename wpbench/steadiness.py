"""Run the benchmark on several seeds and report each metric's spread.

    python3 wpbench/steadiness.py --runs 10 [--workload NAME ...] [--first-seed N]

Runs are sequential, one process at a time, with the command and run
length from BENCHMARK.json.  The spread of a metric is the distance
between the first and third quartile of its values, as
``statistics.quantiles(values, n=4)`` gives them, as a share of their
median.  A summary goes to ``.wpbench-out/steadiness-<workload>.json``.
"""

from __future__ import annotations

import argparse
import json
import statistics
import subprocess
import sys
from pathlib import Path

ROOT = Path(__file__).resolve().parent.parent
OUT = ROOT / ".wpbench-out"


def spread(values: list[float]) -> tuple[float, float, float, float]:
    q1, median, q3 = statistics.quantiles(values, n=4)
    return median, q1, q3, (q3 - q1) / median if median else 0.0


def main() -> int:
    spec = json.loads((ROOT / "BENCHMARK.json").read_text())
    ap = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    ap.add_argument("--runs", type=int, default=10)
    ap.add_argument("--first-seed", type=int, default=1)
    ap.add_argument("--workload", action="append", choices=[w["name"] for w in spec["workloads"]])
    args = ap.parse_args()
    bounds = {m["name"]: m["bound"] for m in spec["end_to_end"]}
    status = 0
    OUT.mkdir(exist_ok=True)
    for workload in args.workload or [w["name"] for w in spec["workloads"]]:
        values: dict[str, list[float]] = {name: [] for name in bounds}
        for seed in range(args.first_seed, args.first_seed + args.runs):
            cmd = [*spec["command"], "--workload", workload, "--seed", str(seed),
                   "--seconds", str(spec["run_seconds"]), "--trace", "0"]
            cmd[0] = sys.executable if cmd[0] == "python3" else cmd[0]
            proc = subprocess.run(cmd, cwd=ROOT, capture_output=True, text=True, timeout=180)
            result = json.loads(proc.stdout.strip().splitlines()[-1])
            if not result["correct"]:
                print(f"{workload} seed {seed}: {result['failed']} failed ops", file=sys.stderr)
                status = 1
            for name in bounds:
                values[name].append(result["metrics"][name]["value"])
        summary = {}
        for name, vals in values.items():
            median, q1, q3, s = spread(vals)
            summary[name] = {"values": vals, "median": median, "q1": q1, "q3": q3,
                             "spread": s, "bound": bounds[name]}
            flag = "" if name == "setup_s" or s < bounds[name] / 3 else "  above a third of its bound"
            print(f"{workload:24s} {name:12s} median {median:10.4f}  spread {s:6.2%}"
                  f"  bound {bounds[name]:.0%}{flag}")
        (OUT / f"steadiness-{workload}.json").write_text(json.dumps(summary, indent=1))
    return status


if __name__ == "__main__":
    sys.exit(main())
