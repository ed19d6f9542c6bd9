"""Run the benchmark in alternating base/change pairs and record the result.

    python3 tools/bench_pairs.py --base REV --out BENCH_<n>.json
        [--unseen WORKLOAD=SEED]

The base side is the git revision ``--base``, exported with
``git archive`` into a temporary directory; the change side is this
checkout as it stands.  Both run the command and run length of this
checkout's ``BENCHMARK.json`` on every workload, one process at a time,
in ``PAIRS`` pairs; pair i runs the base first when i is even and the
change first when it is odd.  Pair i uses seed ``SEEDS[i % len(SEEDS)]``,
so both runs of a pair see the same inputs.  ``--unseen`` adds as many
pairs on one more seed, kept apart from the others so a claimed gain can
be checked on inputs it was not tuned on.

For every end-to-end metric the record holds each side's median and
quartiles (``statistics.quantiles(values, n=4)``), how many pairs each
side won (ties count for neither), the gain of the median as a share of
the base's, whether a loss stays inside the metric's bound, and whether
a gain holds: the change wins at least nine pairs in ten, and its median
beats the base's by more than the distance between the base's quartiles.
A metric is unresolved when that distance is wider than its bound, as a
share of the base's median, and some base run is no worse than some
change run: the base's own spread then covers any loss the bound allows.
Every run's raw result is kept too, with the seeds, the interpreter and
the revisions.
"""

from __future__ import annotations

import argparse
import hashlib
import json
import platform
import statistics
import subprocess
import sys
import tempfile
import time
from pathlib import Path

ROOT = Path(__file__).resolve().parent.parent
# Ten pairs at least, so a gain can be held to nine wins in ten.
PAIRS = 10
SEEDS = (1, 2, 3, 4)


def git(*args: str) -> str:
    return subprocess.run(["git", *args], cwd=ROOT, check=True, capture_output=True, text=True).stdout


def export(rev: str, where: Path) -> Path:
    """The committed files of ``rev`` as the new directory ``where``."""
    where.mkdir()
    archive = subprocess.run(["git", "archive", rev], cwd=ROOT, check=True, capture_output=True).stdout
    subprocess.run(["tar", "-x", "-C", str(where)], input=archive, check=True)
    return where


def run_once(checkout: Path, spec: dict, workload: str, seed: int) -> dict:
    cmd = [*spec["command"], "--workload", workload, "--seed", str(seed),
           "--seconds", str(spec["run_seconds"]), "--trace", "0"]
    cmd[0] = sys.executable if cmd[0] == "python3" else cmd[0]
    proc = subprocess.run(cmd, cwd=checkout, capture_output=True, text=True, timeout=20 * spec["run_seconds"])
    if proc.returncode != 0:
        raise RuntimeError(f"{workload} seed {seed} in {checkout}: exit {proc.returncode}\n{proc.stderr}")
    result = json.loads(proc.stdout.strip().splitlines()[-1])
    return {"correct": result["correct"], "attempted": result["attempted"], "failed": result["failed"],
            "metrics": {name: m["value"] for name, m in result["metrics"].items()}}


def run_pairs(sides: dict, spec: dict, workload: str, seeds: tuple[int, ...]) -> list[dict]:
    runs = []
    for i in range(PAIRS):
        seed = seeds[i % len(seeds)]
        order = ("base", "change") if i % 2 == 0 else ("change", "base")
        pair = {"seed": seed, "first": order[0]}
        for side in order:
            pair[side] = run_once(sides[side], spec, workload, seed)
        runs.append(pair)
        print(f"{workload} pair {i + 1}/{PAIRS} seed {seed}: "
              + "  ".join(f"{side} {pair[side]['metrics']}" for side in ("base", "change")), flush=True)
    return runs


def summarise(runs: list[dict], metrics: list[dict]) -> dict:
    out = {}
    for metric in metrics:
        name, higher = metric["name"], metric["better"] == "higher"
        values = {side: [run[side]["metrics"][name] for run in runs] for side in ("base", "change")}
        stats = {}
        for side, vals in values.items():
            q1, median, q3 = statistics.quantiles(vals, n=4)
            stats[side] = {"median": median, "q1": q1, "q3": q3, "values": vals}
        wins = {"change": 0, "base": 0}
        for b, c in zip(values["base"], values["change"]):
            if b != c:
                wins["change" if (c > b) == higher else "base"] += 1
        base, change = stats["base"]["median"], stats["change"]["median"]
        gain = (change - base) if higher else (base - change)
        spread = stats["base"]["q3"] - stats["base"]["q1"]
        sign = 1 if higher else -1
        beats_every_base_run = min(sign * c for c in values["change"]) > max(sign * b for b in values["base"])
        out[name] = {
            "unit": metric["unit"],
            "better": metric["better"],
            "bound": metric["bound"],
            **stats,
            "change_wins": wins["change"],
            "base_wins": wins["base"],
            "median_gain_share": gain / base if base else 0.0,
            "within_bound": -gain <= metric["bound"] * abs(base),
            "gain_holds": wins["change"] >= 0.9 * len(runs) and gain > spread,
            "unresolved": spread > metric["bound"] * abs(base) and not beats_every_base_run,
        }
    return out


def failures(runs: list[dict]) -> dict:
    return {side: {"attempted": sum(run[side]["attempted"] for run in runs),
                   "failed": sum(run[side]["failed"] for run in runs)} for side in ("base", "change")}


def main() -> int:
    spec = json.loads((ROOT / "BENCHMARK.json").read_text())
    names = [w["name"] for w in spec["workloads"]]
    ap = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    ap.add_argument("--base", required=True, help="git revision of the base side")
    ap.add_argument("--out", required=True, type=Path)
    ap.add_argument("--unseen", help="WORKLOAD=SEED for the extra pairs on a seed not used above")
    args = ap.parse_args()
    unseen = None
    if args.unseen:
        workload, _, seed = args.unseen.partition("=")
        if workload not in names or not seed.isdigit() or int(seed) in SEEDS:
            ap.error(f"--unseen needs WORKLOAD=SEED with a seed outside {SEEDS}")
        unseen = (workload, int(seed))

    record = {
        "command": spec["command"],
        "run_seconds": spec["run_seconds"],
        "python": sys.version,
        "platform": platform.platform(),
        "base": {"rev": git("rev-parse", args.base).strip()},
        # Files not yet committed count once staged (git add).
        "change": {"rev": git("rev-parse", "HEAD").strip(),
                   "uncommitted_diff_sha256": hashlib.sha256(git("diff", "HEAD", "--binary").encode()).hexdigest()},
        "pairs": PAIRS,
        "seeds": list(SEEDS),
        "quartiles": "statistics.quantiles(values, n=4)",
        "started": time.strftime("%Y-%m-%dT%H:%M:%SZ", time.gmtime()),
        "workloads": {},
    }
    with tempfile.TemporaryDirectory(prefix="bench-pairs-") as tmp:
        sides = {"base": export(args.base, Path(tmp) / "base"), "change": ROOT}
        blocks = [(w, SEEDS, w) for w in names]
        if unseen:
            blocks.append((unseen[0], (unseen[1],), f"{unseen[0]} unseen seed {unseen[1]}"))
        for workload, block_seeds, key in blocks:
            runs = run_pairs(sides, spec, workload, block_seeds)
            record["workloads"][key] = {
                "workload": workload,
                "seeds": list(block_seeds),
                "ops": failures(runs),
                "metrics": summarise(runs, spec["end_to_end"]),
                "runs": runs,
            }
    record["finished"] = time.strftime("%Y-%m-%dT%H:%M:%SZ", time.gmtime())
    args.out.write_text(json.dumps(record, indent=1) + "\n")
    for key, block in record["workloads"].items():
        for name, m in block["metrics"].items():
            print(f"{key:40s} {name:16s} base {m['base']['median']:10.4f}  change {m['change']['median']:10.4f}"
                  f"  {m['median_gain_share']:+7.1%}  wins {m['change_wins']}/{len(block['runs'])}"
                  f"  {'gain holds' if m['gain_holds'] else ''}{'' if m['within_bound'] else '  OUTSIDE BOUND'}"
                  f"{'  UNRESOLVED' if m['unresolved'] else ''}")
    return 0


if __name__ == "__main__":
    sys.exit(main())
