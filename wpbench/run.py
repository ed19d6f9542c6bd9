"""wordpat benchmark: one seeded workload, one process, one thread.

    python3 wpbench/run.py --workload NAME --seed N --seconds S --trace 0|1

Imports wordpat from ``src/`` of the checkout this file sits in and
refuses to run if it resolves anywhere else.  Set-up (a fresh import,
input generation and one untimed, checked warm-up op) is done at least
three times and for at least a second, and its median reported as
``setup_s``.  The run is a closed loop: each op starts when the previous
one returned, and its result is checked outside the timed region.  Ops repeat the seeded round until
``--seconds`` of op time have been measured.  Between blocks of ops it
times a fixed piece of reference work, and the gated metrics give op
times in units of it (``ref_ms``), which cancels most of the machine's
speed drift; the wall-clock figures are printed and saved beside them.

With ``--trace 0`` the last stdout line holds the end-to-end metrics.
With ``--trace 1`` every op runs twice in a row, untraced and traced;
the traced ops give the per-layer metrics, the pairs the tracing
overhead.  Every run writes its result, and a traced
run also its spans, under ``.wpbench-out/`` in the checkout.
"""

from __future__ import annotations

import argparse
import importlib
import json
import resource
import statistics
import sys
import time
from bisect import bisect_left
from pathlib import Path
from random import Random
from types import SimpleNamespace

from tracing import Tracer
from workloads import WORKLOADS, SetupError

HERE = Path(__file__).resolve().parent
ROOT = HERE.parent
SRC = ROOT / "src"
OUT = ROOT / ".wpbench-out"
# Set-up is repeated at least SETUP_MIN_REPS times and until SETUP_MIN_S
# have passed, so that the cheap set-ups (tens of ms) get enough samples
# for a steady median, while verify's (one 3.5 s warm-up op) stays at three.
SETUP_MIN_REPS, SETUP_MIN_S, SETUP_MAX_REPS = 3, 1.0, 15
P90_MIN_SAMPLES = 100  # at least ten samples beyond the 90th percentile
# The machine's speed drifts by 20-30 % over seconds to minutes (see
# README.md), and fixed pure-Python work slows down with wordpat.  So
# after every REF_BLOCK_S of op time the loop also times REF_SHARE as
# much reference work, and reports op times in reference units too.
REF_BLOCK_S, REF_SHARE = 0.5, 0.2
MODULES = ("construction", "patterns", "witness", "oracle")


class BenchError(RuntimeError):
    """The benchmark cannot run here; no result is printed."""


def import_wordpat() -> SimpleNamespace:
    """Import wordpat afresh from this checkout's ``src/``."""
    package = SRC / "wordpat"
    if not (package / "__init__.py").is_file():
        raise BenchError(f"no wordpat package at {package}")
    for name in [m for m in sys.modules if m == "wordpat" or m.startswith("wordpat.")]:
        del sys.modules[name]
    if sys.path[0] != str(SRC):
        sys.path.insert(0, str(SRC))
    wp = importlib.import_module("wordpat")
    where = Path(wp.__file__).resolve().parent
    if where != package.resolve():
        raise BenchError(f"wordpat resolved to {where}, not {package}")
    return SimpleNamespace(path=where, **{m: importlib.import_module(f"wordpat.{m}") for m in MODULES})


_REF_RNG = Random(0)
_REF_WORD = tuple(_REF_RNG.randrange(64) for _ in range(2800))
_REF_PROBES = tuple(_REF_RNG.randrange(2800) for _ in range(2800))


def reference_work(word=_REF_WORD, probes=_REF_PROBES) -> int:
    """Fixed pure-Python work like wordpat's inner loops: index a word by
    value, bisect sorted positions, sort.  It takes 1-1.5 ms on a 2-vCPU
    Xeon VM with CPython 3.11.  This mix tracked the machine's speed
    drift more closely than plain arithmetic did."""
    positions: dict[int, list[int]] = {}
    for i, v in enumerate(word):
        positions.setdefault(v, []).append(i)
    hits = 0
    for v, p in zip(word, probes):
        hits += bisect_left(positions[v], p)
    return hits + sorted(word)[len(word) // 2]


def time_reference(seconds: float) -> float:
    """Run ``reference_work`` for at least ``seconds`` (and at least
    once); return the mean seconds per call, the current reference unit."""
    calls = 0
    start = time.perf_counter()
    while True:
        reference_work()
        calls += 1
        elapsed = time.perf_counter() - start
        if elapsed >= seconds:
            return elapsed / calls


class Loop:
    """Runs cases, times each op, checks each result, keeps the tally."""

    def __init__(self):
        self.latencies: list[float] = []  # seconds, completed ops only
        self.timed = 0.0
        # Op times since the last reference timing, and all op times in
        # reference units (the mean of the reference timings on each side).
        self.block: list[tuple[float, bool]] = []  # (seconds, completed)
        self.ref_latencies: list[float] = []  # completed ops only
        self.ref_timed = 0.0
        self.attempted = 0
        self.failed = 0
        self.failures: list[str] = []

    def run(self, case, op=None) -> float:
        """One op of ``case``; returns its duration in seconds."""
        op = op or case.run
        self.attempted += 1
        start = time.perf_counter()
        try:
            result = op()
        except Exception as exc:  # a crashing op is a failed op, not a crashed run
            dt = time.perf_counter() - start
            problem = f"raised {type(exc).__name__}: {exc}"
        else:
            dt = time.perf_counter() - start
            try:
                problem = case.check(result)
            except Exception as exc:  # a malformed result fails its check
                problem = f"check raised {type(exc).__name__}: {exc}"
        self.timed += dt
        self.block.append((dt, problem is None))
        if problem is None:
            self.latencies.append(dt)
        else:
            self.failed += 1
            if len(self.failures) < 20:
                self.failures.append(f"{case.label}: {problem}")
        return dt

    def close_block(self, unit_s: float) -> None:
        """Express the ops since the last call in units of ``unit_s``."""
        for dt, completed in self.block:
            self.ref_timed += dt / unit_s
            if completed:
                self.ref_latencies.append(dt / unit_s)
        self.block = []


def set_up(workload, seed: int, loop: Loop):
    """Import, build the round and run one warm-up op; repeat as above."""
    times = []
    while len(times) < SETUP_MAX_REPS and (len(times) < SETUP_MIN_REPS or sum(times) < SETUP_MIN_S):
        start = time.perf_counter()
        wp = import_wordpat()
        cases = workload.build_round(wp, seed)
        warm = Loop()
        # By label, so the warm-up op's kind does not depend on the seed.
        warm.run(min(cases, key=lambda case: case.label))
        times.append(time.perf_counter() - start)
        loop.attempted += warm.attempted
        loop.failed += warm.failed
        loop.failures += warm.failures
    return wp, cases, times


def measure(cases, seconds: float, loop: Loop) -> list[float]:
    """Run ops for ``seconds`` of op time, timing the reference work
    between blocks of ops; return the reference units measured."""
    units = [time_reference(REF_SHARE * REF_BLOCK_S)]
    i = 0
    while loop.timed < seconds:
        block_start = loop.timed
        while loop.timed - block_start < REF_BLOCK_S and loop.timed < seconds:
            loop.run(cases[i % len(cases)])
            i += 1
        units.append(time_reference(REF_SHARE * (loop.timed - block_start)))
        loop.close_block((units[-2] + units[-1]) / 2)
    return units


def measure_traced(wp, workload, cases, seconds: float, loop: Loop, tracer: Tracer):
    """Run every op twice in a row, untraced and traced, in alternating
    order, until the time is spent and the round has been done once.
    Return the per-layer metrics and the mean op span split into its own
    and its descendants' self time.  Pairing each traced op with the same
    op untraced, next to it in time, keeps the machine's speed drift out
    of the tracing overhead."""
    op_s = {False: 0.0, True: 0.0}
    ops = 0
    while loop.timed < seconds or ops < len(cases):
        case = cases[ops % len(cases)]
        for traced in (False, True) if ops % 2 == 0 else (True, False):
            if traced:
                tracer.op_id += 1
                with tracer.patched(wp):
                    op_s[True] += loop.run(case, lambda: tracer.call(workload.op_span, case.run))
            else:
                op_s[False] += loop.run(case)
        ops += 1
        if ops == len(cases):
            tracer.counting = False  # counts cover the first pass through the round
    overhead = op_s[True] / op_s[False] - 1.0

    def ms(name: str, field: int = 1) -> float:
        return tracer.total_s(lambda n, p: n == name, field) * 1000.0 / ops

    op = workload.op_span
    summary = {
        "op_ms": ms(op),
        "op_self_ms": ms(op, 2),
        "descendants_self_ms": tracer.total_s(lambda n, p: n != op, 2) * 1000.0 / ops,
    }
    return layer_metrics(tracer, ms, overhead), summary


def layer_metrics(tracer: Tracer, ms, overhead: float) -> dict:
    counts = tracer.counts
    span_names = {name for name, _ in tracer.agg}
    calls = sum(counts[n] for n in span_names if n.startswith("patterns."))
    oracle_checks = tracer.total_s(lambda n, p: n.startswith("patterns.") and p == "oracle.search", 0)
    oracle_check_s = tracer.total_s(lambda n, p: n.startswith("patterns.") and p == "oracle.search")
    values = {
        **{
            f"patterns.double_run.{e1}_{e2}_ms": (ms(f"patterns.double_run.{e1}_{e2}"), "ms")
            for e1 in ("id", "rev")
            for e2 in ("id", "rev")
        },
        "patterns.constant_ms": (ms("patterns.constant"), "ms"),
        "patterns.staircase.id_ms": (ms("patterns.staircase.id"), "ms"),
        "patterns.staircase.rev_ms": (ms("patterns.staircase.rev"), "ms"),
        "patterns.calls": (calls, "count"),
        "patterns.found_share": (counts["patterns.found"] / calls if calls else 0.0, "ratio"),
        "words.index_ms": (ms("words.index"), "ms"),
        "construction.build_ms": (ms("construction.build"), "ms"),
        "construction.multiplicity_ms": (ms("construction.multiplicity"), "ms"),
        "construction.verify_self_ms": (ms("construction.verify", 2), "ms"),
        "witness.extract_ms": (ms("witness.extract"), "ms"),
        "witness.validate_ms": (ms("witness.validate"), "ms"),
        "witness.extract_self_ms": (ms("witness.extract", 2), "ms"),
        "monotone.es_extract_ms": (ms("monotone.es_extract"), "ms"),
        "monotone.es_extract_calls": (counts["monotone.es_extract"], "count"),
        "witness.branch.double_run": (counts["witness.branch.double_run"], "count"),
        "witness.branch.doubled_monotone": (counts["witness.branch.doubled_monotone"], "count"),
        "oracle.member_check_us": (
            oracle_check_s * 1e6 / oracle_checks if oracle_checks else 0.0,
            "us",
        ),
        "oracle.member_checks": (counts["oracle.member_checks"], "count"),
        "oracle.search_self_ms": (ms("oracle.search", 2), "ms"),
        "trace.overhead_pct": (overhead * 100.0, "%"),
    }
    return {name: {"value": v, "unit": unit} for name, (v, unit) in values.items()}


# The end-to-end metrics of the result line.  Their wall-clock
# counterparts are printed above it and saved, not gated: see README.md.
END_TO_END = ("ops_per_ref_s", "call_p50_ref_ms", "peak_rss_mb", "setup_s")


def end_to_end_report(loop: Loop, setup_times: list[float], units: list[float]) -> dict:
    """Every end-to-end figure of an untraced run, as name -> (value, unit)."""
    lat, ref = sorted(loop.latencies), sorted(loop.ref_latencies)
    report = {
        "ops_per_s": (len(lat) / loop.timed, "1/s"),
        # A run in which every op failed reports 0 rather than crashing.
        "call_p50_ms": (statistics.median(lat) * 1000.0 if lat else 0.0, "ms"),
        "ops_per_ref_s": (len(ref) / loop.ref_timed * 1000.0, "1/ref_s"),
        "call_p50_ref_ms": (statistics.median(ref) if ref else 0.0, "ref_ms"),
    }
    if len(lat) >= P90_MIN_SAMPLES:
        report["call_p90_ms"] = (statistics.quantiles(lat, n=10)[-1] * 1000.0, "ms")
        report["call_p90_ref_ms"] = (statistics.quantiles(ref, n=10)[-1], "ref_ms")
    report["peak_rss_mb"] = (resource.getrusage(resource.RUSAGE_SELF).ru_maxrss / 1024.0, "MiB")  # KiB on Linux
    report["setup_s"] = (statistics.median(setup_times), "s")
    report["ref_unit_ms"] = (statistics.mean(units) * 1000.0, "ms")
    return report


def main(argv=None) -> int:
    ap = argparse.ArgumentParser(description="wordpat benchmark (see module docstring)")
    ap.add_argument("--workload", required=True, choices=sorted(WORKLOADS))
    ap.add_argument("--seed", type=int, required=True)
    ap.add_argument("--seconds", type=float, required=True)
    ap.add_argument("--trace", type=int, choices=(0, 1), default=0)
    args = ap.parse_args(argv)
    if args.seconds <= 0:
        ap.error("--seconds must be positive")
    workload = WORKLOADS[args.workload]

    # Keep the checkout's src/ free of bytecode files.
    sys.dont_write_bytecode = True
    loop = Loop()
    try:
        wp, cases, setup_times = set_up(workload, args.seed, loop)
    except (BenchError, SetupError) as exc:
        print(f"wpbench: {exc}", file=sys.stderr)
        return 2

    detail = {
        "workload": args.workload,
        "seed": args.seed,
        "seconds": args.seconds,
        "trace": args.trace,
        "wordpat": str(wp.path),
        "round_ops": len(cases),
        "setup_times_s": setup_times,
    }
    tracer = Tracer()
    if args.trace:
        metrics, op_summary = measure_traced(wp, workload, cases, args.seconds, loop, tracer)
        report = {}
    else:
        units = measure(cases, args.seconds, loop)
        report = end_to_end_report(loop, setup_times, units)
        metrics = {name: {"value": report[name][0], "unit": report[name][1]} for name in END_TO_END}
        detail["ref_units_s"] = units
    detail.update(samples=len(loop.latencies), timed_s=loop.timed, report=report, failures=loop.failures)
    result = {
        "correct": loop.failed == 0,
        "attempted": loop.attempted,
        "failed": loop.failed,
        "metrics": metrics,
    }
    OUT.mkdir(exist_ok=True)
    stem = OUT / f"{args.workload}-seed{args.seed}-trace{args.trace}"
    stem.with_suffix(".json").write_text(json.dumps({**detail, **result}, indent=1))
    if args.trace:
        trace_file = stem.with_name(stem.name + "-spans.json")
        trace_file.write_text(json.dumps({**detail, "op_span": op_summary, **tracer.dump()}))

    print(f"wordpat imported from {wp.path}")
    print(
        f"{args.workload}: {len(loop.latencies)} ops completed in {loop.timed:.2f} s of op time; "
        f"{loop.attempted} attempted ({len(setup_times)} of them warm-ups), {loop.failed} failed"
    )
    for name, (value, unit) in report.items():
        print(f"  {name:16s} {value:12.4f} {unit}")
    if report and "call_p90_ms" not in report:
        print(f"  call_p90_ms      omitted: fewer than {P90_MIN_SAMPLES} ops")
    for failure in loop.failures:
        print(f"FAILED {failure}")
    print(json.dumps(result))
    return 0


if __name__ == "__main__":
    sys.exit(main())
