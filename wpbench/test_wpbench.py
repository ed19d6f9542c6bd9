"""Self-tests for the benchmark itself.

    python3 -m pytest wpbench

They check that a seed fixes the inputs and the exact counts, that a
wrong result is counted as a failure, and that the printed metrics are
the ones BENCHMARK.json declares.
"""

from __future__ import annotations

import dataclasses
import json
import shutil
import subprocess
import sys
from pathlib import Path

import pytest

HERE = Path(__file__).resolve().parent
ROOT = HERE.parent
sys.path.insert(0, str(HERE))

import run as bench  # noqa: E402
from tracing import Tracer  # noqa: E402
from workloads import WORKLOADS, Case  # noqa: E402

SPEC = json.loads((ROOT / "BENCHMARK.json").read_text())


@pytest.fixture(scope="module")
def wp():
    return bench.import_wordpat()


def test_workloads_match_spec():
    assert sorted(WORKLOADS) == sorted(w["name"] for w in SPEC["workloads"])


@pytest.mark.parametrize("name", sorted(WORKLOADS))
def test_same_seed_same_inputs(wp, name):
    build = WORKLOADS[name].build_round
    first = [c.inputs for c in build(wp, 7)]
    assert first == [c.inputs for c in build(wp, 7)]
    if name != "verify-construction":  # the construction takes no seeded input
        assert first != [c.inputs for c in build(wp, 8)]


def traced_round_counts(wp, name: str, seed: int) -> dict:
    workload = WORKLOADS[name]
    loop = bench.Loop()
    metrics, _ = bench.measure_traced(wp, workload, workload.build_round(wp, seed), 0, loop, Tracer())
    assert loop.failed == 0, loop.failures
    return {k: m["value"] for k, m in metrics.items() if m["unit"] == "count"}


@pytest.mark.parametrize("name", ["witness-extract", "oracle-search"])
def test_same_seed_same_counts(wp, name):
    counts = traced_round_counts(wp, name, 3)
    assert any(counts.values())
    assert counts == traced_round_counts(wp, name, 3)


def test_witness_round_takes_both_branches(wp):
    counts = traced_round_counts(wp, "witness-extract", 5)
    assert counts["witness.branch.double_run"] > 0
    assert counts["witness.branch.doubled_monotone"] > 0


def first_case(wp, name: str, label_start: str = "") -> Case:
    return next(c for c in WORKLOADS[name].build_round(wp, 1) if c.label.startswith(label_start))


def test_verify_check_rejects_corrupted_reports(wp):
    check = WORKLOADS["verify-construction"].build_round(wp, 1)[0].check
    names = ["Constant", "DoubledMonotone(id)", "DoubledMonotone(rev)"] + [
        f"DoubleRun({a},{b})" for a in ("id", "rev") for b in ("id", "rev")
    ]
    good = wp.construction.VerifyReport(
        n=4, k=1, length=8192, repeats=4096, multiplicity_ok=True,
        avoided={name: True for name in names}, elapsed_ms=1.0,
    )
    assert check(good) is None
    for bad in (
        dataclasses.replace(good, length=8191),
        dataclasses.replace(good, repeats=4097),
        dataclasses.replace(good, multiplicity_ok=False),
        dataclasses.replace(good, avoided={**good.avoided, "DoubleRun(rev,id)": False}),
        dataclasses.replace(good, avoided={n: True for n in names[:-1]}),
    ):
        assert check(bad) is not None


def test_containment_check_rejects_corrupted_answers(wp):
    case = first_case(wp, "containment-adversarial", "sorted")
    found = case.run()
    assert case.check(found) is None
    assert found[0] is not None  # the constant comes first and occurs
    absent = next(i for i, occ in enumerate(found) if occ is None)
    n_letters = len(case.inputs[1])
    for i, wrong in (
        (0, None),  # a present member reported absent
        (absent, (1, 2, n_letters - 1, n_letters)),  # an absent member reported present
        (0, found[0][:-1] + found[0][-2:-1]),  # a repeated position
        (0, (1, 2, n_letters)),  # letters that are not all equal
    ):
        assert case.check(found[:i] + [wrong] + found[i + 1 :]) is not None
    assert case.check(found[:-1]) is not None


def test_witness_check_rejects_corrupted_answers(wp):
    case = first_case(wp, "witness-extract")
    fid, occ, trace, valid = case.run()
    assert case.check((fid, occ, trace, valid)) is None
    assert case.check((fid, occ, trace, False)) is not None
    assert case.check((fid, occ[:-1] + (occ[-1] + 1,), trace, valid)) is not None


def test_oracle_checks_reject_wrong_answers(wp):
    search = first_case(wp, "oracle-search", "max_repeats_avoiding(2, 1, 5)")
    best, w = search.run()
    assert search.check((best, w)) is None
    assert search.check((best - 1, w)) is not None
    assert search.check((best, (0, 1, 0, 1, 2, 3, 4, 2, 3, 4))) is not None  # holds 0101
    verdict = first_case(wp, "oracle-search", "check_unavoidability_balanced(1, 5)")
    assert verdict.check(verdict.run()) is None
    assert verdict.check(False) is not None


def test_loop_counts_wrong_and_crashing_ops_as_failed():
    def crash():
        raise ValueError("boom")

    loop = bench.Loop()
    right = Case("right", (), lambda: 1, lambda r: None if r == 1 else "wrong")
    loop.run(right)
    loop.run(dataclasses.replace(right, label="wrong", run=lambda: 2))
    loop.run(dataclasses.replace(right, label="crash", run=crash))
    loop.run(dataclasses.replace(right, label="bad check", check=lambda r: r.missing))
    assert (loop.attempted, loop.failed, len(loop.latencies)) == (4, 3, 1)
    assert len(loop.failures) == 3
    loop.close_block(2.0)  # failed ops count in the timed total, not in the latencies
    assert loop.ref_latencies == [loop.latencies[0] / 2.0]
    assert loop.ref_timed == pytest.approx(loop.timed / 2.0)
    assert loop.block == []


def test_report_survives_a_run_where_every_op_fails():
    loop = bench.Loop()
    loop.run(Case("wrong", (), lambda: 2, lambda r: "wrong"))
    loop.close_block(1e-3)
    report = bench.end_to_end_report(loop, [0.1], [1e-3])
    assert report["ops_per_ref_s"][0] == 0 and report["call_p50_ref_ms"][0] == 0


def run_bench(cwd: Path, trace: int) -> subprocess.CompletedProcess:
    cmd = [sys.executable, *SPEC["command"][1:], "--workload", "witness-extract",
           "--seed", "2", "--seconds", "0.5", "--trace", str(trace)]
    return subprocess.run(cmd, cwd=cwd, capture_output=True, text=True, timeout=180)


@pytest.mark.parametrize("trace, kind", [(0, "end_to_end"), (1, "per_layer")])
def test_printed_metrics_match_spec(trace, kind):
    proc = run_bench(ROOT, trace)
    assert proc.returncode == 0, proc.stderr
    result = json.loads(proc.stdout.strip().splitlines()[-1])
    assert sorted(result) == ["attempted", "correct", "failed", "metrics"]
    assert result["correct"] is True and result["failed"] == 0 and result["attempted"] >= 1
    declared = {m["name"]: m["unit"] for m in SPEC[kind]}
    assert {k: m["unit"] for k, m in result["metrics"].items()} == declared


def test_refuses_to_run_without_the_library(tmp_path):
    shutil.copy(ROOT / "BENCHMARK.json", tmp_path)
    for path in SPEC["paths"]:
        shutil.copytree(ROOT / path, tmp_path / path, ignore=shutil.ignore_patterns("__pycache__"))
    proc = run_bench(tmp_path, 0)
    assert proc.returncode != 0
    assert '"metrics"' not in proc.stdout
