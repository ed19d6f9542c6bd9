"""Constructive witness extraction and trace replay."""

import os
import random
import subprocess
import sys
from dataclasses import replace
from pathlib import Path

import pytest

from wordgen import word_with_repeats
from wordpat import witness
from wordpat.patterns import Direction, FamilyId, base_pattern
from wordpat.witness import InsufficientRepeats, extract_witness, validate_trace
from wordpat.words import InvariantViolation, repeats, standardise, subword


def test_constant_branch():
    fid, occ, trace = extract_witness((0, 0, 0), 1, 1)
    assert str(fid) == "Constant"
    assert occ == (1, 2, 3)
    assert trace.branch == "constant"
    assert validate_trace((0, 0, 0), trace)


def test_tiny_two_pair_words():
    # At n = 1, k = 1 every word made of two doubled values is itself
    # one of the four-letter family members.
    expected = {
        (0, 0, 1, 1): "DoubledMonotone(id)",
        (1, 1, 0, 0): "DoubledMonotone(rev)",
        (0, 1, 0, 1): "DoubleRun(id,id)",
        (0, 1, 1, 0): "DoubleRun(id,rev)",
        (1, 0, 0, 1): "DoubleRun(rev,id)",
        (1, 0, 1, 0): "DoubleRun(rev,rev)",
    }
    for w, name in expected.items():
        fid, occ, trace = extract_witness(w, 1, 1)
        assert str(fid) == name, w
        assert occ == (1, 2, 3, 4)
        assert subword(w, occ) == base_pattern(fid)
        assert validate_trace(w, trace)


def test_insufficient_repeats():
    with pytest.raises(InsufficientRepeats):
        extract_witness((0, 1, 2), 1, 1)
    with pytest.raises(InsufficientRepeats):
        extract_witness((0, 0), 1, 1)  # exactly k*n^6 repeats is not enough
    rng = random.Random(11)
    w = word_with_repeats(rng, 64, 1)
    with pytest.raises(InsufficientRepeats):
        extract_witness(w, 2, 1)


def test_parameter_validation():
    with pytest.raises(ValueError):
        extract_witness((0, 0, 0), 0, 1)
    with pytest.raises(ValueError):
        extract_witness((0, 0, 0), 1, 0)


def test_constant_shortcut_on_tall_spike():
    w = (5, 5, 5, 5, 0, 1, 2)
    fid, occ, trace = extract_witness(w, 1, 2)
    assert trace.branch == "constant"
    assert occ == (1, 2, 3, 4)
    assert validate_trace(w, trace)


@pytest.mark.parametrize("n,k,seed", [(1, 1, 7), (1, 2, 8), (2, 1, 9)])
def test_fuzz_extraction_is_valid(n, k, seed):
    rng = random.Random(seed)
    threshold = k * n**6
    for _ in range(150):
        w = word_with_repeats(rng, threshold + 1, k)
        fid, occ, trace = extract_witness(w, n, k)
        assert standardise(subword(w, occ)) == base_pattern(fid)
        assert validate_trace(w, trace)


def test_fuzz_uncapped_hits_constant_branch():
    rng = random.Random(13)
    branches = set()
    for _ in range(100):
        w = word_with_repeats(rng, 2, 1, cap=False)
        _, _, trace = extract_witness(w, 1, 1)
        branches.add(trace.branch)
        assert validate_trace(w, trace)
    assert "constant" in branches


def test_trace_structure_non_constant():
    rng = random.Random(21)
    n, k = 2, 1
    w = word_with_repeats(rng, n**6 + 1, k)
    fid, occ, trace = extract_witness(w, n, k)
    assert trace.branch in ("double_run", "doubled_monotone")
    assert len(trace.chosen_values) == n**6 + 1
    assert len(trace.doubled_occ) == 2 * (n**6 + 1)
    assert trace.doubled_word == subword(w, trace.doubled_occ)
    assert len(trace.firsts_occ) == n**6 + 1
    assert len(trace.monotone_occ) == n**3 + 1
    assert trace.monotone_direction is fid.e1
    d = trace.to_dict()
    assert d["family"] == str(fid)
    assert d["occurrence"] == list(occ)
    assert d["monotone_direction"] in ("id", "rev")


def test_extraction_deterministic():
    rng = random.Random(31)
    w = word_with_repeats(rng, 2, 1)
    assert extract_witness(w, 1, 1) == extract_witness(w, 1, 1)


def _first_trace_with_branch(n, k, branch, seed=41):
    rng = random.Random(seed)
    threshold = k * n**6
    for _ in range(500):
        w = word_with_repeats(rng, threshold + 1, k)
        _, _, trace = extract_witness(w, n, k)
        if trace.branch == branch:
            return w, trace
    raise AssertionError(f"no {branch} trace found")


def test_validate_rejects_corrupt_occurrence():
    cases = [_first_trace_with_branch(1, 1, b) for b in ("double_run", "doubled_monotone")]
    cases.append(((0, 0, 0), extract_witness((0, 0, 0), 1, 1)[2]))
    for w, trace in cases:
        assert validate_trace(w, trace)
        occ = trace.occurrence
        # Out-of-range positions are a malformed trace, not an error.
        for bad in (occ[:-1] + (len(w) + 1,), (0,) + occ[1:], (-1,) + occ[1:]):
            assert not validate_trace(w, replace(trace, occurrence=bad))


def test_validate_does_not_hide_its_own_errors(monkeypatch):
    w, trace = _first_trace_with_branch(1, 1, "double_run")

    def broken(*args):
        raise RuntimeError("bug in a validator helper")

    monkeypatch.setattr(witness, "_strictly_monotone", broken)
    with pytest.raises(RuntimeError, match="bug in a validator helper"):
        validate_trace(w, trace)


def _shorten_es_extract(monkeypatch, r_cut):
    # es_extract returning one position too few when its r is r_cut.
    real = witness.es_extract

    def short(vals, r, s):
        direction, occ = real(vals, r, s)
        return direction, occ[:-1] if r == r_cut else occ

    monkeypatch.setattr(witness, "es_extract", short)


@pytest.mark.parametrize(
    "r_cut, branch, message",
    [(8, "doubled_monotone", "monotone core"), (2, "double_run", "repeat run")],
)
def test_short_monotone_subword_raises_invariant_violation(monkeypatch, r_cut, branch, message):
    # n = 2: the core is cut with r = n^3 = 8, a block's repeats with r = n = 2.
    w, _ = _first_trace_with_branch(2, 1, branch)
    _shorten_es_extract(monkeypatch, r_cut)
    with pytest.raises(InvariantViolation, match=message):
        extract_witness(w, 2, 1)


def test_invariant_checks_survive_python_dash_O(tmp_path):
    script = (
        "from wordpat import witness\n"
        "from wordpat.words import InvariantViolation\n"
        "real = witness.es_extract\n"
        "def short(*args):\n"
        "    direction, occ = real(*args)\n"
        "    return direction, occ[:-1]\n"
        "witness.es_extract = short\n"
        "try:\n"
        "    witness.extract_witness((0, 1, 0, 1), 1, 1)\n"
        "except InvariantViolation as exc:\n"
        "    print(__debug__, exc)\n"
    )
    package_root = str(Path(witness.__file__).resolve().parents[1])
    env = dict(os.environ)
    env["PYTHONPATH"] = os.pathsep.join(filter(None, [package_root, env.get("PYTHONPATH")]))
    proc = subprocess.run(
        [sys.executable, "-O", "-c", script],
        capture_output=True,
        text=True,
        env=env,
        cwd=tmp_path,
        timeout=60,
    )
    assert proc.returncode == 0, proc.stderr
    assert proc.stdout.startswith("False monotone core")


def test_validate_rejects_wrong_family():
    w, trace = _first_trace_with_branch(1, 1, "double_run")
    other = FamilyId("double_run", 1, 1, trace.family.e1.flip(), trace.family.e2)
    assert not validate_trace(w, replace(trace, family=other))


def test_validate_rejects_wrong_branch_label():
    w, trace = _first_trace_with_branch(1, 1, "double_run")
    assert not validate_trace(w, replace(trace, branch="doubled_monotone"))


def test_validate_rejects_corrupt_monotone_core():
    w, trace = _first_trace_with_branch(1, 1, "doubled_monotone")
    assert validate_trace(w, trace)
    assert not validate_trace(w, replace(trace, monotone_occ=trace.monotone_occ[:-1]))
    flipped = trace.monotone_direction.flip()
    assert not validate_trace(w, replace(trace, monotone_direction=flipped))


def test_validate_rejects_corrupt_block_fields():
    w, trace = _first_trace_with_branch(1, 1, "double_run")
    assert not validate_trace(w, replace(trace, block_start=1))
    w2, trace2 = _first_trace_with_branch(1, 1, "doubled_monotone")
    assert not validate_trace(w2, replace(trace2, block_picks=(1,)))


def test_validate_rejects_corrupt_chosen_values():
    w, trace = _first_trace_with_branch(1, 1, "double_run")
    shorter = trace.chosen_values[:-1]
    assert not validate_trace(w, replace(trace, chosen_values=shorter))


def test_validate_rejects_wrong_parameters():
    w, trace = _first_trace_with_branch(1, 1, "double_run")
    assert not validate_trace(w, replace(trace, n=2))
    assert not validate_trace(w, replace(trace, k=2))


def test_validate_rejects_wrong_word():
    fid, occ, trace = extract_witness((0, 1, 0, 1), 1, 1)
    assert validate_trace((0, 1, 0, 1), trace)
    assert not validate_trace((0, 1, 1, 0), trace)
    assert not validate_trace((0, 1), trace)


def test_threshold_boundary_repeat_counts():
    # repeats == k*n^6 raises; repeats == k*n^6 + 1 succeeds.
    rng = random.Random(51)
    for n, k in [(1, 1), (1, 2)]:
        threshold = k * n**6
        low = word_with_repeats(rng, threshold, k)
        assert repeats(low) == threshold
        with pytest.raises(InsufficientRepeats):
            extract_witness(low, n, k)
        high = word_with_repeats(rng, threshold + 1, k)
        fid, occ, trace = extract_witness(high, n, k)
        assert validate_trace(high, trace)
