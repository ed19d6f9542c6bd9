"""Constructive witness extraction and trace replay."""

import hashlib
import inspect
import json
import os
import random
import subprocess
import sys
from dataclasses import fields, replace
from pathlib import Path

import pytest
from hypothesis import given, strategies as st

from wordgen import shaped_word, word_with_repeats
from wordpat import witness
from wordpat.patterns import Direction, FamilyId, base_pattern, contains_constant, find_family_member
from wordpat.witness import InsufficientRepeats, extract_witness, validate_trace
from wordpat.words import InvariantViolation, repeats, standardise, subword

ID, REV = Direction.ID, Direction.REV


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


@given(
    st.integers(min_value=0, max_value=2**32),
    st.sampled_from([(1, 1), (1, 2), (1, 3), (2, 1)]),
)
def test_constant_branch_fires_exactly_when_a_constant_is_present(seed, nk):
    n, k = nk
    w = word_with_repeats(random.Random(seed), k * n**6 + 1, k, cap=False)
    const = contains_constant(w, k + 2)
    fid, occ, trace = extract_witness(w, n, k)
    assert (trace.branch == "constant") == (const is not None)
    if const is not None:
        assert str(fid) == "Constant"
        assert occ == trace.occurrence == const
    assert validate_trace(w, trace)


def _pinned_corpus():
    rng = random.Random(2024)
    for n, k in ((1, 1), (1, 2), (1, 3), (2, 1), (2, 2)):
        for _ in range(40 if n == 1 else 10):
            yield word_with_repeats(rng, k * n**6 + 1, k), n, k
    for n, k in ((1, 1), (1, 2), (2, 1)):
        for _ in range(20):
            yield word_with_repeats(rng, k * n**6 + 1, k, cap=False), n, k
    for k in (1, 2):
        for shape in ("interleaved", "adjacent", "separated"):
            for _ in range(3):
                yield shaped_word(rng, 2, k, shape), 2, k


# SHA-256 of the JSON of every trace over _pinned_corpus() (218 traces:
# 42 constant, 118 double run, 58 doubled monotone), recorded when
# es_extract began to stop at the first chain of the guaranteed length,
# which moved the monotone core of 37 traces.  Any rewrite of the
# extraction must reproduce every recorded field.
TRACE_DIGEST = "1f5ca5fac979d5a7f5454a2f03270b020939293bacb3b7d0206f6f530f64a0c8"


def test_traces_match_the_pinned_digest():
    traces = []
    for w, n, k in _pinned_corpus():
        _, _, trace = extract_witness(w, n, k)
        assert validate_trace(w, trace)
        traces.append(trace.to_dict())
    assert {t["branch"] for t in traces} == {"constant", "double_run", "doubled_monotone"}
    assert hashlib.sha256(json.dumps(traces).encode()).hexdigest() == TRACE_DIGEST


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


def test_extraction_and_validation_call_the_traced_names(monkeypatch):
    # The benchmark's tracer times these stages by replacing the module
    # globals of witness; a call that reached them by another name would
    # drop out of its timings.
    calls = {}
    for name in ("es_extract", "occurrences_by_value", "contains_constant"):
        real = getattr(witness, name)

        def counted(*args, real=real, name=name):
            calls[name] = calls.get(name, 0) + 1
            return real(*args)

        monkeypatch.setattr(witness, name, counted)
    extract_witness((0, 0, 0), 1, 1)
    assert calls == {"occurrences_by_value": 1, "contains_constant": 1}
    for branch in ("double_run", "doubled_monotone"):
        w, trace = _first_trace_with_branch(2, 1, branch)
        calls.clear()
        _, _, again = extract_witness(w, 2, 1)
        assert again == trace
        # The core, then one block's repeats on the double-run branch.
        assert calls == {"occurrences_by_value": 1, "es_extract": 1 + (branch == "double_run")}
        calls.clear()
        assert validate_trace(w, trace)
        assert calls == {"occurrences_by_value": 1}


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


@pytest.mark.parametrize("branch", ["double_run", "doubled_monotone"])
def test_validate_rejects_a_core_that_is_not_monotone(monkeypatch, branch):
    # The first n^3 + 1 firsts: the right length, a subsequence of the
    # firsts and the recorded direction, so only the monotone check is left.
    w, trace = _first_trace_with_branch(2, 1, branch)
    core = trace.firsts_occ[:9]
    vals = [trace.doubled_word[i - 1] for i in core]
    assert vals != sorted(set(vals)) and vals != sorted(set(vals), reverse=True)
    verdicts = []
    monotone = witness._strictly_monotone

    def recording(*args):
        verdicts.append(monotone(*args))
        return verdicts[-1]

    monkeypatch.setattr(witness, "_strictly_monotone", recording)
    assert not validate_trace(w, replace(trace, monotone_occ=core))
    # The core's check is the first monotone check, and it rejects.
    assert verdicts == [False]


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


# A double-run trace on (0,1,0,1), followed by blocks holding the
# doubled staircases and the (id,rev) and (rev,id) double runs at n = 1:
# a trace may name one of those members and point at its occurrence, so
# that it passes the occurrence check and fails a later one.
DR_WORD = (0, 1, 0, 1, 2, 2, 3, 3, 5, 5, 4, 4, 6, 7, 7, 6, 9, 8, 8, 9)
# A doubled-monotone trace on (0,0,1,1), followed by a (id,id) double run.
DM_WORD = (0, 0, 1, 1, 2, 3, 2, 3)


def _member(kind, e1, e2=None):
    return FamilyId(kind, 1, 1, e1, e2)


# (case, word, changed trace fields, text of the check that must reject
# first).
REJECTIONS = [
    ("constant member, other branch", (0, 0, 0), lambda tr: dict(branch="double_run"),
     "if tr.branch != fid.kind:"),
    ("chosen values unhashable", DR_WORD, lambda tr: dict(chosen_values=([0], [1])),
     "if not _ints(chosen) or len(chosen) != need"),
    ("chosen value occurs once", DR_WORD, lambda tr: dict(chosen_values=(0, 99)),
     "if len(ps) < 2:"),
    ("chosen values out of first-occurrence order", DR_WORD, lambda tr: dict(chosen_values=(1, 0)),
     "if tuple(compress(doubled, firsts)) != chosen:"),
    ("doubled positions", DR_WORD, lambda tr: dict(doubled_occ=(1, 2, 3, 5)),
     "if tr.doubled_occ != "),
    ("doubled word", DR_WORD, lambda tr: dict(doubled_word=(0, 1, 1, 0)),
     "if tr.doubled_word != "),
    ("first-occurrence positions", DR_WORD, lambda tr: dict(firsts_occ=(1, 3)),
     "if tr.firsts_occ != "),
    ("first-occurrence position shifted", DR_WORD,
     lambda tr: dict(firsts_occ=(tr.firsts_occ[0] + 1,) + tr.firsts_occ[1:]),
     "if tr.firsts_occ != "),
    ("first-occurrence position negative", DR_WORD,
     lambda tr: dict(firsts_occ=(-1,) + tr.firsts_occ[1:]),
     "if tr.firsts_occ != "),
    ("first-occurrence positions missing", DR_WORD, lambda tr: dict(firsts_occ=None),
     "if tr.firsts_occ != "),
    ("core not a subsequence of the firsts", DR_WORD, lambda tr: dict(monotone_occ=(2, 1)),
     "_is_subsequence_of(tr.monotone_occ, tr.firsts_occ)"),
    ("core not a tuple", DR_WORD, lambda tr: dict(monotone_occ=list(tr.monotone_occ)),
     "if not _ints(tr.monotone_occ)"),
    ("core too short", DR_WORD, lambda tr: dict(monotone_occ=tr.monotone_occ[:1]),
     "if not _ints(tr.monotone_occ)"),
    ("core direction missing", DR_WORD, lambda tr: dict(monotone_direction=None),
     "if tr.monotone_direction is not fid.e1:"),
    ("member's first run against the core", DR_WORD,
     lambda tr: dict(family=_member("double_run", REV, ID), occurrence=(17, 18, 19, 20)),
     "if tr.monotone_direction is not fid.e1:"),
    ("double-run branch, other member", DR_WORD,
     lambda tr: dict(family=_member("doubled_monotone", ID), occurrence=(5, 6, 7, 8)),
     "if tr.branch != fid.kind:"),
    ("block start a string", DR_WORD, lambda tr: dict(block_start="0"),
     "if not isinstance(j, int)"),
    ("block not separated", DM_WORD,
     lambda tr: dict(branch="double_run", family=_member("double_run", ID, ID),
                     occurrence=(5, 6, 7, 8), block_start=0, block_picks=None),
     "second_of[v] <= boundary_first"),
    ("repeat positions", DR_WORD, lambda tr: dict(repeat_occ=(3, 3)),
     "if tr.repeat_occ != "),
    ("repeat positions missing", DR_WORD, lambda tr: dict(repeat_occ=None),
     "if tr.repeat_occ != "),
    ("repeat run missing", DR_WORD, lambda tr: dict(repeat_monotone_occ=None),
     "if not _ints(tr.repeat_monotone_occ)"),
    ("repeat run not a subsequence", DR_WORD, lambda tr: dict(repeat_monotone_occ=(4, 3)),
     "_is_subsequence_of(tr.repeat_monotone_occ, tr.repeat_occ)"),
    ("member's second run against the repeats", DR_WORD,
     lambda tr: dict(family=_member("double_run", ID, REV), occurrence=(13, 14, 15, 16)),
     "_strictly_monotone(rep_chosen_vals, fid.e2)"),
    ("matching first positions", DR_WORD, lambda tr: dict(firsts_match_occ=(2, 1)),
     "if tr.firsts_match_occ != "),
    ("matching first positions missing", DR_WORD, lambda tr: dict(firsts_match_occ=None),
     "if tr.firsts_match_occ != "),
    ("block picks missing", DM_WORD, lambda tr: dict(block_picks=None),
     "if not _ints(picks) or len(picks) != n:"),
    ("block picks not ints", DM_WORD, lambda tr: dict(block_picks=(0.5,)),
     "if not _ints(picks) or len(picks) != n:"),
    ("picked pair not before the next block", DR_WORD,
     lambda tr: dict(branch="doubled_monotone", family=_member("doubled_monotone", ID),
                     occurrence=(5, 6, 7, 8), block_picks=(0,), block_start=None, repeat_occ=None,
                     repeat_monotone_occ=None, firsts_match_occ=None),
     "if second_of[core_vals[i]] >= first_of[core_vals[t * n * n]]:"),
    # Only a staircase reads its group size; the base family's is 2.
    ("member with another group size", DM_WORD, lambda tr: dict(family=replace(tr.family, mult=3)),
     "if fid.mult != 2:"),
    ("member named by a string", DR_WORD, lambda tr: dict(family="DoubleRun(id,id)"),
     "if not isinstance(fid, FamilyId):"),
    ("n a string", DR_WORD, lambda tr: dict(n="1"),
     "if not isinstance(n, int) or not isinstance(k, int):"),
    ("occurrence missing", DR_WORD, lambda tr: dict(occurrence=None),
     "if not _ints(tr.occurrence):"),
    ("occurrence with a string", DR_WORD, lambda tr: dict(occurrence=(1, "2", 3, 4)),
     "if not _ints(tr.occurrence):"),
    ("constant trace with chosen values", (0, 0, 0), lambda tr: dict(chosen_values=(5, 6)),
     "if tr != WitnessTrace("),
    ("double-run trace with block picks", (0, 1, 0, 1), lambda tr: dict(block_picks=(0,)),
     "if tr.block_picks is not None:"),
    ("doubled-monotone trace with double-run fields", (0, 0, 1, 1),
     lambda tr: dict(block_start=0, repeat_occ=(1,)), "tr.firsts_match_occ) != (None,) * 4:"),
    ("unknown branch", DR_WORD, lambda tr: dict(branch="bogus"), "if tr.branch != fid.kind:"),
]


def _rejecting_line(w, trace):
    """Line of ``witness._validate`` at which it returned for ``trace``.

    A profile hook, so that a line tracer such as a coverage tool still
    sees the lines run.
    """
    code = witness._validate.__code__
    returned = []

    def profiler(frame, event, arg):
        if event == "return" and frame.f_code is code:
            returned.append(frame.f_lineno)

    previous = sys.getprofile()
    sys.setprofile(profiler)
    try:
        assert validate_trace(w, trace) is False
    finally:
        sys.setprofile(previous)
    return returned[0]


def _return_after(check):
    """Line of the ``return False`` that follows the one line of
    ``witness._validate`` holding ``check``."""
    lines, start = inspect.getsourcelines(witness._validate)
    (at,) = [i for i, line in enumerate(lines) if check in line]
    assert lines[at + 1].strip() == "return False"
    return start + at + 1


@pytest.mark.parametrize(
    "w, changes, check", [case[1:] for case in REJECTIONS], ids=[case[0] for case in REJECTIONS]
)
def test_each_validation_check_rejects_first(w, changes, check):
    _, _, trace = extract_witness(w, 1, 1)
    assert validate_trace(w, trace)
    assert _rejecting_line(w, replace(trace, **changes(trace))) == _return_after(check)


def test_doubled_positions_reject_a_third_occurrence():
    # k = 2: each value occurs three times, and only its first two
    # occurrences belong to the doubled word.
    w = (0, 1, 0, 1, 0, 1)
    _, _, trace = extract_witness(w, 1, 2)
    assert trace.doubled_occ == (1, 2, 3, 4)
    assert validate_trace(w, trace)
    third = replace(trace, doubled_occ=(1, 2, 4, 5))
    assert _rejecting_line(w, third) == _return_after("if tr.doubled_occ != ")


def test_unknown_member_kind_raises_value_error():
    # When the member is made, so no checker, name or pattern sees it.
    with pytest.raises(ValueError, match="unknown family member kind"):
        FamilyId("bogus", 1, 1)
    with pytest.raises(ValueError, match="unknown family member kind"):
        replace(FamilyId("double_run", 1, 1, ID, ID), kind="bogus")


# Values of the wrong type, or of the right type and out of range, put
# in place of one trace field at a time.
FUZZ_VALUES = ["a", None, 0.5, -1, ("a",), (1, "2"), [1, 2], ([0], [1])]
FUZZ_WORDS = [(0, 0, 1, 1, 2, 2), (0, 1, 0, 1), (1, 0, 1, 0), (0, 0, 0)]


def test_validate_returns_false_on_any_wrong_field():
    branches = set()
    for w in FUZZ_WORDS:
        _, _, trace = extract_witness(w, 1, 1)
        assert validate_trace(w, trace)
        branches.add(trace.branch)
        for f in fields(trace):
            own = getattr(trace, f.name)
            values = FUZZ_VALUES + [list(own)] if isinstance(own, tuple) else FUZZ_VALUES
            for value in values:
                if value != own:
                    bad = replace(trace, **{f.name: value})
                    assert validate_trace(w, bad) is False, (w, f.name, value)
    assert branches == {"constant", "double_run", "doubled_monotone"}


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
