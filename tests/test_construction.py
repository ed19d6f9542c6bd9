"""The low-repeat construction: parts, invariants, verification reports."""

import pytest

from oracles import longest_nondecreasing_len, longest_nonincreasing_len
from wordpat import construction
from wordpat.construction import (
    build,
    max_monotone_of_r,
    verify,
    verify_q_lemma,
)
from wordpat.guards import GuardExceeded
from wordpat.words import contains, multiplicities, repeats, standardise, subword


def test_build_smallest_case():
    parts = build(1, 1)
    assert parts.p == (1,)
    assert parts.t == (1,)
    assert parts.r == (1,)
    assert parts.r_prime == (1,)
    assert parts.q == (1, 1)
    assert parts.s == (1, 1)


def test_build_n2_parts():
    parts = build(2, 1)
    assert parts.p == (1, 2, 3, 4)
    assert parts.t == (1, 2)
    assert parts.r == (3, 4, 1, 2)
    assert parts.r_prime == (7, 8, 5, 6, 3, 4, 1, 2, 15, 16, 13, 14, 11, 12, 9, 10)
    assert len(parts.q) == 32
    assert len(parts.s) == 128


def test_build_n3_r():
    assert build(3, 1).r == (7, 8, 9, 4, 5, 6, 1, 2, 3)


def test_build_k2_t():
    parts = build(2, 2)
    assert parts.t == (1, 1, 2, 2)
    assert parts.r == (3, 3, 4, 4, 1, 1, 2, 2)


def test_build_rejects_bad_parameters():
    for n, k in [(0, 1), (1, 0), (-1, 1), (1, -1)]:
        with pytest.raises(ValueError):
            build(n, k)


@pytest.mark.parametrize("n", [1, 2, 3, 4])
@pytest.mark.parametrize("k", [1, 2, 3])
def test_part_lengths_and_multiplicities(n, k):
    parts = build(n, k)
    assert len(parts.p) == n * n
    assert len(parts.t) == k * n
    assert len(parts.r) == k * n * n
    assert len(parts.r_prime) == k * n**4
    assert len(parts.q) == (k + 1) * n**4
    assert len(parts.s) == (k + 1) * n**6
    # Every value of q and s occurs exactly k+1 times.
    assert set(multiplicities(parts.q).values()) == {k + 1}
    assert set(multiplicities(parts.s).values()) == {k + 1}
    assert repeats(parts.s) == k * n**6
    # r uses n^2 distinct values, each k times.
    assert set(multiplicities(parts.r).values()) == {k}
    assert len(set(parts.r)) == n * n


@pytest.mark.parametrize("n,k", [(2, 1), (3, 1), (2, 2), (3, 2)])
def test_q_block_value_sets_match(n, k):
    # The value set of each ascending-run block in the first half of q
    # equals the value set of exactly one block of the second half.
    parts = build(n, k)
    nn = n * n
    p_part = parts.q[: nn * nn]
    p_sets = [frozenset(p_part[i * nn : (i + 1) * nn]) for i in range(nn)]
    r_len = k * nn
    r_sets = [
        frozenset(parts.r_prime[i * r_len : (i + 1) * r_len]) for i in range(nn)
    ]
    assert sorted(p_sets, key=min) == sorted(r_sets, key=min)
    assert len(set(p_sets)) == nn


@pytest.mark.parametrize("n,k", [(1, 1), (2, 1), (2, 2), (3, 1)])
def test_s_values_stay_inside_one_q_block(n, k):
    parts = build(n, k)
    block = (k + 1) * n**4
    owner = {}
    for i, v in enumerate(parts.s):
        owner.setdefault(v, set()).add(i // block)
    assert all(len(blocks) == 1 for blocks in owner.values())


@pytest.mark.parametrize("n,k", [(1, 1), (2, 1), (3, 1), (1, 2), (1, 3)])
def test_verify_reports_all_avoided(n, k):
    report = verify(n, k)
    assert report.ok
    assert report.length == (k + 1) * n**6
    assert report.repeats == k * n**6
    assert report.multiplicity_ok
    assert all(report.avoided.values())
    assert set(report.avoided) == {"Constant"} | {
        f"DoubledMonotone({e})" for e in ("id", "rev")
    } | {f"DoubleRun({a},{b})" for a in ("id", "rev") for b in ("id", "rev")}


def test_verify_2_2_finds_two_double_runs():
    # At n = 2, k = 2 the construction genuinely contains the mixed
    # double runs 012210 and 210012 while still avoiding the other five
    # members; the length, repeat, and multiplicity guarantees hold.
    report = verify(2, 2)
    assert not report.ok
    assert report.length == 192
    assert report.repeats == 128
    assert report.multiplicity_ok
    assert report.avoided == {
        "Constant": True,
        "DoubledMonotone(id)": True,
        "DoubledMonotone(rev)": True,
        "DoubleRun(id,id)": True,
        "DoubleRun(id,rev)": False,
        "DoubleRun(rev,id)": False,
        "DoubleRun(rev,rev)": True,
    }


def test_verify_2_2_failures_are_real():
    # Cross-check with the general backtracking search on the shorter
    # intermediate word: the two mixed double runs really are present
    # and the two uniform ones really are absent.
    q = build(2, 2).q
    for pat in [(0, 1, 2, 2, 1, 0), (2, 1, 0, 0, 1, 2)]:
        occ = contains(q, pat)
        assert occ is not None
        assert standardise(subword(q, occ)) == pat
    for pat in [(0, 1, 2, 0, 1, 2), (2, 1, 0, 2, 1, 0)]:
        assert contains(q, pat) is None


@pytest.mark.parametrize("n", [1, 2, 3])
def test_verify_q_lemma_k1(n):
    report = verify_q_lemma(n, 1)
    assert report.ok
    assert report.length == 2 * n**4
    assert report.multiplicity_ok


def test_verify_q_lemma_2_2_flags_the_same_runs():
    report = verify_q_lemma(2, 2)
    assert not report.ok
    failing = {name for name, ok in report.avoided.items() if not ok}
    assert failing == {"DoubleRun(id,rev)", "DoubleRun(rev,id)"}


@pytest.mark.parametrize("n", [1, 2, 3])
@pytest.mark.parametrize("k", [1, 2, 3])
def test_verify_q_lemma_reports_the_q_of_build(n, k):
    q = build(n, k).q
    report = verify_q_lemma(n, k)
    assert report.length == len(q)
    assert report.repeats == repeats(q)
    assert report.multiplicity_ok == all(c == k + 1 for c in multiplicities(q).values())


def _record_longest_word(monkeypatch):
    """Wrap the combinators the construction is built with; the list
    returned holds the length of the longest word made since."""
    longest = [0]
    for name in ("concat", "direct_power", "skew_power"):

        def made(*args, combine=getattr(construction, name)):
            w = combine(*args)
            longest[0] = max(longest[0], len(w))
            return w

        monkeypatch.setattr(construction, name, made)
    return longest


def test_q_lemma_and_r_build_no_part_after_the_one_they_read(monkeypatch):
    # build(10, 1).s has 2 000 000 letters and build(12, 1).q 41 472.
    longest = _record_longest_word(monkeypatch)
    assert verify_q_lemma(10, 1).length == 20_000
    assert longest[0] == 20_000
    longest[0] = 0
    assert max_monotone_of_r(12, 1).longest == 12
    assert longest[0] == 144
    longest[0] = 0
    assert verify(2, 1).length == longest[0] == 128


def test_verify_report_to_dict():
    d = verify(1, 1).to_dict()
    assert set(d) == {"length", "repeats", "multiplicity_ok", "avoided", "elapsed_ms"}
    assert d["length"] == 2
    assert d["repeats"] == 1
    assert d["multiplicity_ok"] is True
    assert isinstance(d["elapsed_ms"], float)


@pytest.mark.parametrize("n", [1, 2, 3])
@pytest.mark.parametrize("k", [1, 2, 3])
def test_max_monotone_of_r(n, k):
    # Each of the n descending blocks of r is a non-decreasing run of
    # k*n letters, and one value's k copies per block stack into a
    # non-increasing subword of the same length.
    report = max_monotone_of_r(n, k)
    assert report.nondecreasing == k * n
    assert report.nonincreasing == k * n
    assert report.longest == k * n
    r = build(n, k).r
    assert report.nondecreasing == longest_nondecreasing_len(r)
    assert report.nonincreasing == longest_nonincreasing_len(r)


def test_verify_guard(monkeypatch):
    # The environment override is the CLI's; the library names only its
    # guard argument.
    monkeypatch.setenv("REPEATS_GUARD", "10000000")
    with pytest.raises(GuardExceeded) as exc:
        verify(7, 1)  # length 235298 over the default guard
    assert str(exc.value) == (
        "verification word for n=7, k=1 has size 235298, above the guard 100000; "
        "pass a larger guard argument to override"
    )
    with pytest.raises(GuardExceeded):
        verify(2, 1, guard=10)
    with pytest.raises(GuardExceeded):
        verify_q_lemma(2, 1, guard=10)
    with pytest.raises(ValueError):
        verify(0, 1)
    with pytest.raises(ValueError):
        verify_q_lemma(1, 0)


def test_build_deterministic():
    assert build(2, 2) == build(2, 2)
