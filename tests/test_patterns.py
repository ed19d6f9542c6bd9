"""Unavoidable-pattern families and the specialized containment checkers."""

import gc
import random
from collections import Counter
from dataclasses import replace

import pytest
from hypothesis import given, strategies as st

from oracles import (
    brute_contains,
    double_run_by_all_pairs,
    double_run_by_pair_chains,
    staircase_by_all_groups,
    xyxy_chain_levels,
)
from wordgen import word_with_repeats
from wordpat import patterns
from wordpat.construction import build, verify, verify_q_lemma
from wordpat.oracle import enumerate_balanced, enumerate_cayley, max_repeats_avoiding
from wordpat.patterns import (
    Direction,
    _Host,
    _pareto_insert,
    _rank_word,
    FamilyId,
    constant_pattern,
    contains_any_family,
    contains_constant,
    contains_double_run,
    contains_multiplied_monotone,
    double_run_pattern,
    family,
    family_mult,
    find_family_member,
    multiplied_monotone_pattern,
    run_pattern,
    base_pattern,
)
from wordpat.witness import extract_witness
from wordpat.words import contains, occurrences_by_value, reverse, standardise, subword

ID, REV = Direction.ID, Direction.REV
DIRS = (ID, REV)

hosts = st.lists(st.integers(min_value=0, max_value=5), max_size=12).map(tuple)


def test_pattern_builders():
    assert constant_pattern(3) == (0, 0, 0)
    assert multiplied_monotone_pattern(2, 2, ID) == (0, 0, 1, 1, 2, 2)
    assert multiplied_monotone_pattern(1, 3, REV) == (1, 1, 1, 0, 0, 0)
    assert run_pattern(2, REV) == (2, 1, 0)
    assert double_run_pattern(2, ID, REV) == (0, 1, 2, 2, 1, 0)
    assert double_run_pattern(1, REV, ID) == (1, 0, 0, 1)


def test_family_base_order_and_members():
    pats = [p for _, p in family(2, 1)]
    assert pats == [
        (0, 0, 0),
        (0, 0, 1, 1, 2, 2),
        (2, 2, 1, 1, 0, 0),
        (0, 1, 2, 0, 1, 2),
        (0, 1, 2, 2, 1, 0),
        (2, 1, 0, 0, 1, 2),
        (2, 1, 0, 2, 1, 0),
    ]
    names = [str(fid) for fid, _ in family(2, 1)]
    assert names == [
        "Constant",
        "DoubledMonotone(id)",
        "DoubledMonotone(rev)",
        "DoubleRun(id,id)",
        "DoubleRun(id,rev)",
        "DoubleRun(rev,id)",
        "DoubleRun(rev,rev)",
    ]


def test_family_small_cases():
    assert [p for _, p in family(1, 1)] == [
        (0, 0, 0),
        (0, 0, 1, 1),
        (1, 1, 0, 0),
        (0, 1, 0, 1),
        (0, 1, 1, 0),
        (1, 0, 0, 1),
        (1, 0, 1, 0),
    ]
    # Degenerate n = 0: all monotone members collapse to 00.
    assert [p for _, p in family(0, 1)] == [(0, 0, 0), (0, 0)]
    assert [p for _, p in family_mult(0, 1)] == [(0, 0)]


def test_family_mult_members():
    assert [p for _, p in family_mult(1, 1)] == [
        (0, 0, 1, 1),
        (1, 1, 0, 0),
        (0, 1, 0, 1),
        (0, 1, 1, 0),
        (1, 0, 0, 1),
        (1, 0, 1, 0),
    ]
    assert [p for _, p in family_mult(1, 2)] == [
        (0, 0, 0, 1, 1, 1),
        (1, 1, 1, 0, 0, 0),
        (0, 1, 0, 1),
        (0, 1, 1, 0),
        (1, 0, 0, 1),
        (1, 0, 1, 0),
    ]


@pytest.mark.parametrize("n", [1, 2, 3])
def test_family_k1_coincidence(n):
    # At k = 1 the doubled staircases of both families are the same patterns.
    base = [p for _, p in family(n, 1)]
    mult = [p for _, p in family_mult(n, 1)]
    assert base[1:3] == mult[0:2]


def test_family_lists_are_fresh_per_call():
    base = family(1, 1)
    base.clear()
    assert len(family(1, 1)) == 7
    balanced = family_mult(1, 1)
    balanced.pop()
    assert len(family_mult(1, 1)) == 6
    # The member list contains_any_family walks is untouched as well.
    assert contains_any_family((0, 1, 0, 1), 1, 1)[0] == FamilyId("double_run", 1, 1, ID, ID)


def test_family_rejects_bad_parameters():
    with pytest.raises(ValueError):
        family(-1, 1)
    with pytest.raises(ValueError):
        family(1, 0)
    with pytest.raises(ValueError):
        family_mult(1, 0)
    # k < 1 and n, k or mult that are not ints raise ValueError, not
    # TypeError, as the member is made.
    for args in [("constant", 1, -1), ("constant", 1, 0), ("double_run", 1.5, 1, ID, ID), ("constant", "1", 1)]:
        with pytest.raises(ValueError):
            FamilyId(*args)


def test_contains_constant_examples():
    assert contains_constant((0, 0, 0, 0), 4) == (1, 2, 3, 4)
    # Value 0 reaches three occurrences before value 1 could.
    assert contains_constant((0, 0, 1, 1, 0), 3) == (1, 2, 5)
    assert contains_constant((0, 1, 1, 0), 3) is None
    assert contains_constant((7,), 1) == (1,)
    with pytest.raises(ValueError):
        contains_constant((0,), 0)


def test_contains_multiplied_monotone_examples():
    assert contains_multiplied_monotone((0, 0, 1, 1, 2, 2), 2, 2, ID) == (1, 2, 3, 4, 5, 6)
    assert contains_multiplied_monotone((2, 2, 1, 1, 0, 0), 2, 2, REV) == (1, 2, 3, 4, 5, 6)
    # The groups must be position-disjoint in order; 0101 interleaves.
    assert contains_multiplied_monotone((0, 1, 0, 1), 1, 2, ID) is None
    assert contains_multiplied_monotone((0, 1), 1, 2, ID) is None


def test_contains_double_run_examples():
    assert contains_double_run((0, 1, 2, 0, 1, 2), 2, ID, ID) == (1, 2, 3, 4, 5, 6)
    assert contains_double_run((0, 1, 2, 2, 1, 0), 2, ID, REV) == (1, 2, 3, 4, 5, 6)
    assert contains_double_run((2, 1, 0, 0, 1, 2), 2, REV, ID) == (1, 2, 3, 4, 5, 6)
    assert contains_double_run((2, 1, 0, 2, 1, 0), 2, REV, REV) == (1, 2, 3, 4, 5, 6)
    assert contains_double_run((0, 1, 0, 1), 1, ID, ID) == (1, 2, 3, 4)
    assert contains_double_run((0, 1, 2, 1, 0), 2, ID, REV) is None


def test_staircase_member_checks_its_own_group_size():
    base, pattern = family(1, 2)[1]
    assert base == FamilyId("doubled_monotone", 1, 2, ID) and pattern == (0, 0, 1, 1)
    balanced, pattern = family_mult(1, 2)[0]
    assert balanced == FamilyId("doubled_monotone", 1, 2, ID, mult=3) and pattern == (0, 0, 0, 1, 1, 1)
    w = (0, 0, 0, 1, 1, 1)
    assert find_family_member(w, base) == (1, 2, 4, 5)
    assert find_family_member(w, balanced) == (1, 2, 3, 4, 5, 6)
    # The balanced staircase is 000111, so 0011 does not hold it.
    assert find_family_member((0, 0, 1, 1), balanced) is None


def _find_new_member(w, *member):
    return find_family_member(w, FamilyId(*member))


# (label, checker, arguments) with n < 0, a group size below 1 or an
# orientation that is not a Direction; a member with one raises as it
# is made.
OUT_OF_DOMAIN = [
    *(
        (f"double run n=-1 {e1},{e2}", contains_double_run, ((0, 1, 0, 1), -1, e1, e2))
        for e1 in DIRS
        for e2 in DIRS
    ),
    *((f"staircase mult=0 {e}", contains_multiplied_monotone, ((1, 2), 1, 0, e)) for e in DIRS),
    *((f"staircase n=-1 {e}", contains_multiplied_monotone, ((1, 2), -1, 1, e)) for e in DIRS),
    ("member mult=0", _find_new_member, ((0, 0, 1, 1), "doubled_monotone", 1, 1, ID, None, 0)),
    ("member n=-1", _find_new_member, ((0, 1, 0, 1), "double_run", -1, 1, ID, ID)),
    # The strings str(fid) prints, and None, are not orientations.
    ("double run rev,rev as strings", contains_double_run, ((2, 1, 0, 2, 1, 0), 2, "rev", "rev")),
    ("double run e1 string", contains_double_run, ((0, 1, 1, 0), 1, "id", REV)),
    ("double run e2 None", contains_double_run, ((0, 1, 0, 1), 1, ID, None)),
    ("double run n=0 e1 string", contains_double_run, ((0, 0), 0, "rev", ID)),
    ("staircase rev as a string", contains_multiplied_monotone, ((1, 1, 0, 0), 1, 2, "rev")),
    ("staircase None", contains_multiplied_monotone, ((0, 0, 1, 1), 1, 2, None)),
    ("member rev,rev as strings", _find_new_member, ((2, 1, 0, 2, 1, 0), "double_run", 2, 1, "rev", "rev")),
    ("member n=0 e1 string", _find_new_member, ((0, 0), "double_run", 0, 1, "rev", ID)),
    ("member staircase without e1", _find_new_member, ((0, 0, 1, 1), "doubled_monotone", 1, 1)),
]
# The same cases on a shared host, which takes the same way in.
OUT_OF_DOMAIN += [
    (f"{label} on a host", check, (_Host(args[0]), *args[1:])) for label, check, args in OUT_OF_DOMAIN
]


@pytest.mark.parametrize(
    "check, args", [case[1:] for case in OUT_OF_DOMAIN], ids=[case[0] for case in OUT_OF_DOMAIN]
)
def test_out_of_domain_checker_parameters_raise_value_error(check, args):
    with pytest.raises(ValueError, match="need ints n >= 0, k >= 1 and mult >= 1|must be a Direction"):
        check(*args)


# (changes to a valid member) that make it invalid.
BAD_MEMBERS = [
    ("unknown kind", dict(kind="bogus")),
    ("n=-1", dict(n=-1)),
    ("mult=0", dict(mult=0)),
    ("k=0", dict(k=0)),
    ("n a float", dict(n=1.5)),
    ("k a string", dict(k="1")),
    ("mult None", dict(mult=None)),
    ("e1 a string", dict(e1="id")),
    ("e2 a string", dict(e2="rev")),
    ("e1 None", dict(e1=None)),
    ("e2 None", dict(e2=None)),
]


@pytest.mark.parametrize("changes", [c[1] for c in BAD_MEMBERS], ids=[c[0] for c in BAD_MEMBERS])
def test_invalid_member_raises_when_made(changes):
    member = dict(kind="double_run", n=1, k=1, e1=ID, e2=REV, mult=2)
    match = "unknown family member kind|need ints n >= 0, k >= 1 and mult >= 1|must be a Direction"
    with pytest.raises(ValueError, match=match):
        FamilyId(**{**member, **changes})
    with pytest.raises(ValueError, match=match):
        replace(FamilyId(**member), **changes)


def test_base_pattern_matches_family():
    for n, k in [(0, 1), (1, 1), (2, 1), (1, 2), (2, 3)]:
        for fid, pat in family(n, k) + family_mult(n, k):
            assert base_pattern(fid) == pat


def test_contains_any_family_examples():
    assert contains_any_family((0, 0, 0), 1, 1) == (
        FamilyId("constant", 1, 1),
        (1, 2, 3),
    )
    assert contains_any_family((1, 1), 1, 1) is None
    fid, occ = contains_any_family((0, 1, 0, 1), 1, 1)
    assert str(fid) == "DoubleRun(id,id)"
    assert occ == (1, 2, 3, 4)
    # Dispatcher picks the first member in the fixed order.
    fid, _ = contains_any_family((0, 0, 0, 1, 1, 1), 1, 1)
    assert str(fid) == "Constant"


@given(hosts, st.integers(min_value=1, max_value=4))
def test_constant_checker_matches_oracle(w, m):
    occ = contains_constant(w, m)
    brute = brute_contains(w, (0,) * m)
    assert (occ is None) == (brute is None)
    if occ is not None:
        assert len(set(subword(w, occ))) == 1
        assert len(occ) == m
    # The first m positions of the value whose m-th occurrence comes first.
    end = next((i for i in range(1, len(w) + 1) if w[:i].count(w[i - 1]) == m), None)
    if end is not None:
        assert occ == tuple(p for p in range(1, end + 1) if w[p - 1] == w[end - 1])
    assert (occ is None) == (end is None)
    assert contains_constant(_Host(w), m) == contains_constant(list(w), m) == occ


@given(
    hosts,
    st.integers(min_value=0, max_value=2),
    st.integers(min_value=1, max_value=3),
    st.sampled_from([ID, REV]),
)
def test_multiplied_monotone_checker_matches_oracle(w, n, mult, e):
    occ = contains_multiplied_monotone(w, n, mult, e)
    pat = multiplied_monotone_pattern(n, mult, e)
    brute = brute_contains(w, pat)
    assert (occ is None) == (brute is None)
    if occ is not None:
        assert standardise(subword(w, occ)) == pat


@given(
    hosts,
    st.integers(min_value=0, max_value=2),
    st.sampled_from([ID, REV]),
    st.sampled_from([ID, REV]),
)
def test_double_run_checker_matches_oracle(w, n, e1, e2):
    occ = contains_double_run(w, n, e1, e2)
    pat = standardise(double_run_pattern(n, e1, e2))
    brute = brute_contains(w, pat)
    assert (occ is None) == (brute is None)
    if occ is not None:
        assert standardise(subword(w, occ)) == pat


@given(
    hosts,
    st.integers(min_value=0, max_value=2),
    st.sampled_from([ID, REV]),
    st.sampled_from([ID, REV]),
)
def test_double_run_reversal_symmetry(w, n, e1, e2):
    forward = contains_double_run(w, n, e1, e2)
    mirrored = contains_double_run(reverse(w), n, e2.flip(), e1.flip())
    assert (forward is None) == (mirrored is None)


@given(hosts, st.integers(min_value=1, max_value=2), st.integers(min_value=1, max_value=2))
def test_any_family_occurrence_validates(w, n, k):
    found = contains_any_family(w, n, k)
    if found is not None:
        fid, occ = found
        assert standardise(subword(w, occ)) == base_pattern(fid)


def _sorted_word(m):
    return (0,) * m + (1,) * m


def _balanced_uniform_word(seed, values, copies):
    w = [v for v in range(values) for _ in range(copies)]
    random.Random(seed).shuffle(w)
    return tuple(w)


def _block_word(seed, n):
    # Runs of 5..25 equal letters over n+2 values: long stretches of one
    # value, and a mix of present and absent double runs.
    rng = random.Random(seed)
    runs = [(rng.randrange(n + 2), rng.randint(5, 25)) for _ in range(3 * n + 4)]
    return tuple(v for v, length in runs for _ in range(length))


def _mixed_multiplicity_word(seed, values, low, high):
    rng = random.Random(seed)
    w = [v for v in range(values) for _ in range(rng.randint(low, high))]
    rng.shuffle(w)
    return tuple(w)


def _swapped_word(seed, w, swaps):
    # A construction word with random adjacent letters swapped: most
    # ascending pivots are still rejected by the patience bound, and some
    # pass it with or without a chain behind them.
    rng = random.Random(seed)
    w = list(w)
    for _ in range(swaps):
        i = rng.randrange(len(w) - 1)
        w[i], w[i + 1] = w[i + 1], w[i]
    return tuple(w)


# (label, word, n, double runs that must occur): high-multiplicity hosts
# where the cuts of the double-run searches are actually exercised.
DOUBLE_RUN_HOSTS = [
    *((f"sorted 2x{m}", _sorted_word(m), 1, set()) for m in (2, 7, 40, 300)),
    *(
        (f"uniform n={n} seed={seed}", _balanced_uniform_word(seed, 12, copies), n, None)
        for seed in (1, 2)
        for n, copies in ((1, 30), (2, 25), (3, 25), (4, 20))
    ),
    *(
        (f"blocks n={n} seed={seed}", _block_word(seed, n), n, None)
        for seed in (1, 2, 3)
        for n in (1, 2, 3)
    ),
    *(
        (f"build({n},1).{part}", getattr(build(n, 1), part), n, set())
        for n in (1, 2, 3)
        for part in "qs"
    ),
    *(
        (f"build(2,{k}).s", build(2, k).s, 2, {(ID, REV), (REV, ID)})
        for k in (2, 3, 5)
    ),
    # Values occurring 3-6 times, so the patience tails of a pivot value
    # carry over several of its later occurrences.
    *(
        (f"mult 3-6 n={n} seed={seed}", _mixed_multiplicity_word(seed, values, 3, 6), n, None)
        for n, values, seed in ((2, 8, 2), (3, 14, 2), (4, 45, 4))
    ),
    *(
        (f"build(2,{k}).s swapped {m} seed={seed}", _swapped_word(seed, build(2, k).s, m), 2, None)
        for k in (2, 3, 5)
        for m, seed in ((20, 1), (20, 2), (80, 2))
    ),
    *(
        (f"build(3,2).s swapped {m} seed={seed}", _swapped_word(seed, build(3, 2).s, m), 3, None)
        for m, seed in ((40, 2), (200, 1))
    ),
    # The chain levels are built, and a (rev,rev) run found after that.
    (
        "build(3,1).s swapped 8 seed=5",
        _swapped_word(5, build(3, 1).s, 8),
        3,
        {(ID, REV), (REV, ID), (REV, REV)},
    ),
    # The pivot (1, 4) passes the bound on 1 < 2 at positions 2 < 3, but
    # their later occurrences 6 > 5 run the wrong way: no (id,id) chain.
    ("pivot passes, no chain", (0, 1, 2, 0, 2, 1), 2, set()),
    # Only the pivot (1, 5) has a chain, through the 1 at position 2,
    # which lies before the previous pivot's end at 3.
    ("chain spans two pivots", (0, 1, 0, 2, 0, 1, 2), 2, {(ID, ID)}),
    # Each chain value occurs again right after q_0, at the earliest.
    ("the pattern itself", double_run_pattern(2, ID, ID), 2, {(ID, ID)}),
]


@pytest.mark.parametrize(
    "w, n, present", [h[1:] for h in DOUBLE_RUN_HOSTS], ids=[h[0] for h in DOUBLE_RUN_HOSTS]
)
def test_double_run_checkers_match_all_pairs_reference(w, n, present):
    for e1 in (ID, REV):
        for e2 in (ID, REV):
            pattern = standardise(double_run_pattern(n, e1, e2))
            occ = contains_double_run(w, n, e1, e2)
            ref = double_run_by_all_pairs(w, n, str(e1), str(e2))
            assert (occ is None) == (ref is None), (e1, e2, occ, ref)
            if present is not None:
                assert (occ is not None) == ((e1, e2) in present), (e1, e2)
            for found in (occ, ref):
                if found is not None:
                    assert standardise(subword(w, found)) == pattern


@pytest.mark.parametrize(
    "w, n", [h[1:3] for h in DOUBLE_RUN_HOSTS[::3]], ids=[h[0] for h in DOUBLE_RUN_HOSTS[::3]]
)
def test_constant_answer_does_not_depend_on_the_checks_before_it(w, n):
    for k in (1, 3, 40):
        constant, *others = [fid for fid, _ in family(n, k)]
        first, last = _Host(w), _Host(w)
        for fid in others:
            find_family_member(last, fid)
        assert find_family_member(last, constant) == find_family_member(first, constant)
        assert contains_constant(last, k + 2) == contains_constant(w, k + 2)


@given(
    st.lists(st.integers(2, 5), min_size=1, max_size=10).flatmap(
        lambda counts: st.permutations([v for v, c in enumerate(counts) for _ in range(c)])
    ),
    st.integers(min_value=0, max_value=3),
)
def test_ascending_double_runs_match_all_pairs_on_repeated_letters(w, n):
    # At n = 0 each of the four shapes is two occurrences of one value.
    w = tuple(w)
    shapes = [(e1, e2) for e1 in DIRS for e2 in DIRS] if n == 0 else [(e, e) for e in DIRS]
    for e1, e2 in shapes:
        occ = contains_double_run(w, n, e1, e2)
        ref = double_run_by_all_pairs(w, n, str(e1), str(e2))
        assert (occ is None) == (ref is None), (e1, e2, occ, ref)
        if occ is not None:
            assert standardise(subword(w, occ)) == standardise(double_run_pattern(n, e1, e2))


def _library_crossings(w, e):
    return patterns._crossings(*_rank_word(_Host(w).occ(e), len(w)))


def _library_levels(w, e):
    # The crossings swept in either orientation serve both, reversed.
    assert _library_crossings(w, REV) == _library_crossings(w, ID)[::-1]
    levels = []
    for sweep in DIRS:
        host = _Host(w)
        swept = patterns._chain_levels(host, sweep, *_rank_word(host.occ(sweep), len(w)))
        # One pair, (ID, REV), holds both orientations' levels.
        assert swept is host._levels[DIRS.index(sweep)]
        levels.append(host._levels[DIRS.index(e)])
    assert levels[0] == levels[1]
    return levels[0]


def _assert_levels_match_xyxy_reference(w):
    complement = tuple(max(w, default=0) - v for v in w)
    assert _library_levels(w, ID) == xyxy_chain_levels(w)
    assert _library_levels(w, REV) == xyxy_chain_levels(complement)


@pytest.mark.parametrize(
    "w", [h[1] for h in DOUBLE_RUN_HOSTS], ids=[h[0] for h in DOUBLE_RUN_HOSTS]
)
def test_chain_levels_match_xyxy_reference_on_hosts(w):
    _assert_levels_match_xyxy_reference(w)


@given(
    st.lists(st.integers(1, 6), min_size=1, max_size=9).flatmap(
        lambda counts: st.permutations([v for v, c in enumerate(counts) for _ in range(c)])
    )
)
def test_chain_levels_match_xyxy_reference(w):
    _assert_levels_match_xyxy_reference(tuple(w))


@pytest.mark.parametrize("n", [1, 2, 3])
def test_construction_chain_levels_reach_exactly_n(n):
    # So every pivot value of a construction word is rejected once the
    # levels stand.
    for e in DIRS:
        assert max(_library_levels(build(n, 1).s, e)) == n


def _count_level_builds(monkeypatch):
    # One sweep of the word builds the levels of both orientations.
    counts = Counter()
    crossings = patterns._crossings

    def counting_crossings(*args):
        swept = crossings(*args)
        counts["built"] += 1
        return swept

    monkeypatch.setattr(patterns, "_crossings", counting_crossings)
    return counts


# Label -> the orientations whose ascending search builds the chain levels.
LEVELS_BUILT = {
    "build(3,1).s": {ID, REV},
    "build(3,1).q": {ID, REV},
    "build(3,2).s swapped 40 seed=2": {ID, REV},
    "build(3,2).s swapped 200 seed=1": {ID},
    "build(3,1).s swapped 8 seed=5": {ID, REV},
}
LEVEL_BUILD_HOSTS = [
    h for h in DOUBLE_RUN_HOSTS if h[0] in LEVELS_BUILT or h[0].startswith(("sorted", "uniform"))
]


@pytest.mark.parametrize(
    "label, w, n, present", LEVEL_BUILD_HOSTS, ids=[h[0] for h in LEVEL_BUILD_HOSTS]
)
def test_chain_levels_are_built_once_the_scan_budget_is_spent(monkeypatch, label, w, n, present):
    counts = _count_level_builds(monkeypatch)
    for e in DIRS:
        counts.clear()
        # A fresh host each time: a shared one would hold the other
        # orientation's levels.
        found = find_family_member(_Host(w), FamilyId("double_run", n, 1, e, e))
        assert counts["built"] == (e in LEVELS_BUILT.get(label, ())), e
        if present is not None:
            assert (found is not None) == ((e, e) in present), e


@pytest.mark.parametrize("first", DIRS)
def test_one_sweep_serves_both_orientations_of_a_host(monkeypatch, first):
    counts = _count_level_builds(monkeypatch)
    host = _Host(build(3, 1).s)
    for e in (first, first.flip()):
        assert find_family_member(host, FamilyId("double_run", 3, 1, e, e)) is None
    assert counts["built"] == 1


def test_no_construction_pivot_is_scanned_once_the_levels_stand(monkeypatch):
    # Each letter the pivot scan admits costs one bisection; on a
    # construction word every pivot value's level is at most n, so after
    # the levels are built no letter is admitted.
    counts = _count_level_builds(monkeypatch)
    bisect_left = patterns.bisect_left

    def counting_bisect_left(*args):
        counts["after levels" if counts["built"] else "before levels"] += 1
        return bisect_left(*args)

    monkeypatch.setattr(patterns, "bisect_left", counting_bisect_left)
    for e in DIRS:
        counts.clear()
        assert find_family_member(_Host(build(3, 1).s), FamilyId("double_run", 3, 1, e, e)) is None
        assert counts["built"] == 1
        assert counts["before levels"] > 0
        assert counts["after levels"] == 0


@pytest.mark.parametrize("first", DIRS)
def test_a_later_ascending_call_reads_the_levels_at_once(monkeypatch, first):
    # The first call sets the levels of both orientations; the second
    # admits no letter to its pivot scan, so it makes no bisection.
    host = _Host(build(3, 1).s)
    assert find_family_member(host, FamilyId("double_run", 3, 1, first, first)) is None
    counts = _count_level_builds(monkeypatch)
    bisect_left = patterns.bisect_left

    def counting_bisect_left(*args):
        counts["bisections"] += 1
        return bisect_left(*args)

    monkeypatch.setattr(patterns, "bisect_left", counting_bisect_left)
    second = first.flip()
    assert find_family_member(host, FamilyId("double_run", 3, 1, second, second)) is None
    assert counts == Counter()


def test_levels_are_set_only_once_complete(monkeypatch):
    # A thread sharing the host would read a rank not yet filled as level
    # 0 and skip its pivot value.
    host = _Host(build(3, 1).s)
    calls = Counter()

    def checking_max(*args, **kwargs):
        calls["max"] += 1
        assert host._levels is None or all(0 not in levels for levels in host._levels)
        return max(*args, **kwargs)

    monkeypatch.setattr(patterns, "max", checking_max, raising=False)
    assert find_family_member(host, FamilyId("double_run", 3, 1, ID, ID)) is None
    assert calls["max"] > 0


def _every_member_then_both_ascending_again():
    host = _Host(build(3, 1).s)
    for fid, _ in family(3, 1):
        find_family_member(host, fid)
    for e in DIRS:
        find_family_member(host, FamilyId("double_run", 3, 1, e, e))


def _every_member_raw_then_both_ascending_again():
    w = build(3, 1).s
    for fid, _ in family(3, 1):
        find_family_member(w, fid)
    for e in DIRS:
        contains_double_run(w, 3, e, e)
    contains_double_run(list(w), 3, ID, ID)


@pytest.mark.parametrize(
    "call",
    [
        lambda: verify(3, 1),
        lambda: contains_any_family(build(3, 1).s, 3, 1),
        _every_member_then_both_ascending_again,
        _every_member_raw_then_both_ascending_again,
        lambda: extract_witness(word_with_repeats(random.Random(3), 65, 1), 2, 1),
        lambda: contains((0, 1, 0, 1), (0, 0)),
        lambda: list(enumerate_cayley(5)),
        lambda: list(enumerate_balanced(3, 2)),
        lambda: max_repeats_avoiding(1, 1, 3),
    ],
    ids=[
        "verify", "contains_any_family", "shared host", "raw word", "extract_witness",
        "contains", "enumerate_cayley", "enumerate_balanced", "max_repeats_avoiding",
    ],
)
def test_checks_leave_no_reference_cycles(call):
    # A cycle would keep every host alive until the cyclic collector ran.
    gc.collect()
    gc.disable()
    try:
        call()
        assert gc.collect() == 0
    finally:
        gc.enable()


def _assert_matches_pair_chains(w, n):
    for e1 in DIRS:
        for e2 in DIRS:
            pattern = standardise(double_run_pattern(n, e1, e2))
            # Raw calls share one kept host, so all but the first read
            # levels swept before; a fresh host sweeps them in e1's order.
            raw = contains_double_run(w, n, e1, e2)
            fresh = find_family_member(_Host(w), FamilyId("double_run", n, 1, e1, e2))
            ref = double_run_by_pair_chains(w, n, str(e1), str(e2))
            for occ in (raw, fresh):
                assert (occ is None) == (ref is None), (e1, e2, occ, ref)
            for found in (raw, fresh, ref):
                if found is not None:
                    assert standardise(subword(w, found)) == pattern


# (label, word, n): construction words the pair-chain reference runs on
# in tier-1; build(4,1).s takes it seconds and is marked slow below.
PAIR_CHAIN_HOSTS = [
    *((f"build({n},1).{part}", getattr(build(n, 1), part), n) for n in (1, 2, 3) for part in "qs"),
    *((f"build(2,{k}).s", build(2, k).s, 2) for k in (2, 3)),
    *(
        (f"build(2,2).s swapped 20 seed={seed}", _swapped_word(seed, build(2, 2).s, 20), 2)
        for seed in (1, 2)
    ),
]


@pytest.mark.parametrize(
    "w, n", [h[1:] for h in PAIR_CHAIN_HOSTS], ids=[h[0] for h in PAIR_CHAIN_HOSTS]
)
def test_double_run_checkers_match_pair_chain_reference_on_construction_words(w, n):
    _assert_matches_pair_chains(w, n)


@given(
    st.lists(st.integers(1, 4), min_size=1, max_size=7).flatmap(
        lambda counts: st.permutations([v for v, c in enumerate(counts) for _ in range(c)])
    ),
    st.integers(min_value=0, max_value=3),
)
def test_double_run_checkers_match_pair_chain_reference(w, n):
    _assert_matches_pair_chains(tuple(w), n)


def _falling_window_word(m):
    # 0 d_1 0 d_2 ... 0 d_m 0 d_1 ... d_m with d_i = m + 1 - i.  One letter
    # stands between consecutive 0s and those fall, so no pivot of 0
    # passes the patience bound at n = 2; no pivot of a d_i does either,
    # since no larger value recurs after it.
    d = range(m, 0, -1)
    return tuple(x for v in d for x in (0, v)) + (0, *d)


def _count_grow(monkeypatch):
    calls = Counter()
    grow = patterns._grow

    def counting_grow(*args):
        calls["grow"] += 1
        return grow(*args)

    monkeypatch.setattr(patterns, "_grow", counting_grow)
    return calls


def test_patience_bound_rejects_every_pivot_of_a_falling_window(monkeypatch):
    # Without the bound each pivot of 0 would grow chains over every d
    # before it, and the levels would be built only after that.
    calls = _count_grow(monkeypatch)
    assert contains_double_run(_falling_window_word(200), 2, ID, ID) is None
    assert calls["grow"] == 0


# Label -> the _grow calls of the (id,id) and the (rev,rev) check on a
# fresh host; hosts not listed make none.  A pivot grows chains by a value only if
# it occurs inside the pivot's window and after it, so a wider window
# shows here.
GROW_CALLS = {
    "uniform n=1 seed=1": (1, 1), "uniform n=2 seed=1": (2, 2), "uniform n=3 seed=1": (4, 4),
    "uniform n=4 seed=1": (5, 4), "uniform n=1 seed=2": (1, 1), "uniform n=2 seed=2": (2, 2),
    "uniform n=3 seed=2": (4, 3), "uniform n=4 seed=2": (7, 6), "blocks n=1 seed=1": (1, 0),
    "blocks n=2 seed=2": (2, 0), "blocks n=3 seed=2": (16, 0), "blocks n=1 seed=3": (0, 1),
    "mult 3-6 n=2 seed=2": (11, 5), "mult 3-6 n=3 seed=2": (10, 4), "mult 3-6 n=4 seed=4": (7, 15),
    "build(2,2).s swapped 20 seed=1": (3, 3), "build(2,2).s swapped 20 seed=2": (9, 42),
    "build(2,2).s swapped 80 seed=2": (18, 3), "build(2,3).s swapped 20 seed=1": (8, 2),
    "build(2,3).s swapped 20 seed=2": (8, 63), "build(2,3).s swapped 80 seed=2": (16, 153),
    "build(2,5).s swapped 20 seed=1": (6, 2), "build(2,5).s swapped 20 seed=2": (0, 82),
    "build(2,5).s swapped 80 seed=2": (12, 162), "build(3,2).s swapped 40 seed=2": (5, 340),
    "build(3,2).s swapped 200 seed=1": (15, 1309), "build(3,1).s swapped 8 seed=5": (3, 11),
    "pivot passes, no chain": (2, 0), "chain spans two pivots": (2, 0), "the pattern itself": (2, 0),
}


# LEVEL_BUILD_HOSTS are among these.
@pytest.mark.parametrize(
    "label, w, n, present", DOUBLE_RUN_HOSTS, ids=[h[0] for h in DOUBLE_RUN_HOSTS]
)
def test_ascending_checks_grow_chains_as_often_as_pinned(monkeypatch, label, w, n, present):
    calls = _count_grow(monkeypatch)
    for e, pinned in zip(DIRS, GROW_CALLS.get(label, (0, 0))):
        calls.clear()
        find_family_member(_Host(w), FamilyId("double_run", n, 1, e, e))
        assert calls["grow"] == pinned, e


@pytest.mark.parametrize("m", [2, 5, 9])
def test_falling_window_word_matches_pair_chain_reference(m):
    w = _falling_window_word(m)
    assert double_run_by_pair_chains(w, 2, "id", "id") is None
    _assert_matches_pair_chains(w, 2)


def _assert_double_runs_absent_by_pair_chains(n):
    # All four double runs over n + 1 values are absent from build(n, 1).s,
    # by an argument sharing no cut with the library.
    s = build(n, 1).s
    for e1 in DIRS:
        for e2 in DIRS:
            assert double_run_by_pair_chains(s, n, str(e1), str(e2)) is None
            assert contains_double_run(s, n, e1, e2) is None


@pytest.mark.slow
def test_verify_4_1_double_runs_absent_by_pair_chains():
    _assert_double_runs_absent_by_pair_chains(4)  # 8192 letters


@pytest.mark.slow
def test_verify_5_1_double_runs_absent_by_pair_chains():
    _assert_double_runs_absent_by_pair_chains(5)  # 31 250 letters


# (label, word, n, group size): hosts where the staircase search keeps
# long chains and many candidate groups per value.
STAIRCASE_HOSTS = [
    *(
        (f"build({n},{k}).s n={m} mult={mult}", build(n, k).s, m, mult)
        for n in (1, 2, 3)
        for k in (1, 2)
        for mult in sorted({2, k + 1})
        for m in (n - 1, n)
    ),
    *(
        (f"sorted 2x{m} mult={mult}", _sorted_word(m), 1, mult)
        for m in (2, 7, 40, 300)
        for mult in sorted({2, m, m + 1})
    ),
    *(
        (f"uniform 12x{copies} n={n} seed={seed} mult={mult}",
         _balanced_uniform_word(seed, 12, copies), n, mult)
        for seed in (1, 2)
        for n, copies in ((1, 30), (2, 25), (3, 25), (4, 20))
        for mult in (2, 8)
    ),
    *(
        (f"build(2,{k}).s swapped {m} seed={seed} mult={mult}",
         _swapped_word(seed, build(2, k).s, m), 2, mult)
        for k in (2, 3, 5)
        for m, seed in ((20, 1), (20, 2), (80, 2))
        for mult in (2, k + 1)
    ),
    *(
        (f"build(3,2).s swapped {m} seed={seed} mult={mult}",
         _swapped_word(seed, build(3, 2).s, m), 3, mult)
        for m, seed in ((40, 2), (200, 1))
        for mult in (2, 3)
    ),
]


@pytest.mark.parametrize(
    "w, n, mult", [h[1:] for h in STAIRCASE_HOSTS], ids=[h[0] for h in STAIRCASE_HOSTS]
)
def test_staircase_checker_matches_all_groups_reference(w, n, mult):
    for e in (ID, REV):
        pattern = multiplied_monotone_pattern(n, mult, e)
        occ = contains_multiplied_monotone(w, n, mult, e)
        ref = staircase_by_all_groups(w, n, mult, str(e))
        assert (occ is None) == (ref is None), (e, occ, ref)
        for found in (occ, ref):
            if found is not None:
                assert standardise(subword(w, found)) == pattern


@pytest.mark.parametrize("n", [1, 2])
@pytest.mark.parametrize("e2", DIRS)
def test_nested_seeds_of_one_value_append_to_the_front(monkeypatch, n, e2):
    # Seeding in rising position would put each seed at the head of the
    # front and shift all the others: quadratic in the value's multiplicity.
    inserts = 0
    insert = patterns._pareto_insert

    def checking_insert(front, state):
        nonlocal inserts
        inserts += 1
        insert(front, state)
        assert front[2][-1] is state, (len(front[2]), state)

    monkeypatch.setattr(patterns, "_pareto_insert", checking_insert)
    assert contains_double_run((7,) * 300, n, e2.flip(), e2) is None
    assert inserts == 299


@given(st.lists(st.tuples(st.integers(-6, 6), st.integers(-6, 6)), max_size=30))
def test_pareto_front_keeps_exactly_the_minimal_states(points):
    front = ([], [], [])
    for a, b in points:
        _pareto_insert(front, (a, b, None))
    minimal = {
        p for p in points if not any(o != p and o[0] <= p[0] and o[1] <= p[1] for o in points)
    }
    A, B, S = front
    assert list(zip(A, B)) == sorted(minimal)
    assert [state[:2] for state in S] == list(zip(A, B))


def _assert_fronts_nest(fronts):
    # Each front is an antichain, and each state of fronts[L+1] is dominated
    # by one of fronts[L]: the growth may stop at the first length a key
    # cannot extend.
    for A, B, S in fronts:
        assert A == sorted(set(A)) and B == sorted(set(B), reverse=True)
        assert [state[:2] for state in S] == list(zip(A, B))
    for (A, B, _), (longer_A, longer_B, _) in zip(fronts, fronts[1:]):
        for a, b in zip(longer_A, longer_B):
            assert any(x <= a and y <= b for x, y in zip(A, B)), (a, b, A, B)


@given(
    st.lists(st.integers(1, 5), min_size=1, max_size=9).flatmap(
        lambda counts: st.permutations([v for v, c in enumerate(counts) for _ in range(c)])
    ),
    st.integers(min_value=1, max_value=3),
)
def test_each_longer_state_is_dominated_by_a_shorter_one(w, n):
    # Checked before each value grows the fronts, so after the one before
    # it, and once the search ends, so after the last.
    seen = []
    grow = patterns._grow

    def checked_grow(fronts, *args):
        _assert_fronts_nest(fronts)
        if not any(f is fronts for f in seen):
            seen.append(fronts)
        return grow(fronts, *args)

    with pytest.MonkeyPatch.context() as mp:
        mp.setattr(patterns, "_grow", checked_grow)
        for e1 in DIRS:
            for e2 in DIRS:
                contains_double_run(tuple(w), n, e1, e2)
    for fronts in seen:
        _assert_fronts_nest(fronts)


def _count_indexing(monkeypatch):
    # Starts with no raw word kept, so no earlier test's word is reused.
    patterns._tuple_host.cache_clear()
    counts = Counter()
    index = patterns.occurrences_by_value

    def counting_index(w):
        counts["index"] += 1
        return index(w)

    monkeypatch.setattr(patterns, "occurrences_by_value", counting_index)
    return counts


@pytest.mark.parametrize(
    "check",
    [
        lambda: verify(2, 1).ok,
        lambda: all(verify_q_lemma(2, 1).avoided.values()),
        lambda: contains_any_family(build(2, 1).s, 2, 1) is None,
    ],
    ids=["verify", "verify_q_lemma", "contains_any_family"],
)
def test_each_word_is_indexed_once_for_all_members(monkeypatch, check):
    counts = _count_indexing(monkeypatch)
    init = _Host.__init__

    def counting_init(self, w):
        counts["host"] += 1
        init(self, w)

    monkeypatch.setattr(_Host, "__init__", counting_init)
    # Every member is checked and none occurs.
    assert check()
    assert counts["index"] == 1
    assert counts["host"] == 1


@pytest.mark.parametrize(
    "w, n",
    [(build(2, 1).s, 2), (_balanced_uniform_word(1, 12, 25), 2), (_sorted_word(40), 1)],
    ids=["build(2,1).s", "uniform n=2", "sorted 2x40"],
)
def test_consecutive_raw_checks_of_one_tuple_index_it_once(monkeypatch, w, n):
    counts = _count_indexing(monkeypatch)
    for fid, _ in family(n, 1):
        find_family_member(w, fid)
    for e1 in DIRS:
        contains_multiplied_monotone(w, n, 2, e1)
        for e2 in DIRS:
            contains_double_run(w, n, e1, e2)
    assert counts["index"] == 1


def test_a_different_tuple_in_between_indexes_again(monkeypatch):
    counts = _count_indexing(monkeypatch)
    u, v = _sorted_word(7), _balanced_uniform_word(1, 5, 4)
    fid = FamilyId("double_run", 1, 1, ID, REV)
    for w, indexed in ((u, 1), (u, 1), (v, 2), (u, 3), (tuple(list(u)), 3)):
        find_family_member(w, fid)
        # An equal tuple shares the host: it has the same positions.
        assert counts["index"] == indexed, w


def test_a_changed_list_is_indexed_again(monkeypatch):
    # A list is read as the tuple of its letters: unchanged, it shares
    # that tuple's host; changed, it is a new tuple and answered afresh.
    counts = _count_indexing(monkeypatch)
    w = [0, 1, 0, 1]
    fid = FamilyId("double_run", 1, 1, ID, ID)
    assert find_family_member(w, fid) == (1, 2, 3, 4)
    assert find_family_member(w, fid) == (1, 2, 3, 4)
    assert counts["index"] == 1
    w[3] = 0
    assert find_family_member(w, fid) is None
    assert contains_double_run(w, 1, ID, ID) is None
    assert counts["index"] == 2


def _raw_checks(w, n):
    # (member, its check on the raw word): every member through
    # find_family_member, and each double run through contains_double_run.
    checks = [(fid, lambda fid=fid: find_family_member(w, fid)) for fid, _ in family(n, 1)]
    checks += [
        (FamilyId("double_run", n, 1, e1, e2), lambda e1=e1, e2=e2: contains_double_run(w, n, e1, e2))
        for e1 in DIRS
        for e2 in DIRS
    ]
    return checks


def test_raw_calls_answer_like_shared_hosts_with_words_interleaved():
    # Neighbouring words' checks in a seeded merge, so raw calls both
    # reuse the kept host and find another word's host kept.
    rng = random.Random(11)
    words = DOUBLE_RUN_HOSTS + LEVEL_BUILD_HOSTS
    for pair in zip(words[::2], words[1::2]):
        calls = []
        for label, w, n, _ in pair:
            host = _Host(w)
            calls += [(label, fid, raw, find_family_member(host, fid)) for fid, raw in _raw_checks(w, n)]
        rng.shuffle(calls)
        for label, fid, raw, expected in calls:
            assert raw() == expected, (label, str(fid))


@given(
    st.lists(st.integers(min_value=0, max_value=7), max_size=16).map(tuple),
    st.integers(min_value=0, max_value=3),
    st.integers(min_value=1, max_value=3),
    st.randoms(use_true_random=False),
)
def test_shared_host_answers_like_fresh_calls(w, n, k, rnd):
    # Every member of both families, each with its own group size, in a
    # shuffled order against one host.
    checks = [fid for fid, _ in family(n, k) + family_mult(n, k)]
    rnd.shuffle(checks)
    host = _Host(w)
    by_rank = [ps for _, ps in sorted(occurrences_by_value(w).items())]
    complement = tuple(max(w, default=0) - v for v in w)
    complement_by_rank = [ps for _, ps in sorted(occurrences_by_value(complement).items())]
    for fid in checks:
        assert find_family_member(host, fid) == find_family_member(w, fid), fid
        # Each check leaves the host as a fresh one would build it.
        assert host.word == w
        assert host.occ(ID) == by_rank
        assert host.occ(REV) == complement_by_rank


def test_direction_flip():
    assert ID.flip() is REV
    assert REV.flip() is ID
    assert str(ID) == "id"
    assert str(REV) == "rev"
