"""Unavoidable-pattern families and the specialized containment checkers."""

import random
from collections import Counter

import pytest
from hypothesis import given, strategies as st

from oracles import (
    brute_contains,
    double_run_by_all_pairs,
    double_run_by_pair_chains,
    staircase_by_all_groups,
    xyxy_chain_levels,
)
from wordpat import patterns
from wordpat.construction import build, verify, verify_q_lemma
from wordpat.patterns import (
    Direction,
    _Host,
    _pareto_insert,
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
from wordpat.words import occurrences_by_value, reverse, standardise, subword

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


def test_find_family_member_doubled_mult_override():
    fid = FamilyId("doubled_monotone", 1, 2, ID)
    w = (0, 0, 0, 1, 1, 1)
    assert find_family_member(w, fid) == (1, 2, 4, 5)
    assert find_family_member(w, fid, doubled_mult=3) == (1, 2, 3, 4, 5, 6)
    assert find_family_member((0, 0, 1, 1), fid, doubled_mult=3) is None


# (label, checker, arguments) with n < 0 or a group size below 1.
OUT_OF_DOMAIN = [
    *(
        (f"double run n=-1 {e1},{e2}", contains_double_run, ((0, 1, 0, 1), -1, e1, e2))
        for e1 in DIRS
        for e2 in DIRS
    ),
    *((f"staircase mult=0 {e}", contains_multiplied_monotone, ((1, 2), 1, 0, e)) for e in DIRS),
    *((f"staircase n=-1 {e}", contains_multiplied_monotone, ((1, 2), -1, 1, e)) for e in DIRS),
    (
        "member doubled_mult=0",
        find_family_member,
        ((0, 0, 1, 1), FamilyId("doubled_monotone", 1, 1, ID), 0),
    ),
    ("member n=-1", find_family_member, ((0, 1, 0, 1), FamilyId("double_run", -1, 1, ID, ID))),
]


@pytest.mark.parametrize(
    "check, args", [case[1:] for case in OUT_OF_DOMAIN], ids=[case[0] for case in OUT_OF_DOMAIN]
)
def test_out_of_domain_checker_parameters_raise_value_error(check, args):
    with pytest.raises(ValueError, match="need n >= 0 and mult >= 1"):
        check(*args)


def test_base_pattern_matches_family():
    for n, k in [(0, 1), (1, 1), (2, 1), (1, 2), (2, 3)]:
        for fid, pat in family(n, k):
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


@given(
    st.lists(st.integers(2, 5), min_size=1, max_size=10).flatmap(
        lambda counts: st.permutations([v for v, c in enumerate(counts) for _ in range(c)])
    ),
    st.integers(min_value=1, max_value=3),
)
def test_ascending_double_runs_match_all_pairs_on_repeated_letters(w, n):
    w = tuple(w)
    for e in (ID, REV):
        occ = contains_double_run(w, n, e, e)
        ref = double_run_by_all_pairs(w, n, str(e), str(e))
        assert (occ is None) == (ref is None), (e, occ, ref)
        if occ is not None:
            assert standardise(subword(w, occ)) == standardise(double_run_pattern(n, e, e))


def _library_crossings(w, e):
    occ = _Host(w).oriented(e).occ()
    ranks = [0] * (len(w) + 1)
    for v, ps in enumerate(occ):
        for p in ps:
            ranks[p] = v
    return patterns._crossings(occ, ranks, [ps[-1] for ps in occ])


def _library_levels(w, e):
    # The crossings swept in either orientation serve both.
    crossings = _library_crossings(w, ID)
    assert _library_crossings(w, REV) == crossings
    return patterns._chain_levels(_Host(w).oriented(e).occ(), crossings, len(w) + 1)


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
        found = contains_double_run(w, n, e, e)
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
        assert contains_double_run(build(3, 1).s, 3, e, e) is None
        assert counts["built"] == 1
        assert counts["before levels"] > 0
        assert counts["after levels"] == 0


def _assert_matches_pair_chains(w, n):
    for e1 in DIRS:
        for e2 in DIRS:
            pattern = standardise(double_run_pattern(n, e1, e2))
            occ = contains_double_run(w, n, e1, e2)
            ref = double_run_by_pair_chains(w, n, str(e1), str(e2))
            assert (occ is None) == (ref is None), (e1, e2, occ, ref)
            for found in (occ, ref):
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


@pytest.mark.slow
def test_verify_4_1_double_runs_absent_by_pair_chains():
    # All four double runs over 5 values are absent from the 8192-letter
    # construction word, by an argument sharing no cut with the library.
    s = build(4, 1).s
    for e1 in DIRS:
        for e2 in DIRS:
            assert double_run_by_pair_chains(s, 4, str(e1), str(e2)) is None
            assert contains_double_run(s, 4, e1, e2) is None


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


@given(st.lists(st.tuples(st.integers(-6, 6), st.integers(-6, 6)), max_size=30))
def test_pareto_front_keeps_exactly_the_minimal_states(points):
    front = []
    for a, b in points:
        _pareto_insert(front, (a, b, None))
    minimal = {
        p for p in points if not any(o != p and o[0] <= p[0] and o[1] <= p[1] for o in points)
    }
    assert [state[:2] for state in front] == sorted(minimal)


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
    counts = Counter()
    index, init = patterns.occurrences_by_value, _Host.__init__

    def counting_index(w):
        counts["index"] += 1
        return index(w)

    def counting_init(self, w, occ=None):
        # Only a complement host is handed an index.
        counts["complement"] += occ is not None
        init(self, w, occ)

    monkeypatch.setattr(patterns, "occurrences_by_value", counting_index)
    monkeypatch.setattr(_Host, "__init__", counting_init)
    # Every member is checked and none occurs.
    assert check()
    assert counts["index"] == 1
    assert counts["complement"] <= 1


@given(
    st.lists(st.integers(min_value=0, max_value=7), max_size=16).map(tuple),
    st.integers(min_value=0, max_value=3),
    st.integers(min_value=1, max_value=3),
    st.randoms(use_true_random=False),
)
def test_shared_host_answers_like_fresh_calls(w, n, k, rnd):
    # Every member, with the base and the balanced group size, in a
    # shuffled order against one host.
    checks = [(fid, mult) for fid, _ in family(n, k) for mult in (None, k + 1)]
    rnd.shuffle(checks)
    host = _Host(w)
    by_rank = [ps for _, ps in sorted(occurrences_by_value(w).items())]
    complement = tuple(max(w, default=0) - v for v in w)
    complement_by_rank = [ps for _, ps in sorted(occurrences_by_value(complement).items())]
    for fid, mult in checks:
        assert find_family_member(host, fid, mult) == find_family_member(w, fid, mult), (fid, mult)
        # Each check leaves the host as a fresh one would build it.
        assert host.word == w
        assert host.occ() == by_rank
        assert host.oriented(REV).occ() == complement_by_rank


def test_direction_flip():
    assert ID.flip() is REV
    assert REV.flip() is ID
    assert str(ID) == "id"
    assert str(REV) == "rev"
