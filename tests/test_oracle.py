"""Brute-force enumerators and tightness searches."""

import random
from itertools import combinations, groupby, islice, permutations, product
from math import factorial

import pytest

from oracles import brute_contains, ordered_bell
from wordgen import word_with_repeats
from wordpat import oracle
from wordpat.cli import main
from wordpat.construction import build
from wordpat.guards import GuardExceeded
from wordpat.oracle import (
    check_unavoidability_balanced,
    enumerate_balanced,
    enumerate_cayley,
    max_repeats_avoiding,
)
from wordpat.patterns import Direction, FamilyId, _Host, family, family_mult, find_family_member, base_pattern
from wordpat.words import is_pattern, repeats, standardise


@pytest.mark.parametrize("length", range(8))
def test_cayley_counts_match_ordered_bell(length):
    assert sum(1 for _ in enumerate_cayley(length)) == ordered_bell(length)


def test_cayley_words_are_sorted_distinct_patterns():
    for length in range(6):
        words = list(enumerate_cayley(length))
        assert words == sorted(words)
        assert len(set(words)) == len(words)
        assert all(is_pattern(w) for w in words)


@pytest.mark.parametrize("length", range(6))
def test_cayley_matches_product_scan(length):
    # Independent enumeration: standardise every tuple over a big
    # enough alphabet and deduplicate.
    alphabet = range(max(length, 1))
    expect = sorted({standardise(t) for t in product(alphabet, repeat=length)})
    assert list(enumerate_cayley(length)) == expect


def test_cayley_guard_and_validation():
    with pytest.raises(GuardExceeded):
        enumerate_cayley(11)
    with pytest.raises(GuardExceeded):
        enumerate_cayley(5, guard=4)
    assert list(enumerate_cayley(0)) == [()]


# Each sized entry point, the message that names its sizes, and sizes it
# refuses: not ints, or below their range.  The message names only the
# caller's own arguments.
ORACLE_SIZES = {
    "enumerate_cayley": (
        enumerate_cayley, "need an int length >= 0", [(2.0,), ("2",), (None,), (-1,)]
    ),
    "enumerate_balanced": (
        enumerate_balanced,
        "need ints values >= 0 and mult >= 1",
        [(2.0, 1), (2, 1.0), ("2", 1), (-1, 2), (2, 0)],
    ),
    "max_repeats_avoiding": (
        max_repeats_avoiding,
        "need ints n >= 0, k >= 1 and max_values >= 0",
        [(1, 1.0, 2), (1, 1, 2.0), (1.0, 1, 2), (None, 1, 2), (-1, 1, 2), (1, 0, 2), (1, 1, -1)],
    ),
}


@pytest.mark.parametrize("name", ORACLE_SIZES)
def test_oracle_sizes_must_be_ints_in_range(name):
    entry, message, bad = ORACLE_SIZES[name]
    for args in bad:
        with pytest.raises(ValueError, match=f"^{message}, got ") as raised:
            entry(*args)
        assert all(repr(arg) in str(raised.value) for arg in args), args


def test_cayley_enumerates_words_longer_than_the_recursion_limit():
    assert next(enumerate_cayley(1200, guard=2000)) == (0,) * 1200


def test_balanced_exact_small_cases():
    assert list(enumerate_balanced(2, 2)) == [
        (1, 1, 2, 2),
        (1, 2, 1, 2),
        (1, 2, 2, 1),
        (2, 1, 1, 2),
        (2, 1, 2, 1),
        (2, 2, 1, 1),
    ]
    assert list(enumerate_balanced(1, 3)) == [(1, 1, 1)]
    assert list(enumerate_balanced(2, 1)) == [(1, 2), (2, 1)]
    assert list(enumerate_balanced(0, 5)) == [()]


@pytest.mark.parametrize("values,mult", [(2, 2), (3, 2), (2, 3), (4, 2), (2, 4)])
def test_balanced_counts_are_multinomial(values, mult):
    count = sum(1 for _ in enumerate_balanced(values, mult))
    assert count == factorial(values * mult) // factorial(mult) ** values


def test_balanced_guard_and_validation():
    with pytest.raises(GuardExceeded):
        enumerate_balanced(5, 4)


def test_balanced_is_lexicographic():
    words = list(enumerate_balanced(3, 2))
    assert words == sorted(words)


@pytest.mark.parametrize("values,mult", [(1, 1), (1, 3), (2, 1), (2, 2), (3, 1), (3, 2), (2, 3), (4, 1)])
def test_balanced_matches_permutation_scan(values, mult):
    letters = [v for v in range(1, values + 1) for _ in range(mult)]
    assert list(enumerate_balanced(values, mult)) == sorted(set(permutations(letters)))


def test_balanced_enumerates_words_longer_than_the_recursion_limit():
    assert next(enumerate_balanced(1, 1500, guard=2000)) == (1,) * 1500


def test_max_repeats_avoiding_small_cases():
    assert max_repeats_avoiding(1, 1, 3) == (1, (0, 0))
    assert max_repeats_avoiding(1, 2, 2) == (2, (0, 0, 0))
    assert max_repeats_avoiding(2, 1, 3) == (3, (0, 0, 1, 2, 1, 2))
    assert max_repeats_avoiding(1, 1, 0) == (0, None)


def test_max_repeats_avoiding_benchmark_cases():
    # The searches the oracle-search benchmark runs, with the answers
    # computed when the members were asked in the fixed order.
    assert max_repeats_avoiding(2, 1, 5) == (5, (0, 0, 1, 2, 3, 4, 2, 1, 4, 3))
    assert max_repeats_avoiding(1, 1, 4) == (1, (0, 0))
    assert max_repeats_avoiding(1, 2, 3) == (2, (0, 0, 0))


def test_max_repeats_witness_contract():
    for n, k, mv in [(1, 1, 3), (1, 2, 2), (2, 1, 3)]:
        best, w = max_repeats_avoiding(n, k, mv)
        assert w is not None
        assert is_pattern(w)
        assert repeats(w) == best
        for fid, pat in family(n, k):
            assert find_family_member(w, fid) is None
            assert brute_contains(w, pat) is None


def test_max_repeats_exhaustive_cross_check():
    # Independent scan: over every standardised word of length <= 6,
    # the avoiders of the seven n=1, k=1 patterns top out at 1 repeat.
    pats = [pat for _, pat in family(1, 1)]
    best = 0
    for length in range(7):
        for w in enumerate_cayley(length):
            if any(brute_contains(w, p) is not None for p in pats):
                continue
            best = max(best, repeats(w))
    assert best == 1
    assert max_repeats_avoiding(1, 1, 3)[0] == best


def test_max_repeats_threshold_sandwich():
    # The searched maximum sits between the construction's repeat count
    # and one below the forcing threshold; at n = 1 they meet.
    best, _ = max_repeats_avoiding(1, 1, 3)
    assert best + 1 <= 1 * 1**6 + 1
    assert best >= repeats(build(1, 1).s)
    assert best == repeats(build(1, 1).s) == 1


def test_max_repeats_deterministic_and_guarded():
    assert max_repeats_avoiding(1, 1, 3) == max_repeats_avoiding(1, 1, 3)
    with pytest.raises(GuardExceeded):
        max_repeats_avoiding(1, 1, 9, guard=100)


def test_max_repeats_guard_stops_before_walking_every_count_vector(monkeypatch):
    # At k = 5 there are 5^12 count vectors of 12 values; the guard must
    # refuse after the few whose sizes already pass it.
    calls = 0

    def counting_factorial(x):
        nonlocal calls
        calls += 1
        assert calls < 1000, "walked the count vectors past the guard"
        return factorial(x)

    monkeypatch.setattr(oracle, "factorial", counting_factorial)
    with pytest.raises(GuardExceeded, match="at least"):
        max_repeats_avoiding(1, 5, 12)


@pytest.mark.parametrize("k", [1, 2, 3])
def test_balanced_unavoidability_n1(k):
    assert check_unavoidability_balanced(1, k)


@pytest.mark.parametrize("k", [5, 6, 7])
def test_balanced_unavoidability_n1_at_benchmark_sizes(k):
    assert check_unavoidability_balanced(1, k)


def test_member_walk_answers_as_the_first_member_held_in_the_given_order():
    # Whatever order the members come in, the skip is that of the first
    # member in that order the word holds, and the list is left alone.
    rng = random.Random(16)
    for n, k in [(0, 1), (1, 1), (1, 2), (2, 1), (2, 3)]:
        for members in (family(n, k), family_mult(n, k)):
            fids = [fid for fid, _ in members]
            for _ in range(60):
                fam = rng.sample(fids, len(fids))
                before = list(fam)
                w = word_with_repeats(rng, rng.randint(1, 9), k, cap=rng.random() < 0.5, singles_max=4)
                held = [fid for fid in before if find_family_member(w, fid) is not None]
                end = oracle._member_end(_Host(w), fam)
                assert fam == before, w
                if held:
                    # The last position before the occurrence's final run of
                    # equal letters, or its first if it is one run.
                    runs = [list(g) for _, g in groupby(find_family_member(w, held[0]), lambda x: w[x - 1])]
                    assert end == (runs[-2][-1] if len(runs) > 1 else runs[0][0]), w
                else:
                    assert end == 0, w


@pytest.mark.parametrize(
    "search,params,checks",
    [
        ("check_unavoidability_balanced", (1, 5), 175),
        ("check_unavoidability_balanced", (1, 6), 236),
        ("max_repeats_avoiding", (2, 1, 5), 59),
        ("max_repeats_avoiding", (1, 1, 4), 1272),
        ("max_repeats_avoiding", (1, 2, 3), 746),
    ],
)
def test_searches_make_a_pinned_number_of_member_checks(monkeypatch, search, params, checks):
    # Each word is asked about the members in family order until one is
    # held, and max_repeats_avoiding never asks the constant.  Pinned, so
    # a change of order or of the members asked shows up here.
    calls = 0
    find = oracle.find_family_member

    def counting_find(host, fid):
        nonlocal calls
        calls += 1
        assert fid.kind != "constant"
        return find(host, fid)

    monkeypatch.setattr(oracle, "find_family_member", counting_find)
    getattr(oracle, search)(*params)
    assert calls == checks


@pytest.mark.parametrize(
    "search,params,hosts",
    [
        ("check_unavoidability_balanced", (1, 5), 52),
        ("check_unavoidability_balanced", (1, 6), 71),
        ("max_repeats_avoiding", (2, 1, 5), 21),
        ("max_repeats_avoiding", (1, 1, 4), 475),
        ("max_repeats_avoiding", (1, 2, 3), 405),
    ],
)
def test_searches_skip_the_words_that_share_an_occurrence(monkeypatch, search, params, hosts):
    # One host per word asked.  Asking every arrangement up to the
    # answer would build 924, 3432, 212, 2617 and 4128, and keeping the
    # whole occurrence as the prefix 262, 491, 182, 2346 and 3132.
    built = 0

    def counting_host(w):
        nonlocal built
        built += 1
        return _Host(w)

    monkeypatch.setattr(oracle, "_Host", counting_host)
    getattr(oracle, search)(*params)
    assert built == hosts


def _planted(rng, pat):
    # The pattern, spread out, with up to 9 - len(pat) random letters put in.
    w = [2 * v for v in pat]
    for _ in range(rng.randint(0, 9 - len(pat))):
        w.insert(rng.randint(0, len(w)), rng.randint(0, 2 * max(pat) + 2))
    return tuple(w)


def test_every_arrangement_keeping_the_skip_prefix_holds_the_member_found():
    # The skip is sound: every arrangement of a word that keeps its first
    # ``_member_end`` letters holds the member found, by brute force.
    # Half the words are random, half have the pattern planted, so every
    # member whose pattern fits in 9 letters fires: constants and
    # staircases of group size 1 included.
    rng = random.Random(21)
    members = {fid for n in (0, 1, 2) for k in (1, 2, 3) for fid, _ in family(n, k) + family_mult(n, k)}
    members |= {FamilyId("doubled_monotone", n, 1, e, mult=1) for n in (1, 2) for e in Direction}
    fired = set()
    for fid in sorted(members, key=repr):
        pat = base_pattern(fid)
        for i in range(10):
            if i % 2 and len(pat) <= 9:
                w = _planted(rng, pat)
            else:
                w = word_with_repeats(rng, rng.randint(1, 5), fid.k, cap=rng.random() < 0.5, singles_max=4)[:9]
            end = oracle._member_end(_Host(w), [fid])
            if find_family_member(w, fid) is None:
                assert end == 0, (fid, w)
                continue
            # 0 would read as "avoider".
            assert end >= 1, (fid, w)
            fired.add(fid)
            for rest in set(permutations(w[end:])):
                assert brute_contains(w[:end] + rest, pat) is not None, (fid, w, rest)
    assert fired == {fid for fid in members if len(base_pattern(fid)) <= 9}
    assert {fid.kind for fid in fired} == {"constant", "doubled_monotone", "double_run"}
    assert any(fid.mult == 1 for fid in fired)


def test_next_arrangement_steps_past_every_arrangement_sharing_the_kept_prefix():
    # Every multiset of at most 7 letters over at most 3 values, against
    # its lexicographic order by a permutation scan: from each
    # arrangement and each ``keep``, the step lands on the first later
    # arrangement whose first ``keep`` letters differ, or says none is left.
    for counts in product(range(8), repeat=3):
        if sum(counts) > 7:
            continue
        letters = [v for v, c in enumerate(counts) for _ in range(c)]
        words = sorted(set(permutations(letters)))
        for keep in range(len(letters) + 1):
            expect = [None] * len(words)
            for i in range(len(words) - 2, -1, -1):
                nxt = words[i + 1]
                expect[i] = nxt if nxt[:keep] != words[i][:keep] else expect[i + 1]
            for w, want in zip(words, expect):
                a = list(w)
                assert oracle._next_arrangement(a, keep) == (want is not None), (w, keep)
                if want is not None:
                    assert tuple(a) == want, (w, keep)


def _held_by_plain_scan(members, words):
    # For each word, the indices of the members it holds, by brute force.
    return [(w, {i for i, (_, pat) in enumerate(members) if brute_contains(w, pat) is not None}) for w in words]


def _subsets(members, rng):
    # Every subset of the members, each in a random order: the order
    # decides which occurrence a word is asked about first, and so which
    # words the search skips.
    for r in range(len(members) + 1):
        for picked in combinations(range(len(members)), r):
            yield set(picked), rng.sample([members[i] for i in picked], r)


# (1, 3, 2) reaches the prune: 0000, with 3 repeats and no member, comes
# before every count vector with 2 repeats.
@pytest.mark.parametrize("n,k,max_values", [(1, 1, 3), (1, 2, 2), (2, 1, 3), (1, 3, 2)])
def test_max_repeats_with_member_subsets_matches_a_plain_scan(monkeypatch, n, k, max_values):
    # Few members leave avoiders with many repeats; the search must find
    # the most repeats and the least avoider that has them.
    members = family(n, k)
    space = []
    for d in range(1, max_values + 1):
        for counts in product(range(2, k + 2), repeat=d):
            space += set(permutations([v for v, c in enumerate(counts) for _ in range(c)]))
    table = _held_by_plain_scan(members, space)
    for picked, chosen in _subsets(members, random.Random(19)):
        monkeypatch.setattr(oracle, "family", lambda *_: chosen)
        for mv in range(max_values + 1):
            avoiders = [w for w, held in table if len(set(w)) <= mv and not held & picked]
            best = max(map(repeats, avoiders), default=0)
            expect = (best, min((w for w in avoiders if repeats(w) == best), default=None))
            assert max_repeats_avoiding(n, k, mv) == expect, (picked, mv)


@pytest.mark.parametrize("k", [1, 2, 3, 4])
def test_balanced_check_with_member_subsets_matches_a_plain_scan(monkeypatch, k):
    # Subsets of the balanced and base members at n = 1: the verdict is
    # False exactly when some balanced word holds none of them.
    members = list(dict.fromkeys(family_mult(1, k) + family(1, k)))
    table = _held_by_plain_scan(members, set(permutations([1, 2] * (k + 1))))
    verdicts = set()
    for picked, chosen in _subsets(members, random.Random(19)):
        monkeypatch.setattr(oracle, "family_mult", lambda *_: chosen)
        expect = all(held & picked for _, held in table)
        assert check_unavoidability_balanced(1, k) == expect, picked
        verdicts.add(expect)
    assert verdicts == {False, True}


def test_balanced_check_cli_exits_1_on_an_avoider(monkeypatch, capsys):
    # With only DoubleRun(id,id) asked, 1 2 2 1 avoids.
    monkeypatch.setattr(oracle, "family_mult", lambda n, k: family_mult(n, k)[2:3])
    assert main(["oracle", "balanced-check", "--n", "1", "--k", "1"]) == 1
    assert capsys.readouterr().out == "unavoidable=False\n"


def test_balanced_unavoidability_guard():
    with pytest.raises(GuardExceeded):
        check_unavoidability_balanced(2, 1)
    with pytest.raises(ValueError):
        check_unavoidability_balanced(0, 1)
    with pytest.raises(ValueError):
        check_unavoidability_balanced(1, 0)


def test_deleting_singletons_preserves_family_presence():
    # Every family pattern needs each of its values at least twice, so
    # letters occurring once in the host can never participate.
    rng = random.Random(61)
    fids = [fid for fid, _ in family(1, 1)] + [fid for fid, _ in family(2, 1)]
    for _ in range(100):
        w = word_with_repeats(rng, rng.randint(1, 4), 3, cap=False, singles_max=6)
        keep = {v for v in w if w.count(v) >= 2}
        reduced = tuple(v for v in w if v in keep)
        assert repeats(reduced) == repeats(w)
        for fid in fids:
            before = find_family_member(w, fid)
            after = find_family_member(reduced, fid)
            assert (before is None) == (after is None)


def test_enumerators_are_restartable():
    # Each call returns a fresh iterator.
    first = list(islice(enumerate_cayley(4), 5))
    second = list(islice(enumerate_cayley(4), 5))
    assert first == second
