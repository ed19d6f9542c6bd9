"""Brute-force enumerators and tightness searches."""

import random
from itertools import islice, permutations, product
from math import factorial

import pytest

from oracles import brute_contains, ordered_bell
from wordgen import word_with_repeats
from wordpat import oracle
from wordpat.construction import build
from wordpat.guards import GuardExceeded
from wordpat.oracle import (
    check_unavoidability_balanced,
    enumerate_balanced,
    enumerate_cayley,
    max_repeats_avoiding,
)
from wordpat.patterns import _Host, family, family_mult, find_family_member, base_pattern
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
    with pytest.raises(ValueError):
        enumerate_cayley(-1)
    assert list(enumerate_cayley(0)) == [()]


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
    with pytest.raises(ValueError):
        enumerate_balanced(-1, 2)
    with pytest.raises(ValueError):
        enumerate_balanced(2, 0)


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
    with pytest.raises(ValueError):
        max_repeats_avoiding(1, 0, 2)
    with pytest.raises(ValueError):
        max_repeats_avoiding(1, 1, -1)


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


@pytest.mark.parametrize("k", [5, 6])
def test_balanced_unavoidability_n1_at_benchmark_sizes(k):
    assert check_unavoidability_balanced(1, k)


def test_member_walk_answers_as_the_fixed_order_and_moves_the_hit_to_the_front():
    # One list per family is carried across many words, as in a search:
    # whatever order earlier words left it in, the verdict is that of
    # asking every member, and only the member found first moves.
    rng = random.Random(16)
    for n, k in [(0, 1), (1, 1), (1, 2), (2, 1), (2, 3)]:
        for members in (family(n, k), family_mult(n, k)):
            fids = [fid for fid, _ in members]
            fam = rng.sample(fids, len(fids))
            for _ in range(60):
                w = word_with_repeats(rng, rng.randint(1, 9), k, cap=rng.random() < 0.5, singles_max=4)
                before = list(fam)
                held = [fid for fid in before if find_family_member(w, fid) is not None]
                assert oracle._holds_member(_Host(w), fam) == bool(held), w
                if held:
                    assert fam == [held[0]] + [fid for fid in before if fid != held[0]], w
                else:
                    assert fam == before, w
                assert len(fam) == len(fids) and set(fam) == set(fids)


def test_balanced_search_asks_about_one_member_per_word(monkeypatch):
    # At (1, 6) DoubleRun(id,id) holds in 3382 of the C(14, 7) = 3432
    # words; the fixed order asks two staircases before it, 10 354
    # checks in all.
    calls = 0
    find = oracle.find_family_member

    def counting_find(*args):
        nonlocal calls
        calls += 1
        return find(*args)

    monkeypatch.setattr(oracle, "find_family_member", counting_find)
    assert check_unavoidability_balanced(1, 6)
    assert calls <= 1.1 * 3432


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
