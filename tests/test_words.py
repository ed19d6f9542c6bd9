"""Word core: standardisation, containment, text format."""

import pytest
from hypothesis import given, strategies as st

from oracles import brute_contains, repeats_by_scan, standardise_by_counting
from wordpat.words import (
    InvalidOccurrence,
    contains,
    format_word,
    is_pattern,
    multiplicities,
    occurrences_by_value,
    parse_word,
    repeats,
    reverse,
    standardise,
    subword,
)

words = st.lists(st.integers(min_value=0, max_value=9), max_size=10).map(tuple)
small_words = st.lists(st.integers(min_value=0, max_value=4), max_size=8).map(tuple)


def test_standardise_examples():
    assert standardise((2, 9, 6, 8, 9, 3)) == (0, 4, 2, 3, 4, 1)
    assert standardise((3, 4, 1, 2)) == (2, 3, 0, 1)
    assert standardise((5, 5, 5)) == (0, 0, 0)
    assert standardise(()) == ()


def test_is_pattern():
    assert is_pattern((0, 2, 1, 0))
    assert is_pattern(())
    assert not is_pattern((1, 2))
    assert not is_pattern((0, 2))


def test_repeats_examples():
    assert repeats((0, 0, 0, 0)) == 3
    assert repeats((0, 0, 1, 1, 0)) == 3
    assert repeats((0, 1, 2)) == 0
    assert repeats(()) == 0


def test_reverse():
    assert reverse((2, 3, 4, 1)) == (1, 4, 3, 2)
    assert reverse((7,)) == (7,)
    assert reverse((0, 0, 1, 1, 0)) == (0, 1, 1, 0, 0)


def test_subword_examples():
    assert subword((1, 3, 0, 4, 3, 1, 3, 4), (2, 5, 6, 7)) == (3, 3, 1, 3)
    assert subword((5, 6, 7), (1, 2, 3)) == (5, 6, 7)
    assert subword((5, 6, 7), ()) == ()


def test_subword_rejects_bad_occurrences():
    with pytest.raises(InvalidOccurrence):
        subword((1, 2, 3), (0, 1))
    with pytest.raises(InvalidOccurrence):
        subword((1, 2, 3), (2, 2))
    with pytest.raises(InvalidOccurrence):
        subword((1, 2, 3), (3, 1))
    with pytest.raises(InvalidOccurrence):
        subword((1, 2, 3), (4,))


def test_occurrences_by_value():
    occ = occurrences_by_value((1, 3, 0, 4, 3, 1, 3, 4))
    assert occ == {1: [1, 6], 3: [2, 5, 7], 0: [3], 4: [4, 8]}


def test_contains_examples():
    # Least occurrence of 1101 in 13043134 uses the three 3s and the second 1.
    assert contains((1, 3, 0, 4, 3, 1, 3, 4), (1, 1, 0, 1)) == (2, 5, 6, 7)
    assert contains((0, 1, 2), (0, 0)) is None
    assert contains((0, 1, 0, 1), (0, 1, 0, 1)) == (1, 2, 3, 4)
    assert contains((0,), (0,)) == (1,)


def test_contains_matches_patterns_longer_than_the_recursion_limit():
    assert contains(range(1200), range(1200)) == tuple(range(1, 1201))
    assert contains(range(1200), range(1199, -1, -1)) is None


def test_contains_rejects_bad_patterns():
    with pytest.raises(ValueError):
        contains((0, 1), ())
    with pytest.raises(ValueError):
        contains((0, 1), (1, 2))


def test_multiplicities():
    assert multiplicities((0, 0, 1, 1, 0)) == {0: 3, 1: 2}
    assert multiplicities(()) == {}


@given(words)
def test_standardise_matches_counting_oracle(w):
    assert standardise(w) == standardise_by_counting(w)


@given(words)
def test_standardise_idempotent(w):
    assert standardise(standardise(w)) == standardise(w)


@given(words)
def test_repeats_matches_scan_oracle(w):
    assert repeats(w) == repeats_by_scan(w)
    assert repeats(w) == len(w) - len(set(w))


@given(small_words, small_words.filter(lambda p: 0 < len(p) <= 4))
def test_contains_matches_brute_oracle(w, p):
    # Both sides return the lexicographically least occurrence.
    p = standardise(p)
    assert contains(w, p) == brute_contains(w, p)


@given(small_words, small_words.filter(lambda p: 0 < len(p) <= 4))
def test_contains_is_standardisation_invariant(w, p):
    p = standardise(p)
    assert (contains(w, p) is None) == (contains(standardise(w), p) is None)


@given(small_words, small_words.filter(lambda p: 0 < len(p) <= 4))
def test_contains_reverse_duality(w, p):
    p = standardise(p)
    mirrored = standardise(reverse(p))
    assert (contains(w, p) is None) == (contains(reverse(w), mirrored) is None)


@given(small_words, small_words.filter(lambda p: 0 < len(p) <= 4))
def test_contains_occurrence_reproduces_pattern(w, p):
    p = standardise(p)
    occ = contains(w, p)
    if occ is not None:
        assert standardise(subword(w, occ)) == p


@given(words)
def test_occurrences_by_value_partitions_positions(w):
    occ = occurrences_by_value(w)
    flat = sorted(i for ps in occ.values() for i in ps)
    assert flat == list(range(1, len(w) + 1))
    for v, ps in occ.items():
        assert ps == sorted(ps)
        assert all(w[i - 1] == v for i in ps)


@given(words)
def test_occurrences_by_value_lists_values_in_first_occurrence_order(w):
    assert list(occurrences_by_value(w)) == list(dict.fromkeys(w))


def test_parse_word_forms():
    assert parse_word("13043134") == (1, 3, 0, 4, 3, 1, 3, 4)
    assert parse_word("13 14 15") == (13, 14, 15)
    assert parse_word("13,14,15") == (13, 14, 15)
    assert parse_word("13, 14 15") == (13, 14, 15)
    assert parse_word("10") == (1, 0)  # compact form splits digits
    assert parse_word("") == ()
    assert parse_word("   ") == ()


def test_parse_word_rejects_garbage():
    # Only ASCII decimal digits make a letter, in either form: no sign,
    # no underscore, no other script's digits and no superscript.
    for text in ["ab", "1a", "-1 2", "-12", "1.5 2", "1_0 2", "+1 2", "\u0663\u0664", "\u0663 4", "\u00b2", "1\u00b2"]:
        with pytest.raises(ValueError, match="not a valid word"):
            parse_word(text)


def test_format_word():
    assert format_word((1, 3, 0, 4)) == "1304"
    assert format_word((13, 14, 15)) == "13 14 15"
    assert format_word(()) == ""


@given(st.lists(st.integers(min_value=0), max_size=12).map(tuple))
def test_format_parse_roundtrip(w):
    assert parse_word(format_word(w)) == w


def test_lone_multidigit_letter_keeps_a_separator():
    # Without the comma, "10" reads as the two letters 1 and 0.
    assert format_word((10,)) == "10,"
    assert parse_word("10,") == (10,)
    assert parse_word("10") == (1, 0)
