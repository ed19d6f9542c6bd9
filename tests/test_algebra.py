"""Word combinators: sums, powers, and their laws."""

import pytest
from hypothesis import given, strategies as st

from wordpat.algebra import concat, direct_power, direct_sum, skew_power, skew_sum
from wordpat.words import multiplicities, repeats, reverse

positive_words = st.lists(
    st.integers(min_value=1, max_value=9), min_size=1, max_size=8
).map(tuple)


def test_concat():
    assert concat((1,), (1, 1)) == (1, 1, 1)
    assert concat((), (2, 3)) == (2, 3)
    assert concat((2, 3), ()) == (2, 3)
    assert concat((1, 2), (2, 1)) == (1, 2, 2, 1)


def test_direct_sum_example():
    assert direct_sum((3, 1, 4, 2, 2), (4, 1, 3, 2)) == (3, 1, 4, 2, 2, 8, 5, 7, 6)
    assert direct_sum((1,), (1,)) == (1, 2)
    assert direct_sum((2, 1), (2, 1)) == (2, 1, 4, 3)


def test_skew_sum_example():
    assert skew_sum((2, 4, 1, 3), (1, 2, 1)) == (4, 6, 3, 5, 1, 2, 1)
    assert skew_sum((1,), (1,)) == (2, 1)
    assert skew_sum((1, 2, 3), (1, 2, 3)) == (4, 5, 6, 1, 2, 3)


def test_powers():
    assert direct_power((2, 1), 3) == (2, 1, 4, 3, 6, 5)
    assert skew_power((1, 2), 3) == (5, 6, 3, 4, 1, 2)
    assert skew_power((1, 2, 3), 3) == (7, 8, 9, 4, 5, 6, 1, 2, 3)
    assert direct_power((3, 1, 2), 1) == (3, 1, 2)
    assert skew_power((3, 1, 2), 1) == (3, 1, 2)


def test_operand_preconditions():
    for op in (direct_sum, skew_sum):
        with pytest.raises(ValueError):
            op((), (1,))
        with pytest.raises(ValueError):
            op((1,), ())
        with pytest.raises(ValueError):
            op((0, 1), (1,))
        with pytest.raises(ValueError):
            op((1,), (1, 0))
    for op in (direct_power, skew_power):
        with pytest.raises(ValueError):
            op((1,), 0)
        with pytest.raises(ValueError):
            op((1,), -2)
        # The operand is checked at every power, the first included.
        for m in (1, 2, 3):
            for bad in ((), (0,), (2, 0)):
                with pytest.raises(ValueError):
                    op(bad, m)


@given(positive_words, positive_words, positive_words)
def test_sums_associative(a, b, c):
    assert direct_sum(direct_sum(a, b), c) == direct_sum(a, direct_sum(b, c))
    assert skew_sum(skew_sum(a, b), c) == skew_sum(a, skew_sum(b, c))


@given(positive_words, positive_words)
def test_sums_add_lengths_and_maxima(a, b):
    for op in (direct_sum, skew_sum):
        out = op(a, b)
        assert len(out) == len(a) + len(b)
        assert max(out) == max(a) + max(b)
    assert len(concat(a, b)) == len(a) + len(b)


@given(positive_words, positive_words)
def test_sums_are_value_disjoint(a, b):
    out = direct_sum(a, b)
    low, high = out[: len(a)], out[len(a) :]
    assert max(low) < min(high)
    out = skew_sum(a, b)
    high, low = out[: len(a)], out[len(a) :]
    assert min(high) > max(low)


@given(positive_words, positive_words)
def test_sums_preserve_blockwise_multiplicities(a, b):
    out = direct_sum(a, b)
    h = max(a)
    expect = multiplicities(a)
    for v, c in multiplicities(b).items():
        expect[v + h] += c
    assert multiplicities(out) == expect


@given(positive_words, positive_words)
def test_reverse_swaps_sum_kind(a, b):
    assert reverse(direct_sum(a, b)) == skew_sum(reverse(b), reverse(a))


@given(positive_words, st.integers(min_value=1, max_value=4))
def test_power_scales_repeats(a, m):
    assert repeats(direct_power(a, m)) == m * repeats(a)
    assert repeats(skew_power(a, m)) == m * repeats(a)
    assert len(direct_power(a, m)) == m * len(a)
