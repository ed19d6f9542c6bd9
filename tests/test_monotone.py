"""Longest monotone subwords and the guaranteed extraction step."""

import random

import pytest
from hypothesis import given, strategies as st

from oracles import longest_nondecreasing_len, longest_nonincreasing_len
from wordgen import grid_word
from wordpat import monotone
from wordpat.monotone import (
    NONDECREASING,
    NONINCREASING,
    GuaranteeUnavailable,
    es_extract,
    longest_nondecreasing,
    longest_nonincreasing,
)
from wordpat.words import InvariantViolation, repeats, subword

words = st.lists(st.integers(min_value=0, max_value=8), min_size=1, max_size=14).map(
    tuple
)


def _is_nondecreasing(vals):
    return all(a <= b for a, b in zip(vals, vals[1:]))


def _is_nonincreasing(vals):
    return all(a >= b for a, b in zip(vals, vals[1:]))


def test_longest_examples():
    w = (1, 3, 0, 4, 3, 1, 3, 4)
    up = longest_nondecreasing(w)
    down = longest_nonincreasing(w)
    assert len(up) == 5
    assert len(down) == 3
    assert _is_nondecreasing(subword(w, up))
    assert _is_nonincreasing(subword(w, down))


def test_longest_rejects_empty():
    with pytest.raises(ValueError):
        longest_nondecreasing(())
    with pytest.raises(ValueError):
        longest_nonincreasing(())


@given(words)
def test_longest_matches_dp_oracle(w):
    up = longest_nondecreasing(w)
    assert len(up) == longest_nondecreasing_len(w)
    assert _is_nondecreasing(subword(w, up))
    down = longest_nonincreasing(w)
    assert len(down) == longest_nonincreasing_len(w)
    assert _is_nonincreasing(subword(w, down))


def test_es_extract_examples():
    assert es_extract((0, 1, 2, 3), 3, 1) == (NONDECREASING, (1, 2, 3, 4))
    assert es_extract((3, 2, 1, 0), 1, 3) == (NONINCREASING, (1, 2, 3, 4))
    # Both directions available: the non-decreasing branch wins the tie.
    direction, occ = es_extract((2, 1, 0, 1, 2), 2, 2)
    assert direction == NONDECREASING
    assert occ == (3, 4, 5)


def test_es_extract_preconditions():
    with pytest.raises(ValueError):
        es_extract((0, 1), 0, 1)
    with pytest.raises(ValueError):
        es_extract((0, 1), 1, 0)
    with pytest.raises(GuaranteeUnavailable):
        es_extract((1, 0), 1, 2)
    with pytest.raises(GuaranteeUnavailable):
        # Length r*s is one short of the guarantee.
        es_extract(grid_word(random.Random(5), 3, 2), 3, 2)


def test_es_extract_raises_when_its_guarantee_fails(monkeypatch):
    monkeypatch.setattr(monotone, "longest_nonincreasing", lambda w: (1,))
    with pytest.raises(InvariantViolation, match="monotone guarantee"):
        es_extract((3, 2, 1, 0), 1, 3)


@given(
    st.integers(min_value=1, max_value=3),
    st.integers(min_value=1, max_value=3),
    st.data(),
)
def test_es_extract_contract(r, s, data):
    length = data.draw(st.integers(min_value=r * s + 1, max_value=r * s + 5))
    w = data.draw(
        st.lists(
            st.integers(min_value=0, max_value=6), min_size=length, max_size=length
        ).map(tuple)
    )
    direction, occ = es_extract(w, r, s)
    vals = subword(w, occ)
    if direction == NONDECREASING:
        assert len(occ) == r + 1
        assert _is_nondecreasing(vals)
    else:
        assert direction == NONINCREASING
        assert len(occ) == s + 1
        assert _is_nonincreasing(vals)


@given(st.permutations(range(7)).map(tuple))
def test_es_extract_strict_on_repeat_free_words(w):
    assert repeats(w) == 0
    direction, occ = es_extract(w, 2, 2)
    vals = subword(w, occ)
    if direction == NONDECREASING:
        assert all(a < b for a, b in zip(vals, vals[1:]))
    else:
        assert all(a > b for a, b in zip(vals, vals[1:]))


def test_es_extract_deterministic():
    w = (2, 1, 0, 1, 2, 0, 2, 1, 1)
    assert es_extract(w, 2, 2) == es_extract(w, 2, 2)
