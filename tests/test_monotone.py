"""Longest monotone subwords and the guaranteed extraction step."""

import hashlib
import json
import random

import pytest
from hypothesis import given, strategies as st

from oracles import longest_nondecreasing_len, longest_nonincreasing_len
from wordgen import grid_word, uniform_word
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


def _longest_corpus():
    rng = random.Random(2030)
    for _ in range(300):
        yield uniform_word(rng, rng.randint(1, 80), rng.choice((1, 4, 20, 1000)))
    for r, s in ((1, 1), (3, 2), (4, 4), (9, 3)):
        yield grid_word(rng, r, s)


# SHA-256 of the JSON of both longest occurrences of every word in
# _longest_corpus(), recorded while each had a patience scan of its own
# and es_extract truncated their output.  The shared scan must return
# the same positions, not just a chain of the same length.
LONGEST_DIGEST = "7722dc17e3d94f77d5eb67b19ea9856cb5dbd0bdb03de6d69a96e2910ccb352b"


def test_longest_occurrences_match_the_pinned_digest():
    out = [[longest_nondecreasing(w), longest_nonincreasing(w)] for w in _longest_corpus()]
    assert hashlib.sha256(json.dumps(out).encode()).hexdigest() == LONGEST_DIGEST


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
    # A scan that never completes a chain longer than one letter.
    monkeypatch.setattr(monotone, "_chain", lambda vals, stop=None: (1,))
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


def _earliest_end(w, length, longest_len):
    """The least i at which w[:i] holds a monotone subword of ``length``
    letters, by the DP oracle, or None."""
    for i in range(length, len(w) + 1):
        if longest_len(w[:i]) >= length:
            return i
    return None


@given(
    st.integers(min_value=1, max_value=4),
    st.integers(min_value=1, max_value=4),
    st.data(),
)
def test_es_extract_stops_at_the_first_chain(r, s, data):
    length = data.draw(st.integers(min_value=r * s + 1, max_value=r * s + 8))
    w = data.draw(
        st.lists(
            st.integers(min_value=0, max_value=6), min_size=length, max_size=length
        ).map(tuple)
    )
    direction, occ = es_extract(w, r, s)
    up_end = _earliest_end(w, r + 1, longest_nondecreasing_len)
    if direction == NONDECREASING:
        assert occ[-1] == up_end
    else:
        assert up_end is None
        assert occ[-1] == _earliest_end(w, s + 1, longest_nonincreasing_len)


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
