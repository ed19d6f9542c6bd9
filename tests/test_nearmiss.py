"""Near-miss words: every member checker against its reference, one
repeat past the bound of ``build(n, 1).s``."""

from collections import Counter

import pytest

from nearmiss import near_miss, near_miss_sample, near_miss_words
from oracles import double_run_by_pair_chains, staircase_by_all_groups
from wordpat.construction import build
from wordpat.patterns import _Host, family, find_family_member
from wordpat.witness import extract_witness, validate_trace
from wordpat.words import multiplicities, repeats, standardise, subword


def _reference(w, fid):
    if fid.kind == "double_run":
        return double_run_by_pair_chains(w, fid.n, str(fid.e1), str(fid.e2))
    if fid.kind == "doubled_monotone":
        return staircase_by_all_groups(w, fid.n, 2, str(fid.e1))
    return None  # no value occurs three times


def test_near_miss_word_shape():
    s = build(1, 1).s
    assert near_miss(s, 3, 0, len(s) + 1) == (3, *(2 * v for v in s), 3)
    for n, count in ((1, 20), (2, 20)):
        for x, i, j, w in near_miss_words(n, count, seed=1):
            assert w[i] == w[j] == x and x % 2 == 1
            assert repeats(w) == n**6 + 1
            assert max(multiplicities(w).values()) == 2


# (n, words, seed): about 300 words at n = 2 and a few at n = 3, where
# the pair-chain reference takes about half a second per word.
@pytest.mark.parametrize("n, count, seed", [(2, 300, 1), (3, 3, 1)], ids=["n=2", "n=3"])
def test_near_miss_words_hold_a_member_every_checker_finds(n, count, seed):
    members = family(n, 1)
    for x, i, j, w in near_miss_words(n, count, seed):
        where = (x, i, j)
        # Raw calls in reverse order, so each orientation does the first
        # level sweep on one of the two hosts.
        host = _Host(w)
        shared = {fid: find_family_member(host, fid) for fid, _ in members}
        raw = {fid: find_family_member(w, fid) for fid, _ in reversed(members)}
        assert raw == shared, where
        for fid, pattern in members:
            occ, ref = shared[fid], _reference(w, fid)
            assert (occ is None) == (ref is None), (where, str(fid), occ, ref)
            if occ is not None:
                assert standardise(subword(w, occ)) == pattern, (where, str(fid))
        assert any(occ is not None for occ in shared.values()), where
        *_, trace = extract_witness(w, n, 1)
        assert validate_trace(w, trace), where


# The first word of near_miss_words(2, 300, 2) where each non-constant
# member is the only one present: a checker must find the one occurrence
# the word holds, and no other checker may find any.
SINGLE_MEMBER_WORDS = {
    8: "DoubledMonotone(rev)",
    11: "DoubleRun(rev,id)",
    15: "DoubledMonotone(id)",
    20: "DoubleRun(id,id)",
    75: "DoubleRun(id,rev)",
    212: "DoubleRun(rev,rev)",
}


def _assert_holds_only(w, n, member):
    # On a shared host, on the raw word and by the references.
    members = family(n, 1)
    host = _Host(w)
    shared = {fid: find_family_member(host, fid) for fid, _ in members}
    raw = {fid: find_family_member(w, fid) for fid, _ in members}
    ref = {fid: _reference(w, fid) for fid, _ in members}
    for found in (shared, raw, ref):
        assert {str(fid) for fid, occ in found.items() if occ is not None} == {member}


@pytest.mark.parametrize("index, member", SINGLE_MEMBER_WORDS.items(), ids=SINGLE_MEMBER_WORDS.values())
def test_single_member_near_miss_words_hold_exactly_that_member(index, member):
    _assert_holds_only(near_miss_words(2, 300, seed=2)[index][3], 2, member)


# The same at n = 3: the first word of near_miss_words(3, 2000, 11)
# where each non-constant member is the only one present, as
# index -> (x, i, j).  So no member but the constant can be dropped from
# family(3, 1) either.  The references take about 0.4 s a word.
SINGLE_MEMBER_WORDS_N3 = {
    "DoubledMonotone(id)": (25, (1, 429, 437)),
    "DoubledMonotone(rev)": (47, (791, 150, 152)),
    "DoubleRun(id,id)": (1489, (1383, 316, 437)),
    "DoubleRun(id,rev)": (450, (279, 500, 978)),
    "DoubleRun(rev,id)": (783, (1163, 233, 248)),
    "DoubleRun(rev,rev)": (998, (601, 517, 586)),
}


@pytest.fixture(scope="module")
def near_miss_n3():
    return near_miss_words(3, 2000, 11)


@pytest.mark.parametrize("member, pinned", SINGLE_MEMBER_WORDS_N3.items(), ids=SINGLE_MEMBER_WORDS_N3)
def test_single_member_near_miss_words_at_n3_hold_exactly_that_member(near_miss_n3, member, pinned):
    index, where = pinned
    x, i, j, w = near_miss_n3[index]
    assert (x, i, j) == where
    _assert_holds_only(w, 3, member)


@pytest.mark.slow
def test_seeded_tenth_of_the_n2_corpus():
    # About 54 500 of the 545 025 near-miss words at n = 2 (65 values of
    # x, every i < j).  Every word holds a member and yields a valid
    # trace; on each word the fast checkers find exactly one member, the
    # references must find that member and no other.
    members = [fid for fid, _ in family(2, 1)]
    words = 0
    only = Counter()
    for x, i, j, w in near_miss_sample(2, 0.1, seed=1):
        where = (x, i, j)
        words += 1
        host = _Host(w)
        present = [fid for fid in members if find_family_member(host, fid) is not None]
        assert present, where
        *_, trace = extract_witness(w, 2, 1)
        assert validate_trace(w, trace), where
        if len(present) == 1:
            only[str(present[0])] += 1
            ref = [fid for fid in members if _reference(w, fid) is not None]
            assert ref == present, (where, [str(fid) for fid in ref])
    assert 50_000 < words < 59_000
    assert set(only) == {str(fid) for fid in members if fid.kind != "constant"}
