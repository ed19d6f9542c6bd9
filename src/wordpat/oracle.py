"""Exhaustive desk-scale searches: enumeration and tightness probes.

Everything here is brute force on purpose.  The enumerators double as
independent oracles for the fast checkers, and the searches probe how
tight the repeat threshold is at parameters small enough to exhaust.
All entry points take a guard; sizes above it raise GuardExceeded
instead of starting a run that will not finish.

The two searches ask each word about the member found last first.
Consecutive words are lexicographic neighbours and usually hold the
same member, so most words take one check.  The order lives in a list
made by each call and is gone when it returns; since a word either
holds some member or none, no answer depends on it.
"""

from __future__ import annotations

from itertools import product
from math import factorial
from typing import Iterator

from .guards import GuardExceeded, check_guard
from .patterns import FamilyId, _Host, family, family_mult, find_family_member
from .words import Word


def enumerate_cayley(length: int, guard: int = 10) -> Iterator[Word]:
    """All words of ``length`` whose letter set is {0..m}, lexicographic.

    Counts follow the ordered-Bell sequence 1, 1, 3, 13, 75, ...
    """
    if length < 0:
        raise ValueError(f"length must be >= 0, got {length}")
    check_guard(length, guard, "exhaustive word enumeration")
    return _cayley_words(length)


def _cayley_words(length: int) -> Iterator[Word]:
    # Depth first in lexicographic order, over an explicit stack:
    # ``word`` is the prefix, ``seen[c]`` how often c occurs in it, and
    # ``tops[d]`` and ``nexts[d]`` the largest letter of its first d
    # letters and the next letter to try after them.  A letter is tried
    # only if the letters up to the new top still missing after it fit
    # in the positions left, so every branch ends in a word; letters
    # from distinct + rem on never fit.  Last letters are yielded at once
    # rather than pushed.
    if length == 0:
        yield ()
        return
    word: list[int] = []
    seen = [0] * length
    tops, nexts = [-1], [0]
    distinct = 0
    while nexts:
        rem = length - len(word)
        top, c = tops[-1], nexts[-1]
        if rem == 1:
            # Either every letter up to top occurs, and so may any up to
            # a new one, or all but one, which must come last.
            if distinct > top:
                for c in range(distinct + 1):
                    yield (*word, c)
            else:
                yield (*word, seen.index(0))
        elif c < distinct + rem:
            nexts[-1] = c + 1
            new_top = c if c > top else top
            if new_top - distinct - (not seen[c]) < rem - 1:
                word.append(c)
                distinct += not seen[c]
                seen[c] += 1
                tops.append(new_top)
                nexts.append(0)
            continue
        # Every word from this prefix is out.
        tops.pop()
        nexts.pop()
        if word:
            seen[word[-1]] -= 1
            distinct -= not seen[word.pop()]


def _arrangements(letters: list[int]) -> Iterator[Word]:
    # Lexicographic permutations of the multiset ``letters``: the
    # standard next-permutation step from the sorted order.
    a = sorted(letters)
    while True:
        yield tuple(a)
        i = len(a) - 2
        while i >= 0 and a[i] >= a[i + 1]:
            i -= 1
        if i < 0:
            return
        j = len(a) - 1
        while a[j] <= a[i]:
            j -= 1
        a[i], a[j] = a[j], a[i]
        a[i + 1 :] = a[:i:-1]


def enumerate_balanced(values: int, mult: int, guard: int = 16) -> Iterator[Word]:
    """All words using each of 1..values exactly ``mult`` times, lexicographic."""
    if values < 0 or mult < 1:
        raise ValueError(f"need values >= 0 and mult >= 1, got {values}, {mult}")
    check_guard(values * mult, guard, "balanced word enumeration")
    return _arrangements([v for v in range(1, values + 1) for _ in range(mult)])


def _holds_member(host: _Host, fam: list[FamilyId], mult: int) -> bool:
    # Whether the word holds any member of ``fam``; the member found is
    # moved to the front, so the next word asks it first.
    for i, fid in enumerate(fam):
        if find_family_member(host, fid, mult) is not None:
            if i:
                fam.insert(0, fam.pop(i))
            return True
    return False


def max_repeats_avoiding(
    n: int, k: int, max_values: int, guard: int = 2_000_000
) -> tuple[int, Word | None]:
    """Most repeats a base-family avoider can have with few distinct values.

    Searches every word with at most ``max_values`` distinct values in
    which each value occurs 2..k+1 times; values occurring once neither
    add repeats nor remove patterns, and k+2 of a kind is already a
    constant witness, so nothing else can win.  Returns the maximum
    repeat count and the lexicographically least standardised witness,
    or (0, None) when the search space is empty.
    """
    if k < 1 or max_values < 0:
        raise ValueError(f"need k >= 1 and max_values >= 0, got k={k}, max_values={max_values}")
    vectors: list[tuple[int, ...]] = []
    space = 0
    for d in range(1, max_values + 1):
        for counts in product(range(2, k + 2), repeat=d):
            size = factorial(sum(counts))
            for c in counts:
                size //= factorial(c)
            space += size
            if space > guard:
                raise GuardExceeded(
                    f"avoidance search space has size at least {space}, above the guard {guard}"
                )
            vectors.append(counts)
    fam = [fid for fid, _ in family(n, k)]
    best_r = 0
    best_w: Word | None = None
    for counts in vectors:
        base = sum(counts) - len(counts)
        if base < best_r:
            continue
        for word in _arrangements([v for v, c in enumerate(counts) for _ in range(c)]):
            if _holds_member(_Host(word), fam, 2):
                continue
            if base > best_r or best_w is None or word < best_w:
                best_r, best_w = base, word
            # Later arrangements of the same counts are lex-greater.
            break
    return best_r, best_w


def check_unavoidability_balanced(n: int, k: int, guard: int = 16) -> bool:
    """Exhaustively confirm the balanced family is unavoidable at (n, k).

    Every word using each of n^6 + 1 values exactly k+1 times must
    contain a balanced-family member.  Returns False with no further
    search as soon as one avoider shows up.
    """
    if n < 1 or k < 1:
        raise ValueError(f"need n >= 1 and k >= 1, got n={n}, k={k}")
    words = enumerate_balanced(n**6 + 1, k + 1, guard=guard)  # guarded before fam is built
    fam = [fid for fid, _ in family_mult(n, k)]
    for word in words:
        if not _holds_member(_Host(word), fam, k + 1):
            return False
    return True
