"""Exhaustive desk-scale searches: enumeration and tightness probes.

Everything here is brute force on purpose.  The enumerators double as
independent oracles for the fast checkers, and the searches probe how
tight the repeat threshold is at parameters small enough to exhaust.
All entry points take a guard; sizes above it raise GuardExceeded
instead of starting a run that will not finish.
"""

from __future__ import annotations

from itertools import product
from math import factorial
from typing import Iterator

from .guards import check_guard
from .patterns import _Host, family, family_mult, find_family_member
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
    if length == 0:
        yield ()
        return
    prefix: list[int] = []
    used: set[int] = set()

    def rec(top: int) -> Iterator[Word]:
        if len(prefix) == length:
            yield tuple(prefix)
            return
        rem = length - len(prefix)
        for c in range(length):
            new_top = c if c > top else top
            missing = (new_top + 1) - (len(used) + (c not in used))
            # Letters below the running maximum must still be coverable.
            if missing > rem - 1:
                continue
            fresh = c not in used
            prefix.append(c)
            if fresh:
                used.add(c)
            yield from rec(new_top)
            if fresh:
                used.remove(c)
            prefix.pop()

    yield from rec(-1)


def _arrangements(counts: list[int]) -> Iterator[Word]:
    # Lexicographic multiset permutations over values 1..len(counts).
    total = sum(counts)
    seq: list[int] = []

    def rec() -> Iterator[Word]:
        if len(seq) == total:
            yield tuple(seq)
            return
        for v in range(len(counts)):
            if counts[v] > 0:
                counts[v] -= 1
                seq.append(v + 1)
                yield from rec()
                seq.pop()
                counts[v] += 1

    yield from rec()


def enumerate_balanced(values: int, mult: int, guard: int = 16) -> Iterator[Word]:
    """All words using each of 1..values exactly ``mult`` times, lexicographic."""
    if values < 0 or mult < 1:
        raise ValueError(f"need values >= 0 and mult >= 1, got {values}, {mult}")
    check_guard(values * mult, guard, "balanced word enumeration")
    if values == 0:
        return iter([()])
    return _arrangements([mult] * values)


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
            vectors.append(counts)
    check_guard(space, guard, "avoidance search space")
    fam = family(n, k)
    best_r = 0
    best_w: Word | None = None
    for counts in vectors:
        base = sum(counts) - len(counts)
        if base < best_r:
            continue
        for arr in _arrangements(list(counts)):
            word = tuple(v - 1 for v in arr)
            host = _Host(word)
            if any(find_family_member(host, fid) is not None for fid, _ in fam):
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
    values = n**6 + 1
    check_guard(values * (k + 1), guard, "balanced enumeration word length")
    fam = family_mult(n, k)
    for word in enumerate_balanced(values, k + 1, guard=guard):
        host = _Host(word)
        if not any(
            find_family_member(host, fid, doubled_mult=k + 1) is not None
            for fid, _ in fam
        ):
            return False
    return True
