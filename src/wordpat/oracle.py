"""Exhaustive desk-scale searches: enumeration and tightness probes.

The enumerators are brute force on purpose and double as independent
oracles for the fast checkers.  The searches probe how tight the repeat
threshold is at parameters small enough to exhaust, and stay exhaustive
proofs.  When a word holds a member occurrence, let L be the 1-based
position of its last letter before its final run of equal letters (its
first if it is one run): every later arrangement with the same first L
letters has as many copies of the run's value after L, so holds the
same occurrence, and the searches step past them all.  All entry points
take a guard and check it with ``guards.check_guard``, so sizes above it
raise GuardExceeded, with the one guard message, instead of starting a
run that will not finish; ``max_repeats_avoiding`` stops counting its
space once past the guard.

The searches ask each word about the members in the family's own
order and stop at the first one it holds.  ``max_repeats_avoiding``
leaves the constant out: its words use each value at most k+1 times,
so the k+2 copies the constant needs never occur.  Which member is
found decides how far a search steps, but a skipped word is never an
avoider, so no answer depends on the order.
"""

from __future__ import annotations

from itertools import chain, product
from math import factorial
from typing import Iterator

from .guards import check_guard, check_nk
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
    # Lexicographic permutations of the multiset ``letters``, from the
    # sorted order.
    a = sorted(letters)
    yield tuple(a)
    while _next_arrangement(a, len(a)):
        yield tuple(a)


def _next_arrangement(a: list[int], keep: int) -> bool:
    # Step ``a`` in place to the first later arrangement, in lex order,
    # whose first ``keep`` letters differ; False when none is left.  The
    # last arrangement with ``a``'s first ``keep`` letters has the rest
    # in falling order, and the standard next-permutation step goes on
    # from there; with keep = len(a) it is the plain step.
    if keep < len(a):
        a[keep:] = sorted(a[keep:], reverse=True)
    i = len(a) - 2
    while i >= 0 and a[i] >= a[i + 1]:
        i -= 1
    if i < 0:
        return False
    j = len(a) - 1
    while a[j] <= a[i]:
        j -= 1
    a[i], a[j] = a[j], a[i]
    a[i + 1 :] = a[:i:-1]
    return True


def enumerate_balanced(values: int, mult: int, guard: int = 16) -> Iterator[Word]:
    """All words using each of 1..values exactly ``mult`` times, lexicographic."""
    if values < 0 or mult < 1:
        raise ValueError(f"need values >= 0 and mult >= 1, got {values}, {mult}")
    check_guard(values * mult, guard, "balanced word enumeration")
    return _arrangements([v for v in range(1, values + 1) for _ in range(mult)])


def _member_end(host: _Host, fam: list[FamilyId]) -> int:
    # How many first letters fix the occurrence of the first member of
    # ``fam`` the word holds, or 0 when it holds none.  Positions are
    # 1-based, so found[j], the last letter before the occurrence's
    # final run of one value v (found[0] if it is one run), is a prefix
    # length; every arrangement with that prefix has as many v after it.
    for fid in fam:
        found = find_family_member(host, fid)
        if found is not None:
            v, j = host.word[found[-1] - 1], len(found) - 2
            while j > 0 and host.word[found[j] - 1] == v:
                j -= 1
            return found[j]
    return 0


def _first_avoider(a: list[int], fam: list[FamilyId]) -> Word | None:
    # Step ``a`` in place past every word holding a member of ``fam``: the first avoider, else None.
    while end := _member_end(_Host(a), fam):
        if not _next_arrangement(a, end):
            return None
    return tuple(a)


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
    all_counts = (product(range(2, k + 2), repeat=d) for d in range(1, max_values + 1))
    for counts in chain.from_iterable(all_counts):
        size = factorial(sum(counts))
        for c in counts:
            size //= factorial(c)
        space += size
        if space > guard:
            break
        vectors.append(counts)
    what = "first part of the avoidance search space (the whole is at least as large)"
    check_guard(space, guard, what)
    # No word here has k+2 copies of a value, so the constant never occurs.
    fam = [fid for fid, _ in family(n, k) if fid.kind != "constant"]
    best_r = 0
    best_w: Word | None = None
    for counts in vectors:
        base = sum(counts) - len(counts)
        if base < best_r:
            continue
        # The least avoider of these counts: later ones are lex-greater.
        word = _first_avoider([v for v, c in enumerate(counts) for _ in range(c)], fam)
        if word is not None and (base > best_r or best_w is None or word < best_w):
            best_r, best_w = base, word
    return best_r, best_w


def check_unavoidability_balanced(n: int, k: int, guard: int = 16) -> bool:
    """Exhaustively confirm the balanced family is unavoidable at (n, k).

    Every word using each of n^6 + 1 values exactly k+1 times must
    contain a balanced-family member.  Returns False with no further
    search as soon as one avoider shows up.
    """
    check_nk(n, k)
    # The first balanced word, in sorted order; guarded before fam is built.
    a = list(next(enumerate_balanced(n**6 + 1, k + 1, guard=guard)))
    return _first_avoider(a, [fid for fid, _ in family_mult(n, k)]) is None
