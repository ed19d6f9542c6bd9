"""Core operations on words: finite sequences of non-negative integers.

A word may repeat letters.  A *pattern* (also called a Cayley permutation)
is a word fixed by standardisation: its distinct letters are exactly
{0, 1, ..., m}.  Occurrences are tuples of 1-based, strictly increasing
positions into a host word.
"""

from __future__ import annotations

from collections import Counter

Word = tuple[int, ...]
Occurrence = tuple[int, ...]


class InvalidOccurrence(ValueError):
    """Occurrence indices are out of range or not strictly increasing."""


class InvariantViolation(RuntimeError):
    """A step that the proof guarantees failed: a library bug, not bad input.

    Raised explicitly, so the check survives ``python -O``.
    """


def standardise(w) -> Word:
    """Relabel the letters of ``w`` order-preservingly onto {0, ..., m}.

    The empty word standardises to itself.
    """
    w = tuple(w)
    rank = {v: i for i, v in enumerate(sorted(set(w)))}
    return tuple(rank[v] for v in w)


def is_pattern(w) -> bool:
    """True iff ``w`` is fixed by standardisation."""
    w = tuple(w)
    return standardise(w) == w


def repeats(w) -> int:
    """Number of letter occurrences that are not the first of their value."""
    w = tuple(w)
    return len(w) - len(set(w))


def reverse(w) -> Word:
    return tuple(w)[::-1]


def subword(w, occ) -> Word:
    """Extract the letters of ``w`` at the 1-based positions ``occ``."""
    w = tuple(w)
    occ = tuple(occ)
    for prev, cur in zip((0,) + occ, occ):
        if cur <= prev or cur > len(w):
            raise InvalidOccurrence(
                f"positions must be strictly increasing within 1..{len(w)}: {occ}"
            )
    return tuple(w[i - 1] for i in occ)


def occurrences_by_value(w) -> dict[int, list[int]]:
    """Map each letter value, in order of first occurrence, to its sorted
    list of 1-based positions."""
    positions: dict[int, list[int]] = {}
    for i, v in enumerate(tuple(w), start=1):
        positions.setdefault(v, []).append(i)
    return positions


def contains(w, p) -> Occurrence | None:
    """Find an occurrence of the pattern ``p`` in ``w``, or None.

    Returns the lexicographically least occurrence under index order.
    Backtracking search over positions with order-isomorphism pruning;
    exponential in ``len(p)`` in the worst case, which is fine at the
    word sizes this library targets.  ``p`` must be a nonempty pattern.
    """
    w = tuple(w)
    p = tuple(p)
    if not p:
        raise ValueError("pattern must be nonempty")
    if not is_pattern(p):
        raise ValueError(f"not a standardised pattern: {p}")
    m = len(p)
    # bound[letter] = host value assigned to that pattern letter, or None;
    # chosen holds the 1-based positions matched so far, and fresh[t] says
    # whether chosen[t] bound its letter.  Depth first, least position first.
    bound: list[int | None] = [None] * (max(p) + 1)
    chosen: list[int] = []
    fresh: list[bool] = []
    i = 0
    while len(chosen) < m:
        t = len(chosen)
        letter = p[t]
        last = len(w) - m + t
        while i <= last and not _feasible(bound, letter, w[i]):
            i += 1
        if i <= last:
            fresh.append(bound[letter] is None)
            bound[letter] = w[i]
            i += 1
            chosen.append(i)
        elif chosen:
            i = chosen.pop()
            if fresh.pop():
                bound[p[t - 1]] = None
        else:
            return None
    return tuple(chosen)


def _feasible(bound: list[int | None], letter: int, value: int) -> bool:
    # Can pattern ``letter`` match host ``value`` beside the letters bound so far?
    if bound[letter] is not None:
        return bound[letter] == value
    for other, ov in enumerate(bound):
        if ov is None:
            continue
        if other < letter and ov >= value:
            return False
        if other > letter and ov <= value:
            return False
    return True


def parse_word(text: str) -> Word:
    """Parse the shared word text format.

    Either decimal integers separated by spaces or commas ("13 14 15"),
    or a compact digit string ("13043134") where every letter is a
    single digit.  A separator anywhere selects the separated form.
    Digits are ASCII 0-9 only: no sign, underscore or other script.
    """
    text = text.strip()
    if not text:
        return ()
    if "," in text or any(c.isspace() for c in text):
        parts = [p for chunk in text.split(",") for p in chunk.split()]
    else:
        parts = list(text)
    if not all(p.isascii() and p.isdigit() for p in parts):
        raise ValueError(f"not a valid word: {text!r}")
    return tuple(int(p) for p in parts)


def format_word(w) -> str:
    """Render a word in the shared text format.

    Uses the compact digit string when every letter is a single digit,
    space-separated decimals otherwise; a lone letter of two digits or
    more is followed by a comma, so that it does not read as digits.
    """
    w = tuple(w)
    if all(v <= 9 for v in w):
        return "".join(str(v) for v in w)
    return " ".join(str(v) for v in w) + ("," if len(w) == 1 else "")


def multiplicities(w) -> Counter:
    """Letter value -> number of occurrences."""
    return Counter(tuple(w))
