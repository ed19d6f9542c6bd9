"""Longest monotone subwords and the guaranteed monotone extraction.

Every word of length r*s + 1 has a non-decreasing subword of length
r + 1 or a non-increasing subword of length s + 1; ``es_extract`` turns
that guarantee into a deterministic constructive step.  All three run
one patience scan, which ``es_extract`` stops at the guaranteed length.
"""

from __future__ import annotations

from bisect import bisect_right
from operator import neg

from .words import InvariantViolation, Occurrence

NONDECREASING = "nondecreasing"
NONINCREASING = "nonincreasing"


class GuaranteeUnavailable(ValueError):
    """The word is too short for the requested monotone guarantee."""


def _chain(vals, stop: int | None = None) -> Occurrence:
    """The patience scan's non-decreasing chain: the first to reach
    ``stop`` letters, or else a longest one."""
    tails: list[int] = []  # smallest attainable tail value per chain length
    tails_idx: list[int] = []  # 0-based index realising each tail
    prev: list[int] = []
    for i, v in enumerate(vals):
        j = bisect_right(tails, v)
        if j == len(tails):
            tails.append(v)
            tails_idx.append(i)
        else:
            tails[j] = v
            tails_idx[j] = i
        prev.append(tails_idx[j - 1] if j else -1)
        if j + 1 == stop:
            break
    if not tails_idx:
        raise ValueError("word must be nonempty")
    out = []
    i = tails_idx[-1]
    while i >= 0:
        out.append(i + 1)
        i = prev[i]
    return tuple(reversed(out))


def longest_nondecreasing(w) -> Occurrence:
    """A maximum-length non-decreasing occurrence, patience-style.

    O(L log L); ties are resolved deterministically by the patience
    scan, but only maximality is contracted.
    """
    return _chain(w)


def longest_nonincreasing(w) -> Occurrence:
    """A maximum-length non-increasing occurrence (mirror of the above)."""
    return longest_nondecreasing(map(neg, w))


def es_extract(w, r: int, s: int) -> tuple[str, Occurrence]:
    """Extract a guaranteed monotone subword from a word of length >= rs+1.

    Returns ("nondecreasing", occ) with len(occ) == r + 1 when a
    non-decreasing subword that long exists (preferred branch), else
    ("nonincreasing", occ) with len(occ) == s + 1, which the length
    precondition guarantees.  Each is the first chain its scan completes,
    so it ends as early as such a subword can.
    """
    w = tuple(w)
    if r < 1 or s < 1:
        raise ValueError("r and s must be positive")
    if len(w) < r * s + 1:
        raise GuaranteeUnavailable(
            f"need length >= {r * s + 1} for guarantee (r={r}, s={s}), got {len(w)}"
        )
    up = _chain(w, r + 1)
    if len(up) == r + 1:
        return NONDECREASING, up
    down = _chain(map(neg, w), s + 1)
    if len(down) != s + 1:
        raise InvariantViolation("monotone guarantee violated")
    return NONINCREASING, down
