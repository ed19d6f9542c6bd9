"""Longest monotone subwords and the guaranteed monotone extraction.

Every word of length r*s + 1 has a non-decreasing subword of length
r + 1 or a non-increasing subword of length s + 1; ``es_extract`` turns
that guarantee into a deterministic constructive step.
"""

from __future__ import annotations

from bisect import bisect_right

from .words import InvariantViolation, Occurrence

NONDECREASING = "nondecreasing"
NONINCREASING = "nonincreasing"


class GuaranteeUnavailable(ValueError):
    """The word is too short for the requested monotone guarantee."""


def longest_nondecreasing(w) -> Occurrence:
    """A maximum-length non-decreasing occurrence, patience-style.

    O(L log L); ties are resolved deterministically by the patience
    scan, but only maximality is contracted.
    """
    w = tuple(w)
    if not w:
        raise ValueError("word must be nonempty")
    tails: list[int] = []  # smallest attainable tail value per chain length
    tails_idx: list[int] = []  # 0-based index realising each tail
    prev = [-1] * len(w)
    for i, v in enumerate(w):
        j = bisect_right(tails, v)
        if j == len(tails):
            tails.append(v)
            tails_idx.append(i)
        else:
            tails[j] = v
            tails_idx[j] = i
        prev[i] = tails_idx[j - 1] if j > 0 else -1
    out = []
    i = tails_idx[-1]
    while i >= 0:
        out.append(i + 1)
        i = prev[i]
    return tuple(reversed(out))


def longest_nonincreasing(w) -> Occurrence:
    """A maximum-length non-increasing occurrence (mirror of the above)."""
    return longest_nondecreasing(tuple(-v for v in tuple(w)))


def es_extract(w, r: int, s: int) -> tuple[str, Occurrence]:
    """Extract a guaranteed monotone subword from a word of length >= rs+1.

    Returns ("nondecreasing", occ) with len(occ) == r + 1 when a
    non-decreasing subword that long exists (preferred branch), else
    ("nonincreasing", occ) with len(occ) == s + 1, which the length
    precondition guarantees.  Occurrences are truncated to exactly the
    guaranteed length.
    """
    w = tuple(w)
    if r < 1 or s < 1:
        raise ValueError("r and s must be positive")
    if len(w) < r * s + 1:
        raise GuaranteeUnavailable(
            f"need length >= {r * s + 1} for guarantee (r={r}, s={s}), got {len(w)}"
        )
    up = longest_nondecreasing(w)
    if len(up) >= r + 1:
        return NONDECREASING, up[: r + 1]
    down = longest_nonincreasing(w)
    if len(down) < s + 1:
        raise InvariantViolation("monotone guarantee violated")
    return NONINCREASING, down[: s + 1]
