"""Correctness references owned by the benchmark.

Nothing here imports wordpat: every expected pattern, presence verdict
and containment test is computed independently, so a wrong answer from
the library cannot also be the yardstick it is checked against.
"""

from __future__ import annotations

import re
from collections import Counter
from itertools import combinations

_MEMBER = re.compile(
    r"Constant|DoubledMonotone\((id|rev)\)|DoubleRun\((id|rev),(id|rev)\)"
)

# The seven family members in wordpat's fixed order, as member keys.
MEMBER_KEYS = (
    ("constant",),
    ("staircase", "id"),
    ("staircase", "rev"),
    ("double_run", "id", "id"),
    ("double_run", "id", "rev"),
    ("double_run", "rev", "id"),
    ("double_run", "rev", "rev"),
)


def member_key(fid) -> tuple[str, ...]:
    """Parse a family member's printed name, e.g. ``DoubleRun(id,rev)``."""
    m = _MEMBER.fullmatch(str(fid))
    if m is None:
        raise ValueError(f"unrecognised family member name: {fid}")
    if m.group(1):
        return ("staircase", m.group(1))
    if m.group(2):
        return ("double_run", m.group(2), m.group(3))
    return ("constant",)


def span_name(key: tuple[str, ...]) -> str:
    """Trace span name of one member's checker, e.g. ``patterns.double_run.id_rev``."""
    suffix = "_".join(key[1:])
    return f"patterns.{key[0]}.{suffix}" if suffix else f"patterns.{key[0]}"


def _run(n: int, e: str) -> tuple[int, ...]:
    up = tuple(range(n + 1))
    return up if e == "id" else up[::-1]


def member_pattern(key: tuple[str, ...], n: int, k: int, mult: int = 2) -> tuple[int, ...]:
    """The pattern a member key names; ``mult`` is the staircase group size."""
    if key[0] == "constant":
        return (0,) * (k + 2)
    if key[0] == "staircase":
        up = tuple(v for v in range(n + 1) for _ in range(mult))
        return up if key[1] == "id" else up[::-1]
    return _run(n, key[1]) + _run(n, key[2])


def standardise(w) -> tuple[int, ...]:
    rank = {v: i for i, v in enumerate(sorted(set(w)))}
    return tuple(rank[v] for v in w)


def repeats(w) -> int:
    return len(w) - len(set(w))


def occurrence_matches(w, occ, pattern) -> bool:
    """``occ`` is a strictly increasing 1-based position tuple of ``w``
    whose letters standardise to ``pattern``."""
    if not isinstance(occ, tuple) or len(occ) != len(pattern):
        return False
    if any(not isinstance(p, int) for p in occ):
        return False
    if any(b <= a for a, b in zip((0,) + occ, occ)) or (occ and occ[-1] > len(w)):
        return False
    return standardise([w[p - 1] for p in occ]) == tuple(pattern)


def contains_brute(w, pattern) -> bool:
    """Exhaustive containment over all position subsets; tiny words only."""
    pattern = tuple(pattern)
    return any(
        standardise([w[i] for i in pos]) == pattern
        for pos in combinations(range(len(w)), len(pattern))
    )


def sorted_word_contains(copies: int, pattern) -> bool:
    """Whether ``a^copies b^copies`` (a < b) contains ``pattern``.

    Its subsequences are exactly ``a^i b^j``, so a pattern occurs iff it
    is non-decreasing over at most two letters, each used at most
    ``copies`` times.
    """
    pattern = tuple(pattern)
    counts = Counter(pattern)
    return (
        list(pattern) == sorted(pattern)
        and len(counts) <= 2
        and max(counts.values()) <= copies
    )


def greedy_certificate(w, pattern) -> tuple[int, ...] | None:
    """An occurrence of ``pattern`` in ``w`` found by a simple search.

    Maps the pattern's letters onto a window of consecutive distinct
    values of ``w`` and matches the resulting concrete word leftmost
    first, which is exact for a fixed concrete word.  Returns None when
    no window matches; that proves nothing, so callers treat it as
    "unknown".
    """
    pattern = tuple(pattern)
    letters = max(pattern) + 1
    values = sorted(set(w))
    for lo in range(len(values) - letters + 1):
        target = [values[lo + x] for x in pattern]
        occ: list[int] = []
        for i, v in enumerate(w, start=1):
            if v == target[len(occ)]:
                occ.append(i)
                if len(occ) == len(target):
                    return tuple(occ)
    return None
