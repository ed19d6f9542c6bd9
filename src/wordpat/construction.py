"""The extremal low-repeat construction and its verification harness.

For parameters n, k >= 1 the construction produces a word s of length
(k+1) n^6 in which every value occurs exactly k+1 times, so it has
k n^6 repeats, yet it avoids the constant pattern of length k+2, both
multiplied monotone staircases with group size k+1, and all four double
runs over n+1 values.  ``verify`` checks all of that with the
specialized polynomial checkers and reports per-pattern results.
"""

from __future__ import annotations

import time
from dataclasses import dataclass

from .algebra import concat, direct_power, skew_power
from .guards import check_guard
from .monotone import longest_nondecreasing, longest_nonincreasing
from .patterns import FamilyId, _Host, contains_constant, family_mult, find_family_member
from .words import Word, multiplicities, repeats


@dataclass(frozen=True)
class ConstructionParts:
    """All intermediate words of the construction, 1-based values.

    p: single ascending run over n^2 values.
    t: each of n values k times, ascending.
    r: n skew-stacked copies of t (descending blocks).
    r_prime: n direct-stacked copies of the n-fold skew stack of r.
    q: n^2 skew-stacked copies of p, then r_prime.
    s: n skew-stacked copies of the n-fold direct stack of q.
    """

    n: int
    k: int
    p: Word
    t: Word
    r: Word
    r_prime: Word
    q: Word
    s: Word


def build(n: int, k: int) -> ConstructionParts:
    p, t, r, r_prime, q = _build_q(n, k)
    s = skew_power(direct_power(q, n), n)
    return ConstructionParts(n=n, k=k, p=p, t=t, r=r, r_prime=r_prime, q=q, s=s)


def _build_q(n: int, k: int) -> tuple[Word, Word, Word, Word, Word]:
    """p, t, r, r_prime and q of ``build(n, k)``, without its longest part s."""
    t, r = _build_r(n, k)
    p = tuple(range(1, n * n + 1))
    r_prime = direct_power(skew_power(r, n), n)
    return p, t, r, r_prime, concat(skew_power(p, n * n), r_prime)


def _build_r(n: int, k: int) -> tuple[Word, Word]:
    """t and r of ``build(n, k)``; every part is built from them, so n and
    k are checked here."""
    if n < 1 or k < 1:
        raise ValueError(f"need n >= 1 and k >= 1, got n={n}, k={k}")
    t = tuple(v for v in range(1, n + 1) for _ in range(k))
    return t, skew_power(t, n)


@dataclass(frozen=True)
class VerifyReport:
    """Outcome of checking a constructed word against its pattern set.

    ``avoided`` maps a family-member name to True when the word has no
    occurrence of it; ``ok`` folds the whole report into one bit.
    """

    n: int
    k: int
    length: int
    repeats: int
    multiplicity_ok: bool
    avoided: dict[str, bool]
    elapsed_ms: float

    @property
    def ok(self) -> bool:
        return self.multiplicity_ok and all(self.avoided.values())

    def to_dict(self) -> dict:
        return {
            "length": self.length,
            "repeats": self.repeats,
            "multiplicity_ok": self.multiplicity_ok,
            "avoided": dict(self.avoided),
            "elapsed_ms": round(self.elapsed_ms, 3),
        }


def verify(n: int, k: int, guard: int = 100_000) -> VerifyReport:
    """Build s and check multiplicity plus avoidance of its pattern set.

    The set is the constant of length k+2 together with the balanced
    family: multiplied staircases with group size k+1 and the four
    double runs over n+1 values.  Guarded by the length (k+1) n^6.
    """
    if n < 1 or k < 1:
        raise ValueError(f"need n >= 1 and k >= 1, got n={n}, k={k}")
    check_guard((k + 1) * n**6, guard, f"verification word for n={n}, k={k}")
    return _report(n, k, lambda: build(n, k).s, family_mult(n, k))


def verify_q_lemma(n: int, k: int, guard: int = 100_000) -> VerifyReport:
    """Check the intermediate word q against its own avoidance guarantees.

    q must avoid the constant of length k+2, the two-value multiplied
    staircase with group size k+1 in both orientations, and all four
    double runs over n+1 values.  Reported, not asserted: a failing
    member shows up as False in ``avoided``.
    """
    if n < 1 or k < 1:
        raise ValueError(f"need n >= 1 and k >= 1, got n={n}, k={k}")
    check_guard((k + 1) * n**4, guard, f"intermediate word for n={n}, k={k}")
    # n >= 1 collapses no member: two staircases, then four double runs.
    return _report(n, k, lambda: _build_q(n, k)[-1], family_mult(1, k)[:2] + family_mult(n, k)[2:])


def _report(n: int, k: int, make, members: list[tuple[FamilyId, Word]]) -> VerifyReport:
    """Check the word ``make()`` builds for multiplicity k+1 and against
    the constant of length k+2 and ``members``, indexing the word once
    for all of them; building it is timed too."""
    start = time.perf_counter()
    w = make()
    host = _Host(w)
    avoided = {"Constant": contains_constant(host, k + 2) is None}
    for fid, _ in members:
        avoided[str(fid)] = find_family_member(host, fid) is None
    mult_ok = all(c == k + 1 for c in multiplicities(w).values())
    elapsed = (time.perf_counter() - start) * 1000.0
    return VerifyReport(
        n=n,
        k=k,
        length=len(w),
        repeats=repeats(w),
        multiplicity_ok=mult_ok,
        avoided=avoided,
        elapsed_ms=elapsed,
    )


@dataclass(frozen=True)
class MonotoneReport:
    """Longest monotone subword lengths of one word, both directions."""

    nondecreasing: int
    nonincreasing: int

    @property
    def longest(self) -> int:
        return max(self.nondecreasing, self.nonincreasing)


def max_monotone_of_r(n: int, k: int) -> MonotoneReport:
    """Longest monotone subword lengths of the skew-stacked block word r."""
    _, r = _build_r(n, k)
    return MonotoneReport(
        nondecreasing=len(longest_nondecreasing(r)),
        nonincreasing=len(longest_nonincreasing(r)),
    )
