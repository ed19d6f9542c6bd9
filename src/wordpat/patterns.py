"""Unavoidable-pattern families and polynomial-time specialized checkers.

The base family for parameters (n, k) has seven members: the constant
pattern of length k+2, the doubled monotone staircase 0011...nn and its
reverse, and the four concatenations of two strictly monotone runs over
the same n+1 values.  The balanced-word family swaps the constant for
multiplied staircases 0^(k+1)...n^(k+1).

A double run is a chain of values v_0 < ... < v_n, each with a position
p_t in the first run and q_t in the second.  The searches read a
host's positions per value in rising value order and address a value by
its rank.  Reversing a run is the same search on the value complement,
whose index is that list reversed, so two shapes remain:

* nested (rev,id): p_n < ... < p_0 < q_0 < ... < q_n, intervals nested
  outward as the value grows.  The innermost interval may be taken
  between two adjacent occurrences of v_0, since any interval of v_0
  contains such a pair.  Extending an outermost interval (P, Q) by v
  needs only the largest p < P and smallest q > Q: a wider choice is a
  worse start for every later value.
* ascending (id,id): p_0 < ... < p_n < q_0 < ... < q_n.  The lowest
  value's pair (p_0, q_0) is a pivot that caps every later first-run
  position below q_0.  p_0 may be v_0's first occurrence, since an
  earlier start only widens the window, so v_0 with m occurrences gives
  m-1 pivots.  Per pivot, each value above v_0 that occurs inside the
  window and after q_0 extends a chain by its next positions after the
  chain's last (p, q).

Before its chain search an ascending pivot must pass a patience-sorting
bound.  The chain's v_1 < ... < v_n sit at p_0 < p_1 < ... < p_n < q_0
and each occurs again after q_0, so the letters strictly between p_0
and q_0 that are above v_0 and occur after q_0 hold a strictly
increasing subsequence of length n.  Patience sorting finds the longest
one with one bisection per letter, and a pivot whose bound is under n
is skipped: no occurrence is lost.  The tails carry over from one q_0
of v_0 to the next, so each letter is scanned once per v_0; a letter
admitted under an earlier, smaller q_0 need not occur after the current
one, so the carried length bounds the exact one from above.

A pivot value must also pass a chain-level bound, built only after a
call's pivot scan has read 8 letters per host letter, so short words and
words with an early chain never pay for it, and then at most once per
host, for both orientations.  The level of v is the most values in a
chain v = v_0 < v_1 < ... where the word restricted to {v_t, v_t+1}
holds x y x y.  An ascending run has p_t < p_t+1 < q_t < q_t+1, so its
values form such a chain, and a pivot value of level at most n is
skipped: no occurrence is lost.  One sweep
keeps the latest position of each value that occurs again in a sorted
list; at a repeat q of v, dropping v's previous position leaves after it
one position per value crossing v there.  These hold positions, not
ranks, so one sweep serves both orientations, and a pass from the top
rank down takes each orientation's levels.  On construction words no
pivot value exceeds level n, so once the levels stand no window is
scanned.

Both shapes keep, per chain length, the Pareto-minimal states in two
keys that grow along a chain, (p, q) or (-p, q): a state no smaller than
another in either key finishes only chains the other finishes too.  Such
a front is an antichain sorted by its first key with the second falling,
so the dominance test is one bisection and the insert one slice
assignment, and of the states whose next first key is the same only the
last, which has the least second key, needs extending.
"""

from __future__ import annotations

import enum
from bisect import bisect_left, bisect_right
from dataclasses import dataclass
from functools import lru_cache
from typing import Callable, NamedTuple

from .words import Occurrence, Word, occurrences_by_value


class Direction(enum.Enum):
    """Orientation of a monotone run: identity or reversal."""

    ID = "id"
    REV = "rev"

    def flip(self) -> "Direction":
        return Direction.REV if self is Direction.ID else Direction.ID

    def __str__(self) -> str:
        return self.value


@dataclass(frozen=True)
class FamilyId:
    """Identifies one member of an unavoidable-pattern family."""

    kind: str  # "constant" | "doubled_monotone" | "double_run"
    n: int
    k: int
    e1: Direction | None = None
    e2: Direction | None = None

    def __str__(self) -> str:
        return _KINDS[self.kind].name(self)


def constant_pattern(m: int) -> Word:
    return (0,) * m


def multiplied_monotone_pattern(n: int, mult: int, e: Direction) -> Word:
    """n+1 groups of ``mult`` equal letters, strictly monotone per ``e``."""
    base = tuple(v for v in range(n + 1) for _ in range(mult))
    return base if e is Direction.ID else base[::-1]


def run_pattern(n: int, e: Direction) -> Word:
    base = tuple(range(n + 1))
    return base if e is Direction.ID else base[::-1]


def double_run_pattern(n: int, e1: Direction, e2: Direction) -> Word:
    return run_pattern(n, e1) + run_pattern(n, e2)


@lru_cache(maxsize=64)
def _members(n: int, k: int, mult: int, with_constant: bool) -> tuple[tuple[FamilyId, Word], ...]:
    """Family members in the fixed order, staircases with group size
    ``mult``, degenerate duplicates collapsed; built once per argument
    tuple, so callers copy before handing it out."""
    if n < 0 or k < 1:
        raise ValueError(f"need n >= 0 and k >= 1, got n={n}, k={k}")
    fids = [FamilyId("constant", n, k)] if with_constant else []
    fids += [FamilyId("doubled_monotone", n, k, e) for e in Direction]
    fids += [FamilyId("double_run", n, k, e1, e2) for e1 in Direction for e2 in Direction]
    seen: set[Word] = set()
    out = []
    for fid in fids:
        pat = _KINDS[fid.kind].pattern(fid, mult)
        if pat not in seen:
            seen.add(pat)
            out.append((fid, pat))
    return tuple(out)


def family(n: int, k: int) -> list[tuple[FamilyId, Word]]:
    """The seven base patterns for (n, k), degenerate duplicates collapsed.

    Fixed order: constant, doubled monotone (id, rev), then the four
    double runs (id,id), (id,rev), (rev,id), (rev,rev).
    """
    return list(_members(n, k, 2, True))


def family_mult(n: int, k: int) -> list[tuple[FamilyId, Word]]:
    """The six balanced-word patterns: multiplied staircases and double runs.

    The doubled-monotone members use group size k+1; at k=1 they
    coincide with the base family's staircases.
    """
    return list(_members(n, k, k + 1, False))


class _Host:
    """A word prepared once for all the member checks against it.

    The index lists each value's positions in rising value order, so the
    searches address a value by its rank.  The value complement reverses
    the ranks: its host is the same word with this index reversed.  Each
    part is built on first use, so one check builds only what its
    checker reads.  Checkers never modify the index lists, which the
    complement shares.
    """

    __slots__ = ("word", "_occ", "_complement", "_levels")

    def __init__(self, w, occ: list[list[int]] | None = None):
        self.word: Word = tuple(w)
        self._occ = occ
        self._complement: _Host | None = None
        self._levels: dict[Direction, list[int]] | None = None

    def occ(self) -> list[list[int]]:
        if self._occ is None:
            index = occurrences_by_value(self.word)
            self._occ = [index[v] for v in sorted(index)]
        return self._occ

    def oriented(self, e: Direction) -> _Host:
        """This host for ID; for REV, its complement, where a descending
        run is an ascending one."""
        if e is Direction.ID:
            return self
        if self._complement is None:
            self._complement = _Host(self.word, self.occ()[::-1])
        return self._complement

    def chain_levels(
        self, occ: list[list[int]], w: list[int], last: list[int]
    ) -> dict[Direction, list[int]]:
        """Each orientation's chain levels, from one sweep of the word as
        ``occ``, ``w`` and ``last`` give it in either orientation; the
        crossings it finds hold positions, so they serve both."""
        if self._levels is None:
            crossings = _crossings(occ, w, last)
            self._levels = {
                e: _chain_levels(self.oriented(e).occ(), crossings, len(w)) for e in Direction
            }
        return self._levels


def _prepare(w, n: int, mult: int = 1) -> _Host:
    """A raw word as a host, once the member parameters are checked."""
    if n < 0 or mult < 1:
        raise ValueError(f"need n >= 0 and mult >= 1, got n={n}, mult={mult}")
    return _Host(w)


def contains_constant(w, m: int) -> Occurrence | None:
    """First m positions of the value whose m-th occurrence comes earliest."""
    if m < 1:
        raise ValueError(f"multiplicity must be positive, got {m}")
    seen: dict[int, list[int]] = {}
    for i, v in enumerate(tuple(w), start=1):
        ps = seen.setdefault(v, [])
        ps.append(i)
        if len(ps) == m:
            return tuple(ps)
    return None


def contains_multiplied_monotone(w, n: int, mult: int, e: Direction) -> Occurrence | None:
    """Occurrence of n+1 groups of ``mult`` equal letters, monotone per ``e``."""
    return _multiplied_monotone(_prepare(w, n, mult), n, mult, e)


def _multiplied_monotone(host: _Host, n: int, mult: int, e: Direction) -> Occurrence | None:
    if len(host.word) < (n + 1) * mult:
        return None
    # Chain DP over values in increasing order.  best[L] is the chain of
    # L groups with the least end position, as (end, group, parent);
    # extending with a value always takes its first `mult` occurrences
    # after the previous end, which is exchange-optimal.  Longest first,
    # so that no chain uses a value twice.
    target = n + 1
    best: list[tuple | None] = [(0, (), None)] + [None] * target
    for ps in host.oriented(e).occ():
        if len(ps) < mult:
            continue
        for length in range(target, 0, -1):
            prev = best[length - 1]
            if prev is None:
                continue
            i = bisect_right(ps, prev[0])
            if i + mult <= len(ps):
                end = ps[i + mult - 1]
                if best[length] is None or end < best[length][0]:
                    best[length] = (end, ps[i : i + mult], prev)
        state = best[target]
        if state is not None:
            groups = []
            while state[2] is not None:
                groups.append(state[1])
                state = state[2]
            return tuple(p for group in reversed(groups) for p in group)
    return None


def contains_double_run(w, n: int, e1: Direction, e2: Direction) -> Occurrence | None:
    """Occurrence of two position-separated monotone runs over the same
    n+1 values, the first oriented per ``e1`` and the second per ``e2``."""
    return _double_run(_prepare(w, n), n, e1, e2)


def _double_run(host: _Host, n: int, e1: Direction, e2: Direction) -> Occurrence | None:
    if len(host.word) < 2 * (n + 1):
        return None
    # (id,id) and (rev,id) are searched on the host itself, (rev,rev) and
    # (id,rev) on its complement.
    oriented = host.oriented(e2)
    if n == 0:
        # Both shapes reduce to two occurrences of one value.
        for ps in oriented.occ():
            if len(ps) > 1:
                return (ps[0], ps[1])
        return None
    if e1 is e2:
        return _double_run_ascending(host, oriented.occ(), n, e2)
    return _double_run_nested(oriented.occ(), n)


def _pareto_insert(front: list, state: tuple) -> None:
    # front: antichain of (a, b, parent) states minimal in (a, b), sorted
    # by a and so with b falling.  front[:j] holds the states with A <= a,
    # the last of them with the least B; from front[i] on, the newcomer
    # dominates every state while B >= b.
    a, b = state[0], state[1]
    j = bisect_left(front, (a + 1,))
    if j and front[j - 1][1] <= b:
        return
    i = k = bisect_left(front, (a,), 0, j)
    while k < len(front) and front[k][1] >= b:
        k += 1
    front[i:k] = [state]


def _grow(fronts: list, firsts: list, seconds: list) -> list | None:
    """Extend the chains in ``fronts`` (``fronts[L]`` over L+1 values) by a
    value with sorted keys ``firsts`` and ``seconds`` in the two runs.
    Returns the (first, second) keys of the first chain over
    ``len(fronts) + 1`` values, its last value first, else None."""
    top = len(fronts) - 1
    # Longest first, so that no chain uses the new value twice.
    for length in range(top, -1, -1):
        front = fronts[length]
        if not front:
            continue
        last = -1
        for f in firsts:
            # Of the states whose next first key is f, the last one has
            # the least second key; the others would grow dominated.
            at = bisect_left(front, (f,)) - 1
            if at == last:
                continue
            last = at
            state = front[at]
            j = bisect_right(seconds, state[1])
            if j == len(seconds):
                continue
            grown = (f, seconds[j], state)
            if length < top:
                _pareto_insert(fronts[length + 1], grown)
                continue
            keys = []
            while grown is not None:
                keys.append(grown[:2])
                grown = grown[2]
            return keys
    return None


# The pivot scan reads this many letters per host letter before the
# chain levels are built.  Built at once, they made an ascending call on
# a fresh host take 3.2 ms instead of 0.30 ms on uniform 20x96 words at
# n = 1, and 45 instead of 19 us on 2x7 words; on construction words the
# scan reads over 100 letters per host letter, and the levels reject
# every pivot.
_SCAN_BEFORE_LEVELS = 8


def _double_run_ascending(
    host: _Host, occ: list[list[int]], n: int, e: Direction
) -> Occurrence | None:
    # occ is the host's index oriented by e.
    # The letter at each 1-based position as its value rank, and each
    # rank's last position.
    w = [0] * (len(host.word) + 1)
    last = []
    for v, ps in enumerate(occ):
        for p in ps:
            w[p] = v
        last.append(ps[-1])
    levels = None
    unread = _SCAN_BEFORE_LEVELS * len(host.word)
    for v0 in range(len(occ) - n):
        if unread < 0:
            if levels is None:
                levels = host.chain_levels(occ, w, last)[e]
            if levels[v0] <= n:
                continue
        ps0 = occ[v0]
        p0 = ps0[0]
        tails: list[int] = []
        inside: set[int] = set()
        for q_prev, q0 in zip(ps0, ps0[1:]):
            # Patience sorting bounds the chains; once n tails stand,
            # every later pivot of v0 passes too.
            if len(tails) < n:
                unread -= q0 - q_prev - 1
                for v in w[q_prev + 1 : q0]:
                    if v > v0 and last[v] > q0:
                        i = bisect_left(tails, v)
                        if i < len(tails):
                            tails[i] = v
                        else:
                            tails.append(v)
                if len(tails) < n:
                    continue
                # The first pivot to pass collects the earlier letters.
                inside.update(w[p0 + 1 : q_prev + 1])
            inside.update(w[q_prev + 1 : q0])
            window = sorted(v for v in inside if v > v0 and last[v] > q0)
            fronts = [[(p0, q0, None)]] + [[] for _ in range(n - 1)]
            for v in window:
                ps = occ[v]
                keys = _grow(fronts, ps[: bisect_left(ps, q0)], ps)
                if keys is not None:
                    keys.reverse()
                    return tuple(p for p, _ in keys) + tuple(q for _, q in keys)
    return None


def _crossings(occ: list[list[int]], w: list[int], last: list[int]) -> dict[int, list[int]]:
    """Per value, keyed by its first position, one position of each value
    crossing it: occurring between two consecutive occurrences of it and
    again after the second.  Keyed and filled by position, so it is the
    same for both orientations of the word.

    ``w`` is the 1-based rank word and ``last`` each rank's last position.
    """
    # recurring: the latest position so far of each value that occurs
    # again.  At a repeat q of v, the entries after v's previous
    # occurrence are one per value that occurs since then and after q.
    recurring: list[int] = []
    crossing: list[list[int]] = [[] for _ in occ]
    prev = [0] * len(occ)
    for q in range(1, len(w)):
        v = w[q]
        p = prev[v]
        if p:
            i = bisect_left(recurring, p)
            del recurring[i]
            crossing[v] += recurring[i:]
        if q < last[v]:
            recurring.append(q)
            prev[v] = q
    return {ps[0]: c for ps, c in zip(occ, crossing)}


def _chain_levels(occ: list[list[int]], crossings: dict[int, list[int]], size: int) -> list[int]:
    """Each rank's chain level: the most values v_0 < v_1 < ... from it
    such that the word restricted to {v_t, v_t+1} holds x y x y.

    ``size`` bounds the positions, which are below it.
    """
    # From the top rank down; positions of lower ranks still read 0.
    at = [0] * size
    levels = [0] * len(occ)
    for v in range(len(occ) - 1, -1, -1):
        ps = occ[v]
        level = levels[v] = 1 + max(map(at.__getitem__, crossings[ps[0]]), default=0)
        for p in ps:
            at[p] = level
    return levels


def _double_run_nested(occ: list[list[int]], n: int) -> Occurrence | None:
    fronts: list[list] = [[] for _ in range(n)]
    for ps in occ:
        if len(ps) < 2:
            continue
        # The last occurrence cannot open a run, nor the first close one.
        keys = _grow(fronts, [-p for p in reversed(ps[:-1])], ps[1:])
        if keys is not None:
            return tuple(-p for p, _ in keys) + tuple(q for _, q in reversed(keys))
        for p, q in zip(ps, ps[1:]):
            _pareto_insert(fronts[0], (-p, q, None))
    return None


class _Kind(NamedTuple):
    name: Callable[[FamilyId], str]
    pattern: Callable[[FamilyId, int], Word]  # (member, staircase group size)
    find: Callable[[_Host, FamilyId, int], Occurrence | None]


class _KindTable(dict):
    def __missing__(self, kind: str):
        raise ValueError(f"unknown family member kind: {kind}")


# Everything that depends on FamilyId.kind.
_KINDS = _KindTable({
    "constant": _Kind(
        lambda fid: "Constant",
        lambda fid, mult: constant_pattern(fid.k + 2),
        lambda host, fid, mult: contains_constant(host.word, fid.k + 2),
    ),
    "doubled_monotone": _Kind(
        lambda fid: f"DoubledMonotone({fid.e1})",
        lambda fid, mult: multiplied_monotone_pattern(fid.n, mult, fid.e1),
        lambda host, fid, mult: _multiplied_monotone(host, fid.n, mult, fid.e1),
    ),
    "double_run": _Kind(
        lambda fid: f"DoubleRun({fid.e1},{fid.e2})",
        lambda fid, mult: double_run_pattern(fid.n, fid.e1, fid.e2),
        lambda host, fid, mult: _double_run(host, fid.n, fid.e1, fid.e2),
    ),
})


def find_family_member(w, fid: FamilyId, doubled_mult: int | None = None) -> Occurrence | None:
    """Run the specialized checker for one family member.

    ``w`` is a word or a ``_Host`` shared by several checks.
    ``doubled_mult`` overrides the group size of doubled-monotone
    members: 2 (default) for the base family, k+1 for the balanced-word
    family.
    """
    mult = 2 if doubled_mult is None else doubled_mult
    host = w if type(w) is _Host else _prepare(w, fid.n, mult)
    return _KINDS[fid.kind].find(host, fid, mult)


def base_pattern(fid: FamilyId) -> Word:
    """The concrete base-family pattern a FamilyId names."""
    return _KINDS[fid.kind].pattern(fid, 2)


def contains_any_family(w, n: int, k: int) -> tuple[FamilyId, Occurrence] | None:
    """First base-family member with an occurrence, in the fixed order."""
    host = _Host(w)
    for fid, _ in _members(n, k, 2, True):
        found = find_family_member(host, fid)
        if found is not None:
            return fid, found
    return None
