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
whose ranks are those reversed, so two shapes remain:

* nested (rev,id): p_n < ... < p_0 < q_0 < ... < q_n, intervals nested
  outward as the value grows.  The search runs from the top rank down,
  growing chains inward, so each value enters as one seed: its widest
  pair, which holds every other pair of it.  Extending an innermost
  interval (P, Q) by v at p > P needs only v's largest q < Q.  A found
  chain is drawn tight: v_0 keeps p_0 and takes its next position as
  q_0, and each outer value its nearest positions outside.
* ascending (id,id): p_0 < ... < p_n < q_0 < ... < q_n.  The lowest
  value's pair (p_0, q_0) is a pivot that caps every later first-run
  position below q_0.  p_0 may be v_0's first occurrence, since an
  earlier start only widens the window, so v_0 with m occurrences gives
  m-1 pivots.  Per pivot, the values above v_0 are read in rising rank
  order from their position lists: each with a position inside the
  window (p_0, q_0) and one after q_0 extends a chain by its next
  positions after the chain's last (p, q).

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

A pivot value must also pass a chain-level bound.  The level of v is
the most values in a chain v = v_0 < v_1 < ... where the word restricted
to {v_t, v_t+1} holds x y x y.  An ascending run has p_t < p_t+1 < q_t <
q_t+1, so its values form such a chain, and a pivot value of level at
most n is skipped: no occurrence is lost.  One sweep keeps the latest
position of each value that occurs again in a sorted list; at a repeat
q of v, dropping v's previous position leaves after it one position per
value crossing v there.  These are positions, so the crossings listed by
one orientation's rank serve the other reversed, and a pass from the top
rank down takes each orientation's levels.  They are built only after a
call's pivot scan has read 8 letters per host letter, so short words and
words with an early chain never pay for them.  Then both orientations'
levels are kept on the host as a pair, and a later ascending call on
either orientation reads them at once.  On construction words no
pivot value exceeds level n, so once the levels stand no window is
scanned.

Both shapes keep, per chain length, the Pareto-minimal states in two
keys that grow along a chain, (p, q) or (p, -q): a state no smaller than
another in either key finishes only chains the other finishes too.  Such
a front is an antichain, kept as three parallel lists: the first keys
rising, the second keys falling and the states.  So each dominance test
is one bisection over ints, and of the states whose next first key is
the same only the last, which has the least second key, needs
extending.  A value grows each of its first keys from the shortest
chains up and stops at the first length the key extends nothing: every
state of the next front is dominated by one of this front, since
dropping a chain's last value leaves a state no worse, so a key that
extends nothing here extends nothing longer.  All of a value's queries
run before any of its states is inserted, so no chain uses it twice.
"""

from __future__ import annotations

import enum
from bisect import bisect_left, bisect_right
from dataclasses import dataclass
from functools import lru_cache
from typing import Callable, NamedTuple

from .guards import check_ints
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
    """Identifies one member of an unavoidable-pattern family, and so its
    pattern: ``mult`` is the staircase group size, k+1 on the balanced
    family's staircases and 2 on every other member.

    A member is checked once, when it is made (``dataclasses.replace``
    included): an unknown kind, an n, k or mult that is not an int,
    n < 0, k < 1, mult < 1, an orientation its kind reads that is not
    a ``Direction``, or a field its kind does not read that is not its
    default raises ValueError.  So every checker trusts the member it is
    handed.
    """

    kind: str  # "constant" | "doubled_monotone" | "double_run"
    n: int
    k: int
    e1: Direction | None = None
    e2: Direction | None = None
    mult: int = 2

    def __post_init__(self) -> None:
        kind = _KINDS.get(self.kind)
        if kind is None:
            raise ValueError(f"unknown family member kind: {self.kind}")
        check_ints(n=(self.n, 0), k=(self.k, 1), mult=(self.mult, 1))
        for name, default in (("e1", None), ("e2", None), ("mult", 2)):
            value = getattr(self, name)
            if name not in kind.reads:
                if value != default:
                    raise ValueError(f"{self.kind} reads no {name}: need {default!r}, got {value!r}")
            # Checkers test only ``is Direction.REV``: anything else would read as ID.
            elif default is None and type(value) is not Direction:
                raise ValueError(f"orientation must be a Direction, got {value!r}")

    def __str__(self) -> str:
        return _KINDS[self.kind].name(self)


def constant_pattern(m: int) -> Word:
    return (0,) * m


def multiplied_monotone_pattern(n: int, mult: int, e: Direction) -> Word:
    """n+1 groups of ``mult`` equal letters, strictly monotone per ``e``."""
    return tuple(v for v in run_pattern(n, e) for _ in range(mult))


def run_pattern(n: int, e: Direction) -> Word:
    base = tuple(range(n + 1))
    return base if e is Direction.ID else base[::-1]


def double_run_pattern(n: int, e1: Direction, e2: Direction) -> Word:
    return run_pattern(n, e1) + run_pattern(n, e2)


@lru_cache(maxsize=64)
def _members(n: int, k: int, balanced: bool) -> tuple[tuple[FamilyId, Word], ...]:
    """Family members in the fixed order, degenerate duplicates collapsed;
    the balanced family drops the constant and sizes its staircases k+1.
    The first member made checks n and k.  Built once per argument
    tuple, so callers copy before handing it out."""
    fids = [] if balanced else [FamilyId("constant", n, k)]
    fids += [FamilyId("doubled_monotone", n, k, e, mult=k + 1 if balanced else 2) for e in Direction]
    fids += [FamilyId("double_run", n, k, e1, e2) for e1 in Direction for e2 in Direction]
    seen: set[Word] = set()
    out = []
    for fid in fids:
        pat = _KINDS[fid.kind].pattern(fid)
        if pat not in seen:
            seen.add(pat)
            out.append((fid, pat))
    return tuple(out)


def family(n: int, k: int) -> list[tuple[FamilyId, Word]]:
    """The seven base patterns for (n, k), degenerate duplicates collapsed.

    Fixed order: constant, doubled monotone (id, rev), then the four
    double runs (id,id), (id,rev), (rev,id), (rev,rev).
    """
    return list(_members(n, k, False))


def family_mult(n: int, k: int) -> list[tuple[FamilyId, Word]]:
    """The six balanced-word patterns: multiplied staircases and double runs.

    The doubled-monotone members carry group size k+1; at k=1 they
    equal the base family's staircases.
    """
    return list(_members(n, k, True))


class _Host:
    """A word prepared once for all the member checks against it.

    For each orientation the host lists each value's positions in rank
    order: rising values for ID, falling for REV, where a descending run
    is an ascending one.  Every checker reads only these lists, so the
    host builds them, as an (ID, REV) pair, when it is made.  It also
    keeps the chain levels of both orientations as a pair, which
    ``_chain_levels`` sets on first use, so a later ascending call on
    either reads them at once.  Checkers never modify the lists.

    A caller checking several members passes one host to each check,
    which ``_prepare`` passes through; any other word gets the host of
    ``_tuple_host``.  Two threads sharing a host may each build the
    levels, and the later pair replaces the earlier; the two are equal,
    and each is set only once complete, so at worst work is repeated.
    """

    __slots__ = ("word", "_occ", "_levels")

    def __init__(self, w):
        self.word: Word = tuple(w)
        index = occurrences_by_value(self.word)
        by_rank = [index[v] for v in sorted(index)]
        self._occ = (by_rank, by_rank[::-1])
        self._levels: tuple[list[int], list[int]] | None = None

    def occ(self, e: Direction) -> list[list[int]]:
        return self._occ[e is Direction.REV]


# One slot, (word, host): consecutive checks of one raw word share its
# host, and at most one raw word is kept alive.  More slots would keep
# dropped words alive, and a caller cycling through a few words, as a
# wpbench round does, would hit across words: checks would then time a
# cache.  Equal words, a list and its tuple say, share a host: it records
# positions only.  The slot is tested with ``is`` first, so a repeated
# tuple is not compared, let alone hashed, and it is replaced as one
# object, so a reader never pairs one word with another's host.  It
# starts empty as (None, None): the empty tuple is a singleton.
_raw_slot: tuple = (None, None)


def _tuple_host(w: Word) -> _Host:
    global _raw_slot
    word, host = _raw_slot
    if w is not word and w != word:
        host = _Host(w)
        _raw_slot = (host.word, host)
    return host


def _prepare(w) -> _Host:
    """The host a checker runs on; every checker gets its host here, and
    only its host: a member's parameters were checked when it was made.
    A host passes through; any other word is read as a tuple, which keeps
    its host until a different raw word arrives, so a changed list is
    indexed again."""
    return w if type(w) is _Host else _tuple_host(tuple(w))


def contains_constant(w, m: int) -> Occurrence | None:
    """First m positions of the value whose m-th occurrence comes earliest;
    ``w`` is a word or a ``_Host`` shared by several checks."""
    if m < 1:
        raise ValueError(f"multiplicity must be positive, got {m}")
    held = [ps for ps in _prepare(w).occ(Direction.ID) if len(ps) >= m]
    return tuple(min(held, key=lambda ps: ps[m - 1])[:m]) if held else None


def contains_multiplied_monotone(w, n: int, mult: int, e: Direction) -> Occurrence | None:
    """Occurrence of n+1 groups of ``mult`` equal letters, monotone per ``e``."""
    return find_family_member(w, FamilyId("doubled_monotone", n, 1, e, mult=mult))


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
    for ps in host.occ(e):
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
    n+1 values, the first oriented per ``e1`` and the second per ``e2``.
    A nested shape's chain comes back drawn tight around its innermost
    pair; which occurrence comes back may change between versions."""
    return find_family_member(w, FamilyId("double_run", n, 1, e1, e2))


def _double_run(host: _Host, n: int, e1: Direction, e2: Direction) -> Occurrence | None:
    if n == 0:
        # Both shapes are two occurrences of one value: the one-group staircase.
        return _multiplied_monotone(host, 0, 2, e2)
    if len(host.word) < 2 * (n + 1):
        return None
    # Ranked per e2, (rev,rev) is (id,id) and (id,rev) is (rev,id).
    if e1 is e2:
        return _double_run_ascending(host, n, e2)
    return _double_run_nested(host.occ(e2), n)


def _pareto_insert(front: tuple[list[int], list[int], list], state: tuple) -> None:
    # front: the states (a, b, parent, ps) minimal in (a, b), as their first
    # keys A rising, their second keys B falling and the states S.  A[:j]
    # holds the first keys <= a, the last with the least second key; from
    # A[i] on, the newcomer dominates every state while B >= b.
    A, B, S = front
    a, b = state[0], state[1]
    j = bisect_right(A, a)
    if j and B[j - 1] <= b:
        return
    i = k = bisect_left(A, a, 0, j)
    while k < len(B) and B[k] >= b:
        k += 1
    A[i:k] = (a,)
    B[i:k] = (b,)
    S[i:k] = (state,)


def _grow(fronts: list, ps: list[int], firsts: range, lo: int | None) -> tuple | None:
    """Extend the chains in ``fronts`` (``fronts[L]`` over L+1 values) by a
    value at the rising positions ``ps``, as states (first key, second
    key, parent, ps): its first keys are ``ps[i]`` for i in ``firsts``,
    rising.  Ascending, its second key is its next position after the
    state's, from ``ps[lo:]``; nested (``lo`` None), minus its last one
    before the state's -Q, from ``ps[i+1:]``.  Returns the first state
    over ``len(fronts) + 1`` values, else None."""
    top = len(fronts) - 1
    if not fronts[0][0]:
        # No state yet: the longer fronts nest in this one, so all are empty.
        return None
    # last[L]: where in fronts[L] the state an earlier key extended stands.
    last = [-1] * len(fronts)
    grown = []
    for i in firsts:
        f = ps[i]
        # Shortest first: each state of fronts[L+1] is dominated by one of
        # fronts[L], so a key that extends nothing here extends nothing
        # longer either.
        for length, (A, B, S) in enumerate(fronts):
            # Of the states with first keys below f, the last has the
            # least second key, so only it needs extending.
            at = bisect_left(A, f) - 1
            if at < 0:
                break
            if at == last[length]:
                # A smaller key extended this state; f would grow it
                # dominated.
                continue
            if lo is None:
                j = bisect_left(ps, -B[at], i + 1) - 1
                if j == i:
                    break
                second = -ps[j]
            else:
                j = bisect_right(ps, B[at], lo)
                if j == len(ps):
                    break
                second = ps[j]
            state = (f, second, S[at], ps)
            if length == top:
                return state
            last[length] = at
            grown.append((fronts[length + 1], state))
    # Every query has run, so no chain uses the value twice.
    for front, state in grown:
        _pareto_insert(front, state)
    return None


# The pivot scan reads this many letters per host letter before the
# chain levels are built.  Built at once, they made an ascending call on
# a fresh host take 3.2 ms instead of 0.30 ms on uniform 20x96 words at
# n = 1, and 45 instead of 19 us on 2x7 words; on construction words the
# scan reads over 100 letters per host letter, and the levels reject
# every pivot.
_SCAN_BEFORE_LEVELS = 8


def _rank_word(occ: list[list[int]], size: int) -> tuple[list[int], list[int]]:
    """The letter at each 1-based position of a ``size``-letter word as its
    rank in ``occ``, and each rank's last position."""
    w = [0] * (size + 1)
    last = []
    for v, ps in enumerate(occ):
        for p in ps:
            w[p] = v
        last.append(ps[-1])
    return w, last


def _double_run_ascending(host: _Host, n: int, e: Direction) -> Occurrence | None:
    occ = host.occ(e)
    w, last = _rank_word(occ, len(host.word))
    # Levels an earlier call set are read at once.
    levels = None if host._levels is None else host._levels[e is Direction.REV]
    unread = -1 if levels is not None else _SCAN_BEFORE_LEVELS * len(host.word)
    for v0 in range(len(occ) - n):
        if unread < 0:
            if levels is None:
                levels = _chain_levels(host, e, w, last)
            if levels[v0] <= n:
                continue
        ps0 = occ[v0]
        p0 = ps0[0]
        tails: list[int] = []
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
            fronts = [([p0], [q0], [(p0, q0, None, ps0)])] + [([], [], []) for _ in range(n - 1)]
            for v in range(v0 + 1, len(occ)):
                if last[v] < q0:
                    continue
                ps = occ[v]
                # Its first keys lie inside the window, its second keys after.
                i = bisect_right(ps, p0)
                m = bisect_left(ps, q0, i)
                if i == m:
                    continue
                state = _grow(fronts, ps, range(i, m), m)
                if state is not None:
                    keys = []
                    while state is not None:
                        keys.append(state[:2])
                        state = state[2]
                    return tuple(p for p, _ in reversed(keys)) + tuple(q for _, q in reversed(keys))
    return None


def _crossings(w: list[int], last: list[int]) -> list[list[int]]:
    """Per rank, one position of each value crossing it: occurring between
    two consecutive occurrences of it and again after the second.  These
    are positions, so reversed the list serves the other orientation.

    ``w`` is the 1-based rank word and ``last`` each rank's last position.
    """
    # recurring: the latest position so far of each value that occurs
    # again.  At a repeat q of v, the entries after v's previous
    # occurrence are one per value that occurs since then and after q.
    recurring: list[int] = []
    crossing: list[list[int]] = [[] for _ in last]
    prev = [0] * len(last)
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
    return crossing


def _chain_levels(host: _Host, e: Direction, w: list[int], last: list[int]) -> list[int]:
    """Set both orientations' chain levels on the host, from one sweep of
    the word as ``w`` and ``last`` give it oriented by ``e``; returns e's.
    The level of a rank is the most values v_0 < v_1 < ... from it such
    that the word restricted to {v_t, v_t+1} holds x y x y.
    """
    crossings = _crossings(w, last)
    if e is Direction.REV:
        crossings.reverse()
    pair = []
    for f, crossing in ((Direction.ID, crossings), (Direction.REV, crossings[::-1])):
        occ = host.occ(f)
        # From the top rank down; positions of lower ranks still read 0.
        at = [0] * len(w)
        levels = [0] * len(occ)
        for v in range(len(occ) - 1, -1, -1):
            level = levels[v] = 1 + max(map(at.__getitem__, crossing[v]), default=0)
            for p in occ[v]:
                at[p] = level
        pair.append(levels)
    host._levels = tuple(pair)
    return pair[e is Direction.REV]


def _double_run_nested(occ: list[list[int]], n: int) -> Occurrence | None:
    fronts = [([], [], []) for _ in range(n)]
    for ps in reversed(occ):
        if len(ps) < 2:
            continue
        # The last occurrence cannot open a run.
        state = _grow(fronts, ps, range(len(ps) - 1), None)
        if state is not None:
            # Draw the chain tight around its innermost p: each value takes
            # its positions nearest the ones inside it.  By induction each
            # new p is no smaller and each new q no larger than the found
            # ones, so every value still has such positions.
            p, _, state, ps = state
            firsts, seconds = [p], [ps[bisect_right(ps, p)]]
            while state is not None:
                _, _, state, ps = state
                firsts.append(ps[bisect_left(ps, firsts[-1]) - 1])
                seconds.append(ps[bisect_right(ps, seconds[-1])])
            return tuple(reversed(firsts)) + tuple(seconds)
        # Its widest pair dominates every other pair of it.
        _pareto_insert(fronts[0], (ps[0], -ps[-1], None, ps))
    return None


class _Kind(NamedTuple):
    name: Callable[[FamilyId], str]
    reads: tuple[str, ...]  # which of e1, e2 and mult its checker reads
    pattern: Callable[[FamilyId], Word]
    find: Callable[[_Host, FamilyId], Occurrence | None]


# Everything that depends on FamilyId.kind.
_KINDS = {
    "constant": _Kind(
        lambda fid: "Constant",
        (),
        lambda fid: constant_pattern(fid.k + 2),
        lambda host, fid: contains_constant(host, fid.k + 2),
    ),
    "doubled_monotone": _Kind(
        lambda fid: f"DoubledMonotone({fid.e1})",
        ("e1", "mult"),
        lambda fid: multiplied_monotone_pattern(fid.n, fid.mult, fid.e1),
        lambda host, fid: _multiplied_monotone(host, fid.n, fid.mult, fid.e1),
    ),
    "double_run": _Kind(
        lambda fid: f"DoubleRun({fid.e1},{fid.e2})",
        ("e1", "e2"),
        lambda fid: double_run_pattern(fid.n, fid.e1, fid.e2),
        lambda host, fid: _double_run(host, fid.n, fid.e1, fid.e2),
    ),
}


def find_family_member(w, fid: FamilyId) -> Occurrence | None:
    """Run the specialized checker for one family member, whose pattern
    is ``base_pattern(fid)``; ``w`` is a word or a shared ``_Host``.  The
    member's parameters were checked when it was made."""
    return _KINDS[fid.kind].find(_prepare(w), fid)


def base_pattern(fid: FamilyId) -> Word:
    """The concrete pattern a FamilyId names, in its own group size."""
    return _KINDS[fid.kind].pattern(fid)


def contains_any_family(w, n: int, k: int) -> tuple[FamilyId, Occurrence] | None:
    """First base-family member with an occurrence, in the fixed order;
    ``w`` is a word or a shared ``_Host``."""
    host = _prepare(w)
    for fid, _ in _members(n, k, False):
        found = find_family_member(host, fid)
        if found is not None:
            return fid, found
    return None
