"""Independent reference implementations used to cross-check the library.

Everything here is deliberately written with a different method than the
code under test: counting instead of sorting, quadratic DP instead of
patience, exhaustive subset scans instead of chain searches.  Slow is
fine; disagreement is the signal.
"""

from bisect import bisect_right
from itertools import combinations
from math import comb


def standardise_by_counting(w):
    """Rank each letter by counting strictly smaller distinct letters."""
    distinct = set(w)
    return tuple(sum(1 for u in distinct if u < v) for v in w)


def repeats_by_scan(w):
    seen = set()
    count = 0
    for v in w:
        if v in seen:
            count += 1
        else:
            seen.add(v)
    return count


def longest_nondecreasing_len(w):
    """Quadratic DP for the longest non-decreasing subword length."""
    w = tuple(w)
    if not w:
        return 0
    best = [1] * len(w)
    for i in range(len(w)):
        for j in range(i):
            if w[j] <= w[i] and best[j] + 1 > best[i]:
                best[i] = best[j] + 1
    return max(best)


def longest_nonincreasing_len(w):
    return longest_nondecreasing_len(tuple(-v for v in w))


def brute_contains(w, p):
    """Exhaustive containment scan.

    Tries index subsets in lexicographic order, so the first hit is the
    lexicographically least occurrence (1-based).
    """
    w = tuple(w)
    p = tuple(p)
    for idx in combinations(range(len(w)), len(p)):
        sub = tuple(w[i] for i in idx)
        if standardise_by_counting(sub) == p:
            return tuple(i + 1 for i in idx)
    return None


def ordered_bell(n):
    """a(n) = sum_{j=1..n} C(n,j) a(n-j), a(0) = 1."""
    vals = [1]
    for m in range(1, n + 1):
        vals.append(sum(comb(m, j) * vals[m - j] for j in range(1, m + 1)))
    return vals[n]


# --- Double runs: the all-pairs chain searches the library used to run ------
#
# The library's double-run checkers start nested chains from adjacent
# occurrence pairs and try only first-occurrence pivots.  These keep every
# position pair and every pivot pair, so they share none of those cuts.


def _positions_by_value(w):
    positions = {}
    for i, v in enumerate(w, start=1):
        positions.setdefault(v, []).append(i)
    return positions


def _pareto_insert_min(front, p, q, trail):
    # Keep states minimal in both coordinates.
    for P, Q, _ in front:
        if P <= p and Q <= q:
            return
    front[:] = [(P, Q, t) for P, Q, t in front if not (p <= P and q <= Q)]
    front.append((p, q, trail))


def _double_run_both_ascending(w, n):
    # Shape p_0 < ... < p_n < q_0 < ... < q_n with w[p_t] = w[q_t] = v_t
    # and v_0 < ... < v_n; every position pair of the lowest value is a
    # pivot, and each pivot rescans its window.
    occ = _positions_by_value(w)
    values = sorted(occ)
    for vi, v0 in enumerate(values):
        if len(values) - vi < n + 1:
            break
        ps0 = occ[v0]
        for ai in range(len(ps0) - 1):
            for bi in range(ai + 1, len(ps0)):
                found = _chain_both_ascending(w, occ, n, v0, ps0[ai], ps0[bi])
                if found is not None:
                    return found
    return None


def _chain_both_ascending(w, occ, n, v0, p0, q0):
    if n == 0:
        return (p0, q0)
    window_values = sorted({w[x - 1] for x in range(p0 + 1, q0) if w[x - 1] > v0})
    if len(window_values) < n:
        return None
    fronts = [[] for _ in range(n + 1)]
    fronts[0] = [(p0, q0, ())]
    for v in window_values:
        ps = occ[v]
        new = []
        for length in range(n, 0, -1):
            for P, Q, trail in fronts[length - 1]:
                i = bisect_right(ps, P)
                if i >= len(ps) or ps[i] >= q0:
                    continue
                j = bisect_right(ps, Q)
                if j >= len(ps):
                    continue
                new.append((length, ps[i], ps[j], trail + ((ps[i], ps[j]),)))
        for length, p, q, trail in new:
            if length == n:
                firsts = (p0,) + tuple(pp for pp, _ in trail)
                seconds = (q0,) + tuple(qq for _, qq in trail)
                return firsts + seconds
            _pareto_insert_min(fronts[length], p, q, trail)
    return None


def _double_run_nested(w, n):
    # Shape p_n < ... < p_0 < q_0 < ... < q_n with w[p_t] = w[q_t] = v_t
    # and v_0 < ... < v_n: intervals nested outward as the value grows,
    # built from every position pair of every value.
    occ = _positions_by_value(w)
    target = n + 1
    fronts = [[] for _ in range(target + 1)]
    for v in sorted(occ):
        ps = occ[v]
        pairs = [(p, q) for i, p in enumerate(ps) for q in ps[i + 1 :]]
        if not pairs:
            continue
        new = [(1, p, q, ((p, q),)) for p, q in pairs]
        for length in range(target, 1, -1):
            for P, Q, trail in fronts[length - 1]:
                for p, q in pairs:
                    if p < P and q > Q:
                        new.append((length, p, q, trail + ((p, q),)))
        for length, p, q, trail in new:
            if length == target:
                firsts = tuple(pp for pp, _ in reversed(trail))
                seconds = tuple(qq for _, qq in trail)
                return firsts + seconds
            # Prefer large p (late start) and small q (early end).
            dominated = False
            for P, Q, _ in fronts[length]:
                if P >= p and Q <= q:
                    dominated = True
                    break
            if not dominated:
                fronts[length] = [
                    (P, Q, t) for P, Q, t in fronts[length] if not (p >= P and q <= Q)
                ]
                fronts[length].append((p, q, trail))
    return None


def double_run_by_all_pairs(w, n, e1, e2):
    """Double-run occurrence with runs oriented ``e1``, ``e2`` ("id" or "rev").

    Reversing a run is the same search on the value-complemented word.
    """
    w = tuple(w)
    if len(w) < 2 * (n + 1):
        return None
    complement = tuple(max(w) - v for v in w)
    if e1 == e2:
        return _double_run_both_ascending(w if e1 == "id" else complement, n)
    return _double_run_nested(w if e1 == "rev" else complement, n)


# --- Multiplied staircases: every group, every predecessor -------------------
#
# The library extends a chain only by a value's first `mult` occurrences
# after the chain's end and keeps one chain per length.  This keeps every
# run of `mult` consecutive occurrences as a group and tries every
# earlier group as its predecessor, so it shares neither cut.


def staircase_by_all_groups(w, n, mult, e):
    """Occurrence of n+1 groups of ``mult`` equal letters whose values rise
    for ``e`` = "id" and fall for "rev", each group after the last."""
    w = tuple(w)
    values = w if e == "id" else tuple(max(w, default=0) - v for v in w)
    groups = []  # (value, positions), by rising value
    for v, ps in sorted(_positions_by_value(values).items()):
        groups += [(v, tuple(ps[i : i + mult])) for i in range(len(ps) - mult + 1)]
    # chains[g]: a longest chain ending in group g, as group indexes.
    chains = []
    for g, (v, ps) in enumerate(groups):
        best = ()
        for h in range(g):
            u, qs = groups[h]
            if u < v and qs[-1] < ps[0] and len(chains[h]) > len(best):
                best = chains[h]
        chain = best + (g,)
        if len(chain) == n + 1:
            return tuple(p for i in chain for p in groups[i][1])
        chains.append(chain)
    return None
