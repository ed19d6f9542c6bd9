"""Constructive extraction of an unavoidable pattern from a high-repeat word.

Any word with more than k n^6 repeats contains one of the seven base
family members for (n, k), and ``extract_witness`` finds one by
following the constructive argument rather than by searching:

1. index the word once for the repeat count; if it shows a value k+2
   times, the first k+2 positions of the value that gets there first
   are a constant witness; otherwise every value occurs at most k+1
   times and at least n^6 + 1 distinct values occur twice or more;
2. keep the first n^6 + 1 such values in first-occurrence order and
   restrict to the first two occurrences of each (the doubled word,
   read from its sorted positions with no position dict);
3. the first-occurrence subword has length n^6 + 1, so it has a strict
   monotone core of length n^3 + 1;
4. cut the core into n blocks of n^2 + 1 values; a block whose second
   occurrences all come after its top value's first occurrence yields a
   double run (monotone core over the block's repeats plus the matching
   firsts); otherwise every block donates one value whose two
   occurrences both precede the next block's first occurrence, and the
   n donated values plus the core's final value form a doubled
   monotone witness.

The returned WitnessTrace records every intermediate choice, and
``validate_trace`` replays all of them against the original word.
"""

from __future__ import annotations

from bisect import bisect_left
from dataclasses import dataclass, fields

from .monotone import NONDECREASING, es_extract
from .patterns import _KINDS, Direction, FamilyId, contains_constant, base_pattern
from .words import (
    InvalidOccurrence,
    InvariantViolation,
    Occurrence,
    Word,
    occurrences_by_value,
    standardise,
    subword,
)


class InsufficientRepeats(ValueError):
    """Too few repeats for the guaranteed extraction."""


@dataclass(frozen=True)
class WitnessTrace:
    """Replayable record of one extraction run.

    Positions are 1-based.  ``occurrence`` indexes the original word;
    ``doubled_occ`` maps doubled-word positions back to it; the
    remaining position fields index the doubled word.  Fields specific
    to the branch not taken stay None.
    """

    n: int
    k: int
    branch: str  # "constant" | "double_run" | "doubled_monotone"
    family: FamilyId
    occurrence: Occurrence
    chosen_values: tuple[int, ...] | None = None
    doubled_occ: Occurrence | None = None
    doubled_word: Word | None = None
    firsts_occ: Occurrence | None = None
    monotone_occ: Occurrence | None = None
    monotone_direction: Direction | None = None
    block_start: int | None = None
    repeat_occ: Occurrence | None = None
    repeat_monotone_occ: Occurrence | None = None
    firsts_match_occ: Occurrence | None = None
    block_picks: tuple[int, ...] | None = None

    def to_dict(self) -> dict:
        out = {}
        for f in fields(self):
            v = getattr(self, f.name)
            if isinstance(v, (Direction, FamilyId)):
                v = str(v)
            elif isinstance(v, tuple):
                v = list(v)
            out[f.name] = v
        return out


def extract_witness(w, n: int, k: int) -> tuple[FamilyId, Occurrence, WitnessTrace]:
    """Find a base-family occurrence in a word with more than k n^6 repeats.

    Each step the proof guarantees is checked; a failure raises
    InvariantViolation, also under ``python -O``.
    """
    w = tuple(w)
    if n < 1 or k < 1:
        raise ValueError(f"need n >= 1 and k >= 1, got n={n}, k={k}")
    threshold = k * n**6
    occ = occurrences_by_value(w)
    have = len(w) - len(occ)
    if have <= threshold:
        raise InsufficientRepeats(
            f"guaranteed extraction needs more than {threshold} repeats, got {have}"
        )

    # The index shows a value k+2 times, so contains_constant finds one.
    if max(map(len, occ.values())) >= k + 2:
        const = contains_constant(w, k + 2)
        fid = FamilyId("constant", n, k)
        trace = WitnessTrace(n=n, k=k, branch="constant", family=fid, occurrence=const)
        return fid, const, trace

    # Each value occurs at most k+1 times, so the repeat count forces at
    # least n^6 + 1 distinct repeated values.  The index lists values in
    # first-occurrence order, so the chosen values' first occurrences rise.
    need = n**6 + 1
    repeated = [v for v, ps in occ.items() if len(ps) >= 2]
    if len(repeated) < need:
        raise InvariantViolation("repeat arithmetic violated")
    chosen = tuple(repeated[:need])
    firsts = [occ[v][0] for v in chosen]

    doubled_occ = tuple(sorted(firsts + [occ[v][1] for v in chosen]))
    doubled = tuple([w[x - 1] for x in doubled_occ])
    first_set = set(firsts)
    firsts_occ = tuple([i for i, x in enumerate(doubled_occ, 1) if x in first_set])

    half = n**3
    direction, core_idx = es_extract(chosen, half, half)
    e1 = Direction.ID if direction == NONDECREASING else Direction.REV
    core_vals = tuple(chosen[i - 1] for i in core_idx)
    monotone_occ = tuple(firsts_occ[i - 1] for i in core_idx)
    # Distinct values make the monotone core strict.
    if len(set(core_vals)) != half + 1:
        raise InvariantViolation("monotone core is not n^3 + 1 distinct values")

    common = dict(
        n=n,
        k=k,
        chosen_values=chosen,
        doubled_occ=doubled_occ,
        doubled_word=doubled,
        firsts_occ=firsts_occ,
        monotone_occ=monotone_occ,
        monotone_direction=e1,
    )

    picks: list[int] = []
    for t in range(1, n + 1):
        j = (t - 1) * n * n
        boundary_first = occ[core_vals[j + n * n]][0]
        offender = None
        for i in range(j, j + n * n):
            if occ[core_vals[i]][1] < boundary_first:
                offender = i
                break
        if offender is not None:
            picks.append(offender)
            continue

        # Both occurrences of all n^2 + 1 block values frame the block's
        # top first occurrence: firsts before it, repeats after it.
        block_vals = core_vals[j : j + n * n + 1]
        rep_w = sorted(occ[v][1] for v in block_vals)
        rep_vals = tuple(w[x - 1] for x in rep_w)
        d2, rep_idx = es_extract(rep_vals, n, n)
        e2 = Direction.ID if d2 == NONDECREASING else Direction.REV
        chosen_rep_w = tuple(rep_w[i - 1] for i in rep_idx)
        chosen_vals = tuple(w[x - 1] for x in chosen_rep_w)
        if len(set(chosen_vals)) != n + 1:
            raise InvariantViolation("repeat run is not n + 1 distinct values")
        match_first_w = tuple(sorted(occ[v][0] for v in chosen_vals))
        if match_first_w[-1] >= chosen_rep_w[0]:
            raise InvariantViolation("block separation violated")
        occurrence = match_first_w + chosen_rep_w
        fid = FamilyId("double_run", n, k, e1, e2)
        trace = WitnessTrace(
            branch="double_run",
            family=fid,
            occurrence=occurrence,
            block_start=j,
            repeat_occ=tuple(bisect_left(doubled_occ, x) + 1 for x in rep_w),
            repeat_monotone_occ=tuple(bisect_left(doubled_occ, x) + 1 for x in chosen_rep_w),
            firsts_match_occ=tuple(bisect_left(doubled_occ, x) + 1 for x in match_first_w),
            **common,
        )
        return fid, occurrence, trace

    # Every block donated a value whose pair sits before the next
    # block's values; the pairs plus the core's final value stack into a
    # doubled monotone witness.
    vals = tuple(core_vals[i] for i in picks) + (core_vals[n**3],)
    occurrence = tuple(x for v in vals for x in occ[v][:2])
    if any(a >= b for a, b in zip(occurrence, occurrence[1:])):
        raise InvariantViolation("pair interleaving violated")
    fid = FamilyId("doubled_monotone", n, k, e1)
    trace = WitnessTrace(
        branch="doubled_monotone",
        family=fid,
        occurrence=occurrence,
        block_picks=tuple(picks),
        **common,
    )
    return fid, occurrence, trace


def _is_subsequence_of(sub: Occurrence, ref: Occurrence) -> bool:
    members = set(ref)
    return all(x in members for x in sub) and all(
        a < b for a, b in zip(sub, sub[1:])
    )


def _strictly_monotone(vals, direction: Direction) -> bool:
    if direction is Direction.ID:
        return all(a < b for a, b in zip(vals, vals[1:]))
    return all(a > b for a, b in zip(vals, vals[1:]))


def validate_trace(w, trace: WitnessTrace) -> bool:
    """Replay every recorded step of ``trace`` against ``w``."""
    try:
        return _validate(tuple(w), trace)
    except InvalidOccurrence:
        return False


def _validate(w: Word, tr: WitnessTrace) -> bool:
    n, k, fid = tr.n, tr.k, tr.family
    if not isinstance(fid, FamilyId):
        return False
    if n < 1 or k < 1 or fid.n != n or fid.k != k:
        return False
    if fid.kind not in _KINDS:
        return False
    # Extraction finds base members only; a double run ignores its group
    # size, so the pattern check below would not see another one.
    if fid.mult != 2:
        return False
    if not isinstance(tr.occurrence, tuple):
        return False
    if standardise(subword(w, tr.occurrence)) != base_pattern(fid):
        return False
    if tr.branch == "constant":
        # Every field the other branches set stays None.
        if tr != WitnessTrace(n, k, tr.branch, fid, tr.occurrence):
            return False
        return fid.kind == "constant"
    if fid.kind == "constant":
        return False

    occ = occurrences_by_value(w)
    need = n**6 + 1
    chosen = tr.chosen_values
    if chosen is None or len(chosen) != need or len(set(chosen)) != need:
        return False
    if any(len(occ.get(v, [])) < 2 for v in chosen):
        return False
    firsts = [occ[v][0] for v in chosen]
    if firsts != sorted(firsts):
        return False

    dw = tuple(sorted(firsts + [occ[v][1] for v in chosen]))
    if tr.doubled_occ != dw:
        return False
    # Positions from the index lie in the word and rise.
    if tr.doubled_word != tuple([w[x - 1] for x in dw]):
        return False
    first_set = set(firsts)
    if tr.firsts_occ != tuple([i for i, x in enumerate(dw, 1) if x in first_set]):
        return False

    if tr.monotone_occ is None or len(tr.monotone_occ) != n**3 + 1:
        return False
    if not _is_subsequence_of(tr.monotone_occ, tr.firsts_occ):
        return False
    core_vals = tuple(tr.doubled_word[i - 1] for i in tr.monotone_occ)
    if tr.monotone_direction is None:
        return False
    if not _strictly_monotone(core_vals, tr.monotone_direction):
        return False
    if fid.e1 is not tr.monotone_direction:
        return False
    first_of = {v: occ[v][0] for v in core_vals}
    second_of = {v: occ[v][1] for v in core_vals}

    if tr.branch == "double_run":
        if fid.kind != "double_run":
            return False
        if tr.block_picks is not None:
            return False
        j = tr.block_start
        if j is None or j % (n * n) != 0 or not 0 <= j <= (n - 1) * n * n:
            return False
        block_vals = core_vals[j : j + n * n + 1]
        boundary_first = first_of[block_vals[-1]]
        if any(second_of[v] <= boundary_first for v in block_vals):
            return False
        rep_w = sorted(second_of[v] for v in block_vals)
        if tr.repeat_occ != tuple(bisect_left(dw, x) + 1 for x in rep_w):
            return False
        if tr.repeat_monotone_occ is None or len(tr.repeat_monotone_occ) != n + 1:
            return False
        if not _is_subsequence_of(tr.repeat_monotone_occ, tr.repeat_occ):
            return False
        rep_chosen_vals = tuple(tr.doubled_word[i - 1] for i in tr.repeat_monotone_occ)
        if not _strictly_monotone(rep_chosen_vals, fid.e2):
            return False
        match_first = tuple(sorted(first_of[v] for v in rep_chosen_vals))
        if tr.firsts_match_occ != tuple(bisect_left(dw, x) + 1 for x in match_first):
            return False
        rebuilt = tuple(dw[i - 1] for i in tr.firsts_match_occ) + tuple(
            dw[i - 1] for i in tr.repeat_monotone_occ
        )
        return rebuilt == tr.occurrence

    if tr.branch == "doubled_monotone":
        if fid.kind != "doubled_monotone":
            return False
        if (tr.block_start, tr.repeat_occ, tr.repeat_monotone_occ,
                tr.firsts_match_occ) != (None,) * 4:
            return False
        picks = tr.block_picks
        if picks is None or len(picks) != n:
            return False
        for t, i in enumerate(picks, start=1):
            if not (t - 1) * n * n <= i < t * n * n:
                return False
            if second_of[core_vals[i]] >= first_of[core_vals[t * n * n]]:
                return False
        vals = tuple(core_vals[i] for i in picks) + (core_vals[n**3],)
        rebuilt = tuple(x for v in vals for x in (first_of[v], second_of[v]))
        return rebuilt == tr.occurrence

    return False
