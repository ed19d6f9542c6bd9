"""The four seeded workloads: inputs, the timed op, and its check.

A workload builds one *round*: a seeded list of cases, each a timed op
plus a check the benchmark owns.  The run loop cycles through the
round.  A check returns None when the op's result is right and a short
reason when it is not.  Expected answers are computed here, in set-up,
by ``reference``; none of them come from wordpat.
"""

from __future__ import annotations

from collections import Counter
from dataclasses import dataclass
from random import Random
from typing import Callable

from reference import (
    MEMBER_KEYS,
    contains_brute,
    greedy_certificate,
    member_key,
    member_pattern,
    occurrence_matches,
    repeats,
    sorted_word_contains,
    standardise,
)


@dataclass(frozen=True)
class Case:
    label: str
    inputs: tuple  # everything the op is given, for the determinism self-test
    run: Callable[[], object]
    check: Callable[[object], "str | None"]


@dataclass(frozen=True)
class Workload:
    name: str
    op_span: str  # span name of one op in the traced run
    build_round: Callable[[object, int], list]  # (wordpat modules, seed) -> [Case]


class SetupError(RuntimeError):
    """The generated inputs could not be given a known expected answer."""


# --- verify-construction --------------------------------------------------

VERIFY_N, VERIFY_K = 4, 1


def _check_verify(n: int, k: int):
    def check(report) -> str | None:
        if report.length != (k + 1) * n**6:
            return f"length {report.length}"
        if report.repeats != k * n**6:
            return f"repeats {report.repeats}"
        if report.multiplicity_ok is not True:
            return "multiplicity check failed"
        if sorted(member_key(name) for name in report.avoided) != sorted(MEMBER_KEYS):
            return f"members checked: {sorted(report.avoided)}"
        present = [name for name, avoided in report.avoided.items() if avoided is not True]
        return f"reported present: {present}" if present else None

    return check


def verify_round(wp, seed: int) -> list[Case]:
    # The construction is deterministic: the seed changes nothing here.
    n, k = VERIFY_N, VERIFY_K
    return [
        Case(
            f"verify({n},{k})",
            (n, k),
            lambda: wp.construction.verify(n, k),
            _check_verify(n, k),
        )
    ]


# --- containment-adversarial ------------------------------------------------

SORTED_COPIES = 138  # a^138 b^138 at n = 1: every double run absent
SORTED_WORDS = 2
# (n, distinct values, copies of each): balanced uniform words whose
# mixed double runs are found only after O(copies^2) pairs; copies are
# chosen so that every op costs about the same.
UNIFORM = ((1, 20, 96), (2, 20, 70), (3, 20, 56), (4, 20, 46))
UNIFORM_WORDS_PER_N = 3


def _containment_case(wp, label: str, w: tuple, n: int, expected: dict) -> Case:
    fids = [fid for fid, _ in wp.patterns.family(n, 1)]
    keys = [member_key(fid) for fid in fids]
    if sorted(keys) != sorted(MEMBER_KEYS):
        raise SetupError(f"family({n}, 1) lists {[str(f) for f in fids]}")
    patterns = [member_pattern(key, n, 1) for key in keys]

    def run():
        find = wp.patterns.find_family_member
        return [find(w, fid) for fid in fids]

    def check(found) -> str | None:
        if len(found) != len(keys):
            return f"{len(found)} answers for {len(keys)} members"
        for key, pattern, occ in zip(keys, patterns, found):
            if occ is None:
                if expected[key]:
                    return f"{key} reported absent, but it occurs"
            elif not expected[key]:
                return f"{key} reported present, but the word avoids it"
            elif not occurrence_matches(w, occ, pattern):
                return f"{key} occurrence {occ} is not an occurrence"
        return None

    return Case(label, (n, w), run, check)


def containment_round(wp, seed: int) -> list[Case]:
    rng = Random(seed)
    cases = []
    for _ in range(SORTED_WORDS):
        a, b = sorted(rng.sample(range(1000), 2))
        m = SORTED_COPIES
        w = (a,) * m + (b,) * m
        expected = {key: sorted_word_contains(m, member_pattern(key, 1, 1)) for key in MEMBER_KEYS}
        cases.append(_containment_case(wp, f"sorted 2x{m} n=1", w, 1, expected))
    for n, values, copies in UNIFORM:
        for _ in range(UNIFORM_WORDS_PER_N):
            letters = rng.sample(range(1000), values)
            w = [v for v in letters for _ in range(copies)]
            rng.shuffle(w)
            w = tuple(w)
            expected = {}
            for key in MEMBER_KEYS:
                if greedy_certificate(w, member_pattern(key, n, 1)) is None:
                    raise SetupError(f"no certificate for {key} in a uniform word at n={n}")
                expected[key] = True
            cases.append(_containment_case(wp, f"uniform {values}x{copies} n={n}", w, n, expected))
    rng.shuffle(cases)
    return cases


# --- witness-extract ----------------------------------------------------------

WITNESS_N = 4
# (k, shape) per op; three in four ops are at k = 1, so the median and
# the 90th percentile each fall inside one size class.
WITNESS_SLOTS = ((1, "interleaved"), (1, "adjacent"), (1, "separated")) * 4 + (
    (2, "interleaved"),
    (2, "adjacent"),
    (2, "separated"),
    (2, "adjacent"),
)


def witness_word(rng: Random, n: int, k: int, shape: str) -> tuple:
    """n^6 + 1 values, each exactly k+1 times: k n^6 + k repeats, just
    over the threshold, and no constant of length k+2.

    interleaved: a uniform shuffle of the multiset;
    adjacent: each value's copies side by side (forces the doubled
    monotone branch);
    separated: k+1 independent permutations in a row (every second
    occurrence follows every first one, forcing the double-run branch).
    """
    letters = rng.sample(range(10**6), n**6 + 1)
    if shape == "interleaved":
        w = [v for v in letters for _ in range(k + 1)]
        rng.shuffle(w)
    elif shape == "adjacent":
        w = [v for v in letters for _ in range(k + 1)]
    else:
        w = []
        for _ in range(k + 1):
            rng.shuffle(letters)
            w += letters
    return tuple(w)


def _witness_case(wp, w: tuple, n: int, k: int, shape: str) -> Case:
    def run():
        fid, occ, trace = wp.witness.extract_witness(w, n, k)
        return fid, occ, trace, wp.witness.validate_trace(w, trace)

    def check(result) -> str | None:
        fid, occ, trace, valid = result
        if valid is not True:
            return "validate_trace rejected the trace"
        key = member_key(fid)
        if not occurrence_matches(w, occ, member_pattern(key, n, k)):
            return f"{key} occurrence {occ} is not an occurrence"
        return None

    return Case(f"witness n={n} k={k} {shape}", (n, k, w), run, check)


def witness_round(wp, seed: int) -> list[Case]:
    rng = Random(seed)
    n = WITNESS_N
    return [_witness_case(wp, witness_word(rng, n, k, shape), n, k, shape) for k, shape in WITNESS_SLOTS]


# --- oracle-search -------------------------------------------------------------

# (search, parameters, known answer, ops per round).  The cheapest
# search makes up more than half of the round and the dearest the top
# quarter, so the median and the 90th percentile each sit inside one.
ORACLE_OPS = (
    ("max_repeats_avoiding", (2, 1, 5), 5, 10),
    ("check_unavoidability_balanced", (1, 5), True, 1),
    ("max_repeats_avoiding", (1, 1, 4), 1, 1),
    ("max_repeats_avoiding", (1, 2, 3), 2, 1),
    ("check_unavoidability_balanced", (1, 6), True, 4),
)


def _check_max_repeats(n: int, k: int, want: int):
    family = [member_pattern(key, n, k) for key in MEMBER_KEYS]

    def check(result) -> str | None:
        best, w = result
        if best != want:
            return f"maximum {best}, expected {want}"
        if not isinstance(w, tuple) or standardise(w) != w or repeats(w) != want:
            return f"avoider {w} is not a standardised word with {want} repeats"
        if any(not 2 <= c <= k + 1 for c in Counter(w).values()):
            return f"avoider {w} uses a value outside 2..{k + 1} times"
        hit = [p for p in family if contains_brute(w, p)]
        return f"avoider {w} contains {hit}" if hit else None

    return check


def oracle_round(wp, seed: int) -> list[Case]:
    cases = []
    for search, params, want, copies in ORACLE_OPS:
        if search == "max_repeats_avoiding":
            check = _check_max_repeats(params[0], params[1], want)
        else:
            check = lambda result, want=want: None if result is want else f"verdict {result}"
        run = lambda search=search, params=params: getattr(wp.oracle, search)(*params)
        cases += [Case(f"{search}{params}", (search, params), run, check)] * copies
    Random(seed).shuffle(cases)
    return cases


WORKLOADS = {
    w.name: w
    for w in (
        Workload("verify-construction", "construction.verify", verify_round),
        Workload("containment-adversarial", "containment.check", containment_round),
        Workload("witness-extract", "witness.op", witness_round),
        Workload("oracle-search", "oracle.search", oracle_round),
    )
}
