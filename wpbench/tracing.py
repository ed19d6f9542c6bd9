"""Span tracing from outside the library, for the traced benchmark run.

``Tracer.patched`` swaps the names a wordpat module imported from
another layer for wrappers that record a span around each call, and
restores them on exit.  Spans stay in memory: per (name, parent name)
totals for every span, raw spans up to a cap, and exact counts for the
first pass through the round only.  Self time is a span's duration minus the time
its child spans cover.
"""

from __future__ import annotations

from collections import Counter
from contextlib import contextmanager
from time import perf_counter

from reference import member_key, span_name

KEEP_SPANS = 20_000  # raw spans kept for the spans file; totals cover every span


class Tracer:
    def __init__(self):
        self.agg: dict[tuple[str, str | None], list] = {}  # -> [count, total_s, self_s]
        self.counts: Counter = Counter()
        self.counting = True
        self.spans: list[tuple] = []  # (id, parent id, op id, name, start, end)
        self.dropped = 0
        self.op_id = 0
        self._stack: list[list] = []  # [name, child_s, span id]
        self._next_id = 0

    def call(self, name: str, fn, *args, **kwargs):
        parent = self._stack[-1] if self._stack else None
        frame = [name, 0.0, self._next_id]
        self._next_id += 1
        self._stack.append(frame)
        start = perf_counter()
        try:
            return fn(*args, **kwargs)
        finally:
            end = perf_counter()
            self._stack.pop()
            dur = end - start
            if parent is not None:
                parent[1] += dur
            key = (name, parent[0] if parent is not None else None)
            a = self.agg.get(key)
            if a is None:
                a = self.agg[key] = [0, 0.0, 0.0]
            a[0] += 1
            a[1] += dur
            a[2] += dur - frame[1]
            if self.counting:
                self.counts[name] += 1
            if len(self.spans) < KEEP_SPANS:
                pid = parent[2] if parent is not None else None
                self.spans.append((frame[2], pid, self.op_id, name, start, end))
            else:
                self.dropped += 1

    def count(self, name: str) -> None:
        if self.counting:
            self.counts[name] += 1

    def wrap(self, fn, name_of, on_result=None):
        def traced(*args, **kwargs):
            result = self.call(name_of(args), fn, *args, **kwargs)
            if on_result is not None:
                on_result(result)
            return result

        return traced

    def _note_found(self, result) -> None:
        if result is not None:
            self.count("patterns.found")

    def _checker(self, fn, calls_counter: str | None = None):
        # find_family_member(w, fid, ...): one span per call, named by
        # the member it checks.
        names: dict = {}

        def name_of(args):
            fid = args[1]
            name = names.get(fid)
            if name is None:
                name = names[fid] = span_name(member_key(fid))
            return name

        def on_result(result):
            self._note_found(result)
            if calls_counter is not None:
                self.count(calls_counter)

        return self.wrap(fn, name_of, on_result)

    def _named(self, fn, name: str, on_result=None):
        return self.wrap(fn, lambda args: name, on_result)

    def patches(self, wp) -> list[tuple[object, str, object]]:
        """(module, attribute, wrapper) for every traced layer boundary."""
        c, p, w, o = wp.construction, wp.patterns, wp.witness, wp.oracle

        def branch(result):
            self.count(f"witness.branch.{result[2].branch}")

        return [
            (c, "build", self._named(c.build, "construction.build")),
            (c, "multiplicities", self._named(c.multiplicities, "construction.multiplicity")),
            (c, "contains_constant", self._named(c.contains_constant, "patterns.constant", self._note_found)),
            (c, "find_family_member", self._checker(c.find_family_member)),
            # The containment workload calls the checkers through this name.
            (p, "find_family_member", self._checker(p.find_family_member)),
            (p, "occurrences_by_value", self._named(p.occurrences_by_value, "words.index")),
            (w, "occurrences_by_value", self._named(w.occurrences_by_value, "words.index")),
            (w, "contains_constant", self._named(w.contains_constant, "patterns.constant", self._note_found)),
            (w, "es_extract", self._named(w.es_extract, "monotone.es_extract")),
            (w, "extract_witness", self._named(w.extract_witness, "witness.extract", branch)),
            (w, "validate_trace", self._named(w.validate_trace, "witness.validate")),
            (o, "find_family_member", self._checker(o.find_family_member, "oracle.member_checks")),
        ]

    @contextmanager
    def patched(self, wp):
        table = self.patches(wp)
        saved = [(mod, attr, getattr(mod, attr)) for mod, attr, _ in table]
        try:
            for mod, attr, wrapper in table:
                setattr(mod, attr, wrapper)
            yield
        finally:
            for mod, attr, original in saved:
                setattr(mod, attr, original)

    def total_s(self, pred, field: int = 1) -> float:
        """Sum of durations (field 1) or self times (field 2) over spans
        whose (name, parent name) satisfies ``pred``."""
        return sum(a[field] for (name, parent), a in self.agg.items() if pred(name, parent))

    def dump(self) -> dict:
        return {
            "aggregate": [
                {"name": name, "parent": parent, "count": a[0], "total_s": a[1], "self_s": a[2]}
                for (name, parent), a in sorted(self.agg.items(), key=lambda kv: str(kv[0]))
            ],
            "first_round_counts": dict(self.counts),
            "spans": [
                dict(zip(("id", "parent", "op", "name", "start", "end"), s)) for s in self.spans
            ],
            "spans_dropped": self.dropped,
        }
