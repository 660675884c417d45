"""Tracing from outside the program: while installed, a Tracer rebinds the
module and class attributes that each caller looks up, and restores them on
exit. Nothing inside ``twoecho`` is edited.

Per-call layers (runs, construction, local-search phases, evaluation, exact
and TSP solves, set-up calls) get spans kept in memory. Hot inner calls
(local-search operators, ``best_insertion``, feasibility checks, trip
packing) get counters with accumulated time only, so the trace stays bounded.
"""

from __future__ import annotations

import functools
import gzip
import itertools
import json
from collections import Counter, defaultdict
from contextlib import contextmanager
from time import perf_counter

from twoecho import baseline, construct, exact, grasp, instancegen, localsearch, model
from twoecho.localsearch import MULTI_TRIP_OPERATORS, SINGLE_TRIP_OPERATORS, DeltaCache

OPERATORS = tuple(dict.fromkeys(SINGLE_TRIP_OPERATORS + MULTI_TRIP_OPERATORS))

# (owner, attribute, span name): the caller-visible bindings that get spans.
SPAN_SITES = [
    (grasp, "run", "grasp.run"),
    (grasp, "construct_solution", "construct"),
    (grasp, "local_search", "localsearch"),
    (DeltaCache, "__init__", "localsearch.init"),
    (DeltaCache, "run", "localsearch.search"),
    (DeltaCache, "export_solution", "localsearch.export"),
    (model, "evaluate", "model.evaluate"),
    (construct, "evaluate", "model.evaluate"),
    (localsearch, "evaluate", "model.evaluate"),
    (grasp, "evaluate", "model.evaluate"),
    (model, "build_time_matrices", "model.build_time_matrices"),
    (grasp, "build_time_matrices", "model.build_time_matrices"),
    (exact, "solve_exact", "exact.solve"),
    (baseline, "solve_tsp", "baseline.solve_tsp"),
    (instancegen, "generate", "instancegen.generate"),
    (instancegen, "generate_coincident", "instancegen.generate"),
    (instancegen, "compute_u_min", "instancegen.compute_u_min"),
]

# (owner, attribute, counter name): hot calls, counted and timed only.
COUNTER_SITES = [
    (DeltaCache, "best_insertion", "localsearch.best_insertion"),
    (model, "check_feasibility", "model.check_feasibility"),
    (exact, "minmax_packing", "exact.minmax_packing"),
] + [(DeltaCache, op, f"localsearch.op.{op}") for op in OPERATORS]


class Tracer:
    """Spans ``(id, parent, root, name, start, end)`` plus counters.

    ``parent`` is the span that was open when this one started (None at the
    top); ``root`` is the top-level span, so the spans of one library call
    share it.
    """

    def __init__(self):
        self.spans: list[tuple] = []
        self.calls: Counter = Counter()
        self.seconds: defaultdict = defaultdict(float)
        self.raised: Counter = Counter()
        self.moves: Counter = Counter()
        self._ids = itertools.count()
        self._stack: list[tuple[int, int]] = []

    def _span(self, name, fn):
        spans, stack, raised, ids = self.spans, self._stack, self.raised, self._ids

        @functools.wraps(fn)
        def traced(*args, **kwargs):
            sid = next(ids)
            parent, root = stack[-1] if stack else (None, sid)
            stack.append((sid, root))
            t0 = perf_counter()
            try:
                return fn(*args, **kwargs)
            except Exception as exc:
                raised[(name, type(exc).__name__)] += 1
                raise
            finally:
                t1 = perf_counter()
                stack.pop()
                spans.append((sid, parent, root, name, t0, t1))

        return traced

    def _counter(self, name, fn):
        calls, seconds = self.calls, self.seconds

        @functools.wraps(fn)
        def counted(*args, **kwargs):
            t0 = perf_counter()
            try:
                return fn(*args, **kwargs)
            finally:
                seconds[name] += perf_counter() - t0
                calls[name] += 1

        return counted

    def _accept(self, fn):
        moves = self.moves

        @functools.wraps(fn)
        def accept(cache, name, delta):
            moves[name] += 1
            return fn(cache, name, delta)

        return accept

    @contextmanager
    def installed(self):
        saved = []
        try:
            for owner, attr, name in SPAN_SITES:
                saved.append((owner, attr, getattr(owner, attr)))
                setattr(owner, attr, self._span(name, getattr(owner, attr)))
            for owner, attr, name in COUNTER_SITES:
                saved.append((owner, attr, getattr(owner, attr)))
                setattr(owner, attr, self._counter(name, getattr(owner, attr)))
            saved.append((DeltaCache, "_accept", DeltaCache._accept))
            DeltaCache._accept = self._accept(DeltaCache._accept)
            yield self
        finally:
            for owner, attr, original in reversed(saved):
                setattr(owner, attr, original)

    def summary(self) -> dict:
        """Per span name: count, total seconds, self seconds, and durations."""
        child = defaultdict(float)
        for _sid, parent, _root, _name, t0, t1 in self.spans:
            if parent is not None:
                child[parent] += t1 - t0
        out: dict = {}
        for sid, _parent, _root, name, t0, t1 in self.spans:
            entry = out.setdefault(name, {"count": 0, "total": 0.0, "self": 0.0, "durations": []})
            entry["count"] += 1
            entry["total"] += t1 - t0
            entry["self"] += t1 - t0 - child[sid]
            entry["durations"].append(t1 - t0)
        return out

    def write(self, path) -> None:
        """Spans as gzipped JSON lines, times in microseconds from the first span."""
        origin = min((s[4] for s in self.spans), default=0.0)
        with gzip.open(path, "wt", encoding="utf-8") as f:
            for sid, parent, root, name, t0, t1 in self.spans:
                f.write(json.dumps([sid, parent, root, name,
                                    round((t0 - origin) * 1e6, 3), round((t1 - origin) * 1e6, 3)]))
                f.write("\n")

