"""Spans and counters recorded around calls into weylgb, from outside it.

``Tracer.install`` replaces the public entry points of each layer at the
module that imports them (``universal.solve_inequalities``,
``groebner.divide`` and so on) with wrappers that record one span per call:
(id, parent id, name, start, end).  Spans stay in memory; ``write`` dumps
them when the run ends.  A layer's self time is the time its spans cover
minus the time covered by their child spans.
"""

from __future__ import annotations

import json
import time
from collections import Counter, defaultdict
from contextlib import contextmanager

# span name -> layer it measures (a module under src/weylgb)
LAYER_OF = {
    "universal_groebner": "universal",
    "certify_universal": "universal",
    "enumerate_restrictions": "universal",
    "solve_inequalities": "feasibility",
    "buchberger": "groebner",
    "reduce_basis": "groebner",
    "is_groebner": "groebner",
    "s_pair": "groebner",
    "divide": "division",
}

# (module under weylgb, attribute) wrapped where the module imports it
PATCH_POINTS = [
    ("universal", "solve_inequalities"),
    ("universal", "enumerate_restrictions"),
    ("universal", "is_groebner"),
    ("universal", "buchberger"),
    ("universal", "reduce_basis"),
    ("universal", "divide"),
    ("groebner", "s_pair"),
    ("groebner", "divide"),
]

_CALL_COUNTERS = {"is_groebner": "universal.verdicts", "s_pair": "groebner.s_pairs"}


def self_times(spans):
    """Self time per span name: duration minus the durations of child spans.

    Spans come from one thread, so the children of a span never overlap and
    their durations add up to the part of the parent they cover.
    """
    child_time = defaultdict(float)
    for _sid, parent, _name, start, end in spans:
        if parent is not None:
            child_time[parent] += end - start
    out = defaultdict(float)
    for sid, _parent, name, start, end in spans:
        out[name] += (end - start) - child_time[sid]
    return dict(out)


def layer_self_times(spans):
    out = defaultdict(float)
    for name, seconds in self_times(spans).items():
        layer = LAYER_OF.get(name)
        if layer is not None:
            out[layer] += seconds
    return dict(out)


class Tracer:
    def __init__(self, modules):
        self.mods = modules  # weylgb submodules by short name
        self.spans = []
        self.counts = Counter()
        self.bad_certificates = 0
        self._stack = []  # (span id, name) of the open spans
        self._next_id = 0

    def call(self, name, fn, *args, **kwargs):
        """fn(*args, **kwargs) inside a span called name."""
        sid = self._next_id
        self._next_id += 1
        parent = self._stack[-1][0] if self._stack else None
        self._stack.append((sid, name))
        start = time.perf_counter()
        try:
            return fn(*args, **kwargs)
        finally:
            end = time.perf_counter()
            self._stack.pop()
            self.spans.append((sid, parent, name, start, end))

    def parent_name(self):
        return self._stack[-1][1] if self._stack else None

    def _wrap(self, attr, fn):
        counts = self.counts
        feasibility = self.mods["feasibility"]

        if attr == "solve_inequalities":

            def solve_inequalities(rows, num_vars):
                out = self.call(attr, fn, rows, num_vars)
                counts["feasibility.solves"] += 1
                if isinstance(out, feasibility.Infeasible):
                    counts["feasibility.infeasible"] += 1
                    # a span of its own, which no layer is charged for
                    if not self.call(
                        "check", feasibility.certifies_infeasibility, out.rows, out.multipliers
                    ):
                        self.bad_certificates += 1
                return out

            return solve_inequalities

        if attr == "enumerate_restrictions":

            def enumerate_restrictions(*args, **kwargs):
                out = self.call(attr, fn, *args, **kwargs)
                counts["universal.rounds"] += 1
                counts["universal.cones"] += len(out)
                return out

            return enumerate_restrictions

        if attr == "divide":

            def divide(w, divisors, ordering, trace=None):
                steps = [] if trace is None else trace
                before = len(steps)
                parent = self.parent_name()
                out = self.call(attr, fn, w, divisors, ordering, trace=steps)
                counts["division.calls"] += 1
                counts["division.steps"] += len(steps) - before
                if parent in ("buchberger", "is_groebner") and not out.remainder:
                    counts["groebner.zero_reductions"] += 1
                return out

            return divide

        counter = _CALL_COUNTERS.get(attr)

        def wrapped(*args, **kwargs):
            if counter:
                counts[counter] += 1
            return self.call(attr, fn, *args, **kwargs)

        return wrapped

    @contextmanager
    def install(self):
        """Wrap every patch point and count Ordering.sort_key calls."""
        saved = []
        try:
            for mod_name, attr in PATCH_POINTS:
                mod = self.mods[mod_name]
                original = getattr(mod, attr)
                saved.append((mod, attr, original))
                setattr(mod, attr, self._wrap(attr, original))
            ordering_cls = self.mods["orderings"].Ordering
            sort_key = ordering_cls.sort_key
            saved.append((ordering_cls, "sort_key", sort_key))
            counts = self.counts

            def counted_sort_key(ordering, mono):
                counts["orderings.sort_keys"] += 1
                return sort_key(ordering, mono)

            ordering_cls.sort_key = counted_sort_key
            yield self
        finally:
            for obj, attr, original in reversed(saved):
                setattr(obj, attr, original)

    def write(self, path):
        path.parent.mkdir(parents=True, exist_ok=True)
        with open(path, "w") as fh:
            for span in self.spans:
                fh.write(json.dumps(span) + "\n")
