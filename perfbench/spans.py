"""Spans and counters recorded around mfhh's public entry points.

The benchmark never edits mfhh: ``install`` replaces each entry point, in
every mfhh module that imported it, by a wrapper that records a span, and
``uninstall`` puts the originals back.  Spans live in memory until the run
ends.  A layer's self time is the duration of its spans minus the part that
their child spans cover; the self time of the benchmark's own ``op`` span is
the uninstrumented remainder, so layer self times plus the remainder add up
to the traced op time.
"""

from __future__ import annotations

import functools
import importlib
import json
import weakref
from collections import Counter
from time import perf_counter

# span name -> per-layer metric that receives its self time
SELF_TIME_METRIC = {
    "op": "trace.remainder_s",
    "poly.parse": "poly.parse_s",
    "symmetry.context": "symmetry.context_s",
    "symmetry.census": "symmetry.census_s",
    "symmetry.ker_chi": "symmetry.ker_s",
    "jacobian.basis": "jacobian.basis_s",
    "engine.compute_table": "engine.lines_s",
    "engine.list_contributions": "engine.listing_s",
    "engine.aggregate_contributions": "engine.aggregate_s",
    "invariants.small_res_probe": "invariants.probe_s",
    "invariants.scale_compare": "invariants.compare_s",
    "invariants.golden_check": "invariants.golden_s",
    "cli.main": "cli.main_s",
}

# module-level entry points: (defining module, attribute, span name)
_FUNCTIONS = (
    ("mfhh.poly", "parse", "poly.parse"),
    ("mfhh.jacobian", "monomial_basis", "jacobian.basis"),
    ("mfhh.engine", "compute_table", "engine.compute_table"),
    ("mfhh.engine", "list_contributions", "engine.list_contributions"),
    ("mfhh.engine", "aggregate_contributions", "engine.aggregate_contributions"),
    ("mfhh.invariants", "small_res_probe", "invariants.small_res_probe"),
    ("mfhh.invariants", "scale_compare", "invariants.scale_compare"),
    ("mfhh.invariants", "golden_check", "invariants.golden_check"),
    ("mfhh.cli", "main", "cli.main"),
)

# SymmetryContext methods; fixed_census() and ker_chi() in mfhh.symmetry call these
_METHODS = (
    ("__init__", "symmetry.context"),
    ("fixed_census", "symmetry.census"),
    ("ker_chi", "symmetry.ker_chi"),
)

# every mfhh module that may hold a copy of an entry point
_MODULES = (
    "mfhh", "mfhh.poly", "mfhh.symmetry", "mfhh.jacobian", "mfhh.engine",
    "mfhh.invariants", "mfhh.cli",
)


def _window_degrees(lo, hi):
    return max(0, hi - lo + 1)


class Tracer:
    """In-memory spans plus the counters taken at the same boundaries."""

    def __init__(self):
        self.spans = []  # [name, start, end, parent index, op id]
        self.counts = Counter()
        self._stack = []
        self._op = None
        self._patched = []
        self._census_seen = weakref.WeakSet()
        self._bases_seen = set()
        self._contexts = []  # polynomials of the contexts built, for ker_order

    # -- spans ---------------------------------------------------------------

    def begin(self, name):
        idx = len(self.spans)
        parent = self._stack[-1] if self._stack else None
        self.spans.append([name, perf_counter(), None, parent, self._op])
        self._stack.append(idx)
        return idx

    def end(self, idx):
        self.spans[idx][2] = perf_counter()
        self._stack.pop()

    def begin_op(self, op_id):
        self._op = op_id
        return self.begin("op")

    def end_op(self, idx):
        self.end(idx)
        self._op = None
        span = self.spans[idx]
        return span[2] - span[1]

    def wrap(self, name, fn, after=None):
        tracer = self

        @functools.wraps(fn)
        def traced(*args, **kwargs):
            idx = tracer.begin(name)
            try:
                result = fn(*args, **kwargs)
            finally:
                tracer.end(idx)
            if after is not None:
                after(result, *args, **kwargs)
            return result

        return traced

    # -- counters (run after the wrapped call returns) -----------------------

    def _after_context(self, result, ctx, p, *args, **kwargs):
        self.counts["symmetry.contexts"] += 1
        self._contexts.append(p)

    def _after_census(self, census, ctx):
        if ctx not in self._census_seen:
            self._census_seen.add(ctx)
            self.counts["symmetry.classes"] += len(census)

    def _after_basis(self, basis, r, order="grevlex"):
        self.counts["jacobian.basis_calls"] += 1
        key = (r.parent.matrix, r.fixed, order)
        if key not in self._bases_seen:
            self._bases_seen.add(key)
            self.counts["jacobian.basis_distinct"] += 1
            self.counts["jacobian.milnor_total"] += basis.dimension

    def _after_table(self, table, *args, **kwargs):
        self.counts["engine.cells"] += len(table.cells)
        self.counts["engine.contributions"] += table.total()

    def _after_listing(self, rows, *args, **kwargs):
        self.counts["engine.listing_rows"] += len(rows)

    def _after_aggregate(self, rows, *args, **kwargs):
        self.counts["engine.aggregate_rows"] += len(rows)

    def _after_probe(self, verdict, t, dmin=None):
        lo = t.dmin if dmin is None else max(dmin, t.dmin)
        degrees = _window_degrees(lo, min(t.dmax, -1))
        self.counts["invariants.cells_scanned"] += degrees * len(t.cells)

    def _after_compare(self, verdict, t1, t2):
        lo, hi = max(t1.dmin, t2.dmin), min(t1.dmax, t2.dmax, -1)
        degrees = _window_degrees(lo, hi)
        self.counts["invariants.cells_scanned"] += degrees * (len(t1.cells) + len(t2.cells))

    # -- installation --------------------------------------------------------

    def install(self):
        """Wrap every entry point, wherever an mfhh module bound it."""
        after = {
            "jacobian.basis": self._after_basis,
            "engine.compute_table": self._after_table,
            "engine.list_contributions": self._after_listing,
            "engine.aggregate_contributions": self._after_aggregate,
            "invariants.small_res_probe": self._after_probe,
            "invariants.scale_compare": self._after_compare,
        }
        modules = [importlib.import_module(m) for m in _MODULES]
        for home, attr, name in _FUNCTIONS:
            original = getattr(importlib.import_module(home), attr)
            wrapper = self.wrap(name, original, after.get(name))
            for mod in modules:
                if getattr(mod, attr, None) is original:
                    self._patch(mod, attr, wrapper)
        cls = importlib.import_module("mfhh.symmetry").SymmetryContext
        method_after = {
            "symmetry.context": self._after_context,
            "symmetry.census": self._after_census,
        }
        for attr, name in _METHODS:
            self._patch(cls, attr, self.wrap(name, cls.__dict__[attr], method_after.get(name)))

    def _patch(self, owner, attr, value):
        self._patched.append((owner, attr, owner.__dict__[attr]))
        setattr(owner, attr, value)

    def uninstall(self):
        for owner, attr, original in reversed(self._patched):
            setattr(owner, attr, original)
        self._patched.clear()

    # -- results -------------------------------------------------------------

    def self_times(self):
        """Total self time per metric in SELF_TIME_METRIC."""
        child = [0.0] * len(self.spans)
        for name, start, end, parent, _ in self.spans:
            if parent is not None:
                child[parent] += end - start
        totals = dict.fromkeys(SELF_TIME_METRIC.values(), 0.0)
        for i, (name, start, end, _, _) in enumerate(self.spans):
            totals[SELF_TIME_METRIC[name]] += (end - start) - child[i]
        return totals

    def ker_order(self):
        return sum(abs(p.det()) for p in self._contexts)

    def write(self, path):
        """Write the spans as JSON lines, one span per line."""
        with open(path, "w", encoding="utf-8") as fh:
            for name, start, end, parent, op in self.spans:
                fh.write(json.dumps({"name": name, "start": start, "end": end,
                                     "parent": parent, "op": op}) + "\n")
