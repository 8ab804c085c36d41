"""Enumerate contributions to the bigraded cohomology table.

Every group element gamma in ker(chi) owns a set of formal monomials built
from a basis of the Jacobian ring of the restriction of w to gamma's fixed
variables, decorated with dual markers (exponent -1) on the unfixed ones:

  kind A  x0^beta * p * (duals of unfixed x_j),          x0 fixed, beta >= 0
  kind B  x0^beta * x0-dual * p * (duals of unfixed x_j), x0 fixed, beta >= 0
  kind C  x0-dual * p * (duals of unfixed x_j),          x0 not fixed

A pair (gamma, m) contributes one dimension in degree 2u + n - k + 1 (kind A)
or 2u + n - k + 2 (kinds B, C), where k counts gamma's fixed variables among
x_1..x_{n+1} and u is the unique integer with  b(m) - u*(1,..,1)  in the
relation lattice, when it exists.  The second grading of a contribution is
the total x0-exponent b0.

For a basis monomial p with duals, the solutions (c, u) of
(c, p) - u*(1,..,1) in the relation lattice form one affine line, the family
line of (0, p); its step has nonzero u-component exactly when d0 != 0, which
makes the enumeration of any finite degree window provably complete.  All
three kinds read that one line: kind A takes its points with c >= 0 (beta =
c), kind B those with c >= -1 (beta = c + 1), and kind C its single point
c = -1, since (-1, p) + c'*e0 = (0, p) + (c' - 1)*e0.

Cost model.  The census comes as (mask, count) classes in sorted fixed-set
order, and lines.restrictions finds the lines of all the classes that fix
the same variables outside the Fermat atoms of w in one join (see lines).
Tables ask for Kreuzer-Krawitz boxes, so a standard polynomial's table
takes no Groebner basis; listings read the grevlex staircase.  A table
keeps each found line's points in the window as one run along the family
step, so it costs O(runs) however long its window, and builds its cells
only when they are read; listings make a Contribution per point.

Listing order.  class_contributions yields the classes in sorted fixed-set
order and sorts each class's hits by (grevlex key of the basis monomial, kind
A before B, t), which is the order of a walk over the grevlex monomial basis.
The table does not depend on the basis, so no other order is offered.
"""

from __future__ import annotations

from collections import Counter
from functools import cached_property
from itertools import repeat
from typing import NamedTuple

from .errors import InputError, WindowMismatch
from .jacobian import _grevlex_key
from .lines import restrictions, t_range
from .poly import monomial_text
from .symmetry import SymmetryContext


class GammaMonomial(NamedTuple):
    kind: str  # 'A' | 'B' | 'C'
    beta: int | None  # x0 exponent for kinds A/B; None for C
    b: tuple  # total exponents (b0, .., b_{n+1}); dual markers count -1

    @property
    def weight(self):
        return self.b[0]

    def pattern(self):
        power = [(0, self.beta)] if self.kind in ("A", "B") else []
        dual = [(0, -1)] if self.kind in ("B", "C") else []
        return monomial_text(power + dual + list(enumerate(self.b[1:], start=1)))


class Contribution(NamedTuple):
    gamma: object  # GroupElement, or None for a whole fixed class
    monomial: GammaMonomial
    u: int
    degree: int
    count: int = 1  # the elements it stands for: 1, or the class size

    @property
    def weight(self):
        return self.monomial.weight


def stretches(runs, sd, sq):
    """Sweep runs along the step (sd, sq), sd > 0, line by line: (r, base, k,
    k2, h) per stretch of points (r + i*sd, base + i*sq), k <= i < k2, of dim h != 0."""
    lines = {}
    for d, q, n, m in runs:
        k, r = divmod(d, sd)
        lines.setdefault((r, q - k * sq), []).extend(((k, m), (k + n, -m)))
    for (r, base), events in lines.items():
        events.sort()
        height = 0
        for (k, m), (k2, _) in zip(events, events[1:]):
            height += m
            if height and k2 > k:
                yield r, base, k, k2, height


def clip(runs, step, dmin, dmax):
    """The runs along step cut to the degrees dmin..dmax."""
    sd, sq = step
    cuts = ((d, q, m, max(0, -((d - dmin) // sd)), min(n, (dmax - d) // sd + 1)) for d, q, n, m in runs)
    return [(d + i * sd, q + i * sq, j - i, m) for d, q, m, i, j in cuts if i < j]


class BigradedTable:
    """Dimensions indexed by (degree, weight) inside a finite degree window.

    The enumeration is provably complete for every degree in the window, so
    complete(d) is simply window membership.  A table is not mutated after
    construction.  It holds runs (d, q, n, m), the cells (d + i*sd, q + i*sq),
    i < n, of dim m along its step (sd, sq), sd > 0: one per found line and
    row for compute_table, one per cell for a table built from cells.  Every
    query is O(runs): row, dim and restrict clip them, and total sums n*m.
    The cells are swept from the runs on first read (cell_list, ==).
    """

    def __init__(self, dmin, dmax, cells=None, runs=None, step=(1, 1)):
        self.dmin, self.dmax = dmin, dmax
        self.step = step
        self.runs = runs = [(d, q, 1, dim) for (d, q), dim in cells.items() if dim] if runs is None else runs
        self._points = {}  # degree -> its runs of one cell; None -> the longer runs
        for run in runs:
            self._points.setdefault(run[0] if run[2] == 1 else None, []).append(run)

    @cached_property
    def cells(self):
        sd, sq = self.step
        cells = {}  # distinct lines hold distinct cells
        for r, base, k, k2, dim in stretches(self.runs, sd, sq):
            points = zip(range(r + k * sd, r + k2 * sd, sd), range(base + k * sq, base + k2 * sq, sq))
            cells.update(zip(points, repeat(dim)))
        return cells

    @property
    def window(self):
        return (self.dmin, self.dmax)

    def complete(self, d):
        return self.dmin <= d <= self.dmax

    def _at(self, d):
        """The runs through degree d, clipped to their point there."""
        return clip(self._points.get(d, []) + self._points.get(None, []), self.step, d, d)

    def row(self, d):
        """The cells of degree d as a new {weight: dim} dict."""
        out = Counter()
        for _, q, _, m in self._at(d):
            out[q] += m
        return dict(out)

    def dim(self, d):
        return sum(m for *_, m in self._at(d))

    def weights(self, d):
        """Weight multiset in degree d, sorted, with multiplicity."""
        return tuple(sorted(q for q, dim in self.row(d).items() for _ in range(dim)))

    def restrict(self, dmin, dmax):
        if not (self.dmin <= dmin and dmax <= self.dmax):
            raise WindowMismatch(
                f"window {(dmin, dmax)} is not inside {self.window}"
            )
        return BigradedTable(dmin, dmax, runs=clip(self.runs, self.step, dmin, dmax), step=self.step)

    def total(self):
        return sum(n * m for _, _, n, m in self.runs)

    def cell_list(self):
        return [
            {"d": d, "q": q, "dim": self.cells[(d, q)]}
            for d, q in sorted(self.cells)
        ]

    def __eq__(self, other):
        return (
            isinstance(other, BigradedTable)
            and self.window == other.window
            and self.cells == other.cells
        )

    def __repr__(self):
        cells = sum(k2 - k for _, _, k, k2, _ in stretches(self.runs, *self.step))
        return f"BigradedTable({self.dmin}, {self.dmax}, {cells} cells)"


def _context(p, window, ctx):
    """ctx, or a new context for p; an empty window is an InputError."""
    if window[0] > window[1]:
        raise InputError("empty degree window")
    return SymmetryContext(p) if ctx is None else ctx


def compute_table(p, window, ctx=None):
    """The bigraded dimension table of p over a finite degree window."""
    ctx = _context(p, window, ctx)
    dc, du = step = ctx.family_step
    runs = []
    for _, lines in restrictions(ctx, ctx.classes, window, boxes=True):
        for c0, u0, _, hits in lines:
            for _, count, kind in hits:
                ts = t_range(c0, u0, step, kind, window)
                # a run starts at its lowest degree; with du == 0 it is one point
                for t in ts[:1] if du >= 0 else ts[-1:]:
                    runs.append((2 * (u0 + t * du) + kind[3], c0 + t * dc, ts.stop - ts.start, count))
    return BigradedTable(*window, runs=runs, step=(2 * abs(du) or 1, dc if du >= 0 else -dc))


def hh2_vanishes(p, ctx=None):
    """True iff the degree-2 part of the table is empty."""
    return compute_table(p, (2, 2), ctx=ctx).total() == 0


def _class_entries(ctx, hits, window):
    """The contributions of one class from its (line, row) hits, ranked by
    the grevlex key of their basis monomials, kind A before B, then t; only
    hits become objects."""
    dc, du = step = ctx.family_step
    out = []
    for (c0, u0, rest, _), (_, count, kind) in hits:
        # the fixed variables' exponents, in variable order
        rank = _grevlex_key(tuple(e for e in rest if e >= 0))
        name, _, _, off, shift = kind
        for t in t_range(c0, u0, step, kind, window):
            c, u = c0 + t * dc, u0 + t * du
            beta = None if shift is None else c + shift
            con = Contribution(
                None, GammaMonomial(name, beta, (c,) + rest), u, 2 * u + off, count
            )
            out.append((rank, name, t, con))
    out.sort(key=lambda h: h[:3])
    return [h[3] for h in out]


def _classes(ctx, classes, window):
    """Yield (mask, contributions) for the given (mask, count) classes in
    their order.  A join is solved at its first class, and its hits are
    kept per class until that class has had its turn, so every error is
    raised at the class that raised it when each class was solved on its
    own."""
    solved = restrictions(ctx, classes, window)
    pending = {}
    for fixed, _ in classes:
        if fixed not in pending:
            group, lines = next(solved)
            pending.update((other, []) for other, _ in group)
            for line in lines:
                for row in line[3]:
                    pending[row[0]].append((line, row))
        yield fixed, _class_entries(ctx, pending.pop(fixed), window)


def class_contributions(p, window, ctx=None):
    """Yield the listing behind the table with one entry per fixed class.

    Elements with the same fixed set carry identical monomial families, so
    each fixed-variable class of ker(chi) is computed once; its entries have
    gamma None and count the class size.  No element of ker(chi) is listed.
    The classes that differ only in x0 and the Fermat atoms they fix share
    one join.  An empty window is an InputError.
    """
    ctx = _context(p, window, ctx)
    for _, entries in _classes(ctx, ctx.classes, window):
        yield from entries


def list_contributions(p, window, ctx=None):
    """The flat, deterministic (gamma, monomial) listing behind the table.
    An empty window is an InputError."""
    ctx = _context(p, window, ctx)
    ker = ctx.ker_chi()
    masks = {fixed: sum(1 << j for j in fixed) for fixed in dict.fromkeys(gamma.fixed for gamma in ker)}
    by_class = dict(_classes(ctx, [(mask, 1) for mask in masks.values()], window))
    out = [
        Contribution(gamma, con.monomial, con.u, con.degree)
        for gamma in ker
        for con in by_class[masks[gamma.fixed]]
    ]
    out.sort(
        key=lambda c: (-c.degree, c.monomial.kind, c.monomial.b, c.gamma.phases)
    )
    return out


def aggregate_contributions(contribs):
    """Collapse a listing into (pattern, kind, degree, weight, count) rows.

    Each entry adds its count, so the per-element list_contributions and the
    per-class class_contributions give the same rows.
    """
    counts = Counter()
    for c in contribs:
        counts[(c.monomial.pattern(), c.monomial.kind, c.degree, c.weight)] += c.count
    rows = [
        {"monomial": m, "type": kind, "d": d, "q": q, "count": n}
        for (m, kind, d, q), n in counts.items()
    ]
    rows.sort(key=lambda r: (-r["d"], r["type"], r["q"], r["monomial"]))
    return rows
