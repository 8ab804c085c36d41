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

Cost model.  A table or a listing takes no census: one join over the blocks
of A finds their lines and counts the fixed sets it finds (see lines), and a
listing groups its runs by class.  The join reads the Kreuzer-Krawitz boxes
of the atoms, so a standard polynomial's table takes no Groebner basis.  The
join gives the points of each (line, row) hit in the window as one run along
the family step, with no decoded line, so a table costs O(runs) however long
its window; it builds its cells only when they are read.  A listing makes a
Contribution per point of its runs.

Listing names.  A listing names grevlex standard monomials, so each hit's
box monomial on an atom's part of more than one variable becomes its grevlex
normal form there (jacobian.normal_form), one to one onto the staircase;
with no atom matching, on its whole fixed set, where staircase parts stay.
The ideal's binomials join exponents that differ by sums of A_i - A_k, and
(0, A_i - A_k) is a relation, so the renamed hit keeps its family line.

Listing order.  class_contributions yields the classes in sorted fixed-set
order and sorts each class's hits by (grevlex key of the basis monomial, kind
A before B, c), which is the order of a walk over the grevlex monomial basis.
The table does not depend on the basis, so no other order is offered.
"""

from __future__ import annotations

from collections import Counter
from functools import cached_property
from itertools import repeat
from typing import NamedTuple

from .errors import InputError, WindowMismatch
from .jacobian import _grevlex_key, normal_form, restrict
from .lines import first_error, join
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
        line = lines.setdefault((r, q - k * sq), {})  # k: the change of dim at point k
        line[k] = line.get(k, 0) + m
        line[k + n] = line.get(k + n, 0) - m
    for (r, base), line in lines.items():
        if not any(line.values()):
            continue  # every change cancels, as in a self-compare
        ks = sorted(line)
        height = 0
        for k, k2 in zip(ks, ks[1:]):
            height += line[k]
            if height:
                yield r, base, k, k2, height


def clip(runs, step, dmin, dmax):
    """The runs along step cut to the degrees dmin..dmax."""
    (sd, sq), out = step, []
    for d, q, n, m in runs:
        i = (dmin - d - 1) // sd + 1 if d < dmin else 0  # the points below dmin
        j = (dmax - d) // sd + 1  # and up to dmax
        if i < j and i < n:
            out.append((d + i * sd, q + i * sq, (j if j < n else n) - i, m))
    return out


class BigradedTable:
    """Dimensions indexed by (degree, weight) inside a finite degree window.

    The enumeration is provably complete for every degree in the window, so
    complete(d) is simply window membership.  A table is not mutated after
    construction.  It holds runs (d, q, n, m), the cells (d + i*sd, q + i*sq),
    i < n, of dim m along its step (sd, sq), sd > 0: one per found line and
    row for compute_table, one per cell for a table built from cells.  Every
    query is O(runs): row and dim test each run for a point at d, restrict
    clips them, and total sums n*m.
    The cells are swept from the runs on first read (cell_list, ==).
    """

    def __init__(self, dmin, dmax, cells=None, runs=None, step=(1, 1)):
        self.dmin, self.dmax = dmin, dmax
        self.step = step
        self.runs = [(d, q, 1, dim) for (d, q), dim in (cells or {}).items() if dim] if runs is None else runs

    @cached_property
    def cells(self):
        sd, sq = self.step
        cells = {}  # distinct lines hold distinct cells
        # listed first: a MemoryError below leaves no generator to close, which would raise again
        for r, base, k, k2, dim in list(stretches(self.runs, sd, sq)):
            points = zip(range(r + k * sd, r + k2 * sd, sd), range(base + k * sq, base + k2 * sq, sq))
            cells.update(zip(points, repeat(dim)))
        return cells

    @property
    def window(self):
        return (self.dmin, self.dmax)

    def complete(self, d):
        return self.dmin <= d <= self.dmax

    def row(self, d):
        """The cells of degree d as a new {weight: dim} dict."""
        (sd, sq), out = self.step, {}
        for d0, q, n, m in self.runs:
            if (d - d0) % sd == 0 and 0 <= d - d0 < n * sd:
                q += (d - d0) // sd * sq
                out[q] = out.get(q, 0) + m
        return out

    def dim(self, d):
        sd = self.step[0]
        return sum(m for d0, _, n, m in self.runs if (d - d0) % sd == 0 and 0 <= d - d0 < n * sd)

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
    """ctx, or a new context for p; an empty window, or a ctx built for another polynomial, is an
    InputError."""
    if window[0] > window[1]:
        raise InputError("empty degree window")
    if ctx is not None and ctx.poly != p:
        raise InputError("the context was built for another polynomial")
    return SymmetryContext(p) if ctx is None else ctx


def compute_table(p, window, ctx=None):
    """The bigraded dimension table of p over a finite degree window."""
    ctx = _context(p, window, ctx)
    dc, du = ctx.family_step
    runs, errors = join(ctx, window)
    if errors:  # the first in class order, as if each class were solved alone
        raise first_error(ctx, errors, ctx.class_key)
    runs = [run[:4] for run in runs]
    return BigradedTable(*window, runs=runs, step=(2 * abs(du) or 1, dc if du >= 0 else -dc))


def hh2_vanishes(p, ctx=None):
    """True iff the degree-2 part of the table is empty."""
    return compute_table(p, (2, 2), ctx=ctx).total() == 0


def _class_entries(ctx, runs):
    """The contributions of one class from its runs, ranked by the grevlex
    key of their basis monomials, kind A before B, then c; only hits become
    objects."""
    dc, du = ctx.family_step
    sc, su = (dc if du >= 0 else -dc), abs(du)  # a run's step in c and u
    out = []
    for d, c0, points, count, (_, _, kind), rest in runs:
        rank = _grevlex_key(tuple(e for e in rest if e >= 0))
        name, _, _, off, shift = kind
        for i in range(points):
            c, u = c0 + i * sc, (d - off) // 2 + i * su
            beta = None if shift is None else c + shift
            con = Contribution(None, GammaMonomial(name, beta, (c,) + rest), u, 2 * u + off, count)
            out.append((rank, name, c, con))
    out.sort(key=lambda h: h[:3])
    return [h[3] for h in out]


def _classes(ctx, window, order):
    """The runs of one join grouped by class mask, after raising the join's
    first error by the key order, as if each class were solved on its own.
    A run ends in its monomial on x_1..x_{n+1}, named as the module docstring
    says; names and bases keep each name and Groebner basis for this call."""
    found, errors = join(ctx, window)
    if errors:
        raise first_error(ctx, errors, order)
    runs, names, bases = {}, {}, {}
    for *run, variables, exps, exps2 in found:
        # a run's variables are all of x_1..x_{n+1}, in the join's order
        rest = tuple(map(dict(zip(variables, exps + exps2)).get, range(1, ctx.n + 2)))
        if rest not in names:
            named = list(rest)
            for walk, _ in ctx.walks or [(tuple(enumerate(rest)), False)]:  # else the whole fixed set
                if len(fixed := sorted(v for v, _ in walk if rest[v] >= 0)) > 1:
                    r = restrict(ctx.poly, [v + 1 for v in fixed])
                    for v, e in zip(fixed, normal_form(r, tuple(rest[v] for v in fixed), bases)):
                        named[v] = e
            names[rest] = tuple(named)
        runs.setdefault(run[4][0], []).append((*run, names[rest]))
    return runs


def class_contributions(p, window, ctx=None):
    """Yield the listing behind the table with one entry per fixed class.

    Elements with the same fixed set carry identical monomial families, so
    each fixed-variable class of ker(chi) is computed once; its entries have
    gamma None and count the class size.  No element of ker(chi) is listed.
    The classes that differ only in x0 and the Fermat atoms they fix share
    one join.  An empty window is an InputError.
    """
    ctx = _context(p, window, ctx)
    runs = _classes(ctx, window, ctx.class_key)
    for mask in sorted(runs, key=ctx.class_key):
        yield from _class_entries(ctx, runs[mask])


def list_contributions(p, window, ctx=None):
    """The flat, deterministic (gamma, monomial) listing behind the table.
    An empty window is an InputError."""
    ctx = _context(p, window, ctx)
    ker = ctx.ker_chi()
    masks = {fixed: sum(1 << j for j in fixed) for fixed in dict.fromkeys(gamma.fixed for gamma in ker)}
    runs = _classes(ctx, window, {mask: i for i, mask in enumerate(masks.values())}.__getitem__)  # ker order
    by_class = {mask: _class_entries(ctx, found) for mask, found in runs.items()}
    out = [
        Contribution(gamma, con.monomial, con.u, con.degree)
        for gamma in ker
        for con in by_class.get(masks[gamma.fixed], ())
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
