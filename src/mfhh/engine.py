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
"""

from __future__ import annotations

from collections import Counter
from dataclasses import dataclass

from .errors import InputError, NonterminatingFamily, WindowMismatch
from .jacobian import monomial_basis, restrict
from .symmetry import SymmetryContext


@dataclass(frozen=True)
class GammaMonomial:
    kind: str  # 'A' | 'B' | 'C'
    beta: int | None  # x0 exponent for kinds A/B; None for C
    b: tuple  # total exponents (b0, .., b_{n+1}); dual markers count -1

    @property
    def weight(self):
        return self.b[0]

    def pattern(self):
        factors = []
        if self.kind in ("A", "B"):
            if self.beta == 1:
                factors.append("x0")
            elif self.beta > 1:
                factors.append(f"x0^{self.beta}")
            if self.kind == "B":
                factors.append("x0^∨")
        else:
            factors.append("x0^∨")
        for j, e in enumerate(self.b[1:], start=1):
            if e == 1:
                factors.append(f"x{j}")
            elif e > 1:
                factors.append(f"x{j}^{e}")
            elif e == -1:
                factors.append(f"x{j}^∨")
        return "*".join(factors) if factors else "1"


@dataclass(frozen=True)
class Contribution:
    gamma: object  # GroupElement, or None for a whole fixed class
    monomial: GammaMonomial
    u: int
    degree: int
    count: int = 1  # the elements it stands for: 1, or the class size

    @property
    def weight(self):
        return self.monomial.weight


class BigradedTable:
    """Dimensions indexed by (degree, weight) inside a finite degree window.

    The enumeration is provably complete for every degree in the window, so
    complete(d) is simply window membership.  A table is not mutated after
    construction: dim, weights, row and restrict read a per-degree index of
    cells that is built once, on first use, so a table that is only
    serialised never builds it.
    """

    def __init__(self, dmin, dmax, cells):
        self.dmin = dmin
        self.dmax = dmax
        self.cells = {dw: dim for dw, dim in cells.items() if dim}
        self._by_degree = None  # degree -> tuple of the weights with a cell

    def _index(self):
        if self._by_degree is None:
            rows = {}
            for d, q in self.cells:
                rows.setdefault(d, []).append(q)
            # tuples: the index lives as long as the table, so keep it small
            self._by_degree = {d: tuple(qs) for d, qs in rows.items()}
        return self._by_degree

    @property
    def window(self):
        return (self.dmin, self.dmax)

    def complete(self, d):
        return self.dmin <= d <= self.dmax

    def row(self, d):
        """The cells of degree d as a new {weight: dim} dict."""
        return {q: self.cells[d, q] for q in self._index().get(d, ())}

    def dim(self, d):
        return sum(self.cells[d, q] for q in self._index().get(d, ()))

    def weights(self, d):
        """Weight multiset in degree d, sorted, with multiplicity."""
        out = []
        for q in self._index().get(d, ()):
            out.extend([q] * self.cells[d, q])
        return tuple(sorted(out))

    def restrict(self, dmin, dmax):
        if not (self.dmin <= dmin and dmax <= self.dmax):
            raise WindowMismatch(
                f"window {(dmin, dmax)} is not inside {self.window}"
            )
        return BigradedTable(dmin, dmax, {
            (d, q): self.cells[d, q]
            for d, qs in self._index().items() if dmin <= d <= dmax
            for q in qs
        })

    def total(self):
        return sum(self.cells.values())

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
        return f"BigradedTable({self.dmin}, {self.dmax}, {len(self.cells)} cells)"


def _ceil_div(a, b):
    return -((-a) // b)


def _line_t_range(c0, u0, dc, du, cmin, cmax, off, dmin, dmax):
    """All t with cmin <= c(t) = c0 + t*dc <= cmax and 2*u(t) + off in
    [dmin, dmax]; cmax None leaves c unbounded above.

    dc > 0.  Raises NonterminatingFamily when c is unbounded, du == 0 and the
    (constant) degree sits inside the window: the family would contribute
    infinitely often, which only happens in the excluded d0 = 0 regime.
    """
    tlo = _ceil_div(cmin - c0, dc)
    thi = None if cmax is None else (cmax - c0) // dc
    if du == 0:
        if not dmin <= 2 * u0 + off <= dmax:
            return range(0)
        if thi is None:
            raise NonterminatingFamily(
                "a monomial family never leaves the degree window (d0 = 0)"
            )
        return range(tlo, thi + 1)
    # dmin <= 2*(u0 + t*du) + off <= dmax
    lo_num = dmin - off - 2 * u0
    hi_num = dmax - off - 2 * u0
    if du > 0:
        t1, t2 = _ceil_div(lo_num, 2 * du), hi_num // (2 * du)
    else:
        t1, t2 = _ceil_div(hi_num, 2 * du), lo_num // (2 * du)
    return range(max(tlo, t1), t2 + 1 if thi is None else min(thi, t2) + 1)


def _class_contributions(ctx, fixed, count, window, order):
    """Contributions shared by every gamma with the given fixed set, each
    standing for the class's count elements."""
    dmin, dmax = window
    n = ctx.n
    fixed_vars = tuple(sorted(v for v in fixed if v >= 1))
    k = len(fixed_vars)
    # (kind, lowest c, highest c, degree offset, beta - c); see the docstring
    if 0 in fixed:
        kinds = (("A", 0, None, n - k + 1, 0), ("B", -1, None, n - k + 2, 1))
    else:
        kinds = (("C", -1, -1, n - k + 2, None),)
    dc, du = ctx.family_step
    basis = monomial_basis(restrict(ctx.poly, fixed_vars), order)
    out = []
    for mono in basis.monomials:
        # the basis variables are exactly the fixed ones; the rest are duals
        exps = dict(zip(basis.variables, mono))
        rest = tuple(exps.get(j, -1) for j in range(1, n + 2))
        line = ctx.family_line((0,) + rest)
        if line is None:
            continue
        c0, u0 = line
        for kind, cmin, cmax, off, shift in kinds:
            for t in _line_t_range(c0, u0, dc, du, cmin, cmax, off, dmin, dmax):
                c, u = c0 + t * dc, u0 + t * du
                beta = None if shift is None else c + shift
                out.append(
                    Contribution(None, GammaMonomial(kind, beta, (c,) + rest), u, 2 * u + off, count)
                )
    return out


def compute_table(p, window, order="grevlex", ctx=None):
    """The bigraded dimension table of p over a finite degree window."""
    dmin, dmax = window
    cells = Counter()
    for con in class_contributions(p, window, order, ctx):
        cells[(con.degree, con.weight)] += con.count
    return BigradedTable(dmin, dmax, cells)


def hh2_vanishes(p, order="grevlex", ctx=None):
    """True iff the degree-2 part of the table is empty."""
    return compute_table(p, (2, 2), order=order, ctx=ctx).total() == 0


def class_contributions(p, window, order="grevlex", ctx=None):
    """Yield the listing behind the table with one entry per fixed class.

    Elements with the same fixed set carry identical monomial families, so
    each fixed-variable class of ker(chi) is computed once; its entries have
    gamma None and count the class size.  No element of ker(chi) is listed,
    and only one class's entries are held at a time.  An empty window is an
    InputError.
    """
    if window[0] > window[1]:
        raise InputError("empty degree window")
    if ctx is None:
        ctx = SymmetryContext(p)
    for fixed, count in sorted(ctx.fixed_census().items(), key=lambda kv: sorted(kv[0])):
        yield from _class_contributions(ctx, fixed, count, window, order)


def list_contributions(p, window, order="grevlex", ctx=None):
    """The flat, deterministic (gamma, monomial) listing behind the table."""
    if ctx is None:
        ctx = SymmetryContext(p)
    by_class = {}
    out = []
    for gamma in ctx.ker_chi():
        if gamma.fixed not in by_class:
            by_class[gamma.fixed] = _class_contributions(ctx, gamma.fixed, 1, window, order)
        for con in by_class[gamma.fixed]:
            out.append(Contribution(gamma, con.monomial, con.u, con.degree))
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
