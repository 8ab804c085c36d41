"""The family lines of the restrictions of w that reach a degree window.

For a basis monomial p of the Jacobian ring of a restriction, with dual
markers on the unfixed variables, the solutions (c, u) of
(c, p) - u*(1,..,1) in the relation lattice form one line with the
context-wide step (dc, du); engine reads kinds A, B and C off it.

A class S and the class S + {x0} restrict w to the same fixed variables and
read the same lines, so each restriction is solved once.  Its Jacobian basis
is the product of its connected components' grevlex staircases (see
jacobian; the table does not depend on the basis), and a line's columns
(SymmetryContext.line_columns) are linear in the exponent vector, so its
key is a sum of per-component keys.  Once per table, each staircase
monomial of each component gets its key: the residues of its congruence
columns and of its u column modulo L*|du|, which decide whether the line
exists and at which weights u it has points.  A restriction then adds
integer keys over the product of the smaller half of its components and
looks the larger half's monomials up against the keys that reach the
window (see solve_restriction); no product monomial is built or sorted.
Only a line that is found is decoded: its exponent vector is put together
from the components' monomials, line_columns gives its point (c0, u0), and
t_range finds its points in the window in closed form.
"""

from __future__ import annotations

from operator import mul

# monomial_basis is called through its module, so a wrapper installed on
# jacobian.monomial_basis, such as perfbench's tracer, sees each call
from . import jacobian
from .errors import NonterminatingFamily, NotIsolated
from .jacobian import component_variables, not_isolated, restrict


def _ceil_div(a, b):
    return -((-a) // b)


def kinds(n, k, x0_fixed):
    """(kind, lowest c, highest c, degree offset, beta - c) per kind of a
    class with k fixed variables among x_1..x_{n+1}; see engine."""
    if x0_fixed:
        return (("A", 0, None, n - k + 1, 0), ("B", -1, None, n - k + 2, 1))
    return (("C", -1, -1, n - k + 2, None),)


def t_range(c0, u0, step, kind, window):
    """All t whose point (c0 + t*dc, u0 + t*du) of the line is a hit of the
    kind: c inside the kind's bounds and degree 2*u + offset in the window.

    Closed form: jump to the first point with c >= the lowest c, then step
    2*du in degree.  With du == 0 the degree never moves, so an unbounded
    kind inside the window raises NonterminatingFamily: the family would
    contribute infinitely often, which only happens when d0 = 0.
    """
    _, cmin, cmax, off, _ = kind
    dc, du = step
    dmin, dmax = window
    t = _ceil_div(cmin - c0, dc)
    d = 2 * (u0 + t * du) + off
    if du > 0:
        lo, hi = t + max(0, _ceil_div(dmin - d, 2 * du)), t + (dmax - d) // (2 * du)
    elif du < 0:
        lo, hi = t + max(0, _ceil_div(d - dmax, -2 * du)), t + (d - dmin) // (-2 * du)
    elif not dmin <= d <= dmax:
        return range(0)
    elif cmax is None:
        raise NonterminatingFamily(
            "a monomial family never leaves the degree window (d0 = 0)"
        )
    else:
        lo, hi = t, t
    if cmax is not None:
        hi = min(hi, (cmax - c0) // dc)
    return range(lo, hi + 1)


class _Component:
    """A connected component's variables and grevlex staircase, with (key,
    (index,)) for each monomial; see solve_restriction."""

    __slots__ = ("variables", "monomials", "entries")

    def __init__(self, ctx, variables, monomials, moduli):
        # the weights of these variables only, one column at a time; the
        # c column plays no part in a key
        *congruences, _, u_weights = ([w[v] for v in variables] for w in ctx.line_weights)
        keys = zip(*(
            [sum(map(mul, m, w)) % q for m in monomials]
            for w, q in zip(congruences + [u_weights], moduli)
        ))
        self.variables = variables
        self.monomials = monomials
        self.entries = list(zip(keys, ((j,) for j in range(len(monomials)))))


def _product(components, moduli):
    """(key, picks) for every product of the components' monomials."""
    out = components[0].entries if components else [((0,) * len(moduli), ())]
    for comp in components[1:]:
        out = [
            (tuple((a + b) % q for a, b, q in zip(k, k2, moduli)), p + p2)
            for k, p in out
            for k2, p2 in comp.entries
        ]
    return out


def restrictions(ctx, classes, window):
    """Solve each restriction once, in order of the first of the given
    (fixed set, count) classes that uses it; yields (rows, lines) as
    solve_restriction.  Component staircases (grevlex) and their keys are
    shared by all restrictions of the walk."""
    groups = {}
    for fixed, count in classes:
        groups.setdefault(tuple(sorted(fixed - {0})), []).append((fixed, count))
    components = {}
    for fixed_vars, group in groups.items():
        yield solve_restriction(ctx, fixed_vars, group, window, components)


def solve_restriction(ctx, fixed_vars, group, window, components):
    """(rows, lines) for the restriction to fixed_vars and its (fixed set,
    count) classes.

    rows are (fixed set, count, kind): A and B for the class with x0, C for
    the one without.  lines are (c0, u0, rest, indices of the rows it can
    hit) for the lines that can hit the window.  rest holds the exponents of
    x_1..x_{n+1}: the line's grevlex basis monomial on the fixed variables
    and the dual marker -1 on the others; (c0, u0) is the point that
    line_columns((0,) + rest) gives over L.

    A line has a point of weight u exactly when its congruences hold and
    u0 = u mod du; in the columns of line_columns, each congruence column
    vanishes mod its d_j and the u column U = u*L mod L*|du|.  So a line's
    key, those residues, is the sum of its components' keys and that of the
    dual markers, and it must equal the key of some u whose degree
    2*u + offset lies in the window.  Components are split into two halves
    of about equal product size, the larger one holding the largest
    component; for each product line of the smaller half, the keys the
    larger half must bring are looked up while its lines are scanned.  Only
    the lines found are decoded.  With du == 0 every key is wanted and every
    line is tested, so t_range raises.
    """
    dmin, dmax = window
    n = ctx.n
    L = ctx.line_denominator
    moduli = ctx.line_moduli + (L * (abs(ctx.family_step[1]) or 1),)
    rows = [
        (fixed, count, kind)
        for fixed, count in group
        for kind in kinds(n, len(fixed_vars), 0 in fixed)
    ]
    comps, infinite = [], False
    for variables in component_variables(restrict(ctx.poly, fixed_vars)):
        if variables not in components:
            try:
                basis = jacobian.monomial_basis(restrict(ctx.poly, variables))
            except NotIsolated:
                infinite = True  # and so is the ring, unless another one is 0
                continue
            components[variables] = _Component(ctx, variables, basis.monomials, moduli)
        comps.append(components[variables])
    if infinite and all(c.monomials for c in comps):
        raise not_isolated(fixed_vars)
    # the dual markers on the unfixed variables
    duals = ctx.line_columns([0] + [-(v not in fixed_vars) for v in range(1, n + 2)])
    # the keys the components must bring: one per residue of u mod |du|
    # among the window's weights, less the dual markers' key
    wanted = {}
    for i, (_, _, kind) in enumerate(rows):
        lo, hi = _ceil_div(dmin - kind[3], 2), (dmax - kind[3]) // 2
        for u in range(lo, min(hi, lo + moduli[-1] // L - 1) + 1):
            key = tuple(-x % q for x, q in zip(duals[:-2] + (duals[-1] - u * L,), moduli))
            wanted.setdefault(key, []).append(i)
    halves = ([], [])  # the larger half first
    sizes = [1, 1]
    for comp in sorted(comps, key=lambda c: -len(c.monomials)):
        side = sizes[1] < sizes[0]
        halves[side].append(comp)
        sizes[side] *= len(comp.monomials)
    right = _product(halves[0], moduli)
    comps = halves[1] + halves[0]  # the order of a line's picks
    lines = []
    for k, picks in _product(halves[1], moduli):
        shifted = {
            tuple((a - b) % q for a, b, q in zip(wk, k, moduli)): hits
            for wk, hits in wanted.items()
        }
        for k2, picks2 in right:
            hits = shifted.get(k2)
            if hits:
                rest = [-1] * (n + 1)
                for comp, j in zip(comps, picks + picks2):
                    for v, e in zip(comp.variables, comp.monomials[j]):
                        rest[v - 1] = e
                *_, c, u = ctx.line_columns([0] + rest)
                lines.append((c // L, u // L, tuple(rest), hits))
    return rows, lines
