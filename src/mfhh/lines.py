"""The family lines of the restrictions of w that reach a degree window.

For a basis monomial p of the Jacobian ring of a restriction, with dual
markers on the unfixed variables, the solutions (c, u) of
(c, p) - u*(1,..,1) in the relation lattice form one line with the
context-wide step (dc, du); engine reads kinds A, B and C off it.

A class S and the class S + {x0} restrict w to the same fixed variables and
read the same lines, so each restriction is solved once.  Its Jacobian ring
is the product of its connected components' rings (see jacobian), so a
basis is a union of products of factors.  Tables take an atom's
Kreuzer-Krawitz boxes, whose factors are single variables' exponent ranges;
listings, whose monomials are grevlex ones, and components that are no atom
take the grevlex staircase as one factor.

Cost model.  A line's columns (SymmetryContext.line_columns) are linear in
the exponent vector, so its key, the residues of its congruence columns and
of its u column modulo L*|du|, which decide whether the line exists and at
which weights u it has points, is the sum of its factors' keys.  Each
factor is keyed once per walk.  A restriction indexes the product keys of
the larger side of its factors and looks each wanted key, less a product
key of the smaller side, up in that index, so it costs about
|smaller side| * |wanted keys| + |larger side| rather than its Milnor
number.  Only a line that is found is decoded: its exponent vector is put
together from the factors' monomials, line_columns gives its point
(c0, u0), and t_range finds its points in the window in closed form.
"""

from __future__ import annotations

from itertools import chain, product
from operator import mul

# monomial_basis is called through its module, so a wrapper installed on
# jacobian.monomial_basis, such as perfbench's tracer, sees each call
from . import jacobian
from .errors import NonterminatingFamily, NotIsolated
from .jacobian import BoxBasis, component_variables, not_isolated, restrict


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


def _factor(ctx, variables, monomials, moduli):
    """(variables, [(key, monomial)]) for monomials over the variables; see
    solve_restriction."""
    # the weights of these variables only, one column at a time; the c
    # column plays no part in a key
    *congruences, _, u_weights = ([w[v] for v in variables] for w in ctx.line_weights)
    keys = zip(*(
        [sum(map(mul, m, w)) % q for m in monomials]
        for w, q in zip(congruences + [u_weights], moduli)
    ))
    return variables, list(zip(keys, monomials))


def _component(ctx, variables, moduli, cache, boxes):
    """The basis of one component as alternatives whose union it is, each a
    list of factors whose product it is: one factor per variable range of
    each box of a BoxBasis, else one factor holding the staircase.  [] when
    the ring is 0, None when it is infinite."""
    try:
        # positional: perfbench's tracer reads a second argument as the order
        basis = jacobian.monomial_basis(restrict(ctx.poly, variables), boxes)
    except NotIsolated:
        return None
    if not isinstance(basis, BoxBasis):
        return [[_factor(ctx, variables, basis.monomials, moduli)]] if basis.monomials else []
    for box in basis.boxes:
        for v, exps in zip(variables, box):
            # (variable, range) keys never meet the components' variable tuples
            if (v, exps) not in cache:
                cache[v, exps] = _factor(ctx, (v,), [(e,) for e in exps], moduli)
    return [[cache[v, exps] for v, exps in zip(variables, box)] for box in basis.boxes]


def _product(factors, moduli):
    """(key, exponents) for every product of the factors' monomials, the
    exponents in the order of the factors' variables."""
    out = factors[0][1] if factors else [((0,) * len(moduli), ())]
    for _, entries in factors[1:]:
        out = [
            (tuple((a + b) % q for a, b, q in zip(k, k2, moduli)), e + e2)
            for k, e in out
            for k2, e2 in entries
        ]
    return out


def restrictions(ctx, classes, window, boxes=False):
    """Solve each restriction once, in order of the first of the given
    (fixed set, count) classes that uses it; yields (rows, lines) as
    solve_restriction.  Component bases and their keys are shared by all
    restrictions of the walk."""
    groups = {}
    for fixed, count in classes:
        groups.setdefault(tuple(sorted(fixed - {0})), []).append((fixed, count))
    cache = {}
    for fixed_vars, group in groups.items():
        yield solve_restriction(ctx, fixed_vars, group, window, cache, boxes)


def solve_restriction(ctx, fixed_vars, group, window, cache, boxes=False):
    """(rows, lines) for the restriction to fixed_vars and its (fixed set,
    count) classes.

    rows are (fixed set, count, kind): A and B for the class with x0, C for
    the one without.  lines are (c0, u0, rest, indices of the rows it can
    hit) for the lines that can hit the window.  rest holds the exponents of
    x_1..x_{n+1}: the line's basis monomial on the fixed variables and the
    dual marker -1 on the others; (c0, u0) is the point that
    line_columns((0,) + rest) gives over L.  With boxes, components that
    are atoms take their Kreuzer-Krawitz boxes (see _component).

    A line has a point of weight u exactly when its congruences hold and
    u0 = u mod du; in the columns of line_columns, each congruence column
    vanishes mod its d_j and the u column U = u*L mod L*|du|.  So the key
    of a line, plus that of the dual markers, must equal the key of some u
    whose degree 2*u + offset lies in the window.  With du == 0 every key
    is wanted and every line is found, so t_range raises.
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
        if variables not in cache:
            cache[variables] = _component(ctx, variables, moduli, cache, boxes)
        if cache[variables] is None:
            infinite = True  # and so is the ring, unless another one is 0
        else:
            comps.append(cache[variables])
    if infinite and all(comps):
        raise not_isolated(fixed_vars)
    # the dual markers on the unfixed variables
    duals = ctx.line_columns([0] + [-(v not in fixed_vars) for v in range(1, n + 2)])
    # the keys the factors must bring: one per residue of u mod |du| among
    # the window's weights, less the dual markers' key
    wanted = {}
    for i, (_, _, kind) in enumerate(rows):
        lo, hi = _ceil_div(dmin - kind[3], 2), (dmax - kind[3]) // 2
        for u in range(lo, min(hi, lo + moduli[-1] // L - 1) + 1):
            key = tuple(-x % q for x, q in zip(duals[:-2] + (duals[-1] - u * L,), moduli))
            wanted.setdefault(key, []).append(i)
    lines = []
    for alternative in product(*comps) if wanted else ():
        sides = ([], [])  # the larger side, then the smaller
        costs = [1, len(wanted)]
        for f in sorted(chain(*alternative), key=lambda f: -len(f[1])):
            side = costs[1] < costs[0]
            sides[side].insert(0, f)  # ascending: products grow from the smallest
            costs[side] *= len(f[1])
        larger, smaller = sides
        index = {}
        for k, exps in _product(larger, moduli):
            index.setdefault(k, []).append(exps)
        variables = [v for f in smaller + larger for v in f[0]]
        for k, exps in _product(smaller, moduli):
            for wk, hits in wanted.items():
                for exps2 in index.get(tuple((a - b) % q for a, b, q in zip(wk, k, moduli)), ()):
                    rest = [-1] * (n + 1)
                    for v, e in zip(variables, exps + exps2):
                        rest[v - 1] = e
                    *_, c, u = ctx.line_columns([0] + rest)
                    lines.append((c // L, u // L, tuple(rest), hits))
    return rows, lines
