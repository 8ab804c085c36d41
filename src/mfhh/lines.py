"""The family lines of the restrictions of w that reach a degree window.

For a basis monomial p of the Jacobian ring of a restriction, with dual
markers on the unfixed variables, the solutions (c, u) of
(c, p) - u*(1,..,1) in the relation lattice form one line with the
context-wide step (dc, du); engine reads kinds A, B and C off it.

A restriction's Jacobian ring is the product of its connected components'
rings (see jacobian), so a basis is a union of products of factors.  Tables
take an atom's Kreuzer-Krawitz boxes, whose factors are single variables'
exponent ranges; listings, whose monomials are grevlex ones, and components
that are no atom take the grevlex staircase as one factor.  A Fermat atom,
a one-variable block x_v^a of w with a >= 2, is one factor with exponents
-1..a-2: its dual marker when x_v is unfixed, else its basis.  So classes
that differ only in x0 and the Fermat atoms they fix share one join, and a
line reads its fixed set off its exponents.

Cost model.  A line's columns (SymmetryContext.line_columns) are linear in
the exponent vector, so its key, the residues of its congruence columns and
of its u column modulo L*|du|, which decide whether the line exists and at
which weights u it has points, is the sum of its factors' keys.  Each
factor is keyed once per walk.  A join splits its factors into two sides,
indexes the product keys of the larger one once per walk, and joins each
product key of the smaller side to the entries of that index whose weights
lie in the window (see solve_restriction), so it costs about
|smaller side| * log + |larger side| + |lines found| whatever the window's
length.  A sum of n Fermat atoms is one join of about sqrt(|det A|)
products a side, not 2^n.  Only a found line with a class that wants one of
its weights is decoded: line_columns gives its point (c0, u0), and t_range
finds its points in the window.
"""

from __future__ import annotations

from bisect import bisect_left
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


def _fermat_atoms(ctx):
    """{v: a} for each one-variable block x_v^a of w with a >= 2."""
    return {b[0]: a for b in ctx.blocks if len(b) == 1 and (a := restrict(ctx.poly, b).terms[0][0]) >= 2}


def restrictions(ctx, classes, window, boxes=False):
    """Solve the (fixed set, count) classes by one join per set of fixed
    variables outside the Fermat atoms, in order of its first class, each
    yielding (group, lines) as solve_restriction.  Component bases, their
    keys and the larger sides' indexes are shared by all joins of a walk."""
    drop = {0, *_fermat_atoms(ctx)}
    groups = {}
    for fixed, count in classes:
        groups.setdefault(tuple(sorted(fixed - drop)), []).append((fixed, count))
    cache = {}
    for fixed_vars, group in groups.items():
        yield solve_restriction(ctx, fixed_vars, group, window, cache, boxes)


def solve_restriction(ctx, fixed_vars, group, window, cache, boxes=False):
    """(group, lines) for the group of (fixed set, count) classes whose
    fixed variables outside the Fermat atoms are fixed_vars.

    lines are (c0, u0, rest, rows) for the lines that hit the window.  rest
    holds the exponents of x_1..x_{n+1}: the line's basis monomial on its
    fixed set S and the dual marker -1 on the others; (c0, u0) is the point
    that line_columns((0,) + rest) gives over L.  rows are the (fixed set,
    count, kind) it hits: kinds A and B of the class S + {x0}, C of S.  With
    boxes, components that are atoms take their Kreuzer-Krawitz boxes (see
    _component).  An infinite ring raises NotIsolated, named after the
    first class's restriction.

    A line has a point of weight u exactly when its congruences hold and
    u0 = u mod du; in the columns of line_columns, each congruence column
    vanishes mod its d_j and the u column U = u*L mod L*|du|.  The larger
    side's products are indexed by congruence residues and U mod L, each
    bucket sorted by m = U // L.  A product of the smaller side, whose u
    column plus the dual markers' is need, meets one bucket, in which m
    gives weights ceil(need/L) + m mod |du|; the kinds want one arc of
    weights, as wide as the window and their degree offsets, so it finds
    one or two ranges of m, or the whole bucket once the arc covers |du|
    weights.  With du == 0 every line whose congruences hold is found, so
    t_range raises.
    """
    dmin, dmax = window
    n = ctx.n
    L = ctx.line_denominator
    M = abs(ctx.family_step[1]) or 1
    moduli = ctx.line_moduli + (L * M,)
    if "atoms" not in cache:  # x_v^a as one factor: its dual marker, then its basis
        powers = _fermat_atoms(ctx).items()
        cache["atoms"] = {v: _factor(ctx, (v,), [(e,) for e in range(-1, a - 1)], moduli) for v, a in powers}
    atoms = cache["atoms"]
    comps, infinite = [], False
    for variables in component_variables(restrict(ctx.poly, fixed_vars)):
        if variables not in cache:
            cache[variables] = _component(ctx, variables, moduli, cache, boxes)
        if cache[variables] is None:
            infinite = True  # and so is the ring, unless another one is 0
        else:
            comps.append(cache[variables])
    if infinite and all(comps):
        raise not_isolated(tuple(sorted(group[0][0] - {0})))
    # the dual markers on the unfixed variables; a Fermat atom's factor holds its own
    *duals, _, duals_u = ctx.line_columns([0] + [-(v not in (*fixed_vars, *atoms)) for v in range(1, n + 2)])
    # a kind of degree offset off wants u in spans[off] = [lo, hi); a class fixes
    # k0..k0 + |atoms| variables, so off is n - k0 - |atoms| + 1..n - k0 + 2
    offsets = range(n - len(fixed_vars) - len(atoms) + 1, n - len(fixed_vars) + 3)
    spans = {off: (_ceil_div(dmin - off, 2), (dmax - off) // 2 + 1) for off in offsets}
    wanted = [(lo, hi) for lo, hi in spans.values() if lo < hi]
    if not wanted:
        return group, []
    start = min(lo for lo, _ in wanted)
    width = max(hi for _, hi in wanted) - start
    counts = dict(group)
    lines = []
    for alternative in product(*comps):
        sides = ([], [])  # the larger side, then the smaller
        costs = [1, 2]  # a probe costs about two entries of the index
        for f in sorted(chain(*alternative, atoms.values()), key=lambda f: -len(f[1])):
            side = costs[1] < costs[0]
            sides[side].insert(0, f)  # ascending: products grow from the smallest
            costs[side] *= len(f[1])
        larger, smaller = sides
        # the walk's cache keeps every factor alive, so ids name the index
        name = ("index",) + tuple(map(id, larger))
        if name not in cache:
            cache[name] = index = {}
            for k, exps in _product(larger, moduli):
                index.setdefault((k[:-1], k[-1] % L), []).append((k[-1] // L, exps))
            for bucket in index.values():
                bucket.sort()
        variables = [v for f in smaller + larger for v in f[0]]
        for k, exps in _product(smaller, moduli):
            need = duals_u + k[-1]
            base = _ceil_div(need, L)
            key = tuple((-a - b) % q for a, b, q in zip(duals, k, moduli))
            found = cache[name].get((key, -need % L), ())
            if width < M:
                # the arc [m0, m0 + width) mod M
                m0 = (start - base) % M
                cut = [bisect_left(found, (m,)) for m in (m0, m0 + width, m0 + width - M)]
                found = found[cut[0]:cut[1]] + found[:cut[2]]
            for m, exps2 in found:
                rest = [-1] * (n + 1)
                for v, e in zip(variables, exps + exps2):
                    rest[v - 1] = e
                fixed = frozenset(v for v, e in enumerate(rest, 1) if e >= 0)
                hits = []
                for cls in (fixed | {0}, fixed):
                    for kind in kinds(n, len(fixed), 0 in cls) if cls in counts else ():
                        lo, hi = spans[kind[3]]
                        if (base + m - lo) % M < hi - lo:
                            hits.append((cls, counts[cls], kind))
                if hits:
                    *_, c, u = ctx.line_columns([0] + rest)
                    lines.append((c // L, u // L, tuple(rest), hits))
    return group, lines
