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

Cost model.  A line's key, the residues of its congruence columns and of
its u column modulo L*|du| (SymmetryContext.line_columns), is linear in the
exponents, so it is the sum of its factors' keys: one int, a field per
column, summed with one add, mask, shift and multiply (solve_restriction).
A join indexes the product keys of its larger side once per walk and probes
them with each product of the smaller side for the entries whose weights
lie in the window, so it costs about |smaller side| * log + |larger side| +
|lines found| whatever the window's length; a sum of n Fermat atoms is one
join of about sqrt(|det A|) products a side, not 2^n.  A join reads its
components off the context's atom walks, as the atoms' parts of its fixed
set, and its dual key is a sum of per-variable keys made once per walk, so
w is restricted once per distinct component, for its basis.  Classes come as
(mask, count) pairs.  A found entry's mark holds its fixed set, whose rows
are built when an entry first has it, so a table pays per found fixed set,
not per class, and above it the line invariant J, the sum of its factors'.
With du != 0 a table reads each hit's run off J and the weight residue, so
it costs O(hits), with no line decoded and no t_range; a listing, or a
table with du == 0, decodes only an entry that a row wants, by its c and u
weights alone, and t_range finds its points.
"""

from __future__ import annotations

from bisect import bisect_left
from itertools import chain, product
from operator import mul

# monomial_basis is called through its module, so a wrapper installed on
# jacobian.monomial_basis, such as perfbench's tracer, sees each call
from . import jacobian
from .errors import EngineError, NonterminatingFamily, NotIsolated
from .jacobian import BoxBasis, component_variables, not_isolated, restrict


FACTOR_LIMIT = 1 << 21  # exponents in one factor: x^99999999's took minutes and gigabytes


def _ceil_div(a, b):
    return -((-a) // b)


def _limited(ctx, v, exps):
    """exps, the exponents of a factor of x_v, unless there are more than FACTOR_LIMIT."""
    if len(exps) > FACTOR_LIMIT:
        a = max(row[v - 1] for row in ctx.poly.matrix)
        raise EngineError(f"x{v}^{a} needs a factor of {len(exps)} exponents, more than 2^21")
    return exps


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


def _packing(N, fields):
    """(N, field width, top bits, N in each field); see solve_restriction."""
    w = N.bit_length() + 1
    return N, w, sum(1 << (i * w + w - 1) for i in range(fields)), sum(N << i * w for i in range(fields))


def _canonical(s, packing):
    """The key whose fields are those of s mod N, each field of s below 2N."""
    N, w, high, each = packing
    return s - (((s + high - each) & high) >> (w - 1)) * N


def _factor(ctx, variables, monomials, packing):
    """(variables, [(key, monomial, mark)]) for monomials over the variables,
    a mark holding bit v for each x_v of exponent >= 0 and, from bit n + 2
    up, the monomial's part of J (line_invariant); see solve_restriction."""
    N, w = packing[:2]
    # these variables' weights, a column at a time: u, then each congruence
    # scaled by N / d_j; the c column plays no part in a key
    *congruences, _, u_weights = ctx.line_weights
    keys = marks = [0] * len(monomials)
    for i, (weights, q) in enumerate(zip([u_weights, *congruences], (N, *ctx.line_moduli))):
        weights, off = [weights[v] * (N // q) for v in variables], i * w
        if len(variables) == 1:  # a box range or an atom: no dot product
            wv = weights[0]
            keys = [k + (m[0] * wv % N << off) for k, m in zip(keys, monomials)]
        else:
            keys = [k + (sum(map(mul, m, weights)) % N << off) for k, m in zip(keys, monomials)]
    for j, v in enumerate(variables):
        J = ctx.line_invariant[v] << ctx.n + 2
        marks = [f + m[j] * J + ((m[j] >= 0) << v) for f, m in zip(marks, monomials)]
    return variables, list(zip(keys, monomials, marks))


def _component(ctx, variables, packing, cache, boxes):
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
        return [[_factor(ctx, variables, basis.monomials, packing)]] if basis.monomials else []
    for box in basis.boxes:
        for v, exps in zip(variables, box):
            # (variable, range) keys never meet the components' variable tuples
            if (v, exps) not in cache:
                cache[v, exps] = _factor(ctx, (v,), [(e,) for e in _limited(ctx, v, exps)], packing)
    return [[cache[v, exps] for v, exps in zip(variables, box)] for box in basis.boxes]


def _product(factors, packing):
    """(key, exponents, mark) for every product of the factors' monomials,
    the exponents in the order of the factors' variables; the factors'
    variables are disjoint, so their marks add."""
    N, w, high, each = packing
    carry, shift = high - each, w - 1
    out = factors[0][1] if factors else [(0, (), 0)]
    for _, entries in factors[1:]:  # _canonical of each sum, inlined
        out = [
            ((s := k + k2) - (((s + carry) & high) >> shift) * N, e + e2, f + f2)
            for k, e, f in out
            for k2, e2, f2 in entries
        ]
    return out


def _walk(ctx, cache):
    """The walk's packing, its Fermat atoms' factors {v: factor} and the other
    variables' keys {v: key of x_v}, derived once per walk: x_v^a, a one-variable
    block of w with a >= 2 (a the only entry of column v), as one factor with
    exponents -1..a-2, its dual marker, then its basis."""
    if "walk" not in cache:
        N = ctx.line_denominator * (abs(ctx.family_step[1]) or 1)
        packing = _packing(N, len(ctx.line_moduli) + 1)
        powers = [(v, max(row[v - 1] for row in ctx.poly.matrix)) for v, *rest in ctx.blocks if not rest]
        atoms = {v: _factor(ctx, (v,), [(e,) for e in _limited(ctx, v, range(-1, a - 1))], packing)
                 for v, a in powers if a >= 2}
        *congruences, _, u_weights = ctx.line_weights
        columns = list(enumerate(zip([u_weights, *congruences], (N, *ctx.line_moduli))))
        units = {v: sum(ws[v] * (N // q) % N << i * packing[1] for i, (ws, q) in columns)
                 for v in range(1, ctx.n + 2) if v not in atoms}
        cache["walk"] = packing, atoms, units
    return cache["walk"]


def restrictions(ctx, classes, window, boxes=False):
    """Solve the (mask, count) classes, bit j of a mask for x_j, by one join
    per set of fixed variables outside the Fermat atoms, in order of its first
    class, each yielding (group, lines) as solve_restriction.  Atoms, bases,
    keys and the larger sides' indexes are shared by all joins of a walk."""
    cache, groups = {}, {}
    drop = sum(1 << v for v in _walk(ctx, cache)[1]) | 1
    for mask, count in classes:
        groups.setdefault(mask & ~drop, []).append((mask, count))
    for fixed, group in groups.items():
        fixed_vars = tuple(v for v in range(1, ctx.n + 2) if fixed >> v & 1)
        yield solve_restriction(ctx, fixed_vars, group, window, cache, boxes)


def _decode(ctx, variables, exps):
    """(c0, u0, rest) for the exponents on the variables, -1 on the others."""
    rest = [-1] * (ctx.n + 1)
    for v, e in zip(variables, exps):
        rest[v - 1] = e
    c, u = (sum(map(mul, rest, w[1:])) // ctx.line_denominator for w in ctx.line_weights[-2:])
    return c, u, tuple(rest)


def solve_restriction(ctx, fixed_vars, group, window, cache, boxes=False):
    """(group, lines) for the group of (mask, count) classes whose fixed
    variables outside the Fermat atoms are fixed_vars, or with boxes (group,
    runs).

    lines are (c0, u0, rest, rows) for the lines that hit the window.  rest
    holds the exponents of x_1..x_{n+1}: the line's basis monomial on its
    fixed set S and the dual marker -1 on the others; (c0, u0) is the point
    that line_columns((0,) + rest) gives over L.  rows are the (mask,
    count, kind) it hits: kinds A and B of the class S + {x0}, C of S.  With
    boxes, components that are atoms take their Kreuzer-Krawitz boxes (see
    _component), and each row a line hits gives the run (degree, c, points,
    count) of its points in the window from the lowest degree, as tables
    keep them.  An infinite ring raises NotIsolated, named after the first
    class's restriction.

    A line has a point of weight u exactly when its congruences hold and
    u0 = u mod du; in the columns of line_columns, each congruence column
    vanishes mod its d_j and the u column U = u*L mod N = L*|du| (L when
    du == 0).  Each d_j divides L, so a key is one int of w-bit fields,
    w = N.bit_length() + 1: U mod N in the lowest, congruence j times N/d_j
    mod N in field j.  A field of a sum s of two keys is below 2N < 2^w, and
    adding 2^(w-1) - N to it sets its top bit exactly when it is >= N with
    no carry into the next field; so s less N times those top bits, shifted
    to the bottom of their fields, is the key of the sum (_canonical).

    The larger side's products are indexed by their keys with U mod L for
    U, each bucket sorted by m = U // L.  A product of the smaller side
    meets the bucket of its wanted key, the negation of its key plus the
    dual markers', in which m gives weights m - U // L mod |du|, U the
    wanted key's; the kinds want one arc of weights, as wide as the window
    and their degree offsets, so it finds one or two ranges of m, or the
    whole bucket once the arc covers |du| weights.  A found entry's mark
    holds its fixed set S, whose rows of S + {x0} and S are built at its
    first entry, and above it J = L*(du*c - dc*u), linear in the exponents
    and the same at every point of the line (line_invariant).  With du != 0
    a row's points are the weights u = base + m mod |du| in its [lo, hi]
    whose c = (J + L*dc*u) / (L*du) its kind allows.  Else the line is
    decoded; with du == 0 t_range raises for a family that stays inside.
    """
    dmin, dmax = window
    n = ctx.n
    L = ctx.line_denominator
    dc, du = step = ctx.family_step
    packing, atoms, units = _walk(ctx, cache)
    N, w, high, each = packing
    M, low, top = N // L, (1 << w) - 1, n + 2
    carry, fixed_bits, E, D = high - each, (1 << top) - 1, L * dc, L * du
    # a closed set meets an atom in a tail, all of it or none, so its part is connected
    parts = (component_variables(restrict(ctx.poly, fixed_vars)) if ctx.walks is None
             else sorted(part for block in ctx.blocks if (part := tuple(v for v in block if v in fixed_vars))))
    comps, infinite = [], False
    for variables in parts:
        if variables not in cache:
            cache[variables] = _component(ctx, variables, packing, cache, boxes)
        if cache[variables] is None:
            infinite = True  # and so is the ring, unless another one is 0
        else:
            comps.append(cache[variables])
    if infinite and all(comps):
        raise not_isolated(tuple(v for v in range(1, n + 2) if group[0][0] >> v & 1))
    # the negated dual markers' key and J on the unfixed variables; a Fermat atom's factor holds its own
    duals, dual_j = 0, 0
    for v in units.keys() - fixed_vars:
        duals, dual_j = _canonical(duals + units[v], packing), dual_j - ctx.line_invariant[v]
    # a kind of degree offset off wants u in [lo, hi] = spans[off]; a class
    # fixes k0..k0 + |atoms| variables, so off is n - k0 - |atoms| + 1..n - k0 + 2
    offsets = range(n - len(fixed_vars) - len(atoms) + 1, n - len(fixed_vars) + 3)
    spans = {off: (_ceil_div(dmin - off, 2), (dmax - off) // 2) for off in offsets}
    wanted = [(lo, hi) for lo, hi in spans.values() if lo <= hi]
    if not wanted:
        return group, []
    start = min(lo for lo, _ in wanted)
    width = max(hi for _, hi in wanted) + 1 - start
    counts = dict(group)
    rows = {}  # per mask of fixed x_1..x_{n+1}, (lo, hi, row) for its rows of kinds A, B, then C
    out = []
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
            for k, exps, mark in _product(larger, packing):
                u = k & low
                index.setdefault(k - u + u % L, []).append((u // L, exps, mark))
            for key, bucket in index.items():
                bucket.sort()
                index[key] = [m for m, _, _ in bucket], bucket
        index = cache[name]
        variables = [v for f in smaller + larger for v in f[0]]
        for k, exps, mark in _product(smaller, packing):
            key = (key := duals + each - k) - (((key + carry) & high) >> (w - 1)) * N  # _canonical, inlined
            u = key & low
            ms, found = index.get(key - u + u % L, ((), ()))
            base = -(u // L)  # an entry's line has weights base + m mod M
            if width < M:
                # the arc [m0, m0 + width) mod M
                m0 = (start - base) % M
                a, b, c = bisect_left(ms, m0), bisect_left(ms, m0 + width), bisect_left(ms, m0 + width - M)
                found = found[a:b] + found[:c]
            for m, exps2, mark2 in found:
                mark2 += mark
                r, s = base + m, mark2 & fixed_bits
                if s not in rows:  # built at the first entry of its fixed set
                    rows[s] = [(*spans[kind[3]], (fixed, counts[fixed], kind))
                               for fixed in (s | 1, s) if fixed in counts
                               for kind in kinds(n, s.bit_count(), fixed & 1)]
                if boxes and du:
                    J = (mark2 >> top) + dual_j
                    for lo, hi, (_, count, (_, cmin, cmax, off, _)) in rows[s]:
                        # c >= cmin bounds u below when du > 0 and above when
                        # du < 0; kind C's c = cmin = cmax bounds it on both sides
                        x = cmin * D - J
                        if (du > 0 or cmax is not None) and lo * E < x:
                            lo = -(-x // E)
                        if (du < 0 or cmax is not None) and hi * E > x:
                            hi = x // E
                        u = lo + (r - lo) % M
                        if u <= hi:  # a run from the lowest degree
                            out.append((2 * u + off, (J + E * u) // D, (hi - u) // M + 1, count))
                    continue
                hits = [row for lo, hi, row in rows[s] if (r - lo) % M <= hi - lo]
                if hits:
                    c0, u0, rest = _decode(ctx, variables, exps + exps2)
                    if not boxes:
                        out.append((c0, u0, rest, hits))
                    else:  # du == 0: a row has at most the point t_range finds
                        out += [(2 * u0 + kind[3], c0 + t * dc, 1, count) for _, count, kind in hits
                                for t in t_range(c0, u0, step, kind, window)]
    return group, out
