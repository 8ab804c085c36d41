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
join of about sqrt(|det A|) products a side, not 2^n.  Classes come as
(mask, count) pairs.  A found entry's mask is its fixed set, whose rows are
built when an entry first has it, so a table pays per found fixed set, not
per class, and only an entry that a row wants is decoded, by its c and u
weights alone; t_range then finds its points in the window.
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


def _packing(N, fields):
    """(N, field width, top bits, N in each field); see solve_restriction."""
    w = N.bit_length() + 1
    return N, w, sum(1 << (i * w + w - 1) for i in range(fields)), sum(N << i * w for i in range(fields))


def _canonical(s, packing):
    """The key whose fields are those of s mod N, each field of s below 2N."""
    N, w, high, each = packing
    return s - (((s + high - each) & high) >> (w - 1)) * N


def _factor(ctx, variables, monomials, packing):
    """(variables, [(key, monomial, mask)]) for monomials over the variables,
    mask holding bit v for each x_v of exponent >= 0; see solve_restriction."""
    N, w = packing[:2]
    # these variables' weights, a column at a time: u, then each congruence
    # scaled by N / d_j; the c column plays no part in a key
    *congruences, _, u_weights = ctx.line_weights
    keys = masks = [0] * len(monomials)
    for i, (weights, q) in enumerate(zip([u_weights, *congruences], (N, *ctx.line_moduli))):
        weights, scale, off = [weights[v] for v in variables], N // q, i * w
        keys = [k + ((sum(map(mul, m, weights)) * scale % N) << off) for k, m in zip(keys, monomials)]
    for j, v in enumerate(variables):
        masks = [f | (m[j] >= 0) << v for f, m in zip(masks, monomials)]
    return variables, list(zip(keys, monomials, masks))


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
                cache[v, exps] = _factor(ctx, (v,), [(e,) for e in exps], packing)
    return [[cache[v, exps] for v, exps in zip(variables, box)] for box in basis.boxes]


def _product(factors, packing):
    """(key, exponents, mask) for every product of the factors' monomials,
    the exponents in the order of the factors' variables."""
    N, w, high, each = packing
    carry, shift = high - each, w - 1
    out = factors[0][1] if factors else [(0, (), 0)]
    for _, entries in factors[1:]:  # _canonical of each sum, inlined
        out = [
            ((s := k + k2) - (((s + carry) & high) >> shift) * N, e + e2, f | f2)
            for k, e, f in out
            for k2, e2, f2 in entries
        ]
    return out


def _walk(ctx, cache):
    """The walk's packing and its Fermat atoms' factors {v: factor}, derived
    once per walk: x_v^a, a one-variable block of w with a >= 2, as one
    factor with exponents -1..a-2, its dual marker, then its basis."""
    if "walk" not in cache:
        packing = _packing(ctx.line_denominator * (abs(ctx.family_step[1]) or 1), len(ctx.line_moduli) + 1)
        powers = [(b[0], restrict(ctx.poly, b).terms[0][0]) for b in ctx.blocks if len(b) == 1]
        atoms = {v: _factor(ctx, (v,), [(e,) for e in range(-1, a - 1)], packing) for v, a in powers if a >= 2}
        cache["walk"] = packing, atoms
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


def solve_restriction(ctx, fixed_vars, group, window, cache, boxes=False):
    """(group, lines) for the group of (mask, count) classes whose fixed
    variables outside the Fermat atoms are fixed_vars.

    lines are (c0, u0, rest, rows) for the lines that hit the window.  rest
    holds the exponents of x_1..x_{n+1}: the line's basis monomial on its
    fixed set S and the dual marker -1 on the others; (c0, u0) is the point
    that line_columns((0,) + rest) gives over L.  rows are the (mask,
    count, kind) it hits: kinds A and B of the class S + {x0}, C of S.  With
    boxes, components that are atoms take their Kreuzer-Krawitz boxes (see
    _component).  An infinite ring raises NotIsolated, named after the
    first class's restriction.

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
    whole bucket once the arc covers |du| weights.  A found entry's mask of
    exponents >= 0 is its fixed set S, whose rows of S + {x0} and S are built
    at its first entry: only those that want one of its weights decode it.
    With du == 0 every line whose congruences hold is found, so t_range raises.
    """
    dmin, dmax = window
    n = ctx.n
    L = ctx.line_denominator
    packing, atoms = _walk(ctx, cache)
    N, w, _, each = packing
    M, low = N // L, (1 << w) - 1
    comps, infinite = [], False
    for variables in component_variables(restrict(ctx.poly, fixed_vars)):
        if variables not in cache:
            cache[variables] = _component(ctx, variables, packing, cache, boxes)
        if cache[variables] is None:
            infinite = True  # and so is the ring, unless another one is 0
        else:
            comps.append(cache[variables])
    if infinite and all(comps):
        raise not_isolated(tuple(v for v in range(1, n + 2) if group[0][0] >> v & 1))
    # the key of the negated dual markers on the unfixed variables; a Fermat atom's factor holds its own
    negated = [0] + [int(v not in (*fixed_vars, *atoms)) for v in range(1, n + 2)]
    [(duals, _, _)] = _factor(ctx, range(n + 2), [negated], packing)[1]
    # a kind of degree offset off wants u in [lo, lo + span) = spans[off]; a class
    # fixes k0..k0 + |atoms| variables, so off is n - k0 - |atoms| + 1..n - k0 + 2
    offsets = range(n - len(fixed_vars) - len(atoms) + 1, n - len(fixed_vars) + 3)
    spans = {off: (lo := _ceil_div(dmin - off, 2), (dmax - off) // 2 + 1 - lo) for off in offsets}
    wanted = [(lo, span) for lo, span in spans.values() if span > 0]
    if not wanted:
        return group, []
    start = min(lo for lo, _ in wanted)
    width = max(lo + span for lo, span in wanted) - start
    counts = dict(group)
    c_weights, u_weights = (w[1:] for w in ctx.line_weights[-2:])  # a line decodes its c and u only
    rows = {}  # per mask of fixed x_1..x_{n+1}, (lo, span, row) for its rows of kinds A, B, then C
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
            for k, exps, mask in _product(larger, packing):
                u = k & low
                index.setdefault(k - u + u % L, []).append((u // L, exps, mask))
            for key, bucket in index.items():
                bucket.sort()
                index[key] = [m for m, _, _ in bucket], bucket
        index = cache[name]
        variables = [v for f in smaller + larger for v in f[0]]
        for k, exps, mask in _product(smaller, packing):
            key = _canonical(duals + each - k, packing)
            u = key & low
            ms, found = index.get(key - u + u % L, ((), ()))
            base = -(u // L)  # an entry's line has weights base + m mod M
            if width < M:
                # the arc [m0, m0 + width) mod M
                m0 = (start - base) % M
                cut = [bisect_left(ms, m) for m in (m0, m0 + width, m0 + width - M)]
                found = found[cut[0]:cut[1]] + found[:cut[2]]
            for m, exps2, mask2 in found:
                s = mask | mask2
                if s not in rows:  # built at the first entry of its fixed set
                    rows[s] = [(*spans[kind[3]], (fixed, counts[fixed], kind))
                               for fixed in (s | 1, s) if fixed in counts
                               for kind in kinds(n, s.bit_count(), fixed & 1)]
                hits = [row for lo, span, row in rows[s] if (base + m - lo) % M < span]
                if hits:
                    rest = [-1] * (n + 1)
                    for v, e in zip(variables, exps + exps2):
                        rest[v - 1] = e
                    c, u = sum(map(mul, rest, c_weights)), sum(map(mul, rest, u_weights))
                    lines.append((c // L, u // L, tuple(rest), hits))
    return group, lines
