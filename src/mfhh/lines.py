"""The family lines of the restrictions of w that reach a degree window.

For a basis monomial p of the Jacobian ring of a restriction, with dual
markers on the unfixed variables, the solutions (c, u) of
(c, p) - u*(1,..,1) in the relation lattice form one line with the
context-wide step (dc, du); engine reads kinds A, B and C off it.

A class's fixed set S meets each block B of A in a closed set S_B
(SymmetryContext.closed_sets), so these monomials are the products over the
blocks of their pairs (S_B, basis monomial of w on S_B, -1 on the rest of
B).  Each block gives its pairs as alternatives, lists of factors (_blocks):
a Fermat atom x_v^a, a one-variable block with a >= 2, one factor of
exponents -1..a-2; a loop its Kreuzer-Krawitz box and the all-dual entry,
and a chain its boxes over all its closed tails (_chain), read off its walk
in SymmetryContext.walks; a block of a matrix with no atom matching, per
S_B, its components' bases as milnor_number takes them, an atom's boxes or
else a staircase (_closed_bases).  Each component of S's restriction lies in
one block, so S's ring is infinite exactly when some S_B's is and none is 0;
if du != 0 that class is the first error, which the join returns before
joining.  A factor of one variable is a slice of its factor of exponents
-1..a-1 (_ranges).  A table or a listing is one join over the alternatives.

Cost model.  A line's key, the residues of its congruence columns and of
its u column modulo L*|du| (c column modulo L*dc when du == 0;
SymmetryContext.line_columns), is linear in the exponents, so it is the
sum of its factors' keys: one int, a field per column, summed with one
add, mask, shift and multiply (join).  For each product of alternatives
the join indexes the product keys of its larger side and probes them
with each product of the smaller side for the entries whose weights lie
in the window: about |smaller side| * log + |larger side| + |lines found|
whatever the window's length, and for a sum of n Fermat atoms about
sqrt(|det A|) products a side, not 2^n.  Factors and bases are made once
per join, an index once per product of alternatives, and dropped after
it: few products share a larger side, and none larger than FACTOR_LIMIT is
built.  A found entry's mark holds its fixed set, whose rows are built when
an entry first has it (and counted then: SymmetryContext.fixed_counts, no
census), and above it the line invariant J.
Each hit's run is read off J and the entry's residue, so tables and
listings alike cost O(hits), with no line decoded; a listing builds its
monomials from the runs' exponents alone, renaming box monomials (engine).
"""

from __future__ import annotations

from bisect import bisect_left
from itertools import chain, product
from operator import mul

# monomial_basis is called through its module, so a wrapper installed on
# jacobian.monomial_basis, such as perfbench's tracer, sees each call
from . import jacobian
from .errors import EngineError, NonterminatingFamily, NotIsolated
from .jacobian import atom_of, component_variables, restrict


FACTOR_LIMIT = 1 << 21  # entries of a factor or a join side: x^99999999's factor took minutes


def _ceil_div(a, b):
    return -((-a) // b)


def kinds(n, k, x0_fixed):
    """(kind, lowest c, highest c, degree offset, beta - c) per kind of a
    class with k fixed variables among x_1..x_{n+1}; see engine."""
    if x0_fixed:
        return (("A", 0, None, n - k + 1, 0), ("B", -1, None, n - k + 2, 1))
    return (("C", -1, -1, n - k + 2, None),)


def _packing(N, fields):
    """(N, field width, top bits, N in each field); see join."""
    w = N.bit_length() + 1
    return N, w, sum(1 << (i * w + w - 1) for i in range(fields)), sum(N << i * w for i in range(fields))


def _factor(ctx, variables, monomials, packing):
    """(variables, [(key, monomial, mark)]) for monomials over the variables,
    a mark holding bit v for each x_v of exponent >= 0 and, from bit n + 2
    up, the monomial's part of J (line_invariant); see join."""
    N, w = packing[:2]
    # these variables' weights, a column at a time: u (c when du == 0, as
    # then every point of a line has one weight), then each congruence
    # scaled by N / d_j
    *congruences, c_weights, u_weights = ctx.line_weights
    moving = u_weights if ctx.family_step[1] else c_weights
    keys = marks = [0] * len(monomials)
    for i, (weights, q) in enumerate(zip([moving, *congruences], (N, *ctx.line_moduli))):
        weights, off = [weights[v] * (N // q) for v in variables], i * w
        if len(variables) == 1:  # one variable's exponents: no dot product
            wv = weights[0]
            keys = [k + (m[0] * wv % N << off) for k, m in zip(keys, monomials)]
        else:
            keys = [k + (sum(map(mul, m, weights)) % N << off) for k, m in zip(keys, monomials)]
    for j, v in enumerate(variables):
        J = ctx.line_invariant[v] << ctx.n + 2
        marks = [f + m[j] * J + ((m[j] >= 0) << v) for f, m in zip(marks, monomials)]
    return variables, list(zip(keys, monomials, marks))


def _ranges(ctx, variables, box, packing, cache):
    """One factor per variable range of a box: a slice of the variable's factor of exponents
    -1..a-1, a the largest exponent of x_v, which cache keeps per variable for the join."""
    out = []
    for v, exps in zip(variables, box):
        if v not in cache:
            a = max(row[v - 1] for row in ctx.poly.matrix)
            if a > FACTOR_LIMIT:
                raise EngineError(f"x{v}^{a} needs a factor of {a} exponents, more than 2^21")
            cache[v] = _factor(ctx, (v,), [(e,) for e in range(-1, a)], packing)[1]
        out.append(((v,), cache[v][exps.start + 1:exps.stop + 1]))
    return out


def _chain(ctx, walk, closed, packing, cache):
    """A chain's alternatives over all its closed tails: the boxes of the whole chain and of its tail
    from its second variable, each with its leading pins as one head factor that also holds them with
    the first j = 2, 4, .. of them dual, the boxes of the tail j further on."""
    order = [v + 1 for v, _ in walk]
    tails = {r for r in range(len(order) + 1) if sum(1 << v for v in order[r:]) in closed}
    out = []
    for r0 in (0, 1):
        # positional: perfbench's tracer reads a second argument as the order
        basis = jacobian.monomial_basis(restrict(ctx.poly, order[r0:]), (walk[r0:], False))
        for box in basis.boxes:  # in walk order
            # the f pins it leads with: its range at even f first misses a_f - 1 (see jacobian.atom_boxes)
            f = next((i for i in range(0, len(box), 2) if walk[r0 + i][1] - 1 not in box[i]), len(box))
            pins = tuple(e.start for e in box[:f])
            heads = [(-1,) * (r0 + j) + pins[j:] for j in range(0, f + 1, 2) if r0 + j in tails]
            if heads:
                head = [_factor(ctx, order[:r0 + f], heads, packing)] if r0 + f else []
                out.append(head + _ranges(ctx, order[r0 + f:], box[f:], packing, cache))
    return out


def _closed_bases(ctx, variables, closed, packing, cache, rings):
    """Per closed set of a block with no walk, -1 on the rest of the block times its components' bases
    as milnor_number takes them (boxes, else a staircase); rings gets each whose ring is 0 (0) or infinite (None)."""
    out = []
    for mask in closed:
        dual = [v for v in variables if not mask >> v & 1]
        parts = [[[_factor(ctx, dual, [(-1,) * len(dual)], packing)]]]  # the empty product when S_B is B
        for fixed in component_variables(restrict(ctx.poly, [v for v in variables if mask >> v & 1])):
            if atom := atom_of(c := restrict(ctx.poly, fixed)):
                parts.append([_ranges(ctx, [v + 1 for v, _ in atom[0]], box, packing, cache)
                              for box in jacobian.atom_boxes(atom)])
                continue
            try:
                basis = jacobian.monomial_basis(c)
            except NotIsolated:
                rings.setdefault(mask, None)  # unless another component's ring is 0
                continue
            if not basis.dimension:
                rings[mask] = 0
            parts.append([[_factor(ctx, fixed, basis.monomials, packing)]])
        if mask not in rings:
            out += [list(chain(*alternative)) for alternative in product(*parts)]
    return out


def _blocks(ctx, packing, cache, rings):
    """Per block of A, the mask of its variables and its alternatives (see the module docstring).
    Only a chain's boxes and the staircases call monomial_basis; cache holds the one-variable
    factors (_ranges), and rings the closed sets whose ring is 0 or infinite (_closed_bases)."""
    walks = ctx.walks or [((), False)] * len(ctx.closed_sets)
    for (walk, loop), (full, closed) in zip(walks, ctx.closed_sets):
        v = full.bit_length() - 1
        if full == 1 << v and (a := max(row[v - 1] for row in ctx.poly.matrix)) >= 2:
            # a Fermat atom: its dual marker, then its basis
            yield full, [_ranges(ctx, (v,), (range(-1, a - 1),), packing, cache)]
            continue
        variables = tuple(v for v in range(1, ctx.n + 2) if full >> v & 1)
        if not walk:  # a matrix with no atom matching
            yield full, _closed_bases(ctx, variables, closed, packing, cache, rings)
        elif loop:  # closed sets: all of it, and none of it unless the group of the loop is trivial
            box, = jacobian.atom_boxes((walk, True))
            duals = [[_factor(ctx, variables, [(-1,) * len(variables)], packing)]] if 0 in closed else []
            yield full, [_ranges(ctx, [v + 1 for v, _ in walk], box, packing, cache)] + duals
        else:
            yield full, _chain(ctx, walk, closed, packing, cache)


def _product(factors, packing):
    """(key, exponents, mark) for every product of the factors' monomials,
    the exponents in the order of the factors' variables; the factors'
    variables are disjoint, so their marks add."""
    N, w, high, each = packing
    carry, shift = high - each, w - 1
    out = factors[0][1] if factors else [(0, (), 0)]
    for _, entries in factors[1:]:  # each sum's fields reduced mod N, as in join
        out = [
            ((s := k + k2) - (((s + carry) & high) >> shift) * N, e + e2, f + f2)
            for k, e, f in out
            for k2, e2, f2 in entries
        ]
    return out


def join(ctx, window):
    """(found, errors) for the classes of the fixed sets the join finds,
    each counted by ctx.fixed_counts, bit j of a mask for x_j.

    found holds a run (degree, c, points, count, row, variables, exps,
    exps2) per row that a found line hits: its points in the window from
    the lowest degree, 2*|du| apart in degree; row is (mask, count, kind),
    kinds A and B of S + {x0} and C of S, S the line's fixed set; exps +
    exps2, on the variables, are a basis monomial on S and -1 off it: a
    Kreuzer-Krawitz box monomial on an atom's part of S, a grevlex standard
    monomial on a component with no atom matching.  errors maps to
    NotIsolated each class with a block part whose ring is infinite and none
    whose ring is 0 (only a block with no atom matching has such a part, and
    only then does the census list the classes) and, when du == 0, to
    NonterminatingFamily each class with a family of kind A or B in the
    window (found is [] if du != 0 and errors is not); each caller raises
    the first in its own class order (first_error).

    A line has a point of weight u exactly when its congruences hold and
    u0 = u mod du; in the columns of line_columns, each congruence column
    vanishes mod its d_j and the u column U = u*L mod N = L*|du|.  When
    du == 0, every point of a line has one weight, and the c column takes
    the u column's place, with N = L*dc.  Each d_j divides L, so a key is
    one int of w-bit fields, w = N.bit_length() + 1: U mod N in the lowest,
    congruence j times N/d_j mod N in field j.  A field of a sum s of two
    keys is below 2N < 2^w, and adding 2^(w-1) - N to it sets its top bit
    exactly when it is >= N with no carry into the next field; so s less N
    times those top bits, shifted to the bottom of their fields, is the key
    of the sum, each field reduced mod N.

    The larger side's products are indexed by their keys with U mod L for
    U, each bucket sorted by m = U // L.  A product of the smaller side
    meets the bucket of its key's negation, where m gives the weights
    m - U // L mod |du|, U the negation's; the kinds want one arc of
    weights: one or two ranges of m, or the whole bucket.  Above its fixed
    set an entry's mark holds J = L*(du*c - dc*u), the same at every point
    of the line (line_invariant), so a row's points are the weights
    u = base + m mod |du| in its [lo, hi] whose c = (J + L*dc*u) / (L*du)
    its kind allows.  When du == 0 the line's one weight is -J / (L*dc) and
    base + m is c mod dc: kind C has its point when that is -1's residue.
    """
    dmin, dmax = window
    n, L = ctx.n, ctx.line_denominator
    dc, du = ctx.family_step
    packing = _packing(L * (abs(du) or dc), len(ctx.line_moduli) + 1)
    N, w, high, each = packing
    M, low, top = N // L, (1 << w) - 1, n + 2
    carry, fixed_bits, E, D = high - each, (1 << top) - 1, L * dc, L * du
    rings, errors = {}, {}
    blocks = list(_blocks(ctx, packing, {}, rings))
    # a class's ring is infinite when a block part's is and none is 0 (jacobian's Components)
    for mask, _ in ctx.classes if None in rings.values() else ():
        parts = [rings.get(mask & full, 1) for full, _ in blocks]
        if None in parts and 0 not in parts:
            errors[mask] = NotIsolated
    if du and errors:  # no family stays in the window, so these come first: no run is read
        return [], errors
    # a kind of degree offset off wants u in [lo, hi] = spans[off]; a class
    # fixing k of x_1..x_{n+1} has the offsets n - k + 1 and n - k + 2
    spans = {off: (_ceil_div(dmin - off, 2), (dmax - off) // 2) for off in range(n + 3)}
    wanted = [(lo, hi) for lo, hi in spans.values() if lo <= hi]
    start = min(lo for lo, _ in wanted)
    width = max(hi for _, hi in wanted) + 1 - start
    rows = {}  # per mask of fixed x_1..x_{n+1}, (lo, hi, cmin, cmax, off, count, row) per row: A, B, C
    out = []
    for alternative in product(*(alternatives for _, alternatives in blocks)):
        sides = ([], [])  # the larger side, then the smaller
        costs = [1, 2]  # a probe costs about two entries of the index
        for f in sorted(chain(*alternative), key=lambda f: -len(f[1])):
            side = costs[1] < costs[0]
            sides[side].insert(0, f)  # ascending: products grow from the smallest
            costs[side] *= len(f[1])
        if costs[0] > FACTOR_LIMIT:
            raise EngineError(f"a side of the join would hold {costs[0]} products, more than 2^21")
        larger, smaller = sides
        index = {}
        for k, exps, mark in _product(larger, packing):
            u = k & low
            index.setdefault(k - u + u % L, []).append((u // L, exps, mark))
        for key, bucket in index.items():
            bucket.sort()
            index[key] = [m for m, _, _ in bucket], bucket
        variables = [v for f in smaller + larger for v in f[0]]
        for k, exps, mark in _product(smaller, packing):
            key = (key := each - k) - (((key + carry) & high) >> (w - 1)) * N  # fields of -k mod N
            u = key & low
            ms, found = index.get(key - u + u % L, ((), ()))
            base = -(u // L)  # an entry's line has weights base + m mod M
            if du and width < M:  # with du == 0, m is a residue of c, which the window leaves free
                # the arc [m0, m0 + width) mod M
                m0 = (start - base) % M
                a, b, c = bisect_left(ms, m0), bisect_left(ms, m0 + width), bisect_left(ms, m0 + width - M)
                found = found[a:b] + found[:c]
            for m, exps2, mark2 in found:
                mark2 += mark
                r, s = base + m, mark2 & fixed_bits
                if s not in rows:  # built at the first entry of its fixed set
                    rows[s] = [(*spans[kind[3]], *kind[1:4], size, (fixed, size, kind))
                               for fixed, size in zip((s | 1, s), ctx.fixed_counts(s)) if size
                               for kind in kinds(n, s.bit_count(), fixed & 1)]
                J = mark2 >> top
                for lo, hi, cmin, cmax, off, count, row in rows[s]:
                    x = cmin * D - J
                    if not du:  # every point has the weight x / E, and c = r mod dc
                        if lo * E <= x <= hi * E:
                            if cmax is None:  # kinds A and B: c runs up for ever
                                errors.setdefault(row[0], NonterminatingFamily)
                            elif (r - cmin) % M == 0:
                                out.append((2 * (x // E) + off, cmin, 1, count, row, variables, exps, exps2))
                        continue
                    # c >= cmin bounds u below when du > 0 and above when
                    # du < 0; kind C's c = cmin = cmax bounds it on both sides
                    if (du > 0 or cmax is not None) and lo * E < x:
                        lo = -(-x // E)
                    if (du < 0 or cmax is not None) and hi * E > x:
                        hi = x // E
                    u = lo + (r - lo) % M
                    if u <= hi:  # a run from the lowest degree
                        out.append((2 * u + off, (J + E * u) // D, (hi - u) // M + 1, count, row,
                                    variables, exps, exps2))
    return out, errors


def first_error(ctx, errors, order):
    """The error of the first class by order among the failing classes of join's errors."""
    mask = min(errors, key=order)
    if errors[mask] is NotIsolated:
        return jacobian.not_isolated(tuple(v for v in range(1, ctx.n + 2) if mask >> v & 1))
    return NonterminatingFamily("a monomial family never leaves the degree window (d0 = 0)")
