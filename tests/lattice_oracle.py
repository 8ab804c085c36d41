"""Test-only lattice routines: membership, Diophantine solving, finite
quotient groups, family lines, the character power of a vector and the
fixed-set census by masks, and weight systems by Cramer's rule.

Nothing in the package calls these.  `member` goes through echelon
reduction, with no Smith form, so it checks the package's Smith-based
solvers independently; `quotient` enumerates ker(chi) by the dual route;
`family_line` solves one vector's family line from a SymmetryContext's
line columns, and `chi_power` reads u off that line; `smith_lines` builds
that line data from one Smith form of [A; 1] for any matrix, where the
package reads cyclic factors of Z^(n+1)/rowspace(A) off the atom walks or
off a Smith form of A.  `census_by_masks`
takes one Smith form per subset of x_0..x_{n+1}, with no blocks or closure.
`cramer_weights` takes n + 1 Bareiss determinants where `poly.weights`
makes one elimination.  `probe_restriction` solves a restriction by a
wanted-key probe join, where `lines.join` runs a range join over the blocks:
one key per row and residue of u, each probed per smaller-side key.
Its keys are tuples of residues, one per line column, added componentwise,
so it shares no key arithmetic with the packed-int keys of `lines`.
Matrices are sequences of rows of Python ints (row convention).
"""

from __future__ import annotations

import itertools
from dataclasses import dataclass
from fractions import Fraction
from itertools import chain, product
from math import gcd, lcm, prod
from operator import mul

from mfhh import jacobian, lattice
from mfhh.errors import NoPositiveSolution, NotIsolated
from mfhh.jacobian import BoxBasis, atom_of, component_variables, not_isolated, restrict
from mfhh.lattice import smith
from mfhh.lines import _ceil_div, kinds
from mfhh.poly import WeightSystem


def vec_mat(v, m):
    """Row vector times matrix."""
    cols = len(m[0]) if m else 0
    return [sum(v[i] * m[i][j] for i in range(len(m))) for j in range(cols)]


def mat_mul(a, b):
    if not a:
        return []
    cols = len(b[0]) if b else 0
    rng = range(len(b))
    return [[sum(row[k] * b[k][j] for k in rng) for j in range(cols)] for row in a]


def _xgcd(a, b):
    # s*a + t*b == g, g >= 0
    s, s1 = 1, 0
    t, t1 = 0, 1
    g, g1 = a, b
    while g1:
        q = g // g1
        s, s1 = s1, s - q * s1
        t, t1 = t1, t - q * t1
        g, g1 = g1, g - q * g1
    if g < 0:
        s, t, g = -s, -t, -g
    return g, s, t


def solve(m, b):
    """Solve x * M = b over the integers (row convention).

    Returns (x, basis) where basis spans {y : y * M = 0}, or None when there
    is no integer solution.
    """
    r = len(m)
    c = len(m[0]) if r else 0
    if len(b) != c:
        raise ValueError("solve needs b of the matrix width")
    sd = smith(m)
    diag = sd.diagonal
    cv = vec_mat(b, sd.v)
    z = [0] * r
    for j in range(c):
        dj = diag[j] if j < len(diag) else 0
        if dj:
            if cv[j] % dj:
                return None
            z[j] = cv[j] // dj
        elif cv[j]:
            return None
    x = vec_mat(z, sd.u) if r else []
    basis = [sd.u[i] for i in range(r) if i >= len(diag) or diag[i] == 0]
    return x, basis


def _echelon(rows):
    """Integer row echelon (Hermite-style) as {pivot column: row}."""
    pivots = {}
    width = len(rows[0]) if rows else 0
    for row in rows:
        vec = list(row)
        while True:
            j = next((k for k, x in enumerate(vec) if x), None)
            if j is None:
                break
            if j in pivots:
                piv = pivots[j]
                pa, pb = piv[j], vec[j]
                if pb % pa == 0:
                    q = pb // pa
                    for k in range(j, width):
                        vec[k] -= q * piv[k]
                else:
                    g, s, t = _xgcd(pa, pb)
                    new = [s * piv[k] + t * vec[k] for k in range(width)]
                    vec = [(pa // g) * vec[k] - (pb // g) * piv[k] for k in range(width)]
                    pivots[j] = new
            else:
                pivots[j] = vec
                break
    return pivots


def member(lattice_rows, v):
    """Is v in the integer row span?  Independent of solve(): this one goes
    through echelon reduction rather than a Smith decomposition."""
    rows = [list(r) for r in lattice_rows]
    if not rows:
        return not any(v)
    pivots = _echelon(rows)
    width = len(rows[0])
    vec = list(v)
    assert len(vec) == width
    for j in range(width):
        if vec[j]:
            piv = pivots.get(j)
            if piv is None or vec[j] % piv[j]:
                return False
            q = vec[j] // piv[j]
            for k in range(j, width):
                vec[k] -= q * piv[k]
    return True


@dataclass(frozen=True)
class FiniteQuotient:
    """Z^m modulo an integer row lattice: invariant factors, free rank and,
    for full-rank lattices, generators as rational vectors mod 1."""

    orders: tuple  # invariant factors > 1
    free_rank: int
    generators: tuple | None  # tuples of Fractions in [0,1); None if infinite

    @property
    def order(self):
        if self.free_rank:
            raise ValueError("infinite quotient")
        return prod(self.orders) if self.orders else 1

    def elements(self):
        """All elements as rational vectors mod 1, sorted lexicographically."""
        if self.free_rank:
            raise ValueError("infinite quotient")
        if not self.orders:
            dim = len(self.generators[0]) if self.generators else 0
            return [tuple([Fraction(0)] * dim)]
        dim = len(self.generators[0])
        out = []
        for cs in itertools.product(*[range(o) for o in self.orders]):
            phi = [Fraction(0)] * dim
            for ci, gen in zip(cs, self.generators):
                for k in range(dim):
                    phi[k] += ci * gen[k]
            out.append(tuple(x % 1 for x in phi))
        out.sort()
        return out


def quotient(lattice_rows, ambient_dim=None):
    """The quotient of Z^m by the row span.

    For a full-rank lattice the group elements are represented through the
    dual embedding v -> v * L^{-1} mod 1, which is faithful; otherwise only
    the torsion invariant factors and the free rank are reported.
    """
    rows = [list(r) for r in lattice_rows]
    if rows:
        m = len(rows[0])
    else:
        assert ambient_dim is not None
        m = ambient_dim
    sd = smith(rows) if rows else None
    diag = sd.diagonal if sd else ()
    rank = sum(1 for x in diag if x)
    free_rank = m - rank
    orders = tuple(x for x in diag if x > 1)
    if free_rank:
        return FiniteQuotient(orders, free_rank, None)
    if len(rows) != m:
        # reduce a redundant spanning set to a square basis first
        pivots = _echelon(rows)
        square = [pivots[j] for j in sorted(pivots)]
        sd = smith(square)
        diag = sd.diagonal
        orders = tuple(x for x in diag if x > 1)
    gens = tuple(
        tuple((Fraction(x, diag[i])) % 1 for x in sd.u[i])
        for i in range(len(diag))
        if diag[i] > 1
    )
    if not gens:
        gens = (tuple([Fraction(0)] * m),)
        return FiniteQuotient((), 0, gens)
    return FiniteQuotient(orders, 0, gens)


def family_line(ctx, base):
    """Solve  base + c*e0 - u*1  in R  for (c, u).

    Returns (c0, u0) on the solution line or None; the line's step is the
    context-wide family_step (dc, du) with dc > 0.
    """
    columns = ctx.line_columns(base)
    for s, dj in zip(columns, ctx.line_moduli):
        if s % dj:
            return None
    L = ctx.line_denominator
    return columns[-2] // L, columns[-1] // L


def chi_power(ctx, b):
    """The unique u with b - u*(1,..,1) in the relation lattice of the
    SymmetryContext ctx, or None.

    This is the c = 0 point of b's family line; it is unique because the
    family step has dc > 0.
    """
    line = family_line(ctx, b)
    if line is None:
        return None
    c0, u0 = line
    dc, du = ctx.family_step
    if c0 % dc:
        return None
    return u0 - (c0 // dc) * du


def smith_lines(p):
    """((dc, du), L, moduli, line invariant, congruence weights, c weights, u weights) of p's
    family lines off U [A; 1] V = D: b' = (b_1, .., b_{n+1}) has the solutions (y, s) = sum_j z_j
    U[j] with z_j = b'.V_j / d_j, and the row of U past the nonzero d_j solves b' = 0."""
    n1 = p.nvars
    sd = smith(list(p.matrix) + [(1,) * n1])
    diag = sd.diagonal
    (hom,) = [sd.u[i] for i in range(n1 + 1) if i >= len(diag) or diag[i] == 0]
    dc, du = (hom[-1], sum(hom)) if hom[-1] > 0 else (-hom[-1], -sum(hom))
    L = lcm(*diag)
    c, u = ([w0] + [sum(row[j] * (L // dj) * k(sd.u[j]) for j, dj in enumerate(diag)) for row in sd.v]
            for w0, k in ((-L, lambda r: r[-1]), (0, sum)))
    congruences = [(0, *(row[j] for row in sd.v)) for j, dj in enumerate(diag) if dj > 1]
    invariant = tuple(du * ci - dc * ui for ci, ui in zip(c, u))
    return (dc, du), L, tuple(dj for dj in diag if dj > 1), invariant, congruences, c, u


def census_by_masks(p):
    """How many elements of ker(chi) fix each subset of coordinates, from
    the invariant factors of A on the free columns of every one of the
    2^(n+2) subsets (a row of ones when x_0 is in it), then Moebius
    inversion over supersets.  Subsets fixed by no element are left out."""
    n2 = p.nvars + 1  # coordinates x_0..x_{n+1}, bit j of a mask is x_j
    size = 1 << n2
    counts = [0] * size
    for s in range(size):
        free = [j for j in range(1, n2) if not s >> j & 1]
        if not free:
            counts[s] = 1
            continue
        m = [[row[j - 1] for j in free] for row in p.matrix]
        if s & 1:
            m.append([1] * len(free))
        counts[s] = prod(smith(m).diagonal)
    # Moebius inversion over supersets: at least S -> exactly S
    for j in range(n2):
        bit = 1 << j
        for s in range(size):
            if not s & bit:
                counts[s] -= counts[s | bit]
    return {
        frozenset(j for j in range(n2) if s >> j & 1): c
        for s, c in enumerate(counts)
        if c
    }


def cramer_weights(p):
    """The primitive positive solution of A*d = h*(1,..,1), plus d0 = h - sum d.

    By Cramer's rule d_i / h = det(A_i) / det(A), where A_i is A with column
    i replaced by ones; so (d, h) = (det(A_1), .., det(A_n); det(A)), exact
    through lattice.det, divided by their gcd and signed so that h > 0.  A
    singular A gives h = 0 and so a NoPositiveSolution.
    """
    h = lattice.det(p.matrix)
    d = [lattice.det([[*row[:i], 1, *row[i + 1:]] for row in p.matrix]) for i in range(p.nvars)]
    g = gcd(h, *d) or 1
    if h < 0:
        g = -g
    d = [di // g for di in d]
    h //= g
    if h <= 0 or any(di <= 0 for di in d):
        raise NoPositiveSolution(f"weight system {tuple(d)};{h} is not positive")
    return WeightSystem(tuple(d), h, h - sum(d))


def _factor(ctx, variables, monomials, moduli):
    """(variables, [(key, monomial)]) for monomials over the variables, the
    key a tuple of the line columns' residues modulo moduli."""
    # the weights of these variables only, one column at a time; the c
    # column plays no part in a key
    *congruences, _, u_weights = ([w[v] for v in variables] for w in ctx.line_weights)
    keys = zip(*(
        [sum(map(mul, m, w)) % q for m in monomials]
        for w, q in zip(congruences + [u_weights], moduli)
    ))
    return variables, list(zip(keys, monomials))


def _component(ctx, variables, moduli, cache):
    """The basis of one component as alternatives whose union it is, each a
    list of factors whose product it is: one factor per variable range of
    each box of an atom's BoxBasis, else one factor holding the staircase.
    [] when the ring is 0, None when it is infinite."""
    r = restrict(ctx.poly, variables)
    try:
        basis = jacobian.monomial_basis(r, atom_of(r))
    except NotIsolated:
        return None
    if not isinstance(basis, BoxBasis):
        return [[_factor(ctx, variables, basis.monomials, moduli)]] if basis.monomials else []
    for box in basis.boxes:
        for v, exps in zip(basis.variables, box):
            # (variable, range) keys never meet the components' variable tuples
            if (v, exps) not in cache:
                cache[v, exps] = _factor(ctx, (v,), [(e,) for e in exps], moduli)
    return [[cache[v, exps] for v, exps in zip(basis.variables, box)] for box in basis.boxes]


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


def probe_restriction(ctx, fixed_vars, group, window, cache):
    """(rows, lines) of the classes of one restriction: a row (fixed, count,
    kind) per class and kind, and a line (c0, u0, exponents on x_1..x_{n+1},
    indices of its rows) per hit, by the wanted-key probe join, each
    component's basis taken as milnor_number takes it (_component): one
    wanted key per row and residue of u mod |du| among the
    window's weights, and each looked up, less a product key of the smaller
    side, in an index of the larger side's product keys."""
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
            cache[variables] = _component(ctx, variables, moduli, cache)
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
