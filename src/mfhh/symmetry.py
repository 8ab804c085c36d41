"""The diagonal symmetry group of an invertible polynomial.

For w with exponent matrix A, the extension Gamma of the torus acting on
(x_0, .., x_{n+1}) is cut out by the equations
prod_j t_j^{a_ij} = t_0 t_1 ... t_{n+1}.  Characters of Gamma are integer
exponent vectors in Z^{n+2} modulo the relation lattice R spanned by
r_i = (-1, a_i1 - 1, ..., a_i,n+1 - 1).  The kernel of the total character
chi = (1,..,1) is a finite abelian group of order |det A|, dual to
Z^{n+1}/rowspace(A) = + Z/h_j: its elements are phase vectors mod 1, sums of
multiples of chi_j / h_j, held as integer numerators over lcm(h).

b + c*e0 - u*1 is in R exactly when y*A + s*1 = (b_1, .., b_{n+1}) for an
integer y, s = b0 + c and u = sum(y) + s, so the family lines come from
Z^{n+1}/rowspace([A; 1]) = (+ Z/h_j)/<g>, g the image of 1.  The context
reads the factors (h_j, chi_j) once: one per atom off its walk, else one per
entry of A's Smith diagonal.  A 0 in h is a singular A, the one case of
DegenerateCharacter.

The table only needs how many elements fix each coordinate set, and that
census has a closed form that never lists an element.  An element is a
phase vector phi in (Q/Z)^{n+1} with A*phi = 0 mod 1; it fixes x_j (j >= 1)
when phi_j = 0 and x_0 when sum(phi) = 0 mod 1.  A is block diagonal, so
ker(chi) is the product of its blocks' groups G_B.  If h_B elements of G_B
fix at least S_B and m_B is the order of their phase sum (uniform on a
cyclic subgroup of Q/Z), at least S is fixed by prod h_B elements and at
least S + {x_0} by prod h_B / lcm(m_B).  A row whose only nonzero entry
outside S is a 1 forces that phase to 0 too, so Moebius inversion over
supersets leaves exact counts on the sets closed under that rule only.  In
a chain x_1^a_1 x_2 + .. + x_k^a_k, x_(r+1)..x_k is closed unless a_r = 1;
with x_1..x_r free, phi_1 has order h = a_1..a_r and phi_j is
(-1)^(j-1) a_1..a_(j-1) phi_1, so m = h / gcd(h, sum of those factors),
and a_r = 1 leaves h and m as at r - 1: the terms of that set cancel.  A
loop has none and all closed, h = prod a - (-1)^k.  A matrix that is no sum
of atoms walks each block's closed sets, each but the least the closure of
a smaller one and a variable (the rule is monotone), with Smith forms of A
on the free columns for h_B and, with a row of ones appended, h_B / m_B.
Folding the blocks' closed sets, S keeps the signed products c_L of its h_B
by the lcm L of their m_B: exact(S + {x_0}) = sum c_L / L and exact(S) =
sum c_L - exact(S + {x_0}).  Cost: about the output, equal sums multiplied
once and a block's full set (terms 1) not at all, no Smith form for a sum of
atoms, whose walks (a Fermat atom is a chain of one) give the blocks too.
A join takes no census: fixed_counts counts each fixed set it finds.
"""

from __future__ import annotations

import itertools
from fractions import Fraction
from functools import cache, cached_property
from math import gcd, lcm, prod
from operator import mul
from typing import NamedTuple

from . import lattice
from .errors import DegenerateCharacter, EngineError
from .jacobian import component_variables, restrict
from .poly import _factors, _weight_system, atom_walks


def _times(x, y):
    """x * y for sums of terms (L, c) held as frozensets: the terms (lcm(L, m), c * c2) per pair."""
    out = {}
    for (L, c), (m, c2) in itertools.product(x, y):
        k = lcm(L, m)
        out[k] = out.get(k, 0) + c * c2
    return frozenset((k, c) for k, c in out.items() if c)


def _split(terms):
    """(elements fixing exactly S + {x_0}, exactly S) from S's terms (L, c), equal L merged:
    1/L of the c elements counted with lcm L fix x_0, and c is a multiple of L."""
    x0 = sum(c // L for L, c in terms)
    return x0, sum(c for _, c in terms) - x0


_ONE = frozenset({(1, 1)})

CENSUS_LIMIT = 1 << 20  # fixed sets the census folds; a join reads it only to name an infinite class


def _group_lines(D, factors, q):
    """The line data of _factors' (D, factors, D q): (family_step (dc, du), line_denominator L,
    line_moduli, line_weights).  (y, s)*[A; 1] = b' has a solution iff b' maps to 0 in
    Z^{n+1}/rowspace([A; 1]) = (+ Z/h)/<g> = prod Z/d_j, and over L = lcm(d) s and u are then one
    integer dot product each per coordinate, exact once the congruences hold.  All of it is linear
    in b: line_weights holds, per modulus d_j > 1 in line_moduli, the x_v's images in Z/d_j (0 on
    b0), then the c weights (L s, -L on b0) and u weights (L u, 0 on b0); line_columns takes their
    dot products, and the columns of a sum are the sums of columns.  Factors of coprime orders merge
    by CRT, groups whose g is a unit drop out, and only two or more left take a Smith form, of
    [diag(h); g]."""
    groups = []
    for h, chi in factors:
        i = next((i for i, (h1, _) in enumerate(groups) if gcd(h1, h) == 1), len(groups))
        h1, chi1 = groups[i] if i < len(groups) else (1, chi)  # a new group, if none is coprime
        # Z/h1 + Z/h is Z/(h1 h) by (x1, x) -> x1 h + x h1, as h is a unit mod h1 and h1 mod h
        groups[i:i + 1] = [(h1 * h, [(x1 * h + x * h1) % (h1 * h) for x1, x in zip(chi1, chi)])]
    gs = [sum(chi) % h for h, chi in groups]
    # a unit g0 of h0: rows h0 e0 and g turn into e0 + b g' and h0 g' (b g0 = 1 mod h0), so the
    # rest takes x' = x - b g' x0 and g' h0, s = b x0 + h0 s' gathers as S.b' + m s', dc as m dc'
    S, m = [0] * len(q), 1
    while len(groups) > 1 and 1 in (units := [gcd(h, g) for (h, _), g in zip(groups, gs)]):
        h0, chi0 = groups.pop(i := units.index(1))
        b = pow(gs.pop(i), -1, h0)
        S = [s + m * b * c for s, c in zip(S, chi0)]
        groups = [(h, [(c - b * g * c0) % h for c, c0 in zip(chi, chi0)]) for (h, chi), g in zip(groups, gs)]
        gs, m = [h0 * g % h for (h, _), g in zip(groups, gs)], m * h0
    if len(groups) == 1:  # U = [[., 1 / (g/d) mod h/d], [-g/d, h/d]] takes [h; g] to [d; 0]
        d = gcd(h := groups[0][0], g := gs[0])
        diag, vs, last, dc = (d,), ((1,),), (pow(g // d, -1, h // d),), m * h // d
    else:
        sd = lattice.smith([[h * (i == j) for j in range(len(gs))] for i, (h, _) in enumerate(groups)] + [gs])
        diag, vs, last, dc = sd.diagonal, sd.v, [row[-1] for row in sd.u], m * abs(sd.u[-1][-1])
    images = [[sum(map(mul, x, col)) for col in zip(*vs)] for x in zip(*(chi for _, chi in groups))]
    L, T = lcm(*diag), sum(q)
    last = [L // dj * t for dj, t in zip(diag, last)]  # L s' at b' = e_v is its image . last
    s_weights = [(L * s0 + m * sum(map(mul, x, last))) % (L * dc) for s0, x in zip(S, images)]
    u_weights = [(L * qv + s * (D - T)) // D for qv, s in zip(q, s_weights)]  # u = b'.q + s (1 - sum q)
    congruences = [(0, *col) for col, dj in zip(zip(*images), diag) if dj > 1]
    return ((dc, dc * (D - T) // D), L, tuple(dj for dj in diag if dj > 1),
            (*congruences, (-L, *s_weights), (0, *u_weights)))


class GroupElement(NamedTuple):
    """An element of ker(chi): phases of t_1..t_{n+1} as fractions in [0,1).

    t_0 is determined (the negated phase sum), and `fixed` holds the indices
    in {0,..,n+1} of the coordinates the element leaves fixed.
    """

    phases: tuple
    fixed: frozenset = None

    @staticmethod
    def from_phases(phases):
        phases = tuple(x % 1 for x in phases)
        fixed = {j + 1 for j, x in enumerate(phases) if x == 0}
        if sum(phases) % 1 == 0:
            fixed.add(0)
        return GroupElement(phases, frozenset(fixed))


class SymmetryContext:
    """Precomputed lattice data for one polynomial; immutable after build."""

    def __init__(self, p):
        self.poly = p
        self.n = p.nvars - 1  # the variables are x_1..x_{n+1}
        # the atoms of A, the one matching that the context's users read, or None for a matrix with none
        self.walks = atom_walks(p.matrix)
        self._group = _factors(p.matrix, self.walks)
        if self._group is None:  # a singular atom, or a singular A
            raise DegenerateCharacter("the total character has finite order modulo the relations")
        self.ker_chi_order = prod(h for h, _ in self._group[1])  # |ker chi| = |det A|
        self.family_step, self.line_denominator, self.line_moduli, self.line_weights = _group_lines(*self._group)
        dc, du = self.family_step
        # per coordinate, L times du*c - dc*u: the invariant that every point of a line shares
        self.line_invariant = tuple(du * c - dc * u for c, u in zip(*self.line_weights[-2:]))
        self._ker = None
        self._census = None

    def weights(self):
        """p.weights() off the context's factors, raising only when called: a table needs none."""
        return _weight_system(self._group)

    # -- ker chi -----------------------------------------------------------

    def _iter_ker(self):
        """(N, the elements' phase numerators over N = lcm(h)): sum_j c_j chi_j mod N for each c_j
        in N / h_j * range(h_j), as chi_j / h_j generates factor j's part, built a factor at a time."""
        N, factors, _ = self._group
        nums = [(0,) * self.poly.nvars]
        for h, chi in factors:
            nums = [tuple((x + c * y) % N for x, y in zip(e, chi)) for e in nums for c in range(0, N, N // h)]
        return N, nums

    def ker_chi(self):
        """All solutions of A * phases = 0 mod 1, sorted lexicographically as their numerators
        over N: x_j is fixed when its numerator is 0, x_0 when their sum is 0 mod N."""
        if self._ker is None:
            N, nums = self._iter_ker()
            phase = [Fraction(x, N) for x in range(N)]  # N divides |ker(chi)|
            self._ker = [GroupElement(tuple(map(phase.__getitem__, e)),
                                      frozenset(j for j, x in enumerate((sum(e), *e)) if x % N == 0))
                         for e in sorted(nums)]
        return self._ker

    @cached_property
    def closed_sets(self):
        """Per block, in the order of walks (else of first variables), (its full mask, {mask of S_B:
        terms} over its closed sets, the full one first): terms (m, c) sum the h_B(T_B) of the
        T_B >= S_B with m_B(T_B) = m, signed as by Moebius inversion over supersets."""
        if self.walks is None:  # the blocks are the components of A
            blocks = component_variables(restrict(self.poly, range(1, self.n + 2)))
            return [(sum(1 << v for v in block), self._block_closed_sets(block)) for block in blocks]
        out = []
        for walk, loop in self.walks:
            levels, h, s = [(0, 1, 1)], 1, 0  # (free x_1..x_r, h, m) per tail, covered by the next
            for i, (v, e) in enumerate(walk):
                h, s = h * e, s + (-1) ** i * h
                levels.append((levels[-1][0] | 1 << v + 1, h, h // gcd(h, s)))
            if loop:
                h -= (-1) ** len(walk)
                levels[1:] = [(levels[-1][0], h, h // gcd(h, s))]
            full = levels[-1][0]  # a tail's terms: its (m, h) less its cover's, merged if m == m2
            tails = {full & ~free: frozenset({m2: -h2, m: h - h2 * (m == m2)}.items())
                     for (free, h, m), (_, h2, m2) in zip(levels[1:], levels) if h != h2}
            out.append((full, {full: _ONE} | tails))
        return out

    def _block_closed_sets(self, block):
        """closed_sets' {mask: terms} of one block: its closed sets, reached from the closure of
        the empty set by adding one variable and closing again, two Smith forms on each, and
        Moebius inversion over their closed supersets (a set that is not closed fixes exactly 0)."""
        # each entry 1 of A in the block as masks: (the nonzero entries of its row, itself)
        ones = [(sum(1 << i for i, b in enumerate(row, 1) if b), 1 << j)
                for row in self.poly.matrix if any(row[v - 1] for v in block)
                for j, e in enumerate(row, 1) if e == 1]

        def close(s):
            while v := next((v for sup, v in ones if sup & ~s == v), 0):  # x_v is forced
                s |= v
            return s

        closed = [close(0)]
        for s in closed:  # extended while it is walked
            for v in block:
                if not s >> v & 1 and (c := close(s | 1 << v)) not in closed:
                    closed.append(c)
        exact = {}
        for s in sorted(closed, reverse=True):  # a superset comes first
            cols = [v - 1 for v in block if not s >> v & 1]
            m = [row for row in ([row[j] for j in cols] for row in self.poly.matrix) if any(row)]
            h = prod(lattice.smith(m).diagonal)
            at = {h // prod(lattice.smith(m + [[1] * len(cols)]).diagonal): h}
            for L, c in [term for t, up in exact.items() if t & s == s for term in up.items()]:
                at[L] = at.get(L, 0) - c
            exact[s] = at
        return {s: t for s, at in exact.items() if (t := frozenset((m, c) for m, c in at.items() if c))}

    def fixed_counts(self, mask):
        """(elements fixing exactly S + {x_0}, exactly S) for a mask S of x_1..x_{n+1}: the
        census identity on the terms of S's part in each block, 0 if a part is not closed."""
        terms = _ONE
        for full, sets in self.closed_sets:
            if (part := sets.get(mask & full)) is None:
                return 0, 0
            if part is not _ONE:  # a block's full set multiplies as 1
                terms = part if terms is _ONE else _times(terms, part)
        return _split(terms)

    def class_key(self, mask):
        """Sorts masks as sorted(fixed): 0 for fixed, 1 for unfixed from x_0 up, less the trailing 1s."""
        return f"{mask ^ (1 << self.n + 2) - 1:0{self.n + 2}b}"[::-1].rstrip("1")

    @cached_property
    def classes(self):
        """The census as (mask, count) pairs, bit j for x_j, in sorted(fixed) order."""
        if (size := prod(len(sets) for _, sets in self.closed_sets)) > CENSUS_LIMIT:
            raise EngineError(f"the census would list {size} fixed sets, more than 2^20")
        partial, times = [(0, _ONE)], cache(_times)  # equal sums multiply once per census
        for _, sets in self.closed_sets:  # _ONE, a block's full set, multiplies as 1
            partial = [(mask | mask2, terms if terms2 is _ONE else times(terms, terms2))
                       for mask, terms in partial for mask2, terms2 in sets.items()]
        split = {terms: _split(terms) for terms in {terms for _, terms in partial}}
        found = [(mask | fix, count) for mask, terms in partial
                 for fix, count in zip((1, 0), split[terms]) if count]
        return sorted(found, key=lambda f: self.class_key(f[0]))

    def fixed_census(self):
        """{frozenset of coordinates: how many elements of ker(chi) fix exactly it}, in class order."""
        if self._census is None:
            self._census = {frozenset(j for j in range(self.n + 2) if mask >> j & 1): c
                            for mask, c in self.classes}
        return self._census

    # -- characters --------------------------------------------------------

    def line_columns(self, b):
        """The integer dot products of b that fix its family line: one per
        congruence, then the c and u weights.  Linear in b."""
        return tuple(sum(map(mul, b, w)) for w in self.line_weights)
