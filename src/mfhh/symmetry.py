"""The diagonal symmetry group of an invertible polynomial.

For w with exponent matrix A, the extension Gamma of the torus acting on
(x_0, .., x_{n+1}) is cut out by the equations
prod_j t_j^{a_ij} = t_0 t_1 ... t_{n+1}.  Characters of Gamma are integer
exponent vectors in Z^{n+2} modulo the relation lattice R spanned by
r_i = (-1, a_i1 - 1, ..., a_i,n+1 - 1).  The kernel of the total character
chi = (1,..,1) is a finite abelian group of order |det A|, whose elements we
store as rational phase vectors mod 1 (no roots of unity are ever needed).

The table only needs how many elements fix each coordinate set, and that
census has a closed form that never lists an element.  An element is a
phase vector phi in (Q/Z)^{n+1} with A*phi = 0 mod 1; it fixes x_j (j >= 1)
when phi_j = 0 and x_0 when sum(phi) = 0 mod 1.  A is block diagonal, so
ker(chi) is the product of its blocks' groups G_B.  If h_B elements of G_B
fix at least S_B and m_B is the order of their phase sum (uniform on a
cyclic subgroup of Q/Z), at least S is fixed by prod h_B elements and at
least S + {x_0} by prod h_B / lcm(m_B).  A row whose only nonzero entry
outside S is a 1 forces that phase to 0 too, so Moebius inversion over
supersets leaves exact counts on the sets closed under that rule only.  A
chain x_1^a_1 x_2 + .. + x_k^a_k with all a_i >= 2 has its tails closed;
with x_1..x_r free, phi_1 has order h = a_1..a_r and phi_j is
(-1)^(j-1) a_1..a_(j-1) phi_1, so m = h / gcd(h, sum of those factors).  A
loop has none and all closed, h = prod a - (-1)^k.  Other blocks apply the
rule to every subset, with Smith forms of A on the free columns for h_B and,
with a row of ones appended, for h_B / m_B.  Folding the blocks' closed
sets, S keeps the signed products c_L of its h_B by the lcm L of their m_B:
exact(S + {x_0}) = sum c_L / L and exact(S) = sum c_L - exact(S + {x_0}).
Cost: about the output, with equal sums multiplied once and no Smith form
for an atom (a Fermat atom is a chain of one).
"""

from __future__ import annotations

import itertools
import sys
from fractions import Fraction
from functools import cache, cached_property
from math import gcd, lcm, prod
from operator import mul
from typing import NamedTuple

from . import lattice
from .errors import DegenerateCharacter, EngineError
from .jacobian import component_variables, restrict
from .poly import atom_heads


def _times(x, y):
    """x * y for sums of terms (L, c) held as frozensets: the terms (lcm(L, m), c * c2) per pair."""
    out = {}
    for (L, c), (m, c2) in itertools.product(x, y):
        k = lcm(L, m)
        out[k] = out.get(k, 0) + c * c2
    return frozenset((k, c) for k, c in out.items() if c)


_ONE = frozenset({(1, 1)})


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
        n1 = p.nvars  # the number of x_1..x_{n+1} variables
        self.n = n1 - 1
        self.one = tuple([1] * (n1 + 1))
        self.relation_rows = tuple(
            tuple([-1] + [a - 1 for a in row]) for row in p.matrix
        )
        # the solution line of  b + c*e0 - u*1  in R, shared by all b:
        # unknowns (x_1..x_{n+1}, c, u) against rows (R, -e0, 1)
        e0 = tuple([1] + [0] * n1)
        sd = lattice.smith(list(self.relation_rows) + [tuple(-x for x in e0), self.one])
        diag = sd.diagonal
        hom = [sd.u[i] for i in range(n1 + 2) if i >= len(diag) or diag[i] == 0]
        # R has rank n+1 (A is nonsingular), so R plus the all-ones row is
        # independent exactly when the kernel is one line with c != 0
        if len(hom) != 1 or hom[0][-2] == 0:
            raise DegenerateCharacter(
                "the total character has finite order modulo the relations"
            )
        dc, du = hom[0][-2], hom[0][-1]
        if dc < 0:
            dc, du = -dc, -du
        self.family_step = (dc, du)
        # Every d_j is now nonzero.  x*M = b has a solution iff each
        # z_j = (b.V_j)/d_j is an integer, and then (c0, u0) = sum_j z_j *
        # U[j][-2:].  Over the common denominator L = lcm(d) that sum is one
        # integer dot product per coordinate, exact once the congruences hold.
        # All of it is linear in b: line_columns lists its dot products with
        # line_weights, one per congruence modulus in line_moduli, then the c
        # and u weights; the columns of a sum of vectors are the sums of
        # their columns.
        L = self.line_denominator = lcm(*diag)
        self.line_moduli = tuple(dj for dj in diag if dj > 1)
        congruences = tuple(
            tuple(row[j] for row in sd.v) for j, dj in enumerate(diag) if dj > 1
        )
        c_weights, u_weights = (
            tuple(
                sum(row[j] * (L // dj) * sd.u[j][k] for j, dj in enumerate(diag))
                for row in sd.v
            )
            for k in (-2, -1)
        )
        self.line_weights = congruences + (c_weights, u_weights)
        self._ker = None
        self._census = None

    @cached_property
    def blocks(self):
        """The variables of each connected block of A, in order of their first variable."""
        return component_variables(restrict(self.poly, range(1, self.n + 2)))

    # -- ker chi -----------------------------------------------------------

    def _iter_ker(self):
        sd = lattice.smith(self.poly.matrix)
        diag = sd.diagonal
        n1 = self.poly.nvars
        cols = [
            tuple(Fraction(sd.v[i][j], diag[j]) for i in range(n1))
            for j in range(n1)
        ]
        for cs in itertools.product(*[range(d) for d in diag]):
            phases = [Fraction(0)] * n1
            for cj, col in zip(cs, cols):
                if cj:
                    for i in range(n1):
                        phases[i] += cj * col[i]
            yield GroupElement.from_phases(phases)

    def ker_chi(self):
        """All solutions of A * phases = 0 mod 1, sorted lexicographically."""
        if self._ker is None:
            self._ker = sorted(self._iter_ker())
        return self._ker

    def _closed_sets(self):
        """Per block, [(mask of S_B, terms)] over its closed sets: terms (m, c) sum the h_B(T_B)
        of the T_B >= S_B with m_B(T_B) = m, signed as by Moebius inversion over supersets."""
        heads = atom_heads(self.poly.matrix) or ()
        a, nxt = {t: row[t] for row, (t, _) in zip(self.poly.matrix, heads)}, dict(heads)
        for v in sorted(a, key=lambda v: v in nxt.values()):  # chains from their start
            walk = []
            while v in a:
                walk.append((v + 1, a.pop(v)))
                v = nxt[v]
            if walk and min(e for _, e in walk) < 2:
                yield self._block_closed_sets(sorted(v for v, _ in walk))
            elif walk:  # (free x_1..x_r, h, m) per tail; each is covered by the next longer one
                levels, h, s = [(0, 1, 1)], 1, 0
                for i, (v2, e) in enumerate(walk):
                    h, s = h * e, s + (-1) ** i * h
                    levels.append((levels[-1][0] | 1 << v2, h, h // gcd(h, s)))
                if v is not None:  # a loop
                    h -= (-1) ** len(walk)
                    levels[1:] = [(levels[-1][0], h, h // gcd(h, s))]
                full = levels[-1][0]  # a tail's terms: its (m, h) less its cover's, merged if m == m2
                yield [(full, _ONE)] + [(full & ~free, frozenset({m2: -h2, m: h - h2 * (m == m2)}.items()))
                                        for (free, h, m), (_, h2, m2) in zip(levels[1:], levels)]
        if not heads:
            yield from map(self._block_closed_sets, self.blocks)

    def _block_closed_sets(self, block):
        """_closed_sets of one block: the rule, Smith forms and Moebius inversion on its subsets."""
        # each entry 1 of A in the block as masks: (the nonzero entries of its row, itself)
        ones = [(sum(1 << i for i, b in enumerate(row, 1) if b), 1 << j)
                for row in self.poly.matrix if any(row[v - 1] for v in block)
                for j, e in enumerate(row, 1) if e == 1]
        counts = {}
        for s in sorted(map(sum, itertools.product(*[(0, 1 << v) for v in block])), reverse=True):
            v = next((v for sup, v in ones if sup & ~s == v), 0)  # x_v is forced
            if v:
                counts[s] = counts[s | v]
                continue
            cols = [v - 1 for v in block if not s >> v & 1]
            m = [row for row in ([row[j] for j in cols] for row in self.poly.matrix) if any(row)]
            h = prod(lattice.invariant_factors(m))
            counts[s] = {h // prod(lattice.invariant_factors(m + [[1] * len(cols)])): h}
        for v in block:
            for s, at in counts.items():
                if not s >> v & 1:
                    up = counts[s | 1 << v]
                    counts[s] = {m: at.get(m, 0) - up.get(m, 0) for m in {*at, *up}}
        return [(s, t) for s, at in counts.items() if (t := frozenset((m, c) for m, c in at.items() if c))]

    @property
    def classes(self):
        """The census as (mask, count) pairs, bit j for x_j, in sorted(fixed) order; see fixed_census."""
        self.fixed_census()
        return self._classes

    def fixed_census(self):
        """{frozenset of coordinates: how many elements of ker(chi) fix exactly it}, in class order."""
        if self._census is None:
            n2 = self.n + 2  # coordinates x_0..x_{n+1}
            if 1 << n2 > sys.maxsize:
                raise EngineError(f"the census cannot list the 2^{n2} masks of {n2} coordinates")
            partial, times = [(0, _ONE)], cache(_times)  # equal sums multiply once per census
            for sets in self._closed_sets():
                partial = [(mask | mask2, times(terms, terms2))
                           for mask, terms in partial for mask2, terms2 in sets]
            # 1/L of the elements counted with lcm L fix x_0, and each such count is a multiple of L
            x0 = {terms: sum(c // L for L, c in terms) for terms in {terms for _, terms in partial}}
            found = [(mask | fix, count) for mask, terms in partial
                     for fix, count in ((1, x0[terms]), (0, sum(c for _, c in terms) - x0[terms])) if count]
            # 0 for fixed, 1 for unfixed from x_0 up, less the trailing 1s, sorts as sorted(fixed)
            self._classes = sorted(found, key=lambda f: f"{f[0] ^ (1 << n2) - 1:0{n2}b}"[::-1].rstrip("1"))
            self._census = {frozenset(j for j in range(n2) if mask >> j & 1): c for mask, c in self._classes}
        return self._census

    # -- characters --------------------------------------------------------

    def line_columns(self, b):
        """The integer dot products of b that fix its family line: one per
        congruence, then the c and u weights.  Linear in b."""
        return tuple(sum(map(mul, b, w)) for w in self.line_weights)
