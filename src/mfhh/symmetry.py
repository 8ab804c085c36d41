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
when phi_j = 0 and fixes x_0 when sum(phi) = 0 mod 1.  So the elements fixing
at least the set S are the solutions of M*phi_T = 0 mod 1, where T are the
coordinates x_1..x_{n+1} outside S, M is A restricted to the columns T, with
a row of ones appended when 0 is in S.  A is nonsingular, so M has full
column rank; writing M = U^-1 * D * V^-1 in Smith form, psi = V^-1 * phi_T
is a bijection of (Q/Z)^T and D*psi = 0 mod 1 has d_j choices for each psi_j.
The count is therefore the product of M's invariant factors (1 when T is
empty), and Moebius inversion over supersets turns these "at least S"
counts into exact ones.

Those Smith forms are taken per block.  Split the variables into the
connected blocks of A (two are linked when a monomial has both); A is
block diagonal, so ker(chi) is the product of the blocks' groups G_B and
only the x_0 condition couples them.  Within a block, a row whose only
nonzero entry outside S is a 1 forces that phase to 0 as well, so the
"at least S" counts depend only on the closure of S under that rule: a
Fermat atom has 2 closed sets, an m-chain m+1 and a loop 2.  For each
closed set S_B, h_B is the number of elements of G_B fixing at least S_B
and m_B = h_B / h'_B, with h'_B the same count with the row of ones
appended, is the order of the phase sum sigma_B on that subgroup.  Then
at least S fixes prod h_B elements, and at least S + {x_0} fixes
prod h_B / lcm(m_B) of them: sum(phi) is the sum of the sigma_B, each
uniform on the cyclic subgroup of order m_B of Q/Z, so the sum is uniform
on the subgroup of order lcm(m_B).

Cost: one pass down the 2^(n+1) sets S of x_1..x_{n+1}, supersets first.
A set with a forced x_v copies the counts of S + {x_v}; a closed set
multiplies its blocks' (h_B, m_B), two small Smith forms per closed proper
subset of each block.  With the Moebius inversion the census stays
exponential in n, though only closed sets carry a class.
"""

from __future__ import annotations

import itertools
import sys
from dataclasses import dataclass
from fractions import Fraction
from functools import cache, cached_property
from math import lcm, prod
from operator import mul

from . import lattice
from .errors import DegenerateCharacter, EngineError
from .jacobian import component_variables, restrict


@dataclass(frozen=True, order=True)
class GroupElement:
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

    def _free_counts(self, free):
        """(h_B, m_B) of a block whose unfixed variables are the mask free."""
        cols = [j - 1 for j in range(1, self.n + 2) if free >> j & 1]
        if not cols:
            return 1, 1
        m = [[row[j] for j in cols] for row in self.poly.matrix]
        m = [row for row in m if any(row)]  # zero rows add no invariant factor
        h = prod(lattice.invariant_factors(m))
        return h, h // prod(lattice.invariant_factors(m + [[1] * len(cols)]))

    def fixed_census(self):
        """How many elements of ker(chi) fix each subset of coordinates.

        Closed form (see the module docstring): no element is listed, and
        subsets fixed by no element are left out.
        """
        if self._census is None:
            n2 = self.n + 2  # coordinates x_0..x_{n+1}, bit j of a mask is x_j
            if 1 << n2 > sys.maxsize:
                raise EngineError(f"the census cannot list the 2^{n2} masks of {n2} coordinates")
            counts = [0] * (1 << n2)
            p = self.poly
            blocks = [sum(1 << v for v in b) for b in self.blocks]
            # each entry 1 of A as masks: (the nonzero entries of its row, itself)
            ones = [(sum(1 << i for i, b in enumerate(row, 1) if b), 1 << j)
                    for row in p.matrix for j, a in enumerate(row, 1) if a == 1]
            free_counts = cache(self._free_counts)
            # "at least S" counts down the even masks, supersets first; s | 1 adds x_0
            for s in range(len(counts) - 2, -1, -2):
                for sup, v in ones:
                    if sup & ~s == v:  # x_v is forced: S fixes what S + x_v does
                        counts[s], counts[s | 1] = counts[s | v], counts[s | v | 1]
                        break
                else:  # S is closed: one (h_B, m_B) per block
                    h, m = zip(*[free_counts(block & ~s) for block in blocks])
                    counts[s] = prod(h)
                    counts[s | 1] = counts[s] // lcm(*m)
            # Moebius inversion over supersets: at least S -> exactly S
            for j in range(n2):
                bit = 1 << j
                for s in range(1 << n2):
                    if not s & bit:
                        counts[s] -= counts[s | bit]
            self._census = {
                frozenset(j for j in range(n2) if s >> j & 1): c
                for s, c in enumerate(counts)
                if c
            }
        return self._census

    # -- characters --------------------------------------------------------

    def line_columns(self, b):
        """The integer dot products of b that fix its family line: one per
        congruence, then the c and u weights.  Linear in b."""
        return tuple(sum(map(mul, b, w)) for w in self.line_weights)
