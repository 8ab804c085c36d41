"""The diagonal symmetry group of an invertible polynomial.

For w with exponent matrix A, the extension Gamma of the torus acting on
(x_0, .., x_{n+1}) is cut out by the equations
prod_j t_j^{a_ij} = t_0 t_1 ... t_{n+1}.  Characters of Gamma are integer
exponent vectors in Z^{n+2} modulo the relation lattice R spanned by
r_i = (-1, a_i1 - 1, ..., a_i,n+1 - 1).  The kernel of the total character
chi = (1,..,1) is a finite abelian group of order |det A|, whose elements we
store as rational phase vectors mod 1 (no roots of unity are ever needed).
"""

from __future__ import annotations

import itertools
from collections import Counter
from dataclasses import dataclass
from fractions import Fraction

from . import lattice
from .errors import DegenerateCharacter


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

    @property
    def phase0(self):
        return (-sum(self.phases)) % 1


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
        self._family_smith = lattice.smith(
            list(self.relation_rows) + [tuple(-x for x in e0), self.one]
        )
        diag = self._family_smith.diagonal
        hom = [
            self._family_smith.u[i]
            for i in range(n1 + 2)
            if i >= len(diag) or diag[i] == 0
        ]
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
        self._ker = None
        self._census = None

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

    def fixed_census(self):
        """How many elements of ker(chi) fix each subset of coordinates."""
        if self._census is None:
            counts = Counter(g.fixed for g in self._iter_ker())
            self._census = dict(counts)
        return self._census

    # -- characters --------------------------------------------------------

    def chi_power(self, b):
        """The unique u with b - u*(1,..,1) in R, or None.

        This is the c = 0 point of b's family line; it is unique because the
        family step has dc > 0.
        """
        line = self.family_line(b)
        if line is None:
            return None
        c0, u0 = line
        dc, du = self.family_step
        if c0 % dc:
            return None
        return u0 - (c0 // dc) * du

    def family_line(self, base):
        """Solve  base + c*e0 - u*1  in R  for (c, u).

        Returns (c0, u0) on the solution line or None; the line's step is the
        context-wide family_step (dc, du) with dc > 0.
        """
        sd = self._family_smith
        diag = sd.diagonal
        cv = lattice.vec_mat(list(base), sd.v)
        zs = []
        for j, dj in enumerate(diag):
            if cv[j] % dj:
                return None
            zs.append(cv[j] // dj)
        c0 = sum(zs[i] * sd.u[i][-2] for i in range(len(zs)))
        u0 = sum(zs[i] * sd.u[i][-1] for i in range(len(zs)))
        return c0, u0

