"""Brute-force cross-validation of whole tables.

Instead of solving for the (b0, u) line, scan b0 directly over a safe bound
and accept a decorated monomial exactly when (a) its weighted degree is a
multiple of h and (b) its character is trivial on every kernel element,
checked pointwise on rational phases.  The kernel enumeration itself is
taken from the dual quotient route, so none of the engine's lattice
machinery (membership, particular solutions, step vectors) is trusted here.
"""

import random
from collections import Counter
from fractions import Fraction

import pytest
from hypothesis import given, settings, strategies as st

from basis_oracle import basis_in
from conftest import random_invertible
from lattice_oracle import cramer_weights, quotient
from mfhh.engine import compute_table
from mfhh.errors import NonterminatingFamily
from mfhh.jacobian import restrict
from mfhh.poly import parse


def brute_table_cells(p, window, order="grevlex"):
    """The table's cells, from the package's grevlex bases or, for lex, the
    test-side box walk."""
    dmin, dmax = window
    n1 = p.nvars
    n = n1 - 1
    w = cramer_weights(p)
    assert w.d0 != 0
    phases = quotient([list(col) for col in zip(*p.matrix)]).elements()

    def char_u(b):
        tot = b[0] * w.d0 + sum(bi * di for bi, di in zip(b[1:], w.d))
        if tot % w.h:
            return None
        u = tot // w.h
        for phi in phases:
            phi0 = (-sum(phi)) % 1
            if (b[0] * phi0 + sum(bi * x for bi, x in zip(b[1:], phi))) % 1 != 0:
                return None
        return u

    census = Counter()
    for phi in phases:
        fixed = frozenset(
            ({0} if sum(phi) % 1 == 0 else set())
            | {j + 1 for j, x in enumerate(phi) if x == 0}
        )
        census[fixed] += 1

    # |u| never exceeds the window reach; bound b0 through the weight equation
    umax = (abs(dmin) + abs(dmax) + n + 4) // 2 + 1
    cells = Counter()
    for fixed, count in census.items():
        fixed_vars = tuple(sorted(v for v in fixed if v >= 1))
        k = len(fixed_vars)
        basis = basis_in(restrict(p, fixed_vars), order)
        wrest_max = max(
            abs(sum(e * w.d[v - 1] for e, v in zip(mono, fixed_vars)))
            for mono in basis.monomials
        ) + sum(w.d)
        bmax = (w.h * umax + wrest_max) // abs(w.d0) + w.h + 2
        for mono in basis.monomials:
            exps = dict(zip(fixed_vars, mono))
            rest = [exps.get(j, 0) if j in fixed else -1 for j in range(1, n1 + 1)]
            if 0 in fixed:
                for b0 in range(0, bmax + 1):
                    u = char_u([b0] + rest)
                    if u is None:
                        continue
                    dA = 2 * u + n - k + 1
                    if dmin <= dA <= dmax:
                        cells[(dA, b0)] += count
                for b0 in range(-1, bmax + 1):
                    u = char_u([b0] + rest)
                    if u is None:
                        continue
                    dB = 2 * u + n - k + 2
                    if dmin <= dB <= dmax:
                        cells[(dB, b0)] += count
            else:
                u = char_u([-1] + rest)
                if u is not None:
                    d = 2 * u + n - k + 2
                    if dmin <= d <= dmax:
                        cells[(d, -1)] += count
    return dict(cells)


@pytest.mark.parametrize(
    "text",
    [
        "x1^2+x2^2+x3^2+x4^2",
        "x1^2+x2^2+x3^2+x4^4",
        "x1^2+x2^2+x3^2+x4^3",
        "x1^3*x2+x2^3*x3+x3^2+x4^2",
        "x1^2+x2^2+x3^2*x4+x3*x4^2",
        "x1^2+x2^3+x3^3+x4^6",
        "x1^2*x2+x1*x2^3",
        "x1^5",
    ],
)
def test_brute_force_matches_engine_reference(text):
    p = parse(text)
    window = (-10, 4)
    assert brute_table_cells(p, window) == compute_table(p, window).cells


@settings(max_examples=12)
@given(st.integers(0, 10**9))
def test_brute_force_matches_engine_random(seed):
    p = random_invertible(random.Random(seed), max_vars=3, max_det=120)
    window = (-8, 4)
    try:
        table = compute_table(p, window)
    except NonterminatingFamily:
        assert p.weights().d0 == 0
        return
    assert brute_table_cells(p, window) == table.cells
