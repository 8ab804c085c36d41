"""The mirror convention and the Katz small-resolution census.

The table of an input w is SH of the Milnor fibre of its Berglund-Huebsch
transpose w^T.  Two oracles pin that convention without any mirror formula:
degree 3 of the table is mu(w^T), computed here from the weights
(Milnor-Orlik), and GL_2-equivalent binary forms g give equal tables of
(x1^2 + x2^2 + g)^T.

Katz (Small resolutions of Gorenstein threefold singularities, 1991): for
s = x1^2 + x2^2 + g with g a binary Fermat, chain or loop, xy = g has a
small resolution iff g has ord(g) branches, and then ord(g) - 1 exceptional
curves.  The constant-rank probe of s^T must agree on every member, and its
rank must count the curves.
"""

from fractions import Fraction
from math import gcd, prod

import pytest

from lattice_oracle import cramer_weights
from mfhh.engine import compute_table
from mfhh.invariants import SmallResVerdict, golden_family_poly, small_res_probe
from mfhh.jacobian import milnor_number
from mfhh.poly import parse


def milnor_orlik(p):
    """mu of a quasi-homogeneous isolated p from its weights alone:
    the product of (h / d_i - 1)."""
    w = cramer_weights(p)
    return prod(Fraction(w.h, di) - 1 for di in w.d)


@pytest.mark.parametrize("k, mu_transpose, mu", [(1, 11, 13), (2, 17, 21), (3, 23, 29)])
def test_laufer_degree_3_is_the_milnor_number_of_the_transpose(k, mu_transpose, mu):
    p = golden_family_poly("laufer", k=k)
    assert milnor_orlik(p.transpose()) == milnor_number(p.transpose()) == mu_transpose
    assert milnor_orlik(p) == milnor_number(p) == mu != mu_transpose
    assert compute_table(p, (3, 3)).dim(3) == mu_transpose


@pytest.mark.parametrize("d", range(3, 8))
def test_gl2_equivalent_lines_give_equal_tables_of_the_transpose(d):
    # d distinct lines of equal weights each: one GL_2 orbit of binary forms
    forms = [
        f"x3^{d}+x4^{d}",
        f"x3^{d - 1}*x4+x4^{d}",
        f"x3^{d}+x3*x4^{d - 1}",
        f"x3^{d - 1}*x4+x3*x4^{d - 1}",
    ]
    window = (-8, 4)
    tables = [compute_table(parse(f"x1^2+x2^2+{g}").transpose(), window) for g in forms]
    dims = [[t.dim(e) for e in range(window[0], window[1] + 1)] for t in tables]
    assert dims.count(dims[0]) == len(dims)
    assert tables[0].dim(3) == (d - 1) ** 2
    assert small_res_probe(tables[0]) == SmallResVerdict("constant", (-8, -1), d - 1)
    # the chains' own tables do not agree with them: there degree 3 is mu + 1
    own = [compute_table(parse(f"x1^2+x2^2+{g}"), window) for g in forms[1:3]]
    assert [t.dim(3) for t in own] == [(d - 1) ** 2 + 1] * 2


def _binary(kind, a, b):
    """g in x3, x4 with its closed-form (branches, ord)."""
    if kind == "fermat":
        return f"x3^{a}+x4^{b}", gcd(a, b), min(a, b)
    if kind == "chain":
        return f"x3^{a}*x4+x4^{b}", 1 + gcd(a, b - 1), min(a + 1, b)
    return f"x3^{a}*x4+x3*x4^{b}", 2 + gcd(a - 1, b - 1), min(a + 1, b + 1)


CENSUS = [(kind, a, b) for kind in ("fermat", "chain", "loop") for a in range(2, 9) for b in range(2, 9)]


def test_probe_agrees_with_katz_on_every_census_member():
    window = (-60, -1)
    small, disagree = 0, []
    for kind, a, b in CENSUS:
        g, branches, order = _binary(kind, a, b)
        v = small_res_probe(compute_table(parse(f"x1^2+x2^2+{g}").transpose(), window))
        resolves = branches == order
        small += resolves
        if v.constant != resolves or (resolves and v.rank != order - 1):
            disagree.append((kind, a, b, branches, order, v.kind, v.rank))
    assert disagree == []
    assert (len(CENSUS), small) == (147, 63)
