"""Degree n and the negative ranks of tables of cDV transposes, against
closed forms of the weights.

Every s below is an isolated cDV 3-fold point (Gorenstein terminal, Reid):
the cA census x1^2 + x2^2 + g, g a binary Fermat, chain or loop, and the
Du Val surfaces A1-A5, D4-D8, E6-E8 in x1, x2, x3 plus x4^m.  Two laws are
checked on the tables of their Berglund-Huebsch transposes s^T, which are
SH of the Milnor fibre of s:

* degree 3 is mu(s) (Milnor-Orlik, from the weights alone); McLean's
  minimal discrepancy argument (arXiv:1404.1857) should keep Reeb orbits out
  of degree n at a terminal point, so SH^n = H^n(F).  A non-terminal control
  shows the law is not an identity of the engine;
* the rank in negative degrees is b2 of the link where it is constant, and
  its minimum over the window where it is not.  b2 counts the monomials m of
  a Jacobian basis with sum (m_i + 1) d_i divisible by h (Milnor-Orlik;
  Steenbrink): the coefficients at multiples of h of
  prod (t^d_i - t^h) / (1 - t^d_i), the Poincare series of the Jacobian ring
  times t^(sum d_i), here multiplied out from the weights with no basis.
"""

import pytest

from lattice_oracle import cramer_weights
from mfhh.engine import compute_table
from mfhh.invariants import small_res_probe
from mfhh.jacobian import milnor_number
from mfhh.poly import parse
from test_katz import milnor_orlik

CA_CENSUS = [f"x1^2+x2^2+{g}" for a in range(2, 13) for b in range(2, 13)
             for g in (f"x3^{a}+x4^{b}", f"x3^{a}*x4+x4^{b}", f"x3^{a}*x4+x3*x4^{b}")]
DU_VAL = [f"x1^2+x2^2+x3^{k + 1}" for k in range(1, 6)] + [
    f"x1^2*x2+x2^{k - 1}+x3^2" for k in range(4, 9)] + ["x1^3+x2^4+x3^2", "x1^3*x2+x2^3+x3^2", "x1^3+x2^5+x3^2"]
DU_VAL_FAMILY = [f"{surface}+x4^{m}" for surface in DU_VAL for m in range(2, 31)]
# (members, probe window of s^T)
FAMILIES = {"cA": (CA_CENSUS, (-60, -1)), "Du Val": (DU_VAL_FAMILY, (-80, -1))}


def milnor_and_b2(p):
    """(mu of p, b2 of its link) from the weights alone.  The coefficient of t^e in
    prod (t^d_i - t^h), divided exactly by each (1 - t^d_i), counts the monomials m of a
    Jacobian basis with sum (m_i + 1) d_i = e: mu is their sum, b2 their sum at multiples of h."""
    w = cramer_weights(p)
    series = [1]
    for d in w.d:  # times t^d - t^h
        top = [0] * (len(series) + w.h)
        for e, c in enumerate(series):
            top[e + d] += c
            top[e + w.h] -= c
        series = top
    for d in w.d:  # over 1 - t^d: q_e = p_e + q_(e - d), with no remainder
        for e in range(d, len(series)):
            series[e] += series[e - d]
        assert not any(series[len(series) - d:])
        del series[len(series) - d:]
    return sum(series), sum(series[::w.h])


def test_families_have_their_sizes():
    assert (len(CA_CENSUS), len(DU_VAL_FAMILY)) == (363, 377)


@pytest.mark.parametrize("family", FAMILIES)
def test_degree_n_is_mu_on_cdv_inputs(family):
    members, _ = FAMILIES[family]
    wrong = []
    for text in members:
        s = parse(text)
        if compute_table(s.transpose(), (3, 3)).dim(3) != milnor_orlik(s):
            wrong.append(text)
    assert wrong == []


def test_degree_n_exceeds_mu_on_a_non_terminal_control():
    # the cone over a smooth cubic surface is canonical, not terminal
    s = parse("x1^3+x2^3+x3^3+x4^3")
    assert (compute_table(s.transpose(), (3, 3)).dim(3), milnor_orlik(s)) == (17, 16)


@pytest.mark.parametrize("family", FAMILIES)
def test_negative_rank_is_b2_of_the_link_on_cdv_inputs(family):
    # constant: the rank is b2; nonconstant: b2 is the least rank in the window
    members, window = FAMILIES[family]
    wrong = []
    for text in members:
        s = parse(text)
        mu, b2 = milnor_and_b2(s)
        t = compute_table(s.transpose(), window)
        v = small_res_probe(t)
        rank = v.rank if v.constant else min(t.dim(window[1]), *(r for _, r in v.witnesses))
        if (rank, mu) != (b2, milnor_number(s)):
            wrong.append((text, v.kind, rank, b2, mu))
    assert wrong == []


def test_least_rank_exceeds_b2_on_a_non_cdv_control():
    s = parse("x1^2+x2^5+x3^6+x4^4")
    t = compute_table(s.transpose(), (-60, -1))
    assert (small_res_probe(t).kind, min(map(t.dim, range(-60, 0))), milnor_and_b2(s)[1]) == ("nonconstant", 4, 0)


@pytest.mark.parametrize("text, mu, b2", [
    ("x1^2+x2^2+x3^3+x4^3", 4, 2),  # xy = z^3 + w^3: three branches, two exceptional curves
    ("x1^2+x2^2+x3^2+x4^2", 1, 1),  # the ordinary double point: one curve, the link S^2 x S^3
    ("x1^2+x2^2+x3^2+x4^3", 2, 0),  # xy = z^2 + w^3: one branch, no small resolution, b2 = 0
])
def test_b2_oracle_on_named_points(text, mu, b2):
    assert milnor_and_b2(parse(text)) == (mu, b2)
