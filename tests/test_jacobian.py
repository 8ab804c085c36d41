import random
from math import prod

import pytest
from hypothesis import given, settings, strategies as st

from conftest import random_invertible
from mfhh.errors import NotIsolated
from mfhh.jacobian import _basis_cached, milnor_number, monomial_basis, restrict
from mfhh.poly import parse

LAUFER = "x1^3*x2+x2^{}*x3+x3^2+x4^2"


def laufer(k):
    return parse(LAUFER.format(2 * k + 1))


def test_one_variable_cube():
    basis = monomial_basis(restrict(parse("x1^3"), {1}))
    assert basis.monomials == ((0,), (1,))
    assert basis.dimension == 2


def test_restrict_drops_unfixed():
    r = restrict(laufer(1), {2, 3})
    assert r.fixed == (2, 3)
    assert set(r.terms) == {(3, 1), (0, 2)}  # x2^3*x3 and x3^2 survive
    assert restrict(laufer(1), range(1, 5)).terms == laufer(1).matrix
    assert restrict(laufer(1), ()).terms == ()


@pytest.mark.parametrize("k", [1, 2])
def test_laufer_restriction_dimensions(k):
    assert monomial_basis(restrict(laufer(k), {2, 3})).dimension == 4 * k + 1
    assert monomial_basis(restrict(laufer(k), range(1, 5))).dimension == 8 * k + 5
    assert monomial_basis(restrict(laufer(k), {3, 4})).dimension == 1
    assert monomial_basis(restrict(laufer(k), {3})).dimension == 1


def test_milnor_examples():
    assert milnor_number(parse("x1^2+x2^2+x3^2+x4^2")) == 1
    assert milnor_number(parse("x1^2+x2^3+x3^3+x4^6")) == 20
    assert milnor_number(laufer(1)) == 13


def test_two_variable_loop_milnor():
    # x3^2*x4 + x3*x4^2 in two variables has a 4-dimensional Jacobian ring,
    # and any monomial basis of it contains both degree-one monomials
    p = parse("x1^2+x2^2+x3^2*x4+x3*x4^2")
    basis = monomial_basis(restrict(p, {3, 4}))
    assert basis.dimension == 4
    assert (1, 0) in basis.monomials and (0, 1) in basis.monomials
    lex = monomial_basis(restrict(p, {3, 4}), order="lex")
    assert lex.dimension == 4


def test_empty_restriction_is_ground_field():
    assert monomial_basis(restrict(laufer(1), ())).monomials == ((),)


def test_zero_polynomial_on_variables_not_isolated():
    with pytest.raises(NotIsolated):
        monomial_basis(restrict(laufer(1), {1}))
    with pytest.raises(NotIsolated):
        monomial_basis(restrict(laufer(1), {2}))


def _is_staircase(monos):
    s = set(monos)
    for m in s:
        for v in range(len(m)):
            if m[v]:
                lower = tuple(e - (i == v) for i, e in enumerate(m))
                if lower not in s:
                    return False
    return True


@given(st.integers(0, 10**9))
def test_basis_is_staircase_and_order_independent(seed):
    rng = random.Random(seed)
    p = random_invertible(rng, max_vars=4, max_det=600)
    full = tuple(range(1, p.nvars + 1))
    fixed = tuple(v for v in full if rng.random() < 0.7)
    r = restrict(p, fixed)
    try:
        grevlex = monomial_basis(r, "grevlex")
    except NotIsolated:
        return
    assert _is_staircase(grevlex.monomials)
    lex = monomial_basis(r, "lex")
    assert _is_staircase(lex.monomials)
    assert grevlex.dimension == lex.dimension


@settings(max_examples=20)
@given(st.integers(0, 10**9))
def test_brieskorn_pham_milnor_product(seed):
    rng = random.Random(seed)
    exps = [rng.randint(2, 7) for _ in range(rng.randint(1, 4))]
    p = parse("+".join(f"x{i + 1}^{a}" for i, a in enumerate(exps)))
    assert milnor_number(p) == prod(a - 1 for a in exps)
    # the staircase matches the product staircase 0 <= b_i <= a_i - 2
    basis = monomial_basis(restrict(p, range(1, len(exps) + 1)))
    assert set(basis.monomials) == {
        m
        for m in __import__("itertools").product(*[range(a - 1) for a in exps])
    }


def test_basis_cache_is_bounded():
    assert isinstance(_basis_cached.cache_info().maxsize, int)
