import os
import random
import subprocess
import sys
import textwrap
from collections import Counter
from fractions import Fraction
from itertools import product

import pytest
from hypothesis import given, settings, strategies as st

import mfhh
from conftest import random_invertible
from lattice_oracle import census_by_masks, chi_power, family_line, member, quotient
from mfhh import lattice
from mfhh.errors import DegenerateCharacter
from mfhh.lattice import det
from mfhh.poly import InvertiblePolynomial, parse
from mfhh.symmetry import GroupElement, SymmetryContext

LAUFER1 = "x1^3*x2+x2^3*x3+x3^2+x4^2"


def test_relation_rows_diagonal():
    ctx = SymmetryContext(parse("x1^2+x2^2+x3^2+x4^2"))
    assert ctx.relation_rows == (
        (-1, 1, -1, -1, -1),
        (-1, -1, 1, -1, -1),
        (-1, -1, -1, 1, -1),
        (-1, -1, -1, -1, 1),
    )


def test_ker_chi_diagonal():
    ctx = SymmetryContext(parse("x1^2+x2^2+x3^2+x4^2"))
    ker = ctx.ker_chi()
    assert len(ker) == 16
    half = Fraction(1, 2)
    assert {g.phases for g in ker} == set(product((Fraction(0), half), repeat=4))
    # identity comes with everything fixed
    assert ker[0].phases == (0, 0, 0, 0)
    assert ker[0].fixed == frozenset(range(5))


def test_ker_chi_fixed_rule():
    ctx = SymmetryContext(parse(LAUFER1))
    for g in ctx.ker_chi():
        assert (0 in g.fixed) == (sum(g.phases) % 1 == 0)
        for j, ph in enumerate(g.phases, start=1):
            assert (j in g.fixed) == (ph == 0)


def test_ker_chi_laufer_order():
    ctx = SymmetryContext(parse(LAUFER1))
    assert len(ctx.ker_chi()) == 36 == abs(ctx.poly.det())


def test_fixed_census_laufer():
    ctx = SymmetryContext(parse(LAUFER1))
    census = {tuple(sorted(f)): c for f, c in ctx.fixed_census().items()}
    assert census[(0, 1, 2, 3, 4)] == 1
    assert census[(0,)] == 1
    assert census[(1, 2, 3)] == 1
    assert census[(2, 3, 4)] == 2
    assert census[(2, 3)] == 2
    assert census[()] == 8  # 6k+2 at k=1
    rest = sum(c for f, c in census.items() if set(f) <= {3, 4} and f)
    assert rest == 36 - 15
    assert sum(census.values()) == 36


def test_fixed_census_diagonal_brute_force():
    ctx = SymmetryContext(parse("x1^2+x2^2+x3^2+x4^2"))
    census = ctx.fixed_census()
    half = Fraction(1, 2)
    expected = {}
    for phases in product((Fraction(0), half), repeat=4):
        fixed = {j + 1 for j, x in enumerate(phases) if x == 0}
        if sum(phases) % 1 == 0:
            fixed.add(0)
        key = frozenset(fixed)
        expected[key] = expected.get(key, 0) + 1
    assert census == expected


@pytest.mark.parametrize("k", [1, 2, 3])
def test_fixed_census_free_class_two_branch_family(k):
    # x1^2+x2^2+x3^2*x4+x3*x4^(k+1): the class fixing nothing has 2k elements
    p = parse(f"x1^2+x2^2+x3^2*x4+x3*x4^{k + 1}")
    census = SymmetryContext(p).fixed_census()
    assert census[frozenset()] == 2 * k


def test_chi_power_examples():
    ctx = SymmetryContext(parse(LAUFER1))
    n2 = ctx.poly.nvars + 1
    assert chi_power(ctx, [-1] * n2) == -1
    assert chi_power(ctx, [0] * n2) == 0
    assert chi_power(ctx, (6, 0, 4, 0, 0)) == -2
    assert chi_power(ctx, (1, 0, 0, 0, 0)) is None


def test_chi_power_defining_rows():
    # each defining monomial of w is isotypical of power one
    for text in ("x1^2+x2^2+x3^2+x4^2", LAUFER1, "x1^2+x2^3+x3^3+x4^6"):
        ctx = SymmetryContext(parse(text))
        for row in ctx.poly.matrix:
            assert chi_power(ctx, [0] + list(row)) == 1


@given(st.integers(0, 10**9), st.data())
def test_chi_power_additivity(seed, data):
    p = random_invertible(random.Random(seed))
    ctx = SymmetryContext(p)
    n1 = p.nvars
    # b = u*1 + x*R always has chi_power u, and powers add
    def sample(label):
        u = data.draw(st.integers(-4, 4), label=label)
        xs = data.draw(
            st.lists(st.integers(-2, 2), min_size=n1, max_size=n1), label=label + "x"
        )
        b = [u] * (n1 + 1)
        for xi, row in zip(xs, ctx.relation_rows):
            for j in range(n1 + 1):
                b[j] += xi * row[j]
        return u, b

    u1, b1 = sample("first")
    u2, b2 = sample("second")
    assert chi_power(ctx, b1) == u1
    assert chi_power(ctx, b2) == u2
    assert chi_power(ctx, [a + b for a, b in zip(b1, b2)]) == u1 + u2


@settings(max_examples=30)
@given(st.integers(0, 10**9), st.data())
def test_chi_power_matches_degree_and_echelon_membership(seed, data):
    # independent of the Smith route: every relation has weighted degree 0
    # and the all-ones vector has degree h, so u is forced to be tot // h;
    # membership of b - u*1 is then decided by echelon reduction
    p = random_invertible(random.Random(seed))
    ctx = SymmetryContext(p)
    w = p.weights()
    degrees = (w.d0,) + tuple(w.d)
    rows = [(-1,) + tuple(a - 1 for a in row) for row in p.matrix]
    n2 = p.nvars + 1
    for _ in range(20):
        # a lattice point shifted by u*1, then optionally knocked off the
        # lattice while keeping its degree, or perturbed at random
        u = data.draw(st.integers(-4, 4))
        xs = data.draw(st.lists(st.integers(-2, 2), min_size=n2 - 1, max_size=n2 - 1))
        b = [u + sum(x * row[j] for x, row in zip(xs, rows)) for j in range(n2)]
        shift = data.draw(st.sampled_from(["none", "degree-zero", "random"]))
        if shift == "degree-zero":
            i, j = data.draw(st.lists(st.integers(0, n2 - 1), min_size=2, max_size=2))
            b[i] += degrees[j]
            b[j] -= degrees[i]
        elif shift == "random":
            b = [bi + data.draw(st.integers(-3, 3)) for bi in b]
        tot = sum(bi * di for bi, di in zip(b, degrees))
        if tot % w.h:
            assert chi_power(ctx, b) is None
            continue
        u = tot // w.h
        expected = u if member(rows, [bi - u for bi in b]) else None
        assert chi_power(ctx, b) == expected


@settings(max_examples=15)
@given(st.integers(0, 10**9))
def test_ker_order_and_quotient_cross_check(seed):
    p = random_invertible(random.Random(seed), max_det=10000)
    ctx = SymmetryContext(p)
    ker = ctx.ker_chi()
    assert len(ker) == abs(p.det())
    assert len({g.phases for g in ker}) == len(ker)
    # dual route: the quotient of Z^n by the column span of A
    transpose_rows = [list(col) for col in zip(*p.matrix)]
    quot = quotient(transpose_rows)
    assert set(quot.elements()) == {g.phases for g in ker}
    census = ctx.fixed_census()
    assert sum(census.values()) == len(ker)
    # the closed-form census counts the fixed sets of the dual route's elements
    dual = Counter(GroupElement.from_phases(e).fixed for e in quot.elements())
    assert census == dict(dual)


@given(st.integers(0, 10**9))
def test_census_matches_mask_census_on_large_atoms(seed):
    # chains and loops of up to 6 variables, as in the large_group pools
    p = random_invertible(random.Random(seed), max_vars=6, max_det=10**6, max_atom=6)
    assert SymmetryContext(p).fixed_census() == census_by_masks(p)


def _random_nonsingular(rng):
    """The context of a random nonsingular matrix with entries 0..3 that
    uses every column, or None if the draw is singular, leaves a column
    out or has a total character of finite order."""
    n = rng.randint(1, 5)
    rows = tuple(tuple(rng.randint(0, 3) for _ in range(n)) for _ in range(n))
    if not all(any(col) for col in zip(*rows)) or det(rows) == 0:
        return None
    p = InvertiblePolynomial(rows)
    try:
        return SymmetryContext(p)
    except DegenerateCharacter:
        return None


@given(st.integers(0, 10**9))
def test_census_matches_mask_census_on_nonstandard_matrices(seed):
    # blocks need not be atoms: the closure rule and the lcm join still hold
    rng = random.Random(seed)
    checked = 0
    while checked < 20:
        ctx = _random_nonsingular(rng)
        if ctx is not None:
            assert ctx.fixed_census() == census_by_masks(ctx.poly), ctx.poly.matrix
            checked += 1


CHAIN12 = "+".join([f"x{i}^{2 + i % 2}*x{i + 1}" for i in range(1, 12)] + ["x12^2"])
LOOP12 = "+".join(f"x{i}^{2 + i % 2}*x{i % 12 + 1}" for i in range(1, 13))


@pytest.mark.parametrize(
    "text",
    [
        "+".join([f"x{i}^{2 + i % 3}*x{i + 1}" for i in range(1, 9)] + ["x9^3"]),
        "+".join(f"x{i}^{2 + i % 3}*x{i % 9 + 1}" for i in range(1, 10)),
        "x1^2*x2+x2^3*x3+x3^2+x4^3*x5+x5^2*x6+x6^2*x4+x7^4+x8^2*x9+x9^5",
    ],
)
def test_census_matches_mask_census_on_nine_variables(text):
    # a 9-chain, a 9-loop, and a chain, a loop, a Fermat atom and a 2-chain
    p = parse(text)
    assert SymmetryContext(p).fixed_census() == census_by_masks(p)


@pytest.mark.parametrize(
    "text, calls",
    [
        ("x1^7+x2^5+x3^4+x4^6+x5^3+x6^3", 12),
        ("x1^3*x2+x2^3*x3+x3^3*x4+x4^3*x5+x5^3*x6+x6^24", 12),
        ("x1^3*x2+x2^4*x3+x3^7*x4+x4^7*x5+x5^3*x6+x6^4*x1", 2),
        (CHAIN12, 24),
        (LOOP12, 2),
    ],
)
def test_census_takes_two_smith_forms_per_closed_block_set(monkeypatch, text, calls):
    # one per closed proper subset of each block and one with the row of
    # ones: a k-chain has k such sets, a Fermat atom 1 and a loop 1; the
    # census by masks takes 126 on six variables
    def walk(self):
        raise AssertionError("ker(chi) was enumerated")

    counted = []
    factors = lattice.invariant_factors

    def counting(m):
        counted.append(m)
        return factors(m)

    monkeypatch.setattr(SymmetryContext, "_iter_ker", walk)
    ctx = SymmetryContext(parse(text))
    monkeypatch.setattr(lattice, "invariant_factors", counting)
    census = ctx.fixed_census()
    assert len(counted) <= calls
    assert sum(census.values()) == abs(ctx.poly.det())


@pytest.mark.parametrize(
    "text",
    [
        "x1*x2+x2^3",
        "x1*x2+x2^3*x3+x3^2",
        "x1*x2+x2^3*x1",
        "x1^2*x2+x2*x3+x3^3*x1+x4^2",
        # exponent-1 links next to atoms, on eight and ten variables
        "x1*x2+x2^3*x3+x3^2+x4^3*x5+x5^2*x4+x6^5+x7*x8+x8^4",
        "x1^2*x2+x2*x3+x3^4+x4*x5+x5^2*x6+x6^3*x4+x7^3+x8^2*x9+x9^3*x10+x10^2",
    ],
)
def test_census_matches_mask_census_with_exponent_one_links(text):
    # blocks with an exponent 1 take the forcing rule and Smith forms
    p = parse(text)
    assert SymmetryContext(p).fixed_census() == census_by_masks(p)


@settings(max_examples=15)
@given(st.integers(0, 10**9))
def test_census_matches_mask_census_on_mixed_sums_of_up_to_ten_variables(seed):
    rng = random.Random(seed)
    p = random_invertible(rng, max_vars=10, max_det=10**12, max_atom=4)
    assert SymmetryContext(p).fixed_census() == census_by_masks(p)


@given(st.integers(0, 10**9), st.booleans())
def test_engine_classes_come_in_sorted_fixed_set_order(seed, nonstandard):
    rng = random.Random(seed)
    ctx = _random_nonsingular(rng) if nonstandard else SymmetryContext(random_invertible(rng, max_vars=8))
    if ctx is None:
        return
    census = ctx.fixed_census()
    classes = [(frozenset(j for j in range(ctx.n + 2) if mask >> j & 1), count)
               for mask, count in ctx.classes]
    assert classes == sorted(census.items(), key=lambda kv: sorted(kv[0]))


@pytest.mark.parametrize(
    "text",
    [
        "x1^7+x2^5+x3^4+x4^6+x5^3+x6^3",
        "x1^3*x2+x2^3*x3+x3^3*x4+x4^3*x5+x5^3*x6+x6^24",
        "x1^3*x2+x2^4*x3+x3^7*x4+x4^7*x5+x5^3*x6+x6^4*x1",
        "x1^2*x2+x2^3*x3+x3^2+x4^3*x5+x5^2*x6+x6^2*x4+x7^4+x8^2*x9+x9^5",
        "+".join(f"x{i}^2*x{i % 16 + 1}" for i in range(1, 17)),
    ],
)
def test_census_of_atoms_takes_no_smith_form(monkeypatch, text):
    # Fermat atoms, chains and loops with every exponent >= 2 read their
    # closed sets and counts off their shape
    def counting(m):
        raise AssertionError("an invariant factor was taken")

    ctx = SymmetryContext(parse(text))
    monkeypatch.setattr(lattice, "invariant_factors", counting)
    assert sum(ctx.fixed_census().values()) == abs(ctx.poly.det())


@settings(max_examples=30)
@given(st.integers(0, 10**9), st.data())
def test_family_line_matches_degree_and_echelon_membership(seed, data):
    # independent of the Smith route: base + c*e0 - u*1 in R forces
    # u = (base.(d0, d) + c*d0) / h, and the solutions (c, u) form a line
    # with c-step dc, so one exists iff one has c in range(dc)
    p = random_invertible(random.Random(seed))
    ctx = SymmetryContext(p)
    w = p.weights()
    degrees = (w.d0,) + tuple(w.d)
    rows = [(-1,) + tuple(a - 1 for a in row) for row in p.matrix]
    n2 = p.nvars + 1
    dc = ctx.family_step[0]

    def on_line(base, c, u):
        return member(rows, [bi + c * (j == 0) - u for j, bi in enumerate(base)])

    for _ in range(20):
        if data.draw(st.booleans()):
            # a point of some family: lattice point - c*e0 + u*1
            c, u = data.draw(st.integers(-6, 6)), data.draw(st.integers(-4, 4))
            xs = data.draw(st.lists(st.integers(-2, 2), min_size=n2 - 1, max_size=n2 - 1))
            base = [u - c * (j == 0) + sum(x * row[j] for x, row in zip(xs, rows))
                    for j in range(n2)]
        else:
            base = data.draw(st.lists(st.integers(-3, 6), min_size=n2, max_size=n2))
        line = family_line(ctx, base)
        tot = sum(bi * di for bi, di in zip(base, degrees))
        solvable = any(
            (tot + c * w.d0) % w.h == 0 and on_line(base, c, (tot + c * w.d0) // w.h)
            for c in range(dc)
        )
        assert (line is not None) == solvable
        if line is not None:
            assert on_line(base, *line)


def test_family_line_step_matches_weights():
    # the family step satisfies du/dc = d0/h after clearing common factors
    for text in (LAUFER1, "x1^2+x2^2+x3^2+x4^4", "x1^2+x2^3+x3^3+x4^6"):
        p = parse(text)
        ctx = SymmetryContext(p)
        dc, du = ctx.family_step
        w = p.weights()
        assert du * w.h == dc * w.d0
        assert dc > 0


def test_degenerate_character_guard():
    # artificial matrix whose relations span the total character rationally
    p = InvertiblePolynomial(((1, 1), (-1, -1)))
    with pytest.raises(DegenerateCharacter):
        SymmetryContext(p)


def test_guards_survive_python_optimize():
    # the guards are explicit raises, so `python -O` keeps them
    code = textwrap.dedent("""
        from mfhh.engine import BigradedTable
        from mfhh.errors import DegenerateCharacter, InputError, WindowMismatch
        from mfhh.jacobian import restrict
        from mfhh.poly import InvertiblePolynomial, parse
        from mfhh.symmetry import SymmetryContext

        checks = [
            (lambda: SymmetryContext(InvertiblePolynomial(((1, 1), (-1, -1)))),
             DegenerateCharacter),
            (lambda: BigradedTable(-2, 2, {}).restrict(-3, 2), WindowMismatch),
            (lambda: restrict(parse("x1^2+x2^3"), (3,)), InputError),
        ]
        for call, error in checks:
            try:
                call()
            except error:
                continue
            raise SystemExit(f"no {error.__name__} under -O")
    """)
    src = os.path.dirname(os.path.dirname(mfhh.__file__))
    env = dict(os.environ, PYTHONPATH=src)
    res = subprocess.run(
        [sys.executable, "-O", "-c", code], env=env, capture_output=True, text=True
    )
    assert res.returncode == 0, res.stdout + res.stderr
