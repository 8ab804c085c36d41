import os
import random
import subprocess
import sys
import textwrap
import time
import warnings
from collections import Counter
from fractions import Fraction
from itertools import product
from math import lcm
from operator import mul

import pytest
from hypothesis import assume, example, given, settings, strategies as st

import mfhh
from conftest import random_invertible
from lattice_oracle import census_by_masks, chi_power, cramer_weights, family_line, member, quotient, smith_lines
from mfhh import cli, lattice
from mfhh.engine import BigradedTable
from mfhh.errors import DegenerateCharacter, EngineError, NoPositiveSolution
from mfhh.lattice import det, smith
from mfhh.poly import InvertiblePolynomial, WeightSystem, atom_walks, parse
from mfhh.symmetry import GroupElement, SymmetryContext

LAUFER1 = "x1^3*x2+x2^3*x3+x3^2+x4^2"


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
    # b = u*1 + x*R always has chi_power u, and powers add; R is spanned by
    # the rows r_i = (-1, a_i1 - 1, ..., a_i,n+1 - 1)
    relation_rows = [(-1, *(a - 1 for a in row)) for row in p.matrix]
    def sample(label):
        u = data.draw(st.integers(-4, 4), label=label)
        xs = data.draw(
            st.lists(st.integers(-2, 2), min_size=n1, max_size=n1), label=label + "x"
        )
        b = [u] * (n1 + 1)
        for xi, row in zip(xs, relation_rows):
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
    w = cramer_weights(p)
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
    # element for element, in order and with fixed sets, from phases mod 1
    assert ker == sorted(GroupElement.from_phases(e) for e in quot.elements())
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
        # no atom matching: every block, its Fermat atoms too, takes the Smith forms
        ("x1^3*x2^2+x2^4+x3", 10),
        ("x1^2*x2^3+x1^3+x3", 10),
        ("x1^2*x2^2+x2^3+x3+x4^3", 14),
        ("x1^3*x2^2+x2^3+x1*x3+x4^3", 12),
    ],
)
def test_census_takes_two_smith_forms_per_closed_block_set(monkeypatch, text, calls):
    # one per closed subset of each block and one with the row of ones; a
    # sum of atoms reads its closed sets off their shape and takes none; the
    # census by masks takes 126 on six variables
    def walk(self):
        raise AssertionError("ker(chi) was enumerated")

    counted = []
    factors = lattice.smith

    def counting(m):
        counted.append(m)
        return factors(m)

    monkeypatch.setattr(SymmetryContext, "_iter_ker", walk)
    with warnings.catch_warnings():
        warnings.simplefilter("ignore")
        ctx = SymmetryContext(parse(text, allow_nonstandard=True))
    monkeypatch.setattr(lattice, "smith", counting)
    census = ctx.fixed_census()
    assert bool(counted) == (atom_walks(ctx.poly.matrix) is None)
    assert len(counted) <= calls
    assert sum(census.values()) == abs(ctx.poly.det())


def _square_chain(k):
    """x1^2*x2^2 + x2^2*x3 + .. + x_(k-1)^2*x_k + x_k^3: one block with no atom matching,
    whose closed sets are the 2k sets where x_i forces x_(i+1) for 2 <= i < k."""
    return "+".join(["x1^2*x2^2"] + [f"x{i}^2*x{i + 1}" for i in range(2, k)] + [f"x{k}^3"])


@pytest.mark.parametrize("k", range(3, 11))
def test_census_matches_mask_census_on_square_chains(k):
    with warnings.catch_warnings():
        warnings.simplefilter("ignore")
        p = parse(_square_chain(k), allow_nonstandard=True)
    assert atom_walks(p.matrix) is None
    assert SymmetryContext(p).fixed_census() == census_by_masks(p)


def test_census_of_a_40_variable_square_chain_walks_no_subsets_in_a_child_process():
    # 2^40 subsets, 80 closed sets: a census that walked the subsets would
    # run out of its 1 GB or time out here instead of answering in a second
    code = textwrap.dedent(f"""
        import resource, time, warnings
        from mfhh import lattice
        from mfhh.poly import parse
        from mfhh.symmetry import SymmetryContext

        resource.setrlimit(resource.RLIMIT_AS, (1 << 30, 1 << 30))
        warnings.simplefilter("ignore")
        ctx = SymmetryContext(parse({_square_chain(40)!r}, allow_nonstandard=True))
        counted, smith = [], lattice.smith
        lattice.smith = lambda m: counted.append(m) or smith(m)
        start = time.perf_counter()
        census = ctx.fixed_census()
        seconds = time.perf_counter() - start
        assert sum(census.values()) == abs(ctx.poly.det()), census
        assert len(counted) <= 2 * 80, len(counted)
        assert seconds < 10, seconds
    """)
    src = os.path.dirname(os.path.dirname(mfhh.__file__))
    res = subprocess.run([sys.executable, "-c", code], env=dict(os.environ, PYTHONPATH=src),
                         capture_output=True, text=True, timeout=60)
    assert res.returncode == 0, res.stdout + res.stderr


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
    # an exponent 1 forces its neighbour, so the tail it ends is no closed set
    p = parse(text)
    assert SymmetryContext(p).fixed_census() == census_by_masks(p)


@settings(max_examples=15)
@given(st.integers(0, 10**9))
def test_census_matches_mask_census_on_mixed_sums_of_up_to_ten_variables(seed):
    # with links of exponent >= 2 only, and with exponent-1 links allowed
    for ones in (False, True):
        p = random_invertible(random.Random(seed), max_vars=10, max_det=10**12, max_atom=4, ones=ones)
        assert SymmetryContext(p).fixed_census() == census_by_masks(p), p.matrix


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
        # links of exponent 1
        "x1*x2+x2^3",
        "x1*x2+x2^3*x3+x3^2",
        "x1*x2+x2^3*x1",
        "x1^2*x2+x2*x3+x3^3*x1+x4^2",
        "x1*x2+x2^3*x3+x3^2+x4^3*x5+x5^2*x4+x6^5+x7*x8+x8^4",
        "x1^2*x2+x2*x3+x3^4+x4*x5+x5^2*x6+x6^3*x4+x7^3+x8^2*x9+x9^3*x10+x10^2",
    ],
)
def test_census_of_atoms_takes_no_smith_form(monkeypatch, text):
    # Fermat atoms, chains and loops read their closed sets and counts off
    # their shape, exponent-1 links included; a tail that an exponent 1
    # leaves unclosed is not listed with terms that cancel
    def counting(m):
        raise AssertionError("a Smith form was taken")

    ctx = SymmetryContext(parse(text))
    monkeypatch.setattr(lattice, "smith", counting)
    assert sum(ctx.fixed_census().values()) == abs(ctx.poly.det())
    assert all(c for _, sets in ctx.closed_sets for terms in sets.values() for _, c in terms)


def test_census_past_its_limit_is_refused_before_it_folds():
    # 21 Fermat atoms have 2^21 fixed sets: counted from the closed sets'
    # numbers and refused before one product is folded
    ctx = SymmetryContext(parse("+".join(f"x{i}^2" for i in range(1, 22))))
    start = time.perf_counter()
    with pytest.raises(EngineError, match=r"^the census would list 2097152 fixed sets, more than 2\^20$"):
        ctx.classes
    assert time.perf_counter() - start < 0.5


def test_census_of_a_62_variable_loop_folds_its_closed_sets_not_its_masks():
    # x_0..x_62 have 2^63 masks, but the loop's closed sets are only its
    # full and empty sets, so the census has 3 classes
    census = SymmetryContext(parse("+".join(f"x{i}^2*x{i % 62 + 1}" for i in range(1, 63)))).fixed_census()
    assert len(census) == 3 and sum(census.values()) == 2**62 - 1



@settings(max_examples=30)
@given(st.integers(0, 10**9), st.data())
def test_family_line_matches_degree_and_echelon_membership(seed, data):
    # independent of the Smith route: base + c*e0 - u*1 in R forces
    # u = (base.(d0, d) + c*d0) / h, and the solutions (c, u) form a line
    # with c-step dc, so one exists iff one has c in range(dc)
    p = random_invertible(random.Random(seed))
    ctx = SymmetryContext(p)
    w = cramer_weights(p)
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


@settings(max_examples=100)
@given(st.integers(0, 10**9), st.booleans())
def test_family_line_step_matches_weights(seed, ones):
    # the family step satisfies du/dc = d0/h after clearing common factors
    p = random_invertible(random.Random(seed), max_vars=7, max_det=10**6, ones=ones)
    dc, du = SymmetryContext(p).family_step
    try:
        w = cramer_weights(p)
    except NoPositiveSolution:  # an exponent-1 link can leave a weight 0, as in x1^3*x2+x2*x1
        assume(False)
    assert du * w.h == dc * w.d0
    assert dc > 0


def _weights_or_error(f):
    try:
        return f()
    except NoPositiveSolution as exc:
        return str(exc)


def test_weights_and_ker_order_off_the_factors_match_cramer_and_bareiss():
    # p.weights(), the context's weight system and the CLI document's read one
    # reading of A's cyclic factors; Cramer's rule over Bareiss determinants
    # is the oracle, with the same message when no positive system exists
    rng, seen = random.Random(46), Counter()
    for i in range(900):
        if i % 3 == 2:  # entries 0..3, most with no atom matching
            if (ctx := _random_nonsingular(rng)) is None:
                continue
        else:  # sums of atoms, exponent-1 links on every other draw
            ctx = SymmetryContext(random_invertible(rng, max_vars=6, max_det=10**6, ones=i % 3 == 1))
        p = ctx.poly
        want = _weights_or_error(lambda: cramer_weights(p))

        def document_weights():
            doc = cli._document(ctx, BigradedTable(2, 2, {}))
            assert doc["ker_chi_order"] == abs(det(p.matrix)), p.matrix
            w = doc["weights"]
            return WeightSystem(tuple(w["d"]), w["h"], w["d0"])

        got = [_weights_or_error(f) for f in (p.weights, ctx.weights, document_weights)]
        assert got == [want] * 3, p.matrix
        assert ctx.ker_chi_order == abs(det(p.matrix)), p.matrix
        seen[ctx.walks is None, isinstance(want, str)] += 1
    # atoms and no-atom matrices, each with and without a positive weight system
    assert min(seen.values()) >= 10 and len(seen) == 4, seen


def _assert_lines_match_smith(p, rng):
    """The context's line data equal those of one Smith form of [A; 1], and both sets of line
    columns put a vector on a line, the same one, exactly together."""
    ctx = SymmetryContext(p)
    step, L, moduli, invariant, congruences, c_weights, u_weights = smith_lines(p)
    assert (ctx.family_step, ctx.line_denominator, ctx.line_moduli, ctx.line_invariant) == (
        step, L, moduli, invariant), p.matrix
    (dc, du), n1 = step, p.nvars
    for _ in range(40):
        b = [rng.randint(-5, 5) for _ in range(n1 + 1)]
        if rng.random() < 0.5:  # (b0, y*A + s*1) has a family line
            y, s = [rng.randint(-3, 3) for _ in range(n1)], rng.randint(-3, 3)
            b[1:] = [sum(yi * row[j] for yi, row in zip(y, p.matrix)) + s for j in range(n1)]
        *residues, c, u = ctx.line_columns(b)
        on_line = all(x % dj == 0 for x, dj in zip(residues, moduli))
        assert on_line == all(sum(map(mul, b, w)) % dj == 0 for w, dj in zip(congruences, moduli))
        if on_line:  # the two points differ by k steps
            k, r = divmod(c - sum(map(mul, b, c_weights)), L * dc)
            assert r == 0 and u - sum(map(mul, b, u_weights)) == k * L * du, (p.matrix, b)


@settings(max_examples=200)
@given(st.integers(0, 10**9), st.booleans())
@example(seed=64, ones=False)  # d0 = 0, which few draws without exponent-1 links have
@example(seed=1, ones=True)  # d0 = 0 with exponent-1 links
@example(seed=0, ones=False)  # 7 variables, blocks of coprime and of shared orders
def test_lines_of_atoms_match_the_lines_of_one_smith_form(seed, ones):
    rng = random.Random(seed)
    _assert_lines_match_smith(random_invertible(rng, max_vars=7, max_det=10**6, ones=ones), rng)


@pytest.mark.parametrize(
    "text",
    [
        "x1^11+x2^13+x3^17+x4^19",  # coprime orders: one block by CRT, and g a unit
        "x1^2+x2^2+x3^4+x4^4",  # shared orders: a Smith form of what is left
        "x1^2+x2^2", "x1^3+x2^3+x3^3",  # d0 = 0
        "x1^3*x2+x2^2",  # one cyclic block of order 6 over a g of order 3
        "x1^3*x2+x2^2+x3^11*x4+x4^5",  # orders 6 and 55, neither g a unit: one block by CRT
        "x1*x2+x2^3*x1",  # a loop with an exponent-1 link
        "+".join(f"x{i}^2*x{i % 16 + 1}" for i in range(1, 17)),
    ],
)
def test_lines_of_chosen_atoms_match_the_lines_of_one_smith_form(text):
    _assert_lines_match_smith(parse(text), random.Random(text))


@given(st.integers(0, 10**9))
def test_lines_and_ker_of_nonstandard_matrices_match_the_oracles(seed):
    # no atom matching: the factors come from one Smith form of A, which the oracles do not read
    rng = random.Random(seed)
    checked = 0
    while checked < 5:
        ctx = _random_nonsingular(rng)
        if ctx is not None and ctx.walks is None:
            p = ctx.poly
            _assert_lines_match_smith(p, rng)
            quot = quotient(list(zip(*p.matrix)))  # the dual route: Z^n modulo the columns of A
            assert ctx.ker_chi() == sorted(GroupElement.from_phases(e) for e in quot.elements()), p.matrix
            checked += 1


@pytest.mark.parametrize(
    "text",
    [
        "x1^3*x2+x2^3*x3+x3^3*x4+x4^3*x5+x5^3*x6+x6^24",
        "x1^3*x2+x2^4*x3+x3^7*x4+x4^7*x5+x5^3*x6+x6^4*x1",
        "+".join(f"x{i}^2*x{i % 16 + 1}" for i in range(1, 17)),
        "x1^11+x2^13+x3^17+x4^19",
    ],
)
def test_context_of_one_atom_or_coprime_fermat_atoms_takes_no_smith_form(monkeypatch, text):
    # one atom is a cyclic group Z/h over g; coprime orders merge into one; ker(chi) is listed
    # off the same factors (but not the 16-loop's 65,537 elements)
    def refusing(m):
        raise AssertionError("a Smith form was taken")

    p = parse(text)
    monkeypatch.setattr(lattice, "smith", refusing)
    ctx = SymmetryContext(p)
    ker = ctx.ker_chi() if abs(p.det()) < 50000 else None
    monkeypatch.undo()
    assert (ctx.family_step, ctx.line_denominator, ctx.line_moduli, ctx.line_invariant) == smith_lines(p)[:4]
    if ker is not None:  # |det A| distinct solutions of A * phases = 0 mod 1 are all of them
        assert len(set(ker)) == len(ker) == abs(p.det()) and ker == sorted(ker)
        N = lcm(*(x.denominator for g in ker for x in g.phases))
        nums = [[x.numerator * (N // x.denominator) for x in g.phases] for g in ker]
        assert all(sum(map(mul, row, e)) % N == 0 for row in p.matrix for e in nums)


def test_context_and_ker_of_a_matrix_with_no_atom_matching_take_one_smith_form_of_a(monkeypatch):
    # the n x n form of A gives the factors of both; no (n+2) x (n+1) form of [A; 1], and none
    # per ker_chi() call
    shapes = []

    def counting(m):
        shapes.append((len(m), len(m[0])))
        return smith(m)

    with warnings.catch_warnings():
        warnings.simplefilter("ignore")
        p = parse("x1^2*x2^2+x2^3+x3+x4^3", allow_nonstandard=True)
    assert atom_walks(p.matrix) is None
    monkeypatch.setattr(lattice, "smith", counting)
    ctx = SymmetryContext(p)
    ker = ctx.ker_chi()
    ctx._ker = None
    assert ctx.ker_chi() == ker and len(ker) == abs(p.det())
    assert shapes == [(4, 4)]


@settings(max_examples=100)
@given(st.integers(0, 10**9), st.booleans())
def test_context_of_atoms_takes_no_smith_form_of_n_plus_2_rows(seed, ones):
    # only two or more blocks left after merging and dropping take one, with a row per block and g
    p = random_invertible(random.Random(seed), max_vars=7, max_det=10**6, ones=ones)
    rows = []

    def counting(m):
        rows.append(len(m))
        return smith(m)

    with pytest.MonkeyPatch.context() as mp:
        mp.setattr(lattice, "smith", counting)
        SymmetryContext(p)
    assert all(r < p.nvars + 1 for r in rows), (p.matrix, rows)


def test_degenerate_character_guard(monkeypatch):
    message = "^the total character has finite order modulo the relations$"
    # artificial matrix whose relations span the total character rationally: a 0 on A's Smith diagonal
    with pytest.raises(DegenerateCharacter, match=message):
        SymmetryContext(InvertiblePolynomial(((1, 1), (-1, -1))))

    def refusing(m):
        raise AssertionError("a Smith form was taken")

    monkeypatch.setattr(lattice, "smith", refusing)
    for rows in (
        # loops of exponent-1 links and even length: an atom matching, but h = 1 - 1 = 0 off the walk
        ((1, 1, 0, 0), (0, 1, 1, 0), (0, 0, 1, 1), (1, 0, 0, 1)),
        ((1, 1), (1, 1)),
    ):
        assert atom_walks(rows) is not None
        with pytest.raises(DegenerateCharacter, match=message):
            SymmetryContext(InvertiblePolynomial(rows))


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
            (lambda: SymmetryContext(InvertiblePolynomial(((1, 1), (1, 1)))), DegenerateCharacter),
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
