import random
import re
import warnings
from collections import Counter
from fractions import Fraction
from itertools import product
from math import prod

import pytest
from hypothesis import example, given, settings, strategies as st

from basis_oracle import KEYS, basis_in, box_walk_basis, grevlex_key, lex_key
from conftest import random_invertible
from lattice_oracle import member
from mfhh import jacobian, lines
from mfhh.errors import InputError, NotIsolated
from mfhh.jacobian import (
    _divides,
    _grevlex_key,
    atom_of,
    component_variables,
    milnor_number,
    monomial_basis,
    restrict,
)
from mfhh.lattice import det
from mfhh.poly import InvertiblePolynomial, atom_walks, parse
from mfhh.symmetry import SymmetryContext

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


def test_restrict_takes_fixed_as_a_set():
    # a repeated index fixes its variable once: the ring on {x1} of
    # x1^2 + x2^3 has dimension 1, not an infinite one on (1, 1)
    p = parse("x1^2+x2^3")
    r = restrict(p, (1, 1))
    assert r == restrict(p, (1,))
    assert monomial_basis(r).dimension == 1
    with pytest.raises(InputError, match=r"^variable index out of range 1\.\.2: \(0,\)$"):
        restrict(p, (0,))


def test_monomial_basis_of_an_atom_on_other_variables_is_an_input_error():
    # an atom's walk is over columns of r.parent: ((0, 7),) is x1^7 and
    # ((1, 3),) is x2^3, so neither is a basis of the other restriction
    p = parse("x1^7+x2^3")
    assert monomial_basis(restrict(p, (1,)), (((0, 7),), False)).boxes == ((range(6),),)
    message = r"^an atom on \(1,\) is no basis of the restriction to \(2,\)$"
    with pytest.raises(InputError, match=message):
        monomial_basis(restrict(p, (2,)), (((0, 7),), False))
    with pytest.raises(InputError, match=r"restriction to \(1, 2\)$"):
        monomial_basis(restrict(p, (1, 2)), (((1, 3),), False))


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
    lex = box_walk_basis(restrict(p, {3, 4}), "lex")
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
        grevlex = monomial_basis(r)
    except NotIsolated:
        return
    assert _is_staircase(grevlex.monomials)
    lex = box_walk_basis(r, "lex")
    assert _is_staircase(lex.monomials)
    assert grevlex.dimension == lex.dimension
    # bases come in ascending grevlex order
    assert list(grevlex.monomials) == sorted(grevlex.monomials, key=grevlex_key)
    assert list(lex.monomials) == sorted(lex.monomials, key=lex_key)


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
        for m in product(*[range(a - 1) for a in exps])
    }


def test_connected_basis_is_the_grown_staircase(monkeypatch):
    # one component: the walk's tuple is the basis, with no product or sort
    r = restrict(laufer(1), {1, 2, 3})
    grown = jacobian._staircase(r.terms, len(r.fixed))
    sentinel = tuple(reversed(grown))  # not in grevlex order, so a sort would show
    monkeypatch.setattr(jacobian, "_staircase", lambda terms, nvars: sentinel)
    assert monomial_basis(r).monomials is sentinel


def test_basis_of_two_components_is_the_grown_staircase(monkeypatch):
    # the components {1, 2, 3} and {4} grow one staircase together: the
    # walk's tuple is the basis, with no product, un-interleaving or sort
    r = restrict(laufer(1), range(1, 5))
    assert component_variables(r) == [(1, 2, 3), (4,)]
    grown = jacobian._staircase(r.terms, len(r.fixed))
    sentinel = tuple(reversed(grown))
    monkeypatch.setattr(jacobian, "_staircase", lambda terms, nvars: sentinel)
    assert monomial_basis(r).monomials is sentinel


def _product_basis(r):
    """The staircase built per component: each component's staircase, multiplied, placed
    back on its variables and sorted in grevlex; () if a ring is 0, None if one is infinite."""
    found = []
    for variables in component_variables(r):
        c = restrict(r.parent, variables)
        found.append((variables, jacobian._staircase(c.terms, len(variables))))
    if () in (s for _, s in found):
        return ()
    if None in (s for _, s in found):
        return None
    monomials = [{}]
    for variables, staircase in found:
        monomials = [m | dict(zip(variables, s)) for m in monomials for s in staircase]
    return tuple(sorted((tuple(m[v] for v in r.fixed) for m in monomials), key=_grevlex_key))


@settings(max_examples=200)
@given(st.integers(0, 10**9))
@example(seed=805)  # a unit Jacobian ideal, as below
def test_staircase_of_the_whole_restriction_is_the_product_of_its_components(seed):
    # Buchberger's first criterion skips every S-pair across two components,
    # so one staircase of the restriction is the product of theirs
    rng = random.Random(seed)
    p = _random_nonstandard(rng)
    r = restrict(p, [v for v in range(1, p.nvars + 1) if rng.random() < 0.7])
    want = _product_basis(r)
    if want is None:
        with pytest.raises(NotIsolated, match=re.escape(str(jacobian.not_isolated(r.fixed)))):
            monomial_basis(r)
    else:
        assert monomial_basis(r).monomials == want


def _random_nonstandard(rng):
    """A nonsingular exponent matrix with entries 0..3 (bare linear terms and
    three-variable terms included), as `--allow-nonstandard` admits."""
    n = rng.randint(1, 4)
    while True:
        mat = tuple(tuple(rng.choice((0, 0, 1, 2, 3)) for _ in range(n)) for _ in range(n))
        if det(mat):
            return InvertiblePolynomial(mat)


def _basis_or_error(basis_fn, *args):
    try:
        b = basis_fn(*args)
    except NotIsolated as exc:
        return str(exc)
    return b.variables, b.monomials


@settings(max_examples=200)
@given(st.integers(0, 10**9), st.booleans())
@example(seed=805, nonstandard=True)  # a unit Jacobian ideal, as below
def test_grown_staircase_matches_box_walk(seed, nonstandard):
    rng = random.Random(seed)
    if nonstandard:
        p = _random_nonstandard(rng)
    else:
        p = random_invertible(rng, max_vars=5, max_det=3000)
    r = restrict(p, [v for v in range(1, p.nvars + 1) if rng.random() < 0.7])
    want = _basis_or_error(box_walk_basis, r, "grevlex")
    assert _basis_or_error(monomial_basis, r) == want
    # the lex box walk gives the same dimension or the same error
    lex = _basis_or_error(box_walk_basis, r, "lex")
    if isinstance(want, str):
        assert lex == want
    else:
        assert lex[0] == want[0] and len(lex[1]) == len(want[1])


def test_unit_jacobian_ideal_has_an_empty_staircase():
    # x2*x4^3 + x4 + x2^2*x3: d/dx4 = 1 + 3*x2*x4^2 and x2^2 lie in the ideal,
    # so 1 does and the ring is 0, finite with no standard monomial
    p = InvertiblePolynomial(((2, 2, 0, 0), (0, 1, 0, 3), (0, 0, 0, 1), (0, 2, 1, 0)))
    r = restrict(p, (2, 3, 4))
    assert monomial_basis(r).monomials == ()
    assert box_walk_basis(r, "grevlex").monomials == ()
    assert box_walk_basis(r, "lex").monomials == ()


def _atom(kind, exps):
    """One atom: x1^a1 (Fermat), x1^a1*x2 + .. + xn^an (chain) or
    x1^a1*x2 + .. + xn^an*x1 (loop)."""
    n = len(exps)
    rows = []
    for i, a in enumerate(exps):
        row = [0] * n
        row[i] = a
        if kind == "chain" and i < n - 1:
            row[i + 1] = 1
        elif kind == "loop":
            row[(i + 1) % n] += 1
        rows.append(tuple(row))
    return InvertiblePolynomial(tuple(rows))


def _line_keys(ctx, variables, monomials):
    """The multiset of line keys of monomials over the variables: their
    congruence columns mod the line moduli and u column mod L*|du|."""
    moduli = ctx.line_moduli + (ctx.line_denominator * (abs(ctx.family_step[1]) or 1),)
    keys = Counter()
    for m in monomials:
        b = [0] * (ctx.n + 2)
        for v, e in zip(variables, m):
            b[v] = e
        columns = ctx.line_columns(b)
        keys[tuple(x % q for x, q in zip(columns[:-2] + columns[-1:], moduli))] += 1
    return keys


atoms = st.one_of(
    st.tuples(st.just("fermat"), st.lists(st.integers(1, 7), min_size=1, max_size=1)),
    st.tuples(st.just("chain"), st.lists(st.integers(1, 7), min_size=1, max_size=5)),
    st.tuples(st.just("loop"), st.lists(st.integers(1, 7), min_size=2, max_size=5)),
).filter(lambda atom: prod(atom[1]) <= 4000)


@settings(max_examples=80)
@given(atoms)
@example(("chain", [1, 3, 1, 2]))  # links with a_i = 1
@example(("loop", [1, 3, 3]))
@example(("fermat", [1]))
def test_kreuzer_krawitz_boxes_match_the_staircase(atom):
    kind, exps = atom
    p = _atom(kind, exps)
    n = p.nvars
    walks = atom_walks(p.matrix)
    if walks is None:
        # a bare linear term (x1, or a chain ending in xn) is no atom
        assert atom_of(restrict(p, range(1, n + 1))) is None
        return
    if p.det() == 0:
        return  # a loop of ones in an even number of variables is singular
    ctx = SymmetryContext(p)
    (walk, loop), = walks
    # a chain's tails are chains again; a loop has no isolated restriction
    for first in range(n if kind == "chain" else 1):
        r = restrict(p, range(first + 1, n + 1))
        basis = monomial_basis(r, (walk[first:], loop))  # boxes in walk order
        assert all(len(box) == len(r.fixed) for box in basis.boxes)
        points = [m for box in basis.boxes for m in product(*box)]
        assert len(set(points)) == len(points)  # the boxes are disjoint
        staircase = monomial_basis(r).monomials
        assert len(points) == len(staircase)
        assert _line_keys(ctx, basis.variables, points) == _line_keys(ctx, r.fixed, staircase)


@pytest.mark.parametrize(
    "text",
    [
        "x1^2*x2+x2^3*x1+x3^2*x4+x4^4*x3",  # two loops: 6 * 8
        "x1^2+x2^3",  # two Fermat atoms: 1 * 2
        "x1^2*x2+x2^3*x1+x3^4",  # a loop and a Fermat atom: 6 * 3
        "x1^2*x2+x2^3+x3^2*x4+x4^5",  # two chains: 4 * 6
        "x1^2*x2+x2^3+x3^2*x4+x4^3*x3",  # a chain and a loop: 4 * 6
    ],
)
def test_atom_boxes_of_disconnected_restrictions(monkeypatch, text):
    # a closed set of a block with no atom matching takes its components'
    # bases as milnor_number does: its ring's dimension is the product of
    # their box counts, whatever their kinds, and no Buchberger runs
    p = parse(text)
    r = restrict(p, range(1, p.nvars + 1))
    mu = monomial_basis(r).dimension
    counts = [sum(prod(map(len, box)) for box in jacobian.atom_boxes(atom)) for atom in atom_walks(p.matrix)]
    assert prod(counts) == mu
    ctx = SymmetryContext(p)
    packing = lines._packing(ctx.line_denominator * (abs(ctx.family_step[1]) or ctx.family_step[0]),
                             len(ctx.line_moduli) + 1)
    full = sum(1 << v for v in r.fixed)

    def never(*args):
        raise AssertionError("Buchberger ran")

    monkeypatch.setattr(jacobian, "monomial_basis", never)
    monkeypatch.setattr(jacobian, "_groebner", never)
    # the whole matrix as one closed set of a block with no walk, at every
    # FACTOR_LIMIT that admits its variables' factors: no cap on the ring
    a = max(map(max, p.matrix))
    for limit in (a, max(a, mu - 1), max(a, mu), lines.FACTOR_LIMIT):
        monkeypatch.setattr(lines, "FACTOR_LIMIT", limit)
        rings = {}
        alternatives = lines._closed_bases(ctx, r.fixed, [full], packing, {}, rings)
        assert rings == {}
        assert sum(prod(len(entries) for _, entries in factors) for factors in alternatives) == mu


@settings(max_examples=60)
@given(st.integers(0, 10**9), st.booleans())
def test_normal_forms_of_the_boxes_are_the_staircase_on_the_same_lines(seed, ones):
    # an atom's Jacobian ideal is binomial, so on every closed set of every
    # atom block each box monomial's grevlex normal form is one term; those
    # terms are the staircase, and each differs from its box monomial by a
    # relation, so the two, with -1 on the rest of the block, share a line
    p = random_invertible(random.Random(seed), max_vars=6, max_det=3000, ones=ones)
    ctx = SymmetryContext(p)
    relations = [(-1,) + tuple(a - 1 for a in row) for row in p.matrix]
    bases = {}
    for _, closed in ctx.closed_sets:
        for mask in closed:
            r = restrict(p, [v for v in range(1, p.nvars + 1) if mask >> v & 1])
            if not r.fixed:
                continue
            walk, loop = atom_of(r)
            gens = jacobian._groebner(jacobian._jacobian_generators(r.terms, len(r.fixed)), _grevlex_key)
            forms = []
            for box in jacobian.atom_boxes((walk, loop)):
                for point in product(*box):
                    m = tuple(map(dict(zip([v + 1 for v, _ in walk], point)).get, r.fixed))
                    (form, _), = jacobian._reduce({m: Fraction(1)}, gens, _grevlex_key).items()
                    assert jacobian.normal_form(r, m, bases) == form
                    forms.append(form)
                    moved = dict(zip(r.fixed, (a - b for a, b in zip(m, form))))
                    assert member(relations, [0] + [moved.get(v, 0) for v in range(1, p.nvars + 1)])
            assert sorted(forms, key=_grevlex_key) == list(monomial_basis(r).monomials)


LOOP6 = "x1^3*x2+x2^4*x3+x3^7*x4+x4^7*x5+x5^3*x6+x6^4*x1"
CHAIN4 = "x1^12*x2+x2^12*x3+x3^7*x4+x4^13"


@pytest.mark.parametrize("text, mu", [(LOOP6, 7056), (CHAIN4, 12091)])
def test_basis_work_follows_milnor_number(monkeypatch, text, mu):
    # the bounding-box walk made 353,876 and 149,892 tests here (grevlex)
    calls = 0

    def counted(a, b):
        nonlocal calls
        calls += 1
        return _divides(a, b)

    monkeypatch.setattr(jacobian, "_divides", counted)
    p = parse(text)
    basis = monomial_basis(restrict(p, range(1, p.nvars + 1)))
    assert basis.dimension == mu
    assert calls <= p.nvars * mu


def test_milnor_number_multiplies_component_sizes(monkeypatch):
    # no product basis is built, un-interleaved or sorted to be counted:
    # each basis milnor_number asks for is one component's, and an atom's
    # comes with its atom, so it takes no Groebner basis
    solved, atoms = [], []
    basis = jacobian.monomial_basis

    def one_component(r, atom=None):
        assert len(component_variables(r)) == 1, f"a product basis on {r.fixed}"
        solved.append(r.fixed)
        atoms.append(atom)
        return basis(r, atom)

    monkeypatch.setattr(jacobian, "monomial_basis", one_component)
    assert milnor_number(parse("x1^16+x2^16+x3^16+x4^16")) == 15**4
    assert milnor_number(parse(LOOP6)) == 7056
    assert milnor_number(parse(CHAIN4)) == 12091
    assert None not in atoms and len(atoms) == 6
    # an infinite component raises, but only once every component is solved,
    # since a later one with the unit ideal would make the ring 0
    with warnings.catch_warnings():
        warnings.simplefilter("ignore")
        p = parse("x1^2*x2^2+x2^3+x3^2", allow_nonstandard=True)
        unit = parse("x1^2*x2^2+x2^3+x3", allow_nonstandard=True)
    solved.clear()
    with pytest.raises(NotIsolated) as exc:
        milnor_number(p)
    assert str(exc.value) == "Jacobian ring of the restriction to (1, 2, 3) is infinite-dimensional"
    assert solved == [(1, 2), (3,)]
    assert atoms[-2:] == [None, (((2, 2),), False)]
    assert milnor_number(unit) == 0


# perfbench's large_group anchors and a 6-variable loop
@pytest.mark.parametrize(
    "text, mu",
    [
        ("x1^2+x2^3+x3^5+x4^600", 4792),
        ("x1^11+x2^13+x3^17+x4^19", 34560),
        ("x1^6*x2+x2^7*x3+x3^8*x4+x4^9*x1", 3024),
        ("x1^3*x2+x2^3*x3+x3^3*x4+x4^3*x5+x5^3*x6+x6^24", 4369),
        (LOOP6, 7056),
    ],
)
def test_milnor_number_of_atoms_runs_no_buchberger(monkeypatch, text, mu):
    # each atom's dimension is its box count, so no staircase is grown
    def never(*args):
        raise AssertionError("a Jacobian staircase was grown")

    monkeypatch.setattr(jacobian, "_groebner", never)
    monkeypatch.setattr(jacobian, "_staircase", never)
    assert milnor_number(parse(text)) == mu


@pytest.fixture(scope="module")
def sympy():
    return pytest.importorskip("sympy")


def _sympy_staircase(sympy, r, order):
    """Standard monomials of sympy's Groebner basis of the Jacobian ideal, or
    None when some variable has no pure power among its leads."""
    xs = [sympy.Symbol(f"y{i}") for i in range(len(r.fixed))]
    f = sum(prod(x**e for x, e in zip(xs, t)) for t in r.terms)
    derivatives = [d for d in (sympy.diff(f, x) for x in xs) if d != 0]
    leads = []
    if derivatives:
        grobner = sympy.groebner(derivatives, *xs, order=order)
        leads = [g.monoms(order=order)[0] for g in grobner.polys]
    bounds = [None] * len(xs)
    for lm in leads:
        support = [k for k, e in enumerate(lm) if e]
        if len(support) == 1:
            bounds[support[0]] = lm[support[0]]
    if None in bounds:
        return None
    return {
        m
        for m in product(*[range(b) for b in bounds])
        if not any(all(a <= b for a, b in zip(lm, m)) for lm in leads)
    }


def test_sympy_orders_match_the_engine_keys(sympy):
    # checked first: on x1^3*x2+x2^3 sympy's grevlex and lex choose the same
    # leading monomials as the package's grevlex key and the test-side keys,
    # with x1 > x2
    keys = (("grevlex", _grevlex_key), ("grevlex", grevlex_key), ("lex", lex_key))
    x1, x2 = sympy.symbols("x1 x2")
    f = x1**3 * x2 + x2**3
    r = restrict(parse("x1^3*x2+x2^3"), (1, 2))
    for order, key in keys:
        for g in sympy.groebner([f.diff(x1), f.diff(x2)], x1, x2, order=order).polys:
            assert g.monoms(order=order)[0] == max(g.monoms(), key=key)
        assert set(basis_in(r, order).monomials) == _sympy_staircase(sympy, r, order)
    # and the keys agree with sympy's orders on every monomial up to degree 4
    monos = list(product(range(5), repeat=3))
    for order, key in keys:
        sympy_key = sympy.polys.orderings.monomial_key(order)
        assert sorted(monos, key=sympy_key) == sorted(monos, key=key)


@settings(max_examples=30)
@given(st.integers(0, 10**9))
def test_basis_matches_sympy_groebner(sympy, seed):
    rng = random.Random(seed)
    p = random_invertible(rng, max_vars=4, max_det=300)
    r = restrict(p, [v for v in range(1, p.nvars + 1) if rng.random() < 0.7])
    # monomial_basis in grevlex, the test-side box walk in lex
    for order in KEYS:
        want = _sympy_staircase(sympy, r, order)
        if want is None:
            with pytest.raises(NotIsolated):
                basis_in(r, order)
        else:
            assert set(basis_in(r, order).monomials) == want
