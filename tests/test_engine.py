import inspect
import io
import random
import warnings
from collections import Counter
from itertools import product

import pytest
from hypothesis import given, settings, strategies as st

from basis_oracle import basis_in
from conftest import random_invertible
from lattice_oracle import family_line, member, probe_restrictions
from mfhh import engine, jacobian, lines
from mfhh.cli import main
from mfhh.engine import (
    BigradedTable,
    Contribution,
    GammaMonomial,
    aggregate_contributions,
    class_contributions,
    compute_table,
    hh2_vanishes,
    list_contributions,
)
from mfhh.errors import InputError, MfhhError, NonterminatingFamily, NotIsolated
from mfhh.jacobian import BoxBasis, component_variables, milnor_number, monomial_basis, restrict
from mfhh.poly import parse
from mfhh.symmetry import SymmetryContext

LAUFER1 = "x1^3*x2+x2^3*x3+x3^2+x4^2"


def test_table_bp_diag():
    t = compute_table(parse("x1^2+x2^2+x3^2+x4^2"), (-12, 4))
    assert t.dim(3) == 1
    assert t.dim(2) == 0
    assert t.dim(4) == 0
    for d in range(-12, 2):
        assert t.dim(d) == 1, d


def even_series_dims(l, d):
    # closed form for x1^2+x2^2+x3^2+x4^(l+1) with l even
    if d == 3:
        return l
    if d > 2:
        return 0
    dim = 0
    q = 0
    while -q * (l + 3) >= d - l - 2:
        for r in range(l):
            if r % 2 == q % 2:
                if d == -q * (l + 3) - r:
                    dim += 1
                if d == -q * (l + 3) - r + 1:
                    dim += 1
        q += 1
    return dim


@pytest.mark.parametrize("l", [2, 4])
def test_table_even_exponent_series(l):
    p = parse(f"x1^2+x2^2+x3^2+x4^{l + 1}")
    window = (-2 * (l + 3) - l, 4)
    t = compute_table(p, window)
    for d in range(window[0], window[1] + 1):
        assert t.dim(d) == even_series_dims(l, d), d


def test_table_laufer_cells():
    t = compute_table(parse(LAUFER1), (-12, 4))
    assert t.dim(3) == 11  # 6k+5 at k=1
    assert t.cells == {
        (3, -1): 11,
        (1, 0): 1,
        (0, 0): 1,
        (-1, 4): 1,
        (-2, 4): 1,
        (-3, 6): 1,
        (-4, 6): 1,
        (-5, 8): 1,
        (-6, 8): 1,
        (-7, 10): 1,
        (-8, 10): 1,
        (-9, 12): 1,
        (-10, 12): 1,
        (-11, 16): 1,
        (-12, 16): 1,
    }


def test_table_alpha_one_two_cells():
    # x1^2+x2^2+x3^2+x4^4: weights 2,3,4,6,7,8 walk down the negative range
    t = compute_table(parse("x1^2+x2^2+x3^2+x4^4"), (-12, 4))
    assert t.cells == {
        (3, -1): 3,
        (1, 0): 1,
        (0, 0): 1,
        (-1, 2): 1,
        (-2, 2): 1,
        (-3, 3): 1,
        (-4, 3): 1,
        (-5, 4): 1,
        (-6, 4): 1,
        (-7, 6): 1,
        (-8, 6): 1,
        (-9, 7): 1,
        (-10, 7): 1,
        (-11, 8): 1,
        (-12, 8): 1,
    }


def test_laufer_degree_three_rows():
    rows = aggregate_contributions(list_contributions(parse(LAUFER1), (-12, 4)))
    deg3 = {(r["monomial"], r["type"], r["count"]) for r in rows if r["d"] == 3}
    assert deg3 == {
        ("x0^∨*x1^∨*x2^∨*x3^∨*x4^∨", "C", 8),
        ("x0^∨*x1^∨*x2^∨*x3^∨*x4^∨", "B", 1),
        ("x0^∨*x1^∨*x2^2*x4^∨", "C", 2),
    }


def test_contributions_for_single_gamma():
    p = parse(LAUFER1)
    ctx = SymmetryContext(p)
    ker = ctx.ker_chi()
    listing = list_contributions(p, (-4, 4), ctx=ctx)

    def contributions_of(gamma):
        return [c for c in listing if c.gamma == gamma]

    identity = next(g for g in ker if all(x == 0 for x in g.phases))
    cons = contributions_of(identity)
    unit = [c for c in cons if c.degree == 0]
    assert len(unit) == 1
    assert unit[0].monomial.kind == "A" and unit[0].u == 0 and unit[0].monomial.beta == 0
    # the weight-6 class in degree -4 with u = -2 comes from the identity
    deg4 = [c for c in cons if c.degree == -4]
    assert [(c.monomial.kind, c.u, c.weight) for c in deg4] == [("A", -2, 6)]
    # an element with nothing fixed carries the all-dual monomial in degree 3
    free = next(g for g in ker if g.fixed == frozenset())
    cons_free = contributions_of(free)
    assert [(c.monomial.kind, c.degree, c.u, c.monomial.b) for c in cons_free] == [
        ("C", 3, -1, (-1, -1, -1, -1, -1))
    ]
    # the table is the census-weighted merge of per-element contributions
    census = ctx.fixed_census()
    merged = Counter()
    for fixed, count in census.items():
        rep = next(g for g in ker if g.fixed == fixed)
        for c in contributions_of(rep):
            merged[(c.degree, c.weight)] += count
    assert dict(merged) == compute_table(p, (-4, 4)).cells


def test_table_complete_flag_is_window_membership():
    t = compute_table(parse(LAUFER1), (-6, 4))
    assert t.complete(-6) and t.complete(0) and t.complete(4)
    assert not t.complete(-7) and not t.complete(5)


def test_unit_contribution_in_degree_zero():
    for text in ("x1^2+x2^2+x3^2+x4^2", LAUFER1, "x1^2+x2^3+x3^3+x4^6"):
        cons = [c for c in list_contributions(parse(text), (0, 0)) if c.degree == 0]
        units = [
            c
            for c in cons
            if c.monomial.kind == "A" and c.u == 0 and c.monomial.beta == 0
        ]
        assert len(units) == 1
        assert all(x == 0 for x in units[0].gamma.phases)
        assert units[0].monomial.pattern() == "1"


def test_no_fixed_gamma_all_dual_contribution():
    # every gamma without fixed coordinates carries the all-dual monomial in
    # degree n = 3, with u = -1
    p = parse(LAUFER1)
    ctx = SymmetryContext(p)
    cons = list_contributions(p, (3, 3), ctx=ctx)
    c_type = [c for c in cons if c.monomial.kind == "C" and c.monomial.b == (-1,) * 5]
    assert len(c_type) == 8
    assert all(c.u == -1 and c.degree == 3 for c in c_type)
    free = ctx.fixed_census()[frozenset()]
    assert free == 8


def test_hh2_vanishes_summary_inputs():
    texts = [
        "x1^2+x2^2+x3^2+x4^2",
        "x1^2+x2^2+x3^3+x4^6",
        "x1^2+x2^2+x3^2*x4+x3*x4^2",
        "x1^2+x2^3+x3^3+x4^6",
        LAUFER1,
        "x1^2+x2^3+x3^4+x4^12",
        "x1^2+x2^3+x3^5+x4^30",
    ]
    for text in texts:
        assert hh2_vanishes(parse(text)), text


def test_bp_degree_three_weight_minus_one_is_milnor():
    for text in ("x1^2+x2^2+x3^2+x4^2", "x1^2+x2^3+x3^3+x4^6", "x1^2+x2^2+x3^3+x4^3"):
        p = parse(text)
        t = compute_table(p, (3, 3))
        from math import prod

        mu = prod(a - 1 for a in (row[i] for i, row in enumerate(p.matrix)))
        assert t.cells.get((3, -1), 0) == mu == milnor_number(p)


@settings(max_examples=25)
@given(st.lists(st.integers(2, 6), min_size=1, max_size=4))
def test_bp_degree_n_weight_minus_one_is_milnor_number(exps):
    # the all-dual contributions in degree n are counted by the Milnor
    # number for any Fermat sum (other weights can join in low dimensions)
    from math import prod

    p = parse("+".join(f"x{i + 1}^{a}" for i, a in enumerate(exps)))
    n = p.nvars - 1
    try:
        t = compute_table(p, (n, n))
    except NonterminatingFamily:
        assert p.weights().d0 == 0
        return
    mu = prod(a - 1 for a in exps)
    assert t.cells.get((n, -1), 0) == mu == milnor_number(p)


def test_nonterminating_family():
    p = parse("x1^2+x2^2")
    assert p.weights().d0 == 0
    with pytest.raises(NonterminatingFamily):
        compute_table(p, (0, 0))
    # windows that the constant-degree families never meet are fine
    assert compute_table(p, (2, 5)).cells == {}


def test_empty_window_is_input_error(monkeypatch):
    # raised before ker(chi) is listed or any restriction is solved
    def never(*args):
        raise AssertionError("ker(chi) was enumerated or a restriction solved")

    monkeypatch.setattr(SymmetryContext, "_iter_ker", never)
    monkeypatch.setattr(lines, "solve_restriction", never)
    p = parse("x1^11+x2^13+x3^17+x4^19")
    for call in (compute_table, list_contributions, lambda *a: list(class_contributions(*a))):
        with pytest.raises(InputError, match="empty degree window"):
            call(p, (1, 0))


def test_positive_d0_tables_are_finite():
    p = parse("x1^3")
    assert p.weights().d0 > 0
    t = compute_table(p, (-4, 4))
    assert t.cells == {(0, -1): 2, (0, 0): 1, (1, 0): 1, (2, 1): 1, (3, 1): 1, (4, 3): 1}


def assert_ab_pairing(p, window):
    # x0^beta p duals <-> x0^(beta+1) x0-dual p duals is a weight-preserving
    # bijection onto the B contributions with beta >= 1, one degree up
    dmin, dmax = window
    contribs = list_contributions(p, window)
    a = Counter(
        (c.degree, c.weight) for c in contribs if c.monomial.kind == "A"
    )
    b1 = Counter(
        (c.degree, c.weight)
        for c in contribs
        if c.monomial.kind == "B" and c.monomial.beta >= 1
    )
    for (d, q), n in a.items():
        if d + 1 <= dmax:
            assert b1[(d + 1, q)] == n, (p, d, q)
    for (d, q), n in b1.items():
        if d - 1 >= dmin:
            assert a[(d - 1, q)] == n, (p, d, q)


def test_ab_pairing_twenty_random_polynomials():
    rng = random.Random(20240)
    for _ in range(20):
        p = random_invertible(rng, max_vars=4, max_det=400)
        try:
            assert_ab_pairing(p, (-8, 4))
        except NonterminatingFamily:
            assert p.weights().d0 == 0


@settings(max_examples=15)
@given(st.integers(0, 10**9))
def test_window_restriction_consistency(seed):
    p = random_invertible(random.Random(seed), max_vars=4, max_det=300)
    try:
        big = compute_table(p, (-9, 4))
        small = compute_table(p, (-5, 2))
    except NonterminatingFamily:
        return
    assert big.restrict(-5, 2) == small


@settings(max_examples=10)
@given(st.integers(0, 10**9))
def test_basis_order_independence(seed):
    # the engine's grevlex table equals the reference table from lex bases
    p = random_invertible(random.Random(seed), max_vars=4, max_det=300)
    try:
        grevlex = compute_table(p, (-8, 4))
    except NonterminatingFamily:
        return
    assert grevlex == reference_table(p, (-8, 4), "lex")


def test_basis_order_independence_reference_inputs():
    for text in (LAUFER1, "x1^2+x2^2+x3^2*x4+x3*x4^2", "x1^2+x2^3+x3^3+x4^6"):
        p = parse(text)
        assert compute_table(p, (-10, 4)) == reference_table(p, (-10, 4), "lex")


def test_tables_listings_and_milnor_number_take_no_order():
    # tables do not depend on the basis, and grevlex is the only order
    entries = (
        compute_table,
        hh2_vanishes,
        class_contributions,
        list_contributions,
        milnor_number,
        monomial_basis,
    )
    for entry in entries:
        assert "order" not in inspect.signature(entry).parameters, entry.__name__


def test_listing_is_deterministic_and_matches_table():
    p = parse(LAUFER1)
    window = (-8, 4)
    first = list_contributions(p, window)
    second = list_contributions(p, window)
    assert [(c.gamma.phases, c.monomial, c.u, c.degree) for c in first] == [
        (c.gamma.phases, c.monomial, c.u, c.degree) for c in second
    ]
    cells = Counter((c.degree, c.weight) for c in first)
    assert dict(cells) == compute_table(p, window).cells
    # the CLI's per-class rows equal the per-element ones
    rng = random.Random(4)
    for q in [p] + [random_invertible(rng, max_vars=4, max_det=300) for _ in range(8)]:
        try:
            per_element = aggregate_contributions(list_contributions(q, window))
        except NonterminatingFamily:
            continue
        assert aggregate_contributions(class_contributions(q, window)) == per_element


def test_census_and_table_never_list_ker_chi(monkeypatch):
    # cost follows the answer, not |ker chi| = 46189
    def walk(self):
        raise AssertionError("ker(chi) was enumerated")

    monkeypatch.setattr(SymmetryContext, "_iter_ker", walk)
    p = parse("x1^11+x2^13+x3^17+x4^19")
    ctx = SymmetryContext(p)
    assert sum(ctx.fixed_census().values()) == 46189
    assert compute_table(p, (-12, 8), ctx=ctx).total() > 0
    # and neither does the CLI's --monomials listing
    argv = ["table", "--poly", LAUFER1, "--dmin", "-4", "--dmax", "4", "--monomials"]
    assert main(argv, out=io.StringIO()) == 0


def _mask(fixed):
    """The mask of a set of coordinates, bit j for x_j, as the engine's classes carry it."""
    return sum(1 << j for j in fixed)


def _fixed(mask):
    return frozenset(j for j in range(mask.bit_length()) if mask >> j & 1)


def _mask_classes(ctx):
    """The census as (mask, count) classes in sorted fixed-set order."""
    census = sorted(ctx.fixed_census().items(), key=lambda kv: sorted(kv[0]))
    return [(_mask(fixed), count) for fixed, count in census]


def _counted_solves(monkeypatch):
    """The (fixed variables, restrictions of its classes) of each join run."""
    solves = []
    solve = lines.solve_restriction

    def counted(ctx, fixed_vars, group, *args):
        solves.append((fixed_vars, {tuple(sorted(_fixed(mask) - {0})) for mask, _ in group}))
        return solve(ctx, fixed_vars, group, *args)

    monkeypatch.setattr(lines, "solve_restriction", counted)
    return solves


@pytest.mark.parametrize(
    "text, shared", [("x1^11+x2^13+x3^17+x4^19", 0), ("x1^2+x2^3+x3^5+x4^600", 7)]
)
def test_each_restriction_is_solved_once(monkeypatch, text, shared):
    # a class S and the class S + {x0} restrict w to the same variables, and
    # the classes that differ only in their Fermat atoms share one join
    solves = _counted_solves(monkeypatch)
    p = parse(text)
    ctx = SymmetryContext(p)
    restrictions = {tuple(sorted(fixed - {0})) for fixed in ctx.fixed_census()}
    assert len(ctx.fixed_census()) - len(restrictions) == shared
    for run in (compute_table, lambda *a, **k: list(class_contributions(*a, **k))):
        solves.clear()
        run(p, (-12, 8), ctx=ctx)
        assert [fixed_vars for fixed_vars, _ in solves] == [()]
        assert solves[0][1] == restrictions


@pytest.mark.parametrize(
    "text, joins",
    [
        ("+".join(f"x{i}^{2 + i % 3}" for i in range(1, 13)), [()]),  # 4,096 restrictions
        # a 2-chain's closed sets are {}, {x2} and {x1, x2}
        ("x1^3*x2+x2^4+x3^5+x4^6", [(), (1, 2), (2,)]),
    ],
)
def test_one_join_per_fixed_set_outside_the_atoms(monkeypatch, text, joins):
    solves = _counted_solves(monkeypatch)
    p = parse(text)
    ctx = SymmetryContext(p)
    compute_table(p, (-12, 8), ctx=ctx)
    assert sorted(fixed_vars for fixed_vars, _ in solves) == joins
    assert set().union(*(r for _, r in solves)) == {tuple(sorted(f - {0})) for f in ctx.fixed_census()}


def test_wide_table_builds_rows_per_found_fixed_set_not_per_class(monkeypatch):
    # a class's rows are built when a found entry first has its fixed set;
    # the 14-variable Fermat sum has 28,904 classes but few found entries
    solves = _counted_solves(monkeypatch)
    p = parse("+".join(f"x{i}^{2 + i % 3}" for i in range(1, 15)))
    ctx = SymmetryContext(p)
    assert len(ctx.fixed_census()) == 28904
    calls = []
    kinds = lines.kinds
    monkeypatch.setattr(lines, "kinds", lambda *args: calls.append(args) or kinds(*args))
    found = []
    solve = lines.solve_restriction

    def solving(*args):
        group, found_lines = solve(*args)
        found.extend(found_lines)
        return group, found_lines

    monkeypatch.setattr(lines, "solve_restriction", solving)
    compute_table(p, (-12, 8), ctx=ctx)
    assert [fixed_vars for fixed_vars, _ in solves] == [()]
    # each found fixed set S builds the rows of S + {x0} and of S; one
    # found entry of the join hits no row, so it decodes no line
    masks = {tuple(e >= 0 for e in rest) for _, _, rest, _ in found}
    assert 0 < len(calls) <= 2 * (len(masks) + 1)


# -- reference: the per-monomial walk the engine used before its line kernel --
#
# _line_t_range and _class_contributions are kept from the engine before it
# solved lines per restriction from per-component columns: one sorted basis
# per class, one family_line solve per basis monomial.  The basis is the
# package's grevlex basis or, for lex, the test-side box walk.


def _ceil_div(a, b):
    return -((-a) // b)


def _line_t_range(c0, u0, dc, du, cmin, cmax, off, dmin, dmax):
    """All t with cmin <= c(t) = c0 + t*dc <= cmax and 2*u(t) + off in
    [dmin, dmax]; cmax None leaves c unbounded above.

    dc > 0.  Raises NonterminatingFamily when c is unbounded, du == 0 and the
    (constant) degree sits inside the window: the family would contribute
    infinitely often, which only happens in the excluded d0 = 0 regime.
    """
    tlo = _ceil_div(cmin - c0, dc)
    thi = None if cmax is None else (cmax - c0) // dc
    if du == 0:
        if not dmin <= 2 * u0 + off <= dmax:
            return range(0)
        if thi is None:
            raise NonterminatingFamily(
                "a monomial family never leaves the degree window (d0 = 0)"
            )
        return range(tlo, thi + 1)
    # dmin <= 2*(u0 + t*du) + off <= dmax
    lo_num = dmin - off - 2 * u0
    hi_num = dmax - off - 2 * u0
    if du > 0:
        t1, t2 = _ceil_div(lo_num, 2 * du), hi_num // (2 * du)
    else:
        t1, t2 = _ceil_div(hi_num, 2 * du), lo_num // (2 * du)
    return range(max(tlo, t1), t2 + 1 if thi is None else min(thi, t2) + 1)


def _class_contributions(ctx, fixed, count, window, order):
    """Contributions shared by every gamma with the given fixed set, each
    standing for the class's count elements."""
    dmin, dmax = window
    n = ctx.n
    fixed_vars = tuple(sorted(v for v in fixed if v >= 1))
    k = len(fixed_vars)
    # (kind, lowest c, highest c, degree offset, beta - c); see the docstring
    if 0 in fixed:
        kinds = (("A", 0, None, n - k + 1, 0), ("B", -1, None, n - k + 2, 1))
    else:
        kinds = (("C", -1, -1, n - k + 2, None),)
    dc, du = ctx.family_step
    basis = basis_in(restrict(ctx.poly, fixed_vars), order)
    out = []
    for mono in basis.monomials:
        # the basis variables are exactly the fixed ones; the rest are duals
        exps = dict(zip(basis.variables, mono))
        rest = tuple(exps.get(j, -1) for j in range(1, n + 2))
        line = family_line(ctx, (0,) + rest)
        if line is None:
            continue
        c0, u0 = line
        for kind, cmin, cmax, off, shift in kinds:
            for t in _line_t_range(c0, u0, dc, du, cmin, cmax, off, dmin, dmax):
                c, u = c0 + t * dc, u0 + t * du
                beta = None if shift is None else c + shift
                out.append(
                    Contribution(None, GammaMonomial(kind, beta, (c,) + rest), u, 2 * u + off, count)
                )
    return out


def reference_class_contributions(p, window, order):
    if window[0] > window[1]:
        raise InputError("empty degree window")
    ctx = SymmetryContext(p)
    for fixed, count in sorted(ctx.fixed_census().items(), key=lambda kv: sorted(kv[0])):
        yield from _class_contributions(ctx, fixed, count, window, order)


def reference_table(p, window, order):
    cells = Counter()
    for con in reference_class_contributions(p, window, order):
        cells[(con.degree, con.weight)] += con.count
    return BigradedTable(*window, cells)


def reference_list_contributions(p, window, order):
    if window[0] > window[1]:
        raise InputError("empty degree window")
    ctx = SymmetryContext(p)
    by_class = {}
    out = []
    for gamma in ctx.ker_chi():
        if gamma.fixed not in by_class:
            by_class[gamma.fixed] = _class_contributions(ctx, gamma.fixed, 1, window, order)
        for con in by_class[gamma.fixed]:
            out.append(Contribution(gamma, con.monomial, con.u, con.degree))
    out.sort(
        key=lambda c: (-c.degree, c.monomial.kind, c.monomial.b, c.gamma.phases)
    )
    return out


def _outcome(call):
    """The value of call(), or the class and message of the error it raised."""
    try:
        return "value", call()
    except (MfhhError, ValueError) as exc:
        return "raised", type(exc), str(exc)


def assert_matches_reference(p, window, listing=True, table_order="lex"):
    """Tables, per-class entries (in order) and the per-element listing equal
    the reference, errors included.  The table is checked against the
    reference built from bases in table_order, which the engine's grevlex
    table must not notice; listings name grevlex basis monomials, so they
    are checked against the grevlex reference."""
    got = _outcome(lambda: compute_table(p, window))
    assert got == _outcome(lambda: reference_table(p, window, table_order))
    got = _outcome(lambda: list(class_contributions(p, window)))
    assert got == _outcome(lambda: list(reference_class_contributions(p, window, "grevlex")))
    if listing:
        got = _outcome(lambda: list_contributions(p, window))
        assert got == _outcome(lambda: reference_list_contributions(p, window, "grevlex"))
    return got[0]


windows = st.one_of(
    st.tuples(st.integers(-30, 8), st.integers(0, 24)),
    st.tuples(st.integers(-400, -100), st.integers(0, 400)),  # wide and negative
).map(lambda lo_len: (lo_len[0], lo_len[0] + lo_len[1]))


@settings(max_examples=60)
@given(st.integers(0, 10**9), windows, st.sampled_from(["grevlex", "lex"]))
def test_kernel_matches_reference(seed, window, order):
    p = random_invertible(random.Random(seed), max_vars=5, max_det=3000)
    # the per-element listing enumerates ker(chi); keep it to the small groups
    assert_matches_reference(p, window, abs(p.det()) <= 400, table_order=order)


def _component_bases(p, fixed_vars, boxes):
    """(variables, set of basis monomials) per component of the restriction:
    the points of its boxes when monomial_basis gives a BoxBasis, else its
    staircase.  The restriction's basis is the product of these."""
    found = []
    for variables in component_variables(restrict(p, fixed_vars)):
        basis = monomial_basis(restrict(p, variables), boxes)
        if isinstance(basis, BoxBasis):
            found.append((variables, {m for box in basis.boxes for m in product(*box)}))
        else:
            found.append((variables, set(basis.monomials)))
    return found


def assert_lines_decoded(p, window, boxes=False):
    """Every line of lines.restrictions is a decoded lattice point: rest is
    a basis monomial of the restriction with dual markers off it, and
    (c0, rest) - u0*(1,..,1) is in the relation lattice.  Returns the number
    of lines."""
    relations = [(-1,) + tuple(a - 1 for a in row) for row in p.matrix]
    ctx = SymmetryContext(p)
    classes = _mask_classes(ctx)
    found = 0
    for _, restriction_lines in lines.restrictions(ctx, classes, window, boxes):
        for c0, u0, rest, hits in restriction_lines:
            # a line hits only the rows of the classes S and S + {x0} of its fixed set S
            assert len(rest) == p.nvars and hits
            fixed_vars, = {tuple(sorted(_fixed(mask) - {0})) for mask, _, _ in hits}
            assert [e == -1 for e in rest] == [v not in fixed_vars for v in range(1, p.nvars + 1)]
            bases = _component_bases(p, fixed_vars, boxes)
            for variables, basis in bases:
                assert tuple(rest[v - 1] for v in variables) in basis
            assert member(relations, [b - u0 for b in (c0,) + rest])
            found += 1
    return found


@settings(max_examples=40)
@given(st.integers(0, 10**9), windows, st.booleans())
def test_kernel_lines_are_decoded_lattice_points(seed, window, boxes):
    p = random_invertible(random.Random(seed), max_vars=5, max_det=3000)
    assert_lines_decoded(p, window, boxes)


def test_kernel_lines_are_decoded_lattice_points_on_fixed_inputs():
    for text in (LAUFER1, "x1^3*x2+x2^4*x3+x3^2*x1+x4^3", "x1^2*x2+x2^3*x3+x3^4+x4^5+x5^2"):
        for boxes in (False, True):
            assert assert_lines_decoded(parse(text), (-40, 8), boxes) > 0


def _solved(solve, ctx, classes, window, boxes):
    """The multiset of (c0, u0, rest, rows hit) over the lines that solve
    yields, and the class and message of the MfhhError raised in solving or
    in reading the lines' points in the window as compute_table does, else
    None.  An error in solving leaves no lines: which lines come before it
    depends on how solve groups the classes into joins."""
    found, error = Counter(), None
    try:
        for _, lines_found in solve(ctx, classes, window, boxes):
            found.update((c0, u0, rest, frozenset(hits)) for c0, u0, rest, hits in lines_found)
    except MfhhError as exc:
        return Counter(), (type(exc), str(exc))
    try:
        for c0, u0, _, hit in found:
            for _, _, kind in hit:
                lines.t_range(c0, u0, ctx.family_step, kind, window)
    except MfhhError as exc:
        error = (type(exc), str(exc))
    return found, error


@settings(max_examples=150)
@given(st.integers(0, 10**9), st.booleans(), st.booleans(), st.integers(-16, 8), st.integers(0, 6),
       st.booleans())
def test_range_join_matches_probe_join(seed, nonstandard, boxes, dmax, length, wide):
    # short windows, windows longer than 2*|du| (every residue of u), both
    # signs of du, and du == 0, where both raise when the points are read
    rng = random.Random(seed)
    p = _nonstandard(rng) if nonstandard else random_invertible(rng, max_vars=5, max_det=1500)
    try:
        ctx = SymmetryContext(p)
    except MfhhError:
        return
    du = ctx.family_step[1]
    window = (dmax - length - wide * (2 * abs(du) + 1 + rng.randrange(2 * abs(du) + 1)), dmax)
    assert_range_join_matches_probe_join(ctx, window, boxes)


def _probe_join(ctx, classes, window, boxes=False):
    """lattice_oracle.probe_restrictions in the shape of lines.restrictions:
    each restriction's (mask, count) classes, and each line with the rows it
    hits.  The oracle takes and gives its classes as frozensets."""
    sets = [(_fixed(mask), count) for mask, count in classes]
    for rows, found in probe_restrictions(ctx, sets, window, boxes):
        rows = [(_mask(fixed), count, kind) for fixed, count, kind in rows]
        group = list(dict.fromkeys((mask, count) for mask, count, _ in rows))
        yield group, [(c0, u0, rest, [rows[i] for i in hits]) for c0, u0, rest, hits in found]


def assert_range_join_matches_probe_join(ctx, window, boxes):
    classes = _mask_classes(ctx)
    got = _solved(lines.restrictions, ctx, classes, window, boxes)
    assert got == _solved(_probe_join, ctx, classes, window, boxes)
    return got


@pytest.mark.parametrize(
    "text, sign",
    [("x1^11+x2^13+x3^17", 1), ("x1^3*x2+x2^3*x3+x3^2+x4^2", -1), ("x1^2+x2^2", 0), ("x1^3+x2^3+x3^3", 0)],
)
def test_range_join_matches_probe_join_on_each_sign_of_du(text, sign):
    ctx = SymmetryContext(parse(text))
    du = ctx.family_step[1]
    assert (du > 0) - (du < 0) == sign
    errors = set()
    for window in ((-12, 8), (3, 3), (-4 * abs(du) - 7, 5)):
        for boxes in (False, True):
            solved, error = assert_range_join_matches_probe_join(ctx, window, boxes)
            assert solved
            errors.add(error and error[0])
    # with du == 0 a family whose degree lies in the window never leaves it
    assert (NonterminatingFamily in errors) == (du == 0) and errors <= {None, NonterminatingFamily}


@settings(max_examples=40)
@given(st.integers(0, 10**9), st.sampled_from([(-12, 8), (-4000, 8)]))
def test_tables_and_listings_match_the_probe_join(seed, window):
    # one join per fixed set outside the Fermat atoms, against one probe
    # join per restriction; random_invertible mixes atoms, chains and loops
    p = random_invertible(random.Random(seed), max_vars=8, max_det=3000)
    ctx = SymmetryContext(p)

    def solve():
        return compute_table(p, window, ctx=ctx), list(class_contributions(p, window, ctx=ctx))

    got = _outcome(solve)
    with pytest.MonkeyPatch.context() as patch:
        patch.setattr(engine, "restrictions", _probe_join)
        assert got == _outcome(solve)


def _divisors(N):
    small = [q for q in range(1, int(N**0.5) + 1) if N % q == 0]
    return sorted({*small, *(N // q for q in small)})


@settings(max_examples=200)
@given(st.integers(1, 24), st.integers(-1, 1), st.data())
def test_packed_keys_add_and_negate_as_residue_tuples(bits, offset, data):
    # N one below, at and one above a power of two; each field's modulus
    # divides N and its residue r is packed as r * N/q, as solve_restriction
    # packs the line columns
    N = max(1, 2**bits + offset)
    moduli = data.draw(st.lists(st.sampled_from(_divisors(N)), min_size=1, max_size=4))
    packing = lines._packing(N, len(moduli))
    _, w, _, each = packing
    residues = st.tuples(*(st.integers(0, q - 1) for q in moduli))
    a, b = data.draw(residues), data.draw(residues)

    def pack(rs):
        return sum((r % q) * (N // q) << i * w for i, (r, q) in enumerate(zip(rs, moduli)))

    factors = [((), [(pack(a), (), 0)]), ((), [(pack(b), (), 0)])]
    assert lines._product(factors, packing) == [(pack([x + y for x, y in zip(a, b)]), (), 0)]
    assert lines._canonical(each - pack(a), packing) == pack([-x for x in a])
    # a probe's wanted key: the negation of a sum
    assert lines._canonical(pack(a) + each - pack(b), packing) == pack([x - y for x, y in zip(a, b)])


@pytest.mark.parametrize(
    "text, moduli, N",
    [
        ("x1^2+x2^2+x3^2*x4+x3*x4^2", (2,), 8),
        ("x1^3*x2+x2^2*x3+x3^2*x4+x4^2", (8,), 8),
        ("x1^3*x2+x2^3*x3+x3^2+x4^2", (2,), 16),
    ],
)
def test_range_join_matches_probe_join_when_n_is_a_power_of_two(text, moduli, N):
    # N = L*|du| is a power of two, so a field of a sum of keys reaches the
    # bit just below the field's top bit
    ctx = SymmetryContext(parse(text))
    assert (ctx.line_moduli, ctx.line_denominator * abs(ctx.family_step[1])) == (moduli, N)
    for window in ((-12, 8), (-2000, 8)):
        for boxes in (False, True):
            solved, error = assert_range_join_matches_probe_join(ctx, window, boxes)
            assert solved and error is None


def test_kernel_unit_component_leaves_no_line_next_to_an_infinite_one():
    # {x1, x2} alone is never isolated; x3 bare makes its ideal, so the ring, 0
    with warnings.catch_warnings():
        warnings.simplefilter("ignore")
        zero = parse("x1^2*x2^2+x2^3+x3", allow_nonstandard=True)
        infinite = parse("x1^2*x2^2+x2^3+x3^2", allow_nonstandard=True)
    group = [(_mask({1, 2, 3}), 1)]
    rows, found = lines.solve_restriction(SymmetryContext(zero), (1, 2, 3), group, (-10, 10), {})
    assert len(rows) == 1 and found == []
    with pytest.raises(NotIsolated, match=r"restriction to \(1, 2, 3\) is infinite"):
        lines.solve_restriction(SymmetryContext(infinite), (1, 2, 3), group, (-10, 10), {})


def test_not_isolated_names_the_first_failing_class_with_its_atoms():
    # x3^3 is an atom, so one join serves every class that fixes x1 and x2;
    # the error still names the whole restriction of the first such class
    with warnings.catch_warnings():
        warnings.simplefilter("ignore")
        p = parse("x1^2*x2+x3^3+x1^2", allow_nonstandard=True)
    for call in (compute_table, list_contributions, lambda *a: list(class_contributions(*a))):
        with pytest.raises(NotIsolated, match=r"restriction to \(1, 2, 3\) is infinite"):
            call(p, (-10, 0))


@pytest.mark.parametrize(
    "text, sign",
    [
        ("x1^2+x2^3+x3^5+x4^7", -1),  # d0 < 0
        ("x1^11+x2^13+x3^17", 1),  # d0 > 0
        (LAUFER1, -1),
        ("x1^3*x2+x2^4*x3+x3^2*x1+x4^3", -1),  # a loop next to a Fermat atom
        ("x1^2*x2+x2^3*x3+x3^4+x4^5+x5^2", -1),  # a chain, three Fermat atoms
    ],
)
@pytest.mark.parametrize("order", ["grevlex", "lex"])
def test_kernel_matches_reference_across_d0_and_kinds(text, sign, order):
    p = parse(text)
    d0 = p.weights().d0
    assert (d0 > 0) - (d0 < 0) == sign
    # kind C: classes without x0 exist, and some land in a wide window
    ctx = SymmetryContext(p)
    assert any(0 not in fixed for fixed in ctx.fixed_census())
    for window in ((-12, 8), (-200, 3), (3, 3), (5, 5)):
        assert assert_matches_reference(p, window, abs(p.det()) <= 400, order) == "value"
    # an empty window is an InputError for tables and both listings
    assert_matches_reference(p, (1, 0), abs(p.det()) <= 400, order)
    with pytest.raises(InputError):
        compute_table(p, (1, 0))
    kinds = {c.monomial.kind for c in class_contributions(p, (-200, 8))}
    assert kinds == {"A", "B", "C"}


@pytest.mark.parametrize("text", ["x1^2+x2^2", "x1^2+x2^4+x3^4", "x1^3+x2^3+x3^3"])
def test_kernel_matches_reference_when_d0_is_zero(text):
    p = parse(text)
    assert p.weights().d0 == 0
    for window in ((0, 0), (-6, 4), (2, 5)):
        assert_matches_reference(p, window)
    with pytest.raises(NonterminatingFamily):
        compute_table(p, (-6, 4))


# perfbench's large_group anchors, then a 6-variable loop and a 4-variable
# chain with Milnor numbers 7056 and 12091
BOX_TABLE_INPUTS = (
    "x1^2+x2^3+x3^5+x4^600",
    "x1^11+x2^13+x3^17+x4^19",
    "x1^6*x2+x2^7*x3+x3^8*x4+x4^9*x1",
    "x1^3*x2+x2^3*x3+x3^3*x4+x4^3*x5+x5^3*x6+x6^24",
    "x1^3*x2+x2^4*x3+x3^7*x4+x4^7*x5+x5^3*x6+x6^4*x1",
    "x1^12*x2+x2^12*x3+x3^7*x4+x4^13",
)


@pytest.mark.parametrize("text", BOX_TABLE_INPUTS)
def test_standard_tables_run_no_buchberger(monkeypatch, text):
    # tables read the Kreuzer-Krawitz boxes of the atoms; no staircase is grown
    p = parse(text)
    window = (-12, 8)
    expected = reference_table(p, window, "lex"), reference_table(p, (2, 2), "lex").total() == 0

    def never(*args):
        raise AssertionError("a Jacobian staircase was grown")

    monkeypatch.setattr(jacobian, "_groebner", never)
    monkeypatch.setattr(jacobian, "_basis_cached", never)
    assert (compute_table(p, window), hh2_vanishes(p)) == expected


def test_range_join_builds_few_products_whatever_the_window(monkeypatch):
    # the planner charges a smaller-side product a constant, not the
    # window's wanted keys: the wanted-key probe join built 7,502 entries
    built = []
    build = lines._product

    def counted(factors, moduli):
        out = build(factors, moduli)
        built.append(len(out))
        return out

    monkeypatch.setattr(lines, "_product", counted)
    for text in BOX_TABLE_INPUTS[:4]:  # the large_group benchmark's anchors
        compute_table(parse(text), (-12, 8))
    assert sum(built) < 2500
    counts = []
    for window in ((-12, 8), (-4000, 8)):
        built.clear()
        compute_table(parse(BOX_TABLE_INPUTS[0]), window)
        counts.append(sum(built))
    assert counts[0] == counts[1]


def _nonstandard(rng):
    """A nonsingular exponent matrix that need not be a sum of atoms."""
    while True:
        n = rng.randint(2, 4)
        rows = [[rng.choice((0, 0, 1, 2, 3)) for _ in range(n)] for _ in range(n)]
        text = "+".join(
            "*".join(f"x{j + 1}^{e}" for j, e in enumerate(row) if e) for row in rows if any(row)
        )
        try:
            with warnings.catch_warnings():
                warnings.simplefilter("ignore")
                p = parse(text, allow_nonstandard=True)
            SymmetryContext(p)
        except MfhhError:
            continue
        if abs(p.det()) <= 200:
            return p


def test_kernel_matches_reference_on_nonstandard_inputs():
    rng = random.Random(8)
    raised = Counter()
    for _ in range(60):
        p = _nonstandard(rng)
        window = (-10, 6)
        order = rng.choice(["grevlex", "lex"])  # of the reference table's bases
        if assert_matches_reference(p, window, table_order=order) == "raised":
            raised[_outcome(lambda: compute_table(p, window))[1]] += 1
    # the same first restriction is named as infinite-dimensional
    assert raised[NotIsolated] >= 5
