import inspect
import io
import random
import re
import time
import warnings
from collections import Counter
from itertools import product

import pytest
from hypothesis import example, given, settings, strategies as st

from basis_oracle import basis_in
from conftest import random_invertible, triangles
from lattice_oracle import family_line, member, probe_restriction
from mfhh import engine, jacobian, lines, poly, symmetry
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
from mfhh.errors import EngineError, InputError, MfhhError, NonterminatingFamily, NotIsolated
from mfhh.jacobian import BoxBasis, atom_of, component_variables, milnor_number, monomial_basis, restrict
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
    # raised before ker(chi) is listed or the join runs
    def never(*args):
        raise AssertionError("ker(chi) was enumerated or the join run")

    monkeypatch.setattr(SymmetryContext, "_iter_ker", never)
    monkeypatch.setattr(engine, "join", never)
    p = parse("x1^11+x2^13+x3^17+x4^19")
    for call in (compute_table, list_contributions, lambda *a: list(class_contributions(*a))):
        with pytest.raises(InputError, match="empty degree window"):
            call(p, (1, 0))


def test_a_table_of_an_empty_window_is_input_error():
    # as compute_table refuses one: a restriction past the table's top, or a table built so
    t = compute_table(parse("x1^3*x2+x2^3*x3+x3^2+x4^2"), (-12, 4))
    for make in (lambda: t.restrict(0, -1), lambda: BigradedTable(0, -1), lambda: BigradedTable(3, 2, {})):
        with pytest.raises(InputError, match="^empty degree window$"):
            make()
    assert t.restrict(0, 0).window == (0, 0)


def test_context_of_another_polynomial_is_input_error():
    # past the check every entry point reads only ctx: this one would give x1^2+x2^3+x3^7's table
    p, ctx = parse("x1^2+x2^5+x3^7"), SymmetryContext(parse("x1^2+x2^3+x3^7"))
    calls = (compute_table, list_contributions, lambda p, window, ctx: list(class_contributions(p, window, ctx)))
    for call in calls:
        with pytest.raises(InputError, match="^the context was built for another polynomial$"):
            call(p, (-6, 4), ctx=ctx)
    with pytest.raises(InputError, match="^the context was built for another polynomial$"):
        hh2_vanishes(p, ctx=ctx)
    assert compute_table(p, (-6, 4), ctx=SymmetryContext(parse("x1^2+x2^5+x3^7"))) == compute_table(p, (-6, 4))


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


def _counted_joins(monkeypatch):
    """The window of each join the engine runs."""
    joins = []
    run = engine.join

    def counted(ctx, window):
        joins.append(window)
        return run(ctx, window)

    monkeypatch.setattr(engine, "join", counted)
    return joins


def _forbid_census(patch):
    """Make SymmetryContext.classes and fixed_census raise: a table or a listing counts only the
    fixed sets its join finds."""
    def never(*args):
        raise AssertionError("the census was read")

    patch.setattr(SymmetryContext, "classes", property(never))
    patch.setattr(SymmetryContext, "fixed_census", never)


def _sum(atom, k):
    """The sum of k copies of atom on disjoint variables, atom's x1, x2, .. renamed."""
    size = max(map(int, re.findall(r"x(\d+)", atom)))
    return "+".join(re.sub(r"x(\d+)", lambda m: f"x{int(m[1]) + i * size}", atom) for i in range(k))


@pytest.mark.parametrize(
    "text, shared", [("x1^11+x2^13+x3^17+x4^19", 0), ("x1^2+x2^3+x3^5+x4^600", 7)]
)
def test_each_restriction_is_solved_once(monkeypatch, text, shared):
    # a class S and the class S + {x0} restrict w to the same variables, and
    # one join solves every restriction, a table's and a listing's alike,
    # counting the fixed sets it finds
    joins = _counted_joins(monkeypatch)
    p = parse(text)
    ctx = SymmetryContext(p)
    restrictions = {tuple(sorted(fixed - {0})) for fixed in ctx.fixed_census()}
    assert len(ctx.fixed_census()) - len(restrictions) == shared
    with pytest.MonkeyPatch.context() as patch:
        _forbid_census(patch)
        compute_table(p, (-12, 8), ctx=ctx)
        assert joins == [(-12, 8)]
        joins.clear()
        list(class_contributions(p, (-12, 8), ctx=ctx))
    assert joins == [(-12, 8)]


@pytest.mark.parametrize(
    "text",
    [
        "x1^3*x2+x2^4+x3^5+x4^6",  # a 2-chain's closed sets are {}, {x2} and {x1, x2}
        "+".join(f"x{i}^{2 + i % 3}" for i in range(1, 13)),  # 4,096 fixed sets
        _sum("x1^2*x2+x2^3", 4),  # 81 fixed sets
        _sum("x1^2*x2+x2^3*x1", 3),
    ],
)
def test_one_join_per_table_and_per_listing(monkeypatch, text):
    # every block's closed sets are alternatives of one join, a table's and
    # a listing's alike, with no census
    joins = _counted_joins(monkeypatch)
    p = parse(text)
    ctx = SymmetryContext(p)
    with pytest.MonkeyPatch.context() as patch:
        _forbid_census(patch)
        compute_table(p, (-12, 8), ctx=ctx)
        assert joins == [(-12, 8)]
        joins.clear()
        list(class_contributions(p, (-12, 8), ctx=ctx))
    assert joins == [(-12, 8)]


def test_wide_table_builds_rows_per_found_fixed_set_not_per_class(monkeypatch):
    # a class's rows are built when a found entry first has its fixed set;
    # the 14-variable Fermat sum has 28,904 classes but few found entries
    p = parse("+".join(f"x{i}^{2 + i % 3}" for i in range(1, 15)))
    ctx = SymmetryContext(p)
    assert len(ctx.fixed_census()) == 28904
    # every block is a Fermat atom, so a listing's join is the table's; its
    # runs name the found fixed sets (the probe join takes about 10 s here,
    # one join per restriction)
    found, errors = lines.join(ctx, (-12, 8))
    assert errors == {}
    calls = []
    kinds = lines.kinds
    monkeypatch.setattr(lines, "kinds", lambda *args: calls.append(args) or kinds(*args))
    joins = _counted_joins(monkeypatch)
    table = compute_table(p, (-12, 8), ctx=ctx)
    assert len(joins) == 1
    assert Counter(table.runs) == Counter(run[:4] for run in found)
    # each found fixed set S builds the rows of S + {x0} and of S; one
    # found entry of the join hits no row, so it gives no run
    masks = {mask & ~1 for _, _, _, _, (mask, _, _), *_ in found}
    assert 0 < len(calls) <= 2 * (len(masks) + 1)


@settings(max_examples=60)
@given(st.integers(0, 10**9), st.sampled_from(["atoms", "ones", "blocks", "nonstandard"]))
def test_fixed_counts_are_the_census(seed, draw):
    # a table counts each fixed set it finds from the terms of its blocks'
    # closed sets: the census's count for every class, and 0 for every other mask
    rng = random.Random(seed)
    if draw == "blocks":
        p = _chains_and_loops(rng)
    elif draw == "nonstandard":
        p = _nonstandard(rng)
    else:
        p = random_invertible(rng, max_vars=8, max_det=3000, ones=draw == "ones")
    ctx = SymmetryContext(p)
    census = dict(ctx.classes)
    for mask in range(0, 1 << ctx.n + 2, 2):  # the fixed sets of x_1..x_{n+1}
        assert ctx.fixed_counts(mask) == (census.get(mask | 1, 0), census.get(mask, 0))


def test_table_of_18_squares_has_the_runs_of_the_census_join():
    # 2^18 fixed sets fit under CENSUS_LIMIT, so the census route still runs
    # beside the table's, which counts only the fixed sets its join finds
    p = parse("+".join(f"x{i}^2" for i in range(1, 19)))
    ctx = SymmetryContext(p)
    found, errors = lines.join(ctx, (-12, 8))
    assert errors == {} and found
    with pytest.MonkeyPatch.context() as patch:
        _forbid_census(patch)
        table = compute_table(p, (-12, 8))
    assert Counter(table.runs) == Counter(run[:4] for run in found)



@pytest.mark.parametrize("n, window", [(18, (-12, 8)), (24, (-2, 2))])
def test_wide_listings_take_no_census_and_match_the_table(n, window):
    # 2^18 and 2^24 fixed sets: a listing, like a table, counts only the
    # fixed sets its join finds, and its counts add up to the table's cells
    p = parse("+".join(f"x{i}^2" for i in range(1, n + 1)))
    with pytest.MonkeyPatch.context() as patch:
        _forbid_census(patch)
        rows = aggregate_contributions(class_contributions(p, window))
        table = compute_table(p, window)
    cells = Counter()
    for row in rows:
        cells[row["d"], row["q"]] += row["count"]
    assert table.cells and dict(cells) == table.cells


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


def _line_runs(ctx, found, window, errors):
    """The runs of (c0, u0, rest, rows) lines in the shape of lines.join:
    per row hit, (degree, c, points, count) of its points in the window by
    _line_t_range from the lowest degree, the row, and the line's exponents
    on x_1..x_{n+1}.  A row whose family never leaves the window gives no
    run and records NonterminatingFamily for its class in errors."""
    dc, du = ctx.family_step
    variables = tuple(range(1, ctx.n + 2))
    out = []
    for c0, u0, rest, hits in found:
        for row in hits:
            _, count, (_, cmin, cmax, off, _) = row
            try:
                ts = _line_t_range(c0, u0, dc, du, cmin, cmax, off, *window)
            except NonterminatingFamily:
                errors.setdefault(row[0], NonterminatingFamily)
                continue
            if ts:
                t = ts[0] if du >= 0 else ts[-1]
                out.append((2 * (u0 + t * du) + off, c0 + t * dc, len(ts), count, row, variables, rest, ()))
    return out


def _rest(ctx, variables, exps, exps2):
    """The exponents of x_1..x_{n+1} of a run's monomial, -1 off its variables."""
    rest = [-1] * (ctx.n + 1)
    for v, e in zip(variables, exps + exps2):
        rest[v - 1] = e
    return tuple(rest)


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


def _component_bases(p, fixed_vars):
    """(variables, set of basis monomials) per component of the restriction:
    the points of an atom's boxes, else its staircase.  The restriction's
    basis is the product of these, as the join's is."""
    found = []
    for variables in component_variables(restrict(p, fixed_vars)):
        r = restrict(p, variables)
        basis = monomial_basis(r, atom_of(r))
        if isinstance(basis, BoxBasis):  # its points over the walk's variables, mapped to r.fixed
            found.append((variables, {tuple(map(dict(zip(basis.variables, m)).get, variables))
                                      for box in basis.boxes for m in product(*box)}))
        else:
            found.append((variables, set(basis.monomials)))
    return found


def assert_lines_decoded(p, window):
    """Every run of lines.join starts at a decoded lattice point: its
    monomial is a basis monomial of the restriction with dual markers off
    it, and its first point (c, rest) - u*(1,..,1) is in the relation
    lattice.  The runs must be those of the probe join's lines.  Returns
    the number of runs."""
    relations = [(-1,) + tuple(a - 1 for a in row) for row in p.matrix]
    ctx = SymmetryContext(p)
    found, _ = lines.join(ctx, window)
    for d, c, points, _, (mask, _, (_, cmin, _, off, _)), *monomial in found:
        rest = _rest(ctx, *monomial)
        assert window[0] <= d <= window[1] and c >= cmin and points > 0
        fixed_vars = tuple(sorted(_fixed(mask) - {0}))
        assert [e == -1 for e in rest] == [v not in fixed_vars for v in range(1, p.nvars + 1)]
        for variables, basis in _component_bases(p, fixed_vars):
            assert tuple(rest[v - 1] for v in variables) in basis
        assert member(relations, [b - (d - off) // 2 for b in (c,) + rest])
    assert_range_join_matches_probe_join(ctx, window)
    return len(found)


@settings(max_examples=40)
@given(st.integers(0, 10**9), windows, st.booleans())
def test_kernel_lines_are_decoded_lattice_points(seed, window, nonstandard):
    # each component joins an atom's boxes, or else its staircase
    rng = random.Random(seed)
    p = _nonstandard(rng) if nonstandard else random_invertible(rng, max_vars=5, max_det=3000)
    assert_lines_decoded(p, window)


def test_kernel_lines_are_decoded_lattice_points_on_fixed_inputs():
    for text in (LAUFER1, "x1^3*x2+x2^4*x3+x3^2*x1+x4^3", "x1^2*x2+x2^3*x3+x3^4+x4^5+x5^2"):
        assert assert_lines_decoded(parse(text), (-40, 8)) > 0


def _solved(solve, ctx, classes, window):
    """The multiset of the runs that solve finds, each with its monomial's
    exponents on x_1..x_{n+1}, and the class and message of the first error
    in class order, else None."""
    found, errors = solve(ctx, classes, window)
    found = Counter((*run[:5], _rest(ctx, *run[5:])) for run in found)
    if not errors:
        return found, None
    first = lines.first_error(ctx, errors, [mask for mask, _ in classes].index)
    return found, (type(first), str(first))


@settings(max_examples=150)
@given(st.integers(0, 10**9), st.booleans(), st.integers(-16, 8), st.integers(0, 6), st.booleans())
def test_range_join_matches_probe_join(seed, nonstandard, dmax, length, wide):
    # short windows, windows longer than 2*|du| (every residue of u), both
    # signs of du, and du == 0, where both raise for a family that never
    # leaves the window
    rng = random.Random(seed)
    p = _nonstandard(rng) if nonstandard else random_invertible(rng, max_vars=5, max_det=1500)
    try:
        ctx = SymmetryContext(p)
    except MfhhError:
        return
    du = ctx.family_step[1]
    window = (dmax - length - wide * (2 * abs(du) + 1 + rng.randrange(2 * abs(du) + 1)), dmax)
    assert_range_join_matches_probe_join(ctx, window)


def _probe_join(ctx, classes, window):
    """lattice_oracle.probe_restriction in the shape of lines.join, one
    probe join per restriction: the runs of its lines (_line_runs), and
    {mask: error class} for the first class of the first restriction whose
    ring is infinite and for each class with a family that never leaves the
    window, and no run when du != 0 and a class is not isolated, as the
    join gives none then.  The oracle reads each component's basis as the
    join does, boxes for an atom and else a staircase, takes and gives its
    classes as frozensets, and takes the census when handed no classes, as
    a table's join is."""
    groups, found, errors, cache = {}, [], {}, {}
    for mask, count in ctx.classes if classes is None else classes:
        groups.setdefault(mask & ~1, []).append((_fixed(mask), count))
    for fixed, group in groups.items():
        try:
            fixed_vars = tuple(sorted(_fixed(fixed)))
            rows, lines_found = probe_restriction(ctx, fixed_vars, group, window, cache)
        except NotIsolated:
            errors.setdefault(_mask(group[0][0]), NotIsolated)
            continue
        rows = [(_mask(fixed), count, kind) for fixed, count, kind in rows]
        lines_found = [(c0, u0, rest, [rows[i] for i in hits]) for c0, u0, rest, hits in lines_found]
        found += _line_runs(ctx, lines_found, window, errors)
    return ([] if ctx.family_step[1] and NotIsolated in errors.values() else found), errors


def assert_range_join_matches_probe_join(ctx, window):
    classes = _mask_classes(ctx)
    got = _solved(lambda ctx, _, window: lines.join(ctx, window), ctx, classes, window)
    assert got == _solved(_probe_join, ctx, classes, window)
    return got


@pytest.mark.parametrize(
    "text, sign",
    [("x1^11+x2^13+x3^17", 1), ("x1^3*x2+x2^3*x3+x3^2+x4^2", -1), ("x1^2+x2^2", 0), ("x1^3+x2^3+x3^3", 0),
     ("x1^2+x2^4+x3^4", 0)],  # its kind C lines meet the window off c = -1 (mod dc)
)
def test_range_join_matches_probe_join_on_each_sign_of_du(text, sign):
    ctx = SymmetryContext(parse(text))
    du = ctx.family_step[1]
    assert (du > 0) - (du < 0) == sign
    errors = set()
    for window in ((-12, 8), (3, 3), (-4 * abs(du) - 7, 5)):
        solved, error = assert_range_join_matches_probe_join(ctx, window)
        # with du == 0 a window may hold no point but those of the stuck families
        assert solved or du == 0
        errors.add(error and error[0])
    # with du == 0 a family whose degree lies in the window never leaves it
    assert (NonterminatingFamily in errors) == (du == 0) and errors <= {None, NonterminatingFamily}


def _chains_and_loops(rng):
    """A sum of 2 to 4 chains or loops of 2 or 3 variables, at most 8 in
    all, on shuffled variables; every exponent but a chain's last may be 1."""
    while True:
        atoms, nvars = [], 0
        while len(atoms) < 4 and nvars + (size := rng.randint(2, 3)) <= 8:
            loop = rng.random() < 0.5
            exps = [rng.randint(1, 4) for _ in range(size - 1)] + [rng.randint(2 - loop, 4)]
            atoms.append((range(nvars, nvars + size), exps, loop))
            nvars += size
        name = rng.sample(range(1, nvars + 1), nvars)
        # x_v^a times the next variable of its chain or loop, if any
        links = [(v, a, v + 1 if v + 1 in vs else vs[0] if loop else None) for vs, exps, loop in atoms
                 for v, a in zip(vs, exps)]
        terms = [f"x{name[v]}^{a}" + ("" if w is None else f"*x{name[w]}") for v, a, w in links]
        try:
            p = parse("+".join(terms))
        except MfhhError:  # a singular loop
            continue
        if abs(p.det()) <= 5000:
            return p


@settings(max_examples=40)
@given(st.integers(0, 10**9), st.sampled_from([(-12, 8), (-4000, 8)]),
       st.sampled_from(["atoms", "ones", "blocks"]))
def test_tables_and_listings_match_the_probe_join(seed, window, draw):
    # one join over the blocks' alternatives, against one probe join per
    # restriction; random_invertible mixes atoms, chains and loops, with
    # ones their links may have exponent 1, and blocks sums 2 to 4 chains
    # and loops with such links
    rng = random.Random(seed)
    if draw == "blocks":
        p = _chains_and_loops(rng)
    else:
        p = random_invertible(rng, max_vars=8, max_det=3000, ones=draw == "ones")
    ctx = SymmetryContext(p)

    def solve():
        return compute_table(p, window, ctx=ctx), list(class_contributions(p, window, ctx=ctx))

    got = _outcome(solve)
    with pytest.MonkeyPatch.context() as patch:
        patch.setattr(engine, "join", lambda ctx, window: _probe_join(ctx, None, window))
        assert got == _outcome(solve)


@settings(max_examples=60)
@given(st.integers(0, 10**9), windows, st.booleans())
def test_listing_raises_as_its_table_does_or_sums_to_its_cells(seed, window, ones):
    # a listing is the table's join with its hits renamed: it raises exactly
    # when the table does, with the same error, else its rows sum to the cells
    p = random_invertible(random.Random(seed), max_vars=6, max_det=3000, ones=ones)
    ctx = SymmetryContext(p)
    table = _outcome(lambda: compute_table(p, window, ctx=ctx))
    listing = _outcome(lambda: aggregate_contributions(class_contributions(p, window, ctx=ctx)))
    if table[0] == "raised":
        assert listing == table
    else:
        cells = Counter()
        for row in listing[1]:
            cells[row["d"], row["q"]] += row["count"]
        assert cells == table[1].cells


@settings(max_examples=40)
@given(st.integers(0, 10**9), st.booleans(), st.booleans())
@example(29, True, False)  # _chains_and_loops draws the triangle x2*x6 + x6*x4 + x4*x2
def test_blocks_and_join_components_read_off_the_atom_walks(seed, many, ones):
    # a block's alternatives, read off its atom walk and the box bases of
    # its closed tails, multiply out to its pairs (closed S_B, basis monomial
    # of w on S_B with -1 on the rest of the block), each once, with S_B as mark
    rng = random.Random(seed)
    p = _chains_and_loops(rng) if many else random_invertible(rng, max_vars=8, max_det=3000, ones=ones)
    ctx = SymmetryContext(p)
    packing = lines._packing(ctx.line_denominator * (abs(ctx.family_step[1]) or 1), len(ctx.line_moduli) + 1)
    closed = dict(ctx.closed_sets)
    rings = {}
    for full, alternatives in lines._blocks(ctx, packing, {}, rings):
        assert rings == {}  # no staircase
        variables = [v for v in range(1, p.nvars + 1) if full >> v & 1]
        got = Counter()
        for factors in alternatives:
            order = [v for f in factors for v in f[0]]
            for _, exps, mark in lines._product(factors, packing):
                monomial = dict(zip(order, exps))
                assert mark & (1 << p.nvars + 1) - 1 == sum(1 << v for v, e in monomial.items() if e >= 0)
                got[tuple(monomial[v] for v in variables)] += 1
        expected = Counter()
        for mask in closed[full]:
            r = restrict(p, [v for v in variables if mask >> v & 1])
            basis = monomial_basis(r, atom_of(r))
            if isinstance(basis, BoxBasis):
                points = [m for box in basis.boxes for m in product(*box)]
            else:  # a loop's empty closed set
                points = basis.monomials
            expected.update(tuple(dict(zip(basis.variables, m)).get(v, -1) for v in variables) for m in points)
        assert got == expected, (p.matrix, variables)


@pytest.mark.parametrize(
    "text, count",
    [("x1*x2+x2*x3+x3*x1", 1), ("x1^3*x2+x2^3*x3+x3^2", 3), ("x1^3*x2+x2^2*x3+x3^2*x4+x4^2", 4)],
    ids=["triangle", "laufer", "chain4"],
)
def test_an_atom_block_has_one_alternative_per_head(text, count):
    # the boxes of an atom's closed tails, -1 before each, share one head per
    # length of one-valued prefix and ranges after it: the triangle's box and
    # its all-dual entry are one head; the Laufer chain's one-valued boxes, of
    # the whole walk and of its closed tails, share one head beside the first
    # boxes of the walk and of its tail from x2
    p = parse(text)
    ctx = SymmetryContext(p)
    packing = lines._packing(ctx.line_denominator * (abs(ctx.family_step[1]) or 1), len(ctx.line_moduli) + 1)
    (_, alternatives), = lines._blocks(ctx, packing, {}, {})
    assert len(alternatives) == count


def test_table_of_f16_takes_one_product_of_alternatives():
    # F_16: x1*x2, 16 triangles of ones and x1^2.  Each triangle is one
    # alternative, so the join walks one product of them, not 2^16 products
    # (several seconds)
    p = parse("+".join(["x1*x2", *triangles(16, 3), "x1^2"]))
    start = time.perf_counter()
    assert compute_table(p, (-2, 2)).cells == {(0, 0): 2, (1, 0): 2}
    assert time.perf_counter() - start < 1


def test_a_table_calls_monomial_basis_once_per_chain_or_loop(monkeypatch):
    # one call per chain or loop atom, on its whole walk, and none per Fermat
    # atom or closed tail: perfbench's SMALL_API asserts jacobian.basis_calls > 0
    # of a table, so the call stays until ROADMAP item 4 counts box bases apart
    p = parse("x1^3*x2+x2^3*x3+x3^2+x4^2*x5+x5^2*x4+x6^5+x7*x8+x8*x9+x9*x7")
    ctx = SymmetryContext(p)
    calls, basis = [], jacobian.monomial_basis
    monkeypatch.setattr(jacobian, "monomial_basis", lambda r, *args: calls.append((r.fixed, *args)) or basis(r, *args))
    compute_table(p, (-12, 8), ctx=ctx)
    assert sorted((fixed, atom[1]) for fixed, atom in calls) == [((1, 2, 3), False), ((4, 5), True), ((7, 8, 9), True)]


def test_table_of_atoms_matches_once_per_row_tuple_and_splits_no_restriction(monkeypatch):
    # the context and joins read blocks off the atom walks, so a table of
    # atoms splits no restriction into components
    def split(r):
        raise AssertionError(f"the restriction to {r.fixed} was split")

    for module in (jacobian, symmetry):
        monkeypatch.setattr(module, "component_variables", split)
    compute_table(parse("x1^7*x2+x2^5*x3+x3^5*x4+x4^5*x5+x5^3*x6+x6^3"), (-12, 8))


@pytest.mark.parametrize(
    "text", ["x1^7*x2+x2^5*x3+x3^5*x4+x4^5*x5+x5^3*x6+x6^3", "x1^2*x2+x2^3*x3+x3^4*x1", LAUFER1]
)
def test_tables_and_listings_match_no_atom_once_the_context_is_built(monkeypatch, text):
    # the context's walks are the one source of atom structure: a chain's
    # boxes and a loop's box are read off them, and a listing's renaming;
    # lines matches a component of a block with no walk through jacobian.atom_of
    p = parse(text)
    ctx = SymmetryContext(p)
    matched, walks = [], poly.atom_walks
    for module in (poly, jacobian, symmetry):
        monkeypatch.setattr(module, "atom_walks", lambda rows: matched.append(rows) or walks(rows))
    table = compute_table(p, (-12, 8), ctx=ctx)
    listing = list(class_contributions(p, (-2, 2), ctx=ctx))
    assert matched == []
    assert table.total() and listing


@pytest.mark.parametrize(
    "text, window",
    [
        ("x3^39*x1+x1^39*x4+x4^39*x2+x2^39", (-2, 2)),  # the walk x3 -> x1 -> x4 -> x2, ring 2,255,605
        ("+".join(f"x{i}^2*x{i % 16 + 1}" for i in range(1, 17)), (-4, 4)),  # ring 2^16
        ("x1^7*x2+x2^5*x3+x3^5*x4+x4^5*x5+x5^3*x6+x6^3", (-12, 8)),
        (_sum("x1^2*x2+x2^3*x1", 3), (-12, 8)),
        (LAUFER1, (-12, 8)),
    ],
    ids=["chain4", "loop16", "chain6", "loops3", "laufer"],
)
def test_atom_listing_grows_no_staircase_and_one_basis_per_hit_restriction(monkeypatch, text, window):
    # a listing of atoms joins their boxes as the table does, then renames
    # each hit on an atom's part of more than one variable by its normal
    # form: one Groebner basis per distinct such part, and no staircase
    def never(*args):
        raise AssertionError("a staircase was grown")

    built, groebner = [], jacobian._groebner
    monkeypatch.setattr(jacobian, "_staircase", never)
    monkeypatch.setattr(jacobian, "_groebner", lambda gens, key: built.append(gens) or groebner(gens, key))
    p = parse(text)
    ctx = SymmetryContext(p)
    listing = list(class_contributions(p, window, ctx=ctx))
    parts = {tuple(v for v, _ in walk if con.monomial.b[v + 1] >= 0) for con in listing for walk, _ in ctx.walks}
    parts = {part for part in parts if len(part) > 1}
    assert listing and parts and len(built) == len(parts)


def _divisors(N):
    small = [q for q in range(1, int(N**0.5) + 1) if N % q == 0]
    return sorted({*small, *(N // q for q in small)})


@settings(max_examples=200)
@given(st.integers(1, 24), st.integers(-1, 1), st.data())
def test_packed_keys_add_and_negate_as_residue_tuples(bits, offset, data):
    # N one below, at and one above a power of two; each field's modulus
    # divides N and its residue r is packed as r * N/q, as lines._factor
    # packs the line columns
    N = max(1, 2**bits + offset)
    moduli = data.draw(st.lists(st.sampled_from(_divisors(N)), min_size=1, max_size=4))
    packing = lines._packing(N, len(moduli))
    _, w, _, each = packing
    residues = st.tuples(*(st.integers(0, q - 1) for q in moduli))
    a, b = data.draw(residues), data.draw(residues)

    def pack(rs):
        return sum((r % q) * (N // q) << i * w for i, (r, q) in enumerate(zip(rs, moduli)))

    def reduced(s):  # s with each field, below 2N, reduced mod N, as _product and join reduce a sum
        return lines._product([((), [(s, (), 0)]), ((), [(0, (), 0)])], packing)[0][0]

    factors = [((), [(pack(a), (), 0)]), ((), [(pack(b), (), 0)])]
    assert lines._product(factors, packing) == [(pack([x + y for x, y in zip(a, b)]), (), 0)]
    assert reduced(each - pack(a)) == pack([-x for x in a])
    # a probe's wanted key: the negation of a sum
    assert reduced(pack(a) + each - pack(b)) == pack([x - y for x, y in zip(a, b)])


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
        solved, error = assert_range_join_matches_probe_join(ctx, window)
        assert solved and error is None


def test_kernel_unit_component_leaves_no_line_next_to_an_infinite_one():
    # {x1, x2} alone is never isolated; x3 bare makes its ideal, so the ring, 0
    with warnings.catch_warnings():
        warnings.simplefilter("ignore")
        zero = parse("x1^2*x2^2+x2^3+x3", allow_nonstandard=True)
        infinite = parse("x1^2*x2^2+x2^3+x3^2", allow_nonstandard=True)
    full = _mask({0, 1, 2, 3})  # the full set's class, among all the classes
    for p in (zero, infinite):
        ctx = SymmetryContext(p)
        found, errors = lines.join(ctx, (-10, 10))
        assert full in dict(ctx.classes) and all(run[4][0] != full for run in found)
        assert errors.get(full) is (NotIsolated if p is infinite else None)
    with pytest.raises(NotIsolated, match=r"restriction to \(1, 2, 3\) is infinite"):
        raise lines.first_error(ctx, {full: errors[full]}, ctx.class_key)


def test_not_isolated_reads_the_rings_its_blocks_solved(monkeypatch):
    # {x1, x2} is never isolated, and every class fixing both is refused; the
    # join names the first from the rings of {x1, x2}'s closed sets, with no
    # Groebner basis of a class restriction such as (1, 2, 3, ..)
    with warnings.catch_warnings():
        warnings.simplefilter("ignore")
        p = parse("x1^2*x2^2+x2^3+" + "+".join(f"x{i}^2" for i in range(3, 9)), allow_nonstandard=True)
    seen, basis = [], jacobian.monomial_basis
    monkeypatch.setattr(jacobian, "monomial_basis", lambda r, *args: seen.append(r.fixed) or basis(r, *args))
    for solve in (compute_table, lambda p, window: list(class_contributions(p, window))):
        with pytest.raises(NotIsolated, match=r"restriction to \(1, 2\) is infinite"):
            solve(p, (-10, 10))
    assert seen and all(set(fixed) <= {1, 2} for fixed in seen), seen


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


@pytest.mark.parametrize("text", ["x1^3+x2^3+x3^3", "x1^2+x2^4+x3^4", "x1^6+x2^3+x3^2"])
def test_d0_zero_tables_take_one_join_and_no_listing(monkeypatch, text):
    # with du == 0 every line keeps its degree, and these families stick in
    # degrees 0..3: a window that misses them gives its table, one that holds
    # them raises at the first class in class order that has one, and kind
    # C's lines that miss c = -1 give no point; no table reads the census
    p = parse(text)
    ctx = SymmetryContext(p)
    assert ctx.family_step[1] == 0

    def never(*args, **kwargs):
        raise AssertionError("a table read the listing")

    monkeypatch.setattr(engine, "class_contributions", never)
    joins = _counted_joins(monkeypatch)
    seen = set()
    for window in ((-12, -2), (4, 12), (-3, -1), (-12, 8), (0, 0), (3, 3), (-7, 5)):
        joins.clear()
        with pytest.MonkeyPatch.context() as patch:
            _forbid_census(patch)
            got = _outcome(lambda: compute_table(p, window, ctx=ctx))
        assert got == _outcome(lambda: reference_table(p, window, "lex"))
        assert len(joins) == 1
        seen.add(got[0])
        if got[0] == "raised":
            first = next(fixed for fixed, count in sorted(ctx.fixed_census().items(), key=lambda kv: sorted(kv[0]))
                         if _outcome(lambda: _class_contributions(ctx, fixed, count, window, "lex"))[0] == "raised")
            _, errors = lines.join(ctx, window)
            assert next(mask for mask, _ in ctx.classes if mask in errors) == _mask(first)
    assert seen == {"value", "raised"}


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
    monkeypatch.setattr(jacobian, "_staircase", never)
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


def test_a_factor_of_more_than_2_to_the_21_exponents_is_refused():
    # every factor of one variable is a slice of its factor of -1..a-1: a
    # Fermat atom's, in tables and listings alike, a chain's and a loop's
    with pytest.raises(EngineError, match=r"^x4\^99999999 needs a factor of 99999999 exponents, more than 2\^21$"):
        compute_table(parse("x1^2+x2^3+x3^5+x4^99999999"), (-2, 2))
    with pytest.raises(EngineError, match=r"^x4\^99999999 needs a factor of 99999999 exponents, more than 2\^21$"):
        list(class_contributions(parse("x1^2+x2^3+x3^5+x4^99999999"), (-2, 2)))
    with pytest.raises(EngineError, match=r"^x2\^3000000 needs a factor of 3000000 exponents, more than 2\^21$"):
        compute_table(parse("x1^2*x2+x2^3000000+x3^2+x4^2"), (-2, 2))
    with pytest.raises(EngineError, match=r"^x1\^3000000 needs a factor of 3000000 exponents, more than 2\^21$"):
        compute_table(parse("x1^3000000*x2+x2^2*x1"), (-2, 2))


def test_a_join_side_of_more_than_2_to_the_21_products_is_refused_before_any_is_built(monkeypatch):
    # 42 factors of 2 exponents split 22 and 20: 2^22 products on the larger
    # side, more than FACTOR_LIMIT, where 41 give 2^21; no product is built
    def never(*args):
        raise AssertionError("a product was built")

    monkeypatch.setattr(lines, "_product", never)
    p = parse("+".join(f"x{i}^2" for i in range(1, 43)))
    with pytest.raises(EngineError, match=r"^a side of the join would hold 4194304 products, more than 2\^21$"):
        compute_table(p, (0, 0))


def test_a_factor_of_a_million_exponents_still_gives_its_table():
    table = compute_table(parse("x1^2+x2^3+x3^5+x4^1000000"), (-2, 2))
    assert table.total() == 32
    assert table.row(0) == dict.fromkeys((0, 6, 10, 12, 16, 18, 22, 28), 1)


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


@pytest.mark.parametrize(
    "text",
    [
        "x1*x2^3*x3^3*x5^3+x4*x5+x3^3+x2^2*x3+x1^2*x2",
        "x2^3*x4^3+x1^3*x2+x1*x2^2+x3*x4",
        "x2^2*x3^2*x5+x4^3*x5+x3^3+x1*x2+x5^2",
        "x3*x4+x2*x4+x1^2*x2+x2^3*x3",
        "x3*x4+x1^3+x2^2*x3^3+x1*x2^3",
        "x1^3+x2*x4+x3*x5+x1^3*x2^3+x3*x5^3",
    ],
)
def test_no_atom_closed_sets_take_chain_and_loop_boxes(monkeypatch, text):
    # answered inputs with no atom matching, found by search, where a closed
    # set's component is a chain or a loop: it takes its boxes, as
    # milnor_number does, and only a component with no atom matching grows
    # a staircase; tables and listings, renamed by normal form over each
    # hit's fixed set, are the reference's
    with warnings.catch_warnings():
        warnings.simplefilter("ignore")
        p = parse(text, allow_nonstandard=True)
    staircases, boxes = [], []
    basis, atom_boxes = jacobian.monomial_basis, jacobian.atom_boxes
    monkeypatch.setattr(jacobian, "monomial_basis", lambda r, *args: staircases.append((r, *args)) or basis(r, *args))
    monkeypatch.setattr(jacobian, "atom_boxes", lambda atom: boxes.append(atom) or atom_boxes(atom))
    ctx = SymmetryContext(p)
    assert ctx.walks is None
    for window in ((-12, 8), (-40, 10)):
        compute_table(p, window, ctx=ctx)
        list(class_contributions(p, window, ctx=ctx))
    assert any(len(walk) > 1 for walk, _ in boxes)
    assert staircases and all(len(call) == 1 and atom_of(call[0]) is None for call in staircases)
    monkeypatch.undo()
    for window in ((-12, 8), (-40, 10)):
        assert assert_matches_reference(p, window) == "value"
