import dataclasses
import random
import sys
import time
import tracemalloc
from collections import Counter
from fractions import Fraction

import pytest
from hypothesis import given, settings, strategies as st

from conftest import random_invertible
from mfhh.engine import BigradedTable, compute_table, stretches
from mfhh.errors import GoldenMismatch, NonterminatingFamily, UnknownFamily, WindowMismatch
from mfhh.invariants import (
    FAMILY_NAMES,
    ScaleVerdict,
    SmallResVerdict,
    _negative_overlap,
    golden_check,
    golden_family_poly,
    scale_compare,
    small_res_probe,
)
from mfhh.poly import parse

LAUFER1 = "x1^3*x2+x2^3*x3+x3^2+x4^2"
LAUFER2 = "x1^3*x2+x2^5*x3+x3^2+x4^2"


def table(text, window=(-12, -1)):
    return compute_table(parse(text), window)


def rescale(t, c):
    cells = {}
    for (d, q), dim in t.cells.items():
        scaled = Fraction(q) * c
        assert scaled.denominator == 1
        cells[(d, int(scaled))] = dim
    return BigradedTable(t.dmin, t.dmax, cells)


def test_scale_compare_self():
    t = table(LAUFER1)
    v = scale_compare(t, t)
    assert v.kind == "equivalent" and v.c == 1


@pytest.mark.parametrize("c", [2, 3, Fraction(3, 2), -2])
def test_scale_compare_rescaled(c):
    t = table(LAUFER1)
    v = scale_compare(t, rescale(t, c))
    assert v.kind == "equivalent" and v.c == c
    back = scale_compare(rescale(t, c), t)
    assert back.kind == "equivalent" and back.c == Fraction(1, c)


def test_scale_compare_distinguishes_alpha12_lambda():
    a12 = table("x1^2+x2^2+x3^2+x4^4", (-8, -1))
    for lauf in (LAUFER1, LAUFER2):
        v = scale_compare(a12, table(lauf, (-8, -1)))
        assert v.kind == "distinguished"
        w = scale_compare(table(lauf, (-8, -1)), a12)
        assert w.kind == "distinguished"
        assert w.witness_degree == v.witness_degree


def test_scale_compare_alpha_beta_k1_equivalent():
    for l in (2, 3):
        a = table(f"x1^2+x2^2+x3^{l + 1}+x4^{l + 1}")
        b = table(f"x1^2+x2^2+x3^{l}*x4+x3*x4^{l}")
        v = scale_compare(a, b)
        assert v.kind == "equivalent" and v.c == 1


def test_scale_compare_inconclusive_and_window_mismatch():
    p = parse("x1^2+x2^2+x3^2+x4^2")
    pos1 = compute_table(p, (2, 4))
    pos2 = compute_table(p, (4, 8))
    # overlapping windows, but nothing below zero to compare
    assert scale_compare(pos1, pos2).kind == "inconclusive"
    with pytest.raises(WindowMismatch):
        scale_compare(compute_table(p, (-4, -1)), compute_table(p, (2, 4)))


def test_scale_compare_empty_tables_inconclusive():
    t1 = BigradedTable(-6, -1, {})
    t2 = BigradedTable(-6, -1, {})
    assert scale_compare(t1, t2).kind == "inconclusive"


def test_scale_compare_dim_mismatch_distinguishes():
    t1 = BigradedTable(-4, -1, {(-2, 3): 1})
    t2 = BigradedTable(-4, -1, {(-2, 3): 2})
    v = scale_compare(t1, t2)
    assert v.kind == "distinguished" and v.witness_degree == -2


def test_scale_compare_zero_weight_rule():
    # weight zero can only match weight zero, whatever the scale
    t1 = BigradedTable(-4, -1, {(-2, 0): 1, (-3, 2): 1})
    t2 = BigradedTable(-4, -1, {(-2, 5): 1, (-3, 2): 1})
    assert scale_compare(t1, t2).kind == "distinguished"
    t3 = BigradedTable(-4, -1, {(-2, 0): 1, (-3, 4): 1})
    v = scale_compare(t1, t3)
    assert v.kind == "equivalent" and v.c == 2


@settings(max_examples=10)
@given(st.integers(0, 10**9))
def test_scale_compare_symmetry_random(seed):
    rng = random.Random(seed)
    p1 = random_invertible(rng, max_vars=4, max_det=300)
    p2 = random_invertible(rng, max_vars=4, max_det=300)
    try:
        t1 = compute_table(p1, (-8, -1))
        t2 = compute_table(p2, (-8, -1))
    except NonterminatingFamily:
        return
    v = scale_compare(t1, t2)
    w = scale_compare(t2, t1)
    assert v.kind == w.kind
    if v.kind == "equivalent":
        assert w.c == 1 / v.c


def _scale_compare_all_ratios(t1, t2):
    """The search over every ratio of two nonzero weights at dstar, kept as
    the reference for scale_compare's two-candidate search."""
    lo, hi = _negative_overlap(t1, t2)
    if lo > hi:
        return ScaleVerdict("inconclusive", (lo, hi))
    degrees = list(range(hi, lo - 1, -1))
    w1 = {d: t1.weights(d) for d in degrees}
    w2 = {d: t2.weights(d) for d in degrees}
    if all(not w1[d] for d in degrees) and all(not w2[d] for d in degrees):
        return ScaleVerdict("inconclusive", (lo, hi))
    for d in degrees:
        if len(w1[d]) != len(w2[d]):
            return ScaleVerdict("distinguished", (lo, hi), None, d, (w1[d], w2[d]))
        z1 = sum(1 for q in w1[d] if q == 0)
        z2 = sum(1 for q in w2[d] if q == 0)
        if z1 != z2:
            return ScaleVerdict("distinguished", (lo, hi), None, d, (w1[d], w2[d]))
    dstar = next(
        (d for d in degrees if any(q != 0 for q in w1[d])),
        None,
    )
    if dstar is None:
        # only zero weights anywhere: the tables agree as they stand
        return ScaleVerdict("equivalent", (lo, hi), Fraction(1))
    nz1 = [q for q in w1[dstar] if q]
    nz2 = [q for q in w2[dstar] if q]
    candidates = sorted(
        {Fraction(q2, q1) for q1 in nz1 for q2 in nz2},
        key=lambda c: (c != 1, abs(c), c),
    )
    best_fail = None  # (position in `degrees`, candidate)
    for c in candidates:
        fail = None
        for idx, d in enumerate(degrees):
            left = sorted(c * q for q in w1[d] if q)
            right = sorted(Fraction(q) for q in w2[d] if q)
            if left != right:
                fail = idx
                break
        if fail is None:
            return ScaleVerdict("equivalent", (lo, hi), c)
        if best_fail is None or fail > best_fail[0]:
            best_fail = (fail, c)
    d = degrees[best_fail[0]]
    return ScaleVerdict("distinguished", (lo, hi), None, d, (w1[d], w2[d]))


@st.composite
def table_pairs(draw):
    """Two tables that share a base pattern scaled by two nonzero factors,
    the second one optionally disturbed and cut to a shifted window."""
    lo = draw(st.integers(-7, -1))
    hi = draw(st.integers(lo, 1))
    cell = st.tuples(st.integers(lo, hi), st.integers(-4, 4))
    base = draw(st.dictionaries(cell, st.integers(1, 3), max_size=8))
    scale = st.sampled_from([1, 2, 3, -1, -2, -3])
    a, b = draw(scale), draw(scale)
    noise = draw(st.dictionaries(cell, st.integers(1, 2), max_size=2))
    lo2 = draw(st.integers(lo - 1, hi))
    cells1, cells2 = Counter(), Counter(noise)
    for (d, q), dim in base.items():
        cells1[(d, a * q)] += dim
        cells2[(d, b * q)] += dim
    cells2 = {(d, q): dim for (d, q), dim in cells2.items() if d >= lo2}
    return BigradedTable(lo, hi, dict(cells1)), BigradedTable(lo2, hi, cells2)


@settings(max_examples=400)
@given(table_pairs())
def test_scale_compare_two_candidates_match_all_ratios(pair):
    t1, t2 = pair
    assert scale_compare(t1, t2) == _scale_compare_all_ratios(t1, t2)
    assert scale_compare(t2, t1) == _scale_compare_all_ratios(t2, t1)


class _ScanningTable(BigradedTable):
    """A table whose dim and weights scan every cell, as before the
    per-degree index: the reference side of the comparisons below."""

    def dim(self, d):
        return sum(dim for (dd, _), dim in self.cells.items() if dd == d)

    def weights(self, d):
        """Weight multiset in degree d, sorted, with multiplicity."""
        out = []
        for (dd, q), dim in self.cells.items():
            if dd == d:
                out.extend([q] * dim)
        return tuple(sorted(out))


def _scanning(t):
    return _ScanningTable(t.dmin, t.dmax, t.cells)


def _scale_compare_fractions(t1, t2):
    """scale_compare as it was before the integer comparison, kept verbatim
    as the reference for it."""
    lo, hi = _negative_overlap(t1, t2)
    if lo > hi:
        return ScaleVerdict("inconclusive", (lo, hi))
    degrees = list(range(hi, lo - 1, -1))
    w1 = {d: t1.weights(d) for d in degrees}
    w2 = {d: t2.weights(d) for d in degrees}
    if all(not w1[d] for d in degrees) and all(not w2[d] for d in degrees):
        return ScaleVerdict("inconclusive", (lo, hi))
    for d in degrees:
        if len(w1[d]) != len(w2[d]):
            return ScaleVerdict("distinguished", (lo, hi), None, d, (w1[d], w2[d]))
        z1 = sum(1 for q in w1[d] if q == 0)
        z2 = sum(1 for q in w2[d] if q == 0)
        if z1 != z2:
            return ScaleVerdict("distinguished", (lo, hi), None, d, (w1[d], w2[d]))
    dstar = next(
        (d for d in degrees if any(q != 0 for q in w1[d])),
        None,
    )
    if dstar is None:
        # only zero weights anywhere: the tables agree as they stand
        return ScaleVerdict("equivalent", (lo, hi), Fraction(1))
    # c*nz1 = nz2 as multisets maps the least of nz1 (c > 0) or the largest
    # (c < 0) onto the least of nz2; every other ratio fails at dstar
    nz1 = [q for q in w1[dstar] if q]
    low2 = min(q for q in w2[dstar] if q)
    candidates = sorted(
        {Fraction(low2, min(nz1)), Fraction(low2, max(nz1))},
        key=lambda c: (c != 1, abs(c), c),
    )
    latest_fail = 0  # position in `degrees` of the latest first failure
    for c in candidates:
        for idx, d in enumerate(degrees):
            left = sorted(c * q for q in w1[d] if q)
            right = sorted(Fraction(q) for q in w2[d] if q)
            if left != right:
                latest_fail = max(latest_fail, idx)
                break
        else:
            return ScaleVerdict("equivalent", (lo, hi), c)
    d = degrees[latest_fail]
    return ScaleVerdict("distinguished", (lo, hi), None, d, (w1[d], w2[d]))


def _small_res_probe_scan(t):
    """small_res_probe as it was before the per-degree index, kept verbatim
    as the reference for it."""
    lo, hi = t.dmin, min(t.dmax, -1)
    ranks = {d: t.dim(d) for d in range(lo, hi + 1)}
    ref = ranks.get(hi, 0)
    witnesses = tuple((d, r) for d, r in sorted(ranks.items()) if r != ref)
    if witnesses:
        return SmallResVerdict("nonconstant", (lo, hi), None, witnesses)
    return SmallResVerdict("constant", (lo, hi), ref)


def _assert_same_verdicts(t1, t2):
    s1, s2 = _scanning(t1), _scanning(t2)
    assert small_res_probe(t1) == _small_res_probe_scan(s1)
    assert small_res_probe(t2) == _small_res_probe_scan(s2)
    assert scale_compare(t1, t2) == _scale_compare_fractions(s1, s2)
    assert scale_compare(t2, t1) == _scale_compare_fractions(s2, s1)


@settings(max_examples=400)
@given(table_pairs())
def test_indexed_invariants_match_cell_scans(pair):
    _assert_same_verdicts(*pair)


# the four anchor pairs of the long_window benchmark workload, each window
# cut to an eighth of its length there
ANCHOR_PAIRS = [
    (("x1^2+x2^2+x3^3+x4^3", (-244, 8)), ("x1^2+x2^2+x3^2*x4+x3*x4^2", (-244, 8))),
    (("x1^2*x2+x2^2*x3+x3^6*x4+x4^3", (-137, 8)), ("x1^3*x2+x2^2*x3+x3^2*x4+x4^2", (-175, 8))),
    (("x1^2+x2^3+x3^5+x4^30", (-142, 8)), ("x1^2+x2^3+x3^4+x4^12", (-142, 8))),
    ((LAUFER1, (-330, 8)), (LAUFER2, (-330, 8))),
]


@pytest.mark.parametrize("first, second", ANCHOR_PAIRS)
def test_indexed_invariants_match_cell_scans_on_anchor_tables(first, second):
    t1, t2 = (table(text, window) for text, window in (first, second))
    _assert_same_verdicts(t1, t1)
    _assert_same_verdicts(t1, t2)


def _cells_by_points(t):
    """The cells of t with every run expanded point by point."""
    sd, sq = t.step
    cells = Counter()
    for d, q, n, m in t.runs:
        for i in range(n):
            cells[(d + i * sd, q + i * sq)] += m
    return [{"d": d, "q": q, "dim": m} for (d, q), m in sorted(cells.items()) if m]


def test_invariants_and_golden_checks_build_no_cells(monkeypatch):
    made = []
    init = BigradedTable.__init__
    monkeypatch.setattr(BigradedTable, "__init__", lambda self, *a, **k: made.append(self) or init(self, *a, **k))
    verdicts = []
    for first, second in ANCHOR_PAIRS:
        t1, t2 = (table(text, window) for text, window in (first, second))
        verdicts.append((t1, t2, small_res_probe(t1), small_res_probe(t2), scale_compare(t1, t1),
                         scale_compare(t1, t2), scale_compare(t2, t1)))
    for family in FAMILY_NAMES:
        try:
            golden_check(family, l=2, k=1)
        except GoldenMismatch:
            assert family == "can_cA"
    assert len(made) == 8 + len(FAMILY_NAMES)
    assert not [t for t in made if "cells" in vars(t)]
    # repr counts the cells without building them
    assert all(repr(t).endswith(f" {len(_cells_by_points(t))} cells)") for t in made)
    assert not [t for t in made if "cells" in vars(t)]
    # then the cells, read for the first time, and the verdicts against the
    # references that scan them
    for t in made:
        assert t.cell_list() == _cells_by_points(t)
        assert t.total() == sum(t.cells.values())
    for t1, t2, probe1, probe2, same, forward, backward in verdicts:
        s1, s2 = _scanning(t1), _scanning(t2)
        assert (probe1, probe2) == (_small_res_probe_scan(s1), _small_res_probe_scan(s2))
        assert same == _scale_compare_fractions(s1, s1)
        assert (forward, backward) == (_scale_compare_fractions(s1, s2), _scale_compare_fractions(s2, s1))


def _record_reads(monkeypatch):
    """Wrap BigradedTable.row and .weights to log each degree they read."""
    read = []
    for name in ("row", "weights"):
        method = getattr(BigradedTable, name)

        def logged(self, d, method=method):
            read.append(d)
            return method(self, d)

        monkeypatch.setattr(BigradedTable, name, logged)
    return read


LOW = -10**9
SPARSE = {(LOW, 3): 1, (-7, 2): 2, (-7, 0): 1, (-1, 4): 1, (5, 1): 3}


@pytest.mark.parametrize("other, kind, witness", [
    (SPARSE, "equivalent", None),
    ({(d, 2 * q): dim for (d, q), dim in SPARSE.items()}, "equivalent", None),
    # agrees under c = 2 down to the bottom of the window, then fails there
    ({**{(d, 2 * q): dim for (d, q), dim in SPARSE.items() if d > LOW}, (LOW, 5): 1},
     "distinguished", LOW),
    ({(-3, 2): 1}, "distinguished", -1),
])
def test_scale_compare_reads_only_degrees_with_cells(monkeypatch, other, kind, witness):
    t1, t2 = BigradedTable(LOW, 8, SPARSE), BigradedTable(LOW, 8, other)
    read = _record_reads(monkeypatch)
    v = scale_compare(t1, t2)
    assert (v.kind, v.witness_degree) == (kind, witness)
    assert read and set(read) <= {d for t in (t1, t2) for d, _ in t.cells if d < 0}


@st.composite
def raw_cells(draw, dmin, dmax):
    """Cells with zero dims, empty degrees and degrees outside the window."""
    cell = st.tuples(st.integers(dmin - 2, dmax + 2), st.integers(-4, 4))
    return draw(st.dictionaries(cell, st.integers(0, 3), max_size=14))


def _assert_matches_scan(t, cells):
    # cells holds only nonzero dims; every query is a scan of it.  The second
    # pass checks that changing a row handed out leaves the table as it was.
    for _ in range(2):
        for d in range(t.dmin - 3, t.dmax + 4):
            assert t.dim(d) == sum(dim for (dd, _), dim in cells.items() if dd == d)
            assert t.weights(d) == tuple(sorted(
                q for (dd, q), dim in cells.items() if dd == d for _ in range(dim)
            ))
            row = t.row(d)
            assert row == {q: dim for (dd, q), dim in cells.items() if dd == d}
            row[0] = 99
    assert t.total() == sum(cells.values())


@given(st.data())
def test_table_index_matches_cell_scan(data):
    dmin = data.draw(st.integers(-6, 3))
    dmax = data.draw(st.integers(dmin, 6))
    raw = data.draw(raw_cells(dmin, dmax))
    t = BigradedTable(dmin, dmax, raw)
    cells = {dw: dim for dw, dim in raw.items() if dim}
    assert t.cells == cells
    _assert_matches_scan(t, cells)
    lo = data.draw(st.integers(dmin, dmax))
    hi = data.draw(st.integers(lo, dmax))
    part = {(d, q): dim for (d, q), dim in cells.items() if lo <= d <= hi}
    r = t.restrict(lo, hi)
    assert r.window == (lo, hi) and r.cells == part
    _assert_matches_scan(r, part)
    other_raw = data.draw(st.one_of(st.just(raw), raw_cells(dmin, dmax)))
    other_window = data.draw(st.sampled_from([(dmin, dmax), (lo, hi)]))
    other = BigradedTable(*other_window, other_raw)
    same = other_window == t.window and {dw: v for dw, v in other_raw.items() if v} == cells
    assert (t == other) == same == (other == t)


def test_small_res_probe():
    v = small_res_probe(table(LAUFER1))
    assert v.constant and v.rank == 1
    v2 = small_res_probe(table("x1^2+x2^3+x3^3+x4^6"))
    assert v2.constant and v2.rank == 4
    v3 = small_res_probe(table("x1^2+x2^2+x3^2+x4^3"))
    assert not v3.constant
    assert v3.witnesses  # the deviating degrees are reported


def test_verdicts_stay_dataclasses_for_asdict():
    # the verdicts are the only records left as dataclasses: callers, the
    # benchmark's output digest among them, read them with dataclasses.asdict
    t1, t2 = table(LAUFER1), table(LAUFER2)
    assert dataclasses.asdict(small_res_probe(t1)) == {
        "kind": "constant", "window": (-12, -1), "rank": 1, "witnesses": (),
    }
    assert dataclasses.asdict(small_res_probe(table("x1^2+x2^2+x3^2+x4^3"))) == {
        "kind": "nonconstant", "window": (-12, -1), "rank": None,
        "witnesses": ((-10, 1), (-9, 1), (-6, 1), (-5, 1)),
    }
    assert dataclasses.asdict(scale_compare(t1, t2)) == {
        "kind": "distinguished", "window": (-12, -1), "c": None,
        "witness_degree": -5, "witness_weights": ((8,), (10,)),
    }
    assert dataclasses.asdict(scale_compare(t1, t1)) == {
        "kind": "equivalent", "window": (-12, -1), "c": Fraction(1),
        "witness_degree": None, "witness_weights": None,
    }


def test_small_res_probe_takes_its_reference_at_the_top_of_the_window():
    # rank 2 in every negative degree: a window that stops below -1 must
    # still read it, not the empty rank at -1
    p = parse("x1^2+x2^2+x3^3+x4^3")
    for window in ((-10, -1), (-10, -3)):
        v = small_res_probe(compute_table(p, window))
        assert v == SmallResVerdict("constant", window, 2)


def test_small_res_probe_self_consistency():
    t = table("x1^2+x2^2+x3^3+x4^6")
    v = small_res_probe(t)
    assert v.constant and v.rank == t.dim(-1)


def test_golden_families_pass():
    for l in (1, 2, 3, 4):
        for k in (1, 2):
            assert golden_check("bp_cA", l=l, k=k).passed
    for family in ("bp_cD4", "laufer", "bp_cE6", "bp_cE8"):
        for k in (1, 2):
            report = golden_check(family, k=k)
            assert report.passed
            assert report.conditional == (family == "laufer")


def test_golden_can_family_hh3_off_by_one():
    # the engine's degree-3 count for this family exceeds the tabulated
    # closed form by exactly one in every parameter choice
    for l, k in ((2, 1), (2, 2), (3, 1), (4, 2)):
        with pytest.raises(GoldenMismatch) as exc:
            golden_check("can_cA", l=l, k=k)
        report = exc.value.report
        bad = [(n, e, g) for n, e, g in report.checks if e != g]
        assert bad == [("dim HH^3", (k * l + 1) * (l - 1), (k * l + 1) * (l - 1) + 1)]


def test_golden_unknown_family():
    with pytest.raises(UnknownFamily):
        golden_check("nosuch", k=1)
    with pytest.raises(UnknownFamily):
        golden_check("bp_cA", k=1)  # missing l
    with pytest.raises(UnknownFamily):
        golden_family_poly("can_cA", l=1, k=1)  # needs l >= 2


def test_golden_family_poly_text():
    assert str(golden_family_poly("laufer", k=2)) == "x1^3*x2 + x2^5*x3 + x3^2 + x4^2"
    assert str(golden_family_poly("bp_cE8", k=1)) == "x1^2 + x2^3 + x3^5 + x4^30"


def _traced_peak(f):
    """(f(), the tracemalloc peak in bytes while it ran)."""
    tracemalloc.start()
    try:
        out = f()
        return out, tracemalloc.get_traced_memory()[1]
    finally:
        tracemalloc.stop()


def test_small_res_probe_of_an_empty_table_does_not_walk_its_window():
    p = parse("x1^5+x2^5+x3^5+x4^5")
    window = (-10**6, -1)
    v, peak = _traced_peak(lambda: small_res_probe(compute_table(p, window)))
    assert v == SmallResVerdict("constant", window, 0)
    assert peak < 5 * 2**20


def test_small_res_probe_keeps_only_the_witnesses_of_a_nonzero_rank():
    # rank 1 on [-N, -1] along one run, plus a cell at -7 and three empty
    # degrees below the run: four witnesses in a window of N + 3 degrees
    n = 10**5
    t = BigradedTable(-n - 3, -1, runs=[(-n, 0, n, 1), (-7, 5, 1, 1)], step=(1, 1))
    assert t.total() == n + 1
    v, peak = _traced_peak(lambda: small_res_probe(t))
    witnesses = ((-n - 3, 0), (-n - 2, 0), (-n - 1, 0), (-7, 2))
    assert v == SmallResVerdict("nonconstant", (-n - 3, -1), None, witnesses)
    assert peak < 2**20


@pytest.mark.parametrize("text, rank", [("x1^2+x2^2+x3^3+x4^3", 2), ("x1^2+x2^3+x3^5+x4^30", 8)])
def test_table_probe_and_compare_cost_runs_not_window(text, rank):
    p, window = parse(text), (-10**6, -1)

    def invariants():
        t = compute_table(p, window)
        return t, small_res_probe(t), scale_compare(t, t)

    start = time.perf_counter()
    (t, probe, verdict), peak = _traced_peak(invariants)
    assert time.perf_counter() - start < 0.5
    assert peak < 5 * 2**20
    assert probe == SmallResVerdict("constant", window, rank)
    assert verdict == ScaleVerdict("equivalent", window, Fraction(1))
    assert "cells" not in vars(t)


@pytest.mark.parametrize("text, rank", [("x1^2+x2^2+x3^3+x4^3", 2), ("x1^2+x2^3+x3^5+x4^30", 8)])
def test_table_of_a_window_longer_than_sys_maxsize(text, rank):
    # its runs are longer than len() of a range can report
    p, n = parse(text), 10**20
    assert n > sys.maxsize
    t = compute_table(p, (-n, -1))
    assert [t.dim(d) for d in (-n, -n + 1, -n // 2, -2, -1)] == [rank] * 5
    assert t.total() == n * rank
    bottom = compute_table(p, (-n, -n + 40))
    assert [t.dim(d) for d in range(-n, -n + 41)] == [bottom.dim(d) for d in range(-n, -n + 41)]
    assert small_res_probe(t) == SmallResVerdict("constant", (-n, -1), rank)


def _run_copy(t, k=1, j=1):
    """t in run form with its weights times k, each run split into runs j
    times as long in step; the cells are those of t, weights times k."""
    sd, sq = t.step
    runs = [
        (d + i * sd, k * (q + i * sq), -((i - n) // j), m)
        for d, q, n, m in t.runs for i in range(min(j, n))
    ]
    return BigradedTable(t.dmin, t.dmax, runs=runs, step=(j * sd, j * k * sq))


def _random_run_table(rng):
    """A table with a cell in a negative degree and at most 100 cells, which
    keeps the all-ratios reference quick, or None after ten tries."""
    for _ in range(10):
        p = random_invertible(rng, max_vars=4, max_det=300)
        dmin = rng.randint(-20, -2)
        try:
            t = compute_table(p, (dmin, rng.randint(dmin, 3)))
        except NonterminatingFamily:
            continue
        if len(t.cells) <= 100 and any(d < 0 for d, _ in t.cells):
            return t
    return None


@settings(max_examples=40)
@given(st.integers(0, 10**9))
def test_run_form_invariants_match_cell_references(seed):
    rng = random.Random(seed)
    t1, t2 = _random_run_table(rng), _random_run_table(rng)
    if t1 is None or t2 is None:
        return
    c = rng.choice([1, -1, 2, -2, Fraction(1, 2), Fraction(-1, 2), Fraction(3, 2)])
    a, b = c.numerator, c.denominator
    base = _run_copy(t1, b)  # run form, with weights that c keeps integral
    scaled, scaled_cells = _run_copy(t1, a), rescale(base, c)
    assert scaled == scaled_cells
    # t1 split to two degree steps whose lcm is neither of them
    split2, split3 = _run_copy(t1, j=2), _run_copy(t1, j=3)
    cells1, cells2 = rescale(t1, 1), rescale(t2, 1)
    for x in (t1, t2, base, split2, split3, scaled, scaled_cells, cells1, cells2):
        assert small_res_probe(x) == _small_res_probe_scan(_scanning(x))
        copy = BigradedTable(x.dmin, x.dmax, x.cells)
        assert [x.dim(d) for d in range(x.dmin, x.dmax + 1)] == [
            sum(dim for (dd, _), dim in copy.cells.items() if dd == d) for d in range(x.dmin, x.dmax + 1)
        ]
        assert x.total() == copy.total() == sum(copy.cells.values())
        lo = rng.randint(x.dmin, x.dmax)
        hi = rng.randint(lo, x.dmax)
        part = {(d, q): dim for (d, q), dim in x.cells.items() if lo <= d <= hi}
        assert x.restrict(lo, hi) == BigradedTable(lo, hi, part)
    for x, y in [(t1, t2), (t1, split2), (split2, split3), (base, scaled), (base, scaled_cells),
                 (scaled_cells, scaled), (cells1, t1), (cells2, t1)]:
        for u, v in ((x, y), (y, x)):
            try:
                want = _scale_compare_fractions(_scanning(u), _scanning(v))
            except WindowMismatch:
                with pytest.raises(WindowMismatch):
                    scale_compare(u, v)
                continue
            assert scale_compare(u, v) == want == _scale_compare_all_ratios(_scanning(u), _scanning(v))


def _long_run_table(rng):
    """A run-form table of a random polynomial on a window from dmin in
    [-400, -21] to dmax in [-20, 8], so that any two of them overlap, or
    None for a polynomial with d0 = 0."""
    p = random_invertible(rng, max_vars=4, max_det=300)
    try:
        return compute_table(p, (rng.randint(-400, -21), rng.randint(-20, 8)))
    except NonterminatingFamily:
        return None


@settings(max_examples=30)
@given(st.integers(0, 10**9))
def test_scale_compare_matches_all_ratios_on_long_windows(seed):
    # two polynomials' steps mostly differ, so the runs are cut and the top
    # of the shared window is searched first
    rng = random.Random(seed)
    t1, t2 = _long_run_table(rng), _long_run_table(rng)
    if t1 is None or t2 is None:
        return
    assert scale_compare(t1, t2) == _scale_compare_all_ratios(t1, t2)
    assert scale_compare(t2, t1) == _scale_compare_all_ratios(t2, t1)


@settings(max_examples=30)
@given(st.integers(0, 10**9))
def test_scale_compare_matches_all_ratios_below_the_top_window(seed):
    # a table against copies that agree at the top of the window, rescaled
    # by an integer and disturbed in one cell near dmin: the cell-built copy
    # and a run copy on twice the degree step, whose compare finds nothing
    # at the top and must sweep the whole window
    rng = random.Random(seed)
    t = _long_run_table(rng)
    if t is None:
        return
    c = rng.choice([1, 2, -1, -3])
    d = t.dmin + rng.randint(0, 2)
    q = rng.choice([0, *t.row(d)])
    cells = rescale(t, c).cells
    cells[(d, q)] = cells.get((d, q), 0) + rng.choice([1, -cells.get((d, q), 0)])
    runs = _run_copy(t, c, 2)
    copies = [BigradedTable(t.dmin, t.dmax, cells),
              BigradedTable(t.dmin, t.dmax, runs=runs.runs + [(d, q, 1, 1)], step=runs.step)]
    for copy in copies:
        assert scale_compare(t, copy) == _scale_compare_all_ratios(t, copy)
        assert scale_compare(copy, t) == _scale_compare_all_ratios(copy, t)


def _pieces_swept(monkeypatch):
    """Wrap the stretches that scale_compare sweeps to log each sweep's size."""
    sizes = []
    monkeypatch.setattr("mfhh.invariants.stretches",
                        lambda pieces, *a: sizes.append(len(pieces)) or stretches(pieces, *a))
    return sizes


# pairs whose degree steps differ, each distinguished near the top of its
# window: sweeping the whole windows would cut 2,784, 2,400 and 1,944 pieces
DISTINGUISHED_NEAR_THE_TOP = [
    (LAUFER2, LAUFER1, (-2640, 8), -5),
    ("x1^3+x2^3+x3^4+x4^5", "x1^2+x2^2+x3^5+x4^7", (-1630, 8), -1),
    ("x1^2+x2^3+x3^3+x4^5", "x1^2+x2^3+x3^5+x4^7", (-2230, 8), -1),
]


@pytest.mark.parametrize("first, second, window, witness", DISTINGUISHED_NEAR_THE_TOP)
def test_scale_compare_distinguished_near_the_top_sweeps_few_pieces(monkeypatch, first, second, window, witness):
    t1, t2 = table(first, window), table(second, window)
    sizes = _pieces_swept(monkeypatch)
    for u, v in ((t1, t2), (t2, t1)):
        sizes.clear()
        verdict = scale_compare(u, v)
        assert (verdict.kind, verdict.witness_degree) == ("distinguished", witness)
        assert sum(sizes) <= 400


def test_scale_compare_sweeps_the_whole_window_when_the_top_agrees(monkeypatch):
    # a run copy on twice the step, one point off at dmin: the top window
    # shows no difference, so the whole window is swept and finds dmin
    t = table(LAUFER1, (-2640, 8))
    runs = _run_copy(t, 1, 2)
    copy = BigradedTable(t.dmin, t.dmax, runs=runs.runs + [(t.dmin, 1, 1, 1)], step=runs.step)
    sizes = _pieces_swept(monkeypatch)
    verdict = scale_compare(t, copy)
    assert (verdict.kind, verdict.witness_degree) == ("distinguished", t.dmin)
    assert verdict == _scale_compare_all_ratios(t, copy)
    # the ranks: the top window, then the whole one; the zero weights: one
    assert len(sizes) == 3 and sizes[0] < sizes[1]
