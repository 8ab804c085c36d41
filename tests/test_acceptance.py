"""Acceptance suite: one criterion per test, one PASS/FAIL line each.

Run with `pytest -s tests/test_acceptance.py` to see every line; each
criterion asserts exact values (integer equality everywhere).
"""

import io
import json
import random
from collections import Counter
from math import prod

from conftest import random_invertible
from lattice_oracle import quotient
from test_oracle import brute_table_cells
from mfhh.cli import main as cli_main
from mfhh.engine import aggregate_contributions, compute_table, hh2_vanishes, list_contributions
from mfhh.errors import NonterminatingFamily
from mfhh.invariants import scale_compare
from mfhh.jacobian import milnor_number
from mfhh.poly import parse
from mfhh.symmetry import SymmetryContext


def _criterion(number, name, failures):
    status = "PASS" if not failures else "FAIL"
    print(f"\nACCEPTANCE CRITERION {number} [{name}]: {status}")
    for f in failures:
        print(f"  - {f}")
    assert not failures, f"criterion {number} ({name}): {failures}"


def _bp_cA_hh3(l, k):
    return l * (k * (l + 1) - 1)


def _can_cA_hh3(l, k):
    # At k = 1, x3^l*x4+x3*x4^l and x3^(l+1)+x4^(l+1) are both binary forms of
    # degree l+1 with l+1 distinct linear factors.  Such forms make a connected
    # set along which x1^2+x2^2+f_t stays isolated with mu = l^2, so the Milnor
    # fibres of can_cA and bp_cA are deformation equivalent and, both
    # polynomials being self-transpose, their tables agree degree by degree.
    # The tabulated (kl+1)(l-1) gives l^2-1 there; the k = 1 row therefore takes
    # the bp_cA closed form.  The k = 2 rows are not settled by this argument
    # and keep the tabulated form.
    if k == 1:
        return _bp_cA_hh3(l, 1)
    return (k * l + 1) * (l - 1)


SUMMARY_ROWS = []  # (label, polynomial text, dim HH^3 closed form, constant rank)
for _k in (1, 2):
    for _l in (1, 2, 3, 4):
        SUMMARY_ROWS.append(
            (
                f"bp_cA l={_l} k={_k}",
                f"x1^2+x2^2+x3^{_l + 1}+x4^{_k * (_l + 1)}",
                _bp_cA_hh3(_l, _k),
                _l,
            )
        )
    for _l in (2, 3, 4):
        SUMMARY_ROWS.append(
            (
                f"can_cA l={_l} k={_k}",
                f"x1^2+x2^2+x3^{_l}*x4+x3*x4^{_k * (_l - 1) + 1}",
                _can_cA_hh3(_l, _k),
                _l,
            )
        )
    SUMMARY_ROWS.append((f"bp_cD4 k={_k}", f"x1^2+x2^3+x3^3+x4^{6 * _k}", 24 * _k - 4, 4))
    SUMMARY_ROWS.append(
        (f"laufer k={_k}", f"x1^3*x2+x2^{2 * _k + 1}*x3+x3^2+x4^2", 6 * _k + 5, 1)
    )
    SUMMARY_ROWS.append((f"bp_cE6 k={_k}", f"x1^2+x2^3+x3^4+x4^{12 * _k}", 72 * _k - 6, 6))
    SUMMARY_ROWS.append((f"bp_cE8 k={_k}", f"x1^2+x2^3+x3^5+x4^{30 * _k}", 240 * _k - 8, 8))


def test_criterion_1_summary_table():
    failures = []
    for label, text, hh3, rank in SUMMARY_ROWS:
        k = int(label.split("k=")[1])
        lo = -2 * (2 * (k + 1))
        table = compute_table(parse(text), (lo, 8))
        if table.dim(3) != hh3:
            failures.append(f"{label}: dim HH^3 expected {hh3}, got {table.dim(3)}")
        if table.dim(2) != 0:
            failures.append(f"{label}: dim HH^2 expected 0, got {table.dim(2)}")
        for d in range(lo, 2):
            if table.dim(d) != rank:
                failures.append(f"{label}: dim HH^{d} expected {rank}, got {table.dim(d)}")
        for d in range(4, 9):
            if table.dim(d) != 0:
                failures.append(f"{label}: dim HH^{d} expected 0, got {table.dim(d)}")
    _criterion(1, "summary-table reproduction", failures)


def test_criterion_2_degree_three_weight_and_milnor():
    failures = []
    bp_rows = [(label, text) for label, text, _, _ in SUMMARY_ROWS if label.startswith("bp")]
    for label, text in bp_rows:
        p = parse(text)
        mu = prod(p.matrix[i][i] - 1 for i in range(p.nvars))
        cell = compute_table(p, (3, 3)).cells.get((3, -1), 0)
        if cell != mu:
            failures.append(f"{label}: weight -1 count in degree 3 expected {mu}, got {cell}")
        got_mu = milnor_number(p)
        if got_mu != mu:
            failures.append(f"{label}: Milnor number expected {mu}, got {got_mu}")
    _criterion(2, "degree-3 weight -1 counts equal Milnor numbers", failures)


def _even_series_dims(l, d):
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


def test_criterion_3_even_exponent_series():
    failures = []
    for l in (2, 4):
        window = (-2 * (l + 3) - l, 4)
        table = compute_table(parse(f"x1^2+x2^2+x3^2+x4^{l + 1}"), window)
        for d in range(window[0], window[1] + 1):
            want = _even_series_dims(l, d)
            if table.dim(d) != want:
                failures.append(f"l={l}: dim HH^{d} expected {want}, got {table.dim(d)}")
    _criterion(3, "even-exponent closed-form table", failures)


def _laufer_rows(k, dmin, dmax):
    """(type, degree, weight) -> count from the tabulated parametrizations."""
    rows = Counter()

    def add(kind, d, q, n=1):
        if dmin <= d <= dmax and n > 0:
            rows[(kind, d, q)] += n

    add("C", 3, -1, 6 * k + 2)
    add("B", 3, -1, 1)
    add("C", 3, -1, 2)
    pmax = (abs(dmin) + abs(dmax)) // 2 + 4

    def add_ab(d, q):
        add("A", d, q)
        add("B", d + 1, q)

    for p in range(2, pmax, 2):
        add_ab(-4 * (k + 1) * p + 2, (6 * k + 3) * p - 1)
    for p in range(0, pmax):
        for qq in range(0, 2 * k + 1):
            if p % 2 == qq % 2:
                add_ab(-4 * (k + 1) * p - 2 * qq, (6 * k + 3) * p + 3 * qq)
        for qq in range(0, 2 * k):
            if p % 2 == qq % 2:
                add_ab(-4 * (k + 1) * p - 2 * qq - 2, (6 * k + 3) * p + 3 * qq + 4)
    for p in range(0, pmax, 2):
        add_ab(-4 * (k + 1) * (p + 1), (6 * k + 3) * p + 6 * k + 4)
        add_ab(-4 * (k + 1) * p - 4 * k - 2, (6 * k + 3) * p + 6 * k + 2)
    return rows


def _can_rows(l, k, dmin, dmax):
    rows = Counter()

    def add(kind, d, q, n=1):
        if dmin <= d <= dmax and n > 0:
            rows[(kind, d, q)] += n

    add("C", 3, -1, k * l * (l - 1))
    # l kind-B rows in degree 3: the two beta = 0 monomials x3^(l-1), x4^(l-1)
    # of the class fixing {x0, x3, x4} plus l - 2 all-dual ones.  This count is
    # settled only for k = 1 (equivalence with bp_cA), the one case the test
    # calls.
    add("B", 3, -1, l)
    pmax = (abs(dmin) + abs(dmax)) // 2 + 4

    def add_ab(d, q, n=1):
        add("A", d, q, n)
        add("B", d + 1, q, n)

    for p in range(0, pmax):
        for qq in range(0, k):
            for r in range(0, l):
                add_ab(-2 * (k + 1) * p - 2 * qq, (k * l + 1) * p + qq * l + r)
        add_ab(-2 * (k + 1) * p - 2 * k, (k * l + 1) * p + k * l, 2)
        add_ab(-2 * (k + 1) * p - 2 * k, (k * l + 1) * p + k * l, l - 2)
    return rows


def test_criterion_4_contribution_tables():
    failures = []
    # Laufer at k = 1 over [-12, 4]
    contribs = list_contributions(parse("x1^3*x2+x2^3*x3+x3^2+x4^2"), (-12, 4))
    got = Counter()
    for c in contribs:
        got[(c.monomial.kind, c.degree, c.weight)] += 1
    want = _laufer_rows(1, -12, 4)
    for key in sorted(set(want) | set(got)):
        if want.get(key, 0) != got.get(key, 0):
            failures.append(
                f"laufer k=1 row {key}: expected {want.get(key, 0)}, got {got.get(key, 0)}"
            )
    deg3 = Counter(
        (r["monomial"], r["type"], r["count"])
        for r in aggregate_contributions(contribs)
        if r["d"] == 3
    )
    want3 = Counter(
        {
            ("x0^∨*x1^∨*x2^∨*x3^∨*x4^∨", "C", 8): 1,
            ("x0^∨*x1^∨*x2^∨*x3^∨*x4^∨", "B", 1): 1,
            ("x0^∨*x1^∨*x2^2*x4^∨", "C", 2): 1,
        }
    )
    if deg3 != want3:
        failures.append(f"laufer k=1 degree-3 rows: expected {dict(want3)}, got {dict(deg3)}")

    # two-branch family at (l, k) = (2, 1) over [-4, 4]
    contribs = list_contributions(parse("x1^2+x2^2+x3^2*x4+x3*x4^2"), (-4, 4))
    got = Counter()
    for c in contribs:
        got[(c.monomial.kind, c.degree, c.weight)] += 1
    want = _can_rows(2, 1, -4, 4)
    for key in sorted(set(want) | set(got)):
        if want.get(key, 0) != got.get(key, 0):
            failures.append(
                f"can (2,1) row {key}: expected {want.get(key, 0)}, got {got.get(key, 0)}"
            )
    deg3 = Counter(
        (r["monomial"], r["type"], r["count"])
        for r in aggregate_contributions(contribs)
        if r["d"] == 3
    )
    # No element of ker(chi) fixes exactly x0 (fixing x0 and moving x1, x2
    # forces t3*t4 = t3^2*t4 = 1, so t3 = t4 = 1), hence no all-dual B row.
    # The class fixing {x0, x3, x4} gives the two beta = 0 rows x3 and x4:
    # their exponent vectors (-1,-1,-1,1,0) and (-1,-1,-1,0,1) lie in the
    # relation lattice, so u = 0 and the degree is 2*0 + 3 - 2 + 2 = 3.
    want3 = Counter(
        {
            ("x0^∨*x1^∨*x2^∨*x3^∨*x4^∨", "C", 2): 1,
            ("x0^∨*x1^∨*x2^∨*x3", "B", 1): 1,
            ("x0^∨*x1^∨*x2^∨*x4", "B", 1): 1,
        }
    )
    if deg3 != want3:
        failures.append(f"can (2,1) degree-3 rows: expected {dict(want3)}, got {dict(deg3)}")
    _criterion(4, "reference contribution tables", failures)


def test_criterion_5_distinguishing_suite():
    failures = []
    window = (-12, -1)
    xi1 = {
        "alpha_1_1": compute_table(parse("x1^2+x2^2+x3^2+x4^2"), window),
        "alpha_1_2": compute_table(parse("x1^2+x2^2+x3^2+x4^4"), window),
        "lambda_1_1": compute_table(parse("x1^3*x2+x2^3*x3+x3^2+x4^2"), window),
        "lambda_1_2": compute_table(parse("x1^3*x2+x2^5*x3+x3^2+x4^2"), window),
    }
    named = {
        ("alpha_1_1", "alpha_1_2"): -4,
        ("alpha_1_1", "lambda_1_1"): -4,
        ("alpha_1_1", "lambda_1_2"): -4,
        ("alpha_1_2", "lambda_1_1"): -8,
        ("alpha_1_2", "lambda_1_2"): -6,
        ("lambda_1_1", "lambda_1_2"): -6,
    }
    for (n1, n2), deg in named.items():
        v = scale_compare(xi1[n1], xi1[n2])
        if v.kind != "distinguished":
            failures.append(f"{n1} vs {n2}: expected distinguished, got {v.kind}")
        elif v.witness_degree not in (deg, deg + 1):
            failures.append(
                f"{n1} vs {n2}: witness at {v.witness_degree}, expected {deg} or its odd partner"
            )
    xi4 = {
        "alpha_4_1": compute_table(parse("x1^2+x2^2+x3^5+x4^5"), window),
        "beta_4_2": compute_table(parse("x1^2+x2^2+x3^4*x4+x3*x4^7"), window),
        "delta_4_1": compute_table(parse("x1^2+x2^3+x3^3+x4^6"), window),
    }
    # weight exponents at degree -2k: 5k-1, 4k and 6k-1 respectively
    checks = [
        ("alpha_4_1", -2, (4, 4, 4, 4)),
        ("beta_4_2", -4, (8, 8, 8, 8)),
        ("delta_4_1", -2, (5, 5, 5, 5)),
    ]
    for name, d, weights in checks:
        got = xi4[name].weights(d)
        if got != weights:
            failures.append(f"{name}: weights at {d} expected {weights}, got {got}")
    names = list(xi4)
    for i in range(len(names)):
        for j in range(i + 1, len(names)):
            v = scale_compare(xi4[names[i]], xi4[names[j]])
            if v.kind != "distinguished":
                failures.append(
                    f"{names[i]} vs {names[j]}: expected distinguished, got {v.kind}"
                )
    for l in (2, 3):
        a = compute_table(parse(f"x1^2+x2^2+x3^{l + 1}+x4^{l + 1}"), window)
        b = compute_table(parse(f"x1^2+x2^2+x3^{l}*x4+x3*x4^{l}"), window)
        v = scale_compare(a, b)
        if v.kind != "equivalent":
            failures.append(f"alpha_{l}_1 vs beta_{l}_1: expected equivalent, got {v.kind}")
    _criterion(5, "distinguishing suite", failures)


def test_criterion_6_property_suite():
    failures = []

    # A/B degree-shift pairing on 20 random valid polynomials
    rng = random.Random(31415)
    count = 0
    while count < 20:
        p = random_invertible(rng, max_vars=4, max_det=400)
        try:
            contribs = list_contributions(p, (-8, 4))
        except NonterminatingFamily:
            continue
        count += 1
        a = Counter(
            (c.degree, c.weight) for c in contribs if c.monomial.kind == "A"
        )
        b1 = Counter(
            (c.degree, c.weight)
            for c in contribs
            if c.monomial.kind == "B" and c.monomial.beta >= 1
        )
        for (d, q), n in a.items():
            if d + 1 <= 4 and b1.get((d + 1, q), 0) != n:
                failures.append(f"A/B pairing failed for {p} at ({d},{q})")
        for (d, q), n in b1.items():
            if d - 1 >= -8 and a.get((d - 1, q), 0) != n:
                failures.append(f"B/A pairing failed for {p} at ({d},{q})")

    # basis-order independence of tables: the engine's grevlex tables equal
    # the brute-force oracle's tables from lex bases, which the test-side box
    # walk builds
    for text in (
        "x1^3*x2+x2^3*x3+x3^2+x4^2",
        "x1^2+x2^2+x3^2*x4+x3*x4^2",
        "x1^2+x2^3+x3^3+x4^6",
    ):
        p = parse(text)
        if compute_table(p, (-10, 4)).cells != brute_table_cells(p, (-10, 4), "lex"):
            failures.append(f"basis-order dependence for {text}")

    # |ker chi| = |det A| with the brute-force quotient cross-check
    rng = random.Random(16180)
    for _ in range(10):
        p = random_invertible(rng, max_vars=4, max_det=10000)
        ctx = SymmetryContext(p)
        ker = ctx.ker_chi()
        if len(ker) != abs(p.det()):
            failures.append(f"|ker chi| != |det| for {p}")
        quot = quotient([list(col) for col in zip(*p.matrix)])
        if set(quot.elements()) != {g.phases for g in ker}:
            failures.append(f"quotient cross-check failed for {p}")

    # window-restriction consistency
    rng = random.Random(14142)
    for _ in range(5):
        p = random_invertible(rng, max_vars=4, max_det=300)
        try:
            big = compute_table(p, (-9, 4))
        except NonterminatingFamily:
            continue
        if big.restrict(-5, 2) != compute_table(p, (-5, 2)):
            failures.append(f"window restriction inconsistency for {p}")

    # scale_compare symmetry and self-equivalence
    rng = random.Random(17320)
    for _ in range(5):
        p1 = random_invertible(rng, max_vars=4, max_det=300)
        p2 = random_invertible(rng, max_vars=4, max_det=300)
        try:
            t1 = compute_table(p1, (-8, -1))
            t2 = compute_table(p2, (-8, -1))
        except NonterminatingFamily:
            continue
        self_v = scale_compare(t1, t1)
        if not (self_v.kind in ("equivalent", "inconclusive")):
            failures.append(f"self-comparison not equivalent for {p1}")
        if self_v.kind == "equivalent" and self_v.c != 1:
            failures.append(f"self-comparison scale != 1 for {p1}")
        v = scale_compare(t1, t2)
        w = scale_compare(t2, t1)
        if v.kind != w.kind:
            failures.append(f"asymmetric verdicts for {p1} vs {p2}")
        if v.kind == "equivalent" and w.c != 1 / v.c:
            failures.append(f"scales not reciprocal for {p1} vs {p2}")

    _criterion(6, "property suite", failures)


def test_criterion_7_hh2_flag():
    failures = []
    for label, text, _, _ in SUMMARY_ROWS:
        if not hh2_vanishes(parse(text)):
            failures.append(f"{label}: HH^2 does not vanish")
    # the flag is present in every emitted document
    for text in ("x1^2+x2^2+x3^2+x4^2", "x1^3*x2+x2^3*x3+x3^2+x4^2"):
        out = io.StringIO()
        code = cli_main(
            ["table", "--poly", text, "--dmin", "-4", "--dmax", "4", "--format", "json"],
            out=out,
            err=io.StringIO(),
        )
        doc = json.loads(out.getvalue())
        if code != 0 or "hh2_vanishes" not in doc:
            failures.append(f"document for {text} lacks the hh2_vanishes flag")
        elif doc["hh2_vanishes"] is not True:
            failures.append(f"document for {text} reports hh2_vanishes = {doc['hh2_vanishes']}")
    _criterion(7, "degree-2 vanishing flag", failures)
