"""The record types are immutable named tuples that keep the behaviour they
had as frozen dataclasses: value equality and hashing, no attribute
assignment, the same repr, and the same order of ker(chi)."""

from fractions import Fraction

import pytest

from mfhh import (
    FAMILY_NAMES,
    Contribution,
    GammaMonomial,
    GoldenMismatch,
    GroupElement,
    InvertiblePolynomial,
    MonomialBasis,
    RestrictedPolynomial,
    SymmetryContext,
    WeightSystem,
    golden_check,
    list_contributions,
    monomial_basis,
    parse,
    restrict,
)
from mfhh.invariants import GoldenReport
from mfhh.jacobian import BoxBasis
from mfhh.lattice import SmithDecomposition, smith

P = "InvertiblePolynomial(matrix=((5, 0), (0, 3)))"
G0 = "GroupElement(phases=(Fraction(0, 1), Fraction(0, 1)), fixed=frozenset({0, 1, 2}))"

# (record type, a builder of a fresh instance, its repr)
RECORDS = [
    (InvertiblePolynomial, lambda: parse("x1^5+x2^3"), P),
    (WeightSystem, lambda: parse("x1^5+x2^3").weights(), "WeightSystem(d=(3, 5), h=15, d0=7)"),
    (
        SmithDecomposition,
        lambda: smith([[2, 1], [0, 3]]),
        "SmithDecomposition(u=((1, 0), (3, -1)), d=((1, 0), (0, 6)), v=((0, 1), (1, -2)))",
    ),
    (
        RestrictedPolynomial,
        lambda: restrict(parse("x1^5+x2^3"), (1, 2)),
        f"RestrictedPolynomial(parent={P}, fixed=(1, 2), terms=((5, 0), (0, 3)))",
    ),
    (
        MonomialBasis,
        lambda: monomial_basis(restrict(parse("x1^2*x2+x2^3"), (1, 2))),
        "MonomialBasis(variables=(1, 2), monomials=((0, 0), (0, 1), (1, 0), (0, 2)))",
    ),
    (
        BoxBasis,
        lambda: monomial_basis(restrict(parse("x1^2*x2+x2^3"), (1, 2)), boxes=True),
        "BoxBasis(variables=(1, 2), boxes=((range(0, 1), range(0, 3)), (range(1, 2), range(0, 1))))",
    ),
    (GroupElement, lambda: SymmetryContext(parse("x1^2+x2^3")).ker_chi()[0], G0),
    (
        GammaMonomial,
        lambda: list_contributions(parse("x1^2+x2^3"), (-3, 2))[0].monomial,
        "GammaMonomial(kind='A', beta=4, b=(4, 0, 1))",
    ),
    (
        Contribution,
        lambda: list_contributions(parse("x1^2+x2^3"), (-3, 2))[0],
        f"Contribution(gamma={G0}, monomial=GammaMonomial(kind='A', beta=4, b=(4, 0, 1)), "
        "u=1, degree=2, count=1)",
    ),
]


@pytest.mark.parametrize("cls, build, text", RECORDS, ids=[r[0].__name__ for r in RECORDS])
def test_records_are_values_with_the_dataclass_repr(cls, build, text):
    a, b = build(), build()
    assert type(a) is cls
    assert a is not b and a == b and hash(a) == hash(b)
    assert repr(a) == text
    with pytest.raises(AttributeError):
        setattr(a, cls._fields[0], None)
    with pytest.raises(AttributeError):
        a.extra = 1


def test_record_properties():
    assert parse("x1^5+x2^3").nvars == 2
    assert smith([[2, 1], [0, 3]]).diagonal == (1, 6)
    r = restrict(parse("x1^2*x2+x2^3"), (1, 2))
    assert monomial_basis(r).dimension == monomial_basis(r, boxes=True).dimension == 4
    c = list_contributions(parse("x1^2+x2^3"), (-3, 2))[0]
    assert c.weight == c.monomial.weight == 4 and c.monomial.pattern() == "x0^4*x2"


def test_ker_chi_keeps_its_sorted_order():
    ker = SymmetryContext(parse("x1^2*x2+x2^3")).ker_chi()
    phases = [tuple(map(str, g.phases)) for g in ker]
    assert phases == [("0", "0"), ("1/6", "2/3"), ("1/3", "1/3"), ("1/2", "0"), ("2/3", "2/3"), ("5/6", "1/3")]
    assert SymmetryContext(parse("x1^2+x2^2")).ker_chi() == [
        GroupElement((Fraction(0), Fraction(0)), frozenset({0, 1, 2})),
        GroupElement((Fraction(0), Fraction(1, 2)), frozenset({1})),
        GroupElement((Fraction(1, 2), Fraction(0)), frozenset({2})),
        GroupElement((Fraction(1, 2), Fraction(1, 2)), frozenset({0})),
    ]
    for text in ("x1^3*x2+x2^3*x3+x3^2+x4^2", "x1^2*x2+x2^2*x3+x3^2*x1", "x1^3+x2^4+x3^5"):
        ker = SymmetryContext(parse(text)).ker_chi()
        assert ker == sorted(ker, key=lambda g: g.phases) and len(set(ker)) == len(ker)


def _report(family, **params):
    try:
        return golden_check(family, **params)
    except GoldenMismatch as exc:
        return exc.report


BP_CD4 = """golden bp_cD4 l=None k=1: x1^2 + x2^3 + x3^3 + x4^6
  dim HH^3: expected 20, got 20  [ok]
  dim HH^2: expected 0, got 0  [ok]
""" + "".join(f"  dim HH^{d}: expected 0, got 0  [ok]\n" for d in range(4, 9)) + "".join(
    f"  dim HH^{d}: expected 4, got 4  [ok]\n" for d in range(-8, 2)
) + "  HH^2 vanishes: expected True, got True  [ok]"


def test_golden_report_text_and_verdict():
    assert _report("bp_cD4").diff_text() == BP_CD4
    can = _report("can_cA", l=2).diff_text().splitlines()
    assert can[:2] == [
        "golden can_cA l=2 k=1: x1^2 + x2^2 + x3^2*x4 + x3*x4^2",
        "  dim HH^3: expected 3, got 4  [MISMATCH]",
    ]
    laufer = _report("laufer").diff_text().splitlines()
    assert laufer[1] == "  (conditional: relies on an unproven equivalence)"
    for family in FAMILY_NAMES:
        report = _report(family, l=2)
        assert report.passed == (family != "can_cA")
        lines = report.diff_text().splitlines()
        assert len(lines) == 1 + report.conditional + len(report.checks) == 1 + report.conditional + 18


def test_golden_reports_do_not_share_their_checks():
    a, b = golden_check("bp_cA", l=2), golden_check("bp_cA", l=2)
    assert a == b and a.checks is not b.checks
    with pytest.raises(TypeError):
        hash(a)  # the checks list is mutable, as the dataclass was unhashable
    with pytest.raises(AttributeError):
        a.family = "bp_cD4"
    r = GoldenReport("f", None, 1, "x1^2", (-1, 1), [])
    assert r.passed and not r.conditional
    assert repr(r) == (
        "GoldenReport(family='f', l=None, k=1, poly_text='x1^2', window=(-1, 1), checks=[], conditional=False)"
    )
