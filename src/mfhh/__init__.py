"""Exact bigraded cohomology dimension tables for invertible polynomials."""

__version__ = "0.1.0"

from .engine import (
    BigradedTable,
    Contribution,
    GammaMonomial,
    aggregate_contributions,
    class_contributions,
    compute_table,
    hh2_vanishes,
    list_contributions,
)
from .errors import (
    CoefficientError,
    DegenerateCharacter,
    EngineError,
    GoldenMismatch,
    InputError,
    MfhhError,
    NonterminatingFamily,
    NoPositiveSolution,
    NotInvertible,
    NotIsolated,
    PolySyntaxError,
    SchemaError,
    UnknownFamily,
    WindowMismatch,
)
from .jacobian import MonomialBasis, RestrictedPolynomial, milnor_number, monomial_basis, restrict
from .poly import InvertiblePolynomial, WeightSystem, parse, weights
from .symmetry import GroupElement, SymmetryContext

__all__ = [
    "BigradedTable",
    "Contribution",
    "GammaMonomial",
    "GroupElement",
    "InvertiblePolynomial",
    "MonomialBasis",
    "RestrictedPolynomial",
    "ScaleVerdict",
    "SmallResVerdict",
    "SymmetryContext",
    "WeightSystem",
    "aggregate_contributions",
    "class_contributions",
    "compute_table",
    "golden_check",
    "golden_family_poly",
    "hh2_vanishes",
    "list_contributions",
    "milnor_number",
    "monomial_basis",
    "parse",
    "restrict",
    "scale_compare",
    "small_res_probe",
    "weights",
    "FAMILY_NAMES",
]


def __getattr__(name):
    # invariants, and dataclasses with it, loads on first use, so a `table` run
    # compiles no verdicts; the value lands in the module dict, as an import's does
    if name not in ("FAMILY_NAMES", "ScaleVerdict", "SmallResVerdict", "golden_check",
                    "golden_family_poly", "scale_compare", "small_res_probe"):
        raise AttributeError(f"module {__name__!r} has no attribute {name!r}")
    from . import invariants

    globals()[name] = value = getattr(invariants, name)
    return value
