"""Exact bigraded cohomology dimension tables for invertible polynomials."""

__version__ = "0.1.0"

from .engine import (
    BigradedTable,
    Contribution,
    GammaMonomial,
    aggregate_contributions,
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
from .invariants import (
    FAMILY_NAMES,
    ScaleVerdict,
    SmallResVerdict,
    golden_check,
    golden_family_poly,
    scale_compare,
    small_res_probe,
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
