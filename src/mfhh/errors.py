"""Exception hierarchy.

InputError subclasses signal bad user input (CLI exit code 2); EngineError
subclasses signal that a computation cannot proceed on an otherwise
well-formed input (exit code 3).
"""


class MfhhError(Exception):
    pass


class InputError(MfhhError):
    pass


class EngineError(MfhhError):
    pass


class PolySyntaxError(InputError):
    """Bad token or malformed expression in the polynomial grammar."""


class CoefficientError(InputError):
    """A coefficient other than +1 appeared."""


class NotInvertible(InputError):
    """Exponent matrix is singular, non-square, misses a variable, or is
    not of Fermat/chain/loop shape."""


class NoPositiveSolution(InputError):
    """No positive weight system solves A*d = h*1 (degenerate input)."""


class DegenerateCharacter(EngineError):
    """The total character has finite order modulo the relation lattice: exactly when A is singular."""


class NotIsolated(EngineError):
    """Jacobian ring of a restriction is infinite-dimensional."""


class NonterminatingFamily(EngineError):
    """A monomial family stays inside the degree window forever (d0 = 0)."""


class WindowMismatch(MfhhError):
    """Two tables have disjoint degree windows."""


class SchemaError(InputError):
    """A table or polynomial document does not match its v1 schema."""


class UnknownFamily(InputError):
    """Unrecognized golden family name."""


class GoldenMismatch(MfhhError):
    """A golden family check failed; carries the full report."""

    def __init__(self, report):
        self.report = report
        super().__init__(report.diff_text())
