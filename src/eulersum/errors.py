"""Exception types shared across the library."""


class EulerSumError(Exception):
    """Base class for every library-specific failure."""


class TNotInUnitInterval(EulerSumError, ValueError):
    """Regulator parameter t lies outside the allowed unit interval."""


class TailNotBounded(EulerSumError, ArithmeticError):
    """A series tail could not be certified below the requested tolerance."""


class NoEulerSum(EulerSumError, ArithmeticError):
    """The t -> 1 limit does not exist or cannot be extracted numerically.

    Carries the AbelEvaluations made before the failure was declared, so
    callers can report how far the schedule got (``trace``: (t, value) pairs).
    """

    def __init__(self, message: str, evaluations=None):
        super().__init__(message)
        self.evaluations = list(evaluations) if evaluations is not None else []

    @property
    def trace(self) -> list:
        return [(e.t, e.value) for e in self.evaluations]


class DomainError(EulerSumError, ValueError):
    """An argument lies outside the mathematical domain of the operation."""


class BoundaryAmbiguous(EulerSumError, ValueError):
    """The evaluation point coincides with an interval endpoint, so the
    limit cannot be classified as inside or outside."""


class QuadratureNotConverged(EulerSumError, ArithmeticError):
    """Two successive panel refinements disagree beyond the tolerance."""


class TestFunctionBoundary(EulerSumError, ValueError):
    """Test function violates the boundary conditions of the basis."""

    __test__ = False  # not a test case, despite the name


class TruncationInsufficient(EulerSumError, ArithmeticError):
    """The integrand has not decayed enough at the truncation points."""


class NOverflow(EulerSumError, OverflowError):
    """An eigenfunction evaluation produced a non-finite value."""


class InvalidConfig(EulerSumError, ValueError):
    """A configuration object or CLI invocation is ill-formed."""
