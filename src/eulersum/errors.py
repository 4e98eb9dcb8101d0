"""Exception types shared across the library."""


class EulerSumError(Exception):
    """Base class for every library-specific failure.

    Carries the AbelEvaluations made before the failure, if any, so callers
    can report how far a schedule got (``trace``: (t, value) pairs), and
    the best value reached with its bound where there is one (``value`` and
    ``error_estimate``: PrecisionFloor's last extrapolant and floor).
    """

    def __init__(self, message: str = "", evaluations=None, value=None, error_estimate=None):
        super().__init__(message)
        self.evaluations = list(evaluations) if evaluations is not None else []
        self.value, self.error_estimate = value, error_estimate

    @property
    def trace(self) -> list:
        return [(e.t, e.value) for e in self.evaluations]


class TNotInUnitInterval(EulerSumError, ValueError):
    """Regulator parameter t lies outside the allowed unit interval."""


def check_t(t: float) -> None:
    """Raise TNotInUnitInterval unless the regulator t lies in [0, 1)."""
    if not 0.0 <= t < 1.0:
        raise TNotInUnitInterval(f"t={t!r} outside [0, 1)")


class TailNotBounded(EulerSumError, ArithmeticError):
    """A series tail could not be certified below the requested tolerance."""


class NoEulerSum(EulerSumError, ArithmeticError):
    """The t -> 1 limit does not exist or cannot be extracted numerically."""


class PrecisionFloor(EulerSumError, ArithmeticError):
    """The t -> 1 limit stopped contracting at a roundoff floor above the tolerance."""


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
