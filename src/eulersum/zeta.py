"""Riemann zeta values by direct summation and by Euler summation.

For s > 1 the defining series sum(n^-s) converges and is evaluated with
an Euler-Maclaurin tail correction.  For s <= 0 the alternating form

    zeta(s) = 1/(1 - 2^(1-s)) * sum((-1)^(n+1) n^-s)

is Euler-summed: the alternating series is Abel-evaluated inside the unit
interval and extrapolated to t = 1.  The two routes overlap for s > 1 and
must agree there.
"""

from __future__ import annotations

import math
from typing import Optional

import numpy as np

from .errors import DomainError, InvalidConfig
from .resummation import CoefficientSequence, EulerLimitConfig, EulerLimitResult, euler_limit

#: Closed-form reference values used by the CLI for the error column.
KNOWN_VALUES = {
    -5.0: -1.0 / 252.0,
    -4.0: 0.0,
    -3.0: 1.0 / 120.0,
    -2.0: 0.0,
    -1.0: -1.0 / 12.0,
    0.0: -0.5,
    2.0: math.pi ** 2 / 6.0,
    4.0: math.pi ** 4 / 90.0,
    6.0: math.pi ** 6 / 945.0,
}


def alternating_sequence(s: float) -> CoefficientSequence:
    """Coefficients a_n = (-1)^(n+1) n^-s / (1 - 2^(1-s)), n >= 1: the
    prefactor with the sign of a_n, times n^-s; the bound is |prefactor|."""
    if s == 1.0:
        raise DomainError("prefactor pole at s = 1")
    u = 1.0 - s  # near the pole 1 - 2^u cancels, and -expm1(u ln 2) keeps its digits
    if u >= 1024.0:
        raise DomainError(f"prefactor 1/(1 - 2^(1-s)) does not fit a double at s={s!r}")
    pref = -1.0 / math.expm1(u * math.log(2.0)) if abs(u) < 0.05 else 1.0 / (1.0 - 2.0 ** u)
    by_parity = np.array([-pref, pref])

    def term_block(idx: np.ndarray) -> np.ndarray:
        return by_parity.take(idx.astype(np.int64) & 1) * idx ** -s

    return CoefficientSequence(term_block, growth_hint=-s, bound=abs(pref))


def plain_sequence(s: float) -> CoefficientSequence:
    """Coefficients a_n = n^-s, n >= 1 (the raw defining series).

    For s = 0 this is the all-ones series 1 + 1 + 1 + ..., which has no
    Euler sum; feeding it to euler_limit exercises the honest-failure
    path.  The bound is 1: |a_n| <= n^-s.
    """
    return CoefficientSequence(lambda idx: idx ** -s, growth_hint=-s, bound=1.0)


def zeta_direct(s: float, tol: float) -> float:
    """sum(n^-s) for s > 1, certified to absolute accuracy ``tol``.

    The tail past N is replaced by its Euler-Maclaurin expansion through
    the first-derivative term; the remainder is bounded by twice the next
    term of the expansion, and N is chosen so that bound is <= tol.
    """
    if not 0.0 < tol < math.inf:
        raise InvalidConfig("tol must be finite and positive")
    if s <= 1.0:
        raise DomainError(f"direct summation diverges for s={s!r} <= 1")
    a = 16.0
    while s * (s + 1.0) * (s + 2.0) * a ** (-s - 3.0) / 360.0 > tol:
        a *= 2.0
    n_terms = int(a) - 1
    ns = np.arange(1, n_terms + 1, dtype=np.float64)
    partial = math.fsum(ns ** (-s))
    tail = a ** (1.0 - s) / (s - 1.0) + 0.5 * a ** (-s) + s * a ** (-s - 1.0) / 12.0
    return partial + tail


def zeta_euler(s: float, cfg: Optional[EulerLimitConfig] = None) -> EulerLimitResult:
    """Euler summation of the alternating series for zeta(s), s != 1.

    Works for all s where the extrapolation converges, however large |zeta(s)|
    is; for sufficiently negative s the Abel evaluations are swamped by
    cancellation noise and PrecisionFloor propagates instead of a silently
    wrong value (below about s = -85.5 the coefficients overflow: DomainError).
    """
    return euler_limit(alternating_sequence(s), cfg)


def reference_value(s: float) -> Optional[float]:
    """Best available reference for zeta(s): table lookup, or direct
    summation for s > 1 to within 1e-10; None when neither applies."""
    if float(s) in KNOWN_VALUES:
        return KNOWN_VALUES[float(s)]
    if s > 1.0:
        return zeta_direct(s, 1e-10)
    return None
