"""Regulated kernels for the infinite square well on [0, pi].

The completeness sum (2/pi) sum(t^n sin(nx) sin(ny)) has the closed form
K(x, y, t) = D(x-y, t) - D(x+y, t) with

    D(z, t) = (1 - t cos z) / (pi (1 - 2 t cos z + t^2)),

and the regulated Hamiltonian kernel is H = -1/2 d^2K/dy^2, obtained here
from the analytic second derivative of D:

    D''(z, t) = -t (1 - t^2) (cos z (1 - 2 t cos z + t^2) - 4 t sin^2 z)
                / (pi (1 - 2 t cos z + t^2)^3).

The interval integral of K over [a, b] in y reduces exactly to four
principal arguments of f(u) = 1 - t e^{iu}; as t -> 1 it tends to 1 when
x is inside (a, b) and to 0 when x is outside, which is the delta-family
property the kernels are built to exhibit.
"""

from __future__ import annotations

import math
import time
from dataclasses import dataclass
from typing import Callable, Union

import numpy as np

from .errors import (
    BoundaryAmbiguous,
    DomainError,
    InvalidConfig,
    TailNotBounded,
    TestFunctionBoundary,
    check_t,
)
from .quadrature import eval_test_function, integrate
from .resummation import (_BLOCK_MAX, AbelEvaluation, CoefficientSequence, _certified_tail, _certified_terms,
                          _power_table)

PI = math.pi

ArrayLike = Union[float, np.ndarray]


@dataclass(frozen=True)
class WellKernelPoint:
    """An (x, y, t) evaluation point on [0, pi]^2 x [0, 1)."""

    x: float
    y: float
    t: float

    def __post_init__(self):
        if not 0.0 <= self.x <= PI or not 0.0 <= self.y <= PI:
            raise DomainError(f"(x, y)=({self.x!r}, {self.y!r}) outside [0, pi]^2")
        check_t(self.t)


@dataclass(frozen=True)
class IntervalIntegralQuery:
    """Integral of K(x, ., t) over [a, b] within [0, pi], fixed x."""

    x: float
    a: float
    b: float
    t: float

    def __post_init__(self):
        if not 0.0 < self.x < PI:
            raise DomainError(f"x={self.x!r} must lie in (0, pi)")
        if not (0.0 <= self.a < self.b <= PI):
            raise DomainError(f"need 0 <= a < b <= pi, got a={self.a!r}, b={self.b!r}")
        check_t(self.t)


def phi_well(n: int, x: float) -> float:
    """Normalised eigenfunction sqrt(2/pi) sin(n x) on [0, pi]."""
    if n < 1:
        raise DomainError("n must be >= 1")
    if not 0.0 <= x <= PI:
        raise DomainError(f"x={x!r} outside [0, pi]")
    return math.sqrt(2.0 / PI) * math.sin(n * x)


def _d(z: ArrayLike, t: float) -> ArrayLike:
    # 1 - 2 t cos z + t^2 and 1 - t cos z rewritten to avoid cancellation
    # near z = 0, t -> 1.
    s2 = np.sin(0.5 * np.asarray(z, dtype=np.float64)) ** 2
    m = (1.0 - t) ** 2 + 4.0 * t * s2
    num = (1.0 - t) + 2.0 * t * s2
    return num / (PI * m)


def _d2(z: ArrayLike, t: float) -> ArrayLike:
    z = np.asarray(z, dtype=np.float64)
    s2 = np.sin(0.5 * z) ** 2
    m = (1.0 - t) ** 2 + 4.0 * t * s2
    sin_z = np.sin(z)
    cos_z = np.cos(z)
    return -t * (1.0 - t * t) * (cos_z * m - 4.0 * t * sin_z ** 2) / (PI * m ** 3)


def d_kernel(z: float, t: float) -> float:
    """Closed form of 1/pi + (1/pi) sum(t^n cos(nz)); 2pi-periodic in z."""
    check_t(t)
    return float(_d(z, t))


def _k(x: float, y: ArrayLike, t: float) -> ArrayLike:
    return _d(x - np.asarray(y), t) - _d(x + np.asarray(y), t)


def _h(x: float, y: ArrayLike, t: float) -> ArrayLike:
    return -0.5 * (_d2(x - np.asarray(y), t) - _d2(x + np.asarray(y), t))


def k_kernel(p: WellKernelPoint) -> float:
    """Regulated completeness kernel D(x-y, t) - D(x+y, t)."""
    return float(_k(p.x, p.y, p.t))


def _weighted_series(p: WellKernelPoint, n_max: int, power: int) -> float:
    """Truncated sum (2/pi) sum_{n<=n_max} E_n^power t^n sin(nx) sin(ny),
    E_n = n^2/2."""
    if n_max < 1:
        raise DomainError("n_max must be >= 1")
    ns = np.arange(1, n_max + 1, dtype=np.float64)
    terms = (2.0 / PI) * (ns ** 2 / 2.0) ** power * p.t ** ns * np.sin(ns * p.x) * np.sin(ns * p.y)
    return math.fsum(terms)


def k_series(p: WellKernelPoint, n_max: int) -> float:
    """Truncated sum (2/pi) sum_{n<=n_max} t^n sin(nx) sin(ny).

    Serves as the independent oracle for k_kernel; the omitted tail is
    bounded by (2/pi) t^(n_max+1) / (1 - t).
    """
    return _weighted_series(p, n_max, 0)


def h_kernel(p: WellKernelPoint) -> float:
    """Regulated Hamiltonian kernel -1/2 d^2K/dy^2 in closed form."""
    return float(_h(p.x, p.y, p.t))


def h_series(p: WellKernelPoint, n_max: int) -> float:
    """Truncated sum (1/pi) sum_{n<=n_max} n^2 t^n sin(nx) sin(ny)."""
    return _weighted_series(p, n_max, 1)


def _arg_f_folded(u: float, t: float) -> float:
    # 2pi-periodic continuation; u = +-pi is regular (f(+-pi) = 1 + t > 0).
    v = math.remainder(u, 2.0 * PI)
    return math.atan2(-t * math.sin(v), 1.0 - t * math.cos(v))


def arg_f(u: float, t: float) -> float:
    """Principal argument of f(u) = 1 - t e^{iu} for u in (-pi, pi).

    Computed as atan2(-t sin u, 1 - t cos u), which lands on the correct
    branch without manual tracking.  As t -> 1 this tends to (u - pi)/2
    for u > 0, to (u + pi)/2 for u < 0 and to 0 at u = 0.
    """
    check_t(t)
    if not -PI < u < PI:
        raise DomainError(f"u={u!r} outside (-pi, pi)")
    return _arg_f_folded(u, t)


def k_interval_integral(q: IntervalIntegralQuery) -> float:
    """Exact value of the interval integral of K(x, ., t) over [a, b].

    Integrating the sine series term by term and resumming the resulting
    log series gives

        I(t) = (1/pi) [arg f(x+b) + arg f(x-b) + arg f(a-x) + arg f(-x-a)]

    with every argument folded into (-pi, pi].  Raises BoundaryAmbiguous
    when x coincides with a or b, where the t -> 1 limit is classified
    neither as inside nor outside.
    """
    if q.x == q.a or q.x == q.b:
        raise BoundaryAmbiguous(f"x={q.x!r} coincides with an interval endpoint")
    total = (
        _arg_f_folded(q.x + q.b, q.t)
        + _arg_f_folded(q.x - q.b, q.t)
        + _arg_f_folded(q.a - q.x, q.t)
        + _arg_f_folded(-q.x - q.a, q.t)
    )
    return total / PI


def well_action(x: float, t: float, g: Callable, operator: str = "identity") -> float:
    """Integrate K(x, ., t) g (identity) or H(x, ., t) g (hamiltonian)
    over [0, pi].

    As t -> 1 the identity action tends to g(x) and the hamiltonian
    action to -g''(x)/2.  The test function must vanish at 0 and pi
    (sine-basis compatibility); otherwise TestFunctionBoundary is raised.
    The kernel peaks at y = x with width ~ (1 - t), so the panel holding x
    is pre-split to width (1 - t)/4.
    """
    if operator not in ("identity", "hamiltonian"):
        raise InvalidConfig(f"unknown operator {operator!r}")
    if not 0.0 < x < PI:
        raise DomainError(f"x={x!r} must lie in (0, pi)")
    check_t(t)
    if abs(float(g(0.0))) + abs(float(g(PI))) > 1e-12:
        raise TestFunctionBoundary("test function must vanish at 0 and pi")

    kern = _k if operator == "identity" else _h

    def integrand(y: np.ndarray) -> np.ndarray:
        return kern(x, y, t) * eval_test_function(g, y)

    return integrate(integrand, 0.0, PI, peak=x, peak_min_width=(1.0 - t) / 4.0).value


def well_action_sequence(x: float, p: int) -> CoefficientSequence:
    """The eigen-series f(t) = sum a_n t^n of the action of H^p on
    g = y(pi - y) at x in (0, pi): g_n = sqrt(2/pi) 4/n^3 for odd n (0 for
    even n) and E_n = n^2/2 give a_n = (8/pi) (n^2/2)^p sin(nx)/n^3 over odd
    n, i.e. (8/pi) sin(nx)/n^3 (identity) and (4/pi) sin(nx)/n (H).  So
    |a_n| <= C n^(2p - 3) with C = (8/pi) 2^-p, the bound and growth hint.

    That bound covers truncation only: sin(nx) is taken at n x rounded to
    double, which moves f(t) by up to eps C x sum n^(2p-2) t^n (eps = 2^-53).
    For p >= 2 this can dwarf the tail: at x = 1.4773763804838909, p = 3,
    t = 1 - 2^-13 the sum is 64.9 off its closed form, with tail bound 1e-10."""
    if not 0.0 < x < PI:
        raise DomainError(f"x={x!r} must lie in (0, pi)")
    scale, gamma = 8.0 / PI * 0.5 ** p, 2.0 * p - 3.0

    def term_block(n: np.ndarray) -> np.ndarray:
        return (n.astype(np.int64) & 1) * scale * np.sin(n * x) * n ** gamma

    return CoefficientSequence(term_block, growth_hint=gamma, bound=scale)


def well_action_evaluations(x: float, p: int, ts, tol: float) -> list:
    """The series of well_action_sequence(x, p) at each t in ts, as
    AbelEvaluations made in one pass over odd n.

    The row at t sums n <= N, the least N with _certified_tail(C, 2p - 3,
    N + 1, t) <= tol for the sequence's bound C: its tail_bound is a true
    bound on truncation (rounding is not in it; see well_action_sequence),
    and terms_used is N (the even n, where a_n = 0, are skipped).
    The a_n come from term_block in blocks of _BLOCK_MAX odd n, each made
    once; a row sums those its prefix reaches against t's kept t^(2j).  A
    row's wall_ms times its own sums, not the shared blocks.  At the first t
    whose N exceeds DEFAULT_TERM_BUDGET, TailNotBounded is raised carrying
    the evaluations of the t before it, and no a_n past their N is made.
    """
    if not 0.0 < tol < math.inf:
        raise InvalidConfig("tol must be finite and positive")
    seq = well_action_sequence(x, p)
    c, gamma = seq.bound, seq.growth_hint
    schedule, failure = [], None  # t and N of each row to make
    for t in ts:
        check_t(t)
        try:
            schedule.append((t, _certified_terms(c, gamma, t, tol)))
        except TailNotBounded as exc:
            failure = exc
            break
    n_last = max((n for _, n in schedule), default=0)
    parts = [[] for _ in schedule]  # each row's block sums
    walls = [0.0] * len(schedule)
    for n0 in range(1, n_last + 1, 2 * _BLOCK_MAX):
        idx = np.arange(n0, min(n0 + 2 * _BLOCK_MAX, n_last + 1), 2, dtype=np.float64)
        coeffs = np.asarray(seq.term_block(idx), dtype=np.float64)
        if not np.all(np.isfinite(coeffs)):
            raise DomainError(f"non-finite coefficient near n={n0}")
        for i, (t, n) in enumerate(schedule):
            if n < n0:
                continue
            start = time.perf_counter()
            m = min(n - n0, idx.size * 2 - 2) // 2 + 1  # the block's odd n up to N
            parts[i].append(float(coeffs[:m] @ _power_table(t, 2 * m)[:2 * m:2]) * t ** n0)
            walls[i] += time.perf_counter() - start
    evaluations = [AbelEvaluation(t=t, value=math.fsum(part), terms_used=n,
                                  tail_bound=_certified_tail(c, gamma, n + 1, t), wall_ms=wall * 1e3)
                   for (t, n), part, wall in zip(schedule, parts, walls)]
    if failure is not None:
        failure.evaluations = evaluations
        raise failure
    return evaluations
