"""Abel evaluation of power series and extraction of the t -> 1 limit.

A divergent series sum(a_n) is assigned a value by evaluating
f(t) = sum(a_n * t^n) inside the unit interval and extrapolating the
sequence f(t_k) along a schedule t_k = 1 - r^k to t = 1.  Evaluation is
certified: either a growth hint on the coefficients yields a rigorous
geometric tail bound, or a plateau heuristic on the decayed terms is
used.  Extrapolation is Neville polynomial extrapolation in u = 1 - t;
divergent series are detected and reported rather than summed.
"""

from __future__ import annotations

import math
import time
from dataclasses import dataclass, field
from typing import Callable, Optional

import numpy as np

from .errors import DomainError, InvalidConfig, NoEulerSum, TailNotBounded, TNotInUnitInterval

# Evaluation proceeds in vectorised blocks; bounds are re-checked per block.
# Blocks start small and double so that fast-decaying series stop before
# coefficients like 2^n are ever materialised at overflow-prone indices.
_BLOCK_MIN = 128
_BLOCK_MAX = 8192

# Terms spent in a single Abel evaluation before giving up.  Near t = 1 the
# required truncation grows like 1/(1 - t); the limit extractor stops its
# schedule before this budget would be hit.
DEFAULT_TERM_BUDGET = 20_000_000

# f(t_k) is evaluated this much tighter than the limit tolerance so that
# extrapolation noise stays below the convergence test.
INNER_TOL_FACTOR = 100.0


@dataclass(frozen=True)
class CoefficientSequence:
    """Indexed term oracle n -> a_n defining a (possibly divergent) series.

    ``term`` must return a finite float for every n >= start_index.  If
    ``growth_hint`` gamma is supplied, |a_n| <= C * n^gamma must hold for
    some C; the constant is estimated from the computed terms and used for
    a certified geometric tail bound.  ``term_block`` is an optional
    vectorised variant taking an ndarray of integer-valued indices.
    """

    term: Callable[[int], float]
    start_index: int = 0
    growth_hint: Optional[float] = None
    term_block: Optional[Callable[[np.ndarray], np.ndarray]] = None

    def __post_init__(self):
        if self.start_index < 0 or int(self.start_index) != self.start_index:
            raise DomainError("start_index must be a non-negative integer")


@dataclass(frozen=True)
class AbelEvaluation:
    """Value of f(t) = sum(a_n t^n), its truncation certificate and wall time."""

    t: float
    value: float
    terms_used: int
    tail_bound: float
    wall_ms: float


@dataclass(frozen=True)
class EulerLimitConfig:
    """Schedule and extrapolation settings for the t -> 1 limit."""

    ratio: float = 0.5
    k_max: int = 40
    extrapolation_order: int = 6
    tolerance: float = 1e-8

    def __post_init__(self):
        if not 0.0 < self.ratio < 1.0:
            raise InvalidConfig("ratio must lie in (0, 1)")
        if self.k_max < 1:
            raise InvalidConfig("k_max must be at least 1")
        if self.extrapolation_order < 1:
            raise InvalidConfig("extrapolation_order must be at least 1")
        if not 0.0 < self.tolerance < math.inf:
            raise InvalidConfig("tolerance must be finite and positive")


@dataclass(frozen=True)
class EulerLimitResult:
    """Extrapolated limit with diagnostics.

    ``evaluations`` holds the AbelEvaluations made, in schedule order;
    ``trace`` views them as (t_k, f(t_k)) pairs.  ``error_estimate`` is the
    difference of the last two extrapolants, a residual, not a bound.
    """

    value: float
    error_estimate: float
    converged: bool
    evaluations: list = field(default_factory=list)

    @property
    def trace(self) -> list:
        return [(e.t, e.value) for e in self.evaluations]


def _coeff_block(seq: CoefficientSequence, idx: np.ndarray) -> np.ndarray:
    if seq.term_block is not None:
        return np.asarray(seq.term_block(idx), dtype=np.float64)
    return np.array([seq.term(int(i)) for i in idx], dtype=np.float64)


def _certified_tail(c_hat: float, gamma: float, n_next: int, t: float) -> float:
    """Upper bound on sum_{n >= n_next} C n^gamma t^n for C = c_hat.

    For gamma <= 0 the summand majorant is monotone and a plain geometric
    sum applies.  For gamma > 0 the ratio of consecutive majorant terms is
    at most t * ((n_next+1)/n_next)^gamma, which must be < 1 for the bound
    to close; otherwise infinity is returned and summation continues.
    """
    if c_hat == 0.0:
        return 0.0
    lead = c_hat * float(n_next) ** gamma * t ** n_next
    if gamma <= 0.0:
        return lead / (1.0 - t)
    rho = t * ((n_next + 1.0) / n_next) ** gamma
    if rho >= 1.0:
        return math.inf
    return lead / (1.0 - rho)


def abel_eval(
    seq: CoefficientSequence,
    t: float,
    tol: float,
    max_terms: int = DEFAULT_TERM_BUDGET,
) -> AbelEvaluation:
    """Evaluate f(t) = sum(a_n t^n), truncated with a certified tail.

    With a growth hint the truncation stops once the geometric tail bound
    drops below ``tol``.  Without one, summation stops after 50
    consecutive terms |a_n t^n| below tol/100 (plateau rule); if the term
    magnitudes fail to decay block over block, TailNotBounded is raised.

    t = 1 exactly is accepted for absolutely convergent series: the
    geometric certificate is unavailable there, so the plateau rule
    decides.  t < 0 or t > 1 raises TNotInUnitInterval.
    """
    start = time.perf_counter()
    if not 0.0 < tol < math.inf:
        raise InvalidConfig("tol must be finite and positive")
    if not 0.0 <= t <= 1.0:
        raise TNotInUnitInterval(f"t={t!r} outside [0, 1]")
    certified = seq.growth_hint is not None and t < 1.0
    gamma = seq.growth_hint if certified else 0.0
    threshold = 0.01 * tol

    total = 0.0
    comp = 0.0  # Neumaier compensation
    c_hat = 0.0
    quiet_run = 0
    prev_block_max = math.inf
    growth_strikes = 0
    n = seq.start_index
    block_size = _BLOCK_MIN

    while n - seq.start_index < max_terms:
        block = min(block_size, max_terms - (n - seq.start_index))
        block_size = min(2 * block_size, _BLOCK_MAX)
        idx = np.arange(n, n + block, dtype=np.float64)
        try:
            coeffs = _coeff_block(seq, idx)
        except OverflowError:
            raise TailNotBounded(
                f"coefficients overflow double precision near n={n}; "
                "the tail cannot be evaluated, let alone bounded"
            )
        if not np.all(np.isfinite(coeffs)):
            raise DomainError(f"non-finite coefficient near n={n}")
        powers = np.power(t, idx)
        terms = coeffs * powers
        block_sum = float(np.sum(terms))
        s = total + block_sum
        if abs(total) >= abs(block_sum):
            comp += (total - s) + block_sum
        else:
            comp += (block_sum - s) + total
        total = s
        n += block
        terms_used = n - seq.start_index

        if certified:
            pos = idx >= 1.0
            if np.any(pos):
                c_hat = max(c_hat, float(np.max(np.abs(coeffs[pos]) / idx[pos] ** gamma)))
            bound = _certified_tail(c_hat, gamma, n, t)
            if bound <= tol:
                return AbelEvaluation(t=t, value=total + comp, terms_used=terms_used,
                                      tail_bound=bound, wall_ms=(time.perf_counter() - start) * 1e3)
        else:
            mags = np.abs(terms)
            below = mags < threshold
            if bool(below.all()):
                quiet_run += block
            else:
                last_loud = int(np.nonzero(~below)[0][-1])
                quiet_run = block - last_loud - 1
            if quiet_run >= 50:
                return AbelEvaluation(t=t, value=total + comp, terms_used=terms_used,
                                      tail_bound=0.5 * tol, wall_ms=(time.perf_counter() - start) * 1e3)
            block_max = float(np.max(mags))
            if block_max >= prev_block_max and block_max > threshold:
                growth_strikes += 1
                if growth_strikes >= 4:
                    raise TailNotBounded(
                        f"term magnitudes not decaying at t={t!r} (n ~ {n}); "
                        "supply a growth_hint if the coefficients are polynomially bounded"
                    )
            else:
                growth_strikes = 0
            if block_max > 0.0:
                prev_block_max = block_max

    raise TailNotBounded(f"tail not certified below tol={tol!r} within {max_terms} terms at t={t!r}")


def _neville_at_zero(us: list, fs: list) -> float:
    """Polynomial through (u_j, f_j) evaluated at u = 0."""
    q = list(fs)
    m = len(q)
    for i in range(1, m):
        for j in range(m - 1, i - 1, -1):
            q[j] = (us[j - i] * q[j] - us[j] * q[j - 1]) / (us[j - i] - us[j])
    return q[-1]


def euler_limit(
    seq: CoefficientSequence,
    cfg: Optional[EulerLimitConfig] = None,
    term_budget: int = DEFAULT_TERM_BUDGET,
) -> EulerLimitResult:
    """Extract lim_{t->1-} f(t) by polynomial extrapolation in u = 1 - t.

    Walks the schedule t_k = 1 - ratio^k, extrapolating through the most
    recent ``extrapolation_order`` points after each evaluation, and stops
    as soon as the last two extrapolants differ by at most ``tolerance``.

    Raises NoEulerSum when the limit demonstrably fails to exist or
    cannot be extracted: the extrapolants more than double in magnitude
    three times in a row, |f(t_k)| exceeds 1/tolerance, or the schedule is
    exhausted without the extrapolant differences contracting.  The
    exception carries the evaluations made so far.
    """
    if cfg is None:
        cfg = EulerLimitConfig()
    inner_tol = cfg.tolerance / INNER_TOL_FACTOR

    evaluations: list = []
    us: list = []
    extrapolants: list = []
    deltas: list = []
    scale = 1.0

    for k in range(cfg.k_max + 1):
        u_k = cfg.ratio ** k
        t_k = 1.0 - u_k
        if t_k >= 1.0:
            break  # float saturation of the schedule
        if evaluations and evaluations[-1].terms_used / cfg.ratio > term_budget:
            break  # next evaluation would exceed the term budget
        ev = abel_eval(seq, t_k, inner_tol, max_terms=term_budget)
        evaluations.append(ev)
        us.append(u_k)
        if k == 0:
            scale = max(1.0, abs(ev.value))
        if abs(ev.value) > 1.0 / cfg.tolerance:
            raise NoEulerSum(
                f"|f(t)| = {abs(ev.value):.3e} exceeds 1/tolerance at t={t_k!r}; "
                "the t -> 1 limit is unbounded",
                evaluations=evaluations,
            )

        w = min(cfg.extrapolation_order, len(us))
        p = _neville_at_zero(us[-w:], [e.value for e in evaluations[-w:]])
        extrapolants.append(p)
        if len(extrapolants) >= 2:
            d = abs(extrapolants[-1] - extrapolants[-2])
            deltas.append(d)
            if d <= cfg.tolerance:
                return EulerLimitResult(value=p, error_estimate=d, converged=True, evaluations=evaluations)
        if len(extrapolants) >= 4:
            m0, m1, m2, m3 = (abs(q) for q in extrapolants[-4:])
            if m1 > 2.0 * m0 and m2 > 2.0 * m1 and m3 > 2.0 * m2 and m3 > 10.0 * scale:
                raise NoEulerSum(
                    f"extrapolants grew {m0:.3e} -> {m3:.3e} over three steps; "
                    "no finite t -> 1 limit",
                    evaluations=evaluations,
                )

    if len(deltas) >= 4 and deltas[-1] < 0.8 * deltas[-4]:
        # Still contracting, just not converged within the schedule.
        return EulerLimitResult(
            value=extrapolants[-1], error_estimate=deltas[-1], converged=False, evaluations=evaluations
        )
    last = f"{deltas[-1]:.3e}" if deltas else "n/a"
    raise NoEulerSum(
        f"extrapolants failed to contract over the schedule (last delta {last}); "
        "the series is outside plain Euler summability at this precision",
        evaluations=evaluations,
    )
