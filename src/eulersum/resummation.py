"""Abel evaluation of power series and extraction of the t -> 1 limit.

A divergent series sum(a_n) is assigned a value by evaluating
f(t) = sum(a_n * t^n) inside the unit interval and extrapolating the
sequence f(t_k) along a schedule t_k = 1 - r^k to t = 1.  Evaluation is
certified: a growth hint on the coefficients yields a geometric tail
bound, which closes only for t < 1, so f is never evaluated at t = 1.
Extrapolation is Neville polynomial extrapolation in u = 1 - t;
divergent series are detected and reported rather than summed.
"""

from __future__ import annotations

import math
import time
from dataclasses import dataclass, field
from typing import Callable, Optional

import numpy as np

from .errors import DomainError, EulerSumError, InvalidConfig, NoEulerSum, TailNotBounded, check_t

# Evaluation proceeds in vectorised blocks; bounds are re-checked per block.
# Blocks start small and double so that fast-decaying series stop before
# coefficients like 2^n are ever materialised at overflow-prone indices.
_BLOCK_MIN = 128
_BLOCK_MAX = 8192

# Terms spent in a single Abel evaluation before giving up.  Near t = 1 the
# required truncation grows like 1/(1 - t); the limit extractor stops its
# schedule before this budget would be hit.
DEFAULT_TERM_BUDGET = 20_000_000

# Schedule points the Neville extrapolant runs through.
_EXTRAPOLATION_ORDER = 6

# Steady growth: differences of f = A u^-alpha + B + o(1) at t_k cancel B
# and grow by ratio^-alpha per step; above _GROWTH_MIN, within _GROWTH_SPREAD.
_GROWTH_MIN, _GROWTH_SPREAD = 1.05, 1.05

# f(t_k) is evaluated this much tighter than the limit tolerance so that
# extrapolation noise stays below the convergence test.
INNER_TOL_FACTOR = 100.0


@dataclass(frozen=True)
class CoefficientSequence:
    """Vectorised term oracle defining a (possibly divergent) series sum(a_n).

    ``growth_hint`` gamma asserts |a_n| <= C * n^gamma for some C.
    ``term_block`` maps an ndarray of integer-valued float indices
    n >= start_index to the normalised coefficients
    b_n = a_n / max(n, 1)^gamma, which are bounded by C; abel_eval forms
    a_n = b_n * max(n, 1)^gamma, and estimates C from the b_n it has seen
    to close a geometric tail bound.
    """

    term_block: Callable[[np.ndarray], np.ndarray]
    growth_hint: float
    start_index: int = 0

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
    tolerance: float = 1e-8

    def __post_init__(self):
        if not 0.0 < self.ratio < 1.0:
            raise InvalidConfig("ratio must lie in (0, 1)")
        if self.k_max < 1:
            raise InvalidConfig("k_max must be at least 1")
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


def _certified_terms(c: float, gamma: float, t: float, tol: float) -> int:
    """The least N >= 0 with _certified_tail(c, gamma, N + 1, t) <= tol, so
    that summing n <= N leaves a tail certified within tol; TailNotBounded
    when N would exceed DEFAULT_TERM_BUDGET.

    The bound falls with N wherever it is finite.  For gamma <= 0 Newton's
    method solves gamma v + (N + 1) ln t = ln tol + ln(1 - t) - ln c in
    v = ln(N + 1), the exact log of the bound, whose left side is concave
    and decreasing: started right of the root (at the budget, or where
    (N + 1) ln t alone meets the right side) it falls onto it without
    overshooting.  A galloping search from that guess, or from N = 1 for
    gamma > 0, then finds N exactly, in O(log N) steps at worst.
    """
    def ok(n: int) -> bool:
        return _certified_tail(c, gamma, n + 1, t) <= tol

    if not ok(DEFAULT_TERM_BUDGET):
        raise TailNotBounded(f"tail not certified below tol={tol!r} within {DEFAULT_TERM_BUDGET} terms "
                             f"at t={t!r}")
    if ok(0):
        return 0
    lo, hi, step, guess = 0, DEFAULT_TERM_BUDGET, 1, 1
    if gamma <= 0.0:  # target < ln t < 0 here, since ok(0) failed
        ln_t, target = math.log(t), math.log(tol) + math.log1p(-t) - math.log(c)
        v = min(math.log(DEFAULT_TERM_BUDGET + 1.0), max(0.0, math.log(target / ln_t)))
        for _ in range(100):
            dv = (gamma * v + math.exp(v) * ln_t - target) / (gamma + math.exp(v) * ln_t)
            v -= dv
            if dv * math.exp(v) < 0.5:
                break
        guess = min(max(math.ceil(math.exp(v)) - 1, 1), hi)
    # ok(lo) is false and ok(hi) true; gallop from the guess, then bisect.
    if ok(guess):
        hi = guess
        while hi - step > lo and ok(hi - step):
            hi, step = hi - step, 2 * step
        lo = max(lo, hi - step)
    else:
        lo = guess
        while lo + step < hi and not ok(lo + step):
            lo, step = lo + step, 2 * step
        hi = min(hi, lo + step)
    while hi - lo > 1:
        mid = (lo + hi) // 2
        lo, hi = (lo, mid) if ok(mid) else (mid, hi)
    return hi


# Overflow and 0 * inf surface as non-finite a_n, which the finite check
# reports; numpy's own warnings would only repeat it.
@np.errstate(all="ignore")
def abel_eval(seq: CoefficientSequence, t: float, tol: float) -> AbelEvaluation:
    """Evaluate f(t) = sum(a_n t^n) for t in [0, 1), truncated once the
    geometric tail bound from the growth hint drops below ``tol``.

    TailNotBounded is raised when the coefficients overflow or the bound
    does not close within DEFAULT_TERM_BUDGET terms; t outside [0, 1)
    raises TNotInUnitInterval.
    """
    start = time.perf_counter()
    if not 0.0 < tol < math.inf:
        raise InvalidConfig("tol must be finite and positive")
    check_t(t)
    gamma = seq.growth_hint

    total = 0.0
    comp = 0.0  # Neumaier compensation
    c_hat = 0.0
    n = seq.start_index
    block_size = _BLOCK_MIN
    powers = np.power(t, np.arange(_BLOCK_MIN, dtype=np.float64))  # powers[j] = t^j

    while True:
        block = min(block_size, DEFAULT_TERM_BUDGET - (n - seq.start_index))
        block_size = min(2 * block_size, _BLOCK_MAX)
        if block > powers.size:
            powers = np.concatenate((powers, np.power(t, np.arange(powers.size, block, dtype=np.float64))))
        idx = np.arange(n, n + block, dtype=np.float64)
        try:
            normed = np.asarray(seq.term_block(idx), dtype=np.float64)
        except OverflowError:
            raise TailNotBounded(
                f"coefficients overflow double precision near n={n}; "
                "the tail cannot be evaluated, let alone bounded"
            )
        coeffs = normed if gamma == 0.0 else normed * (idx if n else np.maximum(idx, 1.0)) ** gamma
        if not np.all(np.isfinite(coeffs)):
            raise DomainError(f"non-finite coefficient near n={n}")
        block_sum = float(np.sum(coeffs * (powers[:block] * t ** n)))
        s = total + block_sum
        if abs(total) >= abs(block_sum):
            comp += (total - s) + block_sum
        else:
            comp += (block_sum - s) + total
        total = s
        c_hat = max(c_hat, float(np.max(np.abs(normed if n else normed[1:]))))
        n += block

        bound = _certified_tail(c_hat, gamma, n, t)
        if bound <= tol:
            return AbelEvaluation(t=t, value=total + comp, terms_used=n - seq.start_index,
                                  tail_bound=bound, wall_ms=(time.perf_counter() - start) * 1e3)
        # c_hat only grows, and a finite bound falls with n: if the bound at
        # the end of the budget is not within tol now, no later block closes
        # it.  At the end of the budget this is the bound just computed.
        if not _certified_tail(c_hat, gamma, seq.start_index + DEFAULT_TERM_BUDGET, t) <= tol:
            raise TailNotBounded(f"tail not certified below tol={tol!r} within {DEFAULT_TERM_BUDGET} terms "
                                 f"at t={t!r}")


def _neville_at_zero(us: list, fs: list) -> float:
    """Polynomial through (u_j, f_j) evaluated at u = 0."""
    q = list(fs)
    m = len(q)
    for i in range(1, m):
        for j in range(m - 1, i - 1, -1):
            q[j] = (us[j - i] * q[j] - us[j] * q[j - 1]) / (us[j - i] - us[j])
    return q[-1]


def euler_limit(seq: CoefficientSequence, cfg: Optional[EulerLimitConfig] = None) -> EulerLimitResult:
    """Extract lim_{t->1-} f(t) by polynomial extrapolation in u = 1 - t.

    Walks the schedule t_k = 1 - ratio^k, extrapolating through the most
    recent _EXTRAPOLATION_ORDER points after each evaluation, and stops
    as soon as the last two extrapolants differ by at most ``tolerance``.

    Raises NoEulerSum when the limit demonstrably fails to exist or
    cannot be extracted: |f(t_k)| exceeds 1/tolerance; the differences of
    the last five f(t_k) grow steadily, by ratios all above 1.05 and within
    5 % of each other, as for f ~ A u^-alpha (the message gives
    alpha = log(last ratio) / log(1/ratio)); the extrapolants more than
    double in magnitude three times in a row; or the schedule ends after at
    least four extrapolant differences that no longer contract.  With fewer
    the result is unconverged (error estimate inf if there are none).  That
    exception, and any EulerSumError raised by abel_eval, carries the
    evaluations made so far as ``evaluations``.
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
        if evaluations and evaluations[-1].terms_used / cfg.ratio > DEFAULT_TERM_BUDGET:
            break  # next evaluation would exceed the term budget
        try:
            ev = abel_eval(seq, t_k, inner_tol)
        except EulerSumError as exc:
            exc.evaluations = evaluations
            raise
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

        w = min(_EXTRAPOLATION_ORDER, len(us))
        p = _neville_at_zero(us[-w:], [e.value for e in evaluations[-w:]])
        extrapolants.append(p)
        if len(extrapolants) >= 2:
            d = abs(extrapolants[-1] - extrapolants[-2])
            deltas.append(d)
            if d <= cfg.tolerance:
                return EulerLimitResult(value=p, error_estimate=d, converged=True, evaluations=evaluations)
        f = [e.value for e in evaluations[-5:]]
        diffs = [b - a for a, b in zip(f, f[1:])]
        rho = [b / a for a, b in zip(diffs, diffs[1:])] if len(diffs) == 4 and all(diffs) else [0.0]
        if min(rho) > _GROWTH_MIN and max(rho) <= _GROWTH_SPREAD * min(rho):
            alpha = math.log(rho[-1]) / math.log(1.0 / cfg.ratio)
            raise NoEulerSum(f"f(t) grows like u^-{alpha:.3f} in u = 1 - t; no finite t -> 1 limit",
                             evaluations=evaluations)
        if len(extrapolants) >= 4:
            m0, m1, m2, m3 = (abs(q) for q in extrapolants[-4:])
            if m1 > 2.0 * m0 and m2 > 2.0 * m1 and m3 > 2.0 * m2 and m3 > 10.0 * scale:
                raise NoEulerSum(
                    f"extrapolants grew {m0:.3e} -> {m3:.3e} over three steps; "
                    "no finite t -> 1 limit",
                    evaluations=evaluations,
                )

    if len(deltas) < 4 or deltas[-1] < 0.8 * deltas[-4]:
        # Too few deltas to judge, or still contracting: unconverged.
        return EulerLimitResult(value=extrapolants[-1], error_estimate=deltas[-1] if deltas else math.inf,
                                converged=False, evaluations=evaluations)
    raise NoEulerSum(
        f"extrapolants failed to contract over the schedule (last delta {deltas[-1]:.3e}); "
        "the series is outside plain Euler summability at this precision",
        evaluations=evaluations,
    )
