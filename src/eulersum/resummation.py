"""Abel evaluation of power series and extraction of the t -> 1 limit.

A divergent series sum(a_n) is assigned a value by evaluating
f(t) = sum(a_n * t^n) inside the unit interval and extrapolating the
sequence f(t_k) along a schedule t_k = 1 - r^k to t = 1.  Evaluation is
certified: each series' coefficient bound yields a geometric tail bound,
which closes only for t < 1, so f is never evaluated at t = 1.
Extrapolation is polynomial in u = 1 - t, by Lagrange weights at u = 0;
divergent series are detected and reported rather than summed.
"""

from __future__ import annotations

import functools
import itertools
import math
import numbers
import sys
import time
from dataclasses import dataclass, field
from typing import Callable, Optional

import numpy as np

from .errors import DomainError, EulerSumError, InvalidConfig, NoEulerSum, PrecisionFloor, TailNotBounded, check_t

# abel_eval sums vectorised blocks, from _BLOCK_MIN terms doubling to
# _BLOCK_MAX, until a block end passes the prefix N that _certified_terms
# fixes before the first block.  So the sizes only decide where past N the
# sum stops and in what order it adds, and with that its roundoff, on which
# the verdicts of the zeta-mix benchmark's precision-limited
# `zeta --s -3.33` and `--s -3.15` depend (ROADMAP item 4, the roundoff
# floor).  Blocks start at n = 1 for every t, so a block kept in a
# sequence's _kept holds the same terms at every t and reading it back
# leaves the order of addition unchanged.
_BLOCK_MIN = 128
_BLOCK_MAX = 8192
_OFFSETS = np.arange(_BLOCK_MAX, dtype=np.float64)  # n + _OFFSETS[:block] is a block's index, exact for n < 2^53

# abel_eval, the well's odd-n pass and the oscillator's action rows read t^j
# from a table kept per t, of up to 2 * _BLOCK_MAX entries (128 KB); the 64
# used last are kept (8 MB), more than the 61 points of the longest schedule
# (k <= 60, and t_0 = 0).  A key holds t's type and sign.
_POWER_TABLES = 64
_powers: dict = {}

# A sequence keeps the blocks a_n of its first _KEPT_TERMS terms (1 MB), so
# that the evaluations of one limit make each of them once.
_KEPT_TERMS = 2 ** 17

# Terms spent in a single Abel evaluation before giving up.  Near t = 1 the
# required truncation grows like 1/(1 - t); the limit extractor stops its
# schedule before this budget would be hit.
DEFAULT_TERM_BUDGET = 20_000_000

# Schedule points in the extrapolant's window, the polynomial's degree + 1.
_EXTRAPOLATION_ORDER = 6

# Steady growth: differences of f = A u^-alpha + B + o(1) at t_k cancel B
# and grow by ratio^-alpha per step; above _GROWTH_MIN, within _GROWTH_SPREAD.
_GROWTH_MIN, _GROWTH_SPREAD = 1.05, 1.05

# f(t_k) is summed to a tail certified this much below the tolerance.  In
# euler_limit that keeps truncation noise in the extrapolants below the
# convergence test; in harness._run_action, whose rows are not
# extrapolated, it keeps each row's truncation error 100x below the
# tolerance, so that the fall of |f(t_k) - reference| its verdict reads
# comes from t_k -> 1, not from where the sum was cut.
INNER_TOL_FACTOR = 100.0


@dataclass(frozen=True)
class CoefficientSequence:
    """Vectorised term oracle defining a (possibly divergent) series sum(a_n).

    Every series starts at n = 1 (an a_0 adds to the limit, Abel summation
    being linear): ``term_block`` maps an ndarray of integer-valued float
    indices n >= 1 to the coefficients a_n, and ``bound`` C and
    ``growth_hint`` gamma state |a_n| <= C n^gamma for each of them.
    abel_eval sums the prefix whose tail _certified_terms certifies from them.
    It keeps read-only copies of the blocks a_n of the first _KEPT_TERMS
    terms in ``_kept``, in block order, which neither equality, hashing nor
    ``dataclasses.replace`` carries.
    """

    term_block: Callable[[np.ndarray], np.ndarray]
    growth_hint: float
    bound: float
    _kept: list = field(default_factory=list, init=False, repr=False, compare=False)

    def __post_init__(self):
        if not 0.0 <= self.bound < math.inf:
            raise DomainError("bound must be finite and non-negative")
        if not math.isfinite(self.growth_hint):
            raise DomainError("growth_hint must be finite")


@dataclass(frozen=True)
class AbelEvaluation:
    """Value of f(t) = sum(a_n t^n), its truncation certificate, wall time and roundoff bound (or None)."""

    t: float
    value: float
    terms_used: int
    tail_bound: float
    wall_ms: float
    roundoff_bound: Optional[float] = None


@dataclass(frozen=True)
class EulerLimitConfig:
    """Schedule and extrapolation settings for the t -> 1 limit."""

    ratio: float = 0.5
    k_max: int = 40
    tolerance: float = 1e-8

    def __post_init__(self):
        if not 0.0 < self.ratio < 1.0:
            raise InvalidConfig("ratio must lie in (0, 1)")
        if not isinstance(self.k_max, numbers.Integral) or self.k_max < 1:
            raise InvalidConfig("k_max must be an integer of at least 1")
        if not 0.0 < self.tolerance < math.inf:
            raise InvalidConfig("tolerance must be finite and positive")


@dataclass(frozen=True)
class EulerLimitResult:
    """Extrapolated limit with diagnostics.

    ``evaluations`` holds the AbelEvaluations made, in schedule order;
    ``trace`` views them as (t_k, f(t_k)) pairs.  ``error_estimate`` is the
    difference of the last two extrapolants (inf with one point), a
    residual, not a bound.  ``converged`` is False when the schedule ended
    first; ``value`` is then the last extrapolant.
    """

    value: float
    error_estimate: float
    converged: bool
    evaluations: list = field(default_factory=list)

    @property
    def trace(self) -> list:
        return [(e.t, e.value) for e in self.evaluations]


def _certified_tail(c: float, gamma: float, n_next: int, t: float) -> float:
    """Upper bound on sum_{n >= n_next} c n^gamma t^n.

    For gamma <= 0 the summand majorant is monotone and a plain geometric
    sum applies.  For gamma > 0 the ratio of consecutive majorant terms is
    at most t * ((n_next+1)/n_next)^gamma, which must be < 1 for the bound
    to close; otherwise infinity is returned.  Where the lead term
    c n^gamma t^n is not a positive normal double (c n^gamma overflows, or
    t^n underflows to a false 0), the whole bound is taken in logs.
    """
    if c == 0.0 or t == 0.0:
        return 0.0
    if gamma <= 0.0:
        gap = 1.0 - t
    else:
        try:
            rho = t * ((n_next + 1.0) / n_next) ** gamma
        except OverflowError:
            return math.inf
        if rho >= 1.0:
            return math.inf
        gap = 1.0 - rho
    try:
        lead = c * float(n_next) ** gamma * t ** n_next
    except OverflowError:
        lead = math.inf
    if sys.float_info.min <= lead < math.inf:  # a positive normal double
        return lead / gap
    log_bound = math.log(c) + gamma * math.log(n_next) + n_next * math.log(t) - math.log(gap)
    return math.exp(log_bound) if log_bound < 709.0 else math.inf


def _certified_terms(c: float, gamma: float, t: float, tol: float) -> int:
    """The least N >= 0 with _certified_tail(c, gamma, N + 1, t) <= tol, so
    that summing n <= N leaves a tail certified within tol; TailNotBounded
    when N would exceed DEFAULT_TERM_BUDGET.

    The bound falls with N wherever it is finite.  Newton's method solves
    g(v) = gamma v + (N + 1) ln t - target = 0 in v = ln(N + 1), where
    target = ln tol + ln(1 - t) - ln c and g, concave, is the log of the
    bound over tol for gamma <= 0 and below it for gamma > 0.  Its start,
    where (N + 1) ln t = target, lies on g's falling side for gamma <= 0 and
    where -target > gamma; a step from there (or from right of the root)
    lands right of the root, and the next ones fall onto it.  Otherwise the
    guess is N = 1.  A galloping search from the guess then finds N
    exactly, in O(log N) steps at worst.
    """
    def ok(n: int) -> bool:
        return _certified_tail(c, gamma, n + 1, t) <= tol

    if not ok(DEFAULT_TERM_BUDGET):
        raise TailNotBounded(f"tail not certified below tol={tol!r} within {DEFAULT_TERM_BUDGET} terms at t={t!r}")
    if ok(0):
        return 0
    lo, hi, step, guess = 0, DEFAULT_TERM_BUDGET, 1, 1
    ln_t, target = math.log(t), math.log(tol) + math.log1p(-t) - math.log(c)
    if gamma <= 0.0 or -target > gamma:  # for gamma <= 0, target < ln t < 0 here, since ok(0) failed
        v_max = math.log(DEFAULT_TERM_BUDGET + 1.0)
        v = min(v_max, max(0.0, math.log(target / ln_t)))
        for _ in range(100):
            dv = (gamma * v + math.exp(v) * ln_t - target) / (gamma + math.exp(v) * ln_t)
            v = min(v_max, max(0.0, v - dv))  # gamma v can overflow (gamma < -1e307), sending v - dv to -inf
            if abs(dv) * math.exp(v) < 0.5:
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


def _power_table(t: float, size: int) -> np.ndarray:
    """The kept read-only table of np.power(t, j), grown to j < size if shorter (-0.0's has -0.0s)."""
    key = type(t), t, math.copysign(1.0, t)
    powers = _powers.pop(key, np.empty(0))
    if powers.size < size:
        powers = np.concatenate((powers, np.power(t, np.arange(powers.size, size, dtype=np.float64))))
        powers.flags.writeable = False
    _powers[key] = powers  # the order of _powers is that of last use
    if len(_powers) > _POWER_TABLES:
        del _powers[next(iter(_powers))]
    return powers


# Overflow and 0 * inf surface as non-finite a_n, which the finite check
# reports; numpy's own warnings would only repeat it.
@np.errstate(all="ignore")
def abel_eval(seq: CoefficientSequence, t: float, tol: float) -> AbelEvaluation:
    """Evaluate f(t) = sum(a_n t^n) for t in [0, 1) in blocks up to the
    first block end past N = _certified_terms(seq.bound, growth hint, t, tol),
    adding the block sums with math.fsum.  Its roundoff_bound is
    eps * sum(|a_n t^n|), gradual underflow aside.

    TailNotBounded is raised before any block is summed when N exceeds
    DEFAULT_TERM_BUDGET, and when the coefficients overflow; t outside
    [0, 1) raises TNotInUnitInterval.
    """
    start = time.perf_counter()
    if not 0.0 < tol < math.inf:
        raise InvalidConfig("tol must be finite and positive")
    check_t(t)
    gamma = seq.growth_hint
    last = _certified_terms(seq.bound, gamma, t, tol)
    block_sums, magnitude = [], 0.0  # magnitude: sum(|a_n| t^n)
    n = 1
    block_size = _BLOCK_MIN
    powers = _power_table(t, _BLOCK_MIN)  # powers[j] = t^j
    products = np.empty(_BLOCK_MAX)
    kept = seq._kept

    for b in itertools.count():
        block = min(block_size, DEFAULT_TERM_BUDGET - (n - 1))
        block_size = min(2 * block_size, _BLOCK_MAX)
        if block > powers.size:
            powers = _power_table(t, block)
        if b < len(kept):
            coeffs = kept[b]
        else:
            idx = _OFFSETS[:block] + n
            try:
                coeffs = np.asarray(seq.term_block(idx), dtype=np.float64)
            except OverflowError:
                raise TailNotBounded(
                    f"coefficients overflow double precision near n={n}; "
                    "the tail cannot be evaluated, let alone bounded"
                )
        prod = np.multiply(powers[:block], t ** n, out=products[:block])
        magnitude += float(np.dot(np.abs(coeffs), prod))  # reads t^n only: the value's arithmetic is unchanged
        block_sum = float(np.multiply(coeffs, prod, out=prod).sum())
        # A non-finite a_n makes the sum nan or inf, since each t^n lies in [0, 1].
        if not math.isfinite(block_sum) and not np.all(np.isfinite(coeffs)):
            raise DomainError(f"non-finite coefficient near n={n}")
        if b == len(kept) and n + block - 1 <= _KEPT_TERMS:
            coeffs = coeffs.copy()  # term_block may hand out a buffer that it reuses
            coeffs.flags.writeable = False
            kept.append(coeffs)
        block_sums.append(block_sum)
        n += block
        if n > last:
            return AbelEvaluation(t=t, value=math.fsum(block_sums), terms_used=n - 1,
                                  tail_bound=_certified_tail(seq.bound, gamma, n, t),
                                  wall_ms=(time.perf_counter() - start) * 1e3,
                                  roundoff_bound=sys.float_info.epsilon * magnitude)


def schedule(ratio: float, k_max: int) -> list:
    """The regulator points t_k = 1 - ratio^k, k = 0 .. k_max, cut before the first that rounds to 1.0."""
    return list(itertools.takewhile(lambda t: t < 1.0, (1.0 - ratio ** k for k in range(k_max + 1))))


@functools.lru_cache(maxsize=256, typed=True)
def _lagrange_weights(ratio: float, k: int, w: int) -> tuple:
    """L_j(0) for the window of the w nodes u_j = ratio^j, j = k + 1 - w ... k."""
    us = [ratio ** j for j in range(k + 1 - w, k + 1)]
    return tuple(math.prod(ui / (ui - uj) for ui in us if ui != uj) for uj in us)


def euler_limit(seq: CoefficientSequence, cfg: Optional[EulerLimitConfig] = None) -> EulerLimitResult:
    """Extract lim_{t->1-} f(t) by polynomial extrapolation in u = 1 - t.

    Walks schedule(ratio, k_max), extrapolating through the last _EXTRAPOLATION_ORDER
    points after each evaluation, and stops once the last two extrapolants differ
    by at most ``tolerance``; an extrapolant is sum_j w_j f(t_j), w_j being the
    window's Lagrange weights at u = 0.  Right after that test fails it raises
    PrecisionFloor, with the last extrapolant as ``value`` and the floor as
    ``error_estimate``, if the last difference has not contracted and is within
    the roundoff floor sum_j |w_j| roundoff_bound_j.

    Raises NoEulerSum only on evidence that no limit exists: the
    differences of the last five f(t_k) grow steadily, by ratios all above
    1.05 and within 5 % of each other, as for f ~ A u^-alpha (the message
    gives alpha = log(last ratio) / log(1/ratio)); or the extrapolants more
    than double in magnitude three times in a row from a nonzero first one
    (f(0) = 0 is no start) to above 10.  A large f(t_k) is no such evidence.
    A schedule that ends (at k_max, or before t_k rounds to 1.0) or meets
    the term budget returns the last extrapolant unconverged, its error
    estimate the last extrapolant difference (inf with one point).  Each
    exception, and any EulerSumError raised by abel_eval, carries the
    evaluations made so far as ``evaluations``.
    """
    if cfg is None:
        cfg = EulerLimitConfig()
    inner_tol = cfg.tolerance / INNER_TOL_FACTOR

    evaluations: list = []
    extrapolants: list = []

    for k, t_k in enumerate(schedule(cfg.ratio, cfg.k_max)):
        if evaluations and evaluations[-1].terms_used / cfg.ratio > DEFAULT_TERM_BUDGET:
            break  # next evaluation would exceed the term budget
        try:
            ev = abel_eval(seq, t_k, inner_tol)
        except EulerSumError as exc:
            exc.evaluations = evaluations
            raise
        evaluations.append(ev)

        window = evaluations[-_EXTRAPOLATION_ORDER:]
        weights = _lagrange_weights(cfg.ratio, k, len(window))
        p = math.fsum(wj * e.value for wj, e in zip(weights, window))
        extrapolants.append(p)
        d = abs(p - extrapolants[-2]) if k else math.inf
        if d <= cfg.tolerance:
            return EulerLimitResult(value=p, error_estimate=d, converged=True, evaluations=evaluations)
        if k >= 2 and abs(extrapolants[-2] - extrapolants[-3]) <= d:  # no longer contracting
            floor = sum(abs(wj) * e.roundoff_bound for wj, e in zip(weights, window))
            if d <= floor:
                raise PrecisionFloor(f"extrapolants stopped contracting at delta {d:.3e} within their "
                                     f"roundoff floor {floor:.3e} at t={t_k!r}", evaluations, p, floor)
        f = [e.value for e in evaluations[-5:]]
        diffs = [b - a for a, b in zip(f, f[1:])]
        rho = [b / a for a, b in zip(diffs, diffs[1:])] if len(diffs) == 4 and all(diffs) else [0.0]
        if min(rho) > _GROWTH_MIN and max(rho) <= _GROWTH_SPREAD * min(rho):
            alpha = math.log(rho[-1]) / math.log(1.0 / cfg.ratio)
            raise NoEulerSum(f"f(t) grows like u^-{alpha:.3f} in u = 1 - t; no finite t -> 1 limit",
                             evaluations=evaluations)
        if len(extrapolants) >= 4:
            m0, m1, m2, m3 = (abs(q) for q in extrapolants[-4:])
            if 0.0 < 2.0 * m0 < m1 and 2.0 * m1 < m2 and 2.0 * m2 < m3 and m3 > 10.0:
                raise NoEulerSum(
                    f"extrapolants grew {m0:.3e} -> {m3:.3e} over three steps; "
                    "no finite t -> 1 limit",
                    evaluations=evaluations,
                )

    return EulerLimitResult(value=extrapolants[-1], error_estimate=d, converged=False, evaluations=evaluations)
