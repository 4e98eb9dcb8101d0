"""Abel evaluation and Euler-limit extraction against brute-force oracles."""

import math

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from eulersum.errors import DomainError, InvalidConfig, NoEulerSum, TailNotBounded, TNotInUnitInterval
from eulersum.resummation import (
    DEFAULT_TERM_BUDGET,
    CoefficientSequence,
    EulerLimitConfig,
    abel_eval,
    euler_limit,
)


def geometric(q):
    # q^n for 0 < q <= 1 is bounded by 1
    return CoefficientSequence(lambda n: q ** n, growth_hint=0.0)


def alternating_unit():
    # -1, +1, -1, +1, ... from n = 1
    return CoefficientSequence(lambda n: (-1.0) ** n, growth_hint=0.0, start_index=1)


def coefficients(seq, n_terms):
    return seq.term_block(np.arange(seq.start_index, seq.start_index + n_terms, dtype=np.float64))


def brute_partial(seq, t, n_terms):
    return math.fsum(a * t ** n for n, a in enumerate(coefficients(seq, n_terms).tolist(), seq.start_index))


def test_alternating_closed_form_at_half():
    # sum (-1)^(n+1) t^n = t/(1+t) = 1/3 at t = 0.5
    seq = CoefficientSequence(lambda n: (-1.0) ** (n + 1), growth_hint=0.0, start_index=1)
    ev = abel_eval(seq, 0.5, 1e-10)
    assert ev.value == pytest.approx(1.0 / 3.0, abs=1e-10)


def test_square_well_growth_against_brute_force():
    seq = CoefficientSequence(lambda n: n ** 2, growth_hint=2.0, start_index=1)
    ev = abel_eval(seq, 0.9, 1e-8)
    oracle = math.fsum(n ** 2 * 0.9 ** n for n in range(1, 501))
    assert ev.value == pytest.approx(oracle, abs=1e-8)


@pytest.mark.parametrize("t", [-0.1, 1.5, 2.0, math.nan, 1.0])
def test_t_outside_unit_interval_rejected(t):
    with pytest.raises(TNotInUnitInterval):
        abel_eval(geometric(0.5), t, 1e-8)


def test_tail_bound_within_tolerance_on_success():
    seq = CoefficientSequence(lambda n: (-1.0) ** (n + 1) * n, growth_hint=1.0, start_index=1)
    ev = abel_eval(seq, 0.97, 1e-9)
    assert 0.0 <= ev.tail_bound <= 1e-9


def test_value_matches_brute_partial_sum_with_same_term_count():
    seq = CoefficientSequence(lambda n: (-1.0) ** (n + 1) * n ** 0.5, growth_hint=0.5, start_index=1)
    for t in (0.0, 0.3, 0.9, 0.99):
        ev = abel_eval(seq, t, 1e-8)
        oracle = brute_partial(seq, t, ev.terms_used)
        # identical truncation; only float summation order differs
        scale = math.fsum(abs(a) * t ** n for n, a in enumerate(coefficients(seq, ev.terms_used).tolist(), 1))
        assert abs(ev.value - oracle) <= ev.tail_bound + 64 * np.finfo(float).eps * max(scale, 1.0)


@given(
    t=st.floats(min_value=0.0, max_value=0.98),
    tol=st.floats(min_value=1e-10, max_value=1e-4),
    factor=st.floats(min_value=1.0, max_value=1e4),
)
@settings(max_examples=40, deadline=None)
def test_looser_tolerance_never_uses_more_terms(t, tol, factor):
    seq = CoefficientSequence(lambda n: (-1.0) ** (n + 1) / (n + 1.0), growth_hint=0.0)
    tight = abel_eval(seq, t, tol)
    loose = abel_eval(seq, t, tol * factor)
    assert loose.terms_used <= tight.terms_used


def test_euler_limit_alternating_unit():
    res = euler_limit(alternating_unit())
    assert res.converged
    assert res.value == pytest.approx(-0.5, abs=1e-7)


def test_euler_limit_all_ones_has_no_sum():
    ones = CoefficientSequence(np.ones_like, growth_hint=0.0)
    with pytest.raises(NoEulerSum):
        euler_limit(ones)


def test_euler_limit_one_two_three_has_no_sum():
    naturals = CoefficientSequence(lambda n: n, growth_hint=1.0, start_index=1)
    with pytest.raises(NoEulerSum):
        euler_limit(naturals)


def test_euler_limit_minus_one_twelfth():
    # -1/3, +2/3, -3/3, +4/3, ...
    seq = CoefficientSequence(lambda n: (-1.0) ** n * n / 3.0, growth_hint=1.0, start_index=1)
    res = euler_limit(seq)
    assert res.converged
    assert res.value == pytest.approx(-1.0 / 12.0, abs=1e-7)


def test_euler_limit_of_convergent_geometric():
    res = euler_limit(geometric(0.5))
    assert res.converged
    assert res.value == pytest.approx(2.0, abs=1e-7)


@pytest.mark.parametrize(
    "term,start,hint,expected",
    [
        (lambda n: 0.5 ** n, 0, 0.0, 2.0),
        # 1/n! by lgamma: math.factorial(n) overflows a float past n = 170
        (lambda n: np.exp(-np.array([math.lgamma(k + 1.0) for k in n])), 0, 0.0, math.e),
        (lambda n: (-1.0) ** (n + 1) / n ** 2, 1, -2.0, math.pi ** 2 / 12.0),
    ],
)
def test_consistency_with_ordinary_sums(term, start, hint, expected):
    seq = CoefficientSequence(term, growth_hint=hint, start_index=start)
    res = euler_limit(seq)
    assert res.converged
    assert abs(res.value - expected) <= 10 * EulerLimitConfig().tolerance


def test_schedule_independence():
    half = euler_limit(alternating_unit(), EulerLimitConfig(ratio=0.5))
    third = euler_limit(alternating_unit(), EulerLimitConfig(ratio=1.0 / 3.0))
    assert abs(half.value - third.value) <= 10 * EulerLimitConfig().tolerance


def test_trace_is_monotone_in_t():
    res = euler_limit(alternating_unit())
    ts = [t for t, _ in res.trace]
    assert all(ts[i + 1] > ts[i] for i in range(len(ts) - 1))


def test_converged_implies_error_within_tolerance():
    cfg = EulerLimitConfig(tolerance=1e-9)
    res = euler_limit(alternating_unit(), cfg)
    assert res.converged
    assert res.error_estimate <= cfg.tolerance


def test_no_euler_sum_carries_partial_trace():
    ones = CoefficientSequence(np.ones_like, growth_hint=0.0)
    with pytest.raises(NoEulerSum) as excinfo:
        euler_limit(ones)
    assert len(excinfo.value.trace) >= 2
    assert excinfo.value.trace[0][0] == 0.0
    evs = excinfo.value.evaluations
    assert excinfo.value.trace == [(e.t, e.value) for e in evs]


def test_abel_eval_failure_carries_the_evaluations_made(monkeypatch):
    import eulersum.resummation as rs

    made = []

    def failing_after_three(*args, **kwargs):
        if len(made) == 3:
            raise TailNotBounded("injected after three points")
        made.append(original(*args, **kwargs))
        return made[-1]

    original = rs.abel_eval
    monkeypatch.setattr(rs, "abel_eval", failing_after_three)
    with pytest.raises(TailNotBounded) as excinfo:
        euler_limit(alternating_unit(), EulerLimitConfig(tolerance=1e-14))
    assert excinfo.value.evaluations == made
    assert excinfo.value.trace == [(e.t, e.value) for e in made]


def test_abel_eval_gives_up_once_the_budget_cannot_close_the_bound():
    blocks = []

    def ones(n):
        blocks.append(n.size)
        return np.ones_like(n)

    # the bound t^N / (1 - t) is still ~1e9 at N = DEFAULT_TERM_BUDGET
    t, tol = 1.0 - 2.0 ** -30, 1e-10
    with pytest.raises(TailNotBounded) as excinfo:
        abel_eval(CoefficientSequence(ones, growth_hint=0.0), t, tol)
    assert str(excinfo.value) == (f"tail not certified below tol={tol!r} within {DEFAULT_TERM_BUDGET} terms "
                                  f"at t={t!r}")
    assert len(blocks) == 1


def test_result_trace_views_its_evaluations():
    res = euler_limit(alternating_unit())
    assert res.evaluations
    assert res.trace == [(e.t, e.value) for e in res.evaluations]
    for k, ev in enumerate(res.evaluations):
        assert ev.t == 1.0 - 0.5 ** k
        assert ev.tail_bound <= EulerLimitConfig().tolerance
        assert ev.terms_used >= 1 and ev.wall_ms >= 0.0


@pytest.mark.parametrize("tol", [0.0, -1.0, math.nan, math.inf])
def test_abel_eval_rejects_non_finite_or_non_positive_tol(tol):
    with pytest.raises(InvalidConfig):
        abel_eval(geometric(0.5), 0.5, tol)


@pytest.mark.parametrize(
    "kwargs",
    [
        {"ratio": 0.0},
        {"ratio": 1.0},
        {"k_max": 0},
        {"ratio": math.nan},
        {"tolerance": 0.0},
        {"tolerance": math.nan},
        {"tolerance": math.inf},
    ],
)
def test_bad_config_rejected(kwargs):
    with pytest.raises(InvalidConfig):
        EulerLimitConfig(**kwargs)


def test_negative_start_index_rejected():
    with pytest.raises(DomainError):
        CoefficientSequence(np.ones_like, growth_hint=0.0, start_index=-1)
