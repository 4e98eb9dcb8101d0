"""Abel evaluation and Euler-limit extraction against brute-force oracles."""

import dataclasses
import gc
import math
import re
import sys
import weakref

import mpmath
import numpy as np
import pytest
from hypothesis import example, given, settings
from hypothesis import strategies as st

import eulersum.resummation as rs
from eulersum.errors import DomainError, InvalidConfig, NoEulerSum, PrecisionFloor, TailNotBounded, TNotInUnitInterval
from eulersum.oscillator import osc_action_coefficients
from eulersum.resummation import (
    _BLOCK_MAX,
    _BLOCK_MIN,
    _KEPT_TERMS,
    DEFAULT_TERM_BUDGET,
    CoefficientSequence,
    EulerLimitConfig,
    _certified_tail,
    _certified_terms,
    abel_eval,
    euler_limit,
)
from eulersum.square_well import well_action_evaluations, well_action_sequence
from eulersum.zeta import alternating_sequence, plain_sequence

EPS = np.finfo(float).eps


def geometric(q):
    # q^n for 0 < q <= 1 is bounded by q for n >= 1
    return CoefficientSequence(lambda n: q ** n, growth_hint=0.0, bound=q)


def lead_term(c, gamma, n, t):
    """c n^gamma t^n in 30-digit arithmetic."""
    with mpmath.workdps(30):
        return mpmath.mpf(c) * mpmath.mpf(n) ** gamma * mpmath.mpf(t) ** n


def alternating_unit():
    # -1, +1, -1, +1, ... from n = 1
    return CoefficientSequence(lambda n: (-1.0) ** n, growth_hint=0.0, bound=1.0)


def coefficients(seq, n_terms):
    return seq.term_block(np.arange(1.0, 1.0 + n_terms))


def brute_partial(seq, t, n_terms):
    return math.fsum(a * t ** n for n, a in enumerate(coefficients(seq, n_terms).tolist(), 1))


def abs_scale(seq, t, n_terms):
    """sum |a_n| t^n over the first n_terms terms: the roundoff scale of f(t)."""
    n = np.arange(1.0, 1.0 + n_terms)
    return math.fsum(np.abs(coefficients(seq, n_terms)) * t ** n)


def test_alternating_closed_form_at_half():
    # sum (-1)^(n+1) t^n = t/(1+t) = 1/3 at t = 0.5
    seq = CoefficientSequence(lambda n: (-1.0) ** (n + 1), growth_hint=0.0, bound=1.0)
    ev = abel_eval(seq, 0.5, 1e-10)
    assert ev.value == pytest.approx(1.0 / 3.0, abs=1e-10)


def test_square_well_growth_against_brute_force():
    # a_n = n^2
    seq = CoefficientSequence(lambda n: n ** 2, growth_hint=2.0, bound=1.0)
    ev = abel_eval(seq, 0.9, 1e-8)
    oracle = math.fsum(n ** 2 * 0.9 ** n for n in range(1, 501))
    assert ev.value == pytest.approx(oracle, abs=1e-8)


@pytest.mark.parametrize("t", [-0.1, 1.5, 2.0, math.nan, 1.0])
def test_t_outside_unit_interval_rejected(t):
    with pytest.raises(TNotInUnitInterval):
        abel_eval(geometric(0.5), t, 1e-8)


def test_tail_bound_within_tolerance_on_success():
    # a_n = (-1)^(n+1) n
    seq = CoefficientSequence(lambda n: (-1.0) ** (n + 1) * n, growth_hint=1.0, bound=1.0)
    ev = abel_eval(seq, 0.97, 1e-9)
    assert 0.0 <= ev.tail_bound <= 1e-9


def test_value_matches_brute_partial_sum_with_same_term_count():
    # a_n = (-1)^(n+1) n^0.5
    seq = CoefficientSequence(lambda n: (-1.0) ** (n + 1) * n ** 0.5, growth_hint=0.5, bound=1.0)
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
    seq = CoefficientSequence(lambda n: (-1.0) ** (n + 1) / (n + 1.0), growth_hint=0.0, bound=0.5)
    tight = abel_eval(seq, t, tol)
    loose = abel_eval(seq, t, tol * factor)
    assert loose.terms_used <= tight.terms_used


def test_euler_limit_alternating_unit():
    res = euler_limit(alternating_unit())
    assert res.converged
    assert res.value == pytest.approx(-0.5, abs=1e-7)


def test_euler_limit_all_ones_has_no_sum():
    ones = CoefficientSequence(np.ones_like, growth_hint=0.0, bound=1.0)
    with pytest.raises(NoEulerSum):
        euler_limit(ones)


def test_euler_limit_one_two_three_has_no_sum():
    # a_n = n
    naturals = CoefficientSequence(lambda n: n, growth_hint=1.0, bound=1.0)
    with pytest.raises(NoEulerSum):
        euler_limit(naturals)


def test_euler_limit_minus_one_twelfth():
    # -1/3, +2/3, -3/3, +4/3, ...: |a_n| = n / 3
    seq = CoefficientSequence(lambda n: (-1.0) ** n * n / 3.0, growth_hint=1.0, bound=1.0 / 3.0)
    res = euler_limit(seq)
    assert res.converged
    assert res.value == pytest.approx(-1.0 / 12.0, abs=1e-7)


def test_euler_limit_of_convergent_geometric():
    res = euler_limit(geometric(0.5))
    assert res.converged
    assert res.value == pytest.approx(1.0, abs=1e-7)


# Case ids name term, first index (now 1 for every series), hint and
# expected sum, as before the bound column.
@pytest.mark.parametrize(
    "term,hint,bound,expected",
    [
        pytest.param(lambda n: 0.5 ** n, 0.0, 0.5, 1.0,
                     id="<lambda>-1-0.0-1.0"),
        # 1/n! by lgamma: math.factorial(n) overflows a float past n = 170
        pytest.param(lambda n: np.exp(-np.array([math.lgamma(k + 1.0) for k in n])), 0.0, 1.0, math.e - 1.0,
                     id=f"<lambda>-1-0.0-{math.e - 1.0}"),
        # a_n = (-1)^(n+1) / n^2
        pytest.param(lambda n: (-1.0) ** (n + 1) / n ** 2, -2.0, 1.0, math.pi ** 2 / 12.0,
                     id=f"<lambda>-1--2.0-{math.pi ** 2 / 12.0}"),
    ],
)
def test_consistency_with_ordinary_sums(term, hint, bound, expected):
    res = euler_limit(CoefficientSequence(term, growth_hint=hint, bound=bound))
    assert res.converged
    assert abs(res.value - expected) <= 10 * EulerLimitConfig().tolerance
    # f(t_0 = 0) sums no term: there is no a_0
    assert (res.evaluations[0].t, res.evaluations[0].value) == (0.0, 0.0)


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
    ones = CoefficientSequence(np.ones_like, growth_hint=0.0, bound=1.0)
    with pytest.raises(NoEulerSum) as excinfo:
        euler_limit(ones)
    assert len(excinfo.value.trace) >= 2
    assert excinfo.value.trace[0][0] == 0.0
    evs = excinfo.value.evaluations
    assert excinfo.value.trace == [(e.t, e.value) for e in evs]


def test_schedule_exhausted_while_contracting_is_unconverged():
    # sum n^-1.5 t^n approaches zeta(1.5) like u^(1/2), which no polynomial in u
    # removes: the extrapolants close in by about 2^(-1/2) a step, far from tol at k = 12
    res = euler_limit(plain_sequence(1.5), EulerLimitConfig(k_max=12))
    assert not res.converged and 1e-3 < res.error_estimate < 1e-1
    assert len(res.evaluations) == 13


def test_value_beyond_one_over_tolerance_has_no_sum():
    # sum n^3 t^n = t (1 + 4t + t^2) / (1 - t)^4 passes 1/tol = 100 at t = 0.5,
    # which alone is no evidence; the extrapolants' growth is, counted from
    # the first nonzero one: f(0) = 0, so it takes a fifth point to show
    with pytest.raises(NoEulerSum, match=r"^extrapolants grew 5\.200e\+01 ") as excinfo:
        euler_limit(plain_sequence(-3.0), EulerLimitConfig(tolerance=1e-2))
    assert [e.t for e in excinfo.value.evaluations] == [0.0, 0.5, 0.75, 0.875, 0.9375]


def test_term_budget_ends_the_schedule_unconverged():
    # each step at ratio 0.1 needs about ten times the terms of the last;
    # sum n^-1.5 t^n converges too slowly in u to settle first
    res = euler_limit(plain_sequence(1.5), EulerLimitConfig(ratio=0.1))
    assert not res.converged
    terms = [e.terms_used for e in res.evaluations]
    assert len(terms) == 7
    assert terms[-2] / 0.1 <= DEFAULT_TERM_BUDGET < terms[-1] / 0.1


def test_term_budget_runs_out_mid_schedule():
    # sum t^n / n = -ln(1 - t) has no limit, but grows too slowly for any
    # growth rule: the walk goes on until the prefix at t_19 = 1 - 2^-19
    # (at tol 1e-9, inner tol 1e-11) would pass the budget, while t_18 needs
    # under half of it
    seq = CoefficientSequence(lambda n: 1.0 / n, growth_hint=0.0, bound=1.0)
    with pytest.raises(TailNotBounded, match=re.escape(f"at t={1.0 - 2.0 ** -19!r}")) as excinfo:
        euler_limit(seq, EulerLimitConfig(tolerance=1e-9))
    evs = excinfo.value.evaluations
    assert len(evs) == 19 and evs[-1].terms_used / 0.5 <= DEFAULT_TERM_BUDGET


def test_term_budget_break_after_t_0_is_unconverged():
    # t_0 = 0 sums one _BLOCK_MIN block, and _BLOCK_MIN / 1e-10 terms are past the budget
    res = euler_limit(alternating_sequence(-1.0), EulerLimitConfig(ratio=1e-10))
    assert not res.converged and res.error_estimate == math.inf
    assert [(e.t, e.terms_used) for e in res.evaluations] == [(0.0, _BLOCK_MIN)]


def test_saturated_schedule_never_evaluates_t_one(monkeypatch):
    ts = []

    def recording(seq, t, tol):
        ts.append(t)
        return original(seq, t, tol)

    original = rs.abel_eval
    monkeypatch.setattr(rs, "abel_eval", recording)
    # t_1 = 1 - 1e-300 rounds to 1.0: only t_0 = 0 is left to evaluate, and
    # one point gives no extrapolant difference to judge
    res = euler_limit(alternating_sequence(-1.0), EulerLimitConfig(ratio=1e-300))
    assert ts == [0.0]
    assert not res.converged and res.error_estimate == math.inf
    assert [e.t for e in res.evaluations] == [0.0]


def test_abel_eval_failure_carries_the_evaluations_made(monkeypatch):
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


def test_a_limit_ended_at_its_floor_leaves_no_reference_cycle():
    # an exception bound to a local of the frame that raises it forms a
    # cycle through its traceback, which would keep the sequence and its
    # kept coefficients alive until the cyclic collector runs
    enabled = gc.isenabled()
    gc.disable()
    try:
        seq = alternating_sequence(-4.0)
        alive = weakref.ref(seq)
        with pytest.raises(PrecisionFloor):
            euler_limit(seq, EulerLimitConfig(tolerance=1e-8))
        del seq
        assert alive() is None
    finally:
        if enabled:
            gc.enable()


def test_abel_eval_gives_up_once_the_budget_cannot_close_the_bound():
    blocks = []

    def ones(n):
        blocks.append(n.size)
        return np.ones_like(n)

    # the bound t^N / (1 - t) is still ~1e9 at N = DEFAULT_TERM_BUDGET
    t, tol = 1.0 - 2.0 ** -30, 1e-10
    with pytest.raises(TailNotBounded) as excinfo:
        abel_eval(CoefficientSequence(ones, growth_hint=0.0, bound=1.0), t, tol)
    assert str(excinfo.value) == (f"tail not certified below tol={tol!r} within {DEFAULT_TERM_BUDGET} terms "
                                  f"at t={t!r}")
    assert blocks == []


def test_abel_eval_reports_coefficients_that_overflow():
    # Python's 2.0 ** 1024 raises OverflowError in the block that starts at n = 897
    # the stated bound is false, and the prefix it certifies runs past n = 897
    seq = CoefficientSequence(lambda n: np.array([2.0 ** int(m) for m in n]), growth_hint=0.0, bound=1.0)
    with pytest.raises(TailNotBounded, match=r"^coefficients overflow double precision near n=897;"):
        abel_eval(seq, 0.99, 1e-10)


def test_abel_eval_of_an_all_zero_series_stops_after_one_block():
    ev = abel_eval(CoefficientSequence(np.zeros_like, growth_hint=2.0, bound=0.0), 0.99, 1e-10)
    assert (ev.value, ev.terms_used, ev.tail_bound) == (0.0, 128, 0.0)


def test_abel_eval_tail_bound_covers_the_first_omitted_term():
    # t^n underflows to 0 under |a_n| = |pref| n^60 well before the tail is below tol
    seq, t, tol = alternating_sequence(-60.0), 0.75, 1e-300
    ev = abel_eval(seq, t, tol)
    first_omitted = lead_term(seq.bound, seq.growth_hint, 1 + ev.terms_used, t)
    assert float(first_omitted) <= ev.tail_bound <= tol


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
        {"k_max": 40.0},
    ],
)
def test_bad_config_rejected(kwargs):
    with pytest.raises(InvalidConfig):
        EulerLimitConfig(**kwargs)


@pytest.mark.parametrize("bound", [-1.0, -1e-300, math.inf, math.nan])
def test_bound_must_be_finite_and_non_negative(bound):
    with pytest.raises(DomainError):
        CoefficientSequence(np.ones_like, growth_hint=0.0, bound=bound)


@pytest.mark.parametrize("growth_hint", [-math.inf, math.inf, math.nan])
def test_growth_hint_must_be_finite(growth_hint):
    with pytest.raises(DomainError):
        CoefficientSequence(np.ones_like, growth_hint=growth_hint, bound=1.0)


def block_ends():
    """The ends n (exclusive) of abel_eval's blocks from n = 1."""
    n, size = 1, _BLOCK_MIN
    while True:
        n, size = n + size, min(2 * size, _BLOCK_MAX)
        yield n


def package_sequences():
    near_pole = st.floats(min_value=0.951, max_value=1.049).filter(lambda s: s != 1.0)
    return st.one_of(
        st.one_of(st.floats(min_value=-4.0, max_value=3.0).filter(lambda s: s != 1.0), near_pole)
        .map(alternating_sequence),
        st.floats(min_value=-4.0, max_value=3.0).map(plain_sequence),
        st.builds(well_action_sequence, st.floats(min_value=1e-3, max_value=math.pi - 1e-3),
                  st.integers(min_value=-1, max_value=3)),
    )


@given(seq=package_sequences(), n0=st.integers(min_value=1, max_value=10 ** 7),
       size=st.integers(min_value=1, max_value=512), t=st.floats(min_value=0.0, max_value=0.99),
       tol=st.floats(min_value=1e-12, max_value=1e-4))
@settings(max_examples=150, deadline=None)
def test_stated_bound_holds_and_sets_the_prefix(seq, n0, size, t, tol):
    n = np.arange(n0, n0 + size, dtype=np.float64)
    assert np.all(np.abs(seq.term_block(n)) <= seq.bound * n ** seq.growth_hint)
    ev = abel_eval(seq, t, tol)
    last = _certified_terms(seq.bound, seq.growth_hint, t, tol)
    assert ev.terms_used == next(n for n in block_ends() if n > last) - 1
    assert ev.tail_bound <= tol


# Summation error scale eps * sum |a_n| t^n (Higham, Accuracy and Stability
# of Numerical Algorithms, 2nd ed., ch. 4); the tail is cut 16x below it.
@pytest.mark.parametrize("s", [-4.5, -3.3, -2.5, -1.0, 0.5, 2.0])
@pytest.mark.parametrize("t", [0.5, 0.9, 0.99, 0.999])
def test_alternating_zeta_matches_polylog_to_roundoff(s, t):
    # sum (-1)^(n+1) n^-s t^n = -Li_s(-t), and sum n^-s t^n = Li_s(t)
    pref = 1.0 / (1.0 - 2.0 ** (1.0 - s))
    with mpmath.workdps(30):
        exact = float(mpmath.re(-pref * mpmath.polylog(s, -t)))
        scale = float(mpmath.re(abs(pref) * mpmath.polylog(s, t)))
    ev = abel_eval(alternating_sequence(s), t, EPS * scale / 16.0)
    assert abs(ev.value - exact) <= 4.0 * EPS * scale


@pytest.mark.parametrize("p", [0, 1, 2])
@pytest.mark.parametrize("x", [0.3, 1.0, 2.5])
@pytest.mark.parametrize("t", [0.5, 0.9, 0.99])
def test_well_action_series_matches_polylog_to_roundoff(p, x, t):
    # sum over odd n of n^(2p-3) z^n = Li_{3-2p}(z) - 2^(2p-3) Li_{3-2p}(z^2)
    seq = well_action_sequence(x, p)
    with mpmath.workdps(30):
        z = t * mpmath.expj(x)
        odd = mpmath.polylog(3 - 2 * p, z) - mpmath.mpf(2) ** (2 * p - 3) * mpmath.polylog(3 - 2 * p, z * z)
        exact = float(8.0 / mpmath.pi * mpmath.mpf(2) ** -p * mpmath.im(odd))
    scale = abs_scale(seq, t, 10 * abel_eval(seq, t, 1e-3).terms_used)
    ev = abel_eval(seq, t, EPS * scale / 16.0)
    assert abs(ev.value - exact) <= 4.0 * EPS * scale


# terms_used and tail_bound as computed when the constant C was estimated as
# max |a_n| / n^gamma over the summed prefix.  The stated bound keeps every
# truncation, and the tail bound, which is linear in C, rescaled to that
# estimate is the pinned one within a few ulps.  The estimate was the bound
# itself for zeta; the well's |sin(nx)| stays below 1.
@pytest.mark.parametrize(
    "seq, t, tol, terms, tail",
    [
        (lambda: alternating_sequence(-1.0), 0.9, 1e-10, 384, 3.1767167540768705e-15),
        (lambda: alternating_sequence(-2.5), 0.99, 1e-10, 8064, 3.668413360124033e-25),
        (lambda: alternating_sequence(0.5), 0.999, 1e-08, 24448, 3.675079786431577e-10),
        (lambda: plain_sequence(2.0), 0.5, 1e-12, 128, 1.7659611063371905e-43),
        (lambda: well_action_sequence(1.0, 1), 0.9, 1e-10, 384, 7.994867490460099e-20),
        (lambda: well_action_sequence(0.3, 2), 0.99, 1e-08, 3968, 1.2291891355496558e-12),
    ],
)
def test_truncation_matches_the_unnormalised_coefficients(seq, t, tol, terms, tail):
    seq = seq()
    ev = abel_eval(seq, t, tol)
    assert ev.terms_used == terms
    n = np.arange(1.0, 1.0 + terms)
    estimate = np.max(np.abs(seq.term_block(n)) / n ** seq.growth_hint)
    assert ev.tail_bound * (estimate / seq.bound) == pytest.approx(tail, rel=1e-15, abs=0.0)


# --- the kept coefficient blocks -------------------------------------------------


def fresh(seq):
    """The same series as ``seq``, with nothing kept."""
    return CoefficientSequence(seq.term_block, seq.growth_hint, seq.bound)


def cosines(gamma):
    # a_n = cos(n) n^gamma, written into one buffer that every call reuses
    buffer = np.empty(_BLOCK_MAX)

    def term_block(n):
        return np.multiply(np.cos(n), n ** gamma, out=buffer[:n.size])

    return CoefficientSequence(term_block, growth_hint=gamma, bound=1.0)


@given(seq=st.one_of(
           st.floats(min_value=-3.5, max_value=3.0).filter(lambda s: s != 1.0).map(alternating_sequence),
           st.floats(min_value=-3.0, max_value=3.0).map(plain_sequence),
           st.builds(well_action_sequence, st.floats(min_value=1e-3, max_value=math.pi - 1e-3),
                     st.integers(min_value=-1, max_value=2)),
           st.sampled_from([0.0, -1.5, 2.0]).map(cosines)),
       ts=st.lists(st.floats(min_value=0.0, max_value=1.0 - 2.0 ** -14), min_size=2, max_size=5),
       tol=st.floats(min_value=1e-12, max_value=1e-4))
@settings(max_examples=60, deadline=None)
@example(seq=alternating_sequence(-1.0), ts=[1.0 - 2.0 ** -14, 0.0, 0.5], tol=1e-10)
@example(seq=cosines(0.0), ts=[0.999, 0.5, 0.999], tol=1e-10)
def test_kept_blocks_give_what_a_fresh_sequence_gives(seq, ts, tol):
    for t in ts:
        ev, new = abel_eval(seq, t, tol), abel_eval(fresh(seq), t, tol)
        assert (ev.value.hex(), ev.terms_used, ev.tail_bound) == (new.value.hex(), new.terms_used, new.tail_bound)


def test_one_limit_makes_each_kept_coefficient_once():
    made = np.zeros(2 ** 19, dtype=np.int64)  # times each index n was made

    def recording(n):
        np.add.at(made, n.astype(np.int64), 1)
        return base.term_block(n)

    base = plain_sequence(1.5)
    seq = dataclasses.replace(base, term_block=recording)
    res = euler_limit(seq, EulerLimitConfig(tolerance=1e-12, k_max=14))  # still far from tol at k = 14
    assert not res.converged
    kept = sum(block.size for block in seq._kept)
    assert max(e.terms_used for e in res.evaluations) > kept
    assert np.all(made[1:1 + kept] == 1) and made[0] == 0
    assert np.max(made[1 + kept:]) > 1  # past the kept prefix each evaluation makes its own


def test_kept_blocks_are_copies_of_what_term_block_returned():
    returned = []  # every array term_block handed out, each its own
    seq = CoefficientSequence(lambda n: returned.append(np.cos(n)) or returned[-1], growth_hint=0.0, bound=1.0)
    first = abel_eval(seq, 0.9, 1e-10)
    assert seq._kept and len(returned) == len(seq._kept)
    for block in returned:
        block[:] = np.nan
    again = abel_eval(seq, 0.9, 1e-10)
    assert len(returned) == len(seq._kept)  # read back, not made anew
    assert (again.value.hex(), again.terms_used) == (first.value.hex(), first.terms_used)


def test_kept_blocks_stay_within_the_kept_terms():
    seq = alternating_sequence(-1.0)
    assert abel_eval(seq, 1.0 - 2.0 ** -16, 1e-10).terms_used > 10 ** 6
    assert _KEPT_TERMS - _BLOCK_MAX < sum(block.size for block in seq._kept) <= _KEPT_TERMS


def test_a_non_finite_coefficient_raises_on_every_call():
    # +inf at n = 100 gives a nan product even where t^n is 0
    seq = CoefficientSequence(lambda n: np.where(n == 100, np.inf, 1.0), growth_hint=0.0, bound=1.0)
    for t in (0.9, 0.9, 0.0, 1e-4):
        with pytest.raises(DomainError, match=r"^non-finite coefficient near n=1$"):
            abel_eval(seq, t, 1e-10)
    assert seq._kept == []


def test_kept_blocks_are_read_only_and_not_part_of_the_sequence():
    seq = alternating_sequence(-1.0)
    twin = dataclasses.replace(seq)
    abel_eval(seq, 0.99, 1e-10)
    assert seq._kept and not any(block.flags.writeable for block in seq._kept)
    with pytest.raises(ValueError):
        seq._kept[0][0] = 0.0
    assert dataclasses.replace(seq, term_block=seq.term_block)._kept == []
    assert seq == twin and hash(seq) == hash(twin) and twin._kept == []
    assert "_kept" not in repr(seq)


# --- the kept power tables and window weights ---------------------------------


def least_n_by_bisection(c, gamma, t, tol):
    """The least N with _certified_tail(c, gamma, N + 1, t) <= tol, by plain bisection over [0, the budget]."""
    def ok(n):
        return _certified_tail(c, gamma, n + 1, t) <= tol

    if not ok(DEFAULT_TERM_BUDGET):
        return None
    lo, hi = -1, DEFAULT_TERM_BUDGET
    while hi - lo > 1:
        mid = (lo + hi) // 2
        lo, hi = (lo, mid) if ok(mid) else (mid, hi)
    return hi


@given(c=st.floats(min_value=1e-20, max_value=1e20), gamma=st.floats(min_value=0.0, max_value=10.0, exclude_min=True),
       t=st.floats(min_value=0.5, max_value=1.0 - 2.0 ** -30), tol=st.floats(min_value=1e-300, max_value=1.0))
@settings(max_examples=300, deadline=None)
# the Newton start lies on the falling side of the log bound (-target > gamma), and on its rising side
@example(c=1.0, gamma=3.0, t=0.999, tol=1e-10)
@example(c=1e-20, gamma=10.0, t=0.5, tol=1.0)
def test_certified_terms_for_a_growing_bound_is_the_least_n_of_a_plain_bisection(c, gamma, t, tol):
    expected = least_n_by_bisection(c, gamma, t, tol)
    if expected is None:
        with pytest.raises(TailNotBounded):
            _certified_terms(c, gamma, t, tol)
    else:
        assert _certified_terms(c, gamma, t, tol) == expected


def test_kept_power_tables_are_the_read_only_powers_of_t():
    seq = alternating_sequence(-1.0)
    for t in (0.0, 0.3, 0.5, 1.0 - 2.0 ** -12):
        n = abel_eval(seq, t, 1e-10).terms_used
        table = rs._power_table(t, 1)
        assert table.size >= min(n, _BLOCK_MAX)
        assert table.tobytes() == np.power(t, np.arange(table.size, dtype=np.float64)).tobytes()
        with pytest.raises(ValueError):
            table[0] = 0.0
    # the well's odd-n pass reads t^(2j) there, at the 38 points of well-delta --k-max 40
    well_action_evaluations(1.0, 0, [1.0 - 2.0 ** -k for k in range(1, 39)], 1e-10)
    assert 0 < len(rs._powers) <= rs._POWER_TABLES
    assert max(table.size for table in rs._powers.values()) == 2 * _BLOCK_MAX
    for (_, t, _), table in rs._powers.items():
        assert table.tobytes() == np.power(t, np.arange(table.size, dtype=np.float64)).tobytes()
        with pytest.raises(ValueError):
            table[0] = 0.0
    # equal keys, other tables: the zeros of -0.0's odd powers are negative
    assert math.copysign(1.0, rs._power_table(-0.0, 2)[1]) == -1.0
    assert math.copysign(1.0, rs._power_table(0.0, 2)[1]) == 1.0


def test_at_most_the_last_used_power_tables_are_kept():
    seq = alternating_sequence(-1.0)
    ts = [0.5 + j / 1000.0 for j in range(rs._POWER_TABLES + 8)]
    for t in ts:
        abel_eval(seq, t, 1e-10)
    assert len(rs._powers) <= rs._POWER_TABLES
    assert all(table.size <= _BLOCK_MAX for table in rs._powers.values())
    assert (float, ts[-1], 1.0) in rs._powers and (float, ts[0], 1.0) not in rs._powers


def test_a_second_pass_over_the_longest_well_schedule_rebuilds_no_power_table(monkeypatch):
    """More tables are kept than the 61 points of the longest schedule (k <= 60
    and t_0 = 0), so a second pass over the 38 points of well-delta --k-max 40
    makes no power of t."""
    assert rs._POWER_TABLES > 61
    ts = [1.0 - 2.0 ** -k for k in range(1, 39)]
    well_action_evaluations(1.0, 0, ts, 1e-10)
    calls, power = [], np.power
    monkeypatch.setattr(np, "power", lambda *args: calls.append(args[0]) or power(*args))
    well_action_evaluations(1.0, 0, ts, 1e-10)
    assert calls == []


def evaluation_fields(evaluations):
    return [(e.t, e.value.hex(), e.terms_used, e.tail_bound, e.roundoff_bound) for e in evaluations]


@pytest.mark.parametrize("s", [-1.0, -4.0, 0.5, 2.0])
def test_a_limit_with_cold_tables_and_weights_is_the_limit_with_warm_ones(s):
    def limit():
        try:
            res = euler_limit(alternating_sequence(s), EulerLimitConfig(tolerance=1e-8))
        except PrecisionFloor as exc:  # s = -4 ends at its roundoff floor
            return "floor", exc.value, exc.error_estimate, evaluation_fields(exc.evaluations)
        return res.converged, res.value, res.error_estimate, evaluation_fields(res.evaluations)

    rs._powers.clear()
    rs._lagrange_weights.cache_clear()
    cold = limit()
    assert rs._lagrange_weights.cache_info().hits == 0
    warm = limit()
    assert rs._lagrange_weights.cache_info().hits == len(cold[3])
    assert warm == cold
    assert (cold[0] == "floor") == (s == -4.0)


# --- the steady-growth exit ----------------------------------------------------


def growth_exponent(exc) -> float:
    """The alpha of a steady-growth NoEulerSum, "f(t) grows like u^-alpha"."""
    match = re.match(r"f\(t\) grows like u\^-([0-9.]+) ", str(exc))
    assert match, str(exc)
    return float(match.group(1))


def total_terms(evaluations) -> int:
    return sum(e.terms_used for e in evaluations)


def well_kernel(x, y):
    # (2/pi) sin(nx) sin(ny): the square well's completeness kernel at (x, y)
    return CoefficientSequence(lambda n: (2.0 / math.pi) * np.sin(n * x) * np.sin(n * y),
                               growth_hint=0.0, bound=2.0 / math.pi)


@given(s=st.floats(min_value=-3.0, max_value=0.9))
@settings(max_examples=40, deadline=None)
def test_plain_zeta_has_no_sum_within_ten_thousand_terms(s):
    with pytest.raises(NoEulerSum) as excinfo:
        euler_limit(plain_sequence(s))
    assert total_terms(excinfo.value.evaluations) <= 10 ** 4


@given(s=st.floats(min_value=-2.8, max_value=2.5).filter(lambda s: abs(s - 1.0) >= 0.05))
@settings(max_examples=40, deadline=None)
def test_alternating_zeta_never_takes_the_steady_growth_exit(s):
    try:
        euler_limit(alternating_sequence(s), EulerLimitConfig(tolerance=1e-8))
    except NoEulerSum as exc:
        assert "grows like" not in str(exc)


@pytest.mark.parametrize("p", [-1, 0, 1, 2])
@pytest.mark.parametrize("x", [0.3, 1.0, 2.0])
def test_well_action_series_still_converge(p, x):
    assert euler_limit(well_action_sequence(x, p), EulerLimitConfig(tolerance=1e-8)).converged


def test_growth_from_an_exact_zero_is_no_evidence_of_divergence():
    # H^3 on y(pi - y) has the limit 0, and f(0) = 0 here is no start for
    # "extrapolants grew": the limit ends at its roundoff floor, not NoEulerSum
    with pytest.raises(PrecisionFloor) as excinfo:
        euler_limit(well_action_sequence(0.3, 3), EulerLimitConfig(tolerance=1e-8))
    assert excinfo.value.evaluations[0].value == 0.0
    assert 1e-8 < abs(excinfo.value.value) <= excinfo.value.error_estimate


@pytest.mark.parametrize("x, y", [(1.0, 2.0), (0.3, 0.35), (0.5, 2.5)])
def test_off_diagonal_well_kernel_still_converges_to_zero(x, y):
    res = euler_limit(well_kernel(x, y), EulerLimitConfig(tolerance=1e-8))
    assert res.converged
    assert abs(res.value) <= 1e-8


@pytest.mark.parametrize("s", [0.9, 0.5, 0.25])
def test_plain_zeta_grows_like_u_to_the_s_minus_one(s):
    # Hardy, Divergent Series, ch. IV: sum n^-s t^n ~ Gamma(1 - s) (1 - t)^(s - 1)
    with pytest.raises(NoEulerSum) as excinfo:
        euler_limit(plain_sequence(s))
    assert growth_exponent(excinfo.value) == pytest.approx(1.0 - s, abs=0.05)


def test_diagonal_well_kernel_grows_like_one_over_u():
    # (2/pi) sin(n)^2 t^n sums to t / (pi (1 - t)) plus a part bounded at t = 1
    with pytest.raises(NoEulerSum) as excinfo:
        euler_limit(well_kernel(1.0, 1.0))
    assert growth_exponent(excinfo.value) == pytest.approx(1.0, abs=0.05)


@given(c=st.sampled_from([1e-20, 0.3, 8.0 / math.pi, 1e20]),
       gamma=st.sampled_from([-3.0, -1.0, -0.5, 0.0, 0.5, 1.0, 3.0]),
       t=st.sampled_from([0.0, 1e-300, 0.1, 0.5, 0.9, 0.99, 0.999]),
       tol=st.sampled_from([1e-300, 1e-14, 1e-10, 1.0, 1e30]))
@settings(max_examples=200, deadline=None)
# gamma > 0 with a tolerance no finite N needs: the bound is infinite until rho < 1
@example(c=0.3, gamma=0.5, t=0.999, tol=1e30)
# n^gamma overflows a double long before the budget: the bound is taken in logs there
@example(c=8.0 / math.pi, gamma=60.0, t=0.999, tol=1e-10)
@example(c=1e20, gamma=150.0, t=0.99, tol=1e-14)
# and so does 2^gamma in the ratio bound at n = 1, which is then infinite
@example(c=0.3, gamma=2000.0, t=0.5, tol=1e-10)
# tol (1 - t) / c underflows to 0, though its log is finite
@example(c=1e20, gamma=-3.0, t=1.0 - 2.0 ** -12, tol=1e-300)
# t^n underflows to 0 under a c n^gamma near 1e300 long before the tail is below tol
@example(c=3460016999699692.5, gamma=60.0, t=0.9869416549155869, tol=3.181052592836583e-292)
def test_certified_terms_is_the_least_prefix_with_a_closed_tail(c, gamma, t, tol):
    n = _certified_terms(c, gamma, t, tol)
    assert _certified_tail(c, gamma, n + 1, t) <= tol
    # the tail it closes is at least its lead term
    lead = lead_term(c, gamma, n + 1, t)
    assert lead < sys.float_info.min or _certified_tail(c, gamma, n + 1, t) >= lead * (1 - 1e-12)
    # the first N a linear search from 0 would stop at
    assert n == 0 or not _certified_tail(c, gamma, n, t) <= tol
    assert all(not _certified_tail(c, gamma, m + 1, t) <= tol for m in range(min(n, 3000)))


@given(c=st.floats(min_value=1e-20, max_value=1e20), gamma=st.floats(min_value=-10.0, max_value=150.0),
       n=st.integers(min_value=1, max_value=DEFAULT_TERM_BUDGET),
       t=st.floats(min_value=0.0, max_value=1.0, exclude_min=True, exclude_max=True))
@settings(max_examples=300, deadline=None)
# t^n underflows to 0 while c n^gamma is near 1e300: the lead term is 2.8e-23
@example(c=21.816218884002126, gamma=60.0, n=98924, t=0.9924958648831625)
@example(c=3460016999699692.5, gamma=60.0, n=56689, t=0.9869416549155869)
def test_certified_tail_is_never_below_its_lead_term(c, gamma, n, t):
    bound = _certified_tail(c, gamma, n, t)
    lead = lead_term(c, gamma, n, t)
    if lead >= 2.0 ** -1074:  # a positive double
        assert bound > 0.0
    if lead >= sys.float_info.min:  # a positive normal double, or past the largest
        assert bound >= lead * (1 - 1e-12)


def test_certified_terms_refuses_a_prefix_past_the_budget():
    t = 1.0 - 2.0 ** -39
    with pytest.raises(TailNotBounded, match=re.escape(f"within {DEFAULT_TERM_BUDGET} terms at t={t!r}")):
        _certified_terms(8.0 / math.pi, -3.0, t, 1e-10)
    assert _certified_terms(8.0 / math.pi, -3.0, 1.0 - 2.0 ** -38, 1e-10) <= DEFAULT_TERM_BUDGET


@pytest.mark.parametrize("gamma", [-1e308, -5e307, -2e307])
@pytest.mark.parametrize("t", [0.5, 0.75, 0.999])
def test_certified_terms_past_the_double_range_of_gamma_ln_n(gamma, t):
    # gamma ln(N + 1) overflows to -inf in Newton's step for the guess
    least = next(n for n in range(DEFAULT_TERM_BUDGET) if _certified_tail(1.0, gamma, n + 1, t) <= 1e-10)
    assert _certified_terms(1.0, gamma, t, 1e-10) == least


def test_certified_prefixes_of_steep_eigen_series_are_found():
    # (2p - 3 = 43) and (p = 44): N^gamma at the term budget overflows a double
    evaluations = well_action_evaluations(1.0, 23, [0.0, 0.5, 0.75], 1e-10)
    assert [e.t for e in evaluations] == [0.0, 0.5, 0.75]
    assert all(e.tail_bound <= 1e-10 and math.isfinite(e.value) for e in evaluations)
    assert np.all(np.isfinite(osc_action_coefficients(0.7, 44, 1e-10)))
