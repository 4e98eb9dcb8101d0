"""Zeta evaluations: direct summation vs Euler summation vs brute force."""

import math
import re
import sys
from unittest import mock

import mpmath
import numpy as np
import pytest
from hypothesis import given, reject, settings
from hypothesis import strategies as st

from eulersum.errors import DomainError, NoEulerSum, PrecisionFloor
from eulersum import resummation
from eulersum.resummation import DEFAULT_TERM_BUDGET, AbelEvaluation, EulerLimitConfig, abel_eval, euler_limit
from eulersum.zeta import (
    alternating_sequence,
    plain_sequence,
    zeta_direct,
    zeta_euler,
)


def brute_bracket(s, n_terms):
    """Lower/upper bracket of zeta(s) from a plain partial sum plus the
    integral comparison bound on the tail."""
    partial = math.fsum(n ** (-s) for n in range(1, n_terms + 1))
    lower = partial + (n_terms + 1) ** (1.0 - s) / (s - 1.0)
    upper = partial + n_terms ** (1.0 - s) / (s - 1.0)
    return lower, upper


def test_zeta_direct_basel():
    assert zeta_direct(2.0, 1e-10) == pytest.approx(math.pi ** 2 / 6.0, abs=1e-10)


def test_zeta_direct_fourth_power():
    assert zeta_direct(4.0, 1e-10) == pytest.approx(math.pi ** 4 / 90.0, abs=1e-10)


@pytest.mark.parametrize("s", [1.5, 2.0, 3.0, 7.5])
def test_zeta_direct_inside_brute_force_bracket(s):
    lower, upper = brute_bracket(s, 4000)
    value = zeta_direct(s, 1e-10)
    assert lower - 1e-12 <= value <= upper + 1e-12


@pytest.mark.parametrize("s", [1.0, 0.5, -2.0])
def test_zeta_direct_domain(s):
    with pytest.raises(DomainError):
        zeta_direct(s, 1e-8)


def test_zeta_euler_at_zero():
    res = zeta_euler(0.0)
    assert res.converged
    assert res.value == pytest.approx(-0.5, abs=1e-7)


def test_zeta_euler_at_minus_one():
    res = zeta_euler(-1.0)
    assert res.converged
    assert res.value == pytest.approx(-1.0 / 12.0, abs=1e-7)


def test_zeta_euler_agrees_with_direct_at_two():
    res = zeta_euler(2.0)
    assert res.converged
    assert abs(res.value - zeta_direct(2.0, 1e-10)) <= 1e-7


def test_zeta_euler_pole_rejected():
    with pytest.raises(DomainError):
        zeta_euler(1.0)


def test_zeta_euler_fails_honestly_deep_in_the_left_half_line():
    # Abel values for s = -5 are swamped by cancellation noise; the limit
    # extractor must refuse rather than return garbage, and say that the
    # roundoff floor, not the series, stopped it.
    with pytest.raises(PrecisionFloor):
        zeta_euler(-5.0)


# The benchmark's precision-limited lattice s = -4.5 + 0.09 j, j < 16, as its
# six-decimal CLI text reads, at tol 1e-8: the float.hex of the four values
# that converge, as they did before the roundoff floor existed.  The other
# twelve used to walk 12-16 points and up to 5.2 M terms into a false
# NoEulerSum.
LATTICE_CONVERGED = {-4.5: "-0x1.9544844b0efdcp-9", -3.33: "0x1.863f0af846666p-8",
                     -3.24: "0x1.b70f6a54240a4p-8", -3.15: "0x1.e3da2d2fa2925p-8"}


@pytest.mark.parametrize("j", range(16))
def test_precision_limited_lattice_converges_as_before_or_stops_at_its_floor(j):
    s = float(f"{-4.5 + 0.09 * j:.6f}")
    cfg = EulerLimitConfig(tolerance=1e-8)
    if s in LATTICE_CONVERGED:
        res = zeta_euler(s, cfg)
        assert res.converged and res.value.hex() == LATTICE_CONVERGED[s]
        return
    with pytest.raises(PrecisionFloor) as excinfo:
        zeta_euler(s, cfg)
    exc = excinfo.value
    terms = [e.terms_used for e in exc.evaluations]
    assert len(terms) <= 9 and sum(terms) <= 2 ** 15
    # its value is the last extrapolant and its bound the floor, which
    # covers the last extrapolant difference and the distance to zeta(s)
    assert f"roundoff floor {exc.error_estimate:.3e} " in str(exc)
    assert 1e-8 < last_delta(exc.evaluations, 0.5) <= exc.error_estimate
    assert abs(exc.value - float(mpmath.zeta(s))) <= exc.error_estimate


def lagrange_weights(us):
    """The weights w_j of the polynomial through (u_j, f_j) at u = 0, its
    value being sum_j w_j f_j."""
    return [math.prod(ui / (ui - uj) for ui in us if ui != uj) for uj in us]


def neville_at_zero(us, fs):
    """The same polynomial's value at u = 0 by Neville's recurrence, an
    oracle that shares no arithmetic with the weights."""
    q = list(fs)
    for i in range(1, len(q)):
        for j in range(len(q) - 1, i - 1, -1):
            q[j] = (us[j - i] * q[j] - us[j] * q[j - 1]) / (us[j - i] - us[j])
    return q[-1]


@settings(max_examples=300, deadline=None)
@given(ratio=st.floats(0.1, 0.9), limit=st.floats(-1.0, 1.0),
       slopes=st.lists(st.floats(-1.0, 1.0), min_size=1, max_size=8))
def test_extrapolants_match_nevilles_recurrence(ratio, limit, slopes):
    # f(t_k) = limit + slope_k u_k with no roundoff bound, so no floor ends
    # the walk, and the last point takes the whole term budget, which ends
    # it there; the value returned is the last extrapolant, through the last
    # min(6, k + 1) points: windows of 1 to 6 points
    points = iter([(limit + c * ratio ** k, 1) for k, c in enumerate(slopes[:-1])]
                  + [(limit + slopes[-1] * ratio ** (len(slopes) - 1), DEFAULT_TERM_BUDGET)])

    def stub(seq, t, tol):
        f, terms = next(points)
        return AbelEvaluation(t=t, value=f, terms_used=terms, tail_bound=0.0, wall_ms=0.0, roundoff_bound=0.0)

    cfg = EulerLimitConfig(ratio=ratio, k_max=len(slopes), tolerance=1e-300)
    with mock.patch.object(resummation, "abel_eval", stub):
        try:
            res = euler_limit(alternating_sequence(0.0), cfg)
        except NoEulerSum:
            reject()
    window = res.evaluations[-6:]
    k = len(res.evaluations) - 1
    us = [ratio ** j for j in range(k + 1 - len(window), k + 1)]
    weights = lagrange_weights(us)
    scale = math.fsum(abs(w * e.value) for w, e in zip(weights, window))
    underflow = math.fsum(map(abs, weights)) * math.ulp(0.0)  # where the f_j are near the least subnormal
    allowed = 8 * (sys.float_info.epsilon * scale + underflow)
    assert abs(res.value - neville_at_zero(us, [e.value for e in window])) <= allowed


def last_delta(evaluations, ratio):
    """|p_k - p_(k-1)| of euler_limit's last two extrapolants."""
    ps = []
    for k in range(len(evaluations) - 2, len(evaluations)):
        w = min(6, k + 1)
        weights = lagrange_weights([ratio ** j for j in range(k + 1 - w, k + 1)])
        ps.append(math.fsum(c * e.value for c, e in zip(weights, evaluations[k + 1 - w:k + 1])))
    return abs(ps[1] - ps[0])


@pytest.mark.parametrize("ratio", [0.1, 0.3, 0.5, 0.7])
def test_floor_weighs_each_roundoff_by_its_lagrange_weight(ratio):
    # the stated floor is sum_j |w_j| roundoff_j over the last window, w_j the
    # Lagrange weights at u = 0 of its nodes u_i = ratio^i, formed here directly
    with pytest.raises(PrecisionFloor) as excinfo:
        zeta_euler(-3.0, EulerLimitConfig(ratio=ratio, tolerance=1e-10))
    evs = excinfo.value.evaluations
    k = len(evs) - 1
    w = min(6, k + 1)
    weights = lagrange_weights([ratio ** i for i in range(k + 1 - w, k + 1)])
    floor = sum(abs(c) * e.roundoff_bound for c, e in zip(weights, evs[-w:]))
    assert f"roundoff floor {floor:.3e} " in str(excinfo.value)


# s within 0.01 of the pole is left to test_zeta_euler_converges_near_the_pole.
LEFT_OF_2_5 = st.floats(-4.5, 2.5).filter(lambda s: abs(s - 1.0) >= 0.01)


def assert_sum_or_floor(s, tol):
    """zeta_euler(s) converges, or raises PrecisionFloor with a last delta
    above tol and within the stated floor; NoEulerSum (or any other
    failure) propagates and fails the caller."""
    try:
        zeta_euler(s, EulerLimitConfig(tolerance=tol))
    except PrecisionFloor as exc:
        floor = float(re.search(r"roundoff floor (\S+) ", str(exc)).group(1))
        d = last_delta(exc.evaluations, 0.5)
        assert tol < d <= floor * (1.0 + 5e-4)  # the message rounds the floor to 4 digits


@settings(max_examples=100, deadline=None)
@given(s=LEFT_OF_2_5, tol=st.floats(1e-12, 1e-6))
def test_alternating_series_has_a_sum_or_reaches_its_floor(s, tol):
    assert_sum_or_floor(s, tol)


@settings(max_examples=100, deadline=None)
@given(s=st.floats(-85.0, -4.5), tol=st.floats(1e-12, 1e-2))
def test_alternating_series_far_left_has_no_false_no_sum(s, tol):
    # |f(t_k)| passes 1/tol here (about 2e56 at s = -60, t = 1/2), yet the
    # limit exists; below s = -85.5 the coefficients overflow (DomainError)
    assert_sum_or_floor(s, tol)


@pytest.mark.parametrize("s, tol", [(1.0 - 1e-7, 1e-6), (1.0 + 1e-7, 1e-6), (1.0 - 1e-5, 1e-4), (1.0 + 1e-5, 1e-4)])
def test_zeta_euler_converges_near_the_pole(s, tol):
    # zeta(s) ~ 1/(s - 1) is far above 1/tol: a large value is no sign of divergence
    res = zeta_euler(s, EulerLimitConfig(tolerance=tol))
    assert res.converged and abs(res.value - float(mpmath.zeta(s))) <= tol


# mpmath's polylog loses about log10(1/|s|) of its digits at 0 < |s| << 1
# (at s = 2.5e-170 it is 0.06 off), and its nsum is 0.25 off at s = 0
@settings(max_examples=100, deadline=None)
@given(s=LEFT_OF_2_5.filter(lambda s: s == 0.0 or abs(s) >= 1e-10), t=st.floats(0.0, 0.99),
       tol=st.floats(1e-14, 1e-6))
def test_abel_value_lies_within_its_tail_and_roundoff_bounds(s, t, tol):
    ev = abel_eval(alternating_sequence(s), t, tol)
    # Every a_n carries the prefactor 1/(1 - 2^u), u = 1 - s, and with it
    # one relative rounding error that the roundoff bound does not count.
    # With x = u ln 2 and c = 2^u / |1 - 2^u|, its condition number is |x| c
    # in x and c in 2^u; rounding u, ln 2 and x each moves x by eps, 2^u (or
    # expm1) is within an ulp, and the subtraction and division add eps each.
    x = (1.0 - s) * math.log(2.0)
    c = math.exp(x) / abs(math.expm1(x))
    prefactor = sys.float_info.epsilon * (3.0 * abs(x) * c + c + 2.0) * abs(ev.value)
    with mpmath.workdps(40):
        sm = mpmath.mpf(s)
        exact = -mpmath.polylog(sm, -mpmath.mpf(t)) / (1 - mpmath.mpf(2) ** (1 - sm))
        err = abs(mpmath.mpf(ev.value) - exact)
    # each product and each addition may also underflow, by half the least subnormal
    underflow = ev.terms_used * math.ulp(0.0)
    assert err <= ev.tail_bound + ev.roundoff_bound + prefactor + underflow


@pytest.mark.parametrize("s", [1.5, 2.0, 3.0])
def test_prefactor_identity(s):
    # (1 - 2^(1-s)) zeta(s) equals the directly summed alternating series.
    n_terms = 2_000_000
    ns = np.arange(1, n_terms + 1, dtype=np.float64)
    signs = np.where(ns % 2 == 1, 1.0, -1.0)
    eta = math.fsum(signs * ns ** (-s))
    remainder = (n_terms + 1.0) ** (-s)
    lhs = (1.0 - 2.0 ** (1.0 - s)) * zeta_direct(s, 1e-12)
    assert abs(lhs - eta) <= remainder + 1e-10


def test_alternating_sequence_terms():
    seq = alternating_sequence(0.0)
    # prefactor 1/(1-2) = -1 makes the series -1, +1, -1, ...
    assert seq.growth_hint == 0.0
    block = seq.term_block(np.array([1.0, 2.0, 3.0]))
    assert block.tolist() == [-1.0, 1.0, -1.0]


@pytest.mark.parametrize("s", [0.0, -1.0, -2.0, -3.0, -2.5, 0.5, 2.0, 3.7])
def test_alternating_term_block_matches_term(s):
    seq = alternating_sequence(s)
    pref = 1.0 / (1.0 - 2.0 ** (1.0 - s))
    ns = np.arange(1.0, 400.0)
    big = np.array([2.0 ** 40 + 1, 2.0 ** 40 + 2, 2.0 ** 52 - 1, 2.0 ** 52])
    for idx in (ns[::3], ns[1::2], ns[::2], ns[::-7], big):
        assert not idx.flags.c_contiguous or idx is big
        block = seq.term_block(idx)
        # the scalar oracle: sign by integer parity, libm's pow per term
        scalar = np.array([pref * (-1.0) ** (int(n) + 1) * float(n) ** (-s) for n in idx])
        # the integer-parity sign is bit-identical to the float-modulus one
        mod_sign = np.where(np.mod(idx, 2.0) == 1.0, 1.0, -1.0)
        assert block.tobytes() == (pref * mod_sign * idx ** (-s)).tobytes()
        # the sign is exact at every parity and magnitude
        assert np.array_equal(np.signbit(block), np.signbit(scalar))
        if s <= 0.0 and s == round(s):
            # non-negative integer powers are exact, so the values are too
            assert block.tobytes() == scalar.tobytes()
        else:
            # numpy's vectorised pow may differ from libm's by one ulp,
            # which the prefactor can round to two
            assert np.all(np.abs(block - scalar) <= 2.0 * np.spacing(np.abs(scalar)))


@pytest.mark.parametrize("s", [1.0 - 1e-7, 1.0 + 1e-7, 1.0 - 1e-4, 1.0 + 1e-4])
def test_prefactor_keeps_its_digits_near_the_pole(s):
    # 1 - 2^(1-s) cancels near s = 1; a_1 is the prefactor itself
    pref = float(alternating_sequence(s).term_block(np.array([1.0]))[0])
    with mpmath.workdps(40):
        exact = 1 / (1 - mpmath.mpf(2) ** (1 - mpmath.mpf(s)))
        assert abs((pref - exact) / exact) <= 1e-15


def test_plain_sequence_is_all_ones_at_s_zero():
    seq = plain_sequence(0.0)
    assert seq.term_block(np.array([1.0, 2.0, 5.0])).tolist() == [1.0, 1.0, 1.0]
