"""Square-well kernels against series, quadrature and finite-difference oracles."""

import math

import mpmath
import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from eulersum.errors import BoundaryAmbiguous, DomainError, InvalidConfig, TestFunctionBoundary, TNotInUnitInterval
from eulersum.quadrature import integrate
from eulersum.resummation import abel_eval
from eulersum.square_well import (
    IntervalIntegralQuery,
    WellKernelPoint,
    arg_f,
    d_kernel,
    h_kernel,
    h_series,
    k_interval_integral,
    k_kernel,
    k_series,
    phi_well,
    well_action,
    well_action_evaluations,
    well_action_sequence,
)

PI = math.pi
EPS = np.finfo(float).eps

xy_floats = st.floats(min_value=0.0, max_value=PI)
t_floats = st.floats(min_value=0.0, max_value=0.95)


# --- eigenfunctions -------------------------------------------------------


def test_phi_well_values():
    assert phi_well(1, PI / 2) == pytest.approx(math.sqrt(2.0 / PI), abs=1e-14)
    assert phi_well(2, PI / 2) == pytest.approx(0.0, abs=1e-14)
    assert phi_well(3, 0.4) == pytest.approx(math.sqrt(2.0 / PI) * math.sin(1.2), abs=1e-14)


def test_phi_well_domain():
    with pytest.raises(DomainError):
        phi_well(1, -0.1)
    with pytest.raises(DomainError):
        phi_well(1, PI + 0.1)
    with pytest.raises(DomainError):
        phi_well(0, 1.0)


@pytest.mark.parametrize("n", [1, 2, 5, 10])
def test_eigenstate_energy_and_boundary(n):
    assert abs(phi_well(n, 0.0)) <= 1e-13
    assert abs(phi_well(n, PI)) <= 1e-13


@pytest.mark.parametrize("n", [1, 3, 7])
def test_eigenfunction_normalisation(n):
    res = integrate(lambda y: math.sqrt(2.0 / PI) ** 2 * np.sin(n * y) ** 2, 0.0, PI)
    assert res.value == pytest.approx(1.0, abs=1e-9)


# --- D kernel -------------------------------------------------------------


def test_d_kernel_at_origin():
    assert d_kernel(0.0, 0.9) == pytest.approx(1.0 / (PI * 0.1), rel=1e-12)


@pytest.mark.parametrize("t", [0.1, 0.5, 0.9])
def test_d_kernel_quarter_period(t):
    assert d_kernel(PI / 2, t) == pytest.approx(1.0 / (PI * (1.0 + t * t)), rel=1e-12)


def test_d_kernel_near_limit():
    assert abs(d_kernel(1.0, 0.999) - 1.0 / (2.0 * PI)) < 1e-2


def test_d_kernel_rejects_t_outside():
    with pytest.raises(TNotInUnitInterval):
        d_kernel(1.0, 1.0)
    with pytest.raises(TNotInUnitInterval):
        d_kernel(1.0, -0.2)


@given(z=st.floats(min_value=-10.0, max_value=10.0), t=t_floats)
@settings(max_examples=60)
def test_d_kernel_periodicity(z, t):
    assert d_kernel(z + 2.0 * PI, t) == pytest.approx(d_kernel(z, t), rel=1e-9, abs=1e-12)


# --- K kernel -------------------------------------------------------------


def test_k_kernel_centre_point():
    # D(0, 0.5) - D(pi, 0.5) evaluated from the closed form of D
    expected = 1.0 / (0.5 * PI) - 1.5 / (PI * 2.25)
    assert k_kernel(WellKernelPoint(PI / 2, PI / 2, 0.5)) == pytest.approx(expected, rel=1e-12)


@pytest.mark.parametrize("y,t", [(0.3, 0.2), (2.0, 0.8)])
def test_k_kernel_vanishes_at_wall(y, t):
    assert k_kernel(WellKernelPoint(0.0, y, t)) == pytest.approx(0.0, abs=1e-14)


def test_k_kernel_against_series_oracle():
    p = WellKernelPoint(0.3, 0.8, 0.7)
    n_max = int(math.ceil(math.log(1e-12) / math.log(0.7)))
    assert abs(k_kernel(p) - k_series(p, n_max)) <= 1e-9


def test_k_series_trivial_cases():
    assert k_series(WellKernelPoint(0.3, 0.8, 0.0), 10) == 0.0
    single = (2.0 / PI) * 0.7 * math.sin(0.3) * math.sin(0.8)
    assert k_series(WellKernelPoint(0.3, 0.8, 0.7), 1) == pytest.approx(single, rel=1e-14)


def test_k_series_closed_form_within_tail_bound():
    p = WellKernelPoint(1.0, 1.0, 0.5)
    tail = (2.0 / PI) * 0.5 ** 101 / 0.5
    roundoff = 64 * EPS * (2.0 / PI) / 0.5
    assert abs(k_series(p, 100) - k_kernel(p)) <= tail + roundoff


@given(x=xy_floats, y=xy_floats, t=t_floats)
@settings(max_examples=60)
def test_kernel_symmetry(x, y, t):
    assert abs(k_kernel(WellKernelPoint(x, y, t)) - k_kernel(WellKernelPoint(y, x, t))) <= 1e-12
    assert abs(h_kernel(WellKernelPoint(x, y, t)) - h_kernel(WellKernelPoint(y, x, t))) <= 1e-10


@pytest.mark.parametrize("t", [0.3, 0.9])
def test_kernel_symmetry_on_grid(t):
    pts = np.linspace(0.0, PI, 20)
    for x in pts:
        for y in pts:
            p, q = WellKernelPoint(float(x), float(y), t), WellKernelPoint(float(y), float(x), t)
            assert abs(k_kernel(p) - k_kernel(q)) <= 1e-12
            assert abs(h_kernel(p) - h_kernel(q)) <= 1e-12


def test_point_validation():
    with pytest.raises(DomainError):
        WellKernelPoint(-0.1, 1.0, 0.5)
    with pytest.raises(TNotInUnitInterval):
        WellKernelPoint(1.0, 1.0, 1.0)


# --- H kernel -------------------------------------------------------------


def test_h_kernel_against_series_oracle():
    p = WellKernelPoint(0.3, 0.8, 0.6)
    # truncate once n^2 t^n tail drops below 1e-10
    n_max = 200
    assert (n_max + 1) ** 2 * 0.6 ** (n_max + 1) / (1 - 0.6) < 1e-10
    assert abs(h_kernel(p) - h_series(p, n_max)) <= 1e-8


def test_h_kernel_vanishes_at_wall():
    assert h_kernel(WellKernelPoint(0.0, 1.1, 0.6)) == pytest.approx(0.0, abs=1e-12)


def test_h_kernel_matches_finite_difference_of_k():
    x, y, t, step = 0.3, 0.8, 0.6, 1e-4
    fd = (
        k_kernel(WellKernelPoint(x, y + step, t))
        - 2.0 * k_kernel(WellKernelPoint(x, y, t))
        + k_kernel(WellKernelPoint(x, y - step, t))
    ) / step ** 2
    assert abs(h_kernel(WellKernelPoint(x, y, t)) - (-0.5) * fd) <= 1e-5


@pytest.mark.parametrize("x,y,t", [(0.5, 0.5, 0.3), (1.2, 2.2, 0.7), (2.9, 0.4, 0.5)])
def test_derivative_interchange_on_grid(x, y, t):
    step = 1e-4
    fd = (
        k_kernel(WellKernelPoint(x, y + step, t))
        - 2.0 * k_kernel(WellKernelPoint(x, y, t))
        + k_kernel(WellKernelPoint(x, y - step, t))
    ) / step ** 2
    assert abs(h_kernel(WellKernelPoint(x, y, t)) - (-0.5) * fd) <= 1e-4


def test_h_series_trivial_cases():
    assert h_series(WellKernelPoint(0.4, 1.0, 0.0), 5) == 0.0
    assert h_series(WellKernelPoint(PI / 2, PI / 2, 0.5), 1) == pytest.approx(0.5 / PI, rel=1e-14)


def test_h_series_closed_form_cross_check():
    p = WellKernelPoint(1.1, 0.2, 0.8)
    n_max = 200
    tail = (1.0 / PI) * 201 ** 2 * 0.8 ** 201 / (1.0 - 0.8 * (202.0 / 201.0) ** 2)
    roundoff = 64 * EPS * (1.0 / PI) * 0.8 * 1.8 / 0.2 ** 3
    assert abs(h_series(p, n_max) - h_kernel(p)) <= tail + roundoff


# --- eigenprojection ------------------------------------------------------


@pytest.mark.parametrize("m", [1, 2, 5])
def test_eigenprojection_identity(m):
    t, x = 0.5, 1.0
    res = integrate(
        lambda y: np.vectorize(lambda v: k_kernel(WellKernelPoint(x, v, t)))(y)
        * math.sqrt(2.0 / PI)
        * np.sin(m * y),
        0.0,
        PI,
        peak=x,
        peak_min_width=(1 - t) / 4,
    )
    assert res.value == pytest.approx(t ** m * phi_well(m, x), abs=1e-9)


# --- arg f ----------------------------------------------------------------


def test_arg_f_at_zero():
    for t in (0.0, 0.5, 0.9999):
        assert arg_f(0.0, t) == 0.0


def test_arg_f_near_limit():
    assert abs(arg_f(2.0, 0.9999) - (2.0 - PI) / 2.0) < 1e-3
    assert abs(arg_f(-2.0, 0.9999) - (-2.0 + PI) / 2.0) < 1e-3


@given(u=st.floats(min_value=-3.1, max_value=3.1), t=t_floats)
@settings(max_examples=60)
def test_arg_f_is_odd(u, t):
    assert arg_f(-u, t) == pytest.approx(-arg_f(u, t), abs=1e-14)


def test_arg_f_domain():
    with pytest.raises(DomainError):
        arg_f(PI, 0.5)
    with pytest.raises(DomainError):
        arg_f(-4.0, 0.5)


# --- interval integral ----------------------------------------------------


def test_interval_integral_matches_quadrature():
    q = IntervalIntegralQuery(x=1.0, a=0.5, b=1.5, t=0.9)
    res = integrate(
        lambda y: np.vectorize(lambda v: k_kernel(WellKernelPoint(1.0, v, 0.9)))(y),
        0.5,
        1.5,
        peak=1.0,
        peak_min_width=0.025,
    )
    assert abs(k_interval_integral(q) - res.value) <= 1e-8


@pytest.mark.parametrize("x,limit", [(1.0, 1.0), (2.0, 0.0)])
def test_interval_integral_three_case_limit(x, limit):
    errs = []
    for k in range(1, 21):
        t = 1.0 - 2.0 ** -k
        val = k_interval_integral(IntervalIntegralQuery(x=x, a=0.5, b=1.5, t=t))
        errs.append(abs(val - limit))
    assert errs[-1] <= 1e-3
    tail = errs[-8:]
    assert all(tail[i + 1] < tail[i] for i in range(len(tail) - 1))


def test_interval_integral_outside_below():
    # x < a: the integral must also vanish in the limit
    vals = [
        k_interval_integral(IntervalIntegralQuery(x=0.3, a=0.5, b=1.5, t=1.0 - 2.0 ** -k))
        for k in (10, 14, 18)
    ]
    assert abs(vals[-1]) < 1e-3


def test_interval_integral_boundary_ambiguous():
    with pytest.raises(BoundaryAmbiguous):
        k_interval_integral(IntervalIntegralQuery(x=0.5, a=0.5, b=1.5, t=0.9))
    with pytest.raises(BoundaryAmbiguous):
        k_interval_integral(IntervalIntegralQuery(x=1.5, a=0.5, b=1.5, t=0.9))


def test_interval_query_validation():
    with pytest.raises(DomainError):
        IntervalIntegralQuery(x=1.0, a=1.5, b=0.5, t=0.5)
    with pytest.raises(DomainError):
        IntervalIntegralQuery(x=0.0, a=0.2, b=0.7, t=0.5)


# --- distributional action ------------------------------------------------


def test_action_orthogonality_hamiltonian():
    # g = sin(2y) is sqrt(pi/2) phi_2, so the action is E_2 t^2 sin(2x)
    g = lambda y: np.sin(2.0 * np.asarray(y))
    for t in (0.2, 0.7):
        for x in (0.6, 2.1):
            val = well_action(x, t, g, operator="hamiltonian")
            assert val == pytest.approx(2.0 * t ** 2 * math.sin(2.0 * x), abs=1e-8)


@pytest.mark.parametrize("m", [1, 3, 6])
def test_action_orthogonality_identity(m):
    g = lambda y: np.sin(m * np.asarray(y))
    val = well_action(1.3, 0.8, g, operator="identity")
    assert val == pytest.approx(0.8 ** m * math.sin(m * 1.3), abs=1e-8)


def test_action_against_fourier_sine_oracle():
    # y(pi - y) = sum_{odd n} 8/(pi n^3) sin(ny); the identity action is
    # the same series with t^n inserted.
    g = lambda y: np.asarray(y) * (PI - np.asarray(y))
    x = 1.0
    for k in (4, 7, 10):
        t = 1.0 - 2.0 ** -k
        ns = np.arange(1, 200_001, 2, dtype=np.float64)
        oracle = math.fsum(8.0 / (PI * ns ** 3) * t ** ns * np.sin(ns * x))
        assert well_action(x, t, g, operator="identity") == pytest.approx(oracle, abs=1e-7)


def test_action_identity_approaches_g():
    g = lambda y: np.asarray(y) * (PI - np.asarray(y))
    errs = []
    for k in range(4, 11):
        t = 1.0 - 2.0 ** -k
        errs.append(abs(well_action(1.0, t, g, operator="identity") - g(1.0)))
    assert all(errs[i + 1] < errs[i] for i in range(len(errs) - 1))


def test_action_rejects_bad_boundary():
    with pytest.raises(TestFunctionBoundary):
        well_action(1.0, 0.5, lambda y: np.cos(np.asarray(y)))


def test_action_rejects_x_outside():
    with pytest.raises(DomainError):
        well_action(0.0, 0.5, lambda y: np.sin(np.asarray(y)))


@pytest.mark.parametrize("p", [0, 1])
def test_well_action_sequence_coefficients(p):
    # a_n = E_n^p <phi_n, y(pi - y)> phi_n(x), with the overlap written out
    x = 1.1
    seq = well_action_sequence(x, p)
    n = np.arange(1.0, 40.0)
    overlap = [math.sqrt(2.0 / PI) * (4.0 / k ** 3 if k % 2 else 0.0) for k in range(1, 40)]
    expected = (n * n / 2.0) ** p * np.array(overlap) * np.sqrt(2.0 / PI) * np.sin(n * x)
    np.testing.assert_allclose(seq.term_block(n), expected, rtol=1e-14, atol=0.0)
    assert seq.growth_hint == 2 * p - 3
    for bad in (0.0, PI, -1.0, 5.0):
        with pytest.raises(DomainError):
            well_action_sequence(bad, p)


def _well_action_closed_form(x, p, t):
    """(8/pi) 2^-p Im[Li_{3-2p}(z) - 2^{2p-3} Li_{3-2p}(z^2)], z = t e^{ix}:
    the sum over odd n of a_n t^n."""
    with mpmath.workdps(30):
        z = mpmath.mpf(t) * mpmath.expj(mpmath.mpf(x))
        s = 3 - 2 * p
        return float(8 / mpmath.pi * mpmath.mpf(2) ** -p
                     * mpmath.im(mpmath.polylog(s, z) - mpmath.mpf(2) ** (2 * p - 3) * mpmath.polylog(s, z * z)))


@given(x=st.floats(min_value=0.0, max_value=PI, exclude_min=True, exclude_max=True),
       p=st.sampled_from([0, 1, 2, 3]), k_max=st.integers(1, 14))
@settings(max_examples=30, deadline=None)
def test_well_action_pass_is_within_its_certified_tail(x, p, k_max):
    ts = [1.0 - 0.5 ** k for k in range(1, k_max + 1)]
    evaluations = well_action_evaluations(x, p, ts, 1e-10)
    assert [e.t for e in evaluations] == ts
    seq = well_action_sequence(x, p)
    for e in evaluations:
        assert e.tail_bound <= 1e-10
        # Roundoff, 4 eps C sum n^(2p-3) (1 + n x) t^n with C = (8/pi) 2^-p: the
        # sum's own, and sin(nx) taken at nx rounded to double.  Deep in p = 3
        # it exceeds the values, as it does for abel_eval.
        roundoff = 4.0 * EPS * 8.0 / PI * 0.5 ** p * float(
            mpmath.polylog(3 - 2 * p, e.t) + x * mpmath.polylog(2 - 2 * p, e.t))
        assert abs(e.value - _well_action_closed_form(x, p, e.t)) <= e.tail_bound + roundoff
        ev = abel_eval(seq, e.t, 1e-10)
        assert abs(e.value - ev.value) <= e.tail_bound + ev.tail_bound + 2.0 * roundoff


def test_well_action_pass_refuses_bad_input():
    for tol in (0.0, -1.0, math.nan, math.inf):
        with pytest.raises(InvalidConfig):
            well_action_evaluations(1.0, 0, [0.5], tol)
    for t in (1.0, -0.5, math.nan):
        with pytest.raises(TNotInUnitInterval):
            well_action_evaluations(1.0, 0, [0.5, t], 1e-10)
    with pytest.raises(DomainError):
        well_action_evaluations(0.0, 0, [0.5], 1e-10)
    # t = 0 sums no term: f(0) = 0, the series starting at n = 1
    assert well_action_evaluations(1.0, 1, [0.0], 1e-10)[0].value == 0.0
