"""Oscillator eigenfunctions and Mehler kernel against explicit oracles."""

import math

import mpmath
import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from eulersum.errors import DomainError, InvalidConfig, NOverflow, TNotInUnitInterval, TruncationInsufficient
from eulersum.oscillator import (
    MehlerPoint,
    _gaussian_overlaps,
    _hermite_function_table,
    mehler_kernel,
    mehler_series,
    osc_action,
    osc_action_coefficients,
    osc_h_kernel,
    phi_osc,
    symmetrized_exponent,
)
from eulersum.quadrature import integrate

# Explicit physicists' Hermite polynomials, the independent oracle for the
# normalised recurrence (Rodrigues-form coefficients for n <= 6).
EXPLICIT_H = {
    0: lambda x: 1.0,
    1: lambda x: 2.0 * x,
    2: lambda x: 4.0 * x ** 2 - 2.0,
    3: lambda x: 8.0 * x ** 3 - 12.0 * x,
    4: lambda x: 16.0 * x ** 4 - 48.0 * x ** 2 + 12.0,
    5: lambda x: 32.0 * x ** 5 - 160.0 * x ** 3 + 120.0 * x,
    6: lambda x: 64.0 * x ** 6 - 480.0 * x ** 4 + 720.0 * x ** 2 - 120.0,
}

xf = st.floats(min_value=-3.0, max_value=3.0)
tf = st.floats(min_value=0.0, max_value=0.95)


def phi_explicit(n, x):
    norm = math.sqrt(2.0 ** n * math.factorial(n) * math.sqrt(math.pi))
    return EXPLICIT_H[n](x) * math.exp(-0.5 * x * x) / norm


# --- eigenfunctions ---------------------------------------------------------


def test_phi_osc_ground_state():
    assert phi_osc(0, 0.0) == pytest.approx(math.pi ** -0.25, rel=1e-14)


def test_phi_osc_odd_state_at_origin():
    assert phi_osc(1, 0.0) == 0.0


def test_phi_osc_against_explicit_oracle():
    assert phi_osc(4, 1.3) == pytest.approx(phi_explicit(4, 1.3), rel=1e-12)


@given(x=xf, n=st.integers(min_value=0, max_value=6))
@settings(max_examples=60)
def test_phi_osc_matches_explicit(x, n):
    assert phi_osc(n, x) == pytest.approx(phi_explicit(n, x), rel=1e-9, abs=1e-12)
    xs = np.array([x, -x, 0.5 * x, 3.0])
    table = _hermite_function_table(n, xs)
    assert table.shape == (n + 1, xs.size)
    for m in range(n + 1):
        assert table[m] == pytest.approx([phi_explicit(m, v) for v in xs], rel=1e-9, abs=1e-12)


@pytest.mark.parametrize("bad", [math.inf, math.nan, -math.inf])
def test_hermite_function_table_rejects_non_finite_x(bad):
    with np.errstate(invalid="ignore"):
        with pytest.raises(NOverflow):
            _hermite_function_table(4, np.array([0.5, bad]))
        with pytest.raises(NOverflow):
            phi_osc(3, bad)


def test_phi_osc_large_n_does_not_overflow():
    value = phi_osc(300, 1.0)
    assert math.isfinite(value)
    assert abs(value) < 1.0


@pytest.mark.parametrize("n", [0, 1, 4, 8])
def test_phi_osc_normalisation(n):
    half_width = math.sqrt(2.0 * n + 1.0) + 8.0
    res = integrate(
        lambda y, n=n: np.vectorize(lambda v: phi_osc(n, v))(y) ** 2,
        -half_width,
        half_width,
    )
    assert res.value == pytest.approx(1.0, abs=1e-9)


@pytest.mark.parametrize("n", range(7))
def test_phi_osc_zero_count(n):
    ys = np.linspace(-6.0, 6.0, 4001)
    vals = np.array([phi_osc(n, y) for y in ys])
    signs = np.sign(vals[vals != 0.0])  # grid hits the odd states' zero at 0 exactly
    crossings = int(np.sum(signs[:-1] * signs[1:] < 0))
    assert crossings == n


# --- Mehler kernel ----------------------------------------------------------


def test_mehler_kernel_at_t_zero():
    x, y = 0.7, -1.2
    expected = math.pi ** -0.5 * math.exp(-0.5 * (x * x + y * y))
    assert mehler_kernel(MehlerPoint(x, y, 0.0)) == pytest.approx(expected, rel=1e-14)


def test_mehler_kernel_origin():
    assert mehler_kernel(MehlerPoint(0.0, 0.0, 0.5)) == pytest.approx(
        (math.pi * 0.75) ** -0.5, rel=1e-14
    )


def test_mehler_kernel_against_series():
    p = MehlerPoint(0.3, -0.7, 0.8)
    assert abs(mehler_kernel(p) - mehler_series(p, 200)) <= 1e-9


def test_mehler_series_trivial():
    p = MehlerPoint(0.4, 1.1, 0.0)
    assert mehler_series(p, 0) == pytest.approx(phi_osc(0, 0.4) * phi_osc(0, 1.1), rel=1e-14)


def test_mehler_series_cross_checks():
    assert abs(
        mehler_series(MehlerPoint(1.0, 1.0, 0.9), 300) - mehler_kernel(MehlerPoint(1.0, 1.0, 0.9))
    ) <= 1e-8
    assert abs(
        mehler_series(MehlerPoint(2.0, -2.0, 0.5), 100) - mehler_kernel(MehlerPoint(2.0, -2.0, 0.5))
    ) <= 1e-10


@given(x=xf, y=xf, t=tf)
@settings(max_examples=60)
def test_mehler_positive_and_symmetric(x, y, t):
    k_xy = mehler_kernel(MehlerPoint(x, y, t))
    k_yx = mehler_kernel(MehlerPoint(y, x, t))
    assert k_xy > 0.0
    assert k_xy == pytest.approx(k_yx, rel=1e-10, abs=1e-13)


def test_mehler_point_validation():
    with pytest.raises(TNotInUnitInterval):
        MehlerPoint(0.0, 0.0, 1.0)
    with pytest.raises(DomainError):
        MehlerPoint(math.inf, 0.0, 0.5)
    for t in (-0.5, 1.0):  # the regulator range is [0, 1) for every oscillator function
        with pytest.raises(TNotInUnitInterval):
            osc_action(0.0, t, lambda y: np.exp(-np.asarray(y) ** 2))
        with pytest.raises(TNotInUnitInterval):
            symmetrized_exponent(0.3, -0.2, t)


# --- symmetrised exponent ---------------------------------------------------


def test_symmetrized_exponent_special_lines():
    t = 0.6
    assert symmetrized_exponent(0.8, 0.8, t) == pytest.approx(
        -(1.0 - t) / (1.0 + t) * 0.8 ** 2, rel=1e-12
    )
    assert symmetrized_exponent(0.8, -0.8, t) == pytest.approx(
        -(1.0 + t) / (1.0 - t) * 0.8 ** 2, rel=1e-12
    )


@given(x=xf, y=xf, t=st.floats(min_value=0.01, max_value=0.95))
@settings(max_examples=80)
def test_exponent_identity(x, y, t):
    raw = 0.5 * (x * x - y * y) - (x - y * t) ** 2 / (1.0 - t * t)
    assert abs(symmetrized_exponent(x, y, t) - raw) <= 1e-12


def test_symmetrized_exponent_specific_point():
    raw = 0.5 * (0.4 ** 2 - 1.1 ** 2) - (0.4 + 1.1 * 0.6) ** 2 / (1.0 - 0.36)
    assert abs(symmetrized_exponent(0.4, -1.1, 0.6) - raw) <= 1e-12


# --- Hamiltonian kernel -----------------------------------------------------


def test_h_kernel_route_agreement():
    p = MehlerPoint(0.3, 0.9, 0.7)
    assert abs(osc_h_kernel(p, "t_derivative") - osc_h_kernel(p, "y_operator")) <= 1e-10


def test_h_kernel_against_weighted_series():
    p = MehlerPoint(0.3, 0.9, 0.7)
    oracle = math.fsum((n + 0.5) * 0.7 ** n * phi_osc(n, 0.3) * phi_osc(n, 0.9) for n in range(301))
    assert abs(osc_h_kernel(p, "t_derivative") - oracle) <= 1e-8


def test_h_kernel_ground_state_limit():
    assert osc_h_kernel(MehlerPoint(0.0, 0.0, 0.0)) == pytest.approx(
        0.5 / math.sqrt(math.pi), rel=1e-13
    )


def test_h_kernel_unknown_route():
    with pytest.raises(InvalidConfig):
        osc_h_kernel(MehlerPoint(0.0, 0.0, 0.5), route="bogus")


@pytest.mark.parametrize("call, error, message", [
    (lambda: phi_osc(-1, 0.0), DomainError, "n must be >= 0"),
    (lambda: mehler_series(MehlerPoint(0.0, 0.0, 0.5), -1), DomainError, "n_max must be >= 0"),
    (lambda: osc_action(0.5, 0.5, np.exp, operator="bogus"), InvalidConfig, "unknown operator 'bogus'"),
    (lambda: osc_action(math.inf, 0.5, np.exp), DomainError, "x must be finite"),
], ids=["phi_osc-n", "mehler_series-n_max", "osc_action-operator", "osc_action-x"])
def test_oscillator_refusals(call, error, message):
    with pytest.raises(error, match=f"^{message}$"):
        call()


def test_t_route_matches_finite_difference_in_t():
    x, y, t, step = 0.4, -0.6, 0.5, 1e-4
    fd = (
        mehler_kernel(MehlerPoint(x, y, t + step)) - mehler_kernel(MehlerPoint(x, y, t - step))
    ) / (2.0 * step)
    expected = t * fd + 0.5 * mehler_kernel(MehlerPoint(x, y, t))
    assert abs(osc_h_kernel(MehlerPoint(x, y, t), "t_derivative") - expected) <= 1e-6


def test_y_route_matches_finite_difference_in_y():
    x, y, t, step = 0.4, -0.6, 0.5, 1e-4
    d2 = (
        mehler_kernel(MehlerPoint(x, y + step, t))
        - 2.0 * mehler_kernel(MehlerPoint(x, y, t))
        + mehler_kernel(MehlerPoint(x, y - step, t))
    ) / step ** 2
    expected = -0.5 * d2 + 0.5 * y * y * mehler_kernel(MehlerPoint(x, y, t))
    assert abs(osc_h_kernel(MehlerPoint(x, y, t), "y_operator") - expected) <= 1e-6


# --- actions ----------------------------------------------------------------


def test_action_ground_state_projection():
    g = lambda y: np.pi ** -0.25 * np.exp(-0.5 * np.asarray(y) ** 2)
    for t in (0.1, 0.6, 0.9):
        val = osc_action(0.8, t, g, operator="hamiltonian")
        assert val == pytest.approx(0.5 * phi_osc(0, 0.8), abs=1e-9)


@pytest.mark.parametrize("m", [1, 4, 9])
def test_action_identity_projection(m):
    from eulersum.oscillator import _hermite_function_table

    g = lambda y: _hermite_function_table(m, y)[m]
    val = osc_action(-0.5, 0.7, g, operator="identity")
    assert val == pytest.approx(0.7 ** m * phi_osc(m, -0.5), abs=1e-9)


def test_action_against_overlap_oracle():
    # For g = exp(-y^2) the identity action has the closed form
    # sqrt(2/(3-t^2)) exp[2 t^2 x^2/((1-t^2)(3-t^2)) - x^2(1+t^2)/(2(1-t^2))]
    # obtained by completing the square in the defining integral.
    g = lambda y: np.exp(-np.asarray(y) ** 2)
    x = 0.5
    for t in (0.3, 0.9, 1.0 - 2.0 ** -8):
        oracle = math.sqrt(2.0 / (3.0 - t * t)) * math.exp(
            2.0 * t * t * x * x / ((1.0 - t * t) * (3.0 - t * t))
            - x * x * (1.0 + t * t) / (2.0 * (1.0 - t * t))
        )
        assert osc_action(x, t, g, operator="identity") == pytest.approx(oracle, abs=1e-9)


def test_action_gaussian_identity_approach():
    g = lambda y: np.exp(-np.asarray(y) ** 2)
    errs = []
    for k in range(4, 11):
        t = 1.0 - 2.0 ** -k
        errs.append(abs(osc_action(0.5, t, g, operator="identity") - math.exp(-0.25)))
    assert all(errs[i + 1] < errs[i] for i in range(len(errs) - 1))


def test_action_rejects_unbounded_test_function():
    with pytest.raises(TruncationInsufficient):
        osc_action(0.0, 0.5, lambda y: np.exp(np.asarray(y) ** 2), operator="identity")


# --- structural invariants --------------------------------------------------


def test_semigroup_property():
    t1, t2, x, y = 0.5, 0.6, 0.4, -0.8
    res = integrate(
        lambda z: np.vectorize(lambda v: mehler_kernel(MehlerPoint(x, v, t1)))(z)
        * np.vectorize(lambda v: mehler_kernel(MehlerPoint(v, y, t2)))(z),
        -14.0,
        14.0,
    )
    assert res.value == pytest.approx(mehler_kernel(MehlerPoint(x, y, t1 * t2)), abs=1e-9)


def test_normalisation_limit():
    x = 0.5
    devs = []
    for k in range(2, 10):
        t = 1.0 - 2.0 ** -k
        val = osc_action(x, t, lambda y: np.ones_like(np.asarray(y)), operator="identity")
        devs.append(abs(val - 1.0))
    assert all(devs[i + 1] < devs[i] for i in range(len(devs) - 1))
    assert devs[-1] < 1e-2


# --- the eigen-series of the action on exp(-y^2) ------------------------------


def test_gaussian_overlaps_match_mpmath_quadrature():
    g = _gaussian_overlaps(20)
    with mpmath.workdps(30):
        for n in range(21):
            norm = mpmath.sqrt(2 ** n * mpmath.factorial(n) * mpmath.sqrt(mpmath.pi))
            exact = mpmath.quad(lambda y: mpmath.hermite(n, y) * mpmath.exp(-1.5 * y * y) / norm,
                                [-mpmath.inf, 0, mpmath.inf])
            assert g[n] == pytest.approx(float(exact), rel=1e-14, abs=1e-300)
            assert abs(g[n]) <= g[0] * 3.0 ** (-n / 2)


@pytest.mark.parametrize("p", [0, 1])
@pytest.mark.parametrize("x", [-3.0, 0.0, 0.5, 2.2])
def test_osc_action_coefficients_tail_is_within_tol(p, x):
    # the truncated sum is within tol of a much longer one at t = 1, where
    # the tail is largest
    for tol in (1e-6, 1e-10, 1e-14):
        short, long = osc_action_coefficients(x, p, tol), osc_action_coefficients(x, p, 1e-300)
        assert short.size < long.size
        assert abs(math.fsum(long) - math.fsum(short)) <= tol
    # and the full sum is the action at t -> 1: g(x), or -g''/2 + x^2 g/2
    limit = (1.0 - 1.5 * x * x if p else 1.0) * math.exp(-x * x)
    assert math.fsum(long) == pytest.approx(limit, abs=1e-14)
