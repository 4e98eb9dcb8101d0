"""Composite Gauss-Legendre driver against closed-form integrals."""

import math

import numpy as np
import pytest

from eulersum.errors import InvalidConfig, QuadratureNotConverged
from eulersum.quadrature import QuadratureSpec, integrate


def test_sine_integral():
    res = integrate(np.sin, 0.0, math.pi)
    assert res.value == pytest.approx(2.0, abs=1e-12)


def test_polynomial_is_exact():
    res = integrate(lambda y: 3.0 * y ** 2, 0.0, 2.0)
    assert res.value == pytest.approx(8.0, abs=1e-12)


def test_narrow_lorentzian_with_peak_hint():
    eps = 1e-4
    f = lambda y: eps / (math.pi * (y ** 2 + eps ** 2))
    exact = 2.0 * math.atan(1.0 / eps) / math.pi
    res = integrate(f, -1.0, 1.0, peak=0.0, peak_min_width=eps / 4.0)
    assert res.value == pytest.approx(exact, abs=1e-9)


def test_peak_hint_off_centre():
    eps = 1e-3
    c = 0.77
    f = lambda y: np.exp(-((y - c) / eps) ** 2)
    exact = eps * math.sqrt(math.pi)
    res = integrate(f, 0.0, 2.0, peak=c, peak_min_width=eps / 4.0)
    assert res.value == pytest.approx(exact, rel=1e-9)


def test_kink_fails_to_converge_with_tight_budget():
    spec = QuadratureSpec(nodes_per_panel=4, max_refinements=2, tolerance=1e-15)
    with pytest.raises(QuadratureNotConverged):
        integrate(lambda y: np.abs(y - 0.3), -1.0, 1.0, spec)


def test_refinement_metadata():
    res = integrate(np.cos, 0.0, 1.0)
    assert res.refinements >= 1
    assert res.panels >= 8
    assert res.delta <= QuadratureSpec().tolerance
    assert res.max_abs_integrand == pytest.approx(1.0, abs=1e-6)


@pytest.mark.parametrize(
    "kwargs",
    [
        {"nodes_per_panel": 1},
        {"max_refinements": 0},
        {"tolerance": -1.0},
        {"tolerance": math.nan},
        {"tolerance": math.inf},
        {"nodes_per_panel": 1025},
        {"nodes_per_panel": 10 ** 12},
    ],
)
def test_bad_spec_rejected(kwargs):
    with pytest.raises(InvalidConfig):
        QuadratureSpec(**kwargs)


def test_largest_node_count_accepted():
    assert QuadratureSpec(nodes_per_panel=1024).nodes_per_panel == 1024


def test_empty_interval_rejected():
    with pytest.raises(InvalidConfig):
        integrate(np.sin, 1.0, 1.0)
