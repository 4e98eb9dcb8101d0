"""Acceptance suite: one test per criterion, each printing a PASS line.

Every tolerance is pinned here; the oracles (brute-force sums, explicit
constants, analytic tail bounds) are computed inline and independently of
the code paths they check.
"""

import math
import os
import subprocess
import sys
import time
from pathlib import Path

import numpy as np
import pytest

from eulersum.errors import NoEulerSum
from eulersum.harness import RunConfig, read_rows, run
from eulersum.oscillator import (
    MehlerPoint,
    _mehler_exponent,
    mehler_kernel,
    mehler_series,
    osc_action,
    osc_h_kernel,
    phi_osc,
    symmetrized_exponent,
)
from eulersum.quadrature import integrate
from eulersum.resummation import CoefficientSequence, euler_limit
from eulersum.square_well import (
    IntervalIntegralQuery,
    WellKernelPoint,
    h_kernel,
    h_series,
    k_interval_integral,
    k_kernel,
    k_series,
    phi_well,
    well_action,
)
from eulersum.zeta import zeta_direct, zeta_euler

PI = math.pi
EPS = np.finfo(float).eps
REPO = Path(__file__).resolve().parent.parent


def report(criterion, detail):
    print(f"ACCEPTANCE {criterion}: PASS ({detail})")


def test_criterion_1_zeta_showcase(tmp_path):
    # The Euler sum (the extrapolated limit reported by the run) must hit
    # the headline values; the result file's rows hold the Abel trace and
    # must be approaching them.
    results = {}
    for s, expected in ((0.0, -0.5), (-1.0, -1.0 / 12.0)):
        out = tmp_path / f"zeta_{s}.csv"
        start = time.perf_counter()
        status = run(RunConfig(subcommand="zeta", output_path=str(out), params={"s": s}))
        value = zeta_euler(s).value  # same defaults, same deterministic result
        elapsed = time.perf_counter() - start
        rows = read_rows(str(out))
        assert status == 0
        assert abs(value - expected) <= 1e-6
        assert rows[-1].abs_error < rows[0].abs_error
        assert elapsed < 1.0
        results[s] = (abs(value - expected), elapsed)
    report(1, f"zeta(0) err={results[0.0][0]:.2e} in {results[0.0][1]:.2f}s, "
              f"zeta(-1) err={results[-1.0][0]:.2e} in {results[-1.0][1]:.2f}s")


def test_criterion_2_zeta_cross_oracle():
    worst = 0.0
    for s in (1.5, 2.0, 3.0):
        diff = abs(zeta_euler(s).value - zeta_direct(s, 1e-10))
        assert diff <= 1e-6
        worst = max(worst, diff)
    basel = abs(zeta_direct(2.0, 1e-10) - PI ** 2 / 6.0)
    assert basel <= 1e-10
    report(2, f"max |euler - direct| = {worst:.2e}, |direct(2) - pi^2/6| = {basel:.2e}")


def test_criterion_3_series_vs_closed_form():
    n_max = 500
    start = time.perf_counter()
    worst_k = worst_h = 0.0
    for t in (0.5, 0.9):
        # analytic geometric tail bounds for the omitted n > 500 terms,
        # plus an a-priori double-precision roundoff majorant on the
        # 500-term summation (64 eps times a bound on sum |terms|)
        tail_k = (2.0 / PI) * t ** (n_max + 1) / (1.0 - t)
        rho = t * ((n_max + 2.0) / (n_max + 1.0)) ** 2
        tail_h = (1.0 / PI) * (n_max + 1.0) ** 2 * t ** (n_max + 1) / (1.0 - rho)
        noise_k = 64 * EPS * (2.0 / PI) / (1.0 - t)
        noise_h = 64 * EPS * (1.0 / PI) * t * (1.0 + t) / (1.0 - t) ** 3
        for x in np.linspace(0.0, PI, 10):
            for y in np.linspace(0.0, PI, 10):
                p = WellKernelPoint(float(x), float(y), t)
                dk = abs(k_kernel(p) - k_series(p, n_max))
                dh = abs(h_kernel(p) - h_series(p, n_max))
                assert dk <= tail_k + noise_k
                assert dh <= tail_h + noise_h
                worst_k = max(worst_k, dk)
                worst_h = max(worst_h, dh)
    elapsed = time.perf_counter() - start
    assert elapsed < 5.0
    report(3, f"max |K - series| = {worst_k:.2e}, max |H - series| = {worst_h:.2e}, {elapsed:.2f}s")


def test_criterion_4_appendix_delta_convergence():
    for x, limit in ((1.0, 1.0), (2.0, 0.0)):
        errs = []
        for k in range(1, 21):
            t = 1.0 - 2.0 ** -k
            val = k_interval_integral(IntervalIntegralQuery(x=x, a=0.5, b=1.5, t=t))
            errs.append(abs(val - limit))
        assert errs[-1] <= 1e-3
        tail = errs[-8:]
        assert all(tail[i + 1] < tail[i] for i in range(len(tail) - 1))
    closed = k_interval_integral(IntervalIntegralQuery(x=1.0, a=0.5, b=1.5, t=0.9))
    quad = integrate(
        lambda y: np.vectorize(lambda v: k_kernel(WellKernelPoint(1.0, v, 0.9)))(y),
        0.5,
        1.5,
        peak=1.0,
        peak_min_width=0.025,
    ).value
    assert abs(closed - quad) <= 1e-8
    report(4, f"limits 1 and 0 reached monotonically; |closed - quadrature| = {abs(closed - quad):.2e}")


def test_criterion_5_eigenprojection_both_systems():
    worst = 0.0
    for t in (0.2, 0.5, 0.9):
        for x in (0.5, 1.5, 2.5):
            for m in range(1, 11):
                g = lambda y, m=m: np.sin(m * np.asarray(y))
                ident = well_action(x, t, g, operator="identity")
                hamil = well_action(x, t, g, operator="hamiltonian")
                scale = math.sqrt(PI / 2.0)  # sin(my) = sqrt(pi/2) phi_m
                worst = max(worst, abs(ident - scale * t ** m * phi_well(m, x)))
                worst = max(worst, abs(hamil - scale * 0.5 * m * m * t ** m * phi_well(m, x)))
    assert worst <= 1e-7
    worst_osc = 0.0
    from eulersum.oscillator import _hermite_function_table

    for t in (0.2, 0.5, 0.9):
        for x in (-1.0, 0.0, 1.3):
            for m in range(0, 11):
                g = lambda y, m=m: _hermite_function_table(m, y)[m]
                ident = osc_action(x, t, g, operator="identity")
                hamil = osc_action(x, t, g, operator="hamiltonian")
                worst_osc = max(worst_osc, abs(ident - t ** m * phi_osc(m, x)))
                worst_osc = max(worst_osc, abs(hamil - (m + 0.5) * t ** m * phi_osc(m, x)))
    assert worst_osc <= 1e-7
    report(5, f"well worst = {worst:.2e}, oscillator worst = {worst_osc:.2e} (tol 1e-7)")


def test_criterion_6_mehler_identities():
    grid = [float(v) for v in range(-2, 3)]
    worst_series = worst_exp = worst_route = 0.0
    for t in (0.5, 0.9):
        for x in grid:
            for y in grid:
                p = MehlerPoint(x, y, t)
                worst_series = max(worst_series, abs(mehler_kernel(p) - mehler_series(p, 300)))
                worst_exp = max(
                    worst_exp,
                    abs(float(_mehler_exponent(x, y, t)) - symmetrized_exponent(x, y, t)),
                )
                worst_route = max(
                    worst_route,
                    abs(osc_h_kernel(p, "t_derivative") - osc_h_kernel(p, "y_operator")),
                )
    assert worst_series <= 1e-8
    assert worst_exp <= 1e-12
    assert worst_route <= 1e-10
    report(6, f"series {worst_series:.2e}, exponent {worst_exp:.2e}, routes {worst_route:.2e}")


def test_criterion_7_distributional_limits():
    ks = range(4, 11)
    g_well = lambda y: np.asarray(y) * (PI - np.asarray(y))
    g_osc = lambda y: np.exp(-np.asarray(y) ** 2)
    x_well, x_osc = 1.0, 0.5
    cases = [
        ("well identity", lambda t: well_action(x_well, t, g_well, operator="identity"),
         x_well * (PI - x_well)),
        ("well hamiltonian", lambda t: well_action(x_well, t, g_well, operator="hamiltonian"),
         1.0),  # -g''/2 for g = y(pi - y)
        ("osc identity", lambda t: osc_action(x_osc, t, g_osc, operator="identity"),
         math.exp(-x_osc ** 2)),
        ("osc hamiltonian", lambda t: osc_action(x_osc, t, g_osc, operator="hamiltonian"),
         (1.0 - 1.5 * x_osc ** 2) * math.exp(-x_osc ** 2)),  # -g''/2 + x^2 g/2
    ]
    finals = []
    for name, action, reference in cases:
        errs = [abs(action(1.0 - 2.0 ** -k) - reference) for k in ks]
        assert all(errs[i + 1] < errs[i] for i in range(len(errs) - 1)), name
        assert errs[-1] <= 1e-2, name
        finals.append(f"{name} {errs[-1]:.1e}")
    report(7, "; ".join(finals))


def test_criterion_8_divergence_honesty(tmp_path):
    ones = CoefficientSequence(np.ones_like, growth_hint=0.0, bound=1.0)
    with pytest.raises(NoEulerSum):
        euler_limit(ones)
    env = dict(os.environ)
    env["PYTHONPATH"] = str(REPO / "src") + os.pathsep + env.get("PYTHONPATH", "")
    proc = subprocess.run(
        [
            sys.executable, "-m", "eulersum", "zeta", "--s", "0", "--plain",
            "--output", str(tmp_path / "ones.csv"),
        ],
        capture_output=True,
        text=True,
        env=env,
        cwd=REPO,
    )
    assert proc.returncode == 2
    assert "NoEulerSum" in proc.stdout
    report(8, "all-ones series -> NoEulerSum, CLI exit status 2")
