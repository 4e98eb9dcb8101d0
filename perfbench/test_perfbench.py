"""Tests of the benchmark itself: oracles, seeded decks, outcome classes,
metric names and a tiny run of each workload.

    python3 -m pytest perfbench
"""

from __future__ import annotations

import json
import math
import re
import shutil
import subprocess
import sys
from pathlib import Path

import mpmath
import numpy as np
import pytest

import deck
import oracle
import run

ROOT = Path(__file__).resolve().parent.parent
SPEC = json.loads((ROOT / "BENCHMARK.json").read_text(encoding="utf-8"))
NAME = re.compile(r"[A-Za-z0-9_.-]+")

eulersum = run.import_eulersum()


# --- oracles -----------------------------------------------------------------


@pytest.mark.parametrize("sub", sorted(oracle._ACTIONS))
@pytest.mark.parametrize("x", [0.4, 1.3, 2.6])
def test_action_oracle_tends_to_its_limit(sub, x):
    if sub.startswith("osc"):
        x -= 1.5
    action, limit = oracle._ACTIONS[sub], oracle._LIMITS[sub](x)
    errs = [abs(action(x, 1.0 - 2.0 ** -k) - limit) for k in (6, 10, 14)]
    assert errs[0] > errs[1] > errs[2]
    assert errs[2] < 1e-3


def _odd_series(x, t, power, n_max=400):
    n = np.arange(1, n_max, 2, dtype=np.float64)
    return math.fsum(t ** n * np.sin(n * x) / n ** power)


@pytest.mark.parametrize("t", [0.3, 0.7])
def test_well_action_oracles_match_their_series(t):
    x = 1.1
    assert oracle.well_identity_action(x, t) == pytest.approx(8 / math.pi * _odd_series(x, t, 3), abs=1e-14)
    assert oracle.well_hamiltonian_action(x, t) == pytest.approx(4 / math.pi * _odd_series(x, t, 1), abs=1e-14)


@pytest.mark.parametrize("t", [0.3, 0.8])
def test_osc_action_oracles_match_quadrature_and_t_derivative(t):
    x = 0.7
    y = np.linspace(-12.0, 12.0, 200001)
    integrand = oracle.sweep_kernel("osc", x, y, t) * np.exp(-y * y)
    assert oracle.osc_identity_action(x, t) == pytest.approx(np.trapezoid(integrand, y), abs=1e-10)
    h = 1e-6
    d = (oracle.osc_identity_action(x, t + h) - oracle.osc_identity_action(x, t - h)) / (2 * h)
    want = t * d + 0.5 * oracle.osc_identity_action(x, t)
    assert oracle.osc_hamiltonian_action(x, t) == pytest.approx(want, abs=1e-8)


@pytest.mark.parametrize("kernel", ["well", "well-h", "osc", "osc-h"])
def test_sweep_kernel_oracle_matches_series(kernel):
    x, y, t = 0.9, 1.4, 0.6
    n = np.arange(0, 200, dtype=np.float64)
    if kernel.startswith("well"):
        weight = 1.0 if kernel == "well" else 0.5 * n ** 2
        terms = weight * (2 / math.pi) * t ** n * np.sin(n * x) * np.sin(n * y)
    else:
        phi = [eulersum.oscillator.phi_osc(int(k), v) for v in (x, y) for k in n]
        px, py = np.array(phi[: n.size]), np.array(phi[n.size:])
        weight = 1.0 if kernel == "osc" else n + 0.5
        terms = weight * t ** n * px * py
    assert oracle.sweep_kernel(kernel, x, y, t) == pytest.approx(math.fsum(terms), rel=1e-12)


def test_zeta_oracles():
    op = deck._zeta_op("tractable", -1.0, 1e-8, "csv")
    exp = oracle.zeta_expected(op)
    assert exp["zeta"] == pytest.approx(-1.0 / 12.0, abs=1e-15)
    direct = sum((-1) ** (n + 1) * n * 0.5 ** n for n in range(1, 200)) / (1 - 2.0 ** 2)
    assert exp["f"][1] == pytest.approx(direct, abs=1e-15)
    plain = oracle.zeta_expected(deck._zeta_op("divergent", 0.5, 1e-8, "csv", plain=True))
    assert plain["f"][2] == pytest.approx(sum(n ** -0.5 * 0.75 ** n for n in range(1, 400)), abs=1e-14)


def test_interval_integral_oracle_matches_series():
    x, a, b, t = 1.0, 0.5, 1.5, 0.5
    n = np.arange(1, 200, dtype=np.float64)
    series = (2 / math.pi) * t ** n * np.sin(n * x) * (np.cos(n * a) - np.cos(n * b)) / n
    assert oracle.interval_integral(x, a, b, t) == pytest.approx(math.fsum(series), abs=1e-15)


# --- decks --------------------------------------------------------------------


@pytest.mark.parametrize("workload", deck.WORKLOADS)
def test_deck_is_a_function_of_the_seed(workload):
    first, again, other = deck.build(workload, 7), deck.build(workload, 7), deck.build(workload, 8)
    assert deck.digest(first) == deck.digest(again)
    assert deck.digest(first) != deck.digest(other)
    assert len(first) >= 100  # so that at least ten samples lie beyond p90


@pytest.mark.parametrize("workload", deck.WORKLOADS)
def test_deck_argv_parses(workload):
    parser = eulersum.harness.build_parser()
    for op in deck.build(workload, 3):
        args = parser.parse_args(list(op.argv))
        eulersum.harness._build_config(args)


# --- outcome classes ------------------------------------------------------------


def _zeta_rows(values):
    row = eulersum.harness.ResultRow
    return [row(k=k, t=1.0 - 0.5 ** k, value=v) for k, v in enumerate(values)]


def _classify_zeta(s, stdout, rc, plain=False, tol=1e-8):
    op = deck._zeta_op("tractable", s, tol, "csv", plain=plain)
    exp = oracle.zeta_expected(op)
    rows = _zeta_rows([0.0, exp["f"][1], exp["f"][2]])
    return oracle.classify(op, exp, rc, stdout, rows, eulersum)[0]


def test_outcome_classes():
    z = float(mpmath.zeta(-2.5))
    ok = f"[zeta] value={z:.12g} error_estimate=1e-9 verdict=converged file=x"
    assert _classify_zeta(-2.5, ok, 0) == oracle.OK
    near = f"[zeta] value={z + 1.3e-8:.12g} error_estimate=1e-9 verdict=converged file=x"
    assert _classify_zeta(-2.5, near, 0) == oracle.FALSE_VERDICT
    far = f"[zeta] value={z + 1e-3:.12g} error_estimate=1e-9 verdict=converged file=x"
    assert _classify_zeta(-2.5, far, 0) == oracle.WRONG_VALUE
    nes = "[zeta] verdict=NoEulerSum detail=no finite t -> 1 limit file=x"
    assert _classify_zeta(-2.5, nes, 2) == oracle.FALSE_VERDICT
    assert _classify_zeta(0.5, nes, 2, plain=True) == oracle.OK
    assert _classify_zeta(-2.5, "error: bad", 1) == oracle.UNEXPECTED_ERROR
    op = deck._zeta_op("tractable", -2.5, 1e-8, "csv")
    assert oracle.classify(op, oracle.zeta_expected(op), 0, ok, None, eulersum)[0] == oracle.UNEXPECTED_ERROR


# --- runs -------------------------------------------------------------------------


def _check_metrics(result, declared):
    assert set(result["metrics"]) == {m["name"] for m in declared}
    for m in declared:
        assert NAME.fullmatch(m["name"])
        got = result["metrics"][m["name"]]
        assert got["unit"] == m["unit"]
        assert math.isfinite(got["value"])


@pytest.mark.parametrize("workload", deck.WORKLOADS)
def test_smoke_run(workload, tmp_path):
    plain = run.run(workload, 5, 0.0, trace=False, smoke=True, out_dir=tmp_path)
    assert plain["correct"] and plain["attempted"] >= 1
    _check_metrics(plain, SPEC["end_to_end"])
    assert all(plain["metrics"][m["name"]]["value"] > 0 for m in SPEC["end_to_end"])
    traced = run.run(workload, 5, 0.0, trace=True, smoke=True, out_dir=tmp_path)
    assert traced["correct"]
    _check_metrics(traced, SPEC["per_layer"])
    assert traced["detail"]["self_time_coverage"] == pytest.approx(1.0, abs=0.01)
    assert list(tmp_path.glob("spans-*.npz"))


def test_benchmark_json_names_workloads_and_metrics():
    assert [w["name"] for w in SPEC["workloads"]] == list(deck.WORKLOADS)
    names = [m["name"] for m in SPEC["end_to_end"] + SPEC["per_layer"]]
    assert len(names) == len(set(names)) and all(NAME.fullmatch(n) for n in names)
    assert any(m["name"] == "setup_s" and m["unit"] == "s" for m in SPEC["end_to_end"])


def test_refuses_to_run_without_sources(tmp_path):
    shutil.copytree(ROOT / "perfbench", tmp_path / "perfbench",
                    ignore=shutil.ignore_patterns("__pycache__"))
    shutil.copy(ROOT / "BENCHMARK.json", tmp_path)
    proc = subprocess.run(
        [sys.executable, "perfbench/run.py", "--workload", "zeta-mix", "--seed", "1",
         "--seconds", "1", "--trace", "0"],
        cwd=tmp_path, capture_output=True, text=True, timeout=120,
    )
    assert proc.returncode != 0
    assert proc.stdout == ""
