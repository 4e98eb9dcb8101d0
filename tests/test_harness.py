"""CLI harness: exit codes, result files, determinism, round-trips."""

import json
import math
import os
import subprocess
import sys
from pathlib import Path

import pytest

import eulersum.harness
import eulersum.resummation
from eulersum.errors import InvalidConfig
from eulersum.harness import (
    ResultRow,
    RunConfig,
    SweepRow,
    build_parser,
    main,
    read_rows,
    run,
    sweep,
    write_rows,
)
from eulersum.square_well import d_kernel

REPO = Path(__file__).resolve().parent.parent


def cli(*args):
    env = dict(os.environ)
    env["PYTHONPATH"] = str(REPO / "src") + os.pathsep + env.get("PYTHONPATH", "")
    return subprocess.run(
        [sys.executable, "-m", "eulersum", *args],
        capture_output=True,
        text=True,
        env=env,
        cwd=REPO,
    )


def strip_wall_time(path):
    lines = Path(path).read_text().splitlines()
    header = lines[0].split(",")
    drop = header.index("wall_time_ms")
    return ["\n".join(",".join(c for i, c in enumerate(line.split(",")) if i != drop) for line in lines)]


# --- run() in process -------------------------------------------------------


def test_run_zeta_converges(tmp_path):
    out = tmp_path / "z.csv"
    status = run(RunConfig(subcommand="zeta", output_path=str(out), params={"s": 0.0}))
    assert status == 0
    rows = read_rows(str(out))
    # rows hold the Abel trace, approaching the -1/2 reference
    assert rows[-1].value == pytest.approx(-0.5, abs=1e-2)
    assert rows[-1].abs_error < rows[0].abs_error
    assert all(row.reference == -0.5 for row in rows)


def test_run_zeta_schedule_invariant(tmp_path):
    out = tmp_path / "z.csv"
    run(RunConfig(subcommand="zeta", output_path=str(out), params={"s": -1.0}))
    for row in read_rows(str(out)):
        assert row.t == 1.0 - 0.5 ** row.k


def test_run_well_integral(tmp_path):
    out = tmp_path / "wi.csv"
    status = run(
        RunConfig(
            subcommand="well-integral",
            output_path=str(out),
            params={"x": 1.0, "a": 0.5, "b": 1.5},
        )
    )
    assert status == 0
    rows = read_rows(str(out))
    assert rows[-1].value == pytest.approx(1.0, abs=1e-6)
    assert all(r.reference == 1.0 for r in rows)


def test_run_well_integral_outside(tmp_path):
    out = tmp_path / "wi.csv"
    status = run(
        RunConfig(
            subcommand="well-integral",
            output_path=str(out),
            params={"x": 2.0, "a": 0.5, "b": 1.5},
        )
    )
    assert status == 0
    assert read_rows(str(out))[-1].value == pytest.approx(0.0, abs=1e-6)


def test_run_action_subcommands(tmp_path):
    for name in ("well-delta", "well-hamiltonian", "osc-delta", "osc-hamiltonian"):
        out = tmp_path / f"{name}.csv"
        status = run(RunConfig(subcommand=name, output_path=str(out)))
        assert status == 0, name
        rows = read_rows(str(out))
        errs = [r.abs_error for r in rows]
        assert errs[-1] < errs[0]


def test_run_mehler_check(tmp_path):
    out = tmp_path / "mc.csv"
    status = run(RunConfig(subcommand="mehler-check", output_path=str(out)))
    assert status == 0
    rows = read_rows(str(out))
    assert all(r.value <= 1e-8 for r in rows)


def test_quad_nodes_flag_respected(tmp_path):
    out = tmp_path / "od.csv"
    proc = cli("osc-delta", "--x", "0.5", "--quad-nodes", "32", "--output", str(out))
    assert proc.returncode == 0
    assert read_rows(str(out))[-1].abs_error < 1e-3


def test_run_requires_s(tmp_path):
    with pytest.raises(InvalidConfig):
        run(RunConfig(subcommand="zeta", output_path=str(tmp_path / "z.csv")))


def test_bad_config_values():
    with pytest.raises(InvalidConfig):
        RunConfig(subcommand="nope")
    with pytest.raises(InvalidConfig):
        RunConfig(subcommand="zeta", t_ratio=1.5)
    with pytest.raises(InvalidConfig):
        RunConfig(subcommand="zeta", k_max=61)
    with pytest.raises(InvalidConfig):
        RunConfig(subcommand="zeta", output_format="xml")
    for tol in (0.0, math.nan, math.inf):
        with pytest.raises(InvalidConfig):
            RunConfig(subcommand="zeta", tolerance=tol)
    for value in (math.nan, -math.inf, "abc", None):
        with pytest.raises(InvalidConfig):
            RunConfig(subcommand="well-delta", params={"x": value})


def counting_abel_eval(monkeypatch):
    """Record every AbelEvaluation the library makes, through either module
    that binds abel_eval."""
    made = []
    original = eulersum.resummation.abel_eval

    def counted(*args, **kwargs):
        made.append(original(*args, **kwargs))
        return made[-1]

    monkeypatch.setattr(eulersum.resummation, "abel_eval", counted)
    monkeypatch.setattr(eulersum.harness, "abel_eval", counted)
    return made


@pytest.mark.parametrize(
    "argv, status",
    [(["zeta", "--s", "-1"], 0), (["zeta", "--plain", "--s", "0"], 2)],
)
def test_zeta_rows_are_the_evaluations(tmp_path, monkeypatch, argv, status, capsys):
    made = counting_abel_eval(monkeypatch)
    out = tmp_path / "z.csv"
    assert main([*argv, "--output", str(out)]) == status
    rows = read_rows(str(out))
    # one Abel evaluation per schedule point, and each row reports it
    assert len(made) == len(rows) >= 2
    for row, ev in zip(rows, made):
        assert (row.t, row.value, row.wall_time_ms) == (ev.t, ev.value, ev.wall_ms)


@pytest.mark.parametrize(
    "argv",
    [
        ["zeta", "--s", "-1", "--tol", "nan"],
        ["zeta", "--s", "-1", "--tol", "inf"],
        ["zeta", "--s", "-1", "--tol=-inf"],
        ["zeta", "--s", "nan"],
        ["zeta", "--s", "inf"],
        ["well-delta", "--x", "nan"],
        ["osc-hamiltonian", "--x=-inf"],
        ["sweep", "--x", "1.0", "--y", "nan"],
        ["well-integral", "--a", "nan"],
        ["well-integral", "--b", "inf"],
    ],
)
def test_cli_non_finite_input_is_a_usage_error(tmp_path, monkeypatch, argv, capsys):
    made = counting_abel_eval(monkeypatch)
    out = tmp_path / "r.csv"
    assert main([*argv, "--output", str(out)]) == 1
    assert "finite" in capsys.readouterr().err
    assert not made and not out.exists()


def test_cached_parser_keeps_no_state_between_calls(tmp_path, capsys):
    assert build_parser() is build_parser()
    out = str(tmp_path / "z.csv")
    assert main(["zeta", "--plain", "--s", "0", "--output", out]) == 2
    # --plain does not carry over: the alternating series converges
    assert main(["zeta", "--s", "-1", "--output", out]) == 0
    assert read_rows(out)[-1].value == pytest.approx(-1.0 / 12.0, abs=1e-2)
    cfg = tmp_path / "cfg.json"
    cfg.write_text(json.dumps({"s": 0.0, "k-max": 3}))
    assert main(["zeta", "--config", str(cfg), "--output", out]) == 2
    assert len(read_rows(out)) == 4
    # nor do the file's values: without --config there is no --s
    assert main(["zeta", "--output", out]) == 1
    capsys.readouterr()


# --- persistence ------------------------------------------------------------


@pytest.mark.parametrize("fmt", ["csv", "json"])
def test_rows_round_trip(tmp_path, fmt):
    rows = [
        ResultRow(k=1, t=0.5, value=1.0 / 3.0, reference=0.25, abs_error=1.0 / 12.0, wall_time_ms=0.125),
        ResultRow(k=2, t=0.75, value=-1.7e-300, reference=None, abs_error=None, wall_time_ms=3.5),
    ]
    path = tmp_path / f"rows.{fmt}"
    write_rows(str(path), rows, fmt)
    assert read_rows(str(path)) == rows


@pytest.mark.parametrize("fmt", ["csv", "json"])
def test_sweep_rows_round_trip(tmp_path, fmt):
    rows = [
        SweepRow(k=0, t=0.0, value=0.1, reference=None, abs_error=None, wall_time_ms=0.5, x=1.0, y=2.0)
    ]
    path = tmp_path / f"sweep.{fmt}"
    write_rows(str(path), rows, fmt)
    assert read_rows(str(path)) == rows


def test_determinism_excluding_wall_time(tmp_path):
    config = lambda p: RunConfig(
        subcommand="zeta", output_path=str(p), params={"s": -1.0}
    )
    run(config(tmp_path / "a.csv"))
    run(config(tmp_path / "b.csv"))
    assert strip_wall_time(tmp_path / "a.csv") == strip_wall_time(tmp_path / "b.csv")


def test_csv_columns_fixed_order(tmp_path):
    out = tmp_path / "z.csv"
    run(RunConfig(subcommand="zeta", output_path=str(out), params={"s": 0.0}))
    header = out.read_text().splitlines()[0]
    assert header == "k,t,value,reference,abs_error,wall_time_ms"


# --- sweep ------------------------------------------------------------------


def test_sweep_diagonal_dominates(tmp_path):
    out = tmp_path / "sw.csv"
    status = run(
        RunConfig(
            subcommand="sweep",
            t_ratio=0.01,
            k_max=1,
            output_path=str(out),
            params={"kernel": "well", "nx": 21, "ny": 21},
        )
    )
    assert status == 0
    rows = [r for r in read_rows(str(out)) if r.k == 1]
    top = max(rows, key=lambda r: abs(r.value))
    assert top.t == pytest.approx(0.99)
    assert top.x == pytest.approx(top.y, abs=1e-12)


def test_sweep_oscillator_t_zero_outer_product(tmp_path):
    from eulersum.oscillator import phi_osc

    out = tmp_path / "sw.csv"
    run(
        RunConfig(
            subcommand="sweep",
            k_max=0,
            output_path=str(out),
            params={"kernel": "osc", "nx": 5, "ny": 5},
        )
    )
    for row in read_rows(str(out)):
        assert row.value == pytest.approx(phi_osc(0, row.x) * phi_osc(0, row.y), rel=1e-12)


def test_sweep_off_diagonal_point_stays_bounded():
    config = RunConfig(subcommand="sweep", k_max=10, params={"kernel": "well"})
    rows = [r for r in sweep(config, [(1.0, 2.0)]) if r.k >= 4]
    for row in rows:
        oracle = d_kernel(1.0, row.t) - d_kernel(3.0, row.t)
        assert row.value == pytest.approx(oracle, rel=1e-12)
        assert abs(row.value) < 1.0


def test_sweep_single_point_via_flags(tmp_path):
    out = tmp_path / "pt.csv"
    proc = cli(
        "sweep", "--kernel", "well", "--x", "1.0", "--y", "2.0",
        "--k-max", "6", "--output", str(out),
    )
    assert proc.returncode == 0
    rows = read_rows(str(out))
    assert {(r.x, r.y) for r in rows} == {(1.0, 2.0)}
    finals = [r for r in rows if r.k == 6]
    assert abs(finals[0].value) < 1.0  # off-diagonal stays bounded


def test_sweep_rejects_empty_grid():
    with pytest.raises(InvalidConfig):
        sweep(RunConfig(subcommand="sweep"), [])


def test_sweep_row_order():
    config = RunConfig(subcommand="sweep", k_max=2, params={"kernel": "well"})
    rows = sweep(config, [(0.5, 0.5), (1.0, 1.0)])
    keys = [(r.x, r.k) for r in rows]
    assert keys == sorted(keys)


# --- CLI subprocess ---------------------------------------------------------


def test_cli_zeta_exit_zero(tmp_path):
    out = tmp_path / "z.csv"
    proc = cli("zeta", "--s", "0", "--output", str(out))
    assert proc.returncode == 0
    assert "verdict=converged" in proc.stdout
    assert out.exists()


def test_cli_plain_all_ones_exit_two(tmp_path):
    out = tmp_path / "z.csv"
    proc = cli("zeta", "--s", "0", "--plain", "--output", str(out))
    assert proc.returncode == 2
    assert "NoEulerSum" in proc.stdout


def test_cli_strict_deep_negative_s(tmp_path):
    out = tmp_path / "z.csv"
    proc = cli("zeta", "--s", "-5", "--strict", "--output", str(out))
    assert proc.returncode == 2
    assert "NoEulerSum" in proc.stdout


def test_cli_usage_errors():
    assert cli("zeta").returncode == 1
    assert cli("bogus-subcommand").returncode == 1
    assert cli("zeta", "--s", "1").returncode == 1


def test_cli_json_output(tmp_path):
    out = tmp_path / "z.json"
    proc = cli("zeta", "--s", "2", "--format", "json", "--output", str(out))
    assert proc.returncode == 0
    rows = json.loads(out.read_text())["rows"]
    # reference column is the independently summed zeta(2)
    assert rows[-1]["reference"] == pytest.approx(math.pi ** 2 / 6.0, abs=1e-9)
    assert rows[-1]["abs_error"] < rows[0]["abs_error"]


def test_cli_config_file_and_flag_precedence(tmp_path):
    cfg = tmp_path / "cfg.json"
    cfg.write_text(json.dumps({"s": 0.0, "k-max": 20}))
    out = tmp_path / "z.csv"
    proc = cli("zeta", "--config", str(cfg), "--s", "-1", "--output", str(out))
    assert proc.returncode == 0
    rows = read_rows(str(out))
    # flag s=-1 beats the file's s=0: the reference column is -1/12
    assert rows[-1].reference == pytest.approx(-1.0 / 12.0, abs=1e-12)
    assert rows[-1].value == pytest.approx(-1.0 / 12.0, abs=1e-2)
