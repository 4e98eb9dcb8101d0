"""CLI harness: exit codes, result files, determinism, round-trips."""

import argparse
import contextlib
import gc
import json
import math
import os
import subprocess
import sys
import tracemalloc
from pathlib import Path

import numpy as np
import pytest
from hypothesis import HealthCheck, given, settings
from hypothesis import strategies as st

import mpmath

import eulersum.harness
import eulersum.oscillator
import eulersum.resummation
import eulersum.rows
import eulersum.square_well
from eulersum.errors import DomainError, InvalidConfig, TailNotBounded
from eulersum.harness import RunConfig, build_parser, main, run, sweep
from eulersum.oscillator import MehlerPoint, mehler_kernel, mehler_series, osc_action, osc_h_kernel
from eulersum.resummation import _BLOCK_MIN, DEFAULT_TERM_BUDGET
from eulersum.rows import ResultRow, SweepRow, read_rows, write_rows
from eulersum.square_well import WellKernelPoint, d_kernel, h_kernel, k_kernel, well_action

REPO = Path(__file__).resolve().parent.parent
CHUNK = eulersum.rows._CHUNK


def cli(*args, stdout=subprocess.PIPE):
    env = dict(os.environ)
    env["PYTHONPATH"] = str(REPO / "src") + os.pathsep + env.get("PYTHONPATH", "")
    return subprocess.run(
        [sys.executable, "-m", "eulersum", *args],
        stdout=stdout,
        stderr=subprocess.PIPE,
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


def test_mehler_check_builds_one_hermite_table_per_run(tmp_path, monkeypatch):
    tables = []
    original = eulersum.oscillator._hermite_function_table

    def counted(n_max, x):
        tables.append(n_max)
        return original(n_max, x)

    monkeypatch.setattr(eulersum.oscillator, "_hermite_function_table", counted)
    assert run(RunConfig(subcommand="mehler-check", output_path=str(tmp_path / "mc.csv"))) == 0
    assert len(tables) == 1
    # and one per series, for x and y together
    mehler_series(MehlerPoint(x=0.5, y=-1.0, t=0.5), 40)
    assert tables[1:] == [40]


def test_mehler_check_refuses_a_truncation_it_cannot_bound(tmp_path, capsys):
    short, deep = tmp_path / "k11.csv", tmp_path / "k12.csv"
    assert main(["mehler-check", "--k-max", "11", "--output", str(short)]) == 0
    # t_12 = 1 - 2^-12 needs more than 60 000 terms for its tail to be within tol/10
    assert main(["mehler-check", "--k-max", "12", "--output", str(deep)]) == 2
    assert "verdict=TailNotBounded" in capsys.readouterr().out.splitlines()[-1]
    rows = read_rows(str(deep))
    assert len(rows) == 11 and [r[:5] for r in rows] == [r[:5] for r in read_rows(str(short))]


@pytest.mark.parametrize("k_max", [4, 6, 8])
def test_mehler_check_sums_the_least_certified_prefix(tmp_path, monkeypatch, k_max):
    tables = []
    original = eulersum.oscillator._hermite_function_table
    monkeypatch.setattr(eulersum.oscillator, "_hermite_function_table",
                        lambda n_max, x: tables.append(n_max) or original(n_max, x))
    assert main(["mehler-check", "--k-max", str(k_max), "--output", str(tmp_path / "mc.csv")]) == 0
    # the table is sized for t_k_max, whose bound 0.6667 t^(N+1)/(1-t) <= tol/10
    # first holds at N, above the floor of 300 terms here
    t, n = 1.0 - 0.5 ** k_max, tables[0]
    assert n > 300 and 0.6667 * t ** (n + 1) / (1.0 - t) <= 1e-9 < 0.6667 * t ** n / (1.0 - t)


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
    [
        (["zeta", "--s", "-1"], 0),
        (["zeta", "--plain", "--s", "0"], 2),
        (["zeta", "--s", "-1", "--k-max", "1"], 2),
        (["zeta", "--s", "-1", "--k-max", "2"], 2),
        (["zeta", "--s", "-1", "--k-max", "3"], 2),
    ],
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
    if "--k-max" in argv:
        # fewer than four extrapolant deltas: the schedule ran out, not the series
        assert "verdict=unconverged" in capsys.readouterr().out
        assert len(rows) == int(argv[-1]) + 1


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


@pytest.mark.parametrize(
    "argv, values",
    [
        (["zeta", "--s", "0"], {"k-max": "x"}),
        (["zeta", "--s", "0"], {"tol": "x"}),
        (["zeta", "--s", "0"], {"t-ratio": "x"}),
        (["zeta", "--s", "0"], {"k-max": 1e999}),
        (["osc-delta"], {"k-max": "x"}),
        (["osc-delta"], {"tol": [1e-9]}),
        (["osc-delta"], {"t-ratio": "x"}),
        (["sweep"], {"nx": "x"}),
        (["sweep"], {"ny": None, "nx": [3]}),
        (["zeta", "--s", "0"], None),  # no file at all
        (["zeta", "--s", "0"], "not json"),  # a str is the file's text
        (["zeta", "--s", "0"], [1, 2]),
    ],
)
def test_config_file_type_errors_are_usage_errors(tmp_path, argv, values, capsys):
    cfg = tmp_path / "bad.json"
    if values is not None:
        cfg.write_text(values if isinstance(values, str) else json.dumps(values))
    out = tmp_path / "r.csv"
    assert main([*argv, "--config", str(cfg), "--output", str(out)]) == 1
    assert capsys.readouterr().err.startswith("error: ")
    assert not out.exists()


def count_numerics(m):
    """Record each entry into the numerics, through monkeypatch context ``m``."""
    entered = []
    for name in ("euler_limit", "_walk", "sweep"):
        def entering(*args, name=name, original=getattr(eulersum.harness, name)):
            entered.append(name)
            return original(*args)

        m.setattr(eulersum.harness, name, entering)
    return entered


@pytest.mark.parametrize(
    "argv, values",
    [
        (["zeta"], {"tol": True, "s": -1}),
        (["zeta"], {"s": True}),
        (["zeta"], {"s": -1, "output": 5}),
        (["zeta", "--s", "-1"], {"plain": "no"}),
        (["zeta", "--s", "-1"], {"k-max": 3.7}),
        (["sweep", "--kernel", "well", "--x", "1.0"], {}),
        (["sweep", "--kernel", "well"], {"y": 1.0}),
        (["sweep", "--x", "1", "--y", "2", "--nx", "5", "--ny", "7"], {}),
        (["sweep", "--x", "1", "--y", "2"], {"ny": 7}),
        (["sweep", "--kernel", "foo"], {}),
        (["sweep", "--format", "xml"], {}),
        (["sweep", "--nx", "0"], {}),
        (["sweep", "--ny", "0"], {}),
    ],
)
def test_mistyped_or_incomplete_input_is_a_usage_error(tmp_path, monkeypatch, argv, values, capsys):
    monkeypatch.chdir(tmp_path)  # where a result file without --output would go
    cfg = tmp_path / "cfg.json"
    cfg.write_text(json.dumps(values))
    with monkeypatch.context() as m:
        entered = count_numerics(m)
        assert main([*argv, "--config", str(cfg)]) == 1
    err = capsys.readouterr().err
    assert err.startswith("error: ") and "Traceback" not in err
    assert not entered and sorted(p.name for p in tmp_path.iterdir()) == ["cfg.json"]


def test_library_config_types_each_value_once():
    config = RunConfig(subcommand="sweep", k_max=3.0, params={"nx": "4", "ny": 2.0, "kernel": "osc"})
    assert (config.k_max, config.params) == (3, {"kernel": "osc", "nx": 4, "ny": 2, "x": None, "y": None})
    assert config.output_path == "sweep.csv"
    for kwargs in ({"k_max": True}, {"k_max": 2.5}, {"t_ratio": "x"}, {"output_format": 1},
                   {"params": {"nx": True}}, {"params": {"kernel": 3}}, {"params": {"s": 1.0}},
                   {"params": [("nx", 1)]}, {"params": None}, {"subcommand": ["zeta"]}, {"subcommand": 1}):
        with pytest.raises(InvalidConfig):
            RunConfig(**{"subcommand": "sweep", **kwargs})


# The keys each subcommand takes besides the common t-ratio, k-max, tol, format.
_TAKES = {
    "zeta": ("s", "plain"),
    "well-delta": ("x",),
    "well-hamiltonian": ("x",),
    "well-integral": ("x", "a", "b"),
    "osc-delta": ("x",),
    "osc-hamiltonian": ("x",),
    "mehler-check": (),
    "sweep": ("kernel", "nx", "ny", "x", "y"),
}


def test_each_subcommand_takes_its_parameters_and_the_common_flags():
    subparsers = next(a.choices for a in build_parser()._actions if isinstance(a, argparse._SubParsersAction))
    assert sorted(subparsers) == sorted(_TAKES)
    for name, sub in subparsers.items():
        flags = {f for action in sub._actions for f in action.option_strings} - {"-h", "--help"}
        common = ("t-ratio", "k-max", "tol", "output", "format", "config")
        expected = {f"--{key}" for key in (*_TAKES[name], *common)}
        params = eulersum.harness._SUBCOMMANDS[name][2]
        assert flags == expected == {f"--{key}" for key in (*params, *eulersum.harness._FIELDS, "config")}


_JSON_VALUES = st.one_of(
    st.booleans(),
    st.integers(-3, 3),
    st.sampled_from([0.5, -0.25, 2.5, math.inf, -math.inf]),
    st.sampled_from(["1", "-0.5", "abc", "", "well", "json"]),
    st.lists(st.integers(0, 2), max_size=2),
    st.none(),
)


@pytest.mark.parametrize("subcommand", sorted(_TAKES))
@settings(max_examples=30, deadline=None, suppress_health_check=[HealthCheck.function_scoped_fixture])
@given(data=st.data())
def test_config_file_values_run_or_are_refused(tmp_path, monkeypatch, capsys, subcommand, data):
    keys = ("t-ratio", "k-max", "tol", "format", *_TAKES[subcommand])
    values = data.draw(st.dictionaries(st.sampled_from(keys), _JSON_VALUES))
    cfg, out = tmp_path / "cfg.json", tmp_path / "r.out"
    cfg.write_text(json.dumps(values))
    out.unlink(missing_ok=True)
    flags = ["--k-max", "2", *(["--nx", "2", "--ny", "2"] if subcommand == "sweep" else [])]
    with monkeypatch.context() as m:
        entered = count_numerics(m)
        status = main([subcommand, *flags, "--config", str(cfg), "--output", str(out)])
    err = capsys.readouterr().err
    if status == 1:
        assert err.startswith("error: ") and not out.exists() and not entered
    else:
        assert status in (0, 2) and out.exists() and not err


def test_tail_not_bounded_keeps_the_rows_made(tmp_path, monkeypatch, capsys):
    made = []
    original = eulersum.resummation.abel_eval

    def failing_after_three(*args, **kwargs):
        if len(made) == 3:
            raise TailNotBounded("injected after three points")
        made.append(original(*args, **kwargs))
        return made[-1]

    monkeypatch.setattr(eulersum.resummation, "abel_eval", failing_after_three)
    out = tmp_path / "z.csv"
    assert main(["zeta", "--s", "-2", "--tol", "1e-12", "--output", str(out)]) == 2
    assert "verdict=TailNotBounded" in capsys.readouterr().out
    rows = read_rows(str(out))
    assert [(r.k, r.t, r.value, r.wall_time_ms) for r in rows] == [
        (k, e.t, e.value, e.wall_ms) for k, e in enumerate(made)
    ]
    # zeta(-2) = 0 is tabulated, so the rows keep their reference and error
    assert all(r.reference == 0.0 and r.abs_error == abs(r.value) for r in rows)


def test_zeta_stops_where_its_term_budget_runs_out(tmp_path, monkeypatch, capsys):
    # no zeta series reaches the budget mid-schedule any more (the roundoff
    # floor stops the alternating one first), so the run sums
    # t/1 + t^2/2 + ... = -ln(1 - t), which no growth rule stops
    made = counting_abel_eval(monkeypatch)
    seq = eulersum.resummation.CoefficientSequence(lambda n: 1.0 / n, growth_hint=0.0, bound=1.0)
    monkeypatch.setattr(eulersum.harness, "alternating_sequence", lambda s: seq)
    out = tmp_path / "z.csv"
    assert main(["zeta", "--s", "0", "--tol", "1e-9", "--output", str(out)]) == 2
    # the 20th point, t = 1 - 2^-19, cannot be certified within the budget
    assert capsys.readouterr().out == (
        f"[zeta] verdict=TailNotBounded detail=tail not certified below tol={1e-9 / 100!r} within 20000000 "
        f"terms at t={1.0 - 2.0 ** -19!r} file={out}\n")
    assert len(made) == len(read_rows(str(out))) == 19


@pytest.mark.parametrize(
    "argv, status, verdict",
    [
        # tol (1 - t) / c underflows to 0 for the row's prefix search
        (["well-delta", "--tol", "1e-320"], 0, "approaching"),
        # a gamma > 0 tail that a single term closes; tol/100 covers every row's error
        (["osc-hamiltonian", "--tol", "5e36"], 0, "approaching"),
    ],
)
def test_extreme_tolerances_end_in_a_verdict(tmp_path, argv, status, verdict, capsys):
    assert main([*argv, "--output", str(tmp_path / "r.csv")]) == status
    out, err = capsys.readouterr()
    assert f"verdict={verdict} " in out and not err


@pytest.mark.parametrize("tol", ["1e-322", "5e-324"])
@pytest.mark.parametrize("subcommand", list(eulersum.harness._SUBCOMMANDS))
def test_a_tolerance_whose_inner_tolerance_underflows_is_refused(tmp_path, capsys, subcommand, tol):
    # tol / 100 rounds to 0: the certified prefixes would take log(0), and
    # abel_eval would call the positive tol not positive
    out = tmp_path / "r.csv"
    assert main([subcommand, "--tol", tol, "--output", str(out)]) == 1
    assert capsys.readouterr() == ("", f"error: tolerance {float(tol)!r} must be positive, and so must the "
                                       "inner tolerance tol/100 in double precision\n")
    assert not out.exists()


@pytest.mark.parametrize(
    "argv, module, name",
    [
        # a well row's prefix is sized once per t_k, before the pass
        (["well-delta", "--x", "1"], eulersum.square_well, "_certified_terms"),
        (["well-hamiltonian", "--x", "2"], eulersum.square_well, "_certified_terms"),
        (["well-integral"], eulersum.square_well, "k_interval_integral"),
    ],
)
def test_walk_failure_keeps_the_rows_made(tmp_path, monkeypatch, argv, module, name, capsys):
    full = tmp_path / "full.csv"
    assert main([*argv, "--output", str(full)]) == 0
    calls = []
    original = getattr(module, name)

    def failing_after_three(*args):  # fails at row 4
        if len(calls) == 3:
            raise TailNotBounded("injected after three points")
        calls.append(args)
        return original(*args)

    monkeypatch.setattr(module, name, failing_after_three)
    out = tmp_path / "cut.csv"
    assert main([*argv, "--output", str(out)]) == 2
    assert "verdict=TailNotBounded" in capsys.readouterr().out
    # the three rows made, with their reference and error, as in the full run
    rows = read_rows(str(out))
    assert [r[:5] for r in rows] == [r[:5] for r in read_rows(str(full))[:3]]
    assert all(r.reference is not None and r.abs_error is not None for r in rows)


@pytest.mark.parametrize(
    "argv",
    [
        ["sweep", "--kernel", "well", "--nx", "3", "--ny", "3", "--k-max", "60"],
        ["sweep", "--kernel", "well", "--t-ratio", "0.01", "--k-max", "10", "--nx", "2", "--ny", "2"],
        ["sweep", "--kernel", "osc-h", "--nx", "2", "--ny", "2", "--k-max", "60"],
        ["well-delta", "--k-max", "60"],
        ["osc-hamiltonian", "--t-ratio", "0.01"],
        ["well-integral", "--k-max", "60"],
        ["mehler-check", "--k-max", "60"],
        ["zeta", "--s", "-1", "--t-ratio", "1e-300"],  # zeta needs t_1 below 1
    ],
)
def test_schedule_reaching_t_one_is_a_usage_error(tmp_path, monkeypatch, argv, capsys):
    def unreachable(config):
        raise AssertionError("runner reached")

    _, *defaults = eulersum.harness._SUBCOMMANDS[argv[0]]
    monkeypatch.setitem(eulersum.harness._SUBCOMMANDS, argv[0], (unreachable, *defaults))
    out = tmp_path / "r.csv"
    assert main([*argv, "--output", str(out)]) == 1
    assert "1.0 in double precision" in capsys.readouterr().err
    assert not out.exists()


def test_zeta_ratio_whose_budget_ends_at_t_0_is_a_usage_error(tmp_path, monkeypatch, capsys):
    # t_0 = 0 sums one 128-term block, and euler_limit stops before a point
    # that would need more than terms_used / r > DEFAULT_TERM_BUDGET terms
    made = counting_abel_eval(monkeypatch)
    out = tmp_path / "z.csv"
    assert main(["zeta", "--s", "-1", "--t-ratio", "1e-10", "--output", str(out)]) == 1
    assert capsys.readouterr().err == ("error: t-ratio 1e-10 is below 128/20000000: "
                                       "the term budget would end the schedule at t_0 = 0\n")
    assert not made and not out.exists()
    # the threshold is the budget break's own: 128 / r > DEFAULT_TERM_BUDGET
    edge = _BLOCK_MIN / DEFAULT_TERM_BUDGET
    assert RunConfig(subcommand="zeta", t_ratio=edge).t_ratio == edge
    with pytest.raises(InvalidConfig):
        RunConfig(subcommand="zeta", t_ratio=math.nextafter(edge, 0.0))
    # the walked subcommands have no such break
    assert RunConfig(subcommand="well-delta", t_ratio=1e-10, k_max=1).t_ratio == 1e-10


def test_schedule_limit_is_where_t_rounds_to_one(tmp_path, capsys):
    # 1 - 2^-53 is the largest double below 1; 1 - 2^-54 rounds to 1
    assert RunConfig(subcommand="well-delta", k_max=53).k_max == 53
    with pytest.raises(InvalidConfig):
        RunConfig(subcommand="well-delta", k_max=54)
    # zeta's t_1 = 1 - r rounds to 1 from r = 2^-54; the term budget refuses r = 2^-53 already
    with pytest.raises(InvalidConfig, match="below 128/20000000"):
        RunConfig(subcommand="zeta", t_ratio=2.0 ** -53)
    with pytest.raises(InvalidConfig, match="1.0 in double precision"):
        RunConfig(subcommand="zeta", t_ratio=2.0 ** -54)
    # zeta's k-max is a ceiling: euler_limit stops before t rounds to 1
    out = tmp_path / "z.csv"
    assert main(["zeta", "--s", "-1", "--k-max", "60", "--output", str(out)]) == 0
    assert "verdict=converged" in capsys.readouterr().out
    assert len(read_rows(str(out))) == 8


@pytest.mark.parametrize("target", ["missing-parent", "directory"])
def test_unwritable_output_is_a_usage_error(tmp_path, monkeypatch, target, capsys):
    made = counting_abel_eval(monkeypatch)
    out = tmp_path / "absent" / "z.csv" if target == "missing-parent" else tmp_path
    assert main(["zeta", "--s", "0", "--output", str(out)]) == 1
    assert capsys.readouterr().err.startswith("error: ")
    assert not made and not (tmp_path / "absent").exists()
    proc = cli("zeta", "--s", "0", "--output", str(out))
    assert proc.returncode == 1 and proc.stderr.startswith("error: ") and "Traceback" not in proc.stderr


_WALKING_SUBCOMMANDS = ("well-delta", "well-hamiltonian", "osc-delta", "osc-hamiltonian",
                        "well-integral", "mehler-check")


@pytest.mark.parametrize("subcommand", (*_WALKING_SUBCOMMANDS, "zeta"))
def test_k_max_zero_is_a_usage_error(tmp_path, subcommand, capsys):
    out = tmp_path / "r.csv"
    required = ["--s", "-1"] if subcommand == "zeta" else []
    assert main([subcommand, *required, "--k-max", "0", "--output", str(out)]) == 1
    assert capsys.readouterr().err.startswith("error: ")
    assert not out.exists()


@pytest.mark.parametrize(
    "argv",
    [
        ["well-delta", "--x", "5"],
        ["well-delta", "--x=-0.5"],
        ["well-hamiltonian", "--x", "0"],
        ["well-hamiltonian", "--x", "3.1416"],
        ["well-integral", "--x", "0"],
        ["well-integral", "--a=-0.1"],
        ["well-integral", "--b", "4"],
        ["well-integral", "--a", "1.5", "--b", "0.5"],
    ],
)
def test_well_input_outside_the_domain_is_a_usage_error(tmp_path, monkeypatch, argv, capsys):
    def no_numerics(*args):
        raise AssertionError("numerics started")

    made = counting_abel_eval(monkeypatch)
    monkeypatch.setattr(eulersum.square_well, "well_action_sequence", no_numerics)
    monkeypatch.setattr(eulersum.square_well, "k_interval_integral", no_numerics)
    out = tmp_path / "r.csv"
    assert main([*argv, "--output", str(out)]) == 1
    assert capsys.readouterr().err.startswith("error: ")
    assert not made and not out.exists()


def test_well_integral_at_an_endpoint_stays_a_numerical_verdict(tmp_path, capsys):
    out = tmp_path / "wi.csv"
    assert main(["well-integral", "--x", "1", "--a", "1", "--b", "2", "--output", str(out)]) == 2
    assert "verdict=BoundaryAmbiguous" in capsys.readouterr().out


# --- action rows: the summed eigen-series -------------------------------------

_ACTION_XS = {"well": (0.3, 1.0, 1.570796, 2.8), "osc": (-2.5, -0.4, 0.5, 3.0)}


def _osc_identity(x, t):
    q = 3.0 - t * t
    return math.sqrt(2.0 / q) * math.exp(-x * x * (3.0 + t * t) / (2.0 * q))


def _well_identity(x, t):
    # (8/pi) sum over odd n of t^n sin(nx)/n^3 = (8/pi) Im[Li3(z) - Li3(z^2)/8], z = t e^{ix}
    z = mpmath.mpf(t) * mpmath.expj(x)
    return float(8 / mpmath.pi * mpmath.im(mpmath.polylog(3, z) - mpmath.polylog(3, z * z) / 8))


_CLOSED_FORMS = {
    "well-delta": _well_identity,
    "well-hamiltonian": lambda x, t: 2.0 / math.pi * math.atan(2.0 * t * math.sin(x) / (1.0 - t * t)),
    "osc-delta": _osc_identity,
    # (t d/dt + 1/2) of the identity action
    "osc-hamiltonian": lambda x, t: _osc_identity(x, t) * (
        0.5 + t * t / (3.0 - t * t) - 6.0 * x * x * t * t / (3.0 - t * t) ** 2),
}

_QUADRATURE_ROUTES = {
    "well-delta": lambda x, t: well_action(x, t, lambda y: y * (math.pi - y), operator="identity"),
    "well-hamiltonian": lambda x, t: well_action(x, t, lambda y: y * (math.pi - y), operator="hamiltonian"),
    "osc-delta": lambda x, t: osc_action(x, t, lambda y: np.exp(-np.asarray(y) ** 2), operator="identity"),
    "osc-hamiltonian": lambda x, t: osc_action(x, t, lambda y: np.exp(-np.asarray(y) ** 2),
                                               operator="hamiltonian"),
}


def action_rows(tmp_path, subcommand, x, k_max):
    out = tmp_path / f"{subcommand}.csv"
    run(RunConfig(subcommand=subcommand, k_max=k_max, output_path=str(out), params={"x": x}))
    rows = read_rows(str(out))
    assert [r.k for r in rows] == list(range(1, k_max + 1))
    return rows


@pytest.mark.parametrize("subcommand", sorted(_QUADRATURE_ROUTES))
def test_action_rows_match_the_quadrature_route(tmp_path, subcommand):
    for x in _ACTION_XS[subcommand.split("-")[0]]:
        for row in action_rows(tmp_path, subcommand, x, 10):
            assert row.value == pytest.approx(_QUADRATURE_ROUTES[subcommand](x, row.t), abs=1e-8)


@pytest.mark.parametrize("subcommand", sorted(_CLOSED_FORMS))
def test_action_rows_match_the_closed_forms(tmp_path, subcommand):
    inner_tol = RunConfig(subcommand=subcommand).tolerance / eulersum.resummation.INNER_TOL_FACTOR
    for x in _ACTION_XS[subcommand.split("-")[0]]:
        for row in action_rows(tmp_path, subcommand, x, 14):
            assert row.value == pytest.approx(_CLOSED_FORMS[subcommand](x, row.t), abs=inner_tol)


def recording_well_pass(monkeypatch):
    """Record each call of square_well.well_action_evaluations and the size of
    every coefficient block it asks term_block for."""
    passes, blocks = [], []
    sequence, evaluations = eulersum.square_well.well_action_sequence, eulersum.square_well.well_action_evaluations

    def recorded_sequence(x, p):
        seq = sequence(x, p)
        return eulersum.resummation.CoefficientSequence(
            lambda n: blocks.append(n.size) or seq.term_block(n), seq.growth_hint, seq.bound)

    def recorded_pass(*args):
        try:
            passes.append(evaluations(*args))
        except TailNotBounded as exc:
            passes.append(exc.evaluations)
            raise
        return passes[-1]

    monkeypatch.setattr(eulersum.square_well, "well_action_sequence", recorded_sequence)
    monkeypatch.setattr(eulersum.square_well, "well_action_evaluations", recorded_pass)
    return passes, blocks


@pytest.mark.parametrize("subcommand, x", [("well-delta", 0.3), ("well-hamiltonian", 1.0)])
def test_well_action_rows_are_the_odd_n_pass_evaluations(tmp_path, monkeypatch, subcommand, x, capsys):
    made = counting_abel_eval(monkeypatch)
    passes, _ = recording_well_pass(monkeypatch)
    out = tmp_path / "w.csv"
    assert main([subcommand, "--x", str(x), "--output", str(out)]) == 0
    rows = read_rows(str(out))
    # one pass per run, no Abel evaluation, and each row reports its evaluation
    assert len(passes) == 1 and not made
    assert [(r.t, r.value, r.wall_time_ms) for r in rows] == [(e.t, e.value, e.wall_ms) for e in passes[0]]
    p = 0 if subcommand == "well-delta" else 1
    seq = eulersum.square_well.well_action_sequence(x, p)
    for e in passes[0]:
        assert e.tail_bound <= 1e-10
        # the pass's certificate is a true bound: abel_eval at the same t agrees within both
        ev = eulersum.resummation.abel_eval(seq, e.t, 1e-10)
        assert abs(e.value - ev.value) <= e.tail_bound + ev.tail_bound
        # it sums no more terms than abel_eval, which counts the even zeros
        assert e.terms_used <= ev.terms_used


def test_well_action_pass_asks_for_one_block_at_a_time(tmp_path, monkeypatch, capsys):
    out = tmp_path / "deep.csv"
    assert main(["well-delta", "--k-max", "30", "--output", str(out)]) == 0
    expected = read_rows(str(out))
    passes, blocks = recording_well_pass(monkeypatch)
    assert main(["well-delta", "--k-max", "30", "--output", str(out)]) == 0
    assert [r[:5] for r in read_rows(str(out))] == [r[:5] for r in expected]
    # memory is bounded by the block size, and each odd n <= N(t_30) is made once
    n_last = passes[0][-1].terms_used
    assert max(blocks) == eulersum.resummation._BLOCK_MAX
    assert sum(blocks) == (n_last + 1) // 2 and len(blocks) == -(-sum(blocks) // max(blocks))


def test_well_delta_runs_out_of_term_budget_at_its_39th_point(tmp_path, monkeypatch, capsys):
    passes, blocks = recording_well_pass(monkeypatch)
    out = tmp_path / "wd.csv"
    assert main(["well-delta", "--k-max", "40", "--output", str(out)]) == 2
    assert capsys.readouterr().out == (
        "[well-delta] verdict=TailNotBounded detail=tail not certified below tol=1e-10 within 20000000 terms "
        f"at t={1.0 - 2.0 ** -39!r} file={out}\n")
    rows = read_rows(str(out))
    assert [r.k for r in rows] == list(range(1, 39))
    assert all(r.reference is not None and r.abs_error is not None for r in rows)
    # no coefficient past the last feasible row's prefix is made
    n_last = passes[0][-1].terms_used
    assert n_last <= eulersum.resummation.DEFAULT_TERM_BUDGET
    assert sum(blocks) == (n_last + 1) // 2


def test_deep_well_hamiltonian_approaches(tmp_path, capsys):
    out = tmp_path / "wh.csv"
    assert main(["well-hamiltonian", "--x", "1.570796", "--k-max", "12", "--output", str(out)]) == 0
    assert "verdict=approaching" in capsys.readouterr().out
    assert len(read_rows(str(out))) == 12


# --- persistence ------------------------------------------------------------


@pytest.mark.parametrize("fmt", ["csv", "json"])
def test_a_failed_write_leaves_the_old_file_whole(tmp_path, fmt):
    path = tmp_path / f"rows.{fmt}"
    write_rows(str(path), boundary_rows(3), fmt)
    old = path.read_bytes()
    rows = boundary_rows(5000)
    rows[4500] = rows[4500]._replace(value="abc")  # a cell of the second chunk cannot be formatted
    with pytest.raises(ValueError):
        write_rows(str(path), rows, fmt)
    assert path.read_bytes() == old
    assert os.listdir(tmp_path) == [path.name]  # no temporary file left behind
    with pytest.raises(ValueError):
        write_rows(str(tmp_path / f"new.{fmt}"), rows, fmt)
    assert os.listdir(tmp_path) == [path.name]  # nor a part of a new file
    for target in (path, tmp_path / "new.xml"):  # an unknown format is refused before the path is touched
        with pytest.raises(ValueError, match="'xml'"):
            write_rows(str(target), boundary_rows(3), "xml")
    assert path.read_bytes() == old and os.listdir(tmp_path) == [path.name]


def test_rows_are_written_through_a_symlink_and_into_a_pipe(tmp_path):
    target, link = tmp_path / "target.csv", tmp_path / "link.csv"
    target.write_text("old\n")
    link.symlink_to(target)
    write_rows(str(link), boundary_rows(2), "csv")
    assert link.is_symlink() and len(read_rows(str(target))) == 2
    assert sorted(os.listdir(tmp_path)) == ["link.csv", "target.csv"]
    fifo = tmp_path / "fifo"
    os.mkfifo(fifo)
    reader = subprocess.Popen(["cat", str(fifo)], stdout=subprocess.PIPE, text=True)
    write_rows(str(fifo), boundary_rows(2), "csv")
    assert reader.communicate(timeout=10)[0].count("\n") == 3  # header and two rows


@pytest.mark.parametrize("fmt", ["csv", "json"])
def test_rows_sent_to_stdout_that_is_a_file_come_after_its_text_and_before_the_summary(tmp_path, fmt):
    # reopened through /dev/stdout, the file would be truncated and written
    # from offset 0, and the summary, written at stdout's own offset, would
    # overwrite the first rows
    out = tmp_path / "f.txt"
    out.write_text("earlier line\n")
    with out.open("a") as f:
        proc = cli("zeta", "--s", "0", "--k-max", "2", "--format", fmt, "--output", "/dev/stdout", stdout=f)
    assert proc.returncode == 2 and proc.stderr == ""
    first, *body, summary = out.read_text().splitlines(keepends=True)
    assert first == "earlier line\n"
    assert summary == "[zeta] value=-0.47619047619 error_estimate=0.190476190476 verdict=unconverged file=/dev/stdout\n"
    rows = tmp_path / f"rows.{fmt}"
    rows.write_text("".join(body))
    assert [(r.k, r.t) for r in read_rows(str(rows))] == [(0, 0.0), (1, 0.5), (2, 0.75)]


def first_difference(text, expected):
    """None if the texts are equal, else where they first differ and the
    text around it in each: cheaper to report than a diff of a long file."""
    if text == expected:
        return None
    i = next((i for i, (a, b) in enumerate(zip(text, expected)) if a != b), min(len(text), len(expected)))
    return i, text[max(i - 60, 0):i + 60], expected[max(i - 60, 0):i + 60]


def same_rows(a, b):
    """Row lists equal field by field, telling -0.0 from 0.0 and nan from None."""
    return [(type(r), tuple(map(repr, r))) for r in a] == [(type(r), tuple(map(repr, r))) for r in b]


cell_floats = st.one_of(
    st.floats(allow_nan=True, allow_infinity=True, allow_subnormal=True),
    st.sampled_from([0.0, -0.0, math.nan, math.inf, -math.inf, 5e-324, 1e-300, -1e-300]),
)
optional_floats = st.one_of(st.none(), cell_floats)
result_rows = st.builds(ResultRow, st.integers(0, 10 ** 6), cell_floats, cell_floats,
                        optional_floats, optional_floats, cell_floats)
sweep_rows = st.builds(SweepRow, st.integers(0, 10 ** 6), cell_floats, cell_floats,
                       optional_floats, optional_floats, cell_floats, cell_floats, cell_floats)


@settings(max_examples=150, deadline=None, suppress_health_check=[HealthCheck.function_scoped_fixture])
@given(rows=st.one_of(st.lists(result_rows, max_size=8), st.lists(sweep_rows, max_size=8)),
       copies=st.sampled_from([1, 70]), fmt=st.sampled_from(["csv", "json"]))
def test_rows_round_trip_property(tmp_path, rows, copies, fmt):
    rows = rows * copies  # long columns of repeated values take the deduplicating formatter
    path = tmp_path / f"rows.{fmt}"
    write_rows(str(path), rows, fmt)
    assert same_rows(read_rows(str(path)), rows)


@pytest.mark.parametrize(
    "rows",
    [
        [
            ResultRow(k=0, t=0.0, value=-0.0, reference=None, abs_error=None, wall_time_ms=0.25),
            ResultRow(k=1, t=0.5, value=math.nan, reference=math.inf, abs_error=-math.inf),
            ResultRow(k=2, t=0.75, value=0.0, reference=1.0 / 3.0, abs_error=5e-324, wall_time_ms=1e-300),
        ],
        [
            SweepRow(k=0, t=0.0, value=-0.0, wall_time_ms=0.25, x=0.0, y=math.pi),
            SweepRow(k=1, t=0.5, value=math.nan, reference=math.inf, abs_error=None, x=-3.0),
            SweepRow(k=2, t=0.75, value=np.float64(0.0), abs_error=5e-324, wall_time_ms=1e17, y=2.5),
        ],
    ],
)
@pytest.mark.parametrize("copies", [1, 30, 2 * CHUNK // 3 + 1])  # the last spans three chunks
def test_json_text_is_json_dumps(tmp_path, rows, copies):
    rows = rows * copies
    path = tmp_path / "rows.json"
    write_rows(str(path), rows, "json")
    expected = json.dumps({"rows": [r._asdict() for r in rows]}, indent=2, sort_keys=True) + "\n"
    assert first_difference(path.read_text(), expected) is None


def header(path):
    """A result file's column names: the CSV header line, or in JSON the
    keys of its rows, or its "columns" when it has no row."""
    if path.suffix == ".csv":
        return path.read_text().splitlines()[0].split(",")
    data = json.loads(path.read_text())
    return sorted(data["rows"][0] if data["rows"] else data["columns"])


@pytest.mark.parametrize("fmt", ["csv", "json"])
def test_failed_sweep_writes_the_sweep_header(tmp_path, fmt):
    ok, failed = tmp_path / f"ok.{fmt}", tmp_path / f"failed.{fmt}"
    point = ["sweep", "--kernel", "osc-h", "--format", fmt, "--x"]
    assert main([*point, "1", "--y", "1", "--output", str(ok)]) == 0
    assert main([*point, "1e200", "--y", "1e200", "--output", str(failed)]) == 2
    assert read_rows(str(failed)) == []
    assert header(failed) == header(ok)
    assert set(header(ok)) == set(SweepRow._fields)


def test_missing_optional_columns_read_as_none(tmp_path):
    path = tmp_path / "rows.csv"
    path.write_text("k,t,value,wall_time_ms\n1,0.5,-0.0,2.0\n")
    assert same_rows(read_rows(str(path)), [ResultRow(k=1, t=0.5, value=-0.0, wall_time_ms=2.0)])


def boundary_rows(n):
    """n SweepRows cycling through -0.0, nan, +-inf, 5e-324 and None cells."""
    cells = [-0.0, math.nan, math.inf, -math.inf, 5e-324, 0.0, 1.0 / 3.0]
    optional = [None, None, 5e-324, -0.0, math.inf]
    return [SweepRow(k=i % 7, t=cells[i % 7], value=cells[i % 5], reference=optional[i % 5], abs_error=optional[i % 3],
                     wall_time_ms=cells[i % 3], x=cells[i % 4], y=float(i)) for i in range(n)]


def one_shot_text(rows, fmt):
    """The whole file as one join, the way a writer without chunks makes it."""
    if fmt == "json":
        return json.dumps({"rows": [r._asdict() for r in rows]}, indent=2, sort_keys=True) + "\n"
    cell = lambda v: "" if v is None else str(v) if isinstance(v, int) else repr(float(v))
    return "\n".join([",".join(SweepRow._fields), *(",".join(map(cell, r)) for r in rows), ""])


@pytest.mark.parametrize("n", [CHUNK - 1, CHUNK, CHUNK + 1, 2 * CHUNK + 1])
@pytest.mark.parametrize("fmt", ["csv", "json"])
def test_rows_round_trip_at_chunk_boundaries(tmp_path, n, fmt):
    rows = boundary_rows(n)
    path = tmp_path / f"rows.{fmt}"
    write_rows(str(path), rows, fmt)
    assert first_difference(path.read_text(), one_shot_text(rows, fmt)) is None
    assert same_rows(read_rows(str(path)), rows)


HEADER = "k,t,value,reference,abs_error,wall_time_ms"


@pytest.mark.parametrize(
    "text, message",
    [
        (f"{HEADER}\n1,0.5,0.25,,,1.5\n2,0.75,0.5,,\n",
         "row 2 of .* does not have the columns k, t, value, reference, abs_error, wall_time_ms$"),
        (f"{HEADER}\n1,0.5,0.25,,,1.5,7\n2,0.75,0.5,,,1.5\n", "row 1 of .* does not have the columns k, t,"),
        ('{"rows": [{"k": 1, "t": 0.5, "value": 0.25, "wall_time_ms": 1.5}, {"k": 2, "t": 0.75, "value": 0.5}]}',
         "row 2 of .* does not have the columns k, t, value, wall_time_ms$"),
        ('{"rows": [{"k": 1, "t": 0.5, "value": 0.25}, {"k": 2, "t": 0.75, "value": 0.5, "x": 1.0}]}',
         "row 2 of .* does not have the columns k, t, value$"),
        ('{"rows": [{"k": 1, "t": 0.5, "value": 0.25}, {"k": 2, "t": 0.75, "x": 0.5}, '
         '{"k": 3, "t": 1.0, "value": 1.0}]}', "row 2 of .* does not have the columns k, t, value$"),
    ],
    ids=["csv-short-line", "csv-extra-cell", "json-missing-key", "json-extra-key", "json-other-key"],
)
def test_ragged_file_is_refused(tmp_path, text, message):
    path = tmp_path / "ragged"
    path.write_text(text)
    with pytest.raises(ValueError, match=message):
        read_rows(str(path))


@pytest.mark.parametrize("fmt", ["csv", "json"])
def test_ragged_row_is_refused_in_a_later_chunk(tmp_path, fmt):
    path = tmp_path / f"rows.{fmt}"
    write_rows(str(path), boundary_rows(CHUNK + 5), fmt)
    text = path.read_text()
    if fmt == "csv":  # an extra cell on row CHUNK + 1, the first of the second chunk
        lines = text.split("\n")
        lines[CHUNK + 1] += ",7"
        text = "\n".join(lines)
    else:  # row CHUNK + 1 names its y z
        parts = text.split('"y"')
        text = '"y"'.join(parts[:CHUNK + 1]) + '"z"' + '"y"'.join(parts[CHUNK + 1:])
    path.write_text(text)
    with pytest.raises(ValueError, match=f"row {CHUNK + 1} of .* does not have the columns"):
        read_rows(str(path))


@pytest.mark.parametrize("columns", [("k",), ("k", "t")])
def test_a_file_of_fewer_columns_reads_alike_in_csv_and_json(tmp_path, columns):
    """The columns a file lacks read as empty cells, also where a JSON row has one key."""
    values = [dict(zip(columns, (k, 1.0 - 0.5 ** k))) for k in (1, 2)]
    csv_path, json_path = tmp_path / "few.csv", tmp_path / "few.json"
    csv_path.write_text(",".join(columns) + "\n" + "".join(",".join(map(str, v.values())) + "\n" for v in values))
    json_path.write_text(json.dumps({"rows": values}))
    expected = [ResultRow(k=v["k"], t=v.get("t"), value=None, wall_time_ms=None) for v in values]
    assert read_rows(str(csv_path)) == read_rows(str(json_path)) == expected


@pytest.mark.parametrize("text", ["t\n0.5\n", '{"rows": [{"t": 0.5}]}'], ids=["csv", "json"])
def test_a_file_without_the_k_column_is_refused(tmp_path, text):
    path = tmp_path / "no-k"
    path.write_text(text)
    with pytest.raises(ValueError, match=" has no column k$"):
        read_rows(str(path))


def json_layouts(rows):
    """One row list as JSON files of other layouts than write_rows's."""
    rows = [r._asdict() for r in rows]
    yield json.dumps({"rows": rows})
    yield json.dumps({"rows": rows}, separators=(",", ":"))
    yield json.dumps({"columns": ["ignored"], "rows": rows, "z": {"rows": [{"k": 0}], "a": [{}, {}]}}, indent=1)
    yield "\n\n" + json.dumps({"rows": rows}, indent=8).replace("},", "}\n\n ,") + "\n\n"


@pytest.mark.parametrize("n", [3, 2 * CHUNK + 1])
def test_json_in_any_layout_reads_its_rows(tmp_path, n):
    """read_rows parses JSON a block at a time; files of every layout, over
    one block or many, read as json.loads reads them."""
    rows, path = boundary_rows(n), tmp_path / "rows.json"
    for text in json_layouts(rows):
        path.write_text(text)
        assert same_rows(read_rows(str(path)), rows)


@pytest.mark.parametrize("n", [3, 2 * CHUNK + 1])
@pytest.mark.parametrize(
    "edit",
    [
        lambda t: t.replace("\n  ]\n}", ",\n  ]\n}"),  # a trailing comma after the last row
        lambda t: t.replace("\n  ]\n}", "\n  ],\n}"),  # ... after the rows array
        lambda t: t + "x",  # data after the object
        lambda t: t.replace("},\n", "}\n", 1),  # a missing comma between rows
        lambda t: t[:len(t) // 2],  # a cut file
    ],
    ids=["trailing-comma-in-rows", "trailing-comma-in-object", "extra-data", "missing-comma", "cut"],
)
def test_malformed_json_is_refused(tmp_path, n, edit):
    path = tmp_path / "rows.json"
    write_rows(str(path), boundary_rows(n), "json")
    text = edit(path.read_text())
    with pytest.raises(ValueError):
        json.loads(text)
    path.write_text(text)
    with pytest.raises(ValueError):
        read_rows(str(path))


@pytest.mark.parametrize(
    "text",
    ['{"other": [{"k": 1, "t": 0.5}]}', '{"rows": [{"k": 1, "t": 0.5}], "rows": [{"k": 2, "t": 0.75}]}',
     '{"rows": {"k": 1}}'],
    ids=["no-rows", "two-rows-arrays", "rows-not-an-array"],
)
def test_json_without_one_rows_array_is_refused(tmp_path, text):
    path = tmp_path / "rows.json"
    path.write_text(text)
    with pytest.raises(ValueError):
        read_rows(str(path))


ONE_ROW = [ResultRow(k=1, t=0.5, value=0.25, reference=None, abs_error=None, wall_time_ms=1.5)]


@pytest.mark.parametrize(
    "text, rows",
    [
        (f"{HEADER}\r\n1,0.5,0.25,,,1.5\r\n", ONE_ROW),
        (f"{HEADER}\n1,0.5,0.25,,,1.5", ONE_ROW),
        (f"{HEADER}\n", []),
        ('{"rows": [{"t": 0.5, "k": 1, "value": 0.25, "reference": null, "abs_error": null, "wall_time_ms": 1.5}, '
         '{"k": 1, "t": 0.5, "value": 0.25, "wall_time_ms": 1.5, "abs_error": null, "reference": null}]}',
         ONE_ROW * 2),
        ('\n  {"columns": ["k", "t", "value", "reference", "abs_error", "wall_time_ms"], "rows": []}\n', []),
    ],
    ids=["crlf", "no-final-newline", "header-only", "json-keys-in-any-order", "json-columns-after-blank-line"],
)
def test_files_read_as_they_always_have(tmp_path, text, rows):
    path = tmp_path / "file"
    path.write_bytes(text.encode())
    assert same_rows(read_rows(str(path)), rows)


@pytest.mark.parametrize("fmt", ["csv", "json"])
def test_row_io_holds_the_rows_plus_one_chunk(tmp_path, fmt):
    """tracemalloc peaks on a 17 500-row sweep, over four chunks, stay below
    the rows' own size plus six units, where a unit is the traced size of one
    chunk of rows.  At 4096 rows a chunk, a chunk's cells, lines and parsed
    columns measured 1-5 units above the rows (a whole file's cost 11-23)."""
    config = RunConfig(subcommand="sweep", params={"kernel": "well"})
    path = tmp_path / f"rows.{fmt}"
    tracemalloc.start()
    try:
        rows = sweep(config, eulersum.harness._sweep_grid(config))
        size = tracemalloc.get_traced_memory()[0]
        unit = size * CHUNK / len(rows)
        tracemalloc.reset_peak()
        write_rows(str(path), rows, fmt, SweepRow)
        write_peak = tracemalloc.get_traced_memory()[1] - size
        del rows
        before = tracemalloc.get_traced_memory()[0]
        tracemalloc.reset_peak()
        back = read_rows(str(path))
        after, read_peak = (m - before for m in tracemalloc.get_traced_memory())
    finally:
        tracemalloc.stop()
    assert len(back) == 50 * 50 * 7 > 4 * CHUNK
    assert write_peak < 6 * unit
    assert read_peak < after + 6 * unit


@pytest.mark.parametrize("enabled", [True, False])
def test_row_builders_pause_the_collector_and_leave_it_as_they_found_it(tmp_path, monkeypatch, enabled):
    """sweep, write_rows and read_rows build their rows with the cyclic
    collector paused, and restore the caller's state, also when they raise:
    on a non-finite sweep value, an unformattable cell and a ragged CSV."""
    seen = []

    def watched(fn):
        return lambda *args: seen.append(gc.isenabled()) or fn(*args)

    h = eulersum.harness
    monkeypatch.setitem(h._SWEEP_KERNELS, "osc-h", watched(h._SWEEP_KERNELS["osc-h"]))
    for name in ("_format_column", "_parse_column"):
        monkeypatch.setattr(eulersum.rows, name, watched(getattr(eulersum.rows, name)))
    config = RunConfig(subcommand="sweep", params={"kernel": "osc-h"})
    unformattable = boundary_rows(5000)
    unformattable[4500] = unformattable[4500]._replace(value="abc")
    ragged = tmp_path / "ragged.csv"
    ragged.write_text(f"{HEADER}\n1,0.5,0.25,,,1.5\n2,0.75,0.5,,\n")
    path = tmp_path / "rows.json"
    calls = [
        (lambda: write_rows(str(path), sweep(config, [(1.0, 2.0), (0.5, -1.0)]), "json"), None),
        (lambda: read_rows(str(path)), None),
        (lambda: sweep(config, [(1e200, 1e200)]), DomainError),
        (lambda: write_rows(str(path), unformattable, "csv"), ValueError),
        (lambda: read_rows(str(ragged)), ValueError),
    ]
    was = gc.isenabled()
    try:
        for call, error in calls:
            (gc.enable if enabled else gc.disable)()
            with pytest.raises(error) if error else contextlib.nullcontext():
                call()
            assert gc.isenabled() is enabled
    finally:
        (gc.enable if was else gc.disable)()
    assert len(seen) > 5 and not any(seen)


def test_sweep_summary_is_the_largest_absolute_value(tmp_path, capsys):
    out = tmp_path / "sw.csv"
    assert main(["sweep", "--kernel", "well-h", "--nx", "7", "--ny", "9", "--output", str(out)]) == 0
    peak = max(abs(r.value) for r in read_rows(str(out)))
    assert f" value={peak:.12g} " in capsys.readouterr().out


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


@pytest.mark.parametrize("grid", [[(1.0, 2.0, 3.0)], [(1.0,)], [1.0, 2.0], [[(1.0, 2.0)]], [("x", "y")]])
def test_sweep_rejects_a_grid_that_is_not_n_by_2(grid):
    with pytest.raises(InvalidConfig, match=r"\(x, y\) points"):
        sweep(RunConfig(subcommand="sweep"), grid)


_POINT_KERNELS = {
    "well": lambda x, y, t: k_kernel(WellKernelPoint(x=x, y=y, t=t)),
    "well-h": lambda x, y, t: h_kernel(WellKernelPoint(x=x, y=y, t=t)),
    "osc": lambda x, y, t: mehler_kernel(MehlerPoint(x=x, y=y, t=t)),
    "osc-h": lambda x, y, t: osc_h_kernel(MehlerPoint(x=x, y=y, t=t)),
}


@pytest.mark.parametrize("kernel", sorted(_POINT_KERNELS))
def test_sweep_matches_the_scalar_public_kernels(kernel):
    config = RunConfig(subcommand="sweep", k_max=5, params={"kernel": kernel, "nx": 4, "ny": 3})
    rows = sweep(config, eulersum.harness._sweep_grid(config))
    assert len(rows) == 4 * 3 * 6
    for row in rows:
        point = _POINT_KERNELS[kernel](row.x, row.y, row.t)
        assert row.value == pytest.approx(point, rel=1e-12, abs=1e-12)
    # every row of one t carries the same share of that t's kernel call
    for k in range(6):
        walls = {r.wall_time_ms for r in rows if r.k == k}
        assert len(walls) == 1 and walls.pop() >= 0.0


@pytest.mark.parametrize(
    "kernel, bad",
    [
        ("well", (5.0, 1.0)),
        ("well", (1.0, -1e-9)),
        ("well-h", (math.pi + 1e-9, 0.5)),
        ("well-h", (math.nan, 0.5)),
        ("osc", (0.5, math.nan)),
        ("osc-h", (math.inf, 0.0)),
        ("well", (1.0, 2.0, 3.0)),  # points that are not (x, y) pairs make a ragged grid
        ("osc", (1.0,)),
        ("osc-h", ()),
    ],
)
def test_sweep_rejects_points_outside_the_kernel_domain(monkeypatch, kernel, bad):
    def no_call(*args):
        raise AssertionError("kernel called")

    monkeypatch.setitem(eulersum.harness._SWEEP_KERNELS, kernel, no_call)
    config = RunConfig(subcommand="sweep", k_max=2, params={"kernel": kernel})
    with pytest.raises(InvalidConfig):
        sweep(config, [(0.5, 0.5), bad])


def test_cli_sweep_out_of_domain_point_exits_one(tmp_path, capsys):
    out = tmp_path / "pt.csv"
    assert main(["sweep", "--kernel", "well", "--x", "5", "--y", "1", "--output", str(out)]) == 1
    assert "[0, 3.14159]" in capsys.readouterr().err
    assert not out.exists()


@pytest.mark.filterwarnings("error")
@pytest.mark.parametrize("kernel, x, y", [("osc", "1e300", "0"), ("osc-h", "1e200", "1e200")])
def test_cli_sweep_non_finite_kernel_value_exits_two(tmp_path, capsys, kernel, x, y):
    # the quadratic form in the kernel's exponent overflows to inf - inf
    out = tmp_path / "pt.csv"
    assert main(["sweep", "--kernel", kernel, "--x", x, "--y", y, "--output", str(out)]) == 2
    captured = capsys.readouterr()
    assert (f"verdict=DomainError detail=sweep --kernel {kernel} is not finite at "
            f"x={float(x)!r}, y={float(y)!r}, t=0.0") in captured.out
    assert captured.err == ""
    assert read_rows(str(out)) == []


@pytest.mark.filterwarnings("error")
@pytest.mark.parametrize("s, rc, summary", [
    ("-400", 2, "verdict=DomainError detail=non-finite coefficient near n=1"),
    ("-146", 2, "verdict=DomainError detail=non-finite coefficient near n=129"),
    ("-60", 2, "verdict=PrecisionFloor detail=extrapolants stopped contracting at delta 3.068e+80"),
    ("-43", 2, "verdict=PrecisionFloor detail=extrapolants stopped contracting at delta 2.514e+47"),
    ("1e300", 0, "value=1 error_estimate=0 verdict=converged"),
])
def test_cli_zeta_at_extreme_s_reports_without_numpy_warnings(tmp_path, capsys, s, rc, summary):
    # n^400 overflows at n = 6 and n^146 at n = 129; n^-1e300 underflows to 0
    # for n >= 2.  For s <= -43 the tail bound's N^-s at the term budget
    # overflows too, and is taken in logs.
    assert main(["zeta", "--s", s, "--output", str(tmp_path / "z.csv")]) == rc
    captured = capsys.readouterr()
    assert summary in captured.out and captured.err == ""


@pytest.mark.filterwarnings("error")
@pytest.mark.parametrize("s", ["-1023", "-1e308"])
def test_cli_zeta_whose_prefactor_overflows_is_a_domain_error(tmp_path, capsys, s):
    # 2^(1 - s) overflows a double from s = -1023; at s = -1022 it fits and
    # the coefficients overflow instead (see above, s = -400)
    out = tmp_path / "z.csv"
    assert main(["zeta", f"--s={s}", "--output", str(out)]) == 2
    captured = capsys.readouterr()
    assert (f"verdict=DomainError detail=prefactor 1/(1 - 2^(1-s)) does not fit a double at s={float(s)!r} "
            in captured.out) and captured.err == ""
    assert read_rows(str(out)) == []


@pytest.mark.parametrize("argv", [["--s", "1e308"], ["--plain", "--s", "1e308"], ["--s", "5e307"]])
def test_cli_zeta_with_a_growth_hint_past_the_double_range_converges(tmp_path, capsys, argv):
    # -s ln(N + 1) overflows in the prefix search; zeta(s) = 1 to double precision
    assert main(["zeta", *argv, "--output", str(tmp_path / "z.csv")]) == 0
    captured = capsys.readouterr()
    assert "value=1 error_estimate=0 verdict=converged" in captured.out and captured.err == ""


def test_cli_plain_zeta_far_left_overflows_before_a_growth_rule_fires(tmp_path, capsys):
    # n^80 overflows near n = 7100, in the fourth evaluation (t = 0.875),
    # before the extrapolants have grown for three steps: DomainError, not
    # NoEulerSum, though both exit 2
    assert main(["zeta", "--plain", "--s", "-80", "--output", str(tmp_path / "z.csv")]) == 2
    assert "verdict=DomainError detail=non-finite coefficient near n=3969 " in capsys.readouterr().out


@pytest.mark.filterwarnings("error")
@pytest.mark.parametrize("subcommand", ["osc-delta", "osc-hamiltonian"])
@pytest.mark.parametrize("x", ["1.1e154", "-1e200", "1.5e308", "-1.7e308"])
def test_cli_osc_action_at_huge_x_reports_a_zero_reference(tmp_path, capsys, subcommand, x):
    # x^2 overflows: phi_n(x) and exp(-x^2) are 0, and so is the reference;
    # from |x| ~ 1.27e308 sqrt(2) x overflows too.  Exact rows are approaching.
    out = tmp_path / "o.csv"
    assert main([subcommand, f"--x={x}", "--output", str(out)]) == 0
    captured = capsys.readouterr()
    assert "value=0 error_estimate=0 verdict=approaching" in captured.out and captured.err == ""
    assert {(r.value, r.reference, r.abs_error) for r in read_rows(str(out))} == {(0.0, 0.0, 0.0)}


@pytest.mark.parametrize("x", ["5", "10", "40"])
def test_cli_osc_rows_within_their_certified_tolerance_are_approaching(tmp_path, capsys, x):
    # the last rows sit at roundoff (errors 7.7e-13 and 4.1e-13 at x = 5 and 10)
    # or on the reference 0 (x = 40) and need not fall further: each is
    # certified to tol/100 = 1e-10 only
    out = tmp_path / "o.csv"
    assert main(["osc-delta", "--x", x, "--output", str(out)]) == 0
    assert "verdict=approaching" in capsys.readouterr().out
    assert read_rows(str(out))[-1].abs_error <= 1e-10


def test_sweep_grid_row_cap(monkeypatch):
    def no_grid(*args, **kwargs):
        raise AssertionError("grid built")

    huge = RunConfig(subcommand="sweep", params={"nx": 10 ** 6, "ny": 10 ** 6})
    with monkeypatch.context() as m:
        m.setattr(np, "meshgrid", no_grid)
        with pytest.raises(InvalidConfig, match="more than 1000000 rows"):
            eulersum.harness._sweep_grid(huge)
    assert main(["sweep", "--nx", "1000000", "--ny", "1000000"]) == 1
    config = RunConfig(subcommand="sweep", params={"kernel": "osc-h", "nx": 100, "ny": 100})
    assert len(sweep(config, eulersum.harness._sweep_grid(config))) == 100 * 100 * 7


def test_sweep_grid_is_50_points_on_each_unset_axis():
    assert len(eulersum.harness._sweep_grid(RunConfig(subcommand="sweep"))) == 50 * 50
    assert len(eulersum.harness._sweep_grid(RunConfig(subcommand="sweep", params={"nx": 5}))) == 5 * 50


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


def test_cli_plain_half_stops_on_steady_growth(tmp_path, capsys):
    # sum n^-1/2 t^n ~ Gamma(1/2) u^-1/2: five points, not the 20 M-term budget
    out = tmp_path / "z.csv"
    assert main(["zeta", "--s", "0.5", "--plain", "--output", str(out)]) == 2
    assert "verdict=NoEulerSum detail=f(t) grows like u^-0.480 " in capsys.readouterr().out
    assert len(read_rows(str(out))) == 5


def test_cli_strict_deep_negative_s(tmp_path):
    out = tmp_path / "z.csv"
    proc = cli("zeta", "--s", "-5", "--output", str(out))
    assert proc.returncode == 2
    assert "verdict=PrecisionFloor" in proc.stdout


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
