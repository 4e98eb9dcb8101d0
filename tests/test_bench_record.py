"""The summariser of tools/bench_record.py: quartiles and baseline ratios."""

import importlib.util
from pathlib import Path

import pytest

_PATH = Path(__file__).resolve().parent.parent / "tools" / "bench_record.py"
_SPEC = importlib.util.spec_from_file_location("bench_record", _PATH)
bench_record = importlib.util.module_from_spec(_SPEC)
_SPEC.loader.exec_module(bench_record)


def runs(values, name="ops_per_s", unit="1/s"):
    return [{name: {"value": v, "unit": unit}} for v in values]


def test_summary_of_five_runs_is_their_2nd_3rd_and_4th_values():
    summary = bench_record.summarise(runs([5.0, 1.0, 4.0, 2.0, 3.0]))
    assert summary == {"ops_per_s": {"median": 3.0, "q1": 2.0, "q3": 4.0, "unit": "1/s", "n": 5}}


def test_summary_interpolates_between_runs():
    m = bench_record.summarise(runs([4.0, 1.0, 3.0, 2.0]))["ops_per_s"]
    assert (m["q1"], m["median"], m["q3"]) == pytest.approx((1.75, 2.5, 3.25))


def test_summary_keeps_every_metric_and_its_unit():
    two = [{"a": {"value": float(i), "unit": "s"}, "b": {"value": 10.0 * i, "unit": "ms"}} for i in range(1, 6)]
    summary = bench_record.summarise(two)
    assert summary["a"]["unit"] == "s" and summary["b"]["unit"] == "ms"
    assert summary["b"]["median"] == 30.0


def test_ratios_divide_medians_by_the_baseline():
    new = {"zeta-mix": {"summary": bench_record.summarise(runs([2.0, 4.0, 6.0, 8.0, 10.0]))},
           "sweep-io": {"summary": bench_record.summarise(runs([1.0] * 5))}}
    old = {"zeta-mix": {"summary": bench_record.summarise(runs([1.0, 2.0, 3.0, 4.0, 5.0]))}}
    assert bench_record.ratios(new, old) == {"zeta-mix": {"ops_per_s": 2.0}, "sweep-io": {}}


def test_cli_cases_cover_every_subcommand():
    from eulersum.harness import _SUBCOMMANDS

    assert {case[0] for case in bench_record.CLI_CASES} == set(_SUBCOMMANDS)


def test_cli_section_times_each_command_and_keeps_its_exit_status():
    cases = (("zeta", "--s", "-1"), ("zeta", "--plain", "--s", "0.5"))
    cli = bench_record.time_cli(bench_record.REPO, cases, launches=2)
    assert cli["launches"] == 2
    assert cli["exit"] == {"zeta --s -1": 0, "zeta --plain --s 0.5": 2}
    for m in cli["summary"].values():
        assert m["unit"] == "ms" and m["n"] == 2
        assert 0.0 < m["q1"] <= m["median"] <= m["q3"]

