"""tools/verdict_scan.py: its case list, its oracles, its classes and its report."""

import math
import sys
from pathlib import Path

import pytest

sys.path.insert(0, str(Path(__file__).resolve().parent.parent / "tools"))
import verdict_scan  # noqa: E402


def test_the_case_list_is_the_grid_the_plain_points_and_the_well():
    todo = verdict_scan.cases()
    alternating = [case for case in todo if case[0] == "alternating"]
    assert len(alternating) == 3 * 1440 + 4 and all(s != 1.0 for _, (s,), _ in alternating)
    assert [case[1][0] for case in alternating[:3]] == [-4.6, -4.595, -4.59]
    assert alternating[1439][1] == [2.6] and {tol for *_, tol in alternating} == {1e-8, 1e-10, 1e-12}
    assert alternating[-4:] == [["alternating", [0.9999999], 1e-8], ["alternating", [1.0000001], 1e-8],
                                ["alternating", [-5.0], 1e-8], ["alternating", [1e308], 1e-8]]
    plain = [params[0] for kind, params, tol in todo if kind == "plain" and tol == 1e-8]
    assert plain[:7] == [3.0, 2.5, 2.0, 1.5, 1.1, 1.02, 1e308]
    assert len(plain) == 7 + 404 and plain[7:10] == [-100.0, -99.75, -99.5] and plain[-1] == 0.75
    assert all(b - a == 0.25 for a, b in zip(plain[7:], plain[8:]))
    assert len([c for c in todo if c[0] == "well"]) == 4 * 3 * 2


@pytest.mark.parametrize("case, group", [
    (["alternating", [-4.6], 1e-10], "alternating tol=1e-10"),
    (["alternating", [-5.0], 1e-8], "alternating points tol=1e-08"),
    (["plain", [1.02], 1e-8], "plain points tol=1e-08"),
    (["plain", [-73.25], 1e-8], "plain tol=1e-08"),
    (["well", [2.0, 3], 1e-8], "well tol=1e-08"),  # x = 2.0 is no plain point
    (["plain", [1e308], 1e-8], "plain points tol=1e-08"),
])
def test_the_points_off_the_grids_have_tables_of_their_own(case, group):
    assert verdict_scan.table(case) == group


@pytest.mark.parametrize("x", [0.3, 1.0, 2.0])
def test_the_well_oracle_is_the_closed_form_of_each_power(x):
    # x (pi - x) for the identity, 1 for H, 0 for H^2 and H^3
    for p, want in enumerate([x * (math.pi - x), 1.0, 0.0, 0.0]):
        assert verdict_scan.exact_limit("well", [x, p]) == pytest.approx(want, abs=1e-14)


def test_the_plain_series_has_a_limit_only_right_of_one():
    assert verdict_scan.exact_limit("plain", [1.0]) is None and verdict_scan.exact_limit("plain", [-2.5]) is None
    assert verdict_scan.exact_limit("plain", [2.0]) == pytest.approx(math.pi ** 2 / 6.0, rel=1e-15)
    assert verdict_scan.exact_limit("alternating", [-1.0]) == pytest.approx(-1.0 / 12.0, rel=1e-15)


def outcome(verdict, value=None, error_estimate=None):
    return {"verdict": verdict, "value": value, "error_estimate": error_estimate, "points": 3, "terms": 384,
            "wall_ms": 1.0}


@pytest.mark.parametrize("got, limit, cls", [
    (outcome("converged", 1.0 + 1e-9), 1.0, "converged"),
    (outcome("converged", 1.0 + 1e-7), 1.0, "false converged"),
    (outcome("converged", 1.0), None, "false converged"),
    (outcome("NoEulerSum"), None, "NoEulerSum"),
    (outcome("NoEulerSum"), 1.0, "false NoEulerSum"),
    (outcome("PrecisionFloor", 1.0 + 1e-5, 2e-5), 1.0, "PrecisionFloor"),
    (outcome("PrecisionFloor", 1.0 + 3e-5, 2e-5), 1.0, "false PrecisionFloor"),
    (outcome("PrecisionFloor"), 1.0, "PrecisionFloor"),  # states no value, so claims none
    (outcome("unconverged", 5.0, 1.0), 1.0, "unconverged"),
    (outcome("DomainError"), 1.0, "DomainError"),
])
def test_a_verdict_is_false_where_the_oracle_contradicts_it(got, limit, cls):
    assert verdict_scan.classify(got, 1e-8, limit) == cls


def test_a_case_that_raises_any_exception_is_classed_by_its_name(monkeypatch):
    def failing(*args, **kwargs):
        raise ValueError("cannot convert float NaN to integer")

    monkeypatch.setattr("eulersum.resummation.euler_limit", failing)
    got = verdict_scan.limit_outcome("alternating", [1e308], 1e-8)
    assert (got["verdict"], got["value"], got["error_estimate"], got["points"], got["terms"]) == (
        "ValueError", None, None, 0, 0)
    assert verdict_scan.classify(got, 1e-8, 1.0) == "ValueError"


def test_a_tree_runs_its_cases_in_a_process_of_its_own():
    got = verdict_scan.run_tree(verdict_scan.bench_record.REPO, [["alternating", [-1.0], 1e-8],
                                                                 ["alternating", [-4.0], 1e-8]])
    assert [o["verdict"] for o in got] == ["converged", "PrecisionFloor"]
    assert abs(got[0]["value"] + 1.0 / 12.0) <= 1e-8 and got[0]["points"] >= 2 and got[0]["terms"] > 0
    assert verdict_scan.classify(got[1], 1e-8, 0.0) == "PrecisionFloor" and got[1]["error_estimate"] > 1e-8


@pytest.mark.parametrize("against, status", [(None, 0), ("HEAD~1", 1)])
def test_main_prints_each_case_the_totals_and_the_changed_classes(monkeypatch, capsys, against, status):
    todo = [["alternating", [-1.0], 1e-8], ["alternating", [-4.0], 1e-8], ["plain", [0.5], 1e-8],
            ["plain", [-80.0], 1e-8], ["plain", [1.5], 1e-8]]
    runs = {"new": [outcome("converged", -1.0 / 12.0, 1e-9), outcome("PrecisionFloor", 1e-5, 6e-4),
                    outcome("NoEulerSum"), outcome("DomainError"), outcome("unconverged", 2.6, 1e-3)],
            "old": [outcome("converged", -1.0 / 12.0, 1e-9), outcome("PrecisionFloor"), outcome("unconverged"),
                    outcome("DomainError"), outcome("unconverged", 2.6, 1e-3)]}
    seen = []

    class Archive:
        def __init__(self, repo, rev):
            seen.append(rev)

        def __enter__(self):
            return Path("old")

        def __exit__(self, *exc):
            return False

    monkeypatch.setattr(verdict_scan, "cases", lambda: todo)
    monkeypatch.setattr(verdict_scan.bench_record, "REPO", Path("new"))
    monkeypatch.setattr(verdict_scan.bench_record, "archive", Archive)
    monkeypatch.setattr(verdict_scan, "run_tree", lambda root, cases: runs[root.name])
    argv = [] if against is None else ["--against", against]
    assert verdict_scan.main(argv) == status
    out = capsys.readouterr().out.splitlines()
    assert out[:5] == ["alternating s=-1.0 tol=1e-08: converged points=3 terms=384 wall_ms=1.0 error=0.000e+00 "
                       "error_estimate=1.000e-09",
                       "alternating s=-4.0 tol=1e-08: PrecisionFloor points=3 terms=384 wall_ms=1.0 error=1.000e-05 "
                       "error_estimate=6.000e-04",
                       "plain s=0.5 tol=1e-08: NoEulerSum points=3 terms=384 wall_ms=1.0",
                       "plain s=-80.0 tol=1e-08: DomainError points=3 terms=384 wall_ms=1.0",
                       "plain s=1.5 tol=1e-08: unconverged points=3 terms=384 wall_ms=1.0 error=1.238e-02 "
                       "error_estimate=1.000e-03"]
    assert out[5:9] == ["[candidate]", "alternating tol=1e-08: PrecisionFloor 1, converged 1",
                        "plain tol=1e-08: DomainError 1, NoEulerSum 1", "plain points tol=1e-08: unconverged 1"]
    if against is None:
        assert len(out) == 9 and seen == []
    else:
        assert seen == ["HEAD~1"]
        assert out[9:] == ["[baseline]", "alternating tol=1e-08: PrecisionFloor 1, converged 1",
                           "plain tol=1e-08: DomainError 1, unconverged 1", "plain points tol=1e-08: unconverged 1",
                           "plain s=0.5 tol=1e-08: unconverged -> NoEulerSum", "1 of 5 cases changed class"]
