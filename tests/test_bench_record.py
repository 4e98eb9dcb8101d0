"""tools/bench_record.py: quartiles, the alternation of paired runs and their ratios."""

import importlib.util
import subprocess
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


def test_paired_ratios_divide_each_candidate_run_by_its_baseline_twin():
    base = runs([1.0, 2.0, 4.0, 0.0])
    cand = runs([2.0, 3.0, 2.0, 5.0])  # the last pair has no ratio
    assert bench_record.paired(base, cand, {"ops_per_s": "higher"}) == {
        "ops_per_s": {"median": 1.5, "min": 0.5, "max": 2.0, "n": 3, "wins": 2}}


@pytest.mark.parametrize("better, wins", [("higher", 1), ("lower", 2)])
def test_wins_count_the_pairs_better_in_the_metrics_direction(better, wins):
    base = runs([2.0, 2.0, 2.0, 2.0], "m", "ms")
    cand = runs([1.0, 2.0, 3.0, 1.0], "m", "ms")  # the tie counts for neither side
    assert bench_record.paired(base, cand, {"m": better})["m"]["wins"] == wins


def test_directions_are_those_of_the_benchmark():
    better = bench_record.directions()
    assert better["ops_per_s"] == better["ok_ratio"] == "higher"
    assert better["op_p50_ms"] == better["op_p90_ms"] == better["peak_rss_mb"] == better["setup_s"] == "lower"


def test_spread_is_the_median_min_and_max_of_each_metric():
    assert bench_record.spread(runs([0.9, 0.66, 0.7])) == {
        "ops_per_s": {"median": 0.7, "min": 0.66, "max": 0.9, "n": 3}}


def test_alternate_swaps_the_first_side_each_time():
    calls = []
    got = bench_record.alternate(4, lambda side, i: calls.append((side, i)) or f"{side}{i}")
    assert calls == [("baseline", 0), ("candidate", 0), ("candidate", 1), ("baseline", 1),
                     ("baseline", 2), ("candidate", 2), ("candidate", 3), ("baseline", 3)]
    assert got == {"baseline": ["baseline0", "baseline1", "baseline2", "baseline3"],
                   "candidate": ["candidate0", "candidate1", "candidate2", "candidate3"]}


def test_record_against_a_baseline_pairs_every_seed_and_launch_round(tmp_path, monkeypatch):
    roots = {"baseline": tmp_path / "old", "candidate": tmp_path / "new"}
    for root in roots.values():
        root.mkdir()
    calls = []

    def run_bench(root, workload, seed, seconds, trace):
        calls.append((root.name, workload, seed, trace))
        value = seed * (2.0 if root.name == "new" else 1.0)  # the candidate is 2x at every seed
        detail = {"deck_sha256": workload, "passes": 3, "outcomes": {"ok": 100}}
        if trace:  # the candidate's traced runs of a workload read 1, 2, 3
            value = float(sum(c[:2] == ("new", workload) and c[3] for c in calls)) if root.name == "new" else 1.0
            return {"resummation.abel_eval.self_s": {"value": value, "unit": "s"}}, detail
        return {"ops_per_s": {"value": value, "unit": "1/s"}}, detail

    def launch_round(root):
        calls.append((root.name, "cli"))
        return {"zeta --s -1": {"value": 3.0 if root.name == "new" else 4.0, "unit": "ms", "exit": 0}}

    monkeypatch.setattr(bench_record, "run_bench", run_bench)
    monkeypatch.setattr(bench_record, "launch_round", launch_round)
    bench = bench_record.record(roots, "x")
    untraced = [(c[0], c[2]) for c in calls if c[1] == "zeta-mix" and c[3] == 0]
    assert untraced == [("old", 1), ("new", 1), ("new", 2), ("old", 2), ("old", 3), ("new", 3),
                        ("new", 4), ("old", 4), ("old", 5), ("new", 5), ("new", 6), ("old", 6),
                        ("old", 7), ("new", 7), ("new", 8), ("old", 8), ("old", 9), ("new", 9),
                        ("new", 10), ("old", 10)]
    traced = [c[0] for c in calls if c[1] == "zeta-mix" and c[3] == 1]
    assert traced == ["old", "new", "new", "old", "old", "new"]  # TRACED_RUNS pairs, after the seeds
    assert calls.index(("old", "zeta-mix", 1, 1)) > calls.index(("old", "zeta-mix", 10, 0))
    assert [c[0] for c in calls if c[1] == "cli"] == ["old", "new", "new", "old", "old", "new",
                                                      "new", "old", "old", "new"]
    for workload in bench_record.WORKLOADS:
        assert bench["paired"][workload] == {"ops_per_s": {"median": 2.0, "min": 2.0, "max": 2.0, "n": 10,
                                                           "wins": 10}}
        assert bench["workloads"][workload]["summary"]["ops_per_s"]["median"] == 11.0
        assert bench["baseline"]["workloads"][workload]["summary"]["ops_per_s"]["median"] == 5.5
        assert bench["workloads"][workload]["traced"] == {
            "seed": 1, "metrics": {"resummation.abel_eval.self_s": {"median": 2.0, "min": 1.0, "max": 3.0, "n": 3}},
            "outcomes": [{"ok": 100}] * 3}
    assert bench["paired"]["cli"] == {"zeta --s -1": {"median": 0.75, "min": 0.75, "max": 0.75, "n": 5, "wins": 5}}
    assert bench["cli"]["exit"] == bench["baseline"]["cli"]["exit"] == {"zeta --s -1": 0}


def test_a_baseline_revision_is_required(capsys):
    with pytest.raises(SystemExit):
        bench_record.main(["--label", "x"])
    assert "--against" in capsys.readouterr().err


def test_archive_extracts_the_committed_tree_outside_the_repository(tmp_path):
    repo = tmp_path / "repo"
    repo.mkdir()

    def git(*args):
        subprocess.run(["git", "-c", "user.name=t", "-c", "user.email=t@example.org", *args], cwd=repo,
                       check=True, capture_output=True)

    git("init", "-q")
    (repo / "f.txt").write_text("one")
    git("add", "f.txt")
    git("commit", "-q", "-m", "one")
    (repo / "f.txt").write_text("two")  # uncommitted
    with bench_record.archive(repo, "HEAD") as tree:
        assert (tree / "f.txt").read_text() == "one" and not (tree / ".git").exists()
    assert not tree.exists()


def test_cli_cases_cover_every_subcommand():
    from eulersum.harness import _SUBCOMMANDS

    assert {case[0] for case in bench_record.CLI_CASES} == set(_SUBCOMMANDS)


def test_cli_section_times_each_command_and_keeps_its_exit_status():
    cases = (("zeta", "--s", "-1"), ("zeta", "--plain", "--s", "0.5"))
    cli = bench_record.cli_section([bench_record.launch_round(bench_record.REPO, cases) for _ in range(2)])
    assert cli["launches"] == 2
    assert cli["exit"] == {"zeta --s -1": 0, "zeta --plain --s 0.5": 2}
    for m in cli["summary"].values():
        assert m["unit"] == "ms" and m["n"] == 2
        assert 0.0 < m["q1"] <= m["median"] <= m["q3"]

