"""tools/same_outputs.py: the decks it replays, the outcome of an op, and the comparison."""

import sys
from pathlib import Path

import pytest

from eulersum.harness import read_rows

sys.path.insert(0, str(Path(__file__).resolve().parent.parent / "tools"))
import same_outputs  # noqa: E402


def test_decks_hold_every_workload_at_seeds_one_to_ten():
    decks = same_outputs.decks()
    assert set(decks) == {(w, seed) for w in same_outputs.WORKLOADS for seed in range(1, 11)}
    assert all(argvs and all("--format" in argv for argv in argvs) for argvs in decks.values())


def test_an_outcome_masks_the_output_path_and_ignores_wall_time(tmp_path):
    first = same_outputs.outcome(["zeta", "--s", "-1"], tmp_path / "a.csv")
    again = same_outputs.outcome(["zeta", "--s", "-1"], tmp_path / "b.csv")
    assert first == again
    assert first["exit"] == 0 and first["summary"].endswith("file=OUT")


def test_an_outcome_keeps_a_failed_run_and_its_missing_rows(tmp_path):
    got = same_outputs.outcome(["zeta", "--s", "nan"], tmp_path / "z.csv")
    assert got == {"exit": 1, "summary": "", "rows": "unreadable: FileNotFoundError"}


def test_a_tree_runs_its_ops_in_a_process_of_its_own():
    ops = [["zeta", "--s", "-1"], ["zeta", "--plain", "--s", "0"]]
    got = same_outputs.run_tree(same_outputs.bench_record.REPO, ops)
    assert [o["exit"] for o in got] == [0, 2]
    assert "verdict=NoEulerSum" in got[1]["summary"]


def outcome(exit=0, summary="[zeta] file=OUT", rows="r"):
    return {"exit": exit, "summary": summary, "rows": rows}


def test_compare_counts_each_workload_and_names_each_op_that_differs(tmp_path, monkeypatch):
    roots = {"baseline": tmp_path / "old", "candidate": tmp_path / "new"}
    ops = {("zeta-mix", 1): [["zeta", "--s", "1.5"], ["zeta", "--s", "-1"]], ("sweep-io", 1): [["sweep"]],
           ("edge", None): [["zeta", "--s", "-4"]]}

    def run_tree(root, argvs):
        assert argvs == [["zeta", "--s", "1.5"], ["zeta", "--s", "-1"], ["sweep"], ["zeta", "--s", "-4"]]
        if root.name == "new":
            return [outcome(), outcome(rows="s"), outcome(), outcome(exit=2)]
        return [outcome()] * 4

    monkeypatch.setattr(same_outputs, "run_tree", run_tree)
    counts, diffs = same_outputs.compare(roots, ops)
    assert counts == {"zeta-mix": 2, "sweep-io": 1, "edge": 1}
    assert diffs == ["zeta-mix seed 1 op 1 (zeta --s -1): rows 'r' -> 's'", "edge op 0 (zeta --s -4): exit 0 -> 2"]


@pytest.mark.parametrize("diffs, status", [([], 0), (["zeta-mix seed 1 op 0 (zeta): exit 0 -> 2"], 1)])
def test_main_prints_the_counts_and_fails_on_any_difference(monkeypatch, capsys, diffs, status):
    seen = []

    class Archive:
        def __init__(self, repo, rev):
            seen.append(rev)

        def __enter__(self):
            return Path("baseline")

        def __exit__(self, *exc):
            return False

    def compare(roots, ops):
        seen.append(ops)
        return {"zeta-mix": 1000}, diffs

    monkeypatch.setattr(same_outputs.bench_record, "archive", Archive)
    monkeypatch.setattr(same_outputs, "decks", lambda: {("zeta-mix", 1): [["zeta", "--s", "0"]]})
    monkeypatch.setattr(same_outputs, "compare", compare)
    assert same_outputs.main(["--against", "HEAD~1"]) == status
    out = capsys.readouterr().out.splitlines()
    edge = [list(op) for op in same_outputs.EDGE_OPS]
    assert seen == ["HEAD~1", {("zeta-mix", 1): [["zeta", "--s", "0"]], ("edge", None): edge}]
    assert out == ["zeta-mix: 1000 ops", *diffs, f"{len(diffs)} of 1000 ops differ"]


# Where each edge op leaves euler_limit: a text of its summary line, and the
# number of points it evaluated
EDGE_EXITS = [
    ("verdict=unconverged", 3),  # 2 deltas, too few to judge
    ("verdict=unconverged", 7),  # 6 deltas, still contracting
    ("error_estimate=inf verdict=unconverged", 1),  # budget break after t_0
    ("verdict=unconverged", 6),  # budget break after six points
    ("exceeds 1/tolerance", 3),
    ("extrapolants failed to contract", 19),
    ("verdict=TailNotBounded", 18),
    ("extrapolants grew", 14),
    ("f(t) grows like u^-0.480", 5),
    ("verdict=converged", 8),
]


@pytest.mark.parametrize("argv, exit_text, points",
                         [(list(op), *want) for op, want in zip(same_outputs.EDGE_OPS, EDGE_EXITS)],
                         ids=[" ".join(op[1:]) for op in same_outputs.EDGE_OPS])
def test_each_edge_op_leaves_the_limit_where_its_comment_says(tmp_path, argv, exit_text, points):
    got = same_outputs.outcome(argv, tmp_path / "e.csv")
    assert exit_text in got["summary"]
    assert len(read_rows(str(tmp_path / "e.csv"))) == points
