"""tools/same_outputs.py: the decks it replays, the outcome of an op, and the comparison."""

import sys
from pathlib import Path

import pytest

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
    ops = {("zeta-mix", 1): [["zeta", "--s", "1.5"], ["zeta", "--s", "-1"]], ("sweep-io", 1): [["sweep"]]}

    def run_tree(root, argvs):
        assert argvs == [["zeta", "--s", "1.5"], ["zeta", "--s", "-1"], ["sweep"]]
        changed = outcome(rows="s") if root.name == "new" else outcome()
        return [outcome(), changed, outcome()]

    monkeypatch.setattr(same_outputs, "run_tree", run_tree)
    counts, diffs = same_outputs.compare(roots, ops)
    assert counts == {"zeta-mix": 2, "sweep-io": 1}
    assert diffs == ["zeta-mix seed 1 op 1 (zeta --s -1): rows 'r' -> 's'"]


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

    monkeypatch.setattr(same_outputs.bench_record, "archive", Archive)
    monkeypatch.setattr(same_outputs, "decks", lambda: {})
    monkeypatch.setattr(same_outputs, "compare", lambda roots, ops: ({"zeta-mix": 1000}, diffs))
    assert same_outputs.main(["--against", "HEAD~1"]) == status
    out = capsys.readouterr().out.splitlines()
    assert seen == ["HEAD~1"]
    assert out == ["zeta-mix: 1000 ops", *diffs, f"{len(diffs)} of 1000 ops differ"]
