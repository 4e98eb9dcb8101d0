"""tools/same_outputs.py: the decks it replays, the outcome of an op, and the comparison."""

import sys
from pathlib import Path

import pytest

from eulersum.harness import SweepRow, read_rows, write_rows

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
    assert got == {"exit": 1, "summary": "", "rows": "unreadable: FileNotFoundError",
                   "text": "unreadable: FileNotFoundError"}


@pytest.mark.parametrize("fmt", ["csv", "json"])
def test_the_text_digest_masks_wall_time_and_sees_other_bytes(tmp_path, fmt):
    rows = [SweepRow(k=0, t=0.0, value=-0.0, wall_time_ms=0.25, x=1.0, y=2.0),
            SweepRow(k=1, t=0.5, value=1.5, wall_time_ms=3.0, x=1.0, y=2.0)]
    first, timed, crlf = (tmp_path / f"{name}.{fmt}" for name in ("first", "timed", "crlf"))
    write_rows(str(first), rows, fmt)
    write_rows(str(timed), [r._replace(wall_time_ms=r.wall_time_ms * 7) for r in rows], fmt)
    crlf.write_bytes(first.read_bytes().replace(b"\n", b"\r\n"))
    assert timed.read_text() != first.read_text()
    assert same_outputs.text_digest(timed) == same_outputs.text_digest(first)
    assert read_rows(str(crlf)) == read_rows(str(first))  # the rows cannot tell these two apart
    assert same_outputs.text_digest(crlf) != same_outputs.text_digest(first)
    write_rows(str(timed), [rows[0], rows[1]._replace(y=2.5)], fmt)
    assert same_outputs.text_digest(timed) != same_outputs.text_digest(first)


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


# Where each edge op stops: a text of its summary line, and the number of
# points it evaluated
EDGE_EXITS = [
    ("verdict=unconverged", 3),  # k-max after 2 deltas
    ("verdict=unconverged", 7),  # k-max after 6 deltas
    ("verdict=unconverged", 7),  # budget break after seven points
    ("value=12.4178033355 error_estimate=1.79846607067 verdict=unconverged", 7),  # the same, deltas shrinking ~5 % a step
    ("extrapolants grew", 5),
    ("f(t) grows like u^-0.480", 5),
    ("verdict=converged", 8),
    ("value=3.47599911166e-05 error_estimate=0.000647095742291 verdict=PrecisionFloor", 9),  # zeta(-4) = 0
    ("verdict=TailNotBounded detail=tail not certified below tol=1e-10 within 20000000 terms", 38),
    ("verdict=TailNotBounded detail=tail not certified below tol=1e-10 within 20000000 terms", 19),
]


@pytest.mark.parametrize("argv, exit_text, points",
                         [(list(op), *want) for op, want in zip(same_outputs.EDGE_OPS, EDGE_EXITS)],
                         ids=[" ".join(op[1:]) for op in same_outputs.EDGE_OPS])
def test_each_edge_op_leaves_the_limit_where_its_comment_says(tmp_path, argv, exit_text, points):
    got = same_outputs.outcome(argv, tmp_path / "e.csv")
    assert exit_text in got["summary"]
    assert len(read_rows(str(tmp_path / "e.csv"))) == points
