"""Result files in their own module: importing it loads no numpy, a row of
another type is refused, the CLI writes through harness's binding, and rows
read back as written."""

import json
import math
import os
import subprocess
import sys
from pathlib import Path

import pytest

import eulersum
import eulersum.harness
import eulersum.rows
from eulersum.harness import main
from eulersum.rows import ResultRow, SweepRow, read_rows, write_rows

SRC = Path(__file__).resolve().parent.parent / "src"
CHUNK = eulersum.rows._CHUNK
# 64 rows, so that every float column takes _format_column's deduplicating branch
WIDE_ROWS = ("[SweepRow(k=k, t=1.0 - 0.5 ** (k % 7), value=(-0.0, math.nan, math.inf, 1.0 / 3.0)[k % 4], "
             "wall_time_ms=5e-324, x=float(k % 5), y=-math.inf) for k in range(64)]")


def test_importing_rows_loads_no_numpy_and_a_wide_write_is_json_dumps(tmp_path):
    json_path, csv_path = tmp_path / "wide.json", tmp_path / "wide.csv"
    code = (f"import math, sys; sys.path.insert(0, {str(SRC)!r}); from eulersum.rows import SweepRow, write_rows; "
            f"print('numpy' in sys.modules); rows = {WIDE_ROWS}; write_rows({str(json_path)!r}, rows, 'json'); "
            f"write_rows({str(csv_path)!r}, rows, 'csv'); print('numpy' in sys.modules)")
    out = subprocess.run([sys.executable, "-c", code], capture_output=True, text=True, check=True).stdout
    assert out.split() == ["False", "True"]  # numpy comes with the first wide column, not with the import
    rows = eval(WIDE_ROWS, {"SweepRow": SweepRow, "math": math})
    assert json_path.read_text() == json.dumps({"rows": [r._asdict() for r in rows]}, indent=2, sort_keys=True) + "\n"
    cell = lambda v: "" if v is None else str(v) if isinstance(v, int) else repr(float(v))
    assert csv_path.read_text() == "\n".join([",".join(SweepRow._fields), *(",".join(map(cell, r)) for r in rows), ""])


@pytest.mark.parametrize("at", [1, CHUNK + 1])  # the other row in the first chunk, or in the second
@pytest.mark.parametrize("first, other", [(SweepRow, ResultRow), (ResultRow, SweepRow)],
                         ids=["sweep-then-result", "result-then-sweep"])
@pytest.mark.parametrize("fmt", ["csv", "json"])
def test_a_row_of_another_type_is_refused_and_the_old_file_stays_whole(tmp_path, fmt, first, other, at):
    path = tmp_path / f"rows.{fmt}"
    write_rows(str(path), [first(k=0, t=0.0, value=1.0)], fmt)
    old = path.read_bytes()
    rows = [first(k=k, t=0.5, value=float(k)) for k in range(at + 3)]
    rows[at] = other(k=at, t=0.5, value=2.0)
    message = f"^row {at + 1} does not have the columns of row 1: {', '.join(first._fields)}$"
    for target in (path, tmp_path / f"new.{fmt}"):
        with pytest.raises(ValueError, match=message):
            write_rows(str(target), rows, fmt)
    assert path.read_bytes() == old and os.listdir(tmp_path) == [path.name]


def test_main_writes_through_the_write_rows_that_harness_binds_when_it_runs(tmp_path, monkeypatch, capsys):
    """The benchmark's spans rebind harness.write_rows and harness.read_rows:
    run() looks write_rows up when it writes, and each name is one function."""
    for name in ("ResultRow", "SweepRow", "read_rows", "write_rows"):
        assert getattr(eulersum, name) is getattr(eulersum.rows, name) is getattr(eulersum.harness, name)
    calls = []
    monkeypatch.setattr(eulersum.harness, "write_rows", lambda *args: calls.append(args))
    out = tmp_path / "sweep.csv"
    assert main(["sweep", "--nx", "2", "--ny", "3", "--output", str(out)]) == 0
    assert capsys.readouterr().out.startswith("[sweep] value=")
    [(path, rows, fmt, row_type)] = calls
    assert (path, fmt, row_type) == (str(out), "csv", SweepRow) and not out.exists()
    assert len(rows) == 2 * 3 * 7 and {type(r) for r in rows} == {SweepRow}


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


@pytest.mark.parametrize("row_type", [ResultRow, SweepRow])
def test_empty_json_names_its_columns(tmp_path, row_type):
    path = tmp_path / "rows.json"
    write_rows(str(path), [], "json", row_type)
    expected = json.dumps({"columns": list(row_type._fields), "rows": []}, indent=2, sort_keys=True) + "\n"
    assert path.read_text() == expected
    assert read_rows(str(path)) == []


def test_json_rows_that_start_past_the_first_read_block_read_back(tmp_path):
    # "meta" sorts before "rows", so the rows array starts after its 70 000 characters
    rows = [ResultRow(k=k, t=1.0 - 0.5 ** k, value=k / 3.0, wall_time_ms=0.5) for k in range(1, 4)]
    assert 70_000 > eulersum.rows._JSON_BLOCK
    path = tmp_path / "meta.json"
    path.write_text(json.dumps({"meta": "m" * 70_000, "rows": [r._asdict() for r in rows]}, indent=2, sort_keys=True))
    assert read_rows(str(path)) == rows
