"""Result files: one row per schedule point t_k, written to and read back
from CSV or JSON.

``write_rows`` serialises ResultRow or SweepRow tuples column by column and
``read_rows`` parses a file back into them; both work a chunk of rows at a
time with the cyclic collector paused.  numpy is imported only to spell a
long column's distinct values once, so ``import eulersum.rows`` loads none.
"""

from __future__ import annotations

import contextlib
import csv
import gc
import json
import os
import re
import sys
from functools import wraps
from itertools import chain, islice, repeat
from operator import itemgetter
from typing import NamedTuple, Optional


class ResultRow(NamedTuple):
    """One schedule point: t = 1 - r^k and the value computed there."""

    k: int
    t: float
    value: float
    reference: Optional[float] = None
    abs_error: Optional[float] = None
    wall_time_ms: float = 0.0


class SweepRow(NamedTuple):
    """A ResultRow's columns plus the grid point it was evaluated at."""

    k: int
    t: float
    value: float
    reference: Optional[float] = None
    abs_error: Optional[float] = None
    wall_time_ms: float = 0.0
    x: float = 0.0
    y: float = 0.0


_JSON_NON_FINITE = {"nan": "NaN", "inf": "Infinity", "-inf": "-Infinity"}
# Rows per chunk of write_rows and read_rows: a file costs its rows plus one chunk's cells and text.
_CHUNK = 4096


def _format_column(name: str, col, none: str) -> list:
    """Cells as text: k by str, None as ``none``, floats by repr so parsing
    round-trips exactly, and in JSON (``none`` is "null") NaN and +-inf as
    NaN and +-Infinity.  A long column spells each distinct bit pattern
    (-0.0 is not 0.0) once: sweep columns repeat a few t, x and y values."""
    if name == "k":
        return list(map(str, col))
    nones = col.count(None)
    if nones == len(col):  # sweep's reference and abs_error
        return [none] * nones
    if nones or len(col) < 64:  # below ~64 cells numpy's fixed cost exceeds the saving
        cells, where = [none if v is None else repr(float(v)) for v in col], None
    else:
        import numpy as np  # here only, so that importing this module loads no numpy
        bits, where = np.unique(np.fromiter(col, np.float64, len(col)).view(np.int64), return_inverse=True)
        cells = list(map(float.__repr__, bits.view(np.float64).tolist()))
    if none == "null":
        cells = list(map(_JSON_NON_FINITE.get, cells, cells))
    return cells if where is None else np.array(cells, dtype=object)[where].tolist()


def _collector_paused(fn):
    """``fn`` with the cyclic collector paused (rows hold no cycles), then left as the caller had it."""
    @wraps(fn)
    def paused(*args, **kwargs):
        enabled = gc.isenabled()
        gc.disable()
        try:
            return fn(*args, **kwargs)
        finally:
            (gc.enable if enabled else gc.disable)()
    return paused


@_collector_paused
def write_rows(path: str, rows: list, output_format: str, row_type=ResultRow) -> None:
    """Serialise rows column by column, _CHUNK at a time; float cells use repr
    so parsing round-trips exactly.  JSON output equals json.dumps(indent=2,
    sort_keys=True) of {"rows": [...]}; with no rows, of {"columns": [row_type's fields], "rows": []}, so every
    file names its columns.  A row whose fields are not the first row's raises ValueError naming it.  A failed
    write leaves no new file and an old one whole; links, devices and pipes are written in place,
    and the file that sys.stdout writes to is written through sys.stdout, after what it holds."""
    if output_format not in ("csv", "json"):
        raise ValueError(f"unknown output format {output_format!r}")
    names = (rows[0] if rows else row_type)._fields
    head, tail = (",".join(names) + "\n", "") if output_format == "csv" else ('{\n  "rows": [\n', "\n  ]\n}\n")
    if output_format != "csv" and not rows:
        head, tail = json.dumps({"columns": names, "rows": []}, indent=2, sort_keys=True) + "\n", ""
    keys = [f'{"," if j else "    {"}\n      "{n}": ' for j, n in enumerate(sorted(names))]  # JSON, before each cell
    try:  # the file stdout writes to, reopened, would be truncated and written over from offset 0
        stdout = os.path.samestat(os.stat(path), os.fstat(sys.stdout.fileno()))
    except (OSError, ValueError):  # no such file, or a stdout without a descriptor (an io.StringIO)
        stdout = False
    regular = not stdout and os.path.isfile(path) and not os.path.islink(path)  # replaced by a whole twin
    target = f"{path}.{os.urandom(6).hex()}.tmp" if regular else path
    fresh = regular or not os.path.lexists(path)  # created here, so removed if the write fails
    sink = contextlib.nullcontext(sys.stdout) if stdout else open(target, "x" if fresh else "w", encoding="utf-8")
    try:
        with sink as f:
            f.write(head)
            for i in range(0, len(rows), _CHUNK):
                chunk = rows[i:i + _CHUNK]
                if set(map(len, chunk)) != {len(names)}:  # a row of another type would lose or shift cells
                    n = next(n for n, r in enumerate(chunk, i + 1) if len(r) != len(names))
                    raise ValueError(f"row {n} does not have the columns of row 1: {', '.join(names)}")
                cols = dict(zip(names, zip(*chunk)))
                if output_format == "csv":
                    cells = map(_format_column, names, cols.values(), repeat(""))
                    f.write("\n".join(map(",".join, zip(*cells))) + "\n")
                else:
                    cells = [_format_column(n, cols[n], "null") for n in sorted(names)]
                    parts = chain.from_iterable(zip(map(repeat, keys), cells))  # each key's text, then its cells
                    f.write(",\n" * (i > 0) + "".join(chain.from_iterable(zip(*parts, repeat("\n    },\n"))))[:-2])
            f.write(tail)
        if regular:
            os.replace(target, path)
    except BaseException:
        if fresh:
            os.remove(target)
        raise


def _parse_column(name: str, col, none) -> list:
    if name == "k":
        return list(map(int, col))
    # a long CSV column of repeated texts (a sweep's t, x, y) converts each once; JSON's -0.0 == 0.0 rules it out
    if none == "" and len(col) >= 64 and 2 * len(texts := set(col)) < len(col):
        floats = {v: None if v == none else float(v) for v in texts}
        return list(map(floats.__getitem__, col))
    try:
        return list(map(float, col))
    except (TypeError, ValueError):  # empty cells
        return [None if v == none else float(v) for v in col]


# read_rows reads JSON text this many characters at a time.
_JSON_BLOCK = 1 << 16
_JSON_ROWS = re.compile(r'"rows"\s*:\s*\[')
_JSON = json.JSONDecoder()


def _json_rows(f):
    """Yield the rows of a JSON result file, as lists of dicts, without
    holding its text whole: the rows read so far, up to the last "},", are
    parsed as one array at a time.  What precedes and follows the rows array
    must parse as an object whose "rows" is []."""
    text, pieces = f.read(_JSON_BLOCK), 0
    while not (start := _JSON_ROWS.search(text)) and (more := f.read(_JSON_BLOCK)):
        text += more
    if not start:
        raise ValueError('no "rows" array in the JSON text')
    head, text = text[:start.end() - 1], text[start.end():]
    while more := f.read(_JSON_BLOCK):
        text += more
        try:
            cut = text.rindex("},") + 1
            rows = _JSON.decode("[" + text[:cut] + "]")
        except ValueError:  # no "}," yet, or one that ends no row: read on
            continue
        text, pieces = text[cut + 1:], pieces + 1
        yield rows
    last, end = _JSON.raw_decode("[" + text)
    if (pieces and not last) or json.loads(head + "[]" + text[end - 1:]).get("rows") != []:
        raise json.JSONDecodeError("not one object with one rows array of rows", head + text, 0)
    yield last


@_collector_paused
def read_rows(path: str) -> list:
    """Parse a result file back into ResultRow/SweepRow objects, _CHUNK
    rows at a time.  A CSV line with more or fewer cells than its header,
    or a JSON row whose keys are not the first row's (in any order), raises
    ValueError naming the row; a file with rows but no column k, one naming it."""
    with open(path, encoding="utf-8") as f:
        if f.buffer.peek().lstrip().startswith(b"{"):
            records, names, none = chain.from_iterable(_json_rows(f)), (), None
        else:
            records, none = csv.reader(f), ""
            names = next(records, ())
        rows = []
        for chunk in iter(lambda: list(islice(records, _CHUNK)), []):
            if none is None:  # JSON rows are dicts, whose columns are the first row's keys
                names = names or tuple(chunk[0])
            if "k" not in names:
                raise ValueError(f"{path} has no column k")
            try:  # a ragged row: a line or row of another length, or a JSON row with another key
                if set(map(len, chunk)) != {len(names)}:
                    raise KeyError
                cols = dict(zip(names, zip(*chunk))) if none == "" else {n: [*map(itemgetter(n), chunk)] for n in names}
            except KeyError:
                n = next(n for n, r in enumerate(chunk, len(rows) + 1)
                         if len(r) != len(names) or none is None and r.keys() != set(names))
                raise ValueError(f"row {n} of {path} does not have the columns {', '.join(names)}") from None
            cls = SweepRow if "x" in names else ResultRow
            columns = (_parse_column(n, cols.get(n, (none,) * len(chunk)), none) for n in cls._fields)
            rows += map(tuple.__new__, repeat(cls), zip(*columns))  # cls._make without its checks
    return rows
