"""Command-line harness: reproducible experiments with plot-ready output.

Each subcommand walks a regulator schedule t_k = 1 - r^k, records one
result row per k (plus grid coordinates for sweeps) and writes the rows
to CSV or JSON.  Rows are deterministic for a given configuration; the
wall_time_ms column is measured and therefore varies between runs.

Exit codes: 0 converged/success, 1 usage or configuration error,
2 numerical non-convergence or a downstream numerical error (the error
name appears in the summary line).
"""

from __future__ import annotations

import argparse
import csv
import io
import json
import math
import sys
import time
from dataclasses import dataclass, field
from functools import lru_cache
from itertools import repeat
from operator import itemgetter
from pathlib import Path
from typing import NamedTuple, Optional

import numpy as np

from . import oscillator as osc
from . import square_well as sw
from .errors import DomainError, EulerSumError, InvalidConfig
from .resummation import INNER_TOL_FACTOR, EulerLimitConfig, abel_eval, euler_limit
from .zeta import alternating_sequence, plain_sequence, reference_value

# A sweep writes nx * ny * (k_max + 1) rows; the largest grid is refused
# before it is built.
_MAX_SWEEP_ROWS = 10 ** 6
# Grid points per axis of a sweep without --nx/--ny.
_GRID_SIDE = 50


# The type of every input, by flag name, whether it comes from a flag, a
# config file or a library RunConfig(...).  Booleans are not numbers, an int
# must be integral (a numeral string is read as --k-max reads it), and a
# float must be finite.
_TYPES = {"t-ratio": float, "k-max": int, "tol": float, "output": str, "format": str,
          "s": float, "plain": bool, "x": float, "y": float, "a": float, "b": float,
          "kernel": str, "nx": int, "ny": int}

# RunConfig's fields by the flag that sets them.
_FIELDS = {"t-ratio": "t_ratio", "k-max": "k_max", "tol": "tolerance",
           "output": "output_path", "format": "output_format"}


def _typed(key: str, value):
    """``value`` as the type _TYPES gives ``key``, or InvalidConfig."""
    kind = _TYPES[key]
    try:
        if isinstance(value, bool) != (kind is bool) or (kind is str and not isinstance(value, str)):
            raise TypeError
        typed = kind(value)
        if kind is int and not isinstance(value, str) and typed != value:
            raise ValueError
    except (TypeError, ValueError, OverflowError):
        raise InvalidConfig(f"{key} must be {kind.__name__}, got {value!r}") from None
    if kind is float and not math.isfinite(typed):
        raise InvalidConfig(f"--{key} must be a finite number")
    return typed


@dataclass(frozen=True)
class RunConfig:
    """A fully resolved experiment invocation.

    Construction types every value once (``_TYPES``) and fills an unset
    ``k_max``, ``output_path`` and parameter from the subcommand's defaults,
    so ``params`` holds exactly the subcommand's parameters, typed.
    """

    subcommand: str
    t_ratio: float = 0.5
    k_max: Optional[int] = None
    tolerance: float = 1e-8
    output_path: Optional[str] = None
    output_format: str = "csv"
    params: dict = field(default_factory=dict)

    def __post_init__(self):
        if not isinstance(self.subcommand, str) or self.subcommand not in _SUBCOMMANDS:
            raise InvalidConfig(f"unknown subcommand {self.subcommand!r}")
        if not isinstance(self.params, dict):
            raise InvalidConfig(f"params must be a dict, got {self.params!r}")
        _, k_max, defaults, _ = _SUBCOMMANDS[self.subcommand]
        unset = {"k-max": k_max, "output": f"{self.subcommand}.{self.output_format}"}
        for key, name in _FIELDS.items():
            value = getattr(self, name)
            object.__setattr__(self, name, _typed(key, unset.get(key) if value is None else value))
        unknown = sorted(self.params.keys() - defaults.keys())
        if unknown:
            raise InvalidConfig(f"{self.subcommand} takes no {', '.join(unknown)}")
        object.__setattr__(self, "params", {**defaults, **{k: _typed(k, v) for k, v in self.params.items()}})
        if not 0.0 < self.t_ratio < 1.0:
            raise InvalidConfig("t-ratio must lie in (0, 1)")
        if not 0 <= self.k_max <= 60:
            raise InvalidConfig("k-max must lie in [0, 60]")
        # zeta's k-max is a ceiling: euler_limit stops where the schedule saturates.
        if self.subcommand != "zeta" and 1.0 - self.t_ratio ** self.k_max == 1.0:
            raise InvalidConfig(f"t-ratio {self.t_ratio!r} at k-max {self.k_max} "
                                "puts the last t_k at 1.0 in double precision")
        if self.tolerance <= 0.0:
            raise InvalidConfig("tolerance must be finite and positive")
        if self.output_format not in ("csv", "json"):
            raise InvalidConfig(f"unknown output format {self.output_format!r}")
        if self.subcommand == "sweep" and self.params["kernel"] not in _SWEEP_KERNELS:
            raise InvalidConfig(f"unknown sweep kernel {self.params['kernel']!r}")


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


def _format_column(name: str, col, none: str) -> list:
    """Cells as text: k by str, None as ``none``, floats by repr so parsing
    round-trips exactly.  In a long column each distinct bit pattern (-0.0
    is not 0.0) is formatted once: sweep columns repeat a few t, x and y
    values.  Below ~64 cells numpy's fixed cost exceeds the saving."""
    if name == "k":
        return list(map(str, col))
    if len(col) < 64 or None in col:
        return [none if v is None else repr(float(v)) for v in col]
    bits, where = np.unique(np.fromiter(col, np.float64, len(col)).view(np.int64), return_inverse=True)
    return np.array(list(map(float.__repr__, bits.view(np.float64).tolist())), dtype=object)[where].tolist()


def write_rows(path: str, rows: list, output_format: str) -> None:
    """Serialise rows column by column; float cells use repr so parsing
    round-trips exactly.  JSON output equals json.dumps(indent=2,
    sort_keys=True) of {"rows": [...]}."""
    names = rows[0]._fields if rows else ResultRow._fields
    cols = zip(*rows)
    if output_format == "csv":
        cells = [_format_column(n, c, "") for n, c in zip(names, cols)]
        lines = [",".join(names), *map(",".join, zip(*cells))]
    else:
        by_name = sorted(zip(names, cols))
        cells = [_format_column(n, c, "null") for n, c in by_name]
        cells = [list(map(_JSON_NON_FINITE.get, c, c)) for c in cells]
        template = "    {\n" + ",\n".join(f'      "{n}": %s' for n, _ in by_name) + "\n    }"
        body = ",\n".join(map(template.__mod__, zip(*cells)))
        lines = ["{", '  "rows": [', body, "  ]", "}"] if rows else ["{", '  "rows": []', "}"]
    Path(path).write_text("\n".join([*lines, ""]), encoding="utf-8")


def _parse_column(name: str, col, none) -> list:
    if name == "k":
        return list(map(int, col))
    try:
        return list(map(float, col))
    except (TypeError, ValueError):  # empty cells
        return [None if v == none else float(v) for v in col]


def read_rows(path: str) -> list:
    """Parse a result file back into ResultRow/SweepRow objects."""
    text = Path(path).read_text(encoding="utf-8")
    if text.lstrip().startswith("{"):
        recs = json.loads(text)["rows"]
        names = list(recs[0]) if recs else ()
        records, none = (list(map(itemgetter(*names), recs)) if recs else []), None
    else:
        reader = csv.reader(io.StringIO(text))
        names, records, none = next(reader, ()), list(reader), ""
    if not records:
        return []
    cls = SweepRow if "x" in names else ResultRow
    cols = dict(zip(names, zip(*records)))
    columns = (_parse_column(n, cols.get(n, (none,) * len(records)), none) for n in cls._fields)
    return list(map(tuple.__new__, repeat(cls), zip(*columns)))  # cls._make without its checks


def _row(k: int, t: float, value: float, reference: Optional[float], wall_ms: float) -> ResultRow:
    err = None if reference is None else abs(value - reference)
    return ResultRow(k=k, t=t, value=value, reference=reference, abs_error=err, wall_time_ms=wall_ms)


def _walk(config: RunConfig, value_at, reference: float) -> list:
    """One row per schedule point t_k = 1 - r^k, k = 1 .. k_max: the timed
    value_at(t_k) and its error against ``reference``.  An EulerSumError
    leaves with the rows made before it as ``rows``."""
    if config.k_max < 1:
        raise InvalidConfig(f"{config.subcommand} needs k-max >= 1")
    rows = []
    for k in range(1, config.k_max + 1):
        t_k = 1.0 - config.t_ratio ** k
        start = time.perf_counter()
        try:
            value = value_at(t_k)
        except EulerSumError as exc:
            exc.rows = rows
            raise
        rows.append(_row(k, t_k, value, reference, (time.perf_counter() - start) * 1e3))
    return rows


def _final_within_tol(config: RunConfig, rows: list):
    """Converged when the last row's error is within the tolerance."""
    final = rows[-1]
    verdict = "converged" if final.abs_error <= config.tolerance else "unconverged"
    return rows, final.value, final.abs_error, verdict


def _monotone_tail(rows: list, window: int = 4) -> bool:
    errs = [r.abs_error for r in rows if r.abs_error is not None]
    if len(errs) < 2:
        return False
    tail = errs[-min(window + 1, len(errs)):]
    return all(tail[i + 1] < tail[i] for i in range(len(tail) - 1))


def _run_zeta(config: RunConfig):
    s = config.params["s"]
    if s is None:
        raise InvalidConfig("zeta requires --s")
    if s == 1.0:
        raise InvalidConfig("zeta has a pole at s = 1")
    seq = plain_sequence(s) if config.params["plain"] else alternating_sequence(s)
    cfg = EulerLimitConfig(ratio=config.t_ratio, k_max=max(config.k_max, 1), tolerance=config.tolerance)
    ref = reference_value(s)

    def rows_from(evaluations):
        return [_row(k, e.t, e.value, ref, e.wall_ms) for k, e in enumerate(evaluations)]

    try:
        res = euler_limit(seq, cfg)
    except EulerSumError as exc:
        exc.rows = rows_from(exc.evaluations)
        raise
    verdict = "converged" if res.converged else "unconverged"
    return rows_from(res.evaluations), res.value, res.error_estimate, verdict


def _run_well_integral(config: RunConfig):
    x, a, b = config.params["x"], config.params["a"], config.params["b"]
    if not (0.0 < x < sw.PI and 0.0 <= a < b <= sw.PI):
        raise InvalidConfig(f"well-integral needs 0 < x < pi and 0 <= a < b <= pi, got x={x}, a={a}, b={b}")
    value_at = lambda t: sw.k_interval_integral(sw.IntervalIntegralQuery(x=x, a=a, b=b, t=t))
    return _final_within_tol(config, _walk(config, value_at, 1.0 if a < x < b else 0.0))


def _run_action(config: RunConfig):
    """Sum the eigen-series f(t) = sum a_n t^n of the action on the fixed
    test function: y(pi - y) on the well, exp(-y^2) on the oscillator."""
    p = 0 if config.subcommand.endswith("delta") else 1
    tol = config.tolerance / INNER_TOL_FACTOR
    x = config.params["x"]
    if config.subcommand.startswith("well"):
        if not 0.0 < x < sw.PI:
            raise InvalidConfig(f"{config.subcommand} needs 0 < x < pi, got x={x}")
        seq = sw.well_action_sequence(x, p)
        value_at = lambda t: abel_eval(seq, t, tol).value
        reference = 1.0 if p else x * (sw.PI - x)
    else:
        coeffs = osc.osc_action_coefficients(x, p, tol)
        powers = np.arange(coeffs.size)
        value_at = lambda t: float(np.dot(coeffs, t ** powers))
        reference = (1.0 - 1.5 * x * x if p else 1.0) * math.exp(-x * x)

    rows = _walk(config, value_at, reference)
    verdict = "approaching" if _monotone_tail(rows) else "not-approaching"
    return rows, rows[-1].value, rows[-1].abs_error, verdict


_MEHLER_GRID = [float(v) for v in range(-2, 3)]


def _mehler_series_grid(t: float, tol: float) -> np.ndarray:
    """sum(t^n phi_n(x) phi_n(y)) on the check grid, truncated so the
    uniform tail bound sup|phi| ^2 t^(N+1)/(1-t) is below tol/10."""
    sup2 = 0.6667  # above sup_x |phi_n(x)|^2 <= pi^(-1/2) ~ 0.564 for all n (Indritz)
    n_max = 300
    if t > 0.0:
        need = math.log(tol * (1.0 - t) / (10.0 * sup2)) / math.log(t)
        n_max = max(n_max, int(need) + 1)
    n_max = min(n_max, 60000)
    table = osc._hermite_function_table(n_max, _MEHLER_GRID)
    tn = t ** np.arange(n_max + 1, dtype=np.float64)
    return np.einsum("n,ni,nj->ij", tn, table, table)


def _run_mehler_check(config: RunConfig):
    xs = np.asarray(_MEHLER_GRID)

    def max_gap(t: float) -> float:
        closed = osc._mehler(xs[:, None], xs[None, :], t)
        return float(np.max(np.abs(_mehler_series_grid(t, config.tolerance) - closed)))

    return _final_within_tol(config, _walk(config, max_gap, 0.0))


_SWEEP_KERNELS = {
    "well": sw._k,
    "well-h": sw._h,
    "osc": osc._mehler,
    "osc-h": osc._osc_h_y_route,
}


@np.errstate(all="ignore")  # a non-finite kernel value is reported as a DomainError
def sweep(config: RunConfig, grid) -> list:
    """Evaluate the selected kernel on every grid point (x, y) for each t in
    the schedule, one array call per t over the whole grid; rows are ordered
    by (point index, k), and a row's wall_time_ms is its share of that call."""
    if len(grid) == 0:
        raise InvalidConfig("sweep grid must be nonempty")
    kernel_name = config.params["kernel"]
    points = np.asarray(grid, dtype=np.float64)
    lo, hi = (0.0, sw.PI) if kernel_name.startswith("well") else (-math.inf, math.inf)
    if not np.all(np.isfinite(points) & (lo <= points) & (points <= hi)):
        raise InvalidConfig(f"sweep --kernel {kernel_name} needs finite x, y in [{lo:g}, {hi:g}]")
    xs, ys = points.T
    n, nk = xs.size, config.k_max + 1
    ts, walls, values = [], [], np.empty((n, nk))
    for k in range(nk):
        ts.append(1.0 - config.t_ratio ** k)
        start = time.perf_counter()
        values[:, k] = _SWEEP_KERNELS[kernel_name](xs, ys, ts[-1])
        walls.append((time.perf_counter() - start) * 1e3 / n)
    finite = np.isfinite(values)
    if not finite.all():
        i, k = np.unravel_index(np.argmin(finite), finite.shape)
        raise DomainError(f"sweep --kernel {kernel_name} is not finite at x={float(xs[i])!r}, "
                          f"y={float(ys[i])!r}, t={ts[k]!r}")
    columns = ([*range(nk)] * n, ts * n, values.ravel().tolist(), repeat(None), repeat(None), walls * n,
               np.repeat(xs, nk).tolist(), np.repeat(ys, nk).tolist())
    return list(map(tuple.__new__, repeat(SweepRow), zip(*columns)))


def _sweep_grid(config: RunConfig):
    p = config.params
    if (p["x"] is None) != (p["y"] is None):
        raise InvalidConfig("sweep takes --x and --y together, for a single point")
    if p["x"] is not None:
        if p["nx"] is not None or p["ny"] is not None:
            raise InvalidConfig("sweep takes --nx and --ny for a grid, not with --x and --y")
        return [(p["x"], p["y"])]
    nx, ny = (_GRID_SIDE if n is None else n for n in (p["nx"], p["ny"]))
    if nx < 1 or ny < 1:
        raise InvalidConfig("grid resolution must be positive")
    if nx * ny * (config.k_max + 1) > _MAX_SWEEP_ROWS:
        raise InvalidConfig(f"sweep of {nx}x{ny} points at k-max {config.k_max} "
                            f"would write more than {_MAX_SWEEP_ROWS} rows")
    lo, hi = (0.0, sw.PI) if p["kernel"].startswith("well") else (-3.0, 3.0)
    xs, ys = np.meshgrid(np.linspace(lo, hi, nx), np.linspace(lo, hi, ny), indexing="ij")
    return np.column_stack([xs.ravel(), ys.ravel()])


def _run_sweep(config: RunConfig):
    rows = sweep(config, _sweep_grid(config))
    return rows, max(abs(r.value) for r in rows), None, "ok"


# Each subcommand's runner, default k_max, parameters with their defaults
# (None: unset) and help line.  A runner returns (rows, value,
# error_estimate, verdict); run() alone turns that into the summary and the
# exit status.
_SUBCOMMANDS = {
    "zeta": (_run_zeta, 40, {"s": None, "plain": False}, "Euler-sum the alternating zeta series at s"),
    "well-delta": (_run_action, 10, {"x": 1.0}, "identity action of the square-well kernel on y(pi - y)"),
    "well-hamiltonian": (_run_action, 10, {"x": 1.0},
                         "Hamiltonian action of the square-well kernel on y(pi - y)"),
    "well-integral": (_run_well_integral, 40, {"x": 1.0, "a": 0.5, "b": 1.5},
                      "interval integral of the square-well kernel"),
    "osc-delta": (_run_action, 10, {"x": 0.5}, "identity action of the oscillator kernel on exp(-y^2)"),
    "osc-hamiltonian": (_run_action, 10, {"x": 0.5},
                        "Hamiltonian action of the oscillator kernel on exp(-y^2)"),
    "mehler-check": (_run_mehler_check, 8, {}, "closed form vs series on a fixed grid"),
    "sweep": (_run_sweep, 6, {"kernel": "well", "nx": None, "ny": None, "x": None, "y": None},
              "kernel values on a grid for each t"),
}

def run(config: RunConfig) -> int:
    """Execute one experiment: write the result file, print a one-line
    summary, return the exit status."""
    out = Path(config.output_path)
    if out.is_dir() or not out.parent.is_dir():
        why = "it is a directory" if out.is_dir() else "its directory does not exist"
        raise InvalidConfig(f"cannot write {str(out)!r}: {why}")
    try:
        rows, value, error_estimate, verdict = _SUBCOMMANDS[config.subcommand][0](config)
        summary = {"value": value, "error_estimate": error_estimate, "verdict": verdict}
    except InvalidConfig:
        raise
    except EulerSumError as exc:
        rows = getattr(exc, "rows", [])
        summary = {"verdict": type(exc).__name__, "detail": str(exc)}
    write_rows(config.output_path, rows, config.output_format)
    parts = [f"{k}={v:.12g}" if isinstance(v, float) else f"{k}={v}"
             for k, v in summary.items() if v is not None]
    print(" ".join([f"[{config.subcommand}]", *parts, f"file={config.output_path}"]))
    return 0 if summary["verdict"] in ("converged", "approaching", "ok") else 2


class _Parser(argparse.ArgumentParser):
    """argparse that raises instead of exiting, so usage errors map to 1."""

    def error(self, message):
        raise InvalidConfig(message)


_HELP = {
    "t-ratio": "schedule ratio r in t_k = 1 - r^k", "k-max": "deepest schedule index k",
    "tol": "convergence tolerance", "output": "result file path", "format": "result file format: csv or json",
    "config": "JSON file with flag defaults (flags win)", "s": "evaluation point",
    "plain": "Euler-sum the raw series sum(n^-s) instead (fails for s <= 1)", "x": "evaluation point x",
    "y": "with --x, one sweep point instead of a grid", "a": "interval start", "b": "interval end",
    "kernel": f"sweep kernel: {', '.join(_SWEEP_KERNELS)}", "nx": f"grid points in x (default {_GRID_SIDE})",
    "ny": f"grid points in y (default {_GRID_SIDE})",
}


@lru_cache(maxsize=None)  # built once: parse_args keeps no state on the parser
def build_parser() -> argparse.ArgumentParser:
    """One subparser per _SUBCOMMANDS entry, taking its parameters, the
    RunConfig fields and --config.  Flags are read as text and left None
    when absent; RunConfig types them as it types config-file values."""
    parser = _Parser(prog="eulersum", description=__doc__.splitlines()[0])
    subs = parser.add_subparsers(dest="subcommand", required=True)
    for name, (_, _, defaults, help_line) in _SUBCOMMANDS.items():
        sub = subs.add_parser(name, help=help_line)
        for key in (*defaults, *_FIELDS, "config"):
            action = "store_true" if _TYPES.get(key) is bool else "store"
            sub.add_argument(f"--{key}", action=action, default=None, help=_HELP[key])
    return parser


def _build_config(args: argparse.Namespace) -> RunConfig:
    """The RunConfig of parsed flags over the --config file's values; a
    value that is null, or a key the subcommand does not take, is unset."""
    file_values = {}
    if args.config is not None:
        try:
            file_values = json.loads(Path(args.config).read_text(encoding="utf-8"))
        except (OSError, json.JSONDecodeError) as exc:
            raise InvalidConfig(f"cannot read config file {args.config!r}: {exc}")
        if not isinstance(file_values, dict):
            raise InvalidConfig("config file must hold a flat JSON object")
    given = {}
    for key in (*_FIELDS, *_SUBCOMMANDS[args.subcommand][2]):
        value = getattr(args, key.replace("-", "_"))
        value = file_values.get(key) if value is None else value
        if value is not None:
            given[key] = value
    params = {key: given.pop(key) for key in _SUBCOMMANDS[args.subcommand][2] if key in given}
    return RunConfig(args.subcommand, **{_FIELDS[key]: value for key, value in given.items()}, params=params)


def main(argv=None) -> int:
    try:
        return run(_build_config(build_parser().parse_args(argv)))
    except InvalidConfig as exc:
        print(f"error: {exc}", file=sys.stderr)
        return 1


if __name__ == "__main__":
    sys.exit(main())
