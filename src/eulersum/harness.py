"""Command-line harness: reproducible experiments with plot-ready output.

Each subcommand walks a regulator schedule t_k = 1 - r^k, records one
result row per k (plus grid coordinates for sweeps) and writes the rows
to CSV or JSON through ``eulersum.rows``.  Rows are deterministic for a
given configuration; the wall_time_ms column is measured and varies.

Exit codes: 0 converged/success, 1 usage or configuration error,
2 numerical non-convergence or a downstream numerical error (the error
name appears in the summary line).
"""

from __future__ import annotations

import argparse
import contextlib
import json
import math
import sys
import time
from dataclasses import dataclass, field
from functools import lru_cache
from itertools import repeat
from operator import itemgetter
from pathlib import Path
from typing import Optional

import numpy as np

from . import oscillator as osc
from . import square_well as sw
from .errors import DomainError, EulerSumError, InvalidConfig, TailNotBounded
from .resummation import (_BLOCK_MIN, DEFAULT_TERM_BUDGET, INNER_TOL_FACTOR, EulerLimitConfig, _certified_terms,
                          _power_table, euler_limit, schedule)
# Unused here, but perfbench/spans.py wraps harness.abel_eval by name.
from .resummation import abel_eval
# run() looks write_rows up here when it writes, and read_rows is unused here,
# so that perfbench/spans.py can wrap harness.write_rows and harness.read_rows by name.
from .rows import ResultRow, SweepRow, _collector_paused, read_rows, write_rows
from .zeta import alternating_sequence, plain_sequence, reference_value

# A sweep writes nx * ny * (k_max + 1) rows; the largest grid is refused
# before it is built.
_MAX_SWEEP_ROWS = 10 ** 6
# Grid points per axis of a sweep without --nx/--ny.
_GRID_SIDE = 50

_SWEEP_KERNELS = {
    "well": sw._k,
    "well-h": sw._h,
    "osc": osc._mehler,
    "osc-h": osc._osc_h_y_route,
}

# The type and help line of every input, by flag name.  The type applies
# whether the value comes from a flag, a config file or a library
# RunConfig(...): booleans are not numbers, an int must be integral (a
# numeral string is read as --k-max reads it), and a float must be finite.
_FLAGS = {
    "t-ratio": (float, "schedule ratio r in t_k = 1 - r^k"),
    "k-max": (int, "deepest schedule index k"),
    "tol": (float, "convergence tolerance"),
    "output": (str, "result file path"),
    "format": (str, "result file format: csv or json"),
    "config": (str, "JSON file with flag defaults (flags win)"),
    "s": (float, "evaluation point"),
    "plain": (bool, "Euler-sum the raw series sum(n^-s) instead (no sum for s < 1, too slow for 1 < s < 2.2)"),
    "x": (float, "evaluation point x"),
    "y": (float, "with --x, one sweep point instead of a grid"),
    "a": (float, "interval start"),
    "b": (float, "interval end"),
    "kernel": (str, f"sweep kernel: {', '.join(_SWEEP_KERNELS)}"),
    "nx": (int, f"grid points in x (default {_GRID_SIDE})"),
    "ny": (int, f"grid points in y (default {_GRID_SIDE})"),
}

# RunConfig's fields by the flag that sets them.
_FIELDS = {"t-ratio": "t_ratio", "k-max": "k_max", "tol": "tolerance",
           "output": "output_path", "format": "output_format"}


def _typed(key: str, value):
    """``value`` as the type _FLAGS gives ``key``, or InvalidConfig."""
    kind = _FLAGS[key][0]
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

    Construction types every value once (``_FLAGS``) and fills an unset
    ``k_max``, ``output_path`` and parameter from the subcommand's defaults,
    so ``params`` holds exactly the subcommand's parameters, typed.  It is
    the one place that refuses a schedule: k-max must lie in [1, 60] ([0,
    60] for sweep), no t_k the run needs may round to 1.0, and zeta's
    t-ratio may not be so small that the term budget ends its schedule at
    t_0 = 0.
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
        k_min = 0 if self.subcommand == "sweep" else 1
        if not k_min <= self.k_max <= 60:
            raise InvalidConfig(f"k-max must lie in [{k_min}, 60]")
        # zeta's k-max is a ceiling: euler_limit stops where the schedule
        # saturates, so only its first point past t_0 = 0 must lie below 1.
        k_last = 1 if self.subcommand == "zeta" else self.k_max
        if len(schedule(self.t_ratio, k_last)) <= k_last:
            raise InvalidConfig(f"t-ratio {self.t_ratio!r} puts t_{k_last} = 1 - r^{k_last} "
                                "at 1.0 in double precision")
        # euler_limit stops before a point that would need more than the term
        # budget, terms_used / r of the last: at t_0 = 0 one block of _BLOCK_MIN.
        if self.subcommand == "zeta" and _BLOCK_MIN / self.t_ratio > DEFAULT_TERM_BUDGET:
            raise InvalidConfig(f"t-ratio {self.t_ratio!r} is below {_BLOCK_MIN}/{DEFAULT_TERM_BUDGET}: "
                                "the term budget would end the schedule at t_0 = 0")
        if not self.tolerance / INNER_TOL_FACTOR > 0.0:  # a positive tol can underflow here
            raise InvalidConfig(f"tolerance {self.tolerance!r} must be positive, and so must the inner "
                                f"tolerance tol/{INNER_TOL_FACTOR:g} in double precision")
        if self.output_format not in ("csv", "json"):
            raise InvalidConfig(f"unknown output format {self.output_format!r}")
        if self.subcommand == "sweep" and self.params["kernel"] not in _SWEEP_KERNELS:
            raise InvalidConfig(f"unknown sweep kernel {self.params['kernel']!r}")


def _row(k: int, t: float, value: float, reference: Optional[float], wall_ms: float) -> ResultRow:
    err = None if reference is None else abs(value - reference)
    return ResultRow(k=k, t=t, value=value, reference=reference, abs_error=err, wall_time_ms=wall_ms)


def _evaluation_rows(evaluations: list, reference: Optional[float], k0: int) -> list:
    """One row per AbelEvaluation, numbered from k0, timed by its wall_ms."""
    return [_row(k, e.t, e.value, reference, e.wall_ms) for k, e in enumerate(evaluations, k0)]


def _walk(config: RunConfig, value_at, reference: float) -> list:
    """One row per schedule point t_k = 1 - r^k, k = 1 .. k_max: the timed
    value_at(t_k) and its error against ``reference``.  An EulerSumError
    leaves with the rows made before it as ``rows``."""
    rows = []
    for k, t_k in enumerate(schedule(config.t_ratio, config.k_max)[1:], 1):
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


def _monotone_tail(rows: list, floor: float) -> bool:
    """The last error is within ``floor``, or the errors fall strictly over the last four steps (all, if fewer)."""
    tail = [r.abs_error for r in rows if r.abs_error is not None][-5:]
    return len(tail) >= 2 and (tail[-1] <= floor or all(b < a for a, b in zip(tail, tail[1:])))


def _run_zeta(config: RunConfig):
    s = config.params["s"]
    if s is None:
        raise InvalidConfig("zeta requires --s")
    if s == 1.0:
        raise InvalidConfig("zeta has a pole at s = 1")
    seq = plain_sequence(s) if config.params["plain"] else alternating_sequence(s)
    cfg = EulerLimitConfig(ratio=config.t_ratio, k_max=config.k_max, tolerance=config.tolerance)
    ref = reference_value(s)
    try:
        res = euler_limit(seq, cfg)
    except EulerSumError as exc:
        exc.rows = _evaluation_rows(exc.evaluations, ref, 0)
        raise
    verdict = "converged" if res.converged else "unconverged"
    return _evaluation_rows(res.evaluations, ref, 0), res.value, res.error_estimate, verdict


def _run_well_integral(config: RunConfig):
    x, a, b = config.params["x"], config.params["a"], config.params["b"]
    if not (0.0 < x < sw.PI and 0.0 <= a < b <= sw.PI):
        raise InvalidConfig(f"well-integral needs 0 < x < pi and 0 <= a < b <= pi, got x={x}, a={a}, b={b}")
    value_at = lambda t: sw.k_interval_integral(sw.IntervalIntegralQuery(x=x, a=a, b=b, t=t))
    return _final_within_tol(config, _walk(config, value_at, 1.0 if a < x < b else 0.0))


def _run_action(config: RunConfig):
    """Sum the eigen-series f(t) = sum a_n t^n of the action on the fixed
    test function at every t_k.  On the well, g = y(pi - y): the rows are
    square_well.well_action_evaluations, one pass over odd n whose prefix
    per t_k has a certified tail within tol/INNER_TOL_FACTOR.  On the
    oscillator, g = exp(-y^2): one dot product per t_k with coefficients
    truncated once for every t."""
    p = 0 if config.subcommand.endswith("delta") else 1
    tol = config.tolerance / INNER_TOL_FACTOR
    x = config.params["x"]
    if config.subcommand.startswith("well"):
        if not 0.0 < x < sw.PI:
            raise InvalidConfig(f"{config.subcommand} needs 0 < x < pi, got x={x}")
        reference = 1.0 if p else x * (sw.PI - x)
        ts = schedule(config.t_ratio, config.k_max)[1:]
        try:
            rows = _evaluation_rows(sw.well_action_evaluations(x, p, ts, tol), reference, 1)
        except EulerSumError as exc:
            exc.rows = _evaluation_rows(exc.evaluations, reference, 1)
            raise
    else:
        coeffs = osc.osc_action_coefficients(x, p, tol)
        # exp(-x^2) is 0 long before 1.5 x^2 overflows (|x| ~ 1.1e154) into inf * 0
        reference = (1.0 - 1.5 * x * x if p else 1.0) * math.exp(-x * x) if abs(x) < 1e154 else 0.0
        rows = _walk(config, lambda t: float(np.dot(coeffs, _power_table(t, coeffs.size)[:coeffs.size])), reference)
    verdict = "approaching" if _monotone_tail(rows, tol) else "not-approaching"
    return rows, rows[-1].value, rows[-1].abs_error, verdict


_MEHLER_GRID = [float(v) for v in range(-2, 3)]
# The Mehler series is summed to at most this index.
_MEHLER_MAX_TERMS = 60000


def _run_mehler_check(config: RunConfig):
    """Per t_k, max |series - closed form| on the check grid.  Each t_k sums
    n <= N, the least N >= 300 whose uniform tail bound sup|phi|^2
    t^(N+1)/(1-t) is within tol/10, as a prefix of one Hermite table built
    for the deepest such N up to _MEHLER_MAX_TERMS.  A t_k past it raises
    TailNotBounded, and the rows before it stay."""
    xs, tol = np.asarray(_MEHLER_GRID), config.tolerance / 10.0
    sizes = {}  # N at each t_k, up to the first whose tail no term budget bounds
    with contextlib.suppress(TailNotBounded):
        for t in schedule(config.t_ratio, config.k_max)[1:]:
            # 0.6667 is above sup_x |phi_n(x)|^2 <= pi^(-1/2) ~ 0.564 for all n (Indritz)
            sizes[t] = max(300, _certified_terms(0.6667, 0.0, t, tol))
    table = osc._hermite_function_table(max((n for n in sizes.values() if n <= _MEHLER_MAX_TERMS),
                                            default=0), xs)

    def max_gap(t: float) -> float:
        n = sizes.get(t, math.inf)
        if n > _MEHLER_MAX_TERMS:
            raise TailNotBounded(f"Mehler tail not bounded below tol/10={tol!r} "
                                 f"within {_MEHLER_MAX_TERMS} terms at t={t!r}")
        rows = table[:n + 1]
        series = np.einsum("n,ni,nj->ij", t ** np.arange(len(rows), dtype=np.float64), rows, rows)
        return float(np.max(np.abs(series - osc._mehler(xs[:, None], xs[None, :], t))))

    return _final_within_tol(config, _walk(config, max_gap, 0.0))


@np.errstate(all="ignore")  # a non-finite kernel value is reported as a DomainError
@_collector_paused
def sweep(config: RunConfig, grid) -> list:
    """Evaluate the selected kernel on every grid point (x, y) for each t in
    the schedule, one array call per t over the whole grid; rows are ordered
    by (point index, k), and a row's wall_time_ms is its share of that call."""
    try:
        points = np.asarray(grid, dtype=np.float64)
    except (TypeError, ValueError):  # ragged, or not numbers
        points = np.empty(0)
    if points.shape[1:] != (2,) or not points.size:
        raise InvalidConfig("sweep grid must be a nonempty list of (x, y) points")
    kernel_name = config.params["kernel"]
    lo, hi = (0.0, sw.PI) if kernel_name.startswith("well") else (-math.inf, math.inf)
    if not np.all(np.isfinite(points) & (lo <= points) & (points <= hi)):
        raise InvalidConfig(f"sweep --kernel {kernel_name} needs finite x, y in [{lo:g}, {hi:g}]")
    xs, ys = points.T
    n, nk = xs.size, config.k_max + 1
    ts, walls, values = schedule(config.t_ratio, config.k_max), [], np.empty((n, nk))
    for k, t in enumerate(ts):
        start = time.perf_counter()
        values[:, k] = _SWEEP_KERNELS[kernel_name](xs, ys, t)
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
    return rows, max(map(abs, map(itemgetter(2), rows))), None, "ok"


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
        summary = {"value": exc.value, "error_estimate": exc.error_estimate, "verdict": type(exc).__name__,
                   "detail": str(exc)}
    row_type = SweepRow if config.subcommand == "sweep" else ResultRow
    write_rows(config.output_path, rows, config.output_format, row_type)
    parts = [f"{k}={v:.12g}" if isinstance(v, float) else f"{k}={v}"
             for k, v in summary.items() if v is not None]
    print(" ".join([f"[{config.subcommand}]", *parts, f"file={config.output_path}"]))
    return 0 if summary["verdict"] in ("converged", "approaching", "ok") else 2


class _Parser(argparse.ArgumentParser):
    """argparse that raises instead of exiting, so usage errors map to 1."""

    def error(self, message):
        raise InvalidConfig(message)


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
            kind, flag_help = _FLAGS[key]
            action = "store_true" if kind is bool else "store"
            sub.add_argument(f"--{key}", action=action, default=None, help=flag_help)
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
