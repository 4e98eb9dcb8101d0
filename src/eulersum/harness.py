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
from pathlib import Path
from typing import Optional

import numpy as np

from . import oscillator as osc
from . import square_well as sw
from .errors import EulerSumError, InvalidConfig, NoEulerSum
from .quadrature import QuadratureSpec
# abel_eval is unused here; it stays bound because perfbench/spans.py rebinds harness.abel_eval.
from .resummation import EulerLimitConfig, abel_eval, euler_limit
from .zeta import alternating_sequence, plain_sequence, reference_value

SUBCOMMANDS = (
    "zeta",
    "well-delta",
    "well-hamiltonian",
    "well-integral",
    "osc-delta",
    "osc-hamiltonian",
    "mehler-check",
    "sweep",
)

# Schedules beyond these depths are either pointless (closed forms already
# converged) or noise-dominated (quadrature against 1/(1-t)^3 peaks).
_DEFAULT_K_MAX = {
    "zeta": 40,
    "well-delta": 10,
    "well-hamiltonian": 10,
    "well-integral": 40,
    "osc-delta": 10,
    "osc-hamiltonian": 10,
    "mehler-check": 8,
    "sweep": 6,
}

_CSV_FIELDS = ("k", "t", "value", "reference", "abs_error", "wall_time_ms")


@dataclass(frozen=True)
class RunConfig:
    """A fully resolved experiment invocation."""

    subcommand: str
    t_ratio: float = 0.5
    k_max: Optional[int] = None
    tolerance: float = 1e-8
    quadrature: QuadratureSpec = field(default_factory=QuadratureSpec)
    output_path: Optional[str] = None
    output_format: str = "csv"
    strict: bool = False
    params: dict = field(default_factory=dict)

    def __post_init__(self):
        if self.subcommand not in SUBCOMMANDS:
            raise InvalidConfig(f"unknown subcommand {self.subcommand!r}")
        if not 0.0 < self.t_ratio < 1.0:
            raise InvalidConfig("t-ratio must lie in (0, 1)")
        if self.k_max is not None and not 0 <= self.k_max <= 60:
            raise InvalidConfig("k-max must lie in [0, 60]")
        if not 0.0 < self.tolerance < math.inf:
            raise InvalidConfig("tolerance must be finite and positive")
        for key in {"s", "x", "y", "a", "b"} & self.params.keys():
            try:
                finite = math.isfinite(float(self.params[key]))
            except (TypeError, ValueError):
                finite = False
            if not finite:
                raise InvalidConfig(f"--{key} must be a finite number")
        if self.output_format not in ("csv", "json"):
            raise InvalidConfig(f"unknown output format {self.output_format!r}")

    @property
    def resolved_k_max(self) -> int:
        return self.k_max if self.k_max is not None else _DEFAULT_K_MAX[self.subcommand]

    @property
    def resolved_output(self) -> str:
        if self.output_path is not None:
            return self.output_path
        return f"{self.subcommand}.{self.output_format}"


@dataclass(frozen=True)
class ResultRow:
    """One schedule point: t = 1 - r^k and the value computed there."""

    k: int
    t: float
    value: float
    reference: Optional[float] = None
    abs_error: Optional[float] = None
    wall_time_ms: float = 0.0


@dataclass(frozen=True)
class SweepRow(ResultRow):
    """A ResultRow tagged with the grid point it was evaluated at."""

    x: float = 0.0
    y: float = 0.0


def _fmt_cell(v) -> str:
    if v is None:
        return ""
    if isinstance(v, int):
        return str(v)
    return repr(float(v))


def write_rows(path: str, rows: list, output_format: str) -> None:
    """Serialise rows; float cells use repr so parsing round-trips exactly."""
    is_sweep = bool(rows) and isinstance(rows[0], SweepRow)
    names = _CSV_FIELDS + (("x", "y") if is_sweep else ())
    if output_format == "csv":
        buf = io.StringIO()
        writer = csv.writer(buf, lineterminator="\n")
        writer.writerow(names)
        for r in rows:
            writer.writerow([_fmt_cell(getattr(r, n)) for n in names])
        text = buf.getvalue()
    else:
        payload = {"rows": [{n: getattr(r, n) for n in names} for r in rows]}
        text = json.dumps(payload, indent=2, sort_keys=True) + "\n"
    Path(path).write_text(text, encoding="utf-8")


def read_rows(path: str) -> list:
    """Parse a result file back into ResultRow/SweepRow objects."""
    text = Path(path).read_text(encoding="utf-8")
    records = []
    if text.lstrip().startswith("{"):
        for rec in json.loads(text)["rows"]:
            records.append(dict(rec))
    else:
        reader = csv.DictReader(io.StringIO(text))
        for rec in reader:
            records.append(
                {k: (None if v == "" else v) for k, v in rec.items()}
            )
    rows = []
    for rec in records:
        cls = SweepRow if "x" in rec else ResultRow
        kwargs = {
            "k": int(rec["k"]),
            "t": float(rec["t"]),
            "value": float(rec["value"]),
            "reference": None if rec.get("reference") is None else float(rec["reference"]),
            "abs_error": None if rec.get("abs_error") is None else float(rec["abs_error"]),
            "wall_time_ms": float(rec["wall_time_ms"]),
        }
        if cls is SweepRow:
            kwargs["x"] = float(rec["x"])
            kwargs["y"] = float(rec["y"])
        rows.append(cls(**kwargs))
    return rows


def _schedule(config: RunConfig, k_start: int = 1) -> list:
    return [(k, 1.0 - config.t_ratio ** k) for k in range(k_start, config.resolved_k_max + 1)]


def _row(k: int, t: float, value: float, reference: Optional[float], wall_ms: float) -> ResultRow:
    err = None if reference is None else abs(value - reference)
    return ResultRow(k=k, t=t, value=value, reference=reference, abs_error=err, wall_time_ms=wall_ms)


def _monotone_tail(rows: list, window: int = 4) -> bool:
    errs = [r.abs_error for r in rows if r.abs_error is not None]
    if len(errs) < 2:
        return False
    tail = errs[-min(window + 1, len(errs)):]
    return all(tail[i + 1] < tail[i] for i in range(len(tail) - 1))


def _run_zeta(config: RunConfig):
    if "s" not in config.params:
        raise InvalidConfig("zeta requires --s")
    s = float(config.params["s"])
    if s == 1.0:
        raise InvalidConfig("zeta has a pole at s = 1")
    seq = plain_sequence(s) if config.params.get("plain") else alternating_sequence(s)
    cfg = EulerLimitConfig(
        ratio=config.t_ratio,
        k_max=max(config.resolved_k_max, 1),
        tolerance=config.tolerance,
    )
    ref = reference_value(s)

    def rows_from(evaluations):
        return [_row(k, e.t, e.value, ref, e.wall_ms) for k, e in enumerate(evaluations)]

    try:
        res = euler_limit(seq, cfg)
    except NoEulerSum as exc:
        return rows_from(exc.evaluations), {
            "verdict": "NoEulerSum",
            "detail": str(exc),
        }, 2
    rows = rows_from(res.evaluations)
    verdict = "converged" if res.converged else "unconverged"
    return rows, {
        "value": res.value,
        "error_estimate": res.error_estimate,
        "verdict": verdict,
    }, 0 if res.converged else 2


def _run_well_integral(config: RunConfig):
    p = config.params
    x, a, b = float(p.get("x", 1.0)), float(p.get("a", 0.5)), float(p.get("b", 1.5))
    reference = 1.0 if a < x < b else 0.0
    rows = []
    for k, t_k in _schedule(config):
        start = time.perf_counter()
        value = sw.k_interval_integral(sw.IntervalIntegralQuery(x=x, a=a, b=b, t=t_k))
        wall = (time.perf_counter() - start) * 1e3
        rows.append(_row(k, t_k, value, reference, wall))
    final = rows[-1]
    converged = final.abs_error <= config.tolerance
    return rows, {
        "value": final.value,
        "error_estimate": final.abs_error,
        "verdict": "converged" if converged else "unconverged",
    }, 0 if converged else 2


def _default_well_g():
    g = lambda y: y * (sw.PI - y)
    return g, (lambda x: x * (sw.PI - x)), (lambda x: 1.0)


def _default_osc_g():
    g = lambda y: np.exp(-np.asarray(y, dtype=np.float64) ** 2)
    ident = lambda x: math.exp(-x * x)
    hamil = lambda x: (1.0 - 1.5 * x * x) * math.exp(-x * x)
    return g, ident, hamil


def _run_action(config: RunConfig):
    p = config.params
    if config.subcommand.startswith("well"):
        x = float(p.get("x", 1.0))
        g, ident_ref, hamil_ref = _default_well_g()
        action = lambda t, op: sw.well_action(x, t, g, config.quadrature, operator=op)
    else:
        x = float(p.get("x", 0.5))
        g, ident_ref, hamil_ref = _default_osc_g()
        action = lambda t, op: osc.osc_action(x, t, g, config.quadrature, operator=op)
    op = "identity" if config.subcommand.endswith("delta") else "hamiltonian"
    reference = ident_ref(x) if op == "identity" else hamil_ref(x)

    rows = []
    for k, t_k in _schedule(config):
        start = time.perf_counter()
        value = action(t_k, op)
        wall = (time.perf_counter() - start) * 1e3
        rows.append(_row(k, t_k, value, reference, wall))
    approaching = _monotone_tail(rows)
    final = rows[-1]
    return rows, {
        "value": final.value,
        "error_estimate": final.abs_error,
        "verdict": "approaching" if approaching else "not-approaching",
    }, 0 if approaching else 2


_MEHLER_GRID = [float(v) for v in range(-2, 3)]


def _mehler_series_grid(t: float, tol: float) -> np.ndarray:
    """sum(t^n phi_n(x) phi_n(y)) on the check grid, truncated so the
    uniform tail bound sup|phi| ^2 t^(N+1)/(1-t) is below tol/10."""
    sup2 = 0.6667  # sup_x |phi_n(x)|^2 < 0.82^2 for all n
    n_max = 300
    if t > 0.0:
        need = math.log(tol * (1.0 - t) / (10.0 * sup2)) / math.log(t)
        n_max = max(n_max, int(need) + 1)
    n_max = min(n_max, 60000)
    xs = np.asarray(_MEHLER_GRID)
    table = np.empty((n_max + 1, xs.size))
    phi_prev = math.pi ** (-0.25) * np.exp(-0.5 * xs * xs)
    table[0] = phi_prev
    phi = math.sqrt(2.0) * xs * phi_prev
    if n_max >= 1:
        table[1] = phi
    for m in range(1, n_max):
        phi_prev, phi = phi, math.sqrt(2.0 / (m + 1)) * xs * phi - math.sqrt(m / (m + 1.0)) * phi_prev
        table[m + 1] = phi
    tn = t ** np.arange(n_max + 1, dtype=np.float64)
    return np.einsum("n,ni,nj->ij", tn, table, table)


def _run_mehler_check(config: RunConfig):
    rows = []
    xs = np.asarray(_MEHLER_GRID)
    for k, t_k in _schedule(config):
        start = time.perf_counter()
        series = _mehler_series_grid(t_k, config.tolerance)
        closed = osc._mehler(xs[:, None], xs[None, :], t_k)
        value = float(np.max(np.abs(series - closed)))
        wall = (time.perf_counter() - start) * 1e3
        rows.append(_row(k, t_k, value, 0.0, wall))
    final = rows[-1]
    converged = final.value <= config.tolerance
    return rows, {
        "value": final.value,
        "error_estimate": final.value,
        "verdict": "converged" if converged else "unconverged",
    }, 0 if converged else 2


_SWEEP_KERNELS = {
    "well": lambda x, y, t: float(sw._k(x, y, t)),
    "well-h": lambda x, y, t: float(sw._h(x, y, t)),
    "osc": lambda x, y, t: float(osc._mehler(x, y, t)),
    "osc-h": lambda x, y, t: float(osc._osc_h_y_route(x, y, t)),
}


def sweep(config: RunConfig, grid: list) -> list:
    """Evaluate the selected kernel on every grid point for each t in the
    schedule; rows are ordered by (point index, k)."""
    if not grid:
        raise InvalidConfig("sweep grid must be nonempty")
    kernel_name = str(config.params.get("kernel", "well"))
    if kernel_name not in _SWEEP_KERNELS:
        raise InvalidConfig(f"unknown sweep kernel {kernel_name!r}")
    kernel = _SWEEP_KERNELS[kernel_name]
    rows = []
    for x, y in grid:
        for k in range(0, config.resolved_k_max + 1):
            t_k = 1.0 - config.t_ratio ** k
            start = time.perf_counter()
            value = kernel(float(x), float(y), t_k)
            wall = (time.perf_counter() - start) * 1e3
            rows.append(
                SweepRow(k=k, t=t_k, value=value, reference=None, abs_error=None,
                         wall_time_ms=wall, x=float(x), y=float(y))
            )
    return rows


def _sweep_grid(config: RunConfig) -> list:
    if "x" in config.params and "y" in config.params:
        return [(float(config.params["x"]), float(config.params["y"]))]
    nx = int(config.params.get("nx", 50))
    ny = int(config.params.get("ny", 50))
    if nx < 1 or ny < 1:
        raise InvalidConfig("grid resolution must be positive")
    kernel_name = str(config.params.get("kernel", "well"))
    if kernel_name.startswith("well"):
        xs = np.linspace(0.0, sw.PI, nx)
        ys = np.linspace(0.0, sw.PI, ny)
    else:
        xs = np.linspace(-3.0, 3.0, nx)
        ys = np.linspace(-3.0, 3.0, ny)
    return [(float(x), float(y)) for x in xs for y in ys]


def _run_sweep(config: RunConfig):
    rows = sweep(config, _sweep_grid(config))
    return rows, {
        "value": max(abs(r.value) for r in rows),
        "error_estimate": None,
        "verdict": "ok",
    }, 0


_RUNNERS = {
    "zeta": _run_zeta,
    "well-delta": _run_action,
    "well-hamiltonian": _run_action,
    "well-integral": _run_well_integral,
    "osc-delta": _run_action,
    "osc-hamiltonian": _run_action,
    "mehler-check": _run_mehler_check,
    "sweep": _run_sweep,
}


def _summary_line(config: RunConfig, summary: dict) -> str:
    parts = [f"[{config.subcommand}]"]
    for key in ("value", "error_estimate", "verdict", "detail"):
        if key in summary and summary[key] is not None:
            v = summary[key]
            parts.append(f"{key}={v:.12g}" if isinstance(v, float) else f"{key}={v}")
    parts.append(f"file={config.resolved_output}")
    return " ".join(parts)


def run(config: RunConfig) -> int:
    """Execute one experiment: write the result file, print a one-line
    summary, return the exit status."""
    try:
        rows, summary, status = _RUNNERS[config.subcommand](config)
    except InvalidConfig:
        raise
    except EulerSumError as exc:
        partial = getattr(exc, "evaluations", None) or []
        rows = [_row(k, e.t, e.value, None, e.wall_ms) for k, e in enumerate(partial)]
        summary = {"verdict": type(exc).__name__, "detail": str(exc)}
        status = 2
    write_rows(config.resolved_output, rows, config.output_format)
    print(_summary_line(config, summary))
    return status


class _Parser(argparse.ArgumentParser):
    """argparse that raises instead of exiting, so usage errors map to 1."""

    def error(self, message):
        raise InvalidConfig(message)


def _add_common(sub: argparse.ArgumentParser) -> None:
    sub.add_argument("--t-ratio", type=float, default=None, help="schedule ratio r in t_k = 1 - r^k")
    sub.add_argument("--k-max", type=int, default=None, help="deepest schedule index k")
    sub.add_argument("--tol", type=float, default=None, help="convergence tolerance")
    sub.add_argument("--quad-nodes", type=int, default=None, help="Gauss-Legendre nodes per panel")
    sub.add_argument("--output", default=None, help="result file path")
    sub.add_argument("--format", choices=("csv", "json"), default=None, help="result file format")
    sub.add_argument("--config", default=None, help="JSON file with flag defaults (flags win)")
    sub.add_argument("--strict", action="store_true", default=None,
                     help="escalate soft numerical warnings to exit status 2")


@lru_cache(maxsize=None)  # built once: parse_args keeps no state on the parser
def build_parser() -> argparse.ArgumentParser:
    parser = _Parser(prog="eulersum", description=__doc__.splitlines()[0])
    subs = parser.add_subparsers(dest="subcommand", required=True)

    p = subs.add_parser("zeta", help="Euler-sum the alternating zeta series at s")
    p.add_argument("--s", type=float, default=None, help="evaluation point")
    p.add_argument("--plain", action="store_true", default=None,
                   help="Euler-sum the raw series sum(n^-s) instead (fails for s <= 1)")
    _add_common(p)

    for name, desc in (
        ("well-delta", "identity action of the square-well kernel on y(pi - y)"),
        ("well-hamiltonian", "Hamiltonian action of the square-well kernel on y(pi - y)"),
        ("osc-delta", "identity action of the oscillator kernel on exp(-y^2)"),
        ("osc-hamiltonian", "Hamiltonian action of the oscillator kernel on exp(-y^2)"),
    ):
        p = subs.add_parser(name, help=desc)
        p.add_argument("--x", type=float, default=None, help="evaluation point x")
        _add_common(p)

    p = subs.add_parser("well-integral", help="interval integral of the square-well kernel")
    p.add_argument("--x", type=float, default=None)
    p.add_argument("--a", type=float, default=None)
    p.add_argument("--b", type=float, default=None)
    _add_common(p)

    p = subs.add_parser("mehler-check", help="closed form vs series on a fixed grid")
    _add_common(p)

    p = subs.add_parser("sweep", help="kernel values on a grid for each t")
    p.add_argument("--kernel", choices=sorted(_SWEEP_KERNELS), default=None)
    p.add_argument("--nx", type=int, default=None)
    p.add_argument("--ny", type=int, default=None)
    p.add_argument("--x", type=float, default=None, help="evaluate a single point instead of a grid")
    p.add_argument("--y", type=float, default=None)
    _add_common(p)
    return parser


_PARAM_KEYS = ("s", "plain", "x", "y", "a", "b", "kernel", "nx", "ny")


def _build_config(args: argparse.Namespace) -> RunConfig:
    file_values = {}
    if args.config is not None:
        try:
            file_values = json.loads(Path(args.config).read_text(encoding="utf-8"))
        except (OSError, json.JSONDecodeError) as exc:
            raise InvalidConfig(f"cannot read config file {args.config!r}: {exc}")
        if not isinstance(file_values, dict):
            raise InvalidConfig("config file must hold a flat JSON object")

    def pick(flag: str, default):
        cli = getattr(args, flag.replace("-", "_"), None)
        if cli is not None:
            return cli
        if flag in file_values:
            return file_values[flag]
        return default

    quad_kwargs = {}
    if pick("quad-nodes", None) is not None:
        quad_kwargs["nodes_per_panel"] = int(pick("quad-nodes", 64))
    if "quad-tolerance" in file_values:
        quad_kwargs["tolerance"] = float(file_values["quad-tolerance"])
    if "quad-refinements" in file_values:
        quad_kwargs["max_refinements"] = int(file_values["quad-refinements"])

    params = {}
    for key in _PARAM_KEYS:
        value = pick(key, None)
        if value is not None:
            params[key] = value

    return RunConfig(
        subcommand=args.subcommand,
        t_ratio=float(pick("t-ratio", 0.5)),
        k_max=None if pick("k-max", None) is None else int(pick("k-max", None)),
        tolerance=float(pick("tol", 1e-8)),
        quadrature=QuadratureSpec(**quad_kwargs),
        output_path=pick("output", None),
        output_format=str(pick("format", "csv")),
        strict=bool(pick("strict", False)),
        params=params,
    )


def main(argv=None) -> int:
    parser = build_parser()
    try:
        args = parser.parse_args(argv)
        config = _build_config(args)
    except InvalidConfig as exc:
        print(f"error: {exc}", file=sys.stderr)
        return 1
    try:
        return run(config)
    except InvalidConfig as exc:
        print(f"error: {exc}", file=sys.stderr)
        return 1
    except EulerSumError as exc:
        print(f"[{config.subcommand}] verdict={type(exc).__name__} detail={exc}")
        return 2


if __name__ == "__main__":
    sys.exit(main())
