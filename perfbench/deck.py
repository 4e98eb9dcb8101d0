"""Seeded op lists ("decks") for the eulersum benchmark workloads.

A deck is the fixed list of CLI invocations one pass of a workload runs.
Everything in it comes from the seed: the parameter draws, the output
formats and the order.  Two builds with the same seed give identical argv.

Parameters whose cost is smooth in the parameter are drawn per seed by
stratified sampling (one uniform draw in each of n equal strata), so the
total work of a pass barely moves between seeds.  Some classes have a cost
that jumps by factors of two between neighbouring parameter values: the
precision-limited zeta points (the schedule depth at which the
extrapolants blow up), the divergent `--plain` points (a step near
s = 0.15 between a 3 ms exit and a 2 s term-budget exit) and the
well-hamiltonian points (how many panel doublings quadrature needs).
Independent draws of those would move a pass's wall time by 20-100 %
from seed to seed, so they use a fixed, evenly spaced lattice over the
class's range; the seed still sets their order and output format.  The
lattice is uniform over the stated range and was not chosen by outcome.
"""

from __future__ import annotations

import hashlib
import json
import math
import random
from dataclasses import dataclass, field

WORKLOADS = ("zeta-mix", "actions-deep", "sweep-io")

PI = math.pi


@dataclass(frozen=True)
class Op:
    """One CLI invocation: its argv (without --output) and what it asks for."""

    kind: str  # zeta | action | well-integral | sweep | mehler-check
    cls: str  # the deck class, used only for reporting
    argv: tuple
    params: dict = field(default_factory=dict, compare=False)

    @property
    def fmt(self) -> str:
        return self.argv[self.argv.index("--format") + 1]


def _num(v: float) -> str:
    # Fixed-point text: argparse reads "-1e-05" as an option, not a value.
    return f"{v:.6f}"


def _strata(rng: random.Random, n: int, lo: float, hi: float) -> list:
    """n stratified uniform draws over [lo, hi], in random order."""
    vals = [lo + (hi - lo) * (i + rng.random()) / n for i in range(n)]
    rng.shuffle(vals)
    return vals


def _lattice(n: int, lo: float, hi: float) -> list:
    """n evenly spaced interior points of (lo, hi)."""
    return [lo + (hi - lo) * (j + 1) / (n + 1) for j in range(n)]


def _fmt(rng: random.Random) -> str:
    return rng.choice(("csv", "json"))


def _zeta_op(cls: str, s: float, tol: float, fmt: str, plain: bool = False) -> Op:
    s_txt = _num(s)
    argv = ["zeta", "--s", s_txt, "--tol", repr(tol), "--format", fmt]
    if plain:
        argv.insert(1, "--plain")
    return Op("zeta", cls, tuple(argv), {"s": float(s_txt), "tol": tol, "plain": plain})


def _zeta_mix(rng: random.Random, smoke: bool) -> list:
    n_tract = 6 if smoke else 80
    ops = []
    # Tractable: s in [-2.8, 2.5] with a 0.1-wide gap around the pole at 1.
    # Below -2.8 the Abel route starts to run out of precision at 1e-8: of
    # random draws, 9 of 150 in [-3, -2.9] and 2 of 300 in [-2.9, -2.8]
    # raised NoEulerSum after 1-2 s instead of converging in ~8 ms, and none
    # of 600 in [-2.8, -2.4] did.  Those s belong to the precision-limited
    # class, and one such draw moves p90 by half.
    for u in _strata(rng, n_tract, 0.0, 5.2):
        s = -2.8 + u if u < 3.75 else 1.05 + (u - 3.75)
        tol = rng.choice((1e-8, 1e-10)) if s >= -1.5 else 1e-8
        ops.append(_zeta_op("tractable", s, tol, _fmt(rng)))
    # Precision-limited: zeta(s) exists, but double precision runs out.
    # These and the slow divergent point are 17 % of the deck, so that p90
    # lies inside this slow class and p50 inside the tractable one.
    prec = [-4.5] if smoke else [-4.5 + 0.09 * j for j in range(16)]
    for s in prec:
        ops.append(_zeta_op("precision-limited", s, 1e-8, _fmt(rng)))
    # Divergent: the raw series sum n^-s, s < 1, has no t -> 1 limit.
    div = [-1.0, -0.5] if smoke else [-1.0, -0.5, 0.0, 0.5]
    for s in div:
        ops.append(_zeta_op("divergent", s, 1e-8, _fmt(rng), plain=True))
    return ops


def _action_op(cls: str, sub: str, x: float, fmt: str, k_max=None) -> Op:
    x_txt = _num(x)
    argv = [sub, "--x", x_txt, "--format", fmt]
    k = 10 if k_max is None else k_max
    if k_max is not None:
        argv += ["--k-max", str(k_max)]
    return Op("action", cls, tuple(argv), {"sub": sub, "x": float(x_txt), "k_max": k})


def _well_integral_op(rng: random.Random, x: float, inside: bool) -> Op:
    # Keep x at least 0.1 from both ends so the default 40-step schedule
    # resolves the indicator; x == a or x == b has no limit at all.  b stays
    # below pi so that its six-decimal text does not round past pi.
    if inside:
        a = rng.uniform(0.0, x - 0.1)
        b = rng.uniform(x + 0.1, PI - 1e-3)
    elif rng.random() < 0.5:
        a = rng.uniform(0.0, x - 0.3)
        b = rng.uniform(a + 0.1, x - 0.1)
    else:
        a = rng.uniform(x + 0.1, PI - 0.3)
        b = rng.uniform(a + 0.1, PI - 1e-3)
    x_txt, a_txt, b_txt = _num(x), _num(a), _num(b)
    argv = ("well-integral", "--x", x_txt, "--a", a_txt, "--b", b_txt, "--format", _fmt(rng))
    return Op("well-integral", "bulk", argv,
              {"x": float(x_txt), "a": float(a_txt), "b": float(b_txt), "k_max": 40})


def _actions_deep(rng: random.Random, smoke: bool) -> list:
    n_bulk, n_wi, n_cheap_deep = (1, 2, 1) if smoke else (19, 6, 9)
    ops = []
    # Bulk: the four action subcommands at the default depth k_max = 10.
    # The cost of well-hamiltonian jumps 5x with x (how many times every
    # panel is halved), so its x values lie on a lattice; see the module
    # docstring.
    for x in _strata(rng, n_bulk, 0.2, PI - 0.2):
        ops.append(_action_op("bulk", "well-delta", x, _fmt(rng)))
    for x in [0.5 * PI] if smoke else _lattice(n_bulk, 0.2, PI - 0.2):
        ops.append(_action_op("bulk", "well-hamiltonian", x, _fmt(rng)))
    for sub in ("osc-delta", "osc-hamiltonian"):
        for x in _strata(rng, n_bulk, -3.0, 3.0):
            ops.append(_action_op("bulk", sub, x, _fmt(rng)))
    for i, x in enumerate(_strata(rng, n_wi, 0.5, PI - 0.5)):
        ops.append(_well_integral_op(rng, x, inside=i % 2 == 0))
    # Deep, cheap: kernels whose peak quadrature resolves in a few panels.
    cheap = ("well-delta", "osc-delta", "osc-hamiltonian")
    for i in range(n_cheap_deep):
        sub = cheap[i % 3]
        x = rng.uniform(0.2, PI - 0.2) if sub.startswith("well") else rng.uniform(-3.0, 3.0)
        ops.append(_action_op("deep", sub, x, _fmt(rng), k_max=rng.choice((11, 12))))
    # Deep well-hamiltonian: the (1 - t)^-3 peak drives panel doubling to
    # 10^4-10^5 panels, and at k = 12 often to QuadratureNotConverged after
    # 4 s and 0.9 GB.
    if not smoke:
        for x in _lattice(8, 0.0, PI):
            ops.append(_action_op("deep-hamiltonian", "well-hamiltonian", x, _fmt(rng), k_max=11))
        ops.append(_action_op("deep-hamiltonian", "well-hamiltonian", PI / 2, _fmt(rng), k_max=12))
    return ops


_SWEEP_KERNELS = ("well", "well-h", "osc", "osc-h")


def _sweep_op(cls: str, kernel: str, nx: int, ny: int, fmt: str) -> Op:
    argv = ("sweep", "--kernel", kernel, "--nx", str(nx), "--ny", str(ny), "--format", fmt)
    return Op("sweep", cls, argv, {"kernel": kernel, "nx": nx, "ny": ny, "k_max": 6})


def _sweep_io(rng: random.Random, smoke: bool) -> list:
    n_small, n_point, n_mehler = (4, 1, 1) if smoke else (60, 32, 6)
    ops = []
    # Small grids, 8-40 points a side.  The grid area is stratified
    # (log-uniform over 64..1200 points), so the spread of op costs is the
    # same for every seed; the aspect ratio is drawn freely.
    for i, log_area in enumerate(_strata(rng, n_small, math.log(64.0), math.log(1200.0))):
        area = math.exp(log_area)
        lo, hi = max(8.0, area / 40.0), min(40.0, area / 8.0)
        nx = round(math.exp(rng.uniform(math.log(lo), math.log(hi))))
        ny = min(40, max(8, round(area / nx)))
        ops.append(_sweep_op("small", _SWEEP_KERNELS[i % 4], nx, ny, _fmt(rng)))
    # Two large grids, fixed: together a fifth of the pass, and the
    # 100 x 100 json write sets the workload's peak memory.
    if not smoke:
        ops.append(_sweep_op("large", "well-h", 50, 50, "csv"))
        ops.append(_sweep_op("large", "osc-h", 100, 100, "json"))
    # Single points: a whole CLI call for seven rows, so per-call overhead.
    for i in range(n_point):
        kernel = _SWEEP_KERNELS[i % 4]
        lo, hi = (0.0, PI - 1e-3) if kernel.startswith("well") else (-3.0, 3.0)
        x, y = _num(rng.uniform(lo, hi)), _num(rng.uniform(lo, hi))
        argv = ("sweep", "--kernel", kernel, "--x", x, "--y", y, "--format", _fmt(rng))
        ops.append(Op("sweep", "point", argv,
                      {"kernel": kernel, "x": float(x), "y": float(y), "k_max": 6}))
    for _ in range(n_mehler):
        tol = rng.choice((1e-8, 1e-10))
        argv = ("mehler-check", "--tol", repr(tol), "--format", _fmt(rng))
        ops.append(Op("mehler-check", "mehler", argv, {"tol": tol, "k_max": 8}))
    return ops


_BUILDERS = {"zeta-mix": _zeta_mix, "actions-deep": _actions_deep, "sweep-io": _sweep_io}


def build(workload: str, seed: int, smoke: bool = False) -> list:
    """The deck of one pass of ``workload`` for ``seed``, in run order.

    ``smoke`` gives a few ops of each cheap class, for the benchmark's own
    tests; it is not a benchmark workload.
    """
    if workload not in _BUILDERS:
        raise ValueError(f"unknown workload {workload!r}; choose from {', '.join(WORKLOADS)}")
    rng = random.Random(f"{workload}:{seed}")
    ops = _BUILDERS[workload](rng, smoke)
    rng.shuffle(ops)
    return ops


def digest(ops: list) -> str:
    """sha256 of the deck's argv lists: equal digests replay equal argv."""
    text = json.dumps([list(op.argv) for op in ops], separators=(",", ":"))
    return hashlib.sha256(text.encode("utf-8")).hexdigest()
