"""Class the verdict of every limit of a fixed case list against an
independent oracle, in this checkout and, with --against, in a git revision.

    python3 tools/verdict_scan.py [--against REV]

Each case is one ``euler_limit`` at the default ratio and k_max and the
case's tolerance:

- the alternating zeta series at s = -4.6 + 0.005 i (rounded to 4 decimals,
  i = 0 ... 1440, without the pole s = 1) at tol 1e-8, 1e-10 and 1e-12,
  and at each s of ALTERNATING_S, which the grid does not reach, at tol 1e-8;
- the plain series sum(n^-s) at each s of PLAIN_S and at s = -100 + 0.25 i
  (i = 0 ... 403, up to 0.75), at tol 1e-8;
- the square well's action series at p in 0 ... 3 and x in {0.3, 1, 2}, at
  tol 1e-8 and 1e-10.

The oracles are ``mpmath.zeta``, and for the well the polylog closed form
(8/pi) 2^-p Im[Li_{3-2p}(e^{ix}) - 2^{2p-3} Li_{3-2p}(e^{2ix})] of its t -> 1
limit.  The plain series has a limit only for s > 1; every other case has
one.  A verdict is false when the oracle contradicts what it states:

- ``converged``: the value lies within tol of the limit, else ``false
  converged`` (also where there is no limit);
- ``NoEulerSum``: there is no limit, else ``false NoEulerSum``;
- ``PrecisionFloor``: its value lies within its stated bound of the limit,
  else ``false PrecisionFloor``; a PrecisionFloor that states no value
  claims none and is ``PrecisionFloor``;
- ``unconverged`` claims nothing, and any other failure is classed by its
  exception's name.

Each tree runs the cases in a process of its own that imports eulersum
from its ``src/``, the trees one after the other; REV is extracted with
``bench_record.archive``.  Prints each case of this checkout with its
class, points, Abel terms, wall time, error and error estimate, then the
totals per class of each group of cases, and with --against the cases
whose class changed and their count; exits 1 if any changed.  Standard
library and mpmath only.
"""

from __future__ import annotations

import argparse
import json
import sys
import time
from collections import Counter
from pathlib import Path
from typing import Optional

import mpmath

import bench_record

GRID_TOLS = (1e-8, 1e-10, 1e-12)
# Beside the pole, where the prefactor cancels, below the grid, at
# s = 1e308, whose growth hint -s times ln N leaves the double range, and at
# s = -1023 and -1e308, where 2^(1-s) in the prefactor overflows.
ALTERNATING_S = (1.0 - 1e-7, 1.0 + 1e-7, -5.0, 1e308, -1023.0, -1e308)
# The plain series right of the grid below, where it converges (slowly
# near 1), and at s = 1e308 as above.
PLAIN_S = (3.0, 2.5, 2.0, 1.5, 1.1, 1.02, 1e308)
PLAIN_TOL = 1e-8
WELL_P = (0, 1, 2, 3)
WELL_X = (0.3, 1.0, 2.0)
WELL_TOLS = (1e-8, 1e-10)


def cases() -> list:
    """[kind, params, tol] of every case, in the order they run."""
    grid = [round(-4.6 + 0.005 * i, 4) for i in range(1441)]
    plain_grid = [-100.0 + 0.25 * i for i in range(404)]
    return ([["alternating", [s], tol] for tol in GRID_TOLS for s in grid if s != 1.0]
            + [["alternating", [s], GRID_TOLS[0]] for s in ALTERNATING_S]
            + [["plain", [s], PLAIN_TOL] for s in (*PLAIN_S, *plain_grid)]
            + [["well", [x, p], tol] for tol in WELL_TOLS for p in WELL_P for x in WELL_X])


def limit_outcome(kind: str, params: list, tol: float) -> dict:
    """One case's verdict, the value and bound it states (None where it
    states none), its points, Abel terms and wall time.  A case that
    raises is classed by its exception's name."""
    from eulersum.resummation import EulerLimitConfig, euler_limit
    from eulersum.square_well import well_action_sequence
    from eulersum.zeta import alternating_sequence, plain_sequence

    sequence = {"alternating": alternating_sequence, "plain": plain_sequence, "well": well_action_sequence}[kind]
    start = time.perf_counter()
    try:
        res = euler_limit(sequence(*params), EulerLimitConfig(tolerance=tol))
        verdict, value, bound = ("converged" if res.converged else "unconverged"), res.value, res.error_estimate
        evaluations = res.evaluations
    except Exception as exc:  # the scan goes on: every failure is a class of its own
        verdict, evaluations = type(exc).__name__, getattr(exc, "evaluations", [])
        value, bound = getattr(exc, "value", None), getattr(exc, "error_estimate", None)
    return {"verdict": verdict, "value": value, "error_estimate": bound, "points": len(evaluations),
            "terms": sum(e.terms_used for e in evaluations), "wall_ms": (time.perf_counter() - start) * 1e3}


def worker() -> None:
    """Read a JSON list of cases from stdin; print one outcome per line."""
    for kind, params, tol in json.load(sys.stdin):
        print(json.dumps(limit_outcome(kind, params, tol)), flush=True)


def run_tree(root: Path, todo: list) -> list:
    """The outcomes of the cases ``todo`` in one process importing eulersum
    from root/src."""
    return bench_record.run_worker(root, "verdict_scan", todo)


def exact_limit(kind: str, params: list) -> Optional[float]:
    """The case's t -> 1 limit from mpmath, or None where there is none."""
    with mpmath.workdps(30):
        if kind == "well":
            x, p = params
            order = 3 - 2 * p
            z = (mpmath.polylog(order, mpmath.expj(x))
                 - mpmath.mpf(2) ** (2 * p - 3) * mpmath.polylog(order, mpmath.expj(2 * x)))
            return float(8 / mpmath.pi * mpmath.mpf(2) ** -p * mpmath.im(z))
        s = params[0]
        return None if kind == "plain" and s <= 1.0 else float(mpmath.zeta(s))


def classify(outcome: dict, tol: float, limit: Optional[float]) -> str:
    """The class of an outcome, given the exact limit (None: no limit)."""
    verdict, value = outcome["verdict"], outcome["value"]
    if verdict == "converged":
        return verdict if limit is not None and abs(value - limit) <= tol else "false converged"
    if verdict == "NoEulerSum":
        return verdict if limit is None else "false NoEulerSum"
    if verdict == "PrecisionFloor" and value is not None:
        covered = limit is not None and abs(value - limit) <= outcome["error_estimate"]
        return verdict if covered else "false PrecisionFloor"
    return verdict


def label(case: list) -> str:
    kind, params, tol = case
    names = ("x", "p") if kind == "well" else ("s",)
    return f"{kind} {' '.join(f'{n}={v!r}' for n, v in zip(names, params))} tol={tol:g}"


def table(case: list) -> str:
    """The group a case is counted in: its kind and tol, with the points of
    ALTERNATING_S and PLAIN_S apart from the grids."""
    kind, (first, *_), tol = case
    points = first in {"alternating": ALTERNATING_S, "plain": PLAIN_S}.get(kind, ())
    return f"{kind}{' points' if points else ''} tol={tol:g}"


def totals(todo: list, classes: list) -> list:
    """A line per group of cases, as table() names it, with its count per class."""
    groups = {}
    for case, cls in zip(todo, classes):
        groups.setdefault(table(case), Counter())[cls] += 1
    return [f"{group}: " + ", ".join(f"{cls} {n}" for cls, n in sorted(counts.items()))
            for group, counts in groups.items()]


def scan(roots: dict) -> tuple:
    """Run every case in each tree of ``roots`` ({side: root}); returns the
    cases, their exact limits, {side: outcomes} and {side: classes}."""
    todo = cases()
    limits = [exact_limit(kind, params) for kind, params, _ in todo]
    got = {side: run_tree(root, todo) for side, root in roots.items()}
    classes = {side: [classify(o, tol, lim) for o, (_, _, tol), lim in zip(outs, todo, limits)]
               for side, outs in got.items()}
    return todo, limits, got, classes


def main(argv=None) -> int:
    p = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    p.add_argument("--against", metavar="REV", help="git revision whose classes to compare with this checkout's")
    args = p.parse_args(argv)
    roots = {"candidate": bench_record.REPO}
    if args.against is None:
        todo, limits, got, classes = scan(roots)
    else:
        with bench_record.archive(bench_record.REPO, args.against) as baseline:
            todo, limits, got, classes = scan({**roots, "baseline": baseline})
    for case, lim, outcome, cls in zip(todo, limits, got["candidate"], classes["candidate"]):
        error = "" if lim is None or outcome["value"] is None else f" error={abs(outcome['value'] - lim):.3e}"
        bound = "" if outcome["error_estimate"] is None else f" error_estimate={outcome['error_estimate']:.3e}"
        print(f"{label(case)}: {cls} points={outcome['points']} terms={outcome['terms']} "
              f"wall_ms={outcome['wall_ms']:.1f}{error}{bound}")
    for side in classes:
        print(f"[{side}]", *totals(todo, classes[side]), sep="\n")
    if args.against is None:
        return 0
    changed = [f"{label(case)}: {old} -> {new}"
               for case, old, new in zip(todo, classes["baseline"], classes["candidate"]) if old != new]
    print(*changed, f"{len(changed)} of {len(todo)} cases changed class", sep="\n")
    return 1 if changed else 0


if __name__ == "__main__":
    sys.exit(main())
