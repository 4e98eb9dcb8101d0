"""eulersum benchmark: seeded CLI workloads, oracle-checked, timed in-process.

    python3 perfbench/run.py --workload zeta-mix --seed 1 --seconds 30 --trace 0

Run from the root of a source checkout: the program under test is imported
from ``src/`` there, never from an installed copy.  One client drives
``eulersum.harness.main(argv)`` as a closed loop: each op is the CLI call
plus reading its result file back with ``read_rows``, and the next op
starts when the previous one has been checked against the oracles.  The
run repeats whole passes over the seeded deck until ``--seconds`` have
passed, and at least three times; an op's latency is its median pass.

``--trace 0`` prints the end-to-end metrics.  ``--trace 1`` runs the deck
once untraced and once with span wrappers installed, and prints the
per-layer metrics.  The last stdout line is one JSON object with the keys
correct, attempted, failed and metrics; the line before it holds the
details (deck digest, outcome counts, sample counts, failures).
"""

from __future__ import annotations

import os

# One client on a two-core machine: keep numerical libraries single-threaded.
for _var in ("OMP_NUM_THREADS", "OPENBLAS_NUM_THREADS", "MKL_NUM_THREADS",
             "NUMEXPR_NUM_THREADS", "VECLIB_MAXIMUM_THREADS"):
    os.environ[_var] = "1"

import argparse  # noqa: E402  (after the thread pins, before numpy loads)
import contextlib  # noqa: E402
import gc  # noqa: E402
import io  # noqa: E402
import json  # noqa: E402
import resource  # noqa: E402
import statistics  # noqa: E402
import subprocess  # noqa: E402
import sys  # noqa: E402
import time  # noqa: E402
from pathlib import Path  # noqa: E402

import deck  # noqa: E402
import oracle  # noqa: E402
import spans  # noqa: E402

HERE = Path(__file__).resolve().parent
ROOT = HERE.parent
SRC = ROOT / "src"
OUT_DIR = ROOT / ".bench_build" / "perfbench"

# A run makes at least this many passes over the deck.  Each op's latency
# is the median of its passes, so a slow spell of the shared machine that
# covers one pass does not move the figures.
MIN_PASSES = 3
# Fresh interpreters launched before each pass to time `import eulersum`.
SETUP_LAUNCHES_PER_PASS = 2


def import_eulersum():
    """Import eulersum from this checkout's src/, or exit with status 1."""
    if not (SRC / "eulersum" / "__init__.py").is_file():
        sys.exit(f"error: no eulersum sources under {SRC}; run from a source checkout")
    sys.path.insert(0, str(SRC))
    import eulersum
    import eulersum.harness

    if Path(eulersum.__file__).resolve().parent != (SRC / "eulersum").resolve():
        sys.exit(f"error: imported eulersum from {eulersum.__file__}, not {SRC}")
    return eulersum


def launch_setup() -> float:
    """Wall time of one fresh interpreter importing eulersum."""
    env = dict(os.environ, PYTHONPATH=str(SRC))
    start = time.perf_counter()
    subprocess.run([sys.executable, "-c", "import eulersum.harness"],
                   env=env, cwd=ROOT, check=True, stdin=subprocess.DEVNULL)
    return time.perf_counter() - start


def run_op(h, op, out_path: Path, tracer=None):
    """One op: the CLI call and the read-back.  Returns (seconds, rc,
    stdout, rows); rc is None if main raised, rows None if unreadable."""
    out_path.unlink(missing_ok=True)
    argv = list(op.argv) + ["--output", str(out_path)]
    stdout, stderr = io.StringIO(), io.StringIO()
    span = tracer.open("op") if tracer else None
    start = time.perf_counter()
    rc = rows = None
    try:
        with contextlib.redirect_stdout(stdout), contextlib.redirect_stderr(stderr):
            rc = h.main(argv)
        rows = h.read_rows(str(out_path))
    except Exception as exc:  # any failure of the program is an op outcome
        stdout.write(f"\n{type(exc).__name__}: {exc}")
    elapsed = time.perf_counter() - start
    if tracer:
        tracer.close(span)
    return elapsed, rc, stdout.getvalue(), rows


class Tally:
    """Latencies (per op of the deck, one per pass) and outcomes."""

    def __init__(self, n_ops: int):
        self.latencies: list = [[] for _ in range(n_ops)]
        self.counts = {o: 0 for o in oracle.OUTCOMES}
        self.failures: list = []

    def add(self, i: int, op, seconds: float, outcome: str, note: str) -> None:
        self.latencies[i].append(seconds)
        self.counts[outcome] += 1
        if outcome != oracle.OK and len(self.failures) < 40:
            self.failures.append({"argv": " ".join(op.argv), "cls": op.cls,
                                  "outcome": outcome, "note": note[:200]})

    @property
    def attempted(self) -> int:
        return sum(self.counts.values())

    @property
    def failed(self) -> int:
        return self.attempted - self.counts[oracle.OK]

    @property
    def correct(self) -> bool:
        return self.counts[oracle.WRONG_VALUE] == 0 and \
            self.counts[oracle.UNEXPECTED_ERROR] == 0

    def op_latencies(self) -> list:
        """Each op's median latency over the passes run."""
        return [statistics.median(lat) for lat in self.latencies]


def run_pass(eulersum, ops, expected, tally, out_dir: Path, tracer=None) -> float:
    """Run every op of the deck once; returns the summed op time."""
    h = eulersum.harness
    gc.collect()
    total = 0.0
    for i, op in enumerate(ops):
        if tracer:
            tracer.op_id = i
        out_path = out_dir / f"op.{op.fmt}"
        seconds, rc, stdout, rows = run_op(h, op, out_path, tracer)
        outcome, note = oracle.classify(op, expected[i], rc, stdout, rows, eulersum)
        tally.add(i, op, seconds, outcome, note)
        total += seconds
    return total


def e2e_metrics(tally: Tally, setup_s: float) -> dict:
    lat = tally.op_latencies()
    return {
        "ops_per_s": (len(lat) / sum(lat), "1/s"),
        "op_p50_ms": (statistics.median(lat) * 1e3, "ms"),
        "op_p90_ms": (statistics.quantiles(lat, n=10)[-1] * 1e3, "ms"),
        "ok_ratio": (tally.counts[oracle.OK] / tally.attempted, "ratio"),
        "peak_rss_mb": (resource.getrusage(resource.RUSAGE_SELF).ru_maxrss / 1024.0, "MB"),
        "setup_s": (setup_s, "s"),
    }


def run(workload: str, seed: int, seconds: float, trace: bool, smoke: bool = False,
        out_dir: Path = OUT_DIR) -> dict:
    """Run one workload; returns the result object (details under "detail")."""
    eulersum = import_eulersum()
    ops = deck.build(workload, seed, smoke=smoke)
    expected = [oracle.expected(op) for op in ops]
    out_dir.mkdir(parents=True, exist_ok=True)
    tally = Tally(len(ops))
    detail = {"workload": workload, "seed": seed, "deck_sha256": deck.digest(ops),
              "ops_per_pass": len(ops)}
    if not trace:
        launch_setup()  # fills the bytecode cache, as any earlier call would
        setups, passes, start = [], 0, time.perf_counter()
        while passes < MIN_PASSES or time.perf_counter() - start < seconds:
            setups += [launch_setup() for _ in range(SETUP_LAUNCHES_PER_PASS)]
            run_pass(eulersum, ops, expected, tally, out_dir)
            passes += 1
        metrics = e2e_metrics(tally, statistics.median(setups))
        detail.update(setup_launches=len(setups))
    else:
        passes = 2
        untraced_s = run_pass(eulersum, ops, expected, tally, out_dir)
        tracer = spans.Tracer()
        saved = spans.install(tracer, eulersum)
        try:
            traced_s = run_pass(eulersum, ops, expected, tally, out_dir, tracer)
        finally:
            spans.uninstall(saved)
        metrics = spans.layer_metrics(tracer)
        metrics["trace.overhead_ratio"] = (traced_s / untraced_s, "ratio")
        spans_path = out_dir / f"spans-{workload}-{seed}.npz"
        tracer.save(spans_path)
        detail.update(spans=len(tracer.name), spans_file=str(spans_path),
                      self_time_coverage=spans.coverage(tracer, traced_s))
    detail.update(passes=passes, samples=tally.attempted, outcomes=tally.counts,
                  fail_ratio=tally.failed / tally.attempted, failures=tally.failures)
    return {
        "correct": tally.correct,
        "attempted": tally.attempted,
        "failed": tally.failed,
        "metrics": {k: {"value": v, "unit": u} for k, (v, u) in metrics.items()},
        "detail": detail,
    }


def main(argv=None) -> int:
    p = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    p.add_argument("--workload", required=True, choices=deck.WORKLOADS)
    p.add_argument("--seed", type=int, required=True)
    p.add_argument("--seconds", type=float, required=True)
    p.add_argument("--trace", type=int, choices=(0, 1), default=0)
    args = p.parse_args(argv)
    result = run(args.workload, args.seed, args.seconds, bool(args.trace))
    print(json.dumps(result.pop("detail"), sort_keys=True))
    print(json.dumps(result))
    return 0


if __name__ == "__main__":
    sys.exit(main())
