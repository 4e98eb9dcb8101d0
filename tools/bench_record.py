"""Record the benchmark of one source checkout as bench/BENCH_<label>.json.

    python3 tools/bench_record.py --label mine --against HEAD~1
    python3 tools/bench_record.py --label old --root ../old-checkout

Runs ``perfbench/run.py`` of the checkout at ``--root`` (default: this
repository) for every workload at seeds 1-10, then once more per workload
with ``--trace 1`` at seed 1, and times LAUNCHES rounds of fresh
``python -m eulersum`` launches of the checkout, one of each CLI_CASES
command per round.  With ``--against REV`` it also checks REV out into a
temporary detached git worktree and measures that tree, the baseline, in
pairs with the checkout, the candidate: each seed's (or launch round's)
two runs go back to back, and which side runs first alternates from one
to the next, so that drift of the host falls on both sides alike.

The file holds, per workload, the median, q1 and q3 of each end-to-end
metric over the seeds, every seed's metrics and outcome counts, and the
traced run's per-layer metrics; under "cli", the median, q1 and q3 wall
time of each command's launches and its exit status; the checkout's git
sha; and the host.  With ``--against`` the baseline's own sections sit
under "baseline", and "paired" holds, for each workload and metric and
for each CLI command, the median, min and max of the candidate/baseline
ratio over the pairs, their number n, and the candidate's wins: the pairs
in which it is better, in the direction BENCHMARK.json gives the metric
(lower wall time for a CLI command), ties counting for neither.  Standard
library only.
"""

from __future__ import annotations

import argparse
import contextlib
import datetime
import json
import os
import platform
import statistics
import subprocess
import sys
import tempfile
import time
from pathlib import Path

REPO = Path(__file__).resolve().parent.parent
WORKLOADS = ("zeta-mix", "actions-deep", "sweep-io")
# Ten pairs per workload: a gain is claimed only if the change wins nine.
SEEDS = tuple(range(1, 11))
# Each perfbench run's --seconds; it makes at least three passes regardless.
SECONDS = 8.0
# CLI commands timed end to end: every subcommand at its defaults (zeta has
# no default s), the divergent --plain series and a 100 x 100 sweep.
CLI_CASES = (("zeta", "--s", "-1"), ("zeta", "--plain", "--s", "0.5"), ("well-delta",),
             ("well-hamiltonian",), ("well-integral",), ("osc-delta",), ("osc-hamiltonian",),
             ("mehler-check",), ("sweep",), ("sweep", "--kernel", "osc-h", "--nx", "100", "--ny", "100"))
LAUNCHES = 5
SIDES = ("baseline", "candidate")


def summarise(runs: list) -> dict:
    """Median, q1 and q3 of each metric over runs, where a run maps a metric
    name to {"value", "unit"}; quartiles are inclusive, so five runs give
    their 2nd, 3rd and 4th values."""
    out = {}
    for name in runs[0]:
        values = sorted(run[name]["value"] for run in runs)
        q1, median, q3 = statistics.quantiles(values, n=4, method="inclusive")
        out[name] = {"median": median, "q1": q1, "q3": q3, "unit": runs[0][name]["unit"], "n": len(values)}
    return out


def alternate(count: int, measure, sides=SIDES) -> dict:
    """measure(side, i) for i in range(count), the sides back to back: in
    their given order for even i, reversed for odd i.  Returns each side's
    results in the order of i."""
    out = {side: [] for side in sides}
    for i in range(count):
        for side in sides if i % 2 == 0 else sides[::-1]:
            out[side].append(measure(side, i))
    return out


def directions(path: Path = REPO / "BENCHMARK.json") -> dict:
    """Each benchmark metric's better direction, "higher" or "lower"."""
    spec = json.loads(path.read_text())
    return {m["name"]: m["better"] for m in (*spec["end_to_end"], *spec["per_layer"])}


def paired(baseline: list, candidate: list, better: dict) -> dict:
    """Median, min and max of the candidate/baseline ratio of each metric
    over the pairs (baseline[i], candidate[i]) of runs, as summarise() reads
    a run, their number n, and the wins: the pairs whose ratio is above 1
    for a metric better "higher" in ``better``, below 1 for one better
    "lower".  A pair whose baseline value is 0 is left out."""
    out = {}
    for name in candidate[0]:
        r = sorted(c[name]["value"] / b[name]["value"] for b, c in zip(baseline, candidate)
                   if name in b and b[name]["value"])
        if r:
            wins = sum(x > 1.0 if better[name] == "higher" else x < 1.0 for x in r)
            out[name] = {"median": statistics.median(r), "min": r[0], "max": r[-1], "n": len(r), "wins": wins}
    return out


def run_bench(root: Path, workload: str, seed: int, seconds: float, trace: int) -> tuple:
    """One perfbench run; returns (metrics, detail) from its last two lines."""
    cmd = [sys.executable, "perfbench/run.py", "--workload", workload, "--seed", str(seed),
           "--seconds", str(seconds), "--trace", str(trace)]
    print(f"[bench_record] {root}: {' '.join(cmd[1:])}", file=sys.stderr, flush=True)
    proc = subprocess.run(cmd, cwd=root, capture_output=True, text=True, check=True,
                          stdin=subprocess.DEVNULL)
    detail, result = (json.loads(line) for line in proc.stdout.strip().splitlines()[-2:])
    return result["metrics"], detail


def launch_round(root: Path, cases=CLI_CASES) -> dict:
    """One fresh ``python -m eulersum`` launch of each case, in order, from
    the checkout's src/: {command: {"value": wall ms, "unit": "ms", "exit":
    status}}.  Rounds interleave the cases, so that drift of the host
    spreads over all of them."""
    env = dict(os.environ, PYTHONPATH=str(root / "src"))
    times = {}
    with tempfile.TemporaryDirectory() as tmp:
        for case in cases:
            name = " ".join(case)
            print(f"[bench_record] {root}: eulersum {name}", file=sys.stderr, flush=True)
            start = time.perf_counter()
            proc = subprocess.run([sys.executable, "-m", "eulersum", *case, "--output", "out.csv"],
                                  cwd=tmp, env=env, capture_output=True, stdin=subprocess.DEVNULL)
            times[name] = {"value": (time.perf_counter() - start) * 1e3, "unit": "ms", "exit": proc.returncode}
    return times


def cli_section(rounds: list) -> dict:
    """Launch rounds summarised as summarise() does, with each command's
    exit status in the last round."""
    return {"launches": len(rounds), "summary": summarise(rounds),
            "exit": {name: m["exit"] for name, m in rounds[-1].items()}}


def _git(root: Path, *args) -> str:
    proc = subprocess.run(["git", *args], cwd=root, capture_output=True, text=True)
    return proc.stdout.strip() if proc.returncode == 0 else ""


def host() -> dict:
    cpu = ""
    try:
        cpu = next((line.split(":", 1)[1].strip() for line in open("/proc/cpuinfo")
                    if line.startswith("model name")), "")
    except OSError:
        pass
    return {"node": platform.node(), "machine": platform.machine(), "cpu": cpu,
            "cpus": os.cpu_count(), "python": platform.python_version(), "system": platform.platform()}


def record(roots: dict, label: str) -> dict:
    """The BENCH file of roots["candidate"], measured in pairs with
    roots["baseline"] when there is one."""
    sides = tuple(side for side in SIDES if side in roots)
    trees = {side: {"git_sha": _git(root, "rev-parse", "HEAD"),
                    "src_dirty": bool(_git(root, "status", "--porcelain", "--", "src")), "workloads": {}}
             for side, root in roots.items()}
    pairs = {}
    for workload in WORKLOADS:
        got = alternate(len(SEEDS), lambda side, i: run_bench(roots[side], workload, SEEDS[i], SECONDS, 0), sides)
        for side in sides:
            runs = [metrics for metrics, _ in got[side]]
            traced, detail = run_bench(roots[side], workload, SEEDS[0], SECONDS, 1)
            trees[side]["workloads"][workload] = {
                "summary": summarise(runs),
                "runs": [{name: m["value"] for name, m in run.items()} for run in runs],
                "outcomes": [{"seed": seed, "deck_sha256": d["deck_sha256"], "passes": d["passes"],
                              "outcomes": d["outcomes"]} for seed, (_, d) in zip(SEEDS, got[side])],
                "traced": {"seed": SEEDS[0], "metrics": {name: m["value"] for name, m in traced.items()},
                           "outcomes": detail["outcomes"]},
            }
        if len(sides) == 2:
            pairs[workload] = paired(*([metrics for metrics, _ in got[side]] for side in SIDES), directions())
    rounds = alternate(LAUNCHES, lambda side, i: launch_round(roots[side]), sides)
    for side in sides:
        trees[side]["cli"] = cli_section(rounds[side])
    bench = {"label": label, **trees["candidate"], "host": host(),
             "utc": datetime.datetime.now(datetime.timezone.utc).isoformat(timespec="seconds"),
             "seeds": list(SEEDS), "seconds": SECONDS}
    if len(sides) == 2:
        bench["baseline"] = trees["baseline"]
        lower = {name: "lower" for name in rounds["candidate"][0]}
        bench["paired"] = {**pairs, "cli": paired(rounds["baseline"], rounds["candidate"], lower)}
    return bench


@contextlib.contextmanager
def worktree(repo: Path, rev: str):
    """``rev`` of the git repository at ``repo``, checked out detached in a
    temporary worktree that is removed on exit."""
    with tempfile.TemporaryDirectory() as tmp:
        path = Path(tmp) / "baseline"
        subprocess.run(["git", "worktree", "add", "--detach", str(path), rev], cwd=repo, check=True,
                       capture_output=True, stdin=subprocess.DEVNULL)
        try:
            yield path
        finally:
            subprocess.run(["git", "worktree", "remove", "--force", str(path)], cwd=repo,
                           capture_output=True, stdin=subprocess.DEVNULL)


def main(argv=None) -> int:
    p = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    p.add_argument("--label", required=True, help="names the file bench/BENCH_<label>.json")
    p.add_argument("--root", type=Path, default=REPO, help="source checkout to measure")
    p.add_argument("--against", metavar="REV", help="git revision of --root to measure in pairs with it")
    args = p.parse_args(argv)
    roots = {"candidate": args.root.resolve()}
    with contextlib.ExitStack() as stack:
        if args.against:
            roots["baseline"] = stack.enter_context(worktree(roots["candidate"], args.against))
        bench = record(roots, args.label)
    if args.against:
        bench["baseline"]["rev"] = args.against
    out = REPO / "bench" / f"BENCH_{args.label}.json"
    out.parent.mkdir(exist_ok=True)
    out.write_text(json.dumps(bench, indent=1, sort_keys=True) + "\n")
    print(out)
    return 0


if __name__ == "__main__":
    sys.exit(main())
