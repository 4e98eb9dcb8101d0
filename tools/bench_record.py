"""Record the benchmark of one source checkout as bench/BENCH_<label>.json.

    python3 tools/bench_record.py --label mine --baseline bench/BENCH_b7fddf7.json
    python3 tools/bench_record.py --label old --root ../old-checkout

Runs ``perfbench/run.py`` of the checkout at ``--root`` (default: this
repository) for every workload at seeds 1-5, then once more per workload
with ``--trace 1`` at seed 1, and times fresh ``python -m eulersum``
launches of the checkout, LAUNCHES of each CLI_CASES command.  The file
holds, per workload, the median, q1 and q3 of each end-to-end metric over
the seeds, every seed's metrics and outcome counts, and the traced run's
per-layer metrics; under "cli", the median, q1 and q3 wall time of each
command's launches and its exit status; at the top level, the checkout's
git sha and the host.  With ``--baseline`` it also holds the ratio of each
median to the baseline file's median (new / old).  Standard library only.
"""

from __future__ import annotations

import argparse
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
SEEDS = (1, 2, 3, 4, 5)
# Each perfbench run's --seconds; it makes at least three passes regardless.
SECONDS = 8.0
# CLI commands timed end to end: every subcommand at its defaults (zeta has
# no default s), the divergent --plain series and a 100 x 100 sweep.
CLI_CASES = (("zeta", "--s", "-1"), ("zeta", "--plain", "--s", "0.5"), ("well-delta",),
             ("well-hamiltonian",), ("well-integral",), ("osc-delta",), ("osc-hamiltonian",),
             ("mehler-check",), ("sweep",), ("sweep", "--kernel", "osc-h", "--nx", "100", "--ny", "100"))
LAUNCHES = 5


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


def ratios(summary: dict, baseline: dict) -> dict:
    """Each workload's metric medians divided by the baseline's, for the
    metrics and workloads both files hold."""
    out = {}
    for workload, metrics in summary.items():
        base = baseline.get(workload, {}).get("summary", {})
        out[workload] = {name: m["median"] / base[name]["median"]
                         for name, m in metrics["summary"].items()
                         if name in base and base[name]["median"]}
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


def time_cli(root: Path, cases=CLI_CASES, launches: int = LAUNCHES) -> dict:
    """Wall time in ms of fresh ``python -m eulersum`` launches from the
    checkout's src/, the cases interleaved round by round so that drift of
    the host spreads over all of them; summarised as summarise() does, with
    each command's exit status."""
    env = dict(os.environ, PYTHONPATH=str(root / "src"))
    rounds, exits = [], {}
    with tempfile.TemporaryDirectory() as tmp:
        for _ in range(launches):
            times = {}
            for case in cases:
                name = " ".join(case)
                print(f"[bench_record] {root}: eulersum {name}", file=sys.stderr, flush=True)
                start = time.perf_counter()
                proc = subprocess.run([sys.executable, "-m", "eulersum", *case, "--output", "out.csv"],
                                      cwd=tmp, env=env, capture_output=True, stdin=subprocess.DEVNULL)
                times[name] = {"value": (time.perf_counter() - start) * 1e3, "unit": "ms"}
                exits[name] = proc.returncode
            rounds.append(times)
    return {"launches": launches, "summary": summarise(rounds), "exit": exits}


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


def record(root: Path, label: str, baseline=None) -> dict:
    bench = {"label": label, "git_sha": _git(root, "rev-parse", "HEAD"),
             "src_dirty": bool(_git(root, "status", "--porcelain", "--", "src")),
             "host": host(), "utc": datetime.datetime.now(datetime.timezone.utc).isoformat(timespec="seconds"),
             "seeds": list(SEEDS), "seconds": SECONDS, "workloads": {}}
    for workload in WORKLOADS:
        runs, outcomes = [], []
        for seed in SEEDS:
            metrics, detail = run_bench(root, workload, seed, SECONDS, 0)
            runs.append(metrics)
            outcomes.append({"seed": seed, "deck_sha256": detail["deck_sha256"], "passes": detail["passes"],
                             "outcomes": detail["outcomes"]})
        traced, detail = run_bench(root, workload, SEEDS[0], SECONDS, 1)
        bench["workloads"][workload] = {
            "summary": summarise(runs),
            "runs": [{name: m["value"] for name, m in run.items()} for run in runs],
            "outcomes": outcomes,
            "traced": {"seed": SEEDS[0], "metrics": {name: m["value"] for name, m in traced.items()},
                       "outcomes": detail["outcomes"]},
        }
    bench["cli"] = time_cli(root)
    if baseline is not None:
        bench["baseline"] = {"label": baseline["label"], "git_sha": baseline["git_sha"],
                             "ratio": ratios({**bench["workloads"], "cli": bench["cli"]},
                                             {**baseline["workloads"], "cli": baseline.get("cli", {})})}
    return bench


def main(argv=None) -> int:
    p = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    p.add_argument("--label", required=True, help="names the file bench/BENCH_<label>.json")
    p.add_argument("--root", type=Path, default=REPO, help="source checkout to measure")
    p.add_argument("--baseline", type=Path, help="an earlier BENCH file to take ratios against")
    args = p.parse_args(argv)
    baseline = json.loads(args.baseline.read_text()) if args.baseline else None
    bench = record(args.root.resolve(), args.label, baseline)
    out = REPO / "bench" / f"BENCH_{args.label}.json"
    out.parent.mkdir(exist_ok=True)
    out.write_text(json.dumps(bench, indent=1, sort_keys=True) + "\n")
    print(out)
    return 0


if __name__ == "__main__":
    sys.exit(main())
