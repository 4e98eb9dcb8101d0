"""Check that this checkout gives the same CLI outputs as a git revision on
every op of the benchmark decks and on a fixed list of edge ops: exits of
the t -> 1 limit and the deepest well passes, which no deck op reaches.

    python3 tools/same_outputs.py --against HEAD~1

Builds the decks of every workload at seeds 1-10 with this checkout's
``perfbench/deck.py``, adds the fixed EDGE_OPS as a group of their own, and
extracts REV with ``bench_record.archive``.  Each tree runs all the ops in
one process of its own, importing eulersum from its own ``src/``, one tree
after the other.  For each op it compares the exit status, the summary
line with the output path masked, the rows read back with every column but
``wall_time_ms``, and the result file's text with its ``wall_time_ms``
cells masked, so that changed bytes which read back the same are seen too.
Prints the op count per workload (and of the edge ops) and each op that
differs, and exits 1 on any difference.  Standard library only.
"""

from __future__ import annotations

import argparse
import contextlib
import hashlib
import importlib.util
import io
import json
import re
import sys
import tempfile
from pathlib import Path

import bench_record

SEEDS = bench_record.SEEDS
WORKLOADS = bench_record.WORKLOADS
# Ops that reach the exits of resummation.euler_limit which no deck op
# reaches, one per line in this order: k-max after two extrapolant
# differences and after six; the term-budget break after seven points, on a
# series whose extrapolant differences shrink threefold a step and on
# sum n^-1.02 = zeta(1.02), whose shrink by only ~5 % (once a false
# NoEulerSum); extrapolants grew; steady growth;
# converged at a ratio whose nodes are not powers of two; the roundoff
# floor.  No zeta op reaches abel_eval's TailNotBounded mid-schedule: the
# roundoff floor ends the alternating series first.  Last, the two deepest
# odd-n well passes, which end in TailNotBounded at the term budget: 38 rows
# of well-delta, whose deep rows sum full blocks of 8 192 odd n, and 19 of
# well-hamiltonian at x near pi/2.
EDGE_OPS = (
    ("zeta", "--s", "-1", "--k-max", "2"),
    ("zeta", "--s", "-1", "--k-max", "6"),
    ("zeta", "--plain", "--s", "1.5", "--t-ratio", "0.1"),
    ("zeta", "--plain", "--s", "1.02", "--t-ratio", "0.1"),
    ("zeta", "--plain", "--s", "-1"),
    ("zeta", "--plain", "--s", "0.5"),
    ("zeta", "--s", "0.5", "--t-ratio", "0.3", "--tol", "1e-10"),
    ("zeta", "--s", "-4", "--tol", "1e-8"),
    ("well-delta", "--k-max", "40"),
    ("well-hamiltonian", "--x", "1.570796", "--k-max", "20"),
)


def decks() -> dict:
    """{(workload, seed): [argv, ...]} from this checkout's deck module."""
    path = bench_record.REPO / "perfbench" / "deck.py"
    spec = importlib.util.spec_from_file_location("_same_outputs_deck", path)
    deck = sys.modules[spec.name] = importlib.util.module_from_spec(spec)  # dataclasses look it up
    spec.loader.exec_module(deck)
    return {(w, seed): [list(op.argv) for op in deck.build(w, seed)] for w in WORKLOADS for seed in SEEDS}


def text_digest(path: Path) -> str:
    """A digest of a result file's text with each wall_time_ms cell masked:
    in JSON the value after the key, in CSV the cell under the header's
    name."""
    text = path.read_bytes().decode("utf-8")  # line ends as written
    if text.lstrip().startswith("{"):
        text = re.sub(r'("wall_time_ms": )[^,\r\n]*', r"\1*", text)
    else:
        head, _, body = text.partition("\n")
        col = head.rstrip("\r").split(",").index("wall_time_ms")
        text = head + "\n" + re.sub(rf"(?m)^((?:[^,\n]*,){{{col}}})[^,\r\n]*", r"\1*", body)
    return hashlib.sha256(text.encode()).hexdigest()


def outcome(argv: list, out: Path) -> dict:
    """One op's exit status (or the exception main raised), its stdout with
    the output path masked, and digests of its rows without wall_time_ms and
    of its file's text with wall_time_ms masked."""
    from eulersum.harness import main, read_rows

    out.unlink(missing_ok=True)
    stdout = io.StringIO()
    try:
        with contextlib.redirect_stdout(stdout), contextlib.redirect_stderr(io.StringIO()):
            status = main([*argv, "--output", str(out)])
    except Exception as exc:  # an escaped exception is an outcome too
        status = f"raised {type(exc).__name__}: {exc}"
    try:
        rows = [{k: v for k, v in row._asdict().items() if k != "wall_time_ms"} for row in read_rows(str(out))]
        digest = hashlib.sha256(json.dumps(rows).encode()).hexdigest()
    except Exception as exc:
        digest = f"unreadable: {type(exc).__name__}"
    try:
        text = text_digest(out)
    except Exception as exc:
        text = f"unreadable: {type(exc).__name__}"
    return {"exit": status, "summary": stdout.getvalue().strip().replace(str(out), "OUT"), "rows": digest,
            "text": text}


def worker() -> None:
    """Read a JSON list of argv from stdin; print one outcome per line."""
    with tempfile.TemporaryDirectory() as tmp:
        for argv in json.load(sys.stdin):
            print(json.dumps(outcome(argv, Path(tmp) / "out")), flush=True)


def run_tree(root: Path, ops: list) -> list:
    """The outcomes of ``ops`` in one process importing eulersum from
    root/src."""
    return bench_record.run_worker(root, "same_outputs", ops)


def compare(roots: dict, ops: dict) -> tuple:
    """Run every op of ``ops`` ({(workload, seed): [argv, ...]}, where seed
    is None for a group without one) in each of roots["baseline"] and
    roots["candidate"]; returns ({workload: op count}, [a line per op that
    differs])."""
    flat = [(key, i, argv) for key, argvs in ops.items() for i, argv in enumerate(argvs)]
    got = {side: run_tree(root, [argv for _, _, argv in flat]) for side, root in roots.items()}
    counts, diffs = {}, []
    for (key, i, argv), old, new in zip(flat, got["baseline"], got["candidate"]):
        counts[key[0]] = counts.get(key[0], 0) + 1
        changed = [f"{field} {old[field]!r} -> {new[field]!r}" for field in old if old[field] != new[field]]
        if changed:
            where = key[0] if key[1] is None else f"{key[0]} seed {key[1]}"
            diffs.append(f"{where} op {i} ({' '.join(argv)}): {'; '.join(changed)}")
    return counts, diffs


def main(argv=None) -> int:
    p = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    p.add_argument("--against", metavar="REV", required=True, help="git revision to compare this checkout with")
    args = p.parse_args(argv)
    with bench_record.archive(bench_record.REPO, args.against) as baseline:
        ops = {**decks(), ("edge", None): [list(op) for op in EDGE_OPS]}
        counts, diffs = compare({"baseline": baseline, "candidate": bench_record.REPO}, ops)
    for workload, n in counts.items():
        print(f"{workload}: {n} ops")
    for line in diffs:
        print(line)
    print(f"{len(diffs)} of {sum(counts.values())} ops differ")
    return 1 if diffs else 0


if __name__ == "__main__":
    sys.exit(main())
