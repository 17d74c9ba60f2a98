"""Paired benchmark comparison of two checkouts.

    python3 tools/bench_pairs.py PARENT CHANGE --workload W --seed S --pairs N

Runs each checkout's own `bench/run.py --workload W --seed S --seconds 30
--trace 0` N times, alternating which side goes first (parent first in
even pairs, change first in odd ones), so a slow drift of the machine
falls on both sides alike.  For every end-to-end metric declared in
CHANGE's BENCHMARK.json it prints both sides' median and quartiles, the
relative change of the medians, and the pairs each side won by the
metric's `better` direction (ties count for neither side); then the
`failed` children of each side.  The last line is one JSON object with
every run's raw output.  Nothing under either checkout's bench/ is
edited; each bench/run.py writes its detail record to its own
.bench_work/ as usual.
"""

from __future__ import annotations

import argparse
import json
import subprocess
import sys
from pathlib import Path

import numpy as np

SECONDS = 30
TIMEOUT_S = 600


def run_side(checkout: Path, workload: str, seed: int) -> dict:
    """One bench/run.py invocation in `checkout`; its last stdout line, or
    a result with no metrics when it crashes or times out."""
    cmd = [sys.executable, "bench/run.py", "--workload", workload, "--seed", str(seed),
           "--seconds", str(SECONDS), "--trace", "0"]
    try:
        proc = subprocess.run(cmd, cwd=checkout, capture_output=True, text=True,
                              timeout=TIMEOUT_S)
        return json.loads(proc.stdout.strip().splitlines()[-1])
    except (subprocess.TimeoutExpired, IndexError, json.JSONDecodeError) as e:
        return {"failed": None, "metrics": {}, "error": repr(e)[:500]}


def collect(parent: Path, change: Path, workload: str, seed: int, pairs: int,
            runner=None) -> tuple[list[dict], list[dict]]:
    """`pairs` results per side; pair i runs the parent first when i is even.
    `runner` stands in for run_side."""
    runner = runner or run_side
    checkouts, runs = (parent, change), ([], [])
    for i in range(pairs):
        for side in ((0, 1) if i % 2 == 0 else (1, 0)):
            runs[side].append(runner(checkouts[side], workload, seed))
    return runs


def quartiles(xs: list[float]) -> tuple[float, float, float]:
    """(first quartile, median, third quartile), linear interpolation."""
    q1, q2, q3 = np.percentile(xs, [25, 50, 75])
    return float(q1), float(q2), float(q3)


def compare(metric: dict, parent: list[dict], change: list[dict]) -> dict | None:
    """Medians, quartiles, relative change and wins of one metric over the
    pairs where both sides report it; None when no pair does."""
    name = metric["name"]
    sign = 1.0 if metric["better"] == "higher" else -1.0
    pairs = [(p["metrics"][name]["value"], c["metrics"][name]["value"])
             for p, c in zip(parent, change)
             if name in p.get("metrics", {}) and name in c.get("metrics", {})]
    if not pairs:
        return None
    ps, cs = [p for p, _ in pairs], [c for _, c in pairs]
    qp, qc = quartiles(ps), quartiles(cs)
    return {
        "name": name, "pairs": len(pairs), "parent": qp, "change": qc,
        "rel": (qc[1] - qp[1]) / qp[1] if qp[1] else float("nan"),
        "change_wins": sum(sign * (c - p) > 0 for p, c in pairs),
        "parent_wins": sum(sign * (p - c) > 0 for p, c in pairs),
        "gap_over_parent_iqr": abs(qc[1] - qp[1]) > qp[2] - qp[0],
    }


def failed(runs: list[dict]) -> int:
    """Failed children over a side's runs; a run that crashed counts one."""
    return sum(1 if r.get("failed") is None else r["failed"] for r in runs)


def main(argv: list[str] | None = None) -> int:
    ap = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    ap.add_argument("parent", type=Path)
    ap.add_argument("change", type=Path)
    ap.add_argument("--workload", required=True)
    ap.add_argument("--seed", type=int, required=True)
    ap.add_argument("--pairs", type=int, required=True)
    args = ap.parse_args(argv)
    if args.pairs < 1:
        ap.error("--pairs must be >= 1")
    declared = json.loads((args.change / "BENCHMARK.json").read_text())["end_to_end"]
    parent, change = collect(args.parent, args.change, args.workload, args.seed, args.pairs)

    print(f"{args.workload} seed {args.seed}, {args.pairs} pairs "
          "(parent / change: q1 median q3)")
    for metric in declared:
        row = compare(metric, parent, change)
        if row is None:
            print(f"{metric['name']:>14}: no pair reports it")
            continue
        (p1, p2, p3), (c1, c2, c3) = row["parent"], row["change"]
        print(f"{row['name']:>14}: {p1:.4g} {p2:.4g} {p3:.4g} / {c1:.4g} {c2:.4g} {c3:.4g}"
              f"  {100 * row['rel']:+.2f}%  wins {row['change_wins']}/{row['pairs']}"
              f" (parent {row['parent_wins']}), median gap"
              f" {'>' if row['gap_over_parent_iqr'] else '<='} parent IQR")
    print(f"{'failed':>14}: {failed(parent)} / {failed(change)}")
    print(json.dumps({"workload": args.workload, "seed": args.seed,
                      "parent": parent, "change": change}))
    return 0


if __name__ == "__main__":
    sys.exit(main())
