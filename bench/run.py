"""hallmhd certified-run benchmark.

    python3 bench/run.py --workload NAME --seed N --seconds S --trace 0|1

Runs one workload for about S seconds as a sequence of fresh
interpreters (bench/child.py), one entry call each, single-threaded.
The last line of stdout is one JSON object with the keys correct,
attempted, failed and metrics; a detail record (environment, every
child's result) goes to .bench_work/ in the checkout.  Metric names
and units are the ones BENCHMARK.json declares.  See bench/README.md.
"""

from __future__ import annotations

import argparse
import ctypes
import json
import os
import shutil
import subprocess
import sys
import time
from pathlib import Path
from statistics import median

ROOT = Path(__file__).resolve().parents[1]
WORK = ROOT / ".bench_work"
CHILD_TIMEOUT_S = 150.0


def _setup(dim, n, amplitude, seed, lo, hi, extended=False):
    """Random-band initial data with mu = nu = eps = 1 and dt = 1e-3, as in
    all three workloads."""
    return {"dim": dim, "n": n, "amplitude": amplitude, "seed": seed,
            "lo": lo, "hi": hi, "dt": 1e-3, "extended": extended}


def ext3d_n64(seed: int) -> dict:
    # acceptance criterion 4's main-run config, cut to 10 steps, plus
    # periodic snapshots (four 19.5 MB files per run)
    return {
        "entry": "run",
        "config": dict(dimension=3.0, formulation="extended", n=64, amplitude=0.1,
                       band_lo=1.0, band_hi=2.0, hall_cfl=0.5, dt=1e-3, t_end=0.01,
                       sample_every=25, snapshot_every=0.005, seed=seed),
        "setup": _setup(3, 64, 0.1, seed, 1.0, 2.0, extended=True),
        "monitors": {"energy_drift_max": 1e-6},
    }


def twin_phys3d_n32(seed: int) -> dict:
    # identical and perturbed twin pairs, 40 lockstep steps each
    return {
        "entry": "experiment",
        "preset": "weak-strong-3d",
        "kwargs": {"seed": seed, "n": 32, "t_end": 0.04},
        "setup": _setup(3, 32, 0.05, seed, 1.0, 2.5),
        "monitors": {"perturbed_sup_delta": 1e-3},
    }


def cert_2p5d_n64(seed: int) -> dict:
    # the preset's sample_every = 1 run, cut to 150 steps
    return {
        "entry": "experiment",
        "preset": "small-data-2p5d",
        "kwargs": {"seed": seed, "t_end": 0.15},
        "setup": _setup(2.5, 64, 0.05, seed, 1.0, 2.0),
        "monitors": {"e_residual_max": 1e-5, "energy_drift_max": 1e-6},
    }


# name -> (spec for a physical seed, pinned certification seed)
WORKLOADS = {
    "ext3d-n64": (ext3d_n64, 11),
    "twin-phys3d-n32": (twin_phys3d_n32, 0),
    "cert-2p5d-n64": (cert_2p5d_n64, 0),
}


def headroom(spec: dict, monitors: dict) -> float:
    """min over the gated truncation-level monitors of tolerance / value."""
    return min(tol / monitors[key] for key, tol in spec["monitors"].items())


def cert_ref(results: list[dict]) -> float:
    """Entry-call wall time over the mean of the reference kernel's wall
    times just before and just after it, in the same process; the mean
    over the children without the lowest and the highest ratio."""
    ratios = sorted(r["cert_s"] / (0.5 * sum(r["ref_s"])) for r in results)
    if len(ratios) > 2:
        ratios = ratios[1:-1]
    return sum(ratios) / len(ratios)


def environment() -> dict:
    libc = ctypes.CDLL(None)
    libc.sysconf.restype = ctypes.c_long
    libc.sysconf.argtypes = [ctypes.c_int]
    # glibc _SC_LEVEL1_DCACHE_SIZE, _SC_LEVEL2_CACHE_SIZE, _SC_LEVEL3_CACHE_SIZE
    caches = {name: libc.sysconf(code) for name, code in
              (("l1d_bytes", 188), ("l2_bytes", 191), ("l3_bytes", 194))}
    return {"nproc": os.cpu_count(), "affinity": len(os.sched_getaffinity(0)), **caches}


def run_child(args: list[str], deadline: float) -> dict:
    """Run child.py in a fresh single-threaded interpreter; a crash or a
    timeout is returned as a failed result."""
    # hallmhd is compiled from source on every import, whether or not a
    # bytecode cache exists, so set-up time does not depend on one
    env = dict(os.environ, PYTHONPATH=str(ROOT / "src"), PYTHONDONTWRITEBYTECODE="1",
               OMP_NUM_THREADS="1", OPENBLAS_NUM_THREADS="1", MKL_NUM_THREADS="1")
    timeout = max(1.0, min(CHILD_TIMEOUT_S, deadline - time.monotonic()))
    try:
        proc = subprocess.run([sys.executable, str(ROOT / "bench" / "child.py"), *args],
                              cwd=ROOT, env=env, capture_output=True, text=True,
                              timeout=timeout)
    except subprocess.TimeoutExpired:
        return {"pass": False, "error": f"timed out after {timeout:.0f} s"}
    if proc.returncode != 0:
        return {"pass": False, "error": proc.stderr.strip()[-2000:]}
    return json.loads(proc.stdout.strip().splitlines()[-1])


def run_cert(spec: dict, rep: int, trace: bool, deadline: float) -> dict:
    out = WORK / "runs" / f"rep{rep}"
    shutil.rmtree(out, ignore_errors=True)
    try:
        res = run_child(["cert", json.dumps(spec), str(out), "1" if trace else "0"], deadline)
    finally:
        shutil.rmtree(out, ignore_errors=True)
    res["seed"] = spec["setup"]["seed"]
    res["traced"] = trace
    return res


def check_determinism(results: list[dict]) -> None:
    """Mark as failed every run whose artifacts differ from the first
    passing run of the same seed."""
    reference = {}
    for r in results:
        if not r["pass"]:
            continue
        ref = reference.setdefault(r["seed"], r["hashes"])
        if r["hashes"] != ref:
            r["pass"] = False
            r["error"] = "artifacts differ from an earlier run of the same config"


def measure(workload: str, seed: int, seconds: float, trace: bool) -> tuple[dict, list[dict]]:
    make, pinned = WORKLOADS[workload]
    start = time.monotonic()
    stop = start + seconds
    hard_deadline = start + 170.0
    results: list[dict] = []
    metrics: dict = {}

    if not trace:
        # the pinned certification input carries cert_headroom; the seeded
        # input is the held-out check; both run twice or more
        specs = [make(pinned), make(seed)]
        while len(results) < 4 or time.monotonic() < stop:
            results.append(run_cert(specs[len(results) % 2], len(results), False, hard_deadline))
            if time.monotonic() > hard_deadline - 30.0:
                break
        check_determinism(results)
        ok = [r for r in results if r["pass"]]
        pinned_ok = [r for r in ok if r["seed"] == pinned]
        if ok and pinned_ok:
            metrics = {
                "cert_ref": cert_ref(ok),
                "setup_s": median(r["setup_s"] for r in ok),
                "peak_rss_mb": median(r["peak_rss_mb"] for r in ok),
                "cert_headroom": headroom(specs[0], pinned_ok[0]["monitors"]),
            }
        return metrics, results

    micro = run_child(["micro", str(seed), str(WORK)], hard_deadline)
    micro["seed"] = seed
    results.append(micro)
    spec = make(seed)
    while len(results) < 5 or time.monotonic() < stop:
        traced = len(results) % 2 == 0  # untraced first, then alternate
        results.append(run_cert(spec, len(results), traced, hard_deadline))
        if time.monotonic() > hard_deadline - 30.0:
            break
    check_determinism(results[1:])
    plain = [r for r in results[1:] if r["pass"] and not r["traced"]]
    traced = [r for r in results[1:] if r["pass"] and r["traced"]]
    if micro["pass"] and plain and traced:
        for key in traced[0]["layers"]:
            metrics[key] = median(r["layers"][key] for r in traced)
        cert_plain = median(r["cert_s"] for r in plain)
        cpu = median(r["cpu_s"] for r in plain)
        metrics.update({
            "runner.samples": traced[0]["samples"],
            "process.cert_s": cert_plain,
            "process.ref_s": median(t for r in plain for t in r["ref_s"]),
            "process.cpu_s": cpu,
            "process.cpu_util": cpu / cert_plain,
            "trace.cert_s": median(r["cert_s"] for r in traced),
            "trace.overhead": cert_ref(traced) / cert_ref(plain) - 1.0,
            **micro["micro"],
        })
    return metrics, results


def main() -> int:
    ap = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    ap.add_argument("--workload", required=True, choices=sorted(WORKLOADS))
    ap.add_argument("--seed", type=int, required=True)
    ap.add_argument("--seconds", type=int, required=True)
    ap.add_argument("--trace", type=int, choices=(0, 1), required=True)
    args = ap.parse_args()
    if args.seed < 0 or args.seconds < 1:
        ap.error("--seed must be >= 0 and --seconds >= 1")
    if not (ROOT / "src" / "hallmhd" / "__init__.py").is_file():
        print(f"no hallmhd sources under {ROOT / 'src'}", file=sys.stderr)
        return 2
    WORK.mkdir(exist_ok=True)

    metrics, results = measure(args.workload, args.seed, args.seconds, bool(args.trace))
    failed = sum(not r["pass"] for r in results)
    detail = {"workload": args.workload, "seed": args.seed, "seconds": args.seconds,
              "trace": args.trace, "pinned_seed": WORKLOADS[args.workload][1],
              "environment": environment(), "metrics": metrics, "runs": results}
    detail_path = WORK / f"{args.workload}-seed{args.seed}-trace{args.trace}.json"
    detail_path.write_text(json.dumps(detail, indent=1, sort_keys=True) + "\n")
    for r in results:
        if not r["pass"]:
            print(f"failed run (seed {r['seed']}): {r.get('error', 'pass = false')}",
                  file=sys.stderr)
    if not metrics:
        print(f"no successful run; see {detail_path}", file=sys.stderr)
        return 1
    declared = json.loads((ROOT / "BENCHMARK.json").read_text())
    units = {m["name"]: m["unit"] for m in declared["per_layer" if args.trace else "end_to_end"]}
    print(json.dumps({
        "correct": failed == 0,
        "attempted": len(results),
        "failed": failed,
        "metrics": {name: {"value": metrics[name], "unit": unit} for name, unit in units.items()},
    }))
    return 0


if __name__ == "__main__":
    sys.exit(main())
