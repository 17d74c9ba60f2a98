"""One benchmark measurement, in a fresh interpreter started by run.py.

    python3 bench/child.py cert SPEC_JSON OUT_DIR TRACE
    python3 bench/child.py micro SEED WORK_DIR

`cert` times the set-up (the import of hallmhd, then grid, initial data
and stepper workspace), then the entry call named by the spec up to its
verdict and artifacts on disk.  With TRACE = 1 the call runs under the
span recorder and the per-layer breakdown is returned as well.  `micro`
times single public calls per layer at N = 32 and 64.

The result is printed as one JSON object on the last line of stdout.
"""

from __future__ import annotations

import hashlib
import json
import os
import resource
import sys
import time
from pathlib import Path
from statistics import median

ROOT = Path(__file__).resolve().parents[1]


def _import_hallmhd():
    import hallmhd
    from hallmhd import presets, runner, solver25d, solver3d  # noqa: F401  (part of the import cost)

    src = (ROOT / "src").resolve()
    if src not in Path(hallmhd.__file__).resolve().parents:
        raise SystemExit(f"hallmhd imported from {hallmhd.__file__}, not from {src}")
    return hallmhd


def _setup(setup: dict):
    """Grid, initial data and stepper workspace of the workload."""
    from hallmhd import solver3d as s3, solver25d as s25
    from hallmhd.grid import GridSpec
    from hallmhd.params import PhysicalParams

    data = dict(seed=setup["seed"], lo=setup["lo"], hi=setup["hi"])
    if setup["dim"] == 3:
        grid = GridSpec.create(3, setup["n"])
        u0, B0 = s3.make_initial(grid, "random_band", setup["amplitude"], **data)
        params = PhysicalParams(1.0, 1.0, 1.0)
        stepper = s3.get_stepper(grid, params, setup["dt"], setup["extended"])
        return grid, u0, B0, stepper
    grid = GridSpec.create(2, setup["n"])
    u0, B0 = s25.make_initial_25d(grid, "random_band", setup["amplitude"], **data)
    return grid, u0, B0


def _file_hashes(out: Path) -> dict[str, str]:
    hashes = {}
    for path in sorted(p for p in out.rglob("*") if p.is_file()):
        h = hashlib.sha256()
        with open(path, "rb") as fh:
            for block in iter(lambda: fh.read(1 << 20), b""):
                h.update(block)
        hashes[str(path.relative_to(out))] = h.hexdigest()
    return hashes


def _cpu_s() -> float:
    ru = resource.getrusage(resource.RUSAGE_SELF)
    return ru.ru_utime + ru.ru_stime


def _install_tracer():
    """Wrap each layer's entry points where their callers look them up."""
    import scipy.fft

    from hallmhd import presets, runner, solver25d, solver3d
    from tracing import Tracer

    def fft_bytes(args, result):
        return args[0].nbytes + result.nbytes

    def file_bytes(args, result):
        return os.path.getsize(args[0])

    tr = Tracer()
    # operators, fields and solver3d all call scipy.fft.<name> at call time
    tr.wrap(scipy.fft, "rfftn", "fft.r2c", nbytes=fft_bytes)
    tr.wrap(scipy.fft, "irfftn", "fft.c2r", nbytes=fft_bytes)
    tr.wrap(solver3d.StepSession, "advance", "solver3d.step")
    tr.wrap(solver3d._Stepper3D, "nonlinear", "solver3d.rhs")
    tr.wrap(solver3d._Stepper3D, "sum_hs2", "solver3d.hs2")
    tr.wrap(solver25d, "step_25d", "solver25d.step")
    tr.wrap(solver25d, "_nonlinear_25d", "solver25d.rhs")
    for name in ("rhs_25d", "rewritten_B_rhs", "E_residual"):
        tr.wrap(solver25d, name, "solver25d.certify")
    tr.wrap(runner, "hs_norm", "norms.hs_norm")
    tr.wrap(solver25d, "hs_norm", "norms.hs_norm")
    for name in ("energy_drift_series", "monotonicity_monitor", "decay_monitor"):
        tr.wrap(runner, name, "diagnostics.monitor")
    tr.wrap(presets, "weakstrong_monitor", "diagnostics.monitor")
    tr.wrap(runner, "write_snapshot", "snapshots.write", nbytes=file_bytes)
    tr.wrap(runner, "run", "runner.run")
    tr.wrap(presets, "run", "runner.run")
    tr.wrap(presets, "experiment", "runner.experiment")
    return tr


def _layer_metrics(tr, cert_s: float) -> dict[str, float]:
    def spans(*names):
        return tr.named(*names)

    def total(ss, attr="duration"):
        return sum(getattr(s, attr) for s in ss)

    def mean_ms(ss, attr="duration"):
        return 1e3 * total(ss, attr) / len(ss) if ss else 0.0

    r2c, c2r = spans("fft.r2c"), spans("fft.c2r")
    step3, rhs3, hs2 = spans("solver3d.step"), spans("solver3d.rhs"), spans("solver3d.hs2")
    step25, rhs25 = spans("solver25d.step"), spans("solver25d.rhs")
    snaps = spans("snapshots.write")
    fft_busy = total(r2c) + total(c2r)
    self_total = total(tr.spans, "self_s")
    return {
        "fft.r2c_calls": len(r2c),
        "fft.c2r_calls": len(c2r),
        "fft.r2c_ms": mean_ms(r2c),
        "fft.c2r_ms": mean_ms(c2r),
        "fft.busy_s": fft_busy,
        "fft.share": fft_busy / cert_s,
        "fft.bytes_computed": sum(s.nbytes for s in r2c + c2r),
        "solver3d.step_calls": len(step3),
        "solver3d.step_ms": mean_ms(step3),
        "solver3d.rhs_calls": len(rhs3),
        "solver3d.rhs_self_ms": mean_ms(rhs3, "self_s"),
        "solver3d.r2c_per_rhs": tr.children_named("solver3d.rhs", "fft.r2c") / len(rhs3) if rhs3 else 0.0,
        "solver3d.c2r_per_rhs": tr.children_named("solver3d.rhs", "fft.c2r") / len(rhs3) if rhs3 else 0.0,
        "solver3d.hs2_calls": len(hs2),
        "solver3d.hs2_s": total(hs2),
        "solver3d.self_s": total(step3 + rhs3 + hs2, "self_s"),
        "solver25d.step_calls": len(step25),
        "solver25d.step_ms": mean_ms(step25),
        "solver25d.rhs_calls": len(rhs25),
        "solver25d.certify_s": total(spans("solver25d.certify")),
        "solver25d.self_s": total(step25 + rhs25 + spans("solver25d.certify"), "self_s"),
        "norms.hs_norm_calls": len(spans("norms.hs_norm")),
        "norms.hs_norm_s": total(spans("norms.hs_norm")),
        "diagnostics.monitor_s": total(spans("diagnostics.monitor"), "self_s"),
        "snapshots.write_calls": len(snaps),
        "snapshots.write_s": total(snaps),
        "snapshots.bytes_written": sum(s.nbytes for s in snaps),
        "runner.self_s": total(spans("runner.run", "runner.experiment"), "self_s"),
        "trace.spans": len(tr.spans),
        "trace.remainder_s": cert_s - self_total,
    }


def reference_s(dim: int, n: int) -> float:
    """Wall time of a fixed kernel that runs no hallmhd code: single-worker
    transforms of a product on the workload's grid, shaped as the
    workload's solver calls scipy.fft (one component per call in 3D, three
    stacked components in 2.5D), then small numpy calls from a Python loop.
    Timed around each entry call, it measures how fast the machine runs at
    that moment for work of that kind."""
    import numpy as np
    import scipy.fft

    shape = ((1,) if dim == 3 else (3,)) + (n,) * dim
    axes = tuple(range(1, dim + 1))
    a, b = np.random.default_rng(0).standard_normal((2,) + shape)
    t = time.perf_counter()
    for _ in range(round(1.2e7 / a.size)):
        c = scipy.fft.rfftn(a * b, axes=axes, norm="forward", workers=1)
        y = scipy.fft.irfftn(c, s=shape[1:], axes=axes, norm="forward", workers=1)
    acc, v = float(y.flat[0]), a.reshape(-1)[:64]
    for _ in range(20000):
        acc += float(np.abs(v).max())
    return time.perf_counter() - t


def cert(spec: dict, out: Path, trace: bool) -> dict:
    t0 = time.perf_counter()
    hallmhd = _import_hallmhd()
    workspace = _setup(spec["setup"])  # noqa: F841  (kept alive through the run, as a caller would)
    setup_s = time.perf_counter() - t0

    import numpy as np
    import scipy
    import scipy.fft

    from hallmhd import presets, runner

    run_cfg = None
    if spec["entry"] == "run":
        run_cfg = hallmhd.RunConfig(**spec["config"], out_dir=str(out))
    grid_dim = 3 if spec["setup"]["dim"] == 3 else 2
    ref_before = reference_s(grid_dim, spec["setup"]["n"])
    tr = _install_tracer() if trace else None
    cpu0, t1 = _cpu_s(), time.perf_counter()
    if run_cfg is not None:
        result = runner.run(run_cfg, out_dir=out)
    else:
        result = presets.experiment(spec["preset"], out, **spec["kwargs"])
    cert_s, cpu_s = time.perf_counter() - t1, _cpu_s() - cpu0
    if tr is not None:
        tr.restore()
    ref_after = reference_s(grid_dim, spec["setup"]["n"])

    verdict = result.summary if run_cfg is not None else result
    summary = verdict.get("run_summary", verdict)  # run-backed presets nest the run's summary
    if "series" in verdict:  # twin pairs: identical and perturbed, sampled alike
        samples = 2 * len(verdict["series"])
    else:
        samples = len(summary["energy_drift_series"])
    monitors = {key: summary[key] for key in spec["monitors"]}
    res = {
        "pass": bool(verdict["pass"]),
        "setup_s": setup_s,
        "cert_s": cert_s,
        "ref_s": [ref_before, ref_after],
        "cpu_s": cpu_s,
        "samples": samples,
        "monitors": monitors,
        "hashes": _file_hashes(out),
        "peak_rss_mb": resource.getrusage(resource.RUSAGE_SELF).ru_maxrss / 1024.0,
        "env": {"numpy": np.__version__, "scipy": scipy.__version__,
                "fft_workers": scipy.fft.get_workers(), "python": sys.version.split()[0]},
    }
    if tr is not None:
        res["layers"] = _layer_metrics(tr, cert_s)
    return res


def _median_ms(fn, min_reps: int = 5, min_s: float = 0.25) -> float:
    fn()  # warm plans and allocations
    times = []
    start = time.perf_counter()
    while len(times) < min_reps or (time.perf_counter() - start < min_s and len(times) < 200):
        t = time.perf_counter()
        fn()
        times.append(time.perf_counter() - t)
    return 1e3 * median(times)


def micro(seed: int, work: Path) -> dict:
    """Single public calls per layer on seeded band-limited data."""
    _import_hallmhd()
    from hallmhd import solver3d as s3, solver25d as s25
    from hallmhd.grid import GridSpec
    from hallmhd.operators import to_physical, to_spectral
    from hallmhd.params import PhysicalParams, StepControl
    from hallmhd.snapshots import read_snapshot, write_snapshot

    params = PhysicalParams(1.0, 1.0, 1.0)
    control = StepControl(dt=1e-3, t_end=1.0, hall_cfl=0.5)
    out = {}
    for n in (32, 64):
        g3 = GridSpec.create(3, n)
        u0, B0 = s3.make_initial(g3, "random_band", 0.1, seed=seed, lo=1.0, hi=2.0)
        values = u0.to_physical()
        out[f"micro.to_spectral_n{n}_ms"] = _median_ms(lambda: to_spectral(g3, values))
        out[f"micro.to_physical_n{n}_ms"] = _median_ms(lambda: to_physical(g3, u0.c))
        for formulation in ("physical", "extended"):
            state = s3.make_state(u0, B0, params, extended=formulation == "extended")
            session = s3.StepSession(state, params, control)
            out[f"micro.advance_{formulation}_n{n}_ms"] = _median_ms(session.advance)
        g2 = GridSpec.create(2, n)
        u2, B2 = s25.make_initial_25d(g2, "random_band", 0.05, seed=seed, lo=1.0, hi=2.0)
        state25 = s25.make_state_25d(u2, B2, params)
        out[f"micro.step_25d_n{n}_ms"] = _median_ms(lambda: s25.step_25d(state25, params, control))
        fields = [state.u, state.B, state.v]  # the extended state of the last pass
        path = work / f"micro_n{n}.hmhd"
        out[f"micro.write_snapshot_n{n}_ms"] = _median_ms(lambda: write_snapshot(path, 0.0, fields))
        out[f"micro.read_snapshot_n{n}_ms"] = _median_ms(lambda: read_snapshot(path, g3))
        path.unlink()
    return {"pass": True, "micro": out}


def main(argv: list[str]) -> int:
    mode = argv[1]
    if mode == "cert":
        res = cert(json.loads(argv[2]), Path(argv[3]), argv[4] == "1")
    elif mode == "micro":
        res = micro(int(argv[2]), Path(argv[3]))
    else:
        raise SystemExit(f"unknown mode {mode!r}")
    print(json.dumps(res))
    return 0


if __name__ == "__main__":
    sys.exit(main(sys.argv))
