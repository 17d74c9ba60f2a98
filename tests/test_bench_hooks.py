"""The benchmark's tracer (bench/child.py) wraps library names where their
callers look them up.  Each of those names must keep existing, the wraps
must sit on a run's call path, and restore() must put the originals back.
The benchmark's set-up and micro paths call the library too and must keep
running."""

import importlib.util
from pathlib import Path

import scipy.fft

from hallmhd import RunConfig, presets, runner, solver25d, solver3d

ROOT = Path(__file__).resolve().parents[1]

HOOKS = [
    (scipy.fft, "rfftn"), (scipy.fft, "irfftn"),
    (solver3d._Stepper3D, "nonlinear"), (solver3d._Stepper3D, "sum_hs2"),
    (solver3d.StepSession, "advance"),
    (solver25d, "step_25d"), (solver25d, "_nonlinear_25d"), (solver25d, "rhs_25d"),
    (solver25d, "rewritten_B_rhs"), (solver25d, "E_residual"), (solver25d, "hs_norm"),
    (runner, "hs_norm"), (runner, "write_snapshot"), (runner, "energy_drift_series"),
    (runner, "monotonicity_monitor"), (runner, "decay_monitor"), (runner, "run"),
    (presets, "weakstrong_monitor"), (presets, "run"), (presets, "experiment"),
]


def _load_child(monkeypatch):
    monkeypatch.syspath_prepend(str(ROOT / "bench"))  # child imports `tracing`
    spec = importlib.util.spec_from_file_location("bench_child", ROOT / "bench" / "child.py")
    child = importlib.util.module_from_spec(spec)
    spec.loader.exec_module(child)
    return child


def test_tracer_hooks_exist_and_restore(monkeypatch, tmp_path):
    child = _load_child(monkeypatch)
    originals = [owner.__dict__[name] for owner, name in HOOKS]
    tr = child._install_tracer()  # AttributeError if a wrapped name is gone
    # With two CPUs the 2.5D certificate runs in a forked worker process,
    # whose spans land in its own copy of the tracer (bench/child.py does
    # not read them).  Each certificate job logs the span names its process
    # has recorded, so the wraps it calls are seen in either process.
    log = tmp_path / "certificate_spans.log"
    certify = runner._Monitor25D._certify

    def logged(self, *args):
        try:
            return certify(self, *args)
        finally:
            with open(log, "a") as fh:
                fh.write(" ".join({s.name for s in tr.spans}) + "\n")

    monkeypatch.setattr(runner._Monitor25D, "_certify", logged)
    try:
        for (owner, name), fn in zip(HOOKS, originals):
            assert owner.__dict__[name] is not fn, f"{name} is not wrapped"
        cfg = RunConfig(dimension=2.5, n=16, dt=1e-3, t_end=0.002, sample_every=1,
                        amplitude=0.05, seed=1)
        runner.run(cfg, out_dir=tmp_path / "run")
        seen = {s.name for s in tr.spans} | set(log.read_text().split())
    finally:
        tr.restore()
    for (owner, name), fn in zip(HOOKS, originals):
        assert owner.__dict__[name] is fn, f"{name} was not restored"
    assert {"fft.r2c", "fft.c2r", "solver3d.step", "solver3d.rhs", "solver3d.hs2",
            "solver25d.rhs", "solver25d.certify", "norms.hs_norm",
            "diagnostics.monitor", "snapshots.write"} <= seen


def test_setup_and_micro_paths_run(monkeypatch, tmp_path):
    child = _load_child(monkeypatch)
    spec = dict(n=16, amplitude=0.05, seed=0, lo=1.0, hi=2.0, dt=1e-3)
    grid, _, _, stepper = child._setup(dict(spec, dim=3, extended=True))
    assert grid.dim == 3 and stepper.extended
    grid, _, _ = child._setup(dict(spec, dim=2.5, extended=False))
    assert grid.dim == 2

    def once(fn):
        fn()
        return 0.0

    monkeypatch.setattr(child, "_median_ms", once)
    res = child.micro(0, tmp_path)
    assert res["pass"] and len(res["micro"]) == 14
