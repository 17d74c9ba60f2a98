"""Experiment presets: canned run configurations and orchestrations, one
per certified statement (small-data global existence, decay, frequency
splitting, weak-strong uniqueness, the 2.5D results, and the empirical
smallness threshold).  Every pass/fail criterion defers to the
diagnostics monitors; presets add none of their own."""

from __future__ import annotations

import tempfile
from dataclasses import dataclass, replace
from pathlib import Path

import numpy as np

from . import solver3d as s3
from .config import ConfigError, RunConfig
from .diagnostics import weakstrong_monitor
from .grid import GridSpec
from .operators import leray_project
from .params import PhysicalParams, StepControl, required_dt
from .runner import NumericsError, build_initial, run, write_json
from .sampling import single_mode_field

__all__ = ["ExperimentPreset", "PRESETS", "experiment", "preset_run_config",
           "bisect_monotonicity_threshold"]


@dataclass(frozen=True)
class ExperimentPreset:
    id: str
    statement: str
    description: str


PRESETS = {
    p.id: p
    for p in (
        ExperimentPreset(
            "fujita-kato-3d",
            "small-data global existence (critical norm nonincreasing)",
            "extended 3D run at small amplitude; monotonicity, integrated "
            "decay inequality, energy balance and decay must pass",
        ),
        ExperimentPreset(
            "decay-3d",
            "long-time decay of the critical triple norm",
            "long extended 3D run; the triple norm must fall below a "
            "configured fraction of its initial value",
        ),
        ExperimentPreset(
            "freq-split-3d",
            "frequency-splitting machinery",
            "ball/annulus filters partition the spectrum exactly and the "
            "high-frequency energy decays monotonically after one sample",
        ),
        ExperimentPreset(
            "weak-strong-3d",
            "weak-strong uniqueness (twin-run difference estimate)",
            "identical data give identically zero differences; a small "
            "perturbation obeys the Gronwall-form difference bound with a "
            "finite fitted constant",
        ),
        ExperimentPreset(
            "small-data-2p5d",
            "2.5D small-data global existence (energy equality)",
            "2.5D run with small data; energy balance is an equality and "
            "the combined-field law holds to integrator accuracy",
        ),
        ExperimentPreset(
            "small-B-2p5d",
            "2.5D global existence with only the magnetic field small",
            "O(1) velocity, small magnetic field; vorticity a-priori bound "
            "with fitted constant and current integrability are reported",
        ),
        ExperimentPreset(
            "threshold-bisect",
            "empirical smallness threshold",
            "bisect the initial amplitude until the critical-norm "
            "monotonicity monitor first fails",
        ),
    )
}


def preset_run_config(preset_id: str, seed: int = 0) -> RunConfig:
    """Base RunConfig for run-backed presets (orchestration-only presets
    have none and are rejected)."""
    if preset_id == "fujita-kato-3d":
        return RunConfig(dimension=3.0, formulation="extended", n=32, eps=1.0,
                         dt=1e-3, t_end=1.5, sample_every=10, amplitude=1e-2,
                         seed=seed, decay_fraction=0.1)
    if preset_id == "decay-3d":
        return RunConfig(dimension=3.0, formulation="extended", n=32, eps=1.0,
                         dt=2e-3, t_end=10.0, sample_every=25, amplitude=1e-2,
                         seed=seed, decay_fraction=1e-4, tol_energy_drift=5e-6)
    if preset_id == "freq-split-3d":
        return RunConfig(dimension=3.0, formulation="extended", n=32, eps=1.0,
                         dt=1e-3, t_end=0.5, sample_every=10, amplitude=0.02,
                         band_lo=1.0, band_hi=6.0, filter_rho=2.5, seed=seed)
    if preset_id == "small-data-2p5d":
        return RunConfig(dimension=2.5, n=64, eps=1.0, dt=1e-3, t_end=1.0,
                         sample_every=1, amplitude=0.05, band_hi=2.0, seed=seed)
    if preset_id == "small-B-2p5d":
        return RunConfig(dimension=2.5, n=64, eps=1.0, dt=1e-3, t_end=1.0,
                         sample_every=1, amplitude=0.5, b_amplitude=0.02,
                         band_hi=2.0, seed=seed, tol_energy_drift=1e-5)
    raise ConfigError(f"preset {preset_id!r} is not a single-run preset")


# monotonicity probe and threshold bisection --------------------------------

def _monotone_at_amplitude(amplitude: float, n: int, seed: int, t_probe: float,
                           eps: float = 1.0, mu: float = 1.0) -> tuple[bool, dict]:
    """True when the critical triple norm is nonincreasing (and the
    integrated inequality holds) along a short extended run; a run that
    fails numerically counts as failure."""
    cfg = RunConfig(formulation="extended", n=n, mu=mu, nu=mu, eps=eps,
                    amplitude=amplitude, seed=seed, hall_cfl=0.5)
    grid = GridSpec.create(3, n)
    params = PhysicalParams(mu, mu, eps)
    st = build_initial(cfg, grid, params)
    umax = float(np.abs(st.u.to_physical()).max())
    bmax = float(np.abs(st.B.to_physical()).max())
    # fields can steepen during the probe; leave headroom under the guard
    guard = StepControl(dt=cfg.dt, t_end=t_probe, hall_cfl=cfg.hall_cfl)
    dt = min(1e-3, 0.5 * required_dt(grid, params, guard, 3.0 * umax, 3.0 * bmax))
    # at large amplitude the guard makes dt tiny while the uptick appears
    # within a few nonlinear times; cap the probe cost
    nsteps = min(max(1, round(t_probe / dt)), 1500)
    cfg = replace(cfg, dt=dt, t_end=nsteps * dt, sample_every=max(1, nsteps // 60))
    with tempfile.TemporaryDirectory() as tmp:
        try:
            summary = run(cfg, out_dir=tmp).summary
        except NumericsError:
            return False, {"blowup": True, "amplitude": amplitude}
    return summary["pass_monotonicity"], {"amplitude": amplitude, **summary["monotonicity"]}


def bisect_monotonicity_threshold(n: int = 16, seed: int = 0, t_probe: float = 0.4,
                                  iters: int = 5, lo: float = 0.05,
                                  hi: float = 2.0, mu: float = 0.1) -> dict:
    """Empirical critical amplitude: largest H^{1/2} data size for which the
    triple-norm monotonicity monitor still passes, bisected to the requested
    number of iterations.  The smallness condition scales with mu, so the
    default probes run at mu = nu = 0.1 where the threshold sits at
    affordable amplitudes; the ratio threshold/mu estimates the constant.
    Probes default to n = 16: the failure is a large-scale spectral
    transfer, and the estimate only sets the scale for certified runs."""
    ok_lo, _ = _monotone_at_amplitude(lo, n, seed, t_probe, mu=mu)
    if not ok_lo:
        raise RuntimeError(f"monotonicity fails already at amplitude {lo}")
    ok_hi, _ = _monotone_at_amplitude(hi, n, seed, t_probe, mu=mu)
    grow = 0
    while ok_hi and grow < 3:
        hi *= 2.0
        ok_hi, _ = _monotone_at_amplitude(hi, n, seed, t_probe, mu=mu)
        grow += 1
    if ok_hi:
        return {"threshold_lo": hi, "threshold_hi": float("inf"), "iters": 0,
                "mu": mu, "note": "no failure found up to the largest probed amplitude"}
    probes = []
    for _ in range(iters):
        mid = float(np.sqrt(lo * hi))
        ok, info = _monotone_at_amplitude(mid, n, seed, t_probe, mu=mu)
        probes.append(info)
        if ok:
            lo = mid
        else:
            hi = mid
    return {"threshold_lo": lo, "threshold_hi": hi, "iters": iters,
            "n": n, "seed": seed, "t_probe": t_probe, "mu": mu,
            "empirical_c": lo / mu, "probes": probes}


# orchestrations -------------------------------------------------------------

def _experiment_weak_strong(cfg: RunConfig) -> dict:
    grid = GridSpec.create(3, cfg.n)
    params = PhysicalParams(1.0, 1.0, 1.0)
    control = StepControl(dt=cfg.dt, t_end=cfg.t_end)
    u0, B0 = s3.make_initial(grid, "random_band", 0.05, seed=cfg.seed)
    pert = leray_project(single_mode_field(grid, (1, 1, 0), np.array([1e-6, -1e-6, 0.0])))
    # one reference run; the identical twin is its own session
    (_, ident), (deltas, summ) = weakstrong_monitor(
        u0, B0, [(u0, B0), (u0 + pert, B0)], params, control, sample_every=20)
    report = {
        "identical_sup_delta": ident["sup_delta"],
        "pass_identical": bool(ident["sup_delta"] <= 1e-13),
        "perturbed_sup_delta": summ["sup_delta"],
        "c_fit": summ["c_fit"],
        "prefactor": summ["prefactor"],
        "pass_bounded": bool(np.isfinite(summ["c_fit"]) and summ["sup_delta"] < 1e-3),
        "series": [
            {"t": d.t, "du": d.du, "dB": d.dB, "dv": d.dv} for d in deltas
        ],
    }
    report["pass"] = report["pass_identical"] and report["pass_bounded"]
    return report


def experiment(preset_id: str, out_dir, seed: int = 0, n: int | None = None,
               dt: float | None = None, t_end: float | None = None) -> dict:
    """Run one preset and write report.json (plus any run artifacts) into
    out_dir; returns the report dict with a top-level "pass"."""
    if preset_id not in PRESETS:
        raise ConfigError(f"unknown preset {preset_id!r}; available: {sorted(PRESETS)}")
    if preset_id == "threshold-bisect" and (dt is not None or t_end is not None):
        raise ConfigError("threshold-bisect takes neither dt nor t_end "
                          "(its probes choose their own steps)")
    # the preset's inputs as a RunConfig, checked before anything is written
    if preset_id == "weak-strong-3d":
        base = RunConfig(n=32, dt=1e-3, t_end=0.5, seed=seed)
    elif preset_id == "threshold-bisect":
        base = RunConfig(n=32, seed=seed)
    else:
        base = preset_run_config(preset_id, seed=seed)
    overrides = {"n": n, "dt": dt, "t_end": t_end}
    cfg = replace(base, **{k: v for k, v in overrides.items() if v is not None}).validate()
    out = Path(out_dir)
    out.mkdir(parents=True, exist_ok=True)

    if preset_id == "weak-strong-3d":
        report = _experiment_weak_strong(cfg)
    elif preset_id == "threshold-bisect":
        report = bisect_monotonicity_threshold(n=cfg.n, seed=seed)
        report["pass"] = bool(np.isfinite(report["threshold_hi"]))
    else:
        result = run(cfg, out_dir=out / "run")
        report = {"run_summary": result.summary, "pass": result.summary["pass"]}

    report = {"preset": preset_id, "statement": PRESETS[preset_id].statement,
              "seed": seed, **report}
    write_json(out / "report.json", report)
    return report
