"""Experiment presets, one per certified statement (small-data global
existence, decay, frequency splitting, weak-strong uniqueness, the 2.5D
results, and the empirical smallness threshold).

PRESETS is the one table of them: each entry holds the statement, the
kind of orchestration ("run": one runner.run; "twins": the weak-strong
twin runs of runner.weakstrong_monitor; "bisect": the threshold
bisection's probe runs) and the base RunConfig, which `experiment`
overrides with seed, n, dt and t_end.  Every pass/fail criterion defers
to runner and its diagnostics monitors; presets add none of their own,
and step no session themselves."""

from __future__ import annotations

import tempfile
from dataclasses import dataclass, replace
from pathlib import Path

import numpy as np

from .config import ConfigError, RunConfig
from .grid import GridSpec
from .operators import leray_project
from .params import PhysicalParams, StepControl, required_dt
from .runner import NumericsError, build_initial, run, weakstrong_monitor, write_json
from .sampling import single_mode_field

__all__ = ["ExperimentPreset", "PRESETS", "experiment", "preset_run_config",
           "bisect_monotonicity_threshold"]


@dataclass(frozen=True)
class ExperimentPreset:
    """One PRESETS entry; its `config` is only ever handed out as a copy."""

    id: str
    statement: str
    kind: str  # "run" | "twins" | "bisect"
    config: RunConfig


PRESETS = {
    p.id: p
    for p in (
        ExperimentPreset(
            "fujita-kato-3d", "small-data global existence (critical norm nonincreasing)",
            "run", RunConfig(dimension=3.0, formulation="extended", n=32, eps=1.0, dt=1e-3,
                             t_end=1.5, sample_every=10, amplitude=1e-2, decay_fraction=0.1)),
        ExperimentPreset(
            "decay-3d", "long-time decay of the critical triple norm",
            "run", RunConfig(dimension=3.0, formulation="extended", n=32, eps=1.0, dt=2e-3,
                             t_end=10.0, sample_every=25, amplitude=1e-2,
                             decay_fraction=1e-4)),
        ExperimentPreset(
            "freq-split-3d", "frequency-splitting machinery",
            "run", RunConfig(dimension=3.0, formulation="extended", n=32, eps=1.0, dt=1e-3,
                             t_end=0.5, sample_every=10, amplitude=0.02, band_lo=1.0,
                             band_hi=6.0, filter_rho=2.5)),
        ExperimentPreset(
            "weak-strong-3d", "weak-strong uniqueness (twin-run difference estimate)",
            "twins", RunConfig(dimension=3.0, formulation="physical", n=32, mu=1.0, nu=1.0,
                               eps=1.0, dt=1e-3, t_end=0.5, sample_every=20,
                               init_kind="random_band", amplitude=0.05)),
        ExperimentPreset(
            "small-data-2p5d", "2.5D small-data global existence (energy equality)",
            "run", RunConfig(dimension=2.5, n=64, eps=1.0, dt=1e-3, t_end=1.0,
                             sample_every=1, amplitude=0.05, band_hi=2.0)),
        ExperimentPreset(
            "small-B-2p5d", "2.5D global existence with only the magnetic field small",
            "run", RunConfig(dimension=2.5, n=64, eps=1.0, dt=1e-3, t_end=1.0, sample_every=1,
                             amplitude=0.5, b_amplitude=0.02, band_hi=2.0)),
        # the probes' base: each probe sets n, seed, mu = nu, the amplitude
        # and its own steps
        ExperimentPreset(
            "threshold-bisect", "empirical smallness threshold",
            "bisect", RunConfig(dimension=3.0, formulation="extended", n=32, mu=0.1, nu=0.1,
                                eps=1.0, hall_cfl=0.5)),
    )
}


def preset_run_config(preset_id: str, seed: int = 0) -> RunConfig:
    """A copy of a "run" preset's base RunConfig with the given seed (the
    other kinds orchestrate several runs and are rejected)."""
    preset = PRESETS.get(preset_id)
    if preset is None or preset.kind != "run":
        raise ConfigError(f"preset {preset_id!r} is not a single-run preset")
    return replace(preset.config, seed=seed)


# monotonicity probe and threshold bisection --------------------------------

def _monotone_at_amplitude(amplitude: float, n: int, seed: int, t_probe: float,
                           mu: float) -> tuple[bool, dict]:
    """True when the critical triple norm is nonincreasing (and the
    integrated inequality holds) along a short extended run; a run that
    fails numerically counts as failure."""
    cfg = replace(PRESETS["threshold-bisect"].config, n=n, mu=mu, nu=mu,
                  amplitude=amplitude, seed=seed)
    grid = GridSpec.create(3, n)
    params = PhysicalParams(cfg.mu, cfg.nu, cfg.eps)
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


def bisect_monotonicity_threshold(n: int, mu: float, seed: int = 0, t_probe: float = 0.4,
                                  iters: int = 5, lo: float = 0.05, hi: float = 2.0) -> dict:
    """Empirical critical amplitude: largest H^{1/2} data size for which the
    triple-norm monotonicity monitor still passes, bisected to the requested
    number of iterations, with probes at N = n and mu = nu = mu (the
    "threshold-bisect" entry of PRESETS runs them at its N = 32 and
    mu = 0.1).  The smallness condition scales with mu, so the ratio
    threshold/mu estimates the constant."""
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
    params = PhysicalParams(cfg.mu, cfg.nu, cfg.eps)
    control = StepControl(dt=cfg.dt, t_end=cfg.t_end, hall_cfl=cfg.hall_cfl)
    st = build_initial(cfg, grid, params)
    pert = leray_project(single_mode_field(grid, (1, 1, 0), np.array([1e-6, -1e-6, 0.0])))
    # one reference run; the identical twin is its own session
    (_, ident), (deltas, summ) = weakstrong_monitor(
        st.u, st.B, [(st.u, st.B), (st.u + pert, st.B)], params, control,
        sample_every=cfg.sample_every)
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
    preset = PRESETS.get(preset_id)
    if preset is None:
        raise ConfigError(f"unknown preset {preset_id!r}; available: {sorted(PRESETS)}")
    if preset.kind == "bisect" and (dt is not None or t_end is not None):
        raise ConfigError(f"{preset_id} takes neither dt nor t_end "
                          "(its probes choose their own steps)")
    # the preset's inputs, checked before anything is written
    overrides = {"n": n, "dt": dt, "t_end": t_end}
    cfg = replace(preset.config, seed=seed,
                  **{k: v for k, v in overrides.items() if v is not None}).validate()
    out = Path(out_dir)
    # an output path that a file blocks fails before any run (it is made last)
    blocker = next(p for p in (out, *out.parents) if p.exists())
    if not blocker.is_dir():
        raise NotADirectoryError(f"output path {out}: {blocker} is not a directory")

    if preset.kind == "run":
        result = run(cfg, out_dir=out / "run")
        report = {"run_summary": result.summary, "pass": result.summary["pass"]}
    elif preset.kind == "twins":
        report = _experiment_weak_strong(cfg)
    else:
        report = bisect_monotonicity_threshold(n=cfg.n, seed=cfg.seed, mu=cfg.mu)
        report["pass"] = bool(np.isfinite(report["threshold_hi"]))

    report = {"preset": preset_id, "statement": preset.statement, "seed": seed, **report}
    # made only now, so a config the step guards reject leaves nothing behind
    out.mkdir(parents=True, exist_ok=True)
    write_json(out / "report.json", report)
    return report
