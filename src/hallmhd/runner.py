"""Run driver: advances one configured simulation, samples diagnostics,
and writes timeseries.csv, snapshots and summary.json into the run
directory.  Every output byte is determined by (config, seed).

3D and 2.5D runs share one loop on solver3d's StepSession (2.5D is the
3D physical system on a 2D lattice); a per-dimension monitor supplies
the dissipation integrands, the sample rows and the summary keys.  Both
monitors read every record norm from the session's compact band."""

from __future__ import annotations

import json
from dataclasses import dataclass
from pathlib import Path

import numpy as np
from scipy.integrate import cumulative_simpson

from . import solver25d as s25
from . import solver3d as s3
from .config import ConfigError, RunConfig
from .diagnostics import (
    DiagnosticsRecord,
    budget_residuals,
    budget_terms,
    cancellation_check,
    decay_monitor,
    energy_drift_series,
    fit_budget_6100,
    monotonicity_monitor,
    write_records_csv,
)
from .grid import GridSpec
# no run path calls hs_norm; the name stays importable from here because
# the benchmark's tracer (bench/child.py) wraps runner.hs_norm
from .norms import hs_norm  # noqa: F401
from .operators import band_filter
from .params import CFLError, PhysicalParams, StepControl, required_dt, step_count
from .snapshots import write_snapshot

__all__ = ["run", "RunResult", "NumericsError", "build_initial", "write_json"]


class NumericsError(RuntimeError):
    """Blow-up or non-finite values during a run (CLI exit code 3)."""


@dataclass
class RunResult:
    config: RunConfig
    records: list[DiagnosticsRecord]
    summary: dict
    out_dir: Path

    @property
    def passed(self) -> bool:
        return self.summary["pass"]


def build_initial(cfg: RunConfig, grid: GridSpec, params: PhysicalParams) -> s3.SimState3D:
    """The run's initial state; 2.5D data lives on the 2D lattice."""
    if grid.dim == 3:
        u0, B0 = s3.make_initial(grid, cfg.init_kind, cfg.amplitude, seed=cfg.seed,
                                 lo=cfg.band_lo, hi=cfg.band_hi)
    else:
        b_amp = cfg.b_amplitude if cfg.b_amplitude >= 0 else None
        u0, B0 = s25.make_initial_25d(grid, cfg.init_kind, cfg.amplitude, seed=cfg.seed,
                                      b_amplitude=b_amp, lo=cfg.band_lo, hi=cfg.band_hi)
    return s3.make_state(u0, B0, params, extended=(cfg.formulation == "extended"))


def _json_default(o):
    if isinstance(o, (np.floating, np.integer)):
        return o.item()
    if isinstance(o, np.bool_):
        return bool(o)
    if isinstance(o, np.ndarray):
        return o.tolist()
    raise TypeError(f"not serializable: {type(o)}")


def _sanitize(obj):
    """Strict-JSON form: non-finite floats become None."""
    if isinstance(obj, dict):
        return {k: _sanitize(v) for k, v in obj.items()}
    if isinstance(obj, (list, tuple)):
        return [_sanitize(v) for v in obj]
    if isinstance(obj, (float, np.floating)) and not np.isfinite(obj):
        return None
    return obj


def write_json(path, obj) -> None:
    """Strict JSON (non-finite floats as null), sorted keys, indent 2."""
    with open(path, "w") as fh:
        json.dump(_sanitize(obj), fh, indent=2, sort_keys=True, default=_json_default)
        fh.write("\n")


def run(cfg: RunConfig, out_dir=None) -> RunResult:
    cfg.validate()
    out = Path(out_dir if out_dir is not None else cfg.out_dir)
    out.mkdir(parents=True, exist_ok=True)
    grid = GridSpec.create(3 if cfg.dimension == 3.0 else 2, cfg.n)
    params = PhysicalParams(cfg.mu, cfg.nu, cfg.eps)
    control = StepControl(dt=cfg.dt, t_end=cfg.t_end, hall_cfl=cfg.hall_cfl)
    state0 = build_initial(cfg, grid, params)

    # the step guards must admit dt at t = 0 (config error otherwise)
    amax = (float(np.abs(f.to_physical()).max()) for f in (state0.u, state0.B))
    bound = required_dt(grid, params, control, *amax)
    if cfg.dt > bound:
        raise ConfigError(f"dt={cfg.dt:.3e} violates the step guards at t=0 "
                          f"(require dt <= {bound:.3e})")

    session = s3.StepSession(state0, params, control)
    monitor = (_Monitor3D if grid.dim == 3 else _Monitor25D)(cfg, params, session)
    nsteps = step_count(cfg.t_end, cfg.dt)

    def snapshot(name: str, st: s3.SimState3D) -> None:
        write_snapshot(out / name, st.t, [st.u, st.B] + ([st.v] if st.extended else []))

    samples: list[dict] = []
    last_good = None  # the state at the latest sample

    def sample(istep: int, before: tuple | None = None) -> None:
        nonlocal last_good
        if not session.finite():
            raise FloatingPointError("non-finite fields")
        st = session.state()
        samples.append(monitor.sample(istep, st, last_good, before))
        last_good = st

    integrands = [monitor.dissipation()]
    snap_times = []
    next_snap = cfg.snapshot_every if cfg.snapshot_every > 0 else np.inf
    i = 0
    try:
        sample(0)
        snapshot("snap_initial.hmhd", state0)
        for i in range(1, nsteps + 1):
            sampled = i % cfg.sample_every == 0 or i == nsteps
            # advance() builds new arrays; keep the old ones only on request
            before = (session.t, session.fields) if sampled and monitor.step_before else None
            session.advance()
            integrands.append(monitor.dissipation())
            if sampled:
                sample(i, before)
            if session.t >= next_snap - 1e-12:
                st = session.state()
                snapshot(f"snap_t{st.t:.6f}.hmhd", st)
                snap_times.append(st.t)
                next_snap += cfg.snapshot_every
    except (CFLError, FloatingPointError) as e:
        flush = last_good if last_good is not None else state0
        snapshot("snap_last_good.hmhd", flush)
        raise NumericsError(f"{e} at step {i} (t={i * cfg.dt:.6g}); last good "
                            f"snapshot (t={flush.t:.6g}) flushed") from e
    snapshot("snap_final.hmhd", session.state())

    # cumulative dissipation integrals int_0^t ||grad .||^2, one per column
    cum = [cumulative_simpson(np.asarray(col), dx=cfg.dt, initial=0.0)
           for col in zip(*integrands)]
    idx = np.array([r["istep"] for r in samples])
    t_arr = np.array([r["t"] for r in samples])
    l2u2 = np.array([r["l2u2"] for r in samples])
    l2b2 = np.array([r["l2b2"] for r in samples])
    drift = energy_drift_series(t_arr, l2u2, l2b2, cum[0][idx], cum[1][idx], cfg.mu, cfg.nu)

    records = []
    for r in samples:
        records.append(DiagnosticsRecord(
            t=r["t"],
            **{col: float(np.sqrt(r[key])) for col, key, _, _ in _NORM_COLUMNS},
            **{col: float(c[r["istep"]]) for col, c in zip(("diss_u", "diss_b", "diss_v"), cum)},
            **{col: r.get(col, 0.0) for col in _OPTIONAL_COLUMNS},
        ))
        records[-1].validate()

    summary: dict = {
        "dimension": float(cfg.dimension),
        "formulation": cfg.formulation,
        "energy_drift_max": float(drift.max()),
        "energy_drift_series": [float(x) for x in drift],
        "pass_energy": bool(drift.max() <= cfg.tol_energy_drift),
        "snapshot_files": ["snap_initial.hmhd", "snap_final.hmhd"],
        "snapshot_times": snap_times,
        **monitor.summary(samples, cum, idx),
    }
    summary["pass"] = bool(all(v for k, v in summary.items() if k.startswith("pass_")))

    write_records_csv(out / "timeseries.csv", records)
    write_json(out / "summary.json", summary)
    return RunResult(cfg, records, summary, out)


# record columns: square roots of the sampled squared norms, as (column,
# squared-norm key, field, s), and the columns a monitor may fill (0.0
# where it does not)
_NORM_COLUMNS = (("l2_u", "l2u2", "u", 0.0), ("l2_b", "l2b2", "B", 0.0),
                 ("h12_u", "h12u2", "u", 0.5), ("h12_b", "h12b2", "B", 0.5),
                 ("h12_v", "h12v2", "v", 0.5), ("h32_u", "h32u2", "u", 1.5),
                 ("h32_b", "h32b2", "B", 1.5), ("h32_v", "h32v2", "v", 1.5))
_OPTIONAL_COLUMNS = tuple(f"a{i}" for i in range(1, 9)) + (
    "cancellation", "v_drift", "v_weight", "w_weight", "e_residual")


def _norm_row(session: s3.StepSession, vkey: str) -> dict:
    """The squared record norms on the session band; `vkey` is the
    session field ('v' or 'v_of_uB') behind the h*_v columns."""
    return {key: session.hs2(vkey if f == "v" else f, s) for _, key, f, s in _NORM_COLUMNS}


# 3D -------------------------------------------------------------------------

class _Monitor3D:
    """Norms on the session's compact band; the extended formulation adds
    the v-drift and, with compute_budgets, the critical budget; filter_rho
    adds the frequency-split monitor."""

    step_before = False

    def __init__(self, cfg: RunConfig, params: PhysicalParams, session: s3.StepSession):
        self.cfg, self.params, self.session = cfg, params, session
        self.extended = session.extended
        self.budget_rows: list[dict] = []
        self.budget_residuals: list[dict] = []
        self.budget_prev = None  # budget terms (s = 1/2, budget_s) of the previous sample
        self.hi_mask = None
        self.partition_residual = 0.0
        if cfg.filter_rho > 0:
            u0 = session.state().u
            rho_next = u0.grid.next_shell(cfg.filter_rho)
            self.hi_mask = session.sp.k2 > cfg.filter_rho**2 + 1e-9
            rec = band_filter(u0, 0, cfg.filter_rho).c + band_filter(u0, rho_next, np.inf).c
            scale = max(float(np.abs(u0.c).max()), 1e-300)
            self.partition_residual = float(np.abs(rec - u0.c).max()) / scale

    def dissipation(self) -> tuple:
        s = self.session
        return s.hs2("u", 1.0), s.hs2("B", 1.0), s.hs2("v", 1.0) if self.extended else 0.0

    def sample(self, istep: int, st: s3.SimState3D, prev: s3.SimState3D | None,
               before: tuple | None) -> dict:
        session, params, extended = self.session, self.params, self.extended
        sp = session.sp
        vkey = "v" if extended else "v_of_uB"
        row = {"istep": istep, "t": session.t, **_norm_row(session, vkey)}
        row["hi2"] = (0.0 if self.hi_mask is None else
                      sum(sp.sum_hs2(f * self.hi_mask, 0.0) for f in session.fields[:2]))
        row["h12v_mon2"] = session.hs2("v_of_uB", 0.5) if extended else row["h12v2"]
        row["h32v_mon2"] = session.hs2("v_of_uB", 1.5) if extended else row["h32v2"]
        h1_all = (session.hs2("u", 1.0) + session.hs2("B", 1.0) + session.hs2(vkey, 1.0))
        row["v_weight"] = (2.0 * h1_all) ** 2 + row["h32v2"]
        drift = 0.0
        if extended:
            vc_target = session.fields[0] - params.eps * sp._curl(session.fields[1])
            num = sp.sum_hs2(session.fields[2] - vc_target, 0.0)
            den = sp.sum_hs2(session.fields[2], 0.0)
            drift = float(np.sqrt(num / den)) if den > 0 else float(np.sqrt(num))
        row["v_drift"] = drift
        if self.cfg.compute_budgets:  # validate() requires the extended formulation
            s = self.cfg.budget_s
            bt = budget_terms(st, params, 0.5)
            terms = (bt, bt if s == 0.5 else budget_terms(st, params, s))
            self.budget_rows.append(bt)
            row.update({f"a{i}": bt[f"a{i}"] for i in range(1, 9)})
            row["cancellation"] = cancellation_check(st.v, st.B)
            if prev is not None:
                h = st.t - prev.t
                (p05, pss), (c05, css) = self.budget_prev, terms
                self.budget_residuals.append(
                    {"t": 0.5 * (prev.t + st.t),
                     "s05": budget_residuals(p05, c05, h, params),
                     "ss": budget_residuals(pss, css, h, params)}
                )
            self.budget_prev = terms
        return row

    def summary(self, samples: list[dict], cum: list[np.ndarray], idx: np.ndarray) -> dict:
        cfg = self.cfg
        t_arr = np.array([r["t"] for r in samples])
        trip12 = np.array([r["h12u2"] + r["h12b2"] + r["h12v_mon2"] for r in samples])
        trip32 = np.array([r["h32u2"] + r["h32b2"] + r["h32v_mon2"] for r in samples])
        mono = monotonicity_monitor(t_arr, trip12, trip32, cfg.mu)
        decay = decay_monitor(t_arr, trip12)
        out: dict = {
            "monotonicity": mono,
            "pass_monotonicity": bool(mono["nonincreasing"] and mono["ineq_2888_holds"]),
            "decay": decay,
            "pass_decay": bool(decay["final_over_initial"] <= cfg.decay_fraction),
        }
        if self.extended:
            vmax = max(r["v_drift"] for r in samples)
            out["v_drift_max"] = vmax
            out["pass_v_drift"] = bool(vmax <= cfg.tol_v_drift)
        if cfg.filter_rho > 0:
            hi = np.array([r["hi2"] for r in samples])
            diffs = np.diff(hi)
            out["partition_residual"] = self.partition_residual
            out["highfreq_l2_series"] = [float(np.sqrt(x)) for x in hi]
            tail = diffs[1:] if diffs.size > 1 else diffs
            out["highfreq_monotone_after_first"] = bool(
                np.all(tail <= 1e-12 * max(hi[0], 1e-300)))
        if self.budget_residuals:
            res = self.budget_residuals
            out["budget_residual_max_s05"] = max(
                max(b["s05"]["res_u"], b["s05"]["res_b"], b["s05"]["res_v"]) for b in res)
            out["budget_residual_max_ss"] = max(
                max(b["ss"]["res_u"], b["ss"]["res_b"], b["ss"]["res_v"]) for b in res)
            out["budget_c6100_fit"] = fit_budget_6100(self.budget_rows)
            out["cancellation_max"] = max(r.get("cancellation", 0.0) for r in samples)
        return out


# 2.5D -----------------------------------------------------------------------

class _Monitor25D:
    """Band norms of the sampled state (the record norms as in the 3D
    monitor, plus the H^1/H^2 and vorticity norms behind the fitted
    constants), the full-lattice certificates (the combined-field law and
    the rewritten induction equation), and the fitted constants of the
    v-inequality, the B-H1 budget and the vorticity bound.

    Each sample inverse-transforms u and B once (one batched call) and
    shares them between the E-law terms and the rewritten induction
    equation; with the E-law terms of the previous sample carried over,
    the certificates cost 7 forward and 3 inverse full-lattice transforms
    per sample (rhs_25d runs on the stepper)."""

    def __init__(self, cfg: RunConfig, params: PhysicalParams, session: s3.StepSession):
        self.cfg, self.params, self.session = cfg, params, session
        # the combined-field law is checked across the step before each
        # sample; at sample_every = 1 that step starts at the previous
        # sample, whose E-law terms are kept in self.terms
        self.e_law = params.mu == params.nu
        self.step_before = cfg.sample_every > 1 and self.e_law
        self.terms = None

    def dissipation(self) -> tuple:
        s = self.session
        return (s.hs2("u", 1.0), s.hs2("B", 1.0), s.hs2("v_of_uB", 1.0),
                s.hs2("curl_u", 1.0), s.hs2("curl_B", 1.0))

    def sample(self, istep: int, st: s3.SimState3D, prev: s3.SimState3D | None,
               before: tuple | None) -> dict:
        """`prev` is the state at the previous sample, `before` the
        (t, compact fields) pair one step before this sample, when
        step_before asks for it."""
        params, hs2 = self.params, self.session.hs2
        row = {"istep": istep, "t": st.t, **_norm_row(self.session, "v_of_uB")}
        h1u2, h2u2, h1b2, h2b2 = hs2("u", 1.0), hs2("u", 2.0), hs2("B", 1.0), hs2("B", 2.0)
        row.update({
            "l2v2": hs2("v_of_uB", 0.0), "h1v2": hs2("v_of_uB", 1.0),
            "h1u2": h1u2, "h1b2": h1b2,
            "bh1_2": row["l2b2"] + h1b2,  # inhomogeneous H^1: B is mean-free
            "nabB_h1_2": h1b2 + h2b2, "nabB": float(np.sqrt(h1b2)), "lapB2": h2b2,
            "om2": hs2("curl_u", 0.0),
            "w_weight": row["l2u2"] * h1u2 + float(np.sqrt(h1u2) * np.sqrt(h2u2)),
        })
        phys = s25.physical_uB(st)
        e_res = 0.0
        if self.e_law:
            terms = s25.E_law_terms(st, params, phys[0])
            if prev is not None:
                if before is not None:
                    t0, (uc, Bc) = before
                    sp = self.session.sp
                    prev = s3.SimState3D(t0, sp.scatter_field(uc), sp.scatter_field(Bc))
                    prev_terms = s25.E_law_terms(prev, params)
                else:
                    prev_terms = self.terms
                e_res = s25.E_residual(prev, st, params, st.t - prev.t,
                                       terms=(prev_terms, terms))
            # the next sample's before-state is this one unless the loop
            # hands over the state one step before it
            self.terms = None if self.step_before else terms
        row["e_residual"] = e_res
        _, dB = s25.rhs_25d(st, params)
        rw = s25.rewritten_B_rhs(st, params, phys)
        scale = max(float(np.abs(dB.c).max()), 1e-300)
        row["rewritten_res"] = float(np.abs(rw.c - dB.c).max()) / scale
        return row

    def summary(self, samples: list[dict], cum: list[np.ndarray], idx: np.ndarray) -> dict:
        cfg = self.cfg
        # fitted constants of the v-inequality and the B-H1 budget
        c611 = 0.0
        c615 = 0.0
        for a, b in zip(samples[:-1], samples[1:]):
            h = b["t"] - a["t"]
            dv = (b["l2v2"] - a["l2v2"]) / h + 0.5 * (a["h1v2"] + b["h1v2"])
            den = 0.5 * ((a["l2u2"] + a["l2b2"] + a["l2v2"]) * (a["h1u2"] + a["h1b2"] + a["h1v2"])
                         + (b["l2u2"] + b["l2b2"] + b["l2v2"]) * (b["h1u2"] + b["h1b2"] + b["h1v2"]))
            if dv > 0 and den > 0:
                c611 = max(c611, dv / den)
            db = (b["bh1_2"] - a["bh1_2"]) / h + 0.5 * (a["nabB_h1_2"] + b["nabB_h1_2"])
            denb = 0.5 * ((a["w_weight"] * a["bh1_2"] + a["nabB"] * a["lapB2"])
                          + (b["w_weight"] * b["bh1_2"] + b["nabB"] * b["lapB2"]))
            if db > 0 and denb > 0:
                c615 = max(c615, db / denb)

        # a-priori vorticity bound with a fitted constant
        l2b2_0 = samples[0]["l2b2"]
        om0_b0 = samples[0]["om2"] + l2b2_0
        lhs_om = np.array([r["om2"] for r in samples]) + cum[3][idx]
        e0_4 = (samples[0]["l2u2"] + l2b2_0) ** 2
        q = float(lhs_om.max()) / (2.0 * om0_b0) - 1.0 if om0_b0 > 0 else 0.0
        c_omega = float(np.log(q) / e0_4) if (q > 1.0 and e0_4 > 0) else 0.0

        e_res_max = max((r["e_residual"] for r in samples[1:]), default=0.0)
        rw_max = max(r["rewritten_res"] for r in samples)
        out = {
            "e_residual_max": e_res_max,
            "rewritten_res_max": rw_max,
            "c611_fit": c611,
            "c615_fit": c615,
            "c_omega_fit": c_omega,
            "omega_bound_lhs_max": float(lhs_om.max()),
            "omega_bound_rhs": float(2.0 * om0_b0 * (1.0 + np.exp(c_omega * e0_4))),
            "j_l2h1_integral": float(cum[4][-1]),
            "pass_rewritten": bool(rw_max <= 1e-11),
        }
        if cfg.mu == cfg.nu:
            out["pass_e_residual"] = bool(e_res_max <= cfg.tol_e_residual)
        return out
