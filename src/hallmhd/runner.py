"""Run driver, the one module that steps sessions: run() advances one
configured simulation, samples diagnostics, and writes timeseries.csv,
snapshots and summary.json (every byte determined by (config, seed));
weakstrong_monitor() steps the weak-strong twin runs in lockstep.  Both
start their sessions with one t = 0 step guard (ConfigError) and raise
NumericsError naming the step that fails.

3D and 2.5D runs share one loop on solver3d's StepSession (2.5D is the
3D physical system on a 2D lattice); a per-dimension monitor supplies
the dissipation integrands, the sample rows and the summary keys.  The
three integrands of a step (||grad .||^2 of u, B and v) are integrated
once after the loop by diagnostics.cumulative_simpson into the diss_u,
diss_b and diss_v columns (numpy only: the loop imports no SciPy
module; the full-lattice transforms of a 2.5D certificate or a 3D
budget import scipy.fft).
Both monitors read every record norm from the session's compact band.
A 2.5D sample's full-lattice certificate runs in a forked worker
process while the run steps on, when two CPUs are allowed, the platform
can fork and the caller is not a daemonic process, and inline
otherwise; run() collects every certificate before the records and
stops the worker before it returns or raises.  The latest sample is
kept as the session's (t, compact fields), scattered only to flush
snap_last_good.hmhd; the initial state and each snapshot's are dropped
once written, so past sample 0 the loop holds at most one full-lattice
state (that of the sample or snapshot being taken).  Each monitor
scatters its own: a 2.5D sample once, in its certificate job (so in
the worker when there is one), a 3D one only under compute_budgets."""

from __future__ import annotations

import json
import math
import os
from dataclasses import dataclass
from pathlib import Path

import numpy as np

from . import solver25d as s25
from . import solver3d as s3
from .config import ConfigError, RunConfig
from .diagnostics import (
    RECORD_COLUMNS,
    DiagnosticsRecord,
    budget_residuals,
    budget_terms,
    cancellation_check,
    cumulative_simpson,
    decay_monitor,
    energy_drift_series,
    monotonicity_monitor,
    write_records_csv,
)
from .fields import SpectralField
from .grid import GridSpec
# no run path calls hs_norm; the name stays importable from here because
# the benchmark's tracer (bench/child.py) wraps runner.hs_norm
from .norms import hs_norm  # noqa: F401
from .operators import band_filter, to_physical
from .params import CFLError, PhysicalParams, StepControl, required_dt, step_count
from .snapshots import write_snapshot

__all__ = ["run", "RunResult", "NumericsError", "build_initial", "write_json",
           "weakstrong_monitor", "TwinRunDelta"]


# pinned pass tolerances (not configurable): the energy drift, the v-drift
# of extended 3D runs, the combined-field-law residual of 2.5D runs and the
# frequency-split recombination residual of runs with filter_rho
TOL_ENERGY_DRIFT = 1e-6
TOL_V_DRIFT = 1e-6
TOL_E_RESIDUAL = 1e-5
TOL_PARTITION = 1e-13


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


def _strict(obj):
    """Strict-JSON form: numpy scalars and arrays as Python numbers and
    lists, non-finite floats as None."""
    if isinstance(obj, (np.generic, np.ndarray)):
        obj = obj.tolist()
    if isinstance(obj, dict):
        return {k: _strict(v) for k, v in obj.items()}
    if isinstance(obj, (list, tuple)):
        return [_strict(v) for v in obj]
    if isinstance(obj, float) and not math.isfinite(obj):
        return None
    return obj


def write_json(path, obj) -> None:
    """Strict JSON (non-finite floats as null), sorted keys, indent 2."""
    with open(path, "w") as fh:
        json.dump(_strict(obj), fh, indent=2, sort_keys=True, allow_nan=False)
        fh.write("\n")


def _start(state: s3.SimState3D, params: PhysicalParams, control: StepControl) -> s3.StepSession:
    """A session on `state`; ConfigError unless the step guards admit dt at
    t = 0, from the maxima of the stage-1 term that step 1 reuses."""
    session = s3.StepSession(state, params, control)
    umax, bmax = session.rhs()[-2:]
    bound = required_dt(state.grid, params, control, umax, bmax)
    if control.dt > bound:
        raise ConfigError(f"dt={control.dt:.3e} violates the step guards at t=0 "
                          f"(require dt <= {bound:.3e})")
    return session


def run(cfg: RunConfig, out_dir=None) -> RunResult:
    cfg.validate()
    out = Path(out_dir if out_dir is not None else cfg.out_dir)
    grid = GridSpec.create(3 if cfg.dimension == 3.0 else 2, cfg.n)
    params = PhysicalParams(cfg.mu, cfg.nu, cfg.eps)
    control = StepControl(dt=cfg.dt, t_end=cfg.t_end, hall_cfl=cfg.hall_cfl)
    state0 = build_initial(cfg, grid, params)
    session = _start(state0, params, control)
    out.mkdir(parents=True, exist_ok=True)

    monitor = (_Monitor3D if grid.dim == 3 else _Monitor25D)(cfg, params, session)
    nsteps = step_count(cfg.t_end, cfg.dt)

    def snapshot(name: str, st: s3.SimState3D) -> None:
        write_snapshot(out / name, st.t, [st.u, st.B] + ([st.v] if st.extended else []))

    samples: list[dict] = []
    last_good = None  # the session's (t, compact fields) at the latest sample

    def sample(istep: int, before: tuple | None = None) -> None:
        nonlocal last_good
        if not session.finite():
            raise FloatingPointError("non-finite fields")
        prev_t = last_good[0] if last_good is not None else None
        samples.append(monitor.sample(istep, prev_t, before))
        last_good = (session.t, session.fields)

    snap_times = []
    next_snap = cfg.snapshot_every if cfg.snapshot_every > 0 else np.inf
    i = 0
    try:
        integrands = [monitor.dissipation()]
        sample(0)
        snapshot("snap_initial.hmhd", state0)
        state0 = None  # from here the session holds the run's only state
        for i in range(1, nsteps + 1):
            sampled = i % cfg.sample_every == 0 or i == nsteps
            # advance() builds new arrays; keep the old ones only on request
            before = (session.t, session.fields) if sampled and monitor.step_before else None
            session.advance()
            integrands.append(monitor.dissipation())
            if sampled:
                sample(i, before)
            if session.t >= next_snap - 1e-12:
                snapshot(f"snap_t{session.t:.6f}.hmhd", session.state())
                snap_times.append(session.t)
                next_snap += cfg.snapshot_every
        monitor.collect()
    except (CFLError, FloatingPointError) as e:
        monitor.collect()  # an earlier sample's failed certificate comes first
        flush = state0 if last_good is None else session.state(last_good)
        snapshot("snap_last_good.hmhd", flush)
        raise NumericsError(f"{e} at step {i} (t={i * cfg.dt:.6g}); last good "
                            f"snapshot (t={flush.t:.6g}) flushed") from e
    finally:
        monitor.close()  # no certificate job or worker outlives the call
    snapshot("snap_final.hmhd", session.state())

    # the cumulative dissipation integrals int_0^t ||grad .||^2 of u, B and
    # v at the samples
    idx = np.array([r["istep"] for r in samples])
    diss_u, diss_b, diss_v = (cumulative_simpson(col, cfg.dt)[idx] for col in zip(*integrands))
    t_arr = np.array([r["t"] for r in samples])
    l2u2 = np.array([r["l2u2"] for r in samples])
    l2b2 = np.array([r["l2b2"] for r in samples])
    drift = energy_drift_series(t_arr, l2u2, l2b2, diss_u, diss_b, cfg.mu, cfg.nu)

    records = []
    for r, du, db, dv in zip(samples, diss_u, diss_b, diss_v):
        records.append(DiagnosticsRecord(
            **{col: r[col] for col in RECORD_COLUMNS if col in r},
            **{col: float(np.sqrt(r[key])) for col, key, _, _ in _NORM_COLUMNS},
            diss_u=float(du), diss_b=float(db), diss_v=float(dv),
        ))
        records[-1].validate()

    summary: dict = {
        "dimension": float(cfg.dimension),
        "formulation": cfg.formulation,
        "energy_drift_max": float(drift.max()),
        "energy_drift_series": [float(x) for x in drift],
        "pass_energy": bool(drift.max() <= TOL_ENERGY_DRIFT),
        "snapshot_times": snap_times,
        **monitor.summary(samples),
    }
    summary["pass"] = bool(all(v for k, v in summary.items() if k.startswith("pass_")))

    write_records_csv(out / "timeseries.csv", records)
    write_json(out / "summary.json", summary)
    return RunResult(cfg, records, summary, out)


# weak-strong twin runs -----------------------------------------------------

@dataclass
class TwinRunDelta:
    """One sample of the difference between two lock-stepped runs."""

    t: float
    du: float
    dB: float
    dv: float
    grad_du_int: float
    grad_dB_int: float
    gronwall_int: float  # int ||(du,dB)||^2 ||(u,B,J)||^4 d tau


def weakstrong_monitor(uA: SpectralField, BA: SpectralField,
                       twins: list[tuple[SpectralField, SpectralField]],
                       params: PhysicalParams, control: StepControl,
                       sample_every: int = 10) -> list[tuple[list[TwinRunDelta], dict]]:
    """Advance a reference physical-formulation run from (uA, BA) and one
    twin run per (uB, BB) in `twins` in lockstep, and certify for each
    twin the difference estimate

        ||(du,dB)(t)||^2 + mu int ||grad du||^2 + nu int ||grad dB||^2
          <= C (1 + eps^4) / min(mu,nu)^3 * int ||(du,dB)||^2 ||(u,B,J)||^4

    with C fitted as the smallest constant making it hold at all samples.
    (1 + eps^4) is the actual sum of the five Young-split prefactors, so
    the eps = 0 limit stays meaningful.

    The reference is stepped once per step and each twin after it, all on
    the shared stepper workspace.  A twin with the reference's data is
    still its own session, so a zero difference certifies that no state
    leaks between sessions.  Returns one (deltas, summary) per twin, in
    order.  Raises ValueError when control.t_end is not an integer
    multiple of control.dt, ConfigError when the step guards reject dt
    for any run at t = 0 (as run() does), and NumericsError naming the
    step when a later step fails its guards or turns non-finite.
    """
    if not twins:
        raise ValueError("weak-strong comparison needs at least one twin run")
    if sample_every < 1:
        raise ValueError(f"sample_every must be >= 1, got {sample_every}")
    for uB, _ in twins:
        if uA.grid is not uB.grid and uA.grid.spectral_shape != uB.grid.spectral_shape:
            raise ValueError("twin runs must share the grid")
    nsteps = step_count(control.t_end, control.dt)
    ref = _start(s3.make_state(uA, BA, params), params, control)
    sessions = [_start(s3.make_state(uB, BB_, params), params, control) for uB, BB_ in twins]
    sp = ref.sp
    dt = control.dt

    def weight_now() -> float:
        h1 = ref.hs2("u", 1.0) + ref.hs2("B", 1.0) + ref.hs2("curl_B", 1.0)
        return h1 ** 2

    def diff2(twin: s3.StepSession) -> tuple:
        """(du, dB) and their squared L2 and H1 norms."""
        d = [r - f for r, f in zip(ref.fields[:2], twin.fields[:2])]
        du2, dB2 = map(sp.mag2, d)
        return d, (sp.sum_hs2(du2, 0.0), sp.sum_hs2(dB2, 0.0),
                   sp.sum_hs2(du2, 1.0), sp.sum_hs2(dB2, 1.0))

    def dv2(du_: np.ndarray, dB_: np.ndarray) -> float:
        """Squared L2 norm of dv = du - eps curl dB (read at samples only)."""
        return sp.sum_hs2(sp.mag2(du_ - params.eps * sp._curl(dB_)), 0.0)

    w = weight_now()
    first = [diff2(twin) for twin in sessions]
    prev = [norms for _, norms in first]
    outs = [[TwinRunDelta(ref.t, np.sqrt(du2), np.sqrt(dB2), np.sqrt(dv2(*d)), 0.0, 0.0, 0.0)]
            for d, (du2, dB2, _, _) in first]
    # per twin: int ||grad du||^2, int ||grad dB||^2, the Gronwall integral
    ints = [[0.0, 0.0, 0.0] for _ in twins]
    for i in range(1, nsteps + 1):
        try:
            ref.advance()
            for twin in sessions:
                twin.advance()
        except (CFLError, FloatingPointError) as e:
            raise NumericsError(f"{e} at step {i} (t={i * dt:.6g})") from e
        p_w, w = w, weight_now()
        sampled = i % sample_every == 0 or i == nsteps
        for k, twin in enumerate(sessions):
            d, cur = diff2(twin)
            du2, dB2, gdu2, gdB2 = cur
            p_du2, p_dB2, p_gdu2, p_gdB2 = prev[k]
            acc = ints[k]
            acc[0] += 0.5 * dt * (p_gdu2 + gdu2)
            acc[1] += 0.5 * dt * (p_gdB2 + gdB2)
            acc[2] += 0.5 * dt * ((p_du2 + p_dB2) * p_w + (du2 + dB2) * w)
            prev[k] = cur
            if sampled:
                outs[k].append(TwinRunDelta(ref.t, float(np.sqrt(du2)), float(np.sqrt(dB2)),
                                            float(np.sqrt(dv2(*d))), acc[0], acc[1], acc[2]))

    pref = (1.0 + params.eps**4) / min(params.mu, params.nu) ** 3
    results = []
    for out in outs:
        c_fit = sup_delta = 0.0
        for r in out[1:]:
            lhs = r.du**2 + r.dB**2 + params.mu * r.grad_du_int + params.nu * r.grad_dB_int
            sup_delta = max(sup_delta, np.sqrt(r.du**2 + r.dB**2))
            if r.gronwall_int > 0:
                c_fit = max(c_fit, lhs / (pref * r.gronwall_int))
        results.append((out, {"c_fit": c_fit, "sup_delta": sup_delta,
                              "identical": sup_delta == 0.0, "prefactor": pref}))
    return results


# record columns that are square roots of the sampled squared norms, as
# (column, squared-norm key, field, s); the other columns are the sample
# row's keys of the same name (0.0 where a monitor fills none)
_NORM_COLUMNS = (("l2_u", "l2u2", "u", 0.0), ("l2_b", "l2b2", "B", 0.0),
                 ("h12_u", "h12u2", "u", 0.5), ("h12_b", "h12b2", "B", 0.5),
                 ("h12_v", "h12v2", "v", 0.5), ("h32_u", "h32u2", "u", 1.5),
                 ("h32_b", "h32b2", "B", 1.5), ("h32_v", "h32v2", "v", 1.5))


def _norm_row(session: s3.StepSession, vkey: str) -> dict:
    """The squared record norms on the session band; `vkey` is the
    session field ('v' or 'v_of_uB') behind the h*_v columns."""
    return {key: session.hs2(vkey if f == "v" else f, s) for _, key, f, s in _NORM_COLUMNS}


# 3D -------------------------------------------------------------------------

class _Monitor3D:
    """Norms on the session's compact band; the extended formulation adds
    the v-drift and, with compute_budgets, the critical budget; filter_rho
    adds the frequency-split gate."""

    step_before = False

    def __init__(self, cfg: RunConfig, params: PhysicalParams, session: s3.StepSession):
        self.cfg, self.params, self.session = cfg, params, session
        self.extended = session.extended
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

    def collect(self) -> None:
        """A 3D sample leaves no work pending."""

    close = collect

    def sample(self, istep: int, prev_t: float | None, before: tuple | None) -> dict:
        session, params, extended = self.session, self.params, self.extended
        sp = session.sp
        vkey = "v" if extended else "v_of_uB"
        row = {"istep": istep, "t": session.t, **_norm_row(session, vkey)}
        row["hi2"] = (0.0 if self.hi_mask is None else
                      sum(sp.sum_hs2(sp.mag2(f * self.hi_mask), 0.0) for f in session.fields[:2]))
        row["h12v_mon2"] = session.hs2("v_of_uB", 0.5) if extended else row["h12v2"]
        row["h32v_mon2"] = session.hs2("v_of_uB", 1.5) if extended else row["h32v2"]
        h1_all = (session.hs2("u", 1.0) + session.hs2("B", 1.0) + session.hs2(vkey, 1.0))
        row["v_weight"] = (2.0 * h1_all) ** 2 + row["h32v2"]
        drift = 0.0
        if extended:
            vc_target = session.fields[0] - params.eps * sp._curl(session.fields[1])
            num = sp.sum_hs2(sp.mag2(session.fields[2] - vc_target), 0.0)
            den = session.hs2("v", 0.0)
            drift = float(np.sqrt(num / den)) if den > 0 else float(np.sqrt(num))
        row["v_drift"] = drift
        if self.cfg.compute_budgets:  # validate() requires the extended formulation
            st = session.state()
            s = self.cfg.budget_s
            bt = budget_terms(st, params, 0.5)
            terms = (bt, bt if s == 0.5 else budget_terms(st, params, s))
            row.update({f"a{i}": bt[f"a{i}"] for i in range(1, 9)})
            row["cancellation"] = cancellation_check(st.v, st.B)
            if prev_t is not None:
                h = st.t - prev_t
                (p05, pss), (c05, css) = self.budget_prev, terms
                self.budget_residuals.append(tuple(
                    max(budget_residuals(p, c, h, params).values())
                    for p, c in ((p05, c05), (pss, css))))
            self.budget_prev = terms
        return row

    def summary(self, samples: list[dict]) -> dict:
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
            out["pass_v_drift"] = bool(vmax <= TOL_V_DRIFT)
        if cfg.filter_rho > 0:
            hi = np.array([r["hi2"] for r in samples])
            diffs = np.diff(hi)
            out["partition_residual"] = self.partition_residual
            tail = diffs[1:] if diffs.size > 1 else diffs
            out["highfreq_monotone_after_first"] = bool(
                np.all(tail <= 1e-12 * max(hi[0], 1e-300)))
            out["pass_freq_split"] = bool(self.partition_residual <= TOL_PARTITION
                                          and out["highfreq_monotone_after_first"])
        if self.budget_residuals:
            out["budget_residual_max_s05"], out["budget_residual_max_ss"] = map(
                max, zip(*self.budget_residuals))
        return out


# 2.5D -----------------------------------------------------------------------

# At most this many 2.5D certificate jobs are outstanding (sent to the
# worker, result not yet read); a job's arrays are 0.2-0.3 MB at N = 64.
_CERT_QUEUE = 8


class _CertWorker:
    """A forked child process that runs `job` on the arguments of each
    submit(), in order, and sends back its result or its exception;
    collect() puts the results in the jobs' rows, oldest first, and
    raises a job's exception there, caused by the child's traceback.
    The child keeps its own copy of whatever `job` changes between
    calls.  A child that dies fails the next submit() or collect() with
    RuntimeError."""

    def __init__(self, ctx, job):
        self.conn, child_end = ctx.Pipe()
        self.proc = ctx.Process(target=_serve, args=(job, child_end, self.conn), daemon=True)
        self.proc.start()
        child_end.close()  # so that the child's exit reads as EOF here
        self.pending: list[dict] = []  # the row of each job not collected

    def submit(self, row: dict, *args) -> None:
        self.collect(keep=_CERT_QUEUE - 1)
        try:
            self.conn.send(args)
        except OSError as e:
            raise self._lost() from e
        self.pending.append(row)

    def collect(self, keep: int = 0) -> None:
        """Wait for results, oldest first, until `keep` jobs are left."""
        while len(self.pending) > keep:
            try:
                out = self.conn.recv()
            except (EOFError, OSError) as e:
                raise self._lost() from e
            row = self.pending.pop(0)
            if isinstance(out, tuple):  # the job's exception and the child's traceback
                raise out[0] from RuntimeError(f"in the certificate worker:\n{out[1]}")
            row.update(out)

    def _lost(self) -> RuntimeError:
        self.proc.join(1.0)
        return RuntimeError(f"the certificate worker exited (exit code {self.proc.exitcode})")

    def close(self) -> None:
        """Kill and reap the child; a job not collected by now is given up."""
        self.proc.kill()
        self.proc.join()
        self.conn.close()


def _serve(job, conn, parent_end) -> None:
    """The child's loop: job(*args) for each args received on `conn`, its
    result or exception sent back, until the parent's end closes.  A
    thread takes each job off the pipe as it arrives: a job's arrays fill
    the pipe's buffer, and the parent would otherwise wait in submit()
    for the job before it to finish."""
    import queue
    import signal
    import threading
    import traceback

    parent_end.close()
    signal.signal(signal.SIGINT, signal.SIG_IGN)  # an interrupt is the parent's to handle
    jobs = queue.SimpleQueue()

    def receive() -> None:
        try:
            while True:
                jobs.put(conn.recv())
        except (EOFError, OSError):
            jobs.put(None)

    threading.Thread(target=receive, daemon=True).start()
    while (args := jobs.get()) is not None:
        try:
            out = job(*args)
        except Exception as e:  # raised in the parent by collect()
            out = (e, traceback.format_exc())
        conn.send(out)


class _Monitor25D:
    """Band norms of the sampled state (the record norms as in the 3D
    monitor, plus the H^1/H^2 norms behind the fitted constants), the
    full-lattice certificates (the combined-field law and the rewritten
    induction equation), and the fitted constants of the v-inequality
    and the B-H1 budget.

    The calling thread forms a sample's band norms and dB/dt (the
    stage-1 term, which the next step reuses); only it reads the
    session's fields.  The certificate job (_certify: the sample's one
    scatter to the full lattice, 7 forward and 3 inverse full-lattice
    transforms, the previous sample's E-law terms carried over) takes
    the sample's compact fields and runs inline, or, when two CPUs are
    allowed, the platform can fork and the caller is not daemonic, in a
    _CertWorker child that carries the E-law terms itself, at most
    _CERT_QUEUE jobs outstanding until collect().  A failing job then
    raises as inline, but up to _CERT_QUEUE samples later (after any
    periodic snapshots between), and run() raises it ahead of a later
    step's NumericsError."""

    def __init__(self, cfg: RunConfig, params: PhysicalParams, session: s3.StepSession):
        self.params, self.session = params, session
        # the combined-field law is checked across the step before each
        # sample; at sample_every = 1 that step starts at the previous
        # sample, whose E-law terms are kept in self.terms
        self.e_law = params.mu == params.nu
        self.step_before = cfg.sample_every > 1 and self.e_law
        self.terms = None
        # with a second CPU allowed the worker pays, two stepper lanes or one
        # (2D, every step, 2 vCPUs: N = 128 2.04 -> 1.49 s, N = 256 4.03 -> 3.07 s);
        # on one CPU it costs more than it overlaps (N = 64 0.66 -> 0.75 s)
        self.worker = None
        if len(os.sched_getaffinity(0)) >= 2:
            import multiprocessing

            # a daemonic process (a multiprocessing.Pool worker) may start none
            if ("fork" in multiprocessing.get_all_start_methods()
                    and not multiprocessing.current_process().daemon):
                # imported once here, before the fork, so no child imports it again
                import scipy.fft  # noqa: F401

                self.worker = _CertWorker(multiprocessing.get_context("fork"), self._certify)

    def dissipation(self) -> tuple:
        s = self.session
        return s.hs2("u", 1.0), s.hs2("B", 1.0), s.hs2("v_of_uB", 1.0)

    def sample(self, istep: int, prev_t: float | None, before: tuple | None) -> dict:
        """`prev_t` is the time of the previous sample, `before` the
        (t, compact fields) pair one step before this sample, when
        step_before asks for it."""
        session = self.session
        hs2 = session.hs2
        row = {"istep": istep, "t": session.t, **_norm_row(session, "v_of_uB")}
        h1u2, h2u2, h1b2, h2b2 = hs2("u", 1.0), hs2("u", 2.0), hs2("B", 1.0), hs2("B", 2.0)
        row.update({
            "l2v2": hs2("v_of_uB", 0.0), "h1v2": hs2("v_of_uB", 1.0),
            "h1u2": h1u2, "h1b2": h1b2,
            "bh1_2": row["l2b2"] + h1b2,  # inhomogeneous H^1: B is mean-free
            "nabB_h1_2": h1b2 + h2b2, "nabB": float(np.sqrt(h1b2)), "lapB2": h2b2,
            "w_weight": row["l2u2"] * h1u2 + float(np.sqrt(h1u2) * np.sqrt(h2u2)),
        })
        _, dB = s25.rhs_25d(session)  # the next step's stage 1
        job = (session.t, session.fields, dB.c, prev_t, before)
        if self.worker is None:
            row.update(self._certify(*job))
        else:
            self.worker.submit(row, *job)
        return row

    def _certify(self, t, fields, dBc, prev_t, before) -> dict:
        """The e_residual and rewritten_res of the sample whose (t, compact
        fields) are given and whose dB/dt has full-lattice coefficients dBc."""
        params = self.params
        st = self.session.state((t, fields))  # the sample's one full-lattice state
        phys = to_physical(st.grid, np.stack([st.u.c, st.B.c]))
        e_res = 0.0
        if self.e_law:
            terms = s25.E_law_terms(st, params, phys[0])
            if before is not None:  # the state one step before this sample
                st_before = self.session.state(before)
                self.terms = s25.E_law_terms(st_before, params, st_before.u.to_physical())
                prev_t = before[0]
            if prev_t is not None:
                e_res = s25.E_residual(self.terms, terms, params, st.t - prev_t)
            self.terms = terms
        rw = s25.rewritten_B_rhs(st, params, phys)
        scale = max(float(np.abs(dBc).max()), 1e-300)
        return {"e_residual": e_res, "rewritten_res": float(np.abs(rw.c - dBc).max()) / scale}

    def collect(self) -> None:
        """Wait for every outstanding job, putting each result in its row
        (raising a job's exception)."""
        if self.worker is not None:
            self.worker.collect()

    def close(self) -> None:
        """Stop the worker, if any."""
        if self.worker is not None:
            self.worker.close()

    def summary(self, samples: list[dict]) -> dict:
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

        e_res_max = max((r["e_residual"] for r in samples[1:]), default=0.0)
        rw_max = max(r["rewritten_res"] for r in samples)
        out = {
            "e_residual_max": e_res_max,
            "rewritten_res_max": rw_max,
            "c611_fit": c611,
            "c615_fit": c615,
            "pass_rewritten": bool(rw_max <= 1e-11),
        }
        if self.e_law:
            out["pass_e_residual"] = bool(e_res_max <= TOL_E_RESIDUAL)
        return out
