"""Quantitative monitors: energy budgets, the critical-regularity budget
A1..A8 (and its H^s analogue), cancellation and adjointness residuals,
monotonicity / decay monitors, and the weak-strong twin-run comparator.

Conventions.  The tensor pairing is (T | grad w) = sum_{jk} <T_jk, d_k w_j>;
with this convention the budget identities read, for the extended system
with general mu = nu and eps,

    d/dt ||u||_{Hs}^2 / 2 + mu ||u||_{Hs+1}^2 = A1 + A2
    d/dt ||B||_{Hs}^2 / 2 + mu ||B||_{Hs+1}^2 = A3
    d/dt ||v||_{Hs}^2 / 2 + mu ||v||_{Hs+1}^2 = A4 + ... + A8

where the A_i are the displayed spectral inner products (A6 is the
Hall commutator, whose non-commutator part vanishes pointwise).  Time
derivatives are centered differences over one snapshot pair, so the
residuals converge at the integrator's O(dt^2).

Cancellation and adjointness checks form their quadratic products
without the two-thirds mask: the identities are exact in the discrete
inner product, while the solver's dealiased path agrees on the mask.
"""

from __future__ import annotations

import csv
from dataclasses import dataclass, fields as dataclass_fields

import numpy as np

from .fields import SpectralField, l2_inner, pairing
from .grid import GridSpec
from .norms import hs_norm
from .operators import apply_lambda_scalar, curl3, to_physical, to_spectral
from .params import PhysicalParams, StepControl, step_count
from .solver3d import SimState3D, StepSession, _SYM, make_state

__all__ = [
    "DiagnosticsRecord",
    "TwinRunDelta",
    "RECORD_COLUMNS",
    "write_records_csv",
    "budget_terms",
    "budget_identity_residuals",
    "budget_residuals",
    "cancellation_check",
    "adjointness_check",
    "energy_drift_series",
    "monotonicity_monitor",
    "decay_monitor",
    "weakstrong_monitor",
    "fit_budget_6100",
]


# record and CSV ---------------------------------------------------------

@dataclass
class DiagnosticsRecord:
    """One time-stamped row of run diagnostics.  diss_* are cumulative
    dissipation integrals int_0^t ||grad .||^2; entries not applicable to
    the run's formulation are 0.0 (documented in the README)."""

    t: float
    l2_u: float = 0.0
    l2_b: float = 0.0
    h12_u: float = 0.0
    h12_b: float = 0.0
    h12_v: float = 0.0
    h32_u: float = 0.0
    h32_b: float = 0.0
    h32_v: float = 0.0
    diss_u: float = 0.0
    diss_b: float = 0.0
    diss_v: float = 0.0
    a1: float = 0.0
    a2: float = 0.0
    a3: float = 0.0
    a4: float = 0.0
    a5: float = 0.0
    a6: float = 0.0
    a7: float = 0.0
    a8: float = 0.0
    cancellation: float = 0.0
    v_drift: float = 0.0
    v_weight: float = 0.0
    w_weight: float = 0.0
    e_residual: float = 0.0

    def validate(self) -> None:
        for f in dataclass_fields(self):
            if not np.isfinite(getattr(self, f.name)):
                raise FloatingPointError(f"non-finite diagnostic {f.name}")


RECORD_COLUMNS = tuple(f.name for f in dataclass_fields(DiagnosticsRecord))


def write_records_csv(path, records: list[DiagnosticsRecord]) -> None:
    """Frozen column order, shortest round-trip float formatting."""
    with open(path, "w", newline="") as fh:
        w = csv.writer(fh)
        w.writerow(RECORD_COLUMNS)
        for r in records:
            w.writerow([repr(float(getattr(r, c))) for c in RECORD_COLUMNS])


def read_records_csv(path) -> list[DiagnosticsRecord]:
    with open(path, newline="") as fh:
        rows = list(csv.reader(fh))
    if not rows or tuple(rows[0]) != RECORD_COLUMNS:
        raise ValueError("unexpected timeseries header")
    return [DiagnosticsRecord(*(float(x) for x in row)) for row in rows[1:]]


# budgets -----------------------------------------------------------------

def _tensor_pairing(grid: GridSpec, T6: np.ndarray, w: np.ndarray) -> float:
    """(T | grad w) for a symmetric tensor stored in _SYM order."""
    total = 0.0
    for m, (i, j) in enumerate(_SYM):
        gw = 1j * grid.kvec[j] * w[i]
        total += pairing(grid, T6[m], gw)
        if i != j:
            gw = 1j * grid.kvec[i] * w[j]
            total += pairing(grid, T6[m], gw)
    return total


def budget_terms(state: SimState3D, params: PhysicalParams, s: float = 0.5) -> dict:
    """The eight budget inner products of the extended system at Sobolev
    index s (s = 1/2 is the critical budget; other s gives the H^s
    propagation budget), plus the squared norms entering the identities."""
    if state.v is None:
        raise ValueError("the budget needs an extended-mode state carrying v")
    g = state.grid
    eps = params.eps
    up = to_physical(g, state.u.c)
    Bp = to_physical(g, state.B.c)
    vp = to_physical(g, state.v.c)
    w = curl3(state.v)
    wp = to_physical(g, w.c)

    uu = apply_lambda_scalar(g, to_spectral(g, np.stack([up[i] * up[j] for i, j in _SYM])), s)
    BB = apply_lambda_scalar(g, to_spectral(g, np.stack([Bp[i] * Bp[j] for i, j in _SYM])), s)
    lu = apply_lambda_scalar(g, state.u.c, s)
    lb = apply_lambda_scalar(g, state.B.c, s)
    lv = apply_lambda_scalar(g, state.v.c, s)

    a1 = _tensor_pairing(g, uu, lu)
    a2 = -_tensor_pairing(g, BB, lu)
    vxB = apply_lambda_scalar(g, to_spectral(g, np.cross(vp, Bp, axis=0)), s)
    a3 = pairing(g, vxB, curl3(SpectralField(g, lb)).c)
    a4 = _tensor_pairing(g, uu, lv)
    a5 = -_tensor_pairing(g, BB, lv)

    lcurlv = curl3(SpectralField(g, lv)).c
    wxB = apply_lambda_scalar(g, to_spectral(g, np.cross(wp, Bp, axis=0)), s)
    lw_phys = to_physical(g, apply_lambda_scalar(g, w.c, s))
    lwxB = to_spectral(g, np.cross(lw_phys, Bp, axis=0))
    a6 = -eps * pairing(g, wxB - lwxB, lcurlv)

    vxu = apply_lambda_scalar(g, to_spectral(g, np.cross(vp, up, axis=0)), s)
    a7 = pairing(g, vxu, lcurlv)

    # v.grad B = div(B (x) v) for solenoidal v, as in the full-lattice
    # reference of tests/oracle3d.py (the stepper folds this term into
    # v x E and curl(v x B))
    P = to_spectral(g, np.stack([vp[i] * Bp[j] for i in range(3) for j in range(3)]))
    P = P.reshape((3, 3) + g.spectral_shape)
    vgradB = np.stack([sum(1j * g.kvec[k] * P[k, j] for k in range(3)) for j in range(3)])
    a8 = 2.0 * eps * pairing(g, apply_lambda_scalar(g, vgradB, s), lcurlv)

    return {
        "a1": a1, "a2": a2, "a3": a3, "a4": a4,
        "a5": a5, "a6": a6, "a7": a7, "a8": a8,
        "xu": hs_norm(state.u, s) ** 2,
        "xb": hs_norm(state.B, s) ** 2,
        "xv": hs_norm(state.v, s) ** 2,
        "yu": hs_norm(state.u, s + 1.0) ** 2,
        "yb": hs_norm(state.B, s + 1.0) ** 2,
        "yv": hs_norm(state.v, s + 1.0) ** 2,
    }


def budget_identity_residuals(state0: SimState3D, state1: SimState3D,
                              params: PhysicalParams, s: float = 0.5) -> dict:
    """Absolute residuals of the three budget identities on one snapshot
    pair (centered difference in time, averaged terms); O(dt^2)."""
    h = state1.t - state0.t
    if h <= 0:
        raise ValueError("snapshots must be time-ordered")
    return budget_residuals(budget_terms(state0, params, s), budget_terms(state1, params, s),
                            h, params)


def budget_residuals(b0: dict, b1: dict, h: float, params: PhysicalParams) -> dict:
    """budget_identity_residuals from the budget_terms of the two
    snapshots, h apart in time."""
    avg = {k: 0.5 * (b0[k] + b1[k]) for k in b0}
    res_u = (b1["xu"] - b0["xu"]) / (2 * h) + params.mu * avg["yu"] - (avg["a1"] + avg["a2"])
    res_b = (b1["xb"] - b0["xb"]) / (2 * h) + params.mu * avg["yb"] - avg["a3"]
    res_v = (b1["xv"] - b0["xv"]) / (2 * h) + params.mu * avg["yv"] - (
        avg["a4"] + avg["a5"] + avg["a6"] + avg["a7"] + avg["a8"]
    )
    scale = max(avg["yu"], avg["yb"], avg["yv"], 1e-300)
    return {
        "res_u": abs(res_u), "res_b": abs(res_b), "res_v": abs(res_v),
        "rel_u": abs(res_u) / scale, "rel_b": abs(res_b) / scale, "rel_v": abs(res_v) / scale,
        "terms": avg,
    }


def fit_budget_6100(samples: list[dict]) -> float:
    """Empirical constant in d/dt X^2 + 2 mu Y^2 <= C X Y^2 for the triple
    budget (X^2, Y^2 the summed squared H^{1/2} and H^{3/2} norms): the
    identity gives d/dt X^2 + 2 mu Y^2 = 2 sum A_i, so C is fitted as the
    max of 2 sum A_i / (X Y^2)."""
    c = 0.0
    for b in samples:
        total = 2.0 * sum(b[f"a{i}"] for i in range(1, 9))
        x = np.sqrt(b["xu"] + b["xb"] + b["xv"])
        y2 = b["yu"] + b["yb"] + b["yv"]
        if total > 0 and x > 0 and y2 > 0:
            c = max(c, total / (x * y2))
    return c


# cancellation / adjointness ----------------------------------------------

def cancellation_check(v: SpectralField, B: SpectralField) -> float:
    """Normalized residual of (curl((curl v) x B) | v) = 0; the product is
    formed without dealiasing (the identity is exact in the discrete
    inner product for any band-limited fields)."""
    g = v.grid
    w = curl3(v)
    wp = to_physical(g, w.c)
    Bp = to_physical(g, B.c)
    q = SpectralField(g, to_spectral(g, np.cross(wp, Bp, axis=0)))
    num = abs(l2_inner(curl3(q), v))
    den = hs_norm(q, 0.0) * hs_norm(w, 0.0)
    return num / den if den > 0 else 0.0


def adjointness_check(w: SpectralField, v: SpectralField) -> float:
    """|(curl w | v) - (w | curl v)| / (||w|| ||v||)."""
    num = abs(l2_inner(curl3(w), v) - l2_inner(w, curl3(v)))
    den = hs_norm(w, 0.0) * hs_norm(v, 0.0)
    return num / den if den > 0 else 0.0


# run-level monitors -------------------------------------------------------

def energy_drift_series(t: np.ndarray, l2u2: np.ndarray, l2b2: np.ndarray,
                        diss_u: np.ndarray, diss_b: np.ndarray,
                        mu: float, nu: float) -> np.ndarray:
    """|LHS(t) - E0| / E0 for the energy balance
    ||u||^2 + ||B||^2 + 2 mu int ||grad u||^2 + 2 nu int ||grad B||^2 = E0;
    diss_* are the cumulative dissipation integrals."""
    e0 = l2u2[0] + l2b2[0]
    if e0 == 0.0:
        return np.zeros_like(np.asarray(t, dtype=float))
    lhs = l2u2 + l2b2 + 2.0 * mu * diss_u + 2.0 * nu * diss_b
    return np.abs(lhs - e0) / e0


def monotonicity_monitor(t: np.ndarray, triple12_sq: np.ndarray,
                         triple32_sq: np.ndarray, mu: float) -> dict:
    """Sign monitor for the critical triple norm plus the integrated
    inequality X^2(t2) + (mu/2) int_{t1}^{t2} Y^2 <= X^2(t1) between every
    consecutive sample pair (trapezoid quadrature)."""
    x2 = np.asarray(triple12_sq, dtype=float)
    y2 = np.asarray(triple32_sq, dtype=float)
    t = np.asarray(t, dtype=float)
    upticks = np.diff(x2)
    max_uptick = float(upticks.max(initial=0.0))
    seg = 0.5 * np.diff(t) * (y2[1:] + y2[:-1])
    violation = x2[1:] + 0.5 * mu * seg - x2[:-1]
    max_violation = float(violation.max(initial=0.0))
    scale = max(float(x2[0]), 1e-300)
    return {
        "nonincreasing": bool(max_uptick <= 1e-8 * scale),
        "max_uptick": max_uptick,
        "max_uptick_rel": max_uptick / scale,
        "ineq_2888_holds": bool(max_violation <= 1e-10 * scale),
        "max_violation_2888": max_violation,
        "max_violation_2888_rel": max_violation / scale,
    }


def decay_monitor(t: np.ndarray, triple12_sq: np.ndarray) -> dict:
    """Checkpoints, the fitted exponential rate of the squared triple norm
    (log-linear least squares), and the final/initial ratio."""
    t = np.asarray(t, dtype=float)
    y = np.asarray(triple12_sq, dtype=float)
    pos = y > 0
    rate = float("nan")
    if pos.sum() >= 2:
        slope = np.polyfit(t[pos], np.log(y[pos]), 1)[0]
        rate = -float(slope)
    ratio = float(y[-1] / y[0]) if y[0] > 0 else 0.0
    return {"fitted_rate": rate, "final_over_initial": ratio,
            "initial": float(y[0]), "final": float(y[-1])}


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
    weight: float        # ||(u, B, J)||_{H1}^4 of the reference run
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
    multiple of control.dt.
    """
    if not twins:
        raise ValueError("weak-strong comparison needs at least one twin run")
    for uB, _ in twins:
        if uA.grid is not uB.grid and uA.grid.spectral_shape != uB.grid.spectral_shape:
            raise ValueError("twin runs must share the grid")
    nsteps = step_count(control.t_end, control.dt)
    ref = StepSession(make_state(uA, BA, params), params, control)
    sessions = [StepSession(make_state(uB, BB_, params), params, control) for uB, BB_ in twins]
    sp = ref.sp
    dt = control.dt

    def weight_now() -> float:
        h1 = ref.hs2("u", 1.0) + ref.hs2("B", 1.0) + ref.hs2("curl_B", 1.0)
        return h1 ** 2

    def diff2(twin: StepSession) -> tuple:
        """Squared L2 norms of du, dB, dv and squared H1 norms of du, dB."""
        du_ = ref.fields[0] - twin.fields[0]
        dB_ = ref.fields[1] - twin.fields[1]
        dv_ = du_ - params.eps * sp._curl(dB_)
        return (sp.sum_hs2(du_, 0.0), sp.sum_hs2(dB_, 0.0), sp.sum_hs2(dv_, 0.0),
                sp.sum_hs2(du_, 1.0), sp.sum_hs2(dB_, 1.0))

    w = weight_now()
    prev = [diff2(twin) for twin in sessions]
    outs = [[TwinRunDelta(ref.t, np.sqrt(du2), np.sqrt(dB2), np.sqrt(dv2), 0.0, 0.0, w, 0.0)]
            for du2, dB2, dv2, _, _ in prev]
    # per twin: int ||grad du||^2, int ||grad dB||^2, the Gronwall integral
    ints = [[0.0, 0.0, 0.0] for _ in twins]
    for i in range(1, nsteps + 1):
        ref.advance()
        for twin in sessions:
            twin.advance()
        p_w, w = w, weight_now()
        sampled = i % sample_every == 0 or i == nsteps
        for k, twin in enumerate(sessions):
            du2, dB2, dv2, gdu2, gdB2 = cur = diff2(twin)
            p_du2, p_dB2, _, p_gdu2, p_gdB2 = prev[k]
            acc = ints[k]
            acc[0] += 0.5 * dt * (p_gdu2 + gdu2)
            acc[1] += 0.5 * dt * (p_gdB2 + gdB2)
            acc[2] += 0.5 * dt * ((p_du2 + p_dB2) * p_w + (du2 + dB2) * w)
            prev[k] = cur
            if sampled:
                outs[k].append(TwinRunDelta(ref.t, float(np.sqrt(du2)), float(np.sqrt(dB2)),
                                            float(np.sqrt(dv2)), acc[0], acc[1], w, acc[2]))
    return [(out, _twin_summary(out, params)) for out in outs]


def _twin_summary(out: list[TwinRunDelta], params: PhysicalParams) -> dict:
    pref = (1.0 + params.eps**4) / min(params.mu, params.nu) ** 3
    c_fit = 0.0
    sup_delta = 0.0
    for r in out[1:]:
        lhs = r.du**2 + r.dB**2 + params.mu * r.grad_du_int + params.nu * r.grad_dB_int
        sup_delta = max(sup_delta, np.sqrt(r.du**2 + r.dB**2))
        if r.gronwall_int > 0:
            c_fit = max(c_fit, lhs / (pref * r.gronwall_int))
    return {
        "c_fit": c_fit,
        "sup_delta": sup_delta,
        "max_final_delta": np.sqrt(out[-1].du**2 + out[-1].dB**2),
        "identical": sup_delta == 0.0,
        "prefactor": pref,
    }
