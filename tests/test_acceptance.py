"""Acceptance gate: the ten verification criteria at their pinned
tolerances, one printed pass/fail line each.

Run as `pytest -v -s tests/test_acceptance.py`.  Desk scale (N = 32-64);
the energy-balance and twin-run criteria dominate the runtime on a
single core.  Where a criterion states only O(dt^2) self-convergence,
the pinned halving bracket is [3.0, 5.0]; where it states the bracket
explicitly it is [3.5, 4.5].
"""

import time

import numpy as np
import pytest

from hallmhd import solver25d as s25
from hallmhd import solver3d as s3
from hallmhd.checks import (
    gronwall_suite,
    hall_cancellation_suite,
    operator_identity_suite,
)
from hallmhd.config import RunConfig
from hallmhd.diagnostics import budget_residuals, budget_terms
from hallmhd.fields import SpectralField
from hallmhd.grid import GridSpec
from hallmhd.norms import interpolation_check
from hallmhd.operators import band_filter, leray_project, spectral_pad
from hallmhd.params import PhysicalParams, StepControl
from hallmhd.presets import bisect_monotonicity_threshold
from hallmhd.probes import inequality_probe, kato_ponce_probe
from hallmhd.runner import run, weakstrong_monitor
from hallmhd.sampling import random_field, single_mode_field
from hallmhd.snapshots import read_snapshot

from oracle3d import e_residual

pytestmark = pytest.mark.acceptance


def report(k: int, ok: bool, msg: str, t0: float) -> None:
    line = f"[ACCEPTANCE {k:2d}] {'PASS' if ok else 'FAIL'} {msg} [{time.perf_counter() - t0:.0f}s]"
    print(f"\n{line}")
    # the terminal-summary hook re-emits the lines past pytest's capture
    from conftest import ACCEPTANCE_LINES

    ACCEPTANCE_LINES.append(line)
    assert ok, line


def test_criterion_01_operator_identity_suite():
    t0 = time.perf_counter()
    res = operator_identity_suite(n=32, fields=200, seed=0)
    named = {k: res[k] for k in (
        "curlinv_curl", "leray_idempotent", "leray_selfadjoint", "adjointness",
        "ws6", "i1", "double_curl", "equivnorm")}
    worst = max(named.values())
    ok = worst <= 1e-11 and res["interpolation_violation"] <= 1e-10
    report(1, ok, f"operator identities on 200 fields, N=32: max residual "
                  f"{worst:.2e} (tol 1e-11)", t0)


def test_criterion_02_hall_cancellation():
    t0 = time.perf_counter()
    worst = hall_cancellation_suite(n=32, pairs=100, seed=0)
    report(2, worst <= 1e-12,
           f"hall cancellation on 100 pairs: max residual {worst:.2e} (tol 1e-12)", t0)


def test_criterion_03_beltrami_exact_solution(tmp_path):
    t0 = time.perf_counter()
    delta, mu = 0.1, 1.0
    cfg = RunConfig(dimension=3.0, formulation="physical", n=32,
                    init_kind="beltrami", amplitude=delta, mu=mu, nu=mu, eps=1.0,
                    dt=1e-3, t_end=1.0, sample_every=25, seed=0,
                    out_dir=str(tmp_path / "beltrami"))
    res = run(cfg)
    _, fields = read_snapshot(res.out_dir / "snap_final.hmhd")
    grid = GridSpec.create(3, 32)
    exact = s3.abc_field(grid, delta * np.exp(-mu * 1.0))
    diff = fields[1] - exact
    from hallmhd.norms import hs_norm
    l2_err = hs_norm(diff, 0.0) / hs_norm(exact, 0.0)
    rate = res.summary["decay"]["fitted_rate"]
    ok = l2_err <= 1e-8 and abs(rate - 2 * mu) <= 0.01 * 2 * mu
    report(3, ok, f"beltrami decay: L2 error {l2_err:.2e} (tol 1e-8), "
                  f"fitted rate {rate:.5f} vs 2mu={2*mu} (tol 1%)", t0)


def test_criterion_04_energy_balance(tmp_path):
    t0 = time.perf_counter()
    # amplitude 0.1 with c_h = 0.5 keeps dt = 2e-3 inside the explicit-Hall
    # guard at N = 64 (k_max^2 = 1323) with headroom for transient growth
    base3d = dict(dimension=3.0, formulation="extended", n=64, amplitude=0.1,
                  band_lo=1.0, band_hi=2.0, seed=11, sample_every=25, hall_cfl=0.5)
    main3d = run(RunConfig(**base3d, dt=1e-3, t_end=1.0, out_dir=str(tmp_path / "m3")))
    coarse3d = run(RunConfig(**base3d, dt=2e-3, t_end=0.25, out_dir=str(tmp_path / "c3")))
    drift3d = main3d.summary["energy_drift_max"]
    ts = np.array([r.t for r in main3d.records])
    series = np.array(main3d.summary["energy_drift_series"])
    i_quarter = int(np.argmin(np.abs(ts - 0.25)))
    ratio3d = coarse3d.summary["energy_drift_max"] / series[i_quarter]

    base = dict(dimension=2.5, n=64, amplitude=0.2, band_lo=1.0, band_hi=2.0,
                seed=12, sample_every=25)
    main25 = run(RunConfig(**base, dt=1e-3, t_end=1.0, out_dir=str(tmp_path / "m25")))
    quarter = run(RunConfig(**base, dt=1e-3, t_end=0.25, out_dir=str(tmp_path / "q25")))
    coarse = run(RunConfig(**base, dt=2e-3, t_end=0.25, hall_cfl=0.5,
                           out_dir=str(tmp_path / "c25")))
    drift25 = main25.summary["energy_drift_max"]
    ratio25 = coarse.summary["energy_drift_max"] / quarter.summary["energy_drift_max"]

    ok = (drift3d <= 1e-6 and drift25 <= 1e-6
          and 3.5 <= ratio3d <= 4.5 and 3.5 <= ratio25 <= 4.5)
    report(4, ok, f"energy balance N=64 T=1 dt=1e-3: 3D drift {drift3d:.2e}, "
                  f"2.5D drift {drift25:.2e} (tol 1e-6); halving ratios "
                  f"{ratio3d:.2f}, {ratio25:.2f} (in [3.5, 4.5])", t0)


def test_criterion_05_monotonicity(tmp_path):
    t0 = time.perf_counter()
    mu = 0.1
    thr = bisect_monotonicity_threshold(n=16, seed=5, mu=mu)
    amp = 0.1 * thr["threshold_lo"]
    cfg = RunConfig(dimension=3.0, formulation="extended", n=32, mu=mu, nu=mu,
                    eps=1.0, amplitude=amp, dt=1e-3, t_end=1.0, sample_every=10,
                    seed=5, out_dir=str(tmp_path / "mono"))
    res = run(cfg)
    mono = res.summary["monotonicity"]
    vdrift = res.summary["v_drift_max"]
    ok = (mono["max_uptick"] <= 1e-8 and mono["nonincreasing"]
          and mono["ineq_2888_holds"] and vdrift <= 1e-6)
    report(5, ok, f"monotonicity at 10% of threshold {thr['threshold_lo']:.3f} "
                  f"(mu={mu}): max uptick {mono['max_uptick']:.2e} (tol 1e-8), "
                  f"integrated inequality violation "
                  f"{mono['max_violation_2888']:.2e}; redundancy drift over "
                  f"unit time {vdrift:.2e} (tol 1e-6)", t0)


def test_criterion_06_budget_identities():
    t0 = time.perf_counter()
    grid = GridSpec.create(3, 32)
    params = PhysicalParams(1.0, 1.0, 1.0)
    u0, B0 = s3.make_initial(grid, "random_band", 0.25, seed=17, hi=2.0)
    st0 = s3.make_state(u0, B0, params, extended=True)

    def residuals(dt):
        ctrl = StepControl(dt=dt, t_end=1.0)
        st = st0
        for _ in range(4):
            st = s3.step(st, params, ctrl)
        st2 = s3.step(st, params, ctrl)
        out = {}
        for s in (0.5, 1.0):
            r = budget_residuals(budget_terms(st, params, s), budget_terms(st2, params, s),
                                 st2.t - st.t, params)
            out[s] = max(r["res_u"], r["res_b"], r["res_v"])
        return out

    fine = residuals(1e-3)
    coarse = residuals(2e-3)
    ratios = {s: coarse[s] / fine[s] for s in fine}
    ok = (max(fine.values()) <= 1e-5
          and all(3.0 <= r <= 5.0 for r in ratios.values()))
    report(6, ok, f"budget identities: residuals s=1/2 {fine[0.5]:.2e}, "
                  f"s=1 {fine[1.0]:.2e} (tol 1e-5); halving ratios "
                  f"{ratios[0.5]:.2f}, {ratios[1.0]:.2f}", t0)


def test_criterion_07_E_equation(tmp_path):
    t0 = time.perf_counter()
    cfg = RunConfig(dimension=2.5, n=64, amplitude=0.05, band_hi=2.0, dt=1e-3,
                    t_end=0.3, sample_every=1, seed=13,
                    out_dir=str(tmp_path / "e25"))
    res = run(cfg)
    e_res = res.summary["e_residual_max"]
    rw = res.summary["rewritten_res_max"]

    grid = GridSpec.create(2, 64)
    params = PhysicalParams(1.0, 1.0, 1.0)
    u0, B0 = s25.make_initial_25d(grid, "random_band", 0.05, seed=13, hi=2.0)

    def res_at(dt):
        st = s25.make_state_25d(u0, B0, params)
        ctrl = StepControl(dt=dt, t_end=1.0)
        for _ in range(8):
            prev, st = st, s25.step_25d(st, params, ctrl)
        return e_residual(prev, st, params, dt)

    ratio = res_at(2e-3) / res_at(1e-3)
    ok = e_res <= 1e-5 and rw <= 1e-11 and 3.0 <= ratio <= 5.0
    report(7, ok, f"2.5D combined-field law: residual {e_res:.2e} (tol 1e-5), "
                  f"halving ratio {ratio:.2f}; rewritten-induction residual "
                  f"{rw:.2e} (tol 1e-11)", t0)


def test_criterion_08_weak_strong():
    t0 = time.perf_counter()
    params = PhysicalParams(1.0, 1.0, 1.0)
    ctrl = StepControl(dt=1e-3, t_end=0.4)
    g32 = GridSpec.create(3, 32)
    g64 = GridSpec.create(3, 64)
    u0, B0 = s3.make_initial(g32, "random_band", 0.05, seed=23)
    pert32 = leray_project(single_mode_field(g32, (1, 1, 0), np.array([1e-6, -1e-6, 0.0])))

    (_, ident), (_, s32) = weakstrong_monitor(
        u0, B0, [(u0, B0), (u0 + pert32, B0)], params, ctrl, sample_every=20)

    # the same physical data on the finer lattice
    u64 = SpectralField(g64, spectral_pad(g32, u0.c, g64))
    B64 = SpectralField(g64, spectral_pad(g32, B0.c, g64))
    p64 = SpectralField(g64, spectral_pad(g32, pert32.c, g64))
    [(_, s64)] = weakstrong_monitor(u64, B64, [(u64 + p64, B64)], params, ctrl, sample_every=20)

    stability = max(s32["c_fit"], s64["c_fit"]) / min(s32["c_fit"], s64["c_fit"])
    ok = (ident["sup_delta"] <= 1e-13
          and np.isfinite(s32["c_fit"]) and np.isfinite(s64["c_fit"])
          and stability <= 2.0)
    report(8, ok, f"weak-strong twin runs: identical deltas {ident['sup_delta']:.1e} "
                  f"(tol 1e-13); fitted C {s32['c_fit']:.3e} (N=32) vs "
                  f"{s64['c_fit']:.3e} (N=64), stability x{stability:.2f} (tol x2)", t0)


def test_criterion_09_inequality_probes():
    t0 = time.perf_counter()
    grid = GridSpec.create(3, 16)
    holds = all(
        interpolation_check(random_field(grid, 1, 5, seed=i, divfree=False),
                            0.0, 1.5, 0.4)["holds"]
        for i in range(500)
    )

    stable = True
    maxima = {}
    for iid in ("em", "gn1", "gn2", "product"):
        lo = inequality_probe(iid, 25, 32, seed=0)
        hi = inequality_probe(iid, 25, 64, seed=0)
        top, bot = max(lo.max_ratio, hi.max_ratio), min(lo.max_ratio, hi.max_ratio)
        maxima[iid] = top
        stable &= np.isfinite(top) and top / bot <= 2.0
    kp32 = kato_ponce_probe(1.0, 2.0, 4.0, 4.0, 4.0, 4.0, samples=15, resolution=32)
    kp64 = kato_ponce_probe(1.0, 2.0, 4.0, 4.0, 4.0, 4.0, samples=15, resolution=64)
    for key in ("commutator", "product"):
        a, b = kp32[key].max_ratio, kp64[key].max_ratio
        stable &= np.isfinite(a) and np.isfinite(b) and max(a, b) / min(a, b) <= 2.0

    gw = gronwall_suite()
    ok = holds and stable and gw["pass"]
    report(9, ok, f"probes: interpolation exact on 500 samples; "
                  f"maxima {', '.join(f'{k}={v:.2f}' for k, v in maxima.items())} "
                  f"stable within 2x across N=32->64; gronwall traces pass", t0)


def test_criterion_10_frequency_splitting(tmp_path):
    t0 = time.perf_counter()
    grid = GridSpec.create(3, 32)
    f = random_field(grid, 0, np.inf, seed=9, divfree=False)
    rho = 2.5
    rec = band_filter(f, 0, rho).c + band_filter(f, grid.next_shell(rho), np.inf).c
    part_res = float(np.abs(rec - f.c).max()) / float(np.abs(f.c).max())

    cfg = RunConfig(dimension=3.0, formulation="extended", n=32, amplitude=0.02,
                    band_lo=1.0, band_hi=6.0, filter_rho=rho, dt=1e-3, t_end=0.5,
                    sample_every=10, seed=9, out_dir=str(tmp_path / "fs"))
    res = run(cfg)
    ok = (part_res <= 1e-13
          and res.summary["partition_residual"] <= 1e-13
          and res.summary["highfreq_monotone_after_first"])
    report(10, ok, f"frequency splitting: recombination residual {part_res:.1e} "
                   f"(tol 1e-13); high-frequency L2 monotone after one sample", t0)
