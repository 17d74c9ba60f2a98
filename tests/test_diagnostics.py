"""Budgets, cancellation/adjointness, run monitors, twin-run comparator."""

import re

import numpy as np
import pytest

from hallmhd.config import ConfigError
from hallmhd.diagnostics import (
    RECORD_COLUMNS,
    DiagnosticsRecord,
    adjointness_check,
    budget_residuals,
    budget_terms,
    cancellation_check,
    cumulative_simpson,
    decay_monitor,
    energy_drift_series,
    monotonicity_monitor,
    write_records_csv,
)
from hallmhd.fields import SpectralField
from hallmhd.grid import GridSpec
from hallmhd.operators import leray_project
from hallmhd.params import CFLError, PhysicalParams, StepControl, required_dt
from hallmhd import solver3d as s3
from hallmhd.runner import NumericsError, weakstrong_monitor
from hallmhd.sampling import random_field, single_mode_field

from oracle3d import read_records_csv

P1 = PhysicalParams(1.0, 1.0, 1.0)


class TestCancellation:
    def test_random_divfree_pairs(self, g3_32):
        worst = 0.0
        for i in range(10):
            v = random_field(g3_32, 1, g3_32.n / 3, seed=2 * i, divfree=True)
            B = random_field(g3_32, 1, g3_32.n / 3, seed=2 * i + 1, divfree=True)
            worst = max(worst, cancellation_check(v, B))
        assert worst <= 1e-12

    def test_v_equals_b(self, g3_32):
        B = random_field(g3_32, 1, 8, seed=3)
        assert cancellation_check(B, B) <= 1e-12

    def test_adjointness(self, g3_32):
        w = random_field(g3_32, 1, 10, seed=4, divfree=False)
        v = random_field(g3_32, 1, 10, seed=5, divfree=False)
        assert adjointness_check(w, v) <= 1e-13


class TestBudget:
    def test_zero_state(self, g3):
        st = s3.make_state(SpectralField.zeros(g3), SpectralField.zeros(g3), P1,
                           extended=True)
        bt = budget_terms(st, P1)
        assert all(bt[f"a{i}"] == 0.0 for i in range(1, 9))

    def test_beltrami_all_terms_vanish(self, g3):
        u0, B0 = s3.make_initial(g3, "beltrami", 0.4)
        st = s3.make_state(u0, B0, P1, extended=True)
        bt = budget_terms(st, P1)
        scale = bt["yv"]
        assert all(abs(bt[f"a{i}"]) <= 1e-12 * scale for i in range(1, 9))

    def test_needs_extended_state(self, g3):
        st = s3.make_state(SpectralField.zeros(g3), SpectralField.zeros(g3), P1)
        with pytest.raises(ValueError):
            budget_terms(st, P1)

    @pytest.mark.parametrize("s", [0.5, 1.0])
    def test_identity_residuals_second_order(self, g3, s):
        # the centered-difference residual constant grows like (mu k^2)^3;
        # band |k| <= 2 keeps dt = 1e-3 well inside the absolute tolerance
        u0, B0 = s3.make_initial(g3, "random_band", 0.25, seed=17, hi=2.0)
        st0 = s3.make_state(u0, B0, P1, extended=True)

        def res(dt):
            ctrl = StepControl(dt=dt, t_end=1)
            st = st0
            for _ in range(4):
                st = s3.step(st, P1, ctrl)
            st2 = s3.step(st, P1, ctrl)
            r = budget_residuals(budget_terms(st, P1, s), budget_terms(st2, P1, s),
                                 st2.t - st.t, P1)
            return max(r["res_u"], r["res_b"], r["res_v"])

        r1, r2 = res(2e-3), res(1e-3)
        assert r2 <= 1e-5
        assert 3.0 <= r1 / r2 <= 5.0

    def test_time_order_enforced(self, g3):
        u0, B0 = s3.make_initial(g3, "random_band", 0.1, seed=18)
        st = s3.make_state(u0, B0, P1, extended=True)
        b = budget_terms(st, P1)
        with pytest.raises(ValueError, match="time-ordered"):
            budget_residuals(b, b, 0.0, P1)


class TestCumulativeSimpson:
    """The run's dissipation integrator against SciPy's, whose bits every
    run artifact was written with."""

    @pytest.mark.parametrize("dx", [5e-4, 1e-3, 1.3e-3, 2e-3, 1e-2])
    def test_bit_identical_to_scipy(self, dx):
        from scipy.integrate import cumulative_simpson as scipy_cumulative_simpson

        rng = np.random.default_rng(int(dx * 1e4))
        for n in [*range(2, 41), 151, 1001, 1002]:
            for mag in (1e-12, 1e-8, 1e-4, 1.0, 1e2):
                for y in (mag * rng.random(n), mag * rng.standard_normal(n)):
                    want = scipy_cumulative_simpson(y, dx=dx, initial=0.0)
                    got = cumulative_simpson(tuple(y), dx)
                    assert got.shape == want.shape
                    assert np.array_equal(got.view(np.int64), want.view(np.int64)), (n, mag)

    @pytest.mark.parametrize("n", [3, 4, 11, 12])
    def test_exact_for_quadratics(self, n):
        t = np.linspace(0.0, 1.0, n)
        got = cumulative_simpson(1.0 - 3.0 * t + 6.0 * t ** 2, t[1])
        assert np.allclose(got, t - 1.5 * t ** 2 + 2.0 * t ** 3, rtol=0, atol=1e-15)


class TestRunMonitors:
    def test_energy_drift_zero_data(self):
        t = np.linspace(0, 1, 5)
        z = np.zeros(5)
        assert np.all(energy_drift_series(t, z, z, z, z, 1.0, 1.0) == 0.0)

    def test_energy_drift_exact_closure(self):
        # synthetic exact heat decay at |k|^2 = 1
        t = np.linspace(0, 1, 101)
        e = np.exp(-2 * t)
        dissint = 0.5 * (1 - np.exp(-2 * t))
        drift = energy_drift_series(t, e, np.zeros_like(t), dissint, np.zeros_like(t),
                                    1.0, 1.0)
        assert drift.max() < 1e-14

    def test_monotonicity_flags_upticks(self):
        t = np.linspace(0, 1, 11)
        x2 = np.exp(-2 * t)
        y2 = np.exp(-2 * t)
        good = monotonicity_monitor(t, x2, y2, mu=0.1)
        assert good["nonincreasing"] and good["ineq_2888_holds"]
        x2_bad = x2.copy()
        x2_bad[5] = x2_bad[4] * 1.5
        bad = monotonicity_monitor(t, x2_bad, y2, mu=0.1)
        assert not bad["nonincreasing"]
        assert bad["max_uptick"] > 0

    def test_2888_violation_detected(self):
        # constant norm with nonzero dissipation cannot satisfy the bound
        t = np.linspace(0, 1, 11)
        x2 = np.ones_like(t)
        y2 = np.ones_like(t)
        r = monotonicity_monitor(t, x2, y2, mu=1.0)
        assert not r["ineq_2888_holds"]

    def test_decay_monitor_rate(self):
        t = np.linspace(0, 2, 41)
        y = 0.3 * np.exp(-2.0 * t)
        out = decay_monitor(t, y)
        assert out["fitted_rate"] == pytest.approx(2.0, rel=1e-10)
        assert out["final_over_initial"] == pytest.approx(np.exp(-4.0), rel=1e-12)

    def test_decay_monitor_zero_data(self):
        t = np.linspace(0, 1, 5)
        out = decay_monitor(t, np.zeros(5))
        assert out["final_over_initial"] == 0.0


class TestWeakStrong:
    def test_identical_runs_zero_delta(self, g3):
        u0, B0 = s3.make_initial(g3, "random_band", 0.05, seed=23)
        ctrl = StepControl(dt=1e-3, t_end=0.02)
        [(deltas, summ)] = weakstrong_monitor(u0, B0, [(u0, B0)], P1, ctrl, sample_every=5)
        assert summ["identical"]
        assert summ["sup_delta"] <= 1e-13
        assert all(d.du == 0.0 and d.dB == 0.0 for d in deltas)

    def test_perturbed_pair_bounded(self, g3):
        u0, B0 = s3.make_initial(g3, "random_band", 0.05, seed=24)
        pert = leray_project(single_mode_field(g3, (1, 1, 0), np.array([1e-6, -1e-6, 0])))
        ctrl = StepControl(dt=1e-3, t_end=0.05)
        [(deltas, summ)] = weakstrong_monitor(u0, B0, [(u0 + pert, B0)], P1, ctrl,
                                              sample_every=10)
        assert 0 < summ["sup_delta"] < 1e-4
        assert np.isfinite(summ["c_fit"]) and summ["c_fit"] > 0
        # the fitted constant certifies the bound at every sample
        pref = summ["prefactor"]
        for d in deltas[1:]:
            lhs = d.du**2 + d.dB**2 + P1.mu * d.grad_du_int + P1.nu * d.grad_dB_int
            assert lhs <= summ["c_fit"] * pref * d.gronwall_int * (1 + 1e-9)

    def test_eps_zero_pair(self, g3):
        params = PhysicalParams(1.0, 1.0, 0.0)
        u0, B0 = s3.make_initial(g3, "random_band", 0.05, seed=25)
        pert = leray_project(single_mode_field(g3, (1, 0, 0), np.array([0, 1e-6, 0])))
        ctrl = StepControl(dt=1e-3, t_end=0.03)
        [(_, summ)] = weakstrong_monitor(u0, B0, [(u0 + pert, B0)], params, ctrl,
                                         sample_every=10)
        assert np.isfinite(summ["c_fit"])

    def test_nan_pair_does_not_pass(self, g3):
        """One NaN coefficient in the second run must stop the comparison;
        Python max would otherwise report sup_delta = c_fit = 0."""
        u0, B0 = s3.make_initial(g3, "random_band", 0.05, seed=27)
        c = u0.c.copy()
        c[0, 1, 1, 1] = np.nan
        with pytest.raises(NumericsError, match="at step 1 "):
            weakstrong_monitor(u0, B0, [(u0.with_coeffs(c), B0)], P1,
                               StepControl(dt=1e-3, t_end=0.02), sample_every=5)

    def test_guard_broken_mid_run_names_the_step(self):
        """dt at 0.98 of the t = 0 step guard admits the start, and the
        growing fields break the guard some steps later: NumericsError
        naming that step, as runner.run raises."""
        grid, params = GridSpec.create(3, 16), PhysicalParams(0.02, 0.02, 1.0)
        u0, B0 = s3.make_initial(grid, "random_band", 1.0, seed=4)
        probe = StepControl(dt=1.0, t_end=1.0)
        dt = 0.98 * required_dt(grid, params, probe, float(np.abs(u0.to_physical()).max()),
                                float(np.abs(B0.to_physical()).max()))
        ctrl = StepControl(dt=dt, t_end=200 * dt)
        with pytest.raises(NumericsError) as info:
            weakstrong_monitor(u0, B0, [(u0, B0)], params, ctrl, sample_every=5)
        assert isinstance(info.value.__cause__, CFLError)
        step = re.search(r"at step (\d+) \(t=", str(info.value))
        assert step and 1 < int(step[1]) < 200

    def test_guard_rejects_dt_at_t0(self, g3):
        """A dt the step guards reject at t = 0 is a configuration error,
        raised before any step."""
        u0, B0 = s3.make_initial(g3, "random_band", 1.0, seed=4)
        with pytest.raises(ConfigError, match="violates the step guards at t=0"):
            weakstrong_monitor(u0, B0, [(u0, B0)], P1, StepControl(dt=0.05, t_end=0.2))

    def test_grid_mismatch_rejected(self, g3, g3_32):
        uA, BA = s3.make_initial(g3, "random_band", 0.05, seed=26)
        uB, BB_ = s3.make_initial(g3_32, "random_band", 0.05, seed=26)
        with pytest.raises(ValueError):
            weakstrong_monitor(uA, BA, [(uB, BB_)], P1, StepControl(dt=1e-3, t_end=0.01))
        # a twin whose B alone is on another lattice
        _, B24 = s3.make_initial(GridSpec.create(3, 24), "random_band", 0.05, seed=26)
        with pytest.raises(ValueError, match="one lattice"):
            weakstrong_monitor(uA, BA, [(uA, B24)], P1, StepControl(dt=1e-3, t_end=0.01))

    def test_shared_reference_matches_separate_calls(self, g3):
        """Twins stepped against one reference give, bit for bit, what
        one-twin calls give; the identical twin stays at zero."""
        u0, B0 = s3.make_initial(g3, "random_band", 0.05, seed=28)
        pert = leray_project(single_mode_field(g3, (1, 1, 0), np.array([1e-6, -1e-6, 0])))
        twins = [(u0, B0), (u0 + pert, B0), (u0, B0 + pert * -2.0)]
        ctrl = StepControl(dt=1e-3, t_end=0.013)
        shared = weakstrong_monitor(u0, B0, twins, P1, ctrl, sample_every=5)
        assert len(shared) == len(twins)
        for twin, (deltas, summ) in zip(twins, shared):
            [(alone, alone_summ)] = weakstrong_monitor(u0, B0, [twin], P1, ctrl, sample_every=5)
            assert deltas == alone
            assert summ == alone_summ
        assert shared[0][1]["sup_delta"] == 0.0
        assert shared[1][1]["sup_delta"] > 0.0 and shared[2][1]["sup_delta"] > 0.0
        assert [d.t for d in shared[1][0]] == pytest.approx([0.0, 0.005, 0.01, 0.013])

    def test_t_end_off_the_dt_grid_rejected(self, g3):
        u0, B0 = s3.make_initial(g3, "random_band", 0.05, seed=30)
        with pytest.raises(ValueError, match="integer multiple"):
            weakstrong_monitor(u0, B0, [(u0, B0)], P1, StepControl(dt=1e-3, t_end=0.0105))

    def test_no_twins_rejected(self, g3):
        u0, B0 = s3.make_initial(g3, "random_band", 0.05, seed=29)
        with pytest.raises(ValueError):
            weakstrong_monitor(u0, B0, [], P1, StepControl(dt=1e-3, t_end=0.01))

    @pytest.mark.parametrize("every", [0, -1])
    def test_sample_every_below_one_rejected(self, g3, every):
        """0 would divide by zero at the first step, and -1 would sample
        every step."""
        u0, B0 = s3.make_initial(g3, "random_band", 0.05, seed=29)
        with pytest.raises(ValueError, match="sample_every"):
            weakstrong_monitor(u0, B0, [(u0, B0)], P1, StepControl(dt=1e-3, t_end=0.01),
                               sample_every=every)


class TestRecordsCsv:
    def test_roundtrip_and_frozen_columns(self, tmp_path):
        recs = [DiagnosticsRecord(t=0.0, l2_u=1.2345678901234567, a3=-1e-17),
                DiagnosticsRecord(t=0.1, h32_v=3.14)]
        path = tmp_path / "ts.csv"
        write_records_csv(path, recs)
        header = path.read_text().splitlines()[0]
        assert header == ",".join(RECORD_COLUMNS)
        assert RECORD_COLUMNS[0] == "t" and RECORD_COLUMNS[-1] == "e_residual"
        back = read_records_csv(path)
        for a, b in zip(recs, back):
            for c in RECORD_COLUMNS:
                assert getattr(a, c) == getattr(b, c)  # bit-exact round trip

    def test_nonfinite_rejected(self):
        r = DiagnosticsRecord(t=0.0, l2_u=np.nan)
        with pytest.raises(FloatingPointError):
            r.validate()
