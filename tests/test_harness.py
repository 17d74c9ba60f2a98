"""Config parsing, the run driver's artifacts and determinism, presets,
and the CLI exit-code contract."""

import json
import os
import subprocess
import sys
from dataclasses import replace
from pathlib import Path
from types import SimpleNamespace

import numpy as np
import pytest

from hallmhd import cli
from hallmhd.config import ConfigError, RunConfig, config_from_mapping, parse_config_file
from hallmhd.diagnostics import RECORD_COLUMNS
from hallmhd.presets import PRESETS, bisect_monotonicity_threshold, experiment, preset_run_config
from hallmhd.runner import TOL_E_RESIDUAL, NumericsError, run
from hallmhd.snapshots import read_snapshot

from oracle3d import e_residual, read_records_csv


class TestConfig:
    def test_parse_file_and_overrides(self, tmp_path):
        p = tmp_path / "c.cfg"
        p.write_text("# comment\nn = 16\ndt = 2e-3\nformulation = extended\n"
                     "compute_budgets = true\n")
        mapping = parse_config_file(p)
        cfg = config_from_mapping(mapping)
        assert cfg.n == 16 and cfg.dt == 2e-3 and cfg.compute_budgets is True

    def test_unknown_key(self):
        with pytest.raises(ConfigError, match="unknown configuration key"):
            config_from_mapping({"resolution": "32"})

    def test_bad_values(self, tmp_path):
        with pytest.raises(ConfigError):
            config_from_mapping({"n": "many"})
        with pytest.raises(ConfigError):
            config_from_mapping({"compute_budgets": "maybe"})
        p = tmp_path / "bad.cfg"
        p.write_text("just a line without equals\n")
        with pytest.raises(ConfigError):
            parse_config_file(p)

    def test_validation_rules(self):
        with pytest.raises(ConfigError):
            RunConfig(dimension=4.0).validate()
        with pytest.raises(ConfigError):
            RunConfig(formulation="extended", mu=1.0, nu=2.0).validate()
        with pytest.raises(ConfigError):
            RunConfig(formulation="extended", dimension=2.5).validate()
        with pytest.raises(ConfigError):
            RunConfig(n=15).validate()
        with pytest.raises(ConfigError):
            RunConfig(amplitude=-1.0).validate()
        assert RunConfig(init_kind="zero", amplitude=0.0).validate()
        # t_end = 0.15 is 149.99999999999997 dt in floating point
        assert RunConfig(dt=1e-3, t_end=0.15).validate()
        # band_hi = inf keeps every mode, as in random_field
        assert RunConfig(band_hi=float("inf")).validate()

    def test_step_count_rule(self):
        # the one rule behind RunConfig.validate, run() and the twin monitor
        from hallmhd.params import step_count

        assert step_count(0.15, 1e-3) == 150
        assert step_count(0.0105, 5e-4) == 21
        with pytest.raises(ValueError, match="integer multiple"):
            step_count(0.0105, 1e-3)
        for t_end, dt in ((float("inf"), 1e-3), (1e300, 1e-300), (float("nan"), 1e-3)):
            with pytest.raises(ValueError, match="finite step count"):
                step_count(t_end, dt)

    @pytest.mark.parametrize("line", [
        "t_end = 0.0105",        # 10.5 steps: round() would move the final time
        "band_lo = 3.0",         # above the default band_hi = 2.5
        "filter_rho = -1.0",
        "budget_s = 0.0",
        "tol_energy_drift = -1e-6",
        "tol_e_residual = -1e-5",
        "tol_v_drift = -1e-6",
        "snapshot_every = -0.005",
        "seed = -1",
        "decay_fraction = 0.0",            # pass_decay needs 0 < fraction <= 1
        "decay_fraction = 1e9",
        # settings a run would silently ignore
        "compute_budgets = true",          # with the physical formulation
        "dimension = 2.5\nfilter_rho = 2.0",
        "b_amplitude = 0.0",               # in 3D
        "dimension = 2.5\ninit_kind = single_mode_b3\nb_amplitude = 0.3",
        "dimension = 2.5\ninit_kind = zero\nb_amplitude = 0.3",
        "snapshot_every = 0.02",           # above t_end: no periodic snapshot
        # non-finite numbers (band_hi = inf is allowed: every mode)
        "t_end = inf",
        "dt = 1e-300\nt_end = 1e300",
        "mu = nan\nnu = nan",
        "eps = nan",
        "amplitude = nan",
        "band_hi = nan",
        "snapshot_every = nan",
        "budget_s = nan",
        "tol_energy_drift = nan",
        # periodic snapshots (snap_t{t:.6f}, at most one per step) that can
        # fall max(dt, snapshot_every - dt) <= 1e-6 apart would share a name
        "dt = 1e-7\nt_end = 1e-6\nsnapshot_every = 1e-7",
        "dt = 1e-7\nt_end = 1e-6\nsnapshot_every = 1.05e-6",
        "dt = 1e-6\nt_end = 1e-5\nsnapshot_every = 5e-7",
    ])
    def test_inconsistent_config_exit_2(self, tmp_path, line):
        cfgfile = tmp_path / "c.cfg"
        cfgfile.write_text(f"dimension = 3\nn = 16\ndt = 1e-3\nt_end = 0.01\n{line}\n"
                           f"out_dir = {tmp_path}/o\n")
        with pytest.raises(ConfigError):
            config_from_mapping(parse_config_file(cfgfile))
        assert cli.main(["run", "--config", str(cfgfile)]) == 2
        assert not (tmp_path / "o").exists()

    @pytest.mark.parametrize("dimension,kind", [
        ("3", "single_mode_b3"),   # a 2.5D-only kind
        ("2.5", "beltrami"),       # a 3D-only kind
        ("3", "vortex_sheet"),     # no such kind
    ])
    def test_init_kind_per_dimension_exit_2(self, tmp_path, capsys, dimension, kind):
        cfgfile = tmp_path / "c.cfg"
        cfgfile.write_text(f"dimension = {dimension}\nn = 16\ninit_kind = {kind}\n"
                           f"out_dir = {tmp_path}/o\n")
        with pytest.raises(ConfigError, match=kind):
            config_from_mapping(parse_config_file(cfgfile))
        assert cli.main(["run", "--config", str(cfgfile)]) == 2
        assert kind in capsys.readouterr().err
        assert not (tmp_path / "o").exists()

    @pytest.mark.parametrize("every", [0.01, 0.1 * 0.1])  # 0.1 * 0.1 > 0.01 by one ulp
    def test_snapshot_every_equal_to_t_end_writes_one_periodic_snapshot(self, tmp_path, every):
        cfg = RunConfig(dimension=2.5, n=16, dt=1e-3, t_end=0.01, snapshot_every=every)
        res = run(cfg, out_dir=tmp_path / "r")
        assert res.summary["snapshot_times"] == [pytest.approx(0.01, abs=1e-12)]
        assert [p.name for p in (tmp_path / "r").glob("snap_t*.hmhd")] == ["snap_t0.010000.hmhd"]

    def test_snapshot_names_distinct_above_the_spacing_limit(self, tmp_path):
        """Just above the limit each periodic snapshot keeps its own file
        (with dt = snapshot_every = 1e-7 a run listed 10 snapshot times
        but left 2 periodic files)."""
        cfg = RunConfig(dimension=2.5, n=16, dt=2e-6, t_end=2e-5, snapshot_every=2e-6)
        res = run(cfg, out_dir=tmp_path / "r")
        times = res.summary["snapshot_times"]
        assert len(times) == 10
        assert len(list((tmp_path / "r").glob("snap_t*.hmhd"))) == len(times)


class TestRunner:
    def test_zero_data_run(self, tmp_path):
        cfg = RunConfig(dimension=3.0, n=16, init_kind="zero", amplitude=0.0,
                        dt=1e-3, t_end=0.01, sample_every=5,
                        out_dir=str(tmp_path / "z"))
        res = run(cfg)
        assert res.passed
        for r in res.records:
            assert all(getattr(r, c) == 0.0 for c in RECORD_COLUMNS if c != "t")

    def test_determinism_bit_identical(self, tmp_path):
        base = dict(dimension=3.0, formulation="extended", n=16, dt=1e-3,
                    t_end=0.02, sample_every=5, amplitude=0.03, seed=7,
                    compute_budgets=True)
        a = run(RunConfig(**base, out_dir=str(tmp_path / "a")))
        b = run(RunConfig(**base, out_dir=str(tmp_path / "b")))
        assert (tmp_path / "a" / "timeseries.csv").read_bytes() == \
               (tmp_path / "b" / "timeseries.csv").read_bytes()
        assert (tmp_path / "a" / "summary.json").read_bytes() == \
               (tmp_path / "b" / "summary.json").read_bytes()
        assert (tmp_path / "a" / "snap_final.hmhd").read_bytes() == \
               (tmp_path / "b" / "snap_final.hmhd").read_bytes()

    def test_artifacts_and_snapshot_restart(self, tmp_path):
        cfg = RunConfig(dimension=3.0, n=16, dt=1e-3, t_end=0.02, sample_every=10,
                        amplitude=0.03, seed=9, out_dir=str(tmp_path / "r"))
        res = run(cfg)
        out = Path(res.out_dir)
        assert (out / "timeseries.csv").exists()
        assert (out / "summary.json").exists()
        t0, fields0 = read_snapshot(out / "snap_initial.hmhd")
        tf, fieldsf = read_snapshot(out / "snap_final.hmhd")
        assert t0 == 0.0 and tf == pytest.approx(0.02)
        assert len(fields0) == 2

    def test_initial_cfl_guard_is_config_error(self, tmp_path):
        cfg = RunConfig(dimension=3.0, n=16, dt=0.5, t_end=1.0, amplitude=1.0,
                        seed=1, out_dir=str(tmp_path / "cfl"))
        with pytest.raises(ConfigError, match="step guards"):
            run(cfg)

    def test_initial_guard_violation_leaves_no_directory(self, tmp_path):
        out = tmp_path / "cfl"
        cfgfile = tmp_path / "c.cfg"
        cfgfile.write_text(f"dimension = 3\nn = 16\ndt = 0.5\nt_end = 1.0\namplitude = 1.0\n"
                           f"seed = 1\nout_dir = {out}\n")
        assert cli.main(["run", "--config", str(cfgfile)]) == 2
        assert not out.exists()

    def test_dissipation_integrals_nondecreasing(self, tmp_path):
        cfg = RunConfig(dimension=3.0, formulation="extended", n=16, dt=1e-3,
                        t_end=0.05, sample_every=5, amplitude=0.1, seed=6,
                        out_dir=str(tmp_path / "nd"))
        res = run(cfg)
        for col in ("diss_u", "diss_b", "diss_v"):
            vals = np.array([getattr(r, col) for r in res.records])
            assert np.all(np.diff(vals) >= -1e-15 * max(vals.max(), 1e-300))

    def test_summary_is_strict_json(self, tmp_path):
        cfg = RunConfig(dimension=3.0, n=16, init_kind="zero", amplitude=0.0,
                        dt=1e-3, t_end=0.01, sample_every=5,
                        out_dir=str(tmp_path / "sj"))
        run(cfg)
        text = (tmp_path / "sj" / "summary.json").read_text()
        json.loads(text)  # zero-data runs have no fitted rate; must still parse
        assert "NaN" not in text

    # every summary.json key is a pass_* flag, the input of one, or read by a
    # test, bench/ or tools/ (or names the run); a key that none of these
    # reads must not come back unnoticed
    SUMMARY_COMMON = {
        "dimension", "formulation",  # label: the run's system
        "energy_drift_max",     # gate input: pass_energy; bench/run.py, acceptance 4
        "energy_drift_series",  # reader: acceptance 4's order ratio, bench/child.py
        "pass_energy",          # flag
        "snapshot_times",       # reader: TestConfig's periodic-snapshot tests
        "pass",                 # flag: the conjunction of the pass_* flags
    }
    SUMMARY_3D = SUMMARY_COMMON | {
        "monotonicity",       # gate input: pass_monotonicity; acceptance 5, threshold-bisect
        "pass_monotonicity",  # flag
        "decay",              # gate input: pass_decay; fitted_rate: acceptance 3
        "pass_decay",         # flag
    }
    SUMMARY_2P5D = SUMMARY_COMMON | {
        "e_residual_max",     # gate input: pass_e_residual; bench/run.py, acceptance 7
        "rewritten_res_max",  # gate input: pass_rewritten; acceptance 7
        "pass_rewritten",     # flag
        "c611_fit", "c615_fit",  # reader: test_25d_run_summary
    }
    MONOTONICITY = {
        "nonincreasing", "ineq_2888_holds",    # gate input: pass_monotonicity
        "max_uptick", "max_violation_2888",    # reader: acceptance 5
    }
    DECAY = {
        "fitted_rate",         # reader: acceptance 3, test_beltrami_decay_columns
        "final_over_initial",  # gate input: pass_decay
    }

    @pytest.mark.parametrize("extra,keys", [
        (dict(dimension=3.0), SUMMARY_3D),
        (dict(dimension=3.0, nu=0.6), SUMMARY_3D),
        (dict(dimension=3.0, formulation="extended", compute_budgets=True, filter_rho=2.0),
         SUMMARY_3D | {
             "v_drift_max",    # gate input: pass_v_drift; acceptance 5
             "pass_v_drift",   # flag
             "pass_freq_split",  # flag
             "partition_residual", "highfreq_monotone_after_first",  # gate input: pass_freq_split
             # gate input of the run-level budget gate (ROADMAP item 6)
             "budget_residual_max_s05", "budget_residual_max_ss",
         }),
        (dict(dimension=2.5), SUMMARY_2P5D | {"pass_e_residual"}),  # flag, mu = nu only
        (dict(dimension=2.5, nu=0.5), SUMMARY_2P5D),
    ], ids=["3d-phys", "3d-phys-mu-ne-nu", "3d-ext-budgets-split", "2.5d", "2.5d-mu-ne-nu"])
    def test_summary_key_set(self, tmp_path, extra, keys):
        cfg = RunConfig(n=16, dt=1e-3, t_end=0.01, sample_every=5, amplitude=0.05, seed=1,
                        **extra)
        run(cfg, out_dir=tmp_path / "k")
        s = json.loads((tmp_path / "k" / "summary.json").read_text())
        assert set(s) == keys
        if cfg.dimension == 3.0:
            assert set(s["monotonicity"]) == self.MONOTONICITY
            assert set(s["decay"]) == self.DECAY

    def test_25d_run_summary(self, tmp_path):
        cfg = RunConfig(dimension=2.5, n=32, dt=1e-3, t_end=0.05, sample_every=1,
                        amplitude=0.05, band_hi=2.0, seed=3,
                        out_dir=str(tmp_path / "d25"))
        res = run(cfg)
        assert res.passed
        s = res.summary
        assert s["e_residual_max"] <= TOL_E_RESIDUAL
        assert s["rewritten_res_max"] <= 1e-11
        assert np.isfinite(s["c611_fit"]) and np.isfinite(s["c615_fit"])

    def test_25d_zero_b_amplitude_gives_zero_B(self, tmp_path):
        """Only a negative b_amplitude falls back to `amplitude`."""
        cfg = RunConfig(dimension=2.5, n=16, dt=1e-3, t_end=0.01, sample_every=5,
                        amplitude=0.05, b_amplitude=0.0, seed=3)
        res = run(cfg, out_dir=tmp_path / "b0")
        assert res.records[0].l2_b == 0.0 and res.records[0].l2_u > 0.0
        assert res.passed

    @pytest.mark.parametrize("dimension", [3.0, 2.5])
    def test_record_norms_match_full_lattice(self, tmp_path, dimension):
        """The last timeseries row's norm columns, read from the session's
        compact band, equal full-lattice hs_norm of snap_final.hmhd (v is
        the evolved v in 3D extended runs, u - eps curl B in 2.5D)."""
        from hallmhd.norms import hs_norm
        from hallmhd.operators import curl3

        extra = {"formulation": "extended"} if dimension == 3.0 else {}
        cfg = RunConfig(dimension=dimension, n=16, t_end=0.02, sample_every=5, seed=2,
                        out_dir=str(tmp_path / "r"), **extra)
        run(cfg)
        last = read_records_csv(tmp_path / "r" / "timeseries.csv")[-1]
        _, fields = read_snapshot(tmp_path / "r" / "snap_final.hmhd")
        u, B = fields[:2]
        v = fields[2] if dimension == 3.0 else u - cfg.eps * curl3(B)
        expected = {"l2_u": hs_norm(u, 0.0), "l2_b": hs_norm(B, 0.0),
                    **{f"h{tag}_{name}": hs_norm(f, s)
                       for tag, s in (("12", 0.5), ("32", 1.5))
                       for name, f in (("u", u), ("b", B), ("v", v))}}
        for col, value in expected.items():
            assert getattr(last, col) == pytest.approx(value, rel=1e-14, abs=0.0), col

    def test_25d_e_residual_across_last_step(self, tmp_path):
        """With samples 10 steps apart the combined-field law is still
        checked across one step: a healthy run passes."""
        cfg = RunConfig(dimension=2.5, n=32, t_end=0.1, sample_every=10,
                        out_dir=str(tmp_path / "e10"))
        s = run(cfg).summary
        assert s["e_residual_max"] <= TOL_E_RESIDUAL
        assert s["pass_e_residual"] and s["pass"]

    @pytest.mark.parametrize("sample_every", [1, 3])
    def test_25d_e_residual_rows_match_recomputed(self, tmp_path, sample_every):
        """The monitor's carried E-law terms and shared transforms give the
        e_residual rows that E_residual computes afresh across the step
        before each sample, from each state's own transform of u."""
        from hallmhd import solver25d as s25
        from hallmhd.grid import GridSpec
        from hallmhd.params import PhysicalParams, StepControl
        from hallmhd.runner import build_initial

        cfg = RunConfig(dimension=2.5, n=16, dt=1e-3, t_end=0.01, sample_every=sample_every,
                        amplitude=0.1, seed=5)
        res = run(cfg, out_dir=tmp_path / "e")
        grid = GridSpec.create(2, cfg.n)
        params = PhysicalParams(cfg.mu, cfg.nu, cfg.eps)
        control = StepControl(dt=cfg.dt, t_end=cfg.t_end, hall_cfl=cfg.hall_cfl)
        st3 = build_initial(cfg, grid, params)
        states = [s25.make_state_25d(st3.u, st3.B, params)]
        for _ in range(10):
            states.append(s25.step_25d(states[-1], params, control))
        steps = list(range(0, 11, sample_every)) + ([10] if 10 % sample_every else [])
        rows = [r.e_residual for r in res.records]
        assert len(rows) == len(steps)
        assert rows[0] == 0.0
        for i, row in zip(steps[1:], rows[1:]):
            a, b = states[i - 1], states[i]
            assert row == e_residual(a, b, params, b.t - a.t)

    @pytest.mark.parametrize("nu,budget", [(1.0, (7, 3)), (0.5, (5, 2))])
    def test_25d_certificate_transform_budget(self, tmp_path, monkeypatch, nu, budget):
        """Full-lattice transforms per 2.5D sample (the stepper's pruned
        one-axis transforms, rhs_25d included, are not counted): none in
        the calling process's part of sample(), and in its certificate
        job, in whichever process that runs (the worker with two CPUs,
        this process with one), 7 forward and 3 inverse with the
        combined-field law (mu = nu), 5 and 2 without it.  Each job logs
        its counts and its pid to a file."""
        import scipy.fft

        from hallmhd import runner

        stack = []  # the counts of the calls being counted in this process, innermost last

        def counting(fn, slot):
            def wrapped(*args, **kwargs):
                if stack and len(kwargs.get("axes", ())) == 2:
                    stack[-1][slot] += 1
                return fn(*args, **kwargs)
            return wrapped

        sample, certify = runner._Monitor25D.sample, runner._Monitor25D._certify

        def counted(method, report):
            def wrapped(self, *args):
                stack.append([0, 0])
                try:
                    return method(self, *args)
                finally:
                    report(tuple(stack.pop()))
            return wrapped

        def log_job(counts):
            with open(log, "a") as fh:
                fh.write(f"{os.getpid()} {counts[0]} {counts[1]}\n")

        monkeypatch.setattr(scipy.fft, "rfftn", counting(scipy.fft.rfftn, 0))
        monkeypatch.setattr(scipy.fft, "irfftn", counting(scipy.fft.irfftn, 1))
        cfg = RunConfig(dimension=2.5, n=16, dt=1e-3, t_end=0.005, sample_every=1,
                        nu=nu, amplitude=0.1, seed=5)
        for ncpu in (2, 1):
            per_sample, log = [], tmp_path / f"jobs{ncpu}.log"
            TestCertificateOverlap.cpus(monkeypatch, ncpu)
            monkeypatch.setattr(runner._Monitor25D, "sample",
                                counted(sample, per_sample.append))
            monkeypatch.setattr(runner._Monitor25D, "_certify", counted(certify, log_job))
            run(cfg, out_dir=tmp_path / str(ncpu))
            jobs = [line.split() for line in log.read_text().splitlines()]
            assert per_sample == [(0, 0)] * 6
            assert [(int(f), int(i)) for _, f, i in jobs] == [budget] * 6
            assert {int(pid) != os.getpid() for pid, _, _ in jobs} == {ncpu == 2}

    @pytest.mark.parametrize("ncpu", [1, 2])
    def test_25d_samples_scatter_the_state_once(self, tmp_path, monkeypatch, ncpu):
        """A three-sample 2D N = 16 run scatters its full-lattice state
        once per sample and once per before-state, all in the certificate
        job (_certify; rhs_25d adds its diffusion on the band), and once
        for the final snapshot.  With two CPUs the jobs run in the worker
        process, where this process does not count them."""
        import sys
        from collections import Counter

        from hallmhd import solver3d as s3

        state, callers = s3.StepSession.state, Counter()

        def counted(session, saved=None):
            callers[sys._getframe(1).f_code.co_name] += 1
            return state(session, saved)

        TestCertificateOverlap.cpus(monkeypatch, ncpu)
        monkeypatch.setattr(s3.StepSession, "state", counted)
        cfg = RunConfig(dimension=2.5, n=16, dt=1e-3, t_end=0.01, sample_every=5,
                        amplitude=0.1, seed=5)
        run(cfg, out_dir=tmp_path / "r")
        assert callers == {"run": 1, **({"_certify": 3 + 2} if ncpu == 1 else {})}

    @pytest.mark.parametrize("sample_every", [1, 5])
    def test_25d_stage1_evaluated_once_per_step(self, tmp_path, monkeypatch, sample_every):
        """The t = 0 guard and each sample's dB/dt read the session's
        stage-1 term, which the next step reuses: k steps make 2k + 1
        nonlinear evaluations (a stage 1 and a stage 2 per step, plus the
        final sample's), whatever the sampling."""
        from hallmhd import solver3d as s3

        nonlinear = s3._Stepper3D.nonlinear
        calls = []

        def counted(self, *fields, **kwargs):
            calls.append(None)
            return nonlinear(self, *fields, **kwargs)

        monkeypatch.setattr(s3._Stepper3D, "nonlinear", counted)
        k = 10
        cfg = RunConfig(dimension=2.5, n=16, dt=1e-3, t_end=k * 1e-3,
                        sample_every=sample_every, amplitude=0.05, seed=3)
        run(cfg, out_dir=tmp_path / "c")
        assert len(calls) == 2 * k + 1

    def test_peak_memory_under_four_states(self, tmp_path):
        """After a warm-up run of the same config has built the grid and
        the stepper, a 3D extended run with periodic snapshots holds less
        than four full-lattice (u, B, v) states at its peak."""
        import tracemalloc

        from hallmhd.grid import GridSpec

        cfg = RunConfig(dimension=3.0, formulation="extended", n=32, t_end=0.01,
                        sample_every=2, snapshot_every=0.002)
        run(cfg, out_dir=tmp_path / "warm")
        state_bytes = 9 * 16 * np.prod(GridSpec.create(3, 32).spectral_shape)
        tracemalloc.start()
        try:
            run(cfg, out_dir=tmp_path / "measured")
            peak = tracemalloc.get_traced_memory()[1]
        finally:
            tracemalloc.stop()
        assert peak < 4 * state_bytes, peak / state_bytes

    def test_3d_samples_scatter_only_under_budgets(self, tmp_path, monkeypatch):
        """A 3D extended run without budgets reads its samples from the
        compact band: StepSession.state runs only for the two periodic
        snapshots and the final one, not for its three samples."""
        from hallmhd import solver3d as s3

        state, calls = s3.StepSession.state, []

        def counted(session, saved=None):
            calls.append(session.t)
            return state(session, saved)

        monkeypatch.setattr(s3.StepSession, "state", counted)
        cfg = RunConfig(dimension=3.0, formulation="extended", n=16, dt=1e-3, t_end=0.01,
                        sample_every=5, snapshot_every=0.005, amplitude=0.1, seed=11)
        run(cfg, out_dir=tmp_path / "r")
        assert calls == pytest.approx([0.005, 0.01, 0.01])

    @pytest.mark.parametrize("dimension, formulation", [(3.0, "extended"), (2.5, "physical")])
    def test_last_good_snapshot_is_the_sample_snapshot(self, tmp_path, monkeypatch,
                                                       dimension, formulation):
        """A run that fails at step 7, after the sample at step 4, flushes
        the bytes that a clean run of the same config writes as its
        periodic snapshot at that sample's time."""
        from hallmhd import solver3d as s3

        cfg = RunConfig(dimension=dimension, formulation=formulation, n=16, dt=1e-3,
                        t_end=0.012, sample_every=4, snapshot_every=0.004,
                        amplitude=0.1, seed=3)
        run(cfg, out_dir=tmp_path / "clean")
        advance, calls = s3._Stepper3D.advance, []

        def poisoned(self, fields, control, *args):
            calls.append(None)
            if len(calls) == 7:  # poison a copy: the session's fields stay finite
                fields = [f.copy() for f in fields]
                fields[0][1, 1] = np.nan
            return advance(self, fields, control, *args)

        monkeypatch.setattr(s3._Stepper3D, "advance", poisoned)
        with pytest.raises(NumericsError, match="at step 7 "):
            run(cfg, out_dir=tmp_path / "failed")
        flushed = (tmp_path / "failed" / "snap_last_good.hmhd").read_bytes()
        assert flushed == (tmp_path / "clean" / "snap_t0.004000.hmhd").read_bytes()

    def test_freq_split_monitoring(self, tmp_path):
        cfg = RunConfig(dimension=3.0, formulation="extended", n=16, dt=1e-3,
                        t_end=0.05, sample_every=10, amplitude=0.02,
                        band_lo=1.0, band_hi=4.0, filter_rho=2.0, seed=5,
                        out_dir=str(tmp_path / "fs"))
        res = run(cfg)
        s = res.summary
        assert s["partition_residual"] <= 1e-13
        assert s["highfreq_monotone_after_first"]

    def test_freq_split_violation_fails_the_run(self, tmp_path):
        """High-frequency energy that rises after the first sample fails
        pass_freq_split, so the run fails and `hallmhd run` exits 1."""
        lines = ("dimension = 3\nformulation = extended\nn = 16\nmu = 0.05\nnu = 0.05\n"
                 "band_hi = 1.5\nfilter_rho = 1.5\namplitude = 0.5\nt_end = 0.05\nseed = 1\n")
        cfgfile = tmp_path / "c.cfg"
        cfgfile.write_text(lines + f"out_dir = {tmp_path}/o\n")
        assert cli.main(["run", "--config", str(cfgfile)]) == 1
        s = json.loads((tmp_path / "o" / "summary.json").read_text())
        assert s["partition_residual"] <= 1e-13
        assert not s["highfreq_monotone_after_first"]
        assert not s["pass_freq_split"] and not s["pass"]

    def test_beltrami_decay_columns(self, tmp_path):
        mu = 1.0
        cfg = RunConfig(dimension=3.0, formulation="extended", n=16,
                        init_kind="beltrami", amplitude=0.1, dt=1e-3, t_end=0.1,
                        sample_every=10, seed=0, out_dir=str(tmp_path / "b"),
                        decay_fraction=1.0)
        res = run(cfg)
        for r in res.records:
            exact = 0.1 * np.sqrt(3.0) * np.exp(-mu * r.t)
            assert abs(r.h12_b - exact) <= 1e-8 * exact
        assert res.summary["decay"]["fitted_rate"] == pytest.approx(2 * mu, rel=1e-4)


class TestCertificateOverlap:
    """A 2.5D sample's certificate job runs in a forked worker process
    when two CPUs are allowed, whatever the stepper's lane count, and
    inline otherwise; the patched affinity picks the path.  The patched
    certificate logs each call's pid to a file, so the worker's calls are
    seen as well as this process's."""

    @staticmethod
    def cpus(monkeypatch, n: int) -> None:
        import os
        monkeypatch.setattr(os, "sched_getaffinity", lambda pid: set(range(n)))

    @staticmethod
    def calls(log: Path) -> list[int]:
        """The pid of each certificate call logged, in order."""
        return [int(pid) for pid in log.read_text().split()] if log.exists() else []

    @classmethod
    def recorded_worker(cls, monkeypatch, log: Path) -> tuple[list, list]:
        """The workers started, and per job submitted the number of jobs
        not done (submitted, certificate call not logged) just after."""
        from hallmhd import runner

        workers, pending = [], []
        init, submit = runner._CertWorker.__init__, runner._CertWorker.submit

        def recording_init(self, *args):
            init(self, *args)
            workers.append(self)

        def recording_submit(self, *args):
            submit(self, *args)
            pending.append(len(pending) + 1 - len(cls.calls(log)))

        monkeypatch.setattr(runner._CertWorker, "__init__", recording_init)
        monkeypatch.setattr(runner._CertWorker, "submit", recording_submit)
        return workers, pending

    @classmethod
    def slowed(cls, monkeypatch, log: Path, seconds: float, fail_at: int | None = None) -> None:
        """Make rewritten_B_rhs sleep, and raise on call `fail_at`; each
        call appends its pid to `log` once it is done."""
        import time

        from hallmhd import solver25d as s25

        rewritten = s25.rewritten_B_rhs

        def slow(*args):
            try:
                if len(cls.calls(log)) + 1 == fail_at:
                    raise RuntimeError("certificate failed")
                time.sleep(seconds)
                return rewritten(*args)
            finally:
                with open(log, "a") as fh:
                    fh.write(f"{os.getpid()}\n")

        monkeypatch.setattr(s25, "rewritten_B_rhs", slow)

    @pytest.mark.parametrize("nu", [1.0, 0.5])
    @pytest.mark.parametrize("sample_every", [1, 3])
    @pytest.mark.parametrize("n", [16, 32, 64, 128])
    def test_two_cpus_and_one_give_identical_artifacts(self, tmp_path, monkeypatch,
                                                        n, sample_every, nu):
        # the Hall guard admits dt = 1e-3 below N = 128 only (bound 8.2e-4 there)
        cfg = RunConfig(dimension=2.5, n=n, dt=1e-3 if n < 128 else 5e-4, t_end=0.02, nu=nu,
                        sample_every=sample_every, amplitude=0.1, seed=5)
        outs, log = {}, tmp_path / "calls.log"
        self.slowed(monkeypatch, log, 0.0)
        for ncpu in (2, 1):
            log.unlink(missing_ok=True)
            self.cpus(monkeypatch, ncpu)
            run(cfg, out_dir=tmp_path / str(ncpu))
            outs[ncpu] = {p.name: p.read_bytes() for p in (tmp_path / str(ncpu)).iterdir()}
            pids = self.calls(log)
            assert len(set(pids)) == 1  # one worker per run, or this process
            assert {pid != os.getpid() for pid in pids} == {ncpu == 2}
        assert len(outs[1]) > 3 and outs[2] == outs[1]

    def test_failing_job_surfaces_from_run_and_leaves_none_pending(self, tmp_path, monkeypatch):
        import multiprocessing

        log = tmp_path / "calls.log"
        self.cpus(monkeypatch, 2)
        workers, pending = self.recorded_worker(monkeypatch, log)
        self.slowed(monkeypatch, log, 0.005, fail_at=4)
        cfg = RunConfig(dimension=2.5, n=32, dt=1e-3, t_end=0.03, sample_every=1,
                        amplitude=0.1, seed=5)
        with pytest.raises(RuntimeError, match="certificate failed") as err:
            run(cfg, out_dir=tmp_path / "f")
        assert "in _certify" in str(err.value.__cause__)  # the worker's traceback
        [worker] = workers
        assert len(pending) > 4 and not worker.proc.is_alive()
        assert multiprocessing.active_children() == []
        assert not (tmp_path / "f" / "summary.json").exists()

    @staticmethod
    def poisoned(monkeypatch, at: int) -> None:
        """Put a NaN into the fields of step `at`."""
        from hallmhd import solver3d as s3

        advance, calls = s3._Stepper3D.advance, []

        def poisoned(self, fields, control, *args):
            calls.append(None)
            if len(calls) == at:
                fields[0][1, 1] = np.nan
            return advance(self, fields, control, *args)

        monkeypatch.setattr(s3._Stepper3D, "advance", poisoned)

    def test_numerics_error_waits_for_the_worker(self, tmp_path, monkeypatch):
        """Every job submitted before the failing step ran to its end and
        had its result read before run() raised."""
        import multiprocessing

        log = tmp_path / "calls.log"
        self.cpus(monkeypatch, 2)
        workers, pending = self.recorded_worker(monkeypatch, log)
        self.slowed(monkeypatch, log, 0.02)
        self.poisoned(monkeypatch, 12)
        cfg = RunConfig(dimension=2.5, n=32, dt=1e-3, t_end=0.03, sample_every=1,
                        amplitude=0.1, seed=5)
        with pytest.raises(NumericsError, match="at step 12 "):
            run(cfg, out_dir=tmp_path / "n")
        [worker] = workers
        assert len(pending) == 12 and len(self.calls(log)) == 12 and worker.pending == []
        assert not worker.proc.is_alive() and multiprocessing.active_children() == []

    @pytest.mark.parametrize("ncpu", [2, 1])
    def test_failed_certificate_comes_before_a_later_step_error(self, tmp_path, monkeypatch,
                                                                  ncpu):
        """Sample 9's certificate fails and step 12 is not finite.  Inline
        the failure stops the run at sample 9; overlapped the job is still
        pending at step 12 (the bound keeps 7 behind), and run() raises it
        ahead of the NumericsError."""
        log = tmp_path / "calls.log"
        self.cpus(monkeypatch, ncpu)
        workers, pending = self.recorded_worker(monkeypatch, log)
        self.slowed(monkeypatch, log, 0.02, fail_at=10)
        self.poisoned(monkeypatch, 12)
        cfg = RunConfig(dimension=2.5, n=32, dt=1e-3, t_end=0.03, sample_every=1,
                        amplitude=0.1, seed=5)
        with pytest.raises(RuntimeError, match="certificate failed") as err:
            run(cfg, out_dir=tmp_path / "n")
        assert not isinstance(err.value, NumericsError)
        assert len(workers) == (1 if ncpu == 2 else 0)
        assert len(pending) == (12 if ncpu == 2 else 0)
        assert not any(w.proc.is_alive() for w in workers)
        assert not (tmp_path / "n" / "snap_last_good.hmhd").exists()

    def test_pending_jobs_never_exceed_the_bound(self, tmp_path, monkeypatch):
        from hallmhd import runner

        log = tmp_path / "calls.log"
        self.cpus(monkeypatch, 2)
        _, pending = self.recorded_worker(monkeypatch, log)
        self.slowed(monkeypatch, log, 0.005)  # the worker falls behind
        cfg = RunConfig(dimension=2.5, n=32, dt=1e-3, t_end=0.03, sample_every=1,
                        amplitude=0.1, seed=5)
        run(cfg, out_dir=tmp_path / "b")
        assert len(pending) == 31
        assert max(pending) == runner._CERT_QUEUE

    @pytest.mark.parametrize("ending", ["pass", "certificate", "numerics", "interrupt"])
    def test_no_process_outlives_the_run(self, tmp_path, monkeypatch, ending):
        """Whether the run passes, a certificate fails, a step turns
        non-finite or a step is interrupted, run() stops its worker."""
        import multiprocessing

        from hallmhd import solver3d as s3

        log = tmp_path / "calls.log"
        self.cpus(monkeypatch, 2)
        workers, _ = self.recorded_worker(monkeypatch, log)
        self.slowed(monkeypatch, log, 0.002, fail_at=5 if ending == "certificate" else None)
        if ending == "numerics":
            self.poisoned(monkeypatch, 8)
        elif ending == "interrupt":
            advance, calls = s3._Stepper3D.advance, []

            def interrupted(self, *args):
                calls.append(None)
                if len(calls) == 8:
                    raise KeyboardInterrupt
                return advance(self, *args)

            monkeypatch.setattr(s3._Stepper3D, "advance", interrupted)
        raised = {"pass": None, "certificate": RuntimeError, "numerics": NumericsError,
                  "interrupt": KeyboardInterrupt}[ending]
        cfg = RunConfig(dimension=2.5, n=32, dt=1e-3, t_end=0.02, sample_every=1,
                        amplitude=0.1, seed=5)
        if raised is None:
            assert run(cfg, out_dir=tmp_path / "r").passed
        else:
            with pytest.raises(raised):
                run(cfg, out_dir=tmp_path / "r")
        [worker] = workers
        assert worker.proc.exitcode is not None
        assert multiprocessing.active_children() == []

    def test_daemonic_caller_certifies_inline(self, tmp_path, monkeypatch):
        """A daemonic process (a multiprocessing.Pool worker is one) may not
        start children, so a run there certifies inline and passes."""
        import multiprocessing

        log = tmp_path / "calls.log"
        self.cpus(monkeypatch, 2)
        self.slowed(monkeypatch, log, 0.0)
        cfg = RunConfig(dimension=2.5, n=16, dt=1e-3, t_end=0.005, sample_every=1,
                        amplitude=0.1, seed=5)
        caller = multiprocessing.get_context("fork").Process(
            target=run, args=(cfg, tmp_path / "d"), daemon=True)
        caller.start()
        caller.join(60)
        assert caller.exitcode == 0  # 1 if run() raised
        assert self.calls(log) == [caller.pid] * 6
        assert (tmp_path / "d" / "summary.json").exists()

    def test_killed_worker_fails_the_run_within_seconds(self, tmp_path, monkeypatch):
        """A worker killed mid-run makes run() raise, naming the worker,
        instead of waiting for its results."""
        import multiprocessing
        import signal
        import time

        from hallmhd import solver3d as s3

        self.cpus(monkeypatch, 2)
        workers, _ = self.recorded_worker(monkeypatch, tmp_path / "calls.log")
        advance, calls = s3._Stepper3D.advance, []

        def killing(self, *args):
            calls.append(None)
            if len(calls) == 5:
                os.kill(workers[0].proc.pid, signal.SIGKILL)
            return advance(self, *args)

        def hung(signum, frame):
            raise TimeoutError("run() still waits 30 s after its worker was killed")

        monkeypatch.setattr(s3._Stepper3D, "advance", killing)
        cfg = RunConfig(dimension=2.5, n=32, dt=1e-3, t_end=0.03, sample_every=1,
                        amplitude=0.1, seed=5)
        previous = signal.signal(signal.SIGALRM, hung)
        signal.alarm(30)
        try:
            start = time.monotonic()
            with pytest.raises(RuntimeError, match=r"certificate worker exited \(exit code -9\)"):
                run(cfg, out_dir=tmp_path / "k")
            elapsed = time.monotonic() - start
        finally:
            signal.alarm(0)
            signal.signal(signal.SIGALRM, previous)
        assert elapsed < 5.0
        assert multiprocessing.active_children() == []


class TestPresets:
    def test_registry_and_configs(self):
        assert set(PRESETS) == {
            "fujita-kato-3d", "decay-3d", "freq-split-3d", "weak-strong-3d",
            "small-data-2p5d", "small-B-2p5d", "threshold-bisect",
        }
        for pid in ("fujita-kato-3d", "decay-3d", "freq-split-3d",
                    "small-data-2p5d", "small-B-2p5d"):
            cfg = preset_run_config(pid)
            assert cfg.validate()
        with pytest.raises(ConfigError):
            preset_run_config("weak-strong-3d")

    @pytest.mark.parametrize("pid", sorted(PRESETS))
    def test_preset_run_config_copies_the_run_entries(self, pid):
        preset = PRESETS[pid]
        if preset.kind != "run":
            with pytest.raises(ConfigError, match="not a single-run preset"):
                preset_run_config(pid)
            return
        cfg = preset_run_config(pid, seed=3)
        assert cfg == replace(preset.config, seed=3) and cfg is not preset.config

    @pytest.mark.parametrize("pid", sorted(PRESETS))
    def test_experiment_runs_a_copy_of_the_table_entry(self, tmp_path, monkeypatch, pid):
        """Each kind's orchestration receives the entry's RunConfig with
        the seed and the given overrides; the bisection receives its n,
        seed and mu."""
        import hallmhd.presets as presets_mod

        seen = []

        def fake_run(cfg, out_dir):
            seen.append(cfg)
            return SimpleNamespace(summary={"pass": True})

        def fake_twins(cfg):
            seen.append(cfg)
            return {"pass": True}

        def fake_bisect(**kw):
            seen.append(kw)
            return {"threshold_hi": 1.0}

        monkeypatch.setattr(presets_mod, "run", fake_run)
        monkeypatch.setattr(presets_mod, "_experiment_weak_strong", fake_twins)
        monkeypatch.setattr(presets_mod, "bisect_monotonicity_threshold", fake_bisect)
        preset = PRESETS[pid]
        table = replace(preset.config)
        overrides = {"n": 16} if preset.kind == "bisect" else {"n": 16, "dt": 5e-4, "t_end": 0.01}
        report = experiment(pid, tmp_path / "ex", seed=4, **overrides)
        want = replace(preset.config, seed=4, **overrides)
        [got] = seen
        if preset.kind == "bisect":
            assert got == {"n": want.n, "seed": want.seed, "mu": want.mu}
        else:
            assert got == want and got is not preset.config
        assert preset.config == table  # the table entry is unchanged
        assert report["statement"] == preset.statement and report["pass"]

    def test_unknown_preset(self, tmp_path):
        with pytest.raises(ConfigError):
            experiment("not-a-preset", tmp_path)

    def test_weak_strong_experiment_smoke(self, tmp_path):
        report = experiment("weak-strong-3d", tmp_path / "ws", seed=3, n=16,
                            t_end=0.05)
        assert report["pass_identical"] and report["pass"]
        assert (tmp_path / "ws" / "report.json").exists()

    def test_weak_strong_honours_dt(self, tmp_path):
        # 21 steps of 5e-4, sampled every 20 steps and at the end
        report = experiment("weak-strong-3d", tmp_path / "ws", seed=0, n=16,
                            dt=5e-4, t_end=0.0105)
        assert [s["t"] for s in report["series"]] == pytest.approx([0.0, 0.01, 0.0105])

    def test_weak_strong_dt_past_the_guard_exit_2_before_mkdir(self, tmp_path, capsys):
        """The twin runs' t = 0 step guard rejects dt as run's does: exit
        2, no traceback, and no output directory."""
        out = tmp_path / "ws"
        rc = cli.main(["experiment", "weak-strong-3d", "--n", "16", "--dt", "0.05",
                       "--t-end", "0.2", "--out", str(out)])
        assert rc == 2
        assert "configuration error" in capsys.readouterr().err
        assert not out.exists()

    def test_weak_strong_t_end_off_the_dt_grid_exit_2(self, tmp_path, capsys):
        rc = cli.main(["experiment", "weak-strong-3d", "--n", "16", "--t-end", "0.0105",
                       "--out", str(tmp_path / "ws")])
        assert rc == 2
        assert "not an integer multiple of dt" in capsys.readouterr().err

    @pytest.mark.parametrize("key, flag", [("dt", "--dt"), ("t_end", "--t-end")])
    def test_threshold_bisect_rejects_dt_and_t_end(self, tmp_path, monkeypatch, key, flag):
        import hallmhd.presets as presets_mod

        # the bisection itself takes minutes; these calls must not reach it
        monkeypatch.setattr(presets_mod, "bisect_monotonicity_threshold",
                            lambda **kw: {"threshold_hi": 1.0})
        with pytest.raises(ConfigError, match="threshold-bisect"):
            experiment("threshold-bisect", tmp_path / "tb", **{key: 1e-3})
        rc = cli.main(["experiment", "threshold-bisect", flag, "1e-3", "--out", str(tmp_path / "tb")])
        assert rc == 2

    @pytest.mark.parametrize("pid", ["weak-strong-3d", "threshold-bisect", "fujita-kato-3d"])
    @pytest.mark.parametrize("blocked", ["file", "file/sub/deeper"])
    def test_output_blocked_by_a_file_exit_2_before_any_run(self, tmp_path, monkeypatch, capsys,
                                                            pid, blocked):
        """An --out that a file blocks fails before the twin runs, the
        bisection or the preset's run start, and creates nothing."""
        import hallmhd.presets as presets_mod

        def never(*args, **kwargs):
            raise AssertionError("reached a run")

        for name in ("_experiment_weak_strong", "bisect_monotonicity_threshold", "run"):
            monkeypatch.setattr(presets_mod, name, never)
        (tmp_path / "file").write_text("")
        before = sorted(tmp_path.rglob("*"))
        assert cli.main(["experiment", pid, "--n", "16", "--out", str(tmp_path / blocked)]) == 2
        err = capsys.readouterr().err
        assert err.startswith("input error: ") and "is not a directory" in err
        assert sorted(tmp_path.rglob("*")) == before

    @pytest.mark.parametrize("argv", [
        ["weak-strong-3d", "--seed", "-1"],
        ["weak-strong-3d", "--n", "7"],
        ["small-data-2p5d", "--seed", "-1"],
        ["small-data-2p5d", "--n", "7"],
        ["threshold-bisect", "--n", "7"],
        ["weak-strong-3d", "--t-end", "inf"],
        ["weak-strong-3d", "--dt", "1e-300", "--t-end", "1e300"],
    ])
    def test_invalid_inputs_exit_2_before_mkdir(self, tmp_path, monkeypatch, argv):
        import hallmhd.presets as presets_mod

        monkeypatch.setattr(presets_mod, "bisect_monotonicity_threshold",
                            lambda **kw: {"threshold_hi": 1.0})
        out = tmp_path / "ex"
        assert cli.main(["experiment", *argv, "--out", str(out)]) == 2
        assert not out.exists()

    def test_threshold_without_failure_writes_strict_json(self, tmp_path, monkeypatch):
        """No failing amplitude found: threshold_hi is inf in the report
        and null in report.json."""
        import hallmhd.presets as presets_mod

        monkeypatch.setattr(presets_mod, "_monotone_at_amplitude", lambda *a, **kw: (True, {}))
        report = experiment("threshold-bisect", tmp_path / "tb", n=16)
        assert report["threshold_hi"] == np.inf and report["pass"] is False
        text = (tmp_path / "tb" / "report.json").read_text()
        assert json.loads(text)["threshold_hi"] is None
        assert "Infinity" not in text

    def test_probe_numerics_error_is_blowup_and_leaves_no_files(self, monkeypatch):
        """A probe run that fails numerically counts as a failed probe, and
        its run directory (snap_last_good.hmhd included) is removed."""
        import hallmhd.presets as presets_mod
        from hallmhd import solver3d as s3

        real_run, real_finite = presets_mod.run, s3.StepSession.finite
        seen = []

        def spy(cfg, out_dir):
            try:
                return real_run(cfg, out_dir=out_dir)
            except NumericsError:
                seen.append((Path(out_dir), sorted(p.name for p in Path(out_dir).iterdir())))
                raise

        calls = []

        def finite(session):  # non-finite fields at the third sample
            calls.append(None)
            return len(calls) < 3 and real_finite(session)

        monkeypatch.setattr(presets_mod, "run", spy)
        monkeypatch.setattr(s3.StepSession, "finite", finite)
        ok, info = presets_mod._monotone_at_amplitude(0.05, 16, 1, 0.02, mu=0.1)
        assert ok is False and info == {"blowup": True, "amplitude": 0.05}
        [(out, files)] = seen
        assert "snap_last_good.hmhd" in files
        assert not out.exists()

    def test_threshold_bisect_smoke(self):
        out = bisect_monotonicity_threshold(n=16, mu=0.1, seed=1, t_probe=0.08, iters=2,
                                            lo=0.05, hi=8.0)
        assert out["threshold_lo"] < out["threshold_hi"] < np.inf


class TestImportSet:
    """SciPy and multiprocessing stay off the 3D path: the stepper
    transforms with numpy.fft, only fields.to_spectral/to_physical import
    scipy.fft, on their first call, and only a 2.5D run that forks its
    certificate worker imports multiprocessing.  Each check runs in a
    fresh interpreter, since the tests import both themselves."""

    @staticmethod
    def scipy_loaded(code: str, *argv: str) -> list[str]:
        """The scipy and multiprocessing modules loaded once `code` has
        run with `argv`."""
        import hallmhd

        code += "\nimport sys\nprint(' '.join(sorted(sys.modules)))"
        env = dict(os.environ)
        src = str(Path(hallmhd.__file__).resolve().parents[1])
        env["PYTHONPATH"] = os.pathsep.join(filter(None, [src, env.get("PYTHONPATH")]))
        out = subprocess.run([sys.executable, "-c", code, *argv], env=env, check=True,
                             capture_output=True, text=True).stdout.splitlines()[-1]
        return [m for m in out.split() if m.split(".")[0] in ("scipy", "multiprocessing")]

    def test_library_imports_no_scipy(self):
        assert self.scipy_loaded(
            "import hallmhd\n"
            "from hallmhd import checks, cli, presets, probes, runner, solver3d, solver25d") == []

    def test_3d_runs_load_no_scipy(self, tmp_path):
        """A 3D extended run with periodic snapshots and the weak-strong
        twin runs."""
        code = ("import sys\nfrom pathlib import Path\n"
                "from hallmhd import RunConfig, run\nfrom hallmhd.presets import experiment\n"
                "out = Path(sys.argv[1])\n"
                "run(RunConfig(dimension=3.0, formulation='extended', n=16, amplitude=0.1,\n"
                "              dt=1e-3, t_end=0.004, sample_every=2, snapshot_every=0.002,\n"
                "              seed=1), out_dir=out / 'run')\n"
                "experiment('weak-strong-3d', out / 'twins', n=16, t_end=0.02)")
        assert self.scipy_loaded(code, str(tmp_path)) == []
        assert (tmp_path / "run" / "snap_t0.002000.hmhd").exists()
        assert (tmp_path / "twins" / "report.json").exists()

    def test_2p5d_run_loads_scipy_fft(self, tmp_path):
        """The 2.5D certificate's full-lattice transforms import scipy.fft,
        on one CPU and on two.  multiprocessing is loaded only where the
        run forks its worker (two CPUs allowed), and no child outlives
        the run."""
        code = ("import os, sys\n"
                "os.sched_setaffinity(0, sorted(os.sched_getaffinity(0))[:int(sys.argv[2])])\n"
                "from hallmhd import RunConfig, run\n"
                "run(RunConfig(dimension=2.5, n=16, dt=1e-3, t_end=0.004, sample_every=2,\n"
                "              seed=1), out_dir=sys.argv[1])\n"
                "mp = sys.modules.get('multiprocessing')\n"
                "assert mp is None or not mp.active_children()")
        for ncpu in range(1, min(2, len(os.sched_getaffinity(0))) + 1):
            out = tmp_path / f"run{ncpu}"
            loaded = self.scipy_loaded(code, str(out), str(ncpu))
            assert "scipy.fft" in loaded
            assert ("multiprocessing" in loaded) == (ncpu == 2)
            assert (out / "summary.json").exists()


class TestCli:
    def test_run_and_inspect_roundtrip(self, tmp_path, capsys):
        cfgfile = tmp_path / "c.cfg"
        cfgfile.write_text("dimension = 3\nn = 16\ndt = 1e-3\nt_end = 0.01\n"
                           f"amplitude = 0.02\nseed = 2\nout_dir = {tmp_path}/o\n")
        assert cli.main(["run", "--config", str(cfgfile)]) == 0
        assert cli.main(["inspect", str(tmp_path / "o" / "snap_final.hmhd")]) == 0

    def test_config_error_exit_2(self, tmp_path):
        bad = tmp_path / "bad.cfg"
        bad.write_text("dimension = 9\n")
        assert cli.main(["run", "--config", str(bad)]) == 2
        assert cli.main(["inspect", str(tmp_path / "missing.hmhd")]) == 2

    @pytest.mark.parametrize("argv", [
        ["--fields", "0"], ["--fields", "-3"], ["--pairs", "0"], ["--probe-samples", "0"],
    ], ids=lambda a: "".join(a))
    def test_check_without_samples_exit_2(self, argv, capsys):
        """A suite over no samples is an input error, not a pass."""
        assert cli.main(["check", "--n", "16", *argv]) == 2
        out, err = capsys.readouterr()
        assert "PASS" not in out
        assert err.startswith("input error: need at least one")

    def test_directory_input_exit_2(self, tmp_path, capsys):
        assert cli.main(["inspect", str(tmp_path)]) == 2
        assert capsys.readouterr().err.startswith("input error: ")
        assert cli.main(["run", "--config", str(tmp_path)]) == 2
        assert capsys.readouterr().err.startswith("input error: ")

    @pytest.mark.parametrize("blocked", ["file", "file/sub"])
    def test_output_path_blocked_by_a_file_exit_2(self, tmp_path, capsys, blocked):
        """An --out that is a file (FileExistsError) or lies under one
        (NotADirectoryError) is an input error, for both subcommands."""
        (tmp_path / "file").write_text("")
        out = str(tmp_path / blocked)
        cfgfile = tmp_path / "c.cfg"
        cfgfile.write_text("n = 16\ndt = 1e-3\nt_end = 0.002\n")
        for argv in (["run", "--config", str(cfgfile), "--out", out],
                     ["experiment", "fujita-kato-3d", "--n", "16", "--out", out]):
            assert cli.main(argv) == 2
            err = capsys.readouterr().err
            assert err.startswith("input error: ") and "Traceback" not in err

    def test_permission_denied_exit_2(self, tmp_path, monkeypatch, capsys):
        """A path the process may not create or read is an input error: the
        output directory of run and experiment, the snapshot of inspect.
        Path methods are patched, because file modes do not stop a
        superuser."""
        def denied(self, *args, **kwargs):
            raise PermissionError(13, "Permission denied", str(self))

        cfgfile = tmp_path / "c.cfg"
        cfgfile.write_text("n = 16\ndt = 1e-3\nt_end = 0.002\n")
        out = str(tmp_path / "out")
        monkeypatch.setattr(Path, "mkdir", denied)
        monkeypatch.setattr(Path, "read_bytes", denied)
        for argv in (["run", "--config", str(cfgfile), "--out", out],
                     ["experiment", "fujita-kato-3d", "--n", "16", "--out", out],
                     ["inspect", str(tmp_path / "snap.hmhd")]):
            assert cli.main(argv) == 2
            err = capsys.readouterr().err
            assert err.startswith("input error: ") and "Permission denied" in err

    def test_numeric_failure_exit_3(self, tmp_path, monkeypatch):
        import hallmhd.cli as climod

        def boom(cfg):
            raise NumericsError("blow-up")

        monkeypatch.setattr(climod, "run", boom)
        cfgfile = tmp_path / "c.cfg"
        cfgfile.write_text("dimension = 3\nn = 16\nt_end = 0.01\n")
        assert cli.main(["run", "--config", str(cfgfile)]) == 3

    def test_midrun_blowup_flushes_and_exits_3(self, tmp_path):
        """A step guard violation mid-run is a numeric failure: the last
        good snapshot is flushed and the CLI reports exit code 3."""
        import numpy as np

        from hallmhd.grid import GridSpec
        from hallmhd.params import PhysicalParams, StepControl, required_dt
        from hallmhd import solver3d as s3

        g = GridSpec.create(3, 16)
        params = PhysicalParams(0.02, 0.02, 1.0)
        u0, B0 = s3.make_initial(g, "random_band", 1.0, seed=4)
        bound = required_dt(g, params, StepControl(dt=1, t_end=1),
                            float(np.abs(u0.to_physical()).max()),
                            float(np.abs(B0.to_physical()).max()))
        dt = 0.98 * bound
        out = tmp_path / "blow"
        cfgfile = tmp_path / "c.cfg"
        cfgfile.write_text(
            "dimension = 3\nformulation = extended\nn = 16\nmu = 0.02\nnu = 0.02\n"
            f"amplitude = 1.0\nseed = 4\ndt = {dt!r}\nt_end = {200 * dt!r}\n"
            f"sample_every = 5\nout_dir = {out}\n")
        assert cli.main(["run", "--config", str(cfgfile)]) == 3
        assert (out / "snap_last_good.hmhd").exists()

    def test_25d_midrun_guard_violation_names_its_step(self, tmp_path, capsys):
        """With sample_every = 1 every step's stage 1 comes from the sample
        before it; a dt that breaks the step guards mid-run still fails
        at the step a plain stepping loop rejects."""
        from hallmhd import solver25d as s25
        from hallmhd import solver3d as s3
        from hallmhd.grid import GridSpec
        from hallmhd.params import CFLError, PhysicalParams, StepControl, required_dt

        g = GridSpec.create(2, 16)
        params = PhysicalParams(0.02, 0.02, 1.0)
        u0, B0 = s25.make_initial_25d(g, "random_band", 2.0, seed=1)
        bound = required_dt(g, params, StepControl(dt=1, t_end=1),
                            float(np.abs(u0.to_physical()).max()),
                            float(np.abs(B0.to_physical()).max()))
        dt = 0.98 * bound
        control = StepControl(dt=dt, t_end=200 * dt)
        st = s3.make_state(u0, B0, params)
        with pytest.raises(CFLError):
            for step in range(1, 201):
                st = s3.step(st, params, control)
        assert 1 < step < 200
        out = tmp_path / "blow25"
        cfgfile = tmp_path / "c.cfg"
        cfgfile.write_text(
            "dimension = 2.5\nn = 16\nmu = 0.02\nnu = 0.02\namplitude = 2.0\nseed = 1\n"
            f"dt = {dt!r}\nt_end = {200 * dt!r}\nsample_every = 1\nout_dir = {out}\n")
        assert cli.main(["run", "--config", str(cfgfile)]) == 3
        assert f"at step {step} (t=" in capsys.readouterr().err
        t, _ = read_snapshot(out / "snap_last_good.hmhd")
        assert t == pytest.approx((step - 1) * dt)

    @pytest.mark.parametrize("dimension", ["3", "2.5"])
    def test_nan_mid_run_fails_at_its_step(self, tmp_path, monkeypatch, capsys, dimension):
        """A NaN that enters the fields at step 3 of a sample_every = 10
        run stops the run at step 3, not at the next sample: exit 3, the
        error names t = 0.003, and the last good snapshot is readable."""
        from hallmhd import solver3d as s3

        advance = s3._Stepper3D.advance
        calls = []

        def poisoned(self, fields, control, *args):
            calls.append(None)
            if len(calls) == 3:
                fields[0][1, 1] = np.nan
            return advance(self, fields, control, *args)

        monkeypatch.setattr(s3._Stepper3D, "advance", poisoned)
        out = tmp_path / "nan"
        cfgfile = tmp_path / "c.cfg"
        cfgfile.write_text(f"dimension = {dimension}\nn = 16\ndt = 1e-3\nt_end = 0.02\n"
                           f"sample_every = 10\namplitude = 0.05\nseed = 2\nout_dir = {out}\n")
        assert cli.main(["run", "--config", str(cfgfile)]) == 3
        assert "at step 3 (t=0.003)" in capsys.readouterr().err
        t, fields = read_snapshot(out / "snap_last_good.hmhd")
        assert t <= 0.003
        assert all(np.all(np.isfinite(f.c)) for f in fields)

    @pytest.mark.parametrize("dimension", ["3", "2.5"])
    def test_nan_in_stage_2_fails_at_its_step(self, tmp_path, monkeypatch, capsys, dimension):
        """A NaN that appears in stage 2 of step 3 (finite stage-1 fields)
        stops the run at step 3, not at the stage-1 check of step 4."""
        from hallmhd import solver3d as s3

        nonlinear = s3._Stepper3D.nonlinear
        stage2 = []

        def poisoned(self, *fields, with_maxes=True):
            out = nonlinear(self, *fields, with_maxes=with_maxes)
            if not with_maxes and self.dt > 0:  # a step's stage 2, not rhs_25d
                stage2.append(None)
                if len(stage2) == 3:
                    out[0][1, 1] = np.nan
            return out

        monkeypatch.setattr(s3._Stepper3D, "nonlinear", poisoned)
        out = tmp_path / "nan2"
        cfgfile = tmp_path / "c.cfg"
        cfgfile.write_text(f"dimension = {dimension}\nn = 16\ndt = 1e-3\nt_end = 0.02\n"
                           f"sample_every = 10\namplitude = 0.05\nseed = 2\nout_dir = {out}\n")
        assert cli.main(["run", "--config", str(cfgfile)]) == 3
        assert "at step 3 (t=0.003)" in capsys.readouterr().err
        t, fields = read_snapshot(out / "snap_last_good.hmhd")
        assert t <= 0.003
        assert all(np.all(np.isfinite(f.c)) for f in fields)

    def test_library_value_error_from_run_exit_2(self, tmp_path, monkeypatch, capsys):
        import hallmhd.cli as climod

        def reject(cfg):
            raise ValueError("rejected input")

        monkeypatch.setattr(climod, "run", reject)
        cfgfile = tmp_path / "c.cfg"
        cfgfile.write_text("dimension = 3\nn = 16\nt_end = 0.01\n")
        assert cli.main(["run", "--config", str(cfgfile)]) == 2
        assert "rejected input" in capsys.readouterr().err

    def test_library_value_error_exit_2(self, tmp_path, capsys):
        # a 2.5D-only initial-data kind in a 3D run is rejected by the
        # configuration check, naming the kind
        cfgfile = tmp_path / "c.cfg"
        cfgfile.write_text("dimension = 3\nn = 16\ninit_kind = single_mode_b3\n"
                           f"out_dir = {tmp_path}/v\n")
        assert cli.main(["run", "--config", str(cfgfile)]) == 2
        assert "single_mode_b3" in capsys.readouterr().err

    def test_removed_uptick_tolerance_key_exit_2(self, tmp_path):
        # the monotonicity monitor pins its uptick tolerance; the key is gone
        cfgfile = tmp_path / "c.cfg"
        cfgfile.write_text("dimension = 3\nn = 16\ntol_monotonicity_uptick = 1e-8\n"
                           f"out_dir = {tmp_path}/k\n")
        assert cli.main(["run", "--config", str(cfgfile)]) == 2

    def test_monitor_failure_exit_1(self, tmp_path):
        # an un-meetable decay fraction turns a clean run into a failure
        cfgfile = tmp_path / "c.cfg"
        cfgfile.write_text("dimension = 3\nn = 16\ndt = 1e-3\nt_end = 0.01\n"
                           "amplitude = 0.4\nseed = 2\ndecay_fraction = 1e-12\n"
                           f"out_dir = {tmp_path}/o1\n")
        assert cli.main(["run", "--config", str(cfgfile)]) == 1

    def test_run_preset_flag(self, tmp_path):
        rc = cli.main(["run", "--preset", "fujita-kato-3d", "--n", "16",
                       "--t-end", "0.02", "--out", str(tmp_path / "pp")])
        assert rc in (0, 1)  # short horizon: decay fraction may not be reached
        assert (tmp_path / "pp" / "summary.json").exists()

    @pytest.mark.parametrize("lines", [("dt = 0.0003", "t_end = 0.0003"),
                                       ("t_end = 0.0003", "dt = 0.0003")],
                             ids=["dt-first", "t_end-first"])
    def test_run_preset_with_config_validates_the_merge(self, tmp_path, lines):
        # neither key alone fits the preset's dt = 1e-3, t_end = 1.0
        cfgfile = tmp_path / "c.cfg"
        cfgfile.write_text("\n".join(lines) + "\n")
        out = tmp_path / "pc"
        rc = cli.main(["run", "--preset", "small-data-2p5d", "--config", str(cfgfile),
                       "--n", "16", "--out", str(out)])
        assert rc == 0
        rows = (out / "timeseries.csv").read_text().splitlines()
        assert [r.split(",")[0] for r in rows[1:]] == ["0.0", "0.0003"]
