"""Config parsing, the run driver's artifacts and determinism, presets,
and the CLI exit-code contract."""

import json
from pathlib import Path

import numpy as np
import pytest

from hallmhd import cli
from hallmhd.config import ConfigError, RunConfig, config_from_mapping, parse_config_file
from hallmhd.diagnostics import RECORD_COLUMNS, read_records_csv
from hallmhd.presets import PRESETS, bisect_monotonicity_threshold, experiment, preset_run_config
from hallmhd.runner import NumericsError, run
from hallmhd.snapshots import read_snapshot


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

    def test_step_count_rule(self):
        # the one rule behind RunConfig.validate, run() and the twin monitor
        from hallmhd.params import step_count

        assert step_count(0.15, 1e-3) == 150
        assert step_count(0.0105, 5e-4) == 21
        with pytest.raises(ValueError, match="integer multiple"):
            step_count(0.0105, 1e-3)

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
        # settings a run would silently ignore
        "compute_budgets = true",          # with the physical formulation
        "dimension = 2.5\nfilter_rho = 2.0",
        "b_amplitude = 0.0",               # in 3D
        "dimension = 2.5\ninit_kind = single_mode_b3\nb_amplitude = 0.3",
        "dimension = 2.5\ninit_kind = zero\nb_amplitude = 0.3",
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

    def test_25d_run_summary(self, tmp_path):
        cfg = RunConfig(dimension=2.5, n=32, dt=1e-3, t_end=0.05, sample_every=1,
                        amplitude=0.05, band_hi=2.0, seed=3,
                        out_dir=str(tmp_path / "d25"))
        res = run(cfg)
        assert res.passed
        s = res.summary
        assert s["e_residual_max"] <= cfg.tol_e_residual
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
        from hallmhd.operators import curl2

        extra = {"formulation": "extended"} if dimension == 3.0 else {}
        cfg = RunConfig(dimension=dimension, n=16, t_end=0.02, sample_every=5, seed=2,
                        out_dir=str(tmp_path / "r"), **extra)
        run(cfg)
        last = read_records_csv(tmp_path / "r" / "timeseries.csv")[-1]
        _, fields = read_snapshot(tmp_path / "r" / "snap_final.hmhd")
        u, B = fields[:2]
        v = fields[2] if dimension == 3.0 else u - cfg.eps * curl2(B)
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
        assert s["e_residual_max"] <= cfg.tol_e_residual
        assert s["pass_e_residual"] and s["pass"]

    @pytest.mark.parametrize("sample_every", [1, 3])
    def test_25d_e_residual_rows_match_recomputed(self, tmp_path, sample_every):
        """The monitor's carried E-law terms and shared transforms give the
        e_residual rows that E_residual computes afresh across the step
        before each sample."""
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
            assert row == s25.E_residual(a, b, params, b.t - a.t)

    @pytest.mark.parametrize("nu,budget", [(1.0, (7, 3)), (0.5, (5, 2))])
    def test_25d_certificate_transform_budget(self, tmp_path, monkeypatch, nu, budget):
        """Full-lattice transforms per 2.5D sample (the stepper's pruned
        one-axis transforms, rhs_25d included, are not counted): 7 forward
        and 3 inverse with the combined-field law (mu = nu), 5 and 2
        without it."""
        import scipy.fft

        from hallmhd import runner

        counts = None
        per_sample = []

        def counting(fn, slot):
            def wrapped(*args, **kwargs):
                if counts is not None and len(kwargs.get("axes", ())) == 2:
                    counts[slot] += 1
                return fn(*args, **kwargs)
            return wrapped

        sample = runner._Monitor25D.sample

        def counted_sample(self, *args):
            nonlocal counts
            counts = [0, 0]
            try:
                return sample(self, *args)
            finally:
                per_sample.append(tuple(counts))
                counts = None

        monkeypatch.setattr(scipy.fft, "rfftn", counting(scipy.fft.rfftn, 0))
        monkeypatch.setattr(scipy.fft, "irfftn", counting(scipy.fft.irfftn, 1))
        monkeypatch.setattr(runner._Monitor25D, "sample", counted_sample)
        cfg = RunConfig(dimension=2.5, n=16, dt=1e-3, t_end=0.005, sample_every=1,
                        nu=nu, amplitude=0.1, seed=5)
        run(cfg, out_dir=tmp_path / "b")
        assert per_sample == [budget] * 6

    def test_freq_split_monitoring(self, tmp_path):
        cfg = RunConfig(dimension=3.0, formulation="extended", n=16, dt=1e-3,
                        t_end=0.05, sample_every=10, amplitude=0.02,
                        band_lo=1.0, band_hi=4.0, filter_rho=2.0, seed=5,
                        out_dir=str(tmp_path / "fs"))
        res = run(cfg)
        s = res.summary
        assert s["partition_residual"] <= 1e-13
        assert s["highfreq_monotone_after_first"]

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

    @pytest.mark.parametrize("argv", [
        ["weak-strong-3d", "--seed", "-1"],
        ["weak-strong-3d", "--n", "7"],
        ["small-data-2p5d", "--seed", "-1"],
        ["small-data-2p5d", "--n", "7"],
        ["threshold-bisect", "--n", "7"],
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

    def test_threshold_bisect_smoke(self):
        out = bisect_monotonicity_threshold(n=16, seed=1, t_probe=0.08, iters=2,
                                            lo=0.05, hi=8.0)
        assert out["threshold_lo"] < out["threshold_hi"] < np.inf


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

    @pytest.mark.parametrize("dimension", ["3", "2.5"])
    def test_nan_mid_run_fails_at_its_step(self, tmp_path, monkeypatch, capsys, dimension):
        """A NaN that enters the fields at step 3 of a sample_every = 10
        run stops the run at step 3, not at the next sample: exit 3, the
        error names t = 0.003, and the last good snapshot is readable."""
        from hallmhd import solver3d as s3

        advance = s3._Stepper3D.advance
        calls = []

        def poisoned(self, fields, control):
            calls.append(None)
            if len(calls) == 3:
                fields[0][1, 1] = np.nan
            return advance(self, fields, control)

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
        # an un-meetable drift tolerance turns a clean run into a failure
        cfgfile = tmp_path / "c.cfg"
        cfgfile.write_text("dimension = 3\nn = 16\ndt = 1e-3\nt_end = 0.01\n"
                           "amplitude = 0.4\nseed = 2\ntol_energy_drift = 1e-18\n"
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
