"""3D solver: the structure of the full-lattice reference RHS (oracle3d),
the stepper against it, stepping accuracy, scaling covariance."""

import os
import signal
import threading
import time
import warnings

import numpy as np
import pytest
import scipy.fft

from hallmhd.fields import SpectralField
from hallmhd.grid import GridSpec
from hallmhd.norms import hs_norm
from hallmhd.operators import curl3, leray_project, to_physical, to_spectral
from hallmhd.params import CFLError, PhysicalParams, StepControl
from hallmhd import solver3d as s3
from hallmhd.sampling import random_field

import oracle3d
from conftest import rel_err

P1 = PhysicalParams(1.0, 1.0, 1.0)


def small_random_state(grid, amplitude=0.3, seed=12, extended=False, params=P1):
    u0, B0 = s3.make_initial(grid, "random_band", amplitude, seed=seed)
    return s3.make_state(u0, B0, params, extended=extended)


class TestRhsPhysical:
    def test_zero_state(self, g3):
        st = s3.make_state(SpectralField.zeros(g3), SpectralField.zeros(g3), P1)
        du, dB = oracle3d.rhs_physical(st, P1)
        assert np.abs(du.c).max() == 0.0 and np.abs(dB.c).max() == 0.0

    def test_beltrami_pure_decay(self, g3):
        u0, B0 = s3.make_initial(g3, "beltrami", 0.2)
        st = s3.make_state(u0, B0, P1)
        du, dB = oracle3d.rhs_physical(st, P1)
        assert np.abs(du.c).max() <= 1e-14
        assert rel_err(dB.c, -P1.nu * B0.c) < 1e-12

    def test_eps_zero_reduces_to_mhd(self, g3):
        st = small_random_state(g3)
        pm = PhysicalParams(1.0, 1.0, 0.0)
        du1, dB1 = oracle3d.rhs_physical(st, P1)
        du0, dB0 = oracle3d.rhs_physical(st, pm)
        # velocity equation identical; induction differs exactly by the Hall term
        assert np.abs(du1.c - du0.c).max() <= 1e-14 * np.abs(du0.c).max()
        ht = oracle3d.hall_term(st.B, 1.0)
        assert rel_err(dB1.c - dB0.c, -ht.c) < 1e-12

    def test_outputs_divergence_free(self, g3):
        st = small_random_state(g3, seed=3)
        du, dB = oracle3d.rhs_physical(st, P1)
        assert du.divergence_residual() < 1e-12
        assert dB.divergence_residual() < 1e-12


class TestHallTerm:
    def test_beltrami_vanishes(self, g3):
        _, B0 = s3.make_initial(g3, "beltrami", 0.5)
        assert np.abs(oracle3d.hall_term(B0, 1.0).c).max() <= 1e-12 * np.abs(B0.c).max()

    def test_zero_field_and_zero_eps(self, g3):
        z = SpectralField.zeros(g3)
        assert np.abs(oracle3d.hall_term(z, 1.0).c).max() == 0.0
        B = random_field(g3, 1, 4, seed=5)
        assert np.abs(oracle3d.hall_term(B, 0.0).c).max() == 0.0


class TestRhsExtended:
    def test_zero_state(self, g3):
        st = s3.make_state(SpectralField.zeros(g3), SpectralField.zeros(g3), P1, extended=True)
        for d in oracle3d.rhs_extended(st, P1):
            assert np.abs(d.c).max() == 0.0

    def test_mu_ne_nu_rejected(self, g3):
        st = small_random_state(g3, extended=True)
        with pytest.raises(ValueError):
            oracle3d.rhs_extended(st, PhysicalParams(1.0, 2.0, 1.0))

    def test_missing_v_rejected(self, g3):
        st = small_random_state(g3)
        with pytest.raises(ValueError):
            oracle3d.rhs_extended(st, P1)

    def test_algebraic_redundancy(self, g3):
        """With v = u - eps curl B exactly, the three equations satisfy
        dv/dt = du/dt - eps curl(dB/dt) to roundoff."""
        st = small_random_state(g3, extended=True)
        du, dB, dv = oracle3d.rhs_extended(st, P1)
        target = du.c - P1.eps * curl3(dB).c
        assert rel_err(dv.c, target) < 1e-10

    def test_matches_physical_formulation(self, g3):
        st = small_random_state(g3, extended=True, seed=21)
        du_e, dB_e, _ = oracle3d.rhs_extended(st, P1)
        du_p, dB_p = oracle3d.rhs_physical(s3.SimState3D(0.0, st.u, st.B), P1)
        assert rel_err(du_e.c, du_p.c) < 1e-12
        assert rel_err(dB_e.c, dB_p.c) < 1e-12

    def test_eps_linearity_of_v_equation(self, g3):
        """At a fixed state only the v-equation carries eps, linearly
        (the Hall commutator and the doubled advective term)."""
        st = small_random_state(g3, extended=True, seed=33)
        p0 = PhysicalParams(1.0, 1.0, 0.0)
        p1 = PhysicalParams(1.0, 1.0, 1.0)
        p2 = PhysicalParams(1.0, 1.0, 2.0)
        du0, dB0, dv0 = oracle3d.rhs_extended(st, p0)
        du1, dB1, dv1 = oracle3d.rhs_extended(st, p1)
        du2, dB2, dv2 = oracle3d.rhs_extended(st, p2)
        assert rel_err(du1.c, du0.c) < 1e-14 and rel_err(dB1.c, dB0.c) < 1e-14
        assert rel_err(dv2.c - dv0.c, 2.0 * (dv1.c - dv0.c)) < 1e-12

    def test_beltrami_heat_decay_of_v(self, g3):
        u0, B0 = s3.make_initial(g3, "beltrami", 0.2)
        st = s3.make_state(u0, B0, P1, extended=True)
        # v = -eps * B for the curl eigenfield
        assert rel_err(st.v.c, -P1.eps * B0.c) < 1e-13
        _, _, dv = oracle3d.rhs_extended(st, P1)
        assert rel_err(dv.c, -P1.mu * st.v.c) < 1e-12


class TestStep:
    def test_zero_state_fixed_point(self, g3):
        st = s3.make_state(SpectralField.zeros(g3), SpectralField.zeros(g3), P1)
        out = s3.step(st, P1, StepControl(dt=1e-2, t_end=1))
        assert np.abs(out.u.c).max() == 0.0 and np.abs(out.B.c).max() == 0.0

    def test_beltrami_exact_heat_decay(self, g3):
        """The linear part is integrated exactly: with every quadratic term
        vanishing, the run matches the per-mode heat factor to roundoff."""
        nu = 0.7
        params = PhysicalParams(1.0, nu, 1.0)
        u0, B0 = s3.make_initial(g3, "beltrami", 0.1)
        st = s3.make_state(u0, B0, params)
        ctrl = StepControl(dt=1e-3, t_end=0.2)
        for _ in range(200):
            st = s3.step(st, params, ctrl)
        assert rel_err(st.B.c, np.exp(-nu * 0.2) * B0.c) < 1e-13
        assert np.abs(st.u.c).max() < 1e-13

    def test_divergence_and_mean_preserved(self, g3):
        params = PhysicalParams(1.0, 1.0, 1.0)
        st = small_random_state(g3, amplitude=0.4, seed=8, extended=True)
        ctrl = StepControl(dt=1e-3, t_end=1)
        for _ in range(25):
            st = s3.step(st, params, ctrl)
        for f in (st.u, st.B, st.v):
            assert f.divergence_residual() < 1e-11
            assert np.abs(f.mean_mode()).max() == 0.0

    def test_second_order_self_convergence(self, g3):
        st0 = small_random_state(g3, amplitude=0.3, seed=9, extended=True)

        def advance(dt, T):
            st = st0
            ctrl = StepControl(dt=dt, t_end=T)
            for _ in range(round(T / dt)):
                st = s3.step(st, P1, ctrl)
            return st

        T = 0.04
        ref = advance(T / 320, T)
        e1 = advance(T / 40, T)
        e2 = advance(T / 80, T)

        def err(a, b):
            return sum(rel_err(x.c, y.c) for x, y in
                       ((a.u, b.u), (a.B, b.B), (a.v, b.v)))

        ratio = err(e1, ref) / err(e2, ref)
        assert 3.5 <= ratio <= 4.5

    def test_cfl_rejection_reports_required_dt(self, g3):
        st = small_random_state(g3, amplitude=5.0, seed=10)
        with pytest.raises(CFLError) as exc:
            s3.step(st, P1, StepControl(dt=0.5, t_end=1))
        assert exc.value.dt_required < 0.5

    @staticmethod
    def assert_matches_reference_composition(g3, formulation, params, independent_v=False):
        """The compact stepper, with its regrouped products and pruned
        transforms, reproduces the step assembled from the full-lattice
        nonlinear terms and the integrating factors, in every field.
        With independent_v, v is a solenoidal field of its own rather than
        u - eps curl B, so the regrouping cannot lean on that redundancy."""
        extended = formulation == "extended"
        st = small_random_state(g3, amplitude=0.3, seed=11, extended=extended, params=params)
        if independent_v:
            w = random_field(g3, 1.0, 2.5, seed=13)
            st = s3.SimState3D(st.t, st.u, st.B, w * (hs_norm(st.v, 0.0) / hs_norm(w, 0.0)))
        dt = 1e-3
        out = s3.step(st, params, StepControl(dt=dt, t_end=1))
        nonlinear = oracle3d.nonlinear_extended if extended else oracle3d.nonlinear_physical
        Eu = np.exp(-params.mu * g3.k2 * dt)
        Eb = np.exp(-params.nu * g3.k2 * dt)
        names = ("u", "B", "v") if extended else ("u", "B")
        E = (Eu, Eb, Eu)
        f0 = [getattr(st, name).c for name in names]
        n1 = [d.c for d in nonlinear(st, params)]
        mid = s3.SimState3D(st.t + dt, *(SpectralField(g3, e * (f + dt * a))
                                         for e, f, a in zip(E, f0, n1)))
        n2 = [d.c for d in nonlinear(mid, params)]
        for name, e, f, a, b in zip(names, E, f0, n1, n2):
            ref = leray_project(SpectralField(g3, e * f + 0.5 * dt * (e * a + b))).c
            ref[:, 0, 0, 0] = 0.0
            assert rel_err(getattr(out, name).c, ref) < 1e-13, name

    def test_matches_reference_composition(self, g3):
        self.assert_matches_reference_composition(g3, "extended", P1)

    @pytest.mark.parametrize("formulation, params, independent_v", [
        ("extended", PhysicalParams(0.8, 0.8, 0.0), False),
        ("physical", PhysicalParams(1.0, 0.7, 1.0), False),
        ("physical", PhysicalParams(1.0, 0.7, 0.0), False),
        ("extended", P1, True),
        ("extended", PhysicalParams(1.0, 1.0, 0.3), True),
    ], ids=["extended-eps0", "physical-eps1", "physical-eps0",
            "extended-independent-v-eps1", "extended-independent-v-eps0.3"])
    def test_matches_reference_composition_variants(self, g3, formulation, params,
                                                    independent_v):
        self.assert_matches_reference_composition(g3, formulation, params, independent_v)


class TestStepSessionReuse:
    """A session keeps its stage-1 term and its hs2 magnitudes for its
    current fields only: after advance() both equal a fresh session's on
    the new state, bit for bit, and a reused stage 1 steps as a fresh one."""

    CASES = [
        (3, "physical", PhysicalParams(1.0, 0.7, 1.0)),
        (3, "extended", P1),
        (2, "physical", P1),
    ]
    ORDERS = (0.0, 0.5, 1.0, 1.5, 2.0)

    @staticmethod
    def session(dim, formulation, params):
        g = GridSpec.create(dim, 16)
        if dim == 3:
            st = small_random_state(g, extended=formulation == "extended", params=params)
        else:
            from hallmhd import solver25d as s25
            st = s3.make_state(*s25.make_initial_25d(g, "random_band", 0.3, seed=12), params)
        return s3.StepSession(st, params, StepControl(dt=1e-3, t_end=1.0))

    @staticmethod
    def keys(session):
        return ["u", "B", "v_of_uB", "curl_u", "curl_B"] + (["v"] if session.extended else [])

    @staticmethod
    def assert_same(a, b):
        assert len(a) == len(b)
        for x, y in zip(a, b):
            if isinstance(x, np.ndarray):
                assert np.array_equal(x, y)
            else:
                assert x == y

    @pytest.mark.parametrize("dim,formulation,params", CASES, ids=["3-phys", "3-ext", "2.5"])
    def test_caches_follow_the_fields(self, dim, formulation, params):
        session = self.session(dim, formulation, params)
        for key in self.keys(session):  # fill the magnitude cache before the step
            session.hs2(key, 1.0)
        session.rhs()
        session.advance()
        fresh = s3.StepSession(session.state(), params, session.control)
        self.assert_same(session.rhs(), fresh.rhs())
        for key in self.keys(session):
            for s in self.ORDERS:
                assert session.hs2(key, s) == fresh.hs2(key, s), (key, s)

    @pytest.mark.parametrize("dim,formulation,params", CASES, ids=["3-phys", "3-ext", "2.5"])
    def test_reused_stage1_steps_bit_for_bit(self, dim, formulation, params):
        reused, plain = self.session(dim, formulation, params), self.session(dim, formulation, params)
        for _ in range(3):
            reused.rhs()
            reused.advance()
            plain.advance()
        self.assert_same(reused.fields, plain.fields)

    def test_hs2_magnitude_formed_once_per_field(self, monkeypatch):
        session = self.session(2, "physical", P1)
        calls = []
        mag2 = s3._Stepper3D.mag2
        monkeypatch.setattr(s3._Stepper3D, "mag2", staticmethod(
            lambda comp: calls.append(None) or mag2(comp)))
        for s in self.ORDERS:
            for key in self.keys(session):
                session.hs2(key, s)
        assert len(calls) == len(self.keys(session))
        session.advance()
        session.hs2("u", 0.5)
        assert len(calls) == len(self.keys(session)) + 1

    def test_hs2_unknown_key_is_value_error(self):
        session = self.session(3, "physical", P1)
        for key in ("v", "w"):  # a physical session evolves no v
            with pytest.raises(ValueError, match="unknown field"):
                session.hs2(key, 1.0)


class TestBandTransforms:
    """The stepper's pruned transforms against the full ones: scatter +
    irfftn and rfftn + gather over the dealias band."""

    @staticmethod
    def stepper(dim, n):
        return s3._Stepper3D(GridSpec.create(dim, n), P1, 1e-3, False)

    @pytest.mark.parametrize("dim", [2, 3])
    @pytest.mark.parametrize("n", [16, 32, 48, 64])
    def test_pair_matches_full_transforms(self, dim, n):
        sp = self.stepper(dim, n)
        g = sp.grid
        rng = np.random.default_rng(n + dim)
        lane = sp.lanes[0]
        one, zero = np.ones(g.physical_shape), np.zeros(g.physical_shape)
        # two calls, so a workspace left dirty by the first shows in the second
        for _ in range(2):
            comp = rng.standard_normal((3, sp.m)) + 1j * rng.standard_normal((3, sp.m))
            got = np.stack([sp._inverse(lane, c) for c in comp])
            want = to_physical(g, sp.scatter_field(comp).c)
            values = rng.standard_normal(g.physical_shape)
            sp._forward(lane, 0, values, one, zero, zero)  # values * 1 - 0 * 0
            want_c = sp.gather(to_spectral(g, values[None]))[0]
            if n & (n - 1) == 0:  # power-of-two scaling: bit for bit
                assert np.array_equal(got, want)
                assert np.array_equal(sp.F[0], want_c)
            else:  # the forward normalization is applied per axis
                assert rel_err(got, want) <= 1e-15
                assert rel_err(sp.F[0], want_c) <= 1e-15

    @pytest.mark.parametrize("dim, extended, budget", [
        (3, False, (9, 9)), (2, False, (9, 9)), (3, True, (12, 12)),
    ])
    def test_transform_budget(self, monkeypatch, dim, extended, budget):
        """Forward and inverse scipy.fft calls per nonlinear evaluation:
        one single-axis transform per transformed component, on one lane
        (N = 16) or split over two (3D N = 32)."""
        monkeypatch.setattr(os, "sched_getaffinity", lambda pid: {0, 1})
        calls = {"rfftn": [], "irfftn": []}  # list.append: safe from both lanes

        def counting(name):
            fn = getattr(scipy.fft, name)

            def wrapped(*args, **kwargs):
                calls[name].append(None)
                return fn(*args, **kwargs)
            return wrapped

        for name in calls:
            monkeypatch.setattr(scipy.fft, name, counting(name))
        for n, lanes in [(16, 1)] + ([(32, 2)] if dim == 3 else []):
            sp = s3._Stepper3D(GridSpec.create(dim, n), P1, 1e-3, extended)
            assert len(sp.lanes) == lanes
            rng = np.random.default_rng(3)
            fields = [rng.standard_normal((3, sp.m)) + 1j * rng.standard_normal((3, sp.m))
                      for _ in range(3 if extended else 2)]
            for c in calls.values():
                c.clear()
            sp.nonlinear(*fields)
            assert (len(calls["rfftn"]), len(calls["irfftn"])) == budget, n


class TestLanes:
    """Two lanes give one lane's results bit for bit; the lane count
    follows the allowed CPUs and the component size; a failed job and a
    fork leave the stepper usable."""

    @staticmethod
    def stepper(monkeypatch, cpus, grid, params=P1, extended=False):
        monkeypatch.setattr(os, "sched_getaffinity", lambda pid: set(range(cpus)))
        return s3._Stepper3D(grid, params, 1e-3, extended)

    @staticmethod
    def fields(sp):
        st = small_random_state(sp.grid, amplitude=0.2, extended=sp.extended, params=sp.params)
        return [sp.gather(f.c) for f in (st.u, st.B, st.v) if f is not None]

    @staticmethod
    def assert_same(a, b):
        assert len(a) == len(b)
        for x, y in zip(a, b):
            assert np.array_equal(x, y)

    @pytest.mark.parametrize("n, formulation, params", [
        (32, "physical", PhysicalParams(1.0, 0.7, 1.0)),
        (32, "extended", P1),
        (48, "physical", PhysicalParams(0.8, 1.0, 1.0)),
        (48, "extended", P1),
    ])
    def test_two_lanes_match_one(self, monkeypatch, n, formulation, params):
        g = GridSpec.create(3, n)
        extended = formulation == "extended"
        one = self.stepper(monkeypatch, 1, g, params, extended)
        two = self.stepper(monkeypatch, 2, g, params, extended)
        fields = self.fields(one)
        assert (len(one.lanes), len(two.lanes)) == (1, 2)
        self.assert_same(one.nonlinear(*fields), two.nonlinear(*fields))
        control = StepControl(dt=1e-3, t_end=1.0)
        a = b = fields
        for _ in range(5):
            a = one.advance(a, control, one.nonlinear(*a))
            b = two.advance(b, control, two.nonlinear(*b))
        self.assert_same(a, b)
        assert not np.array_equal(a[0], fields[0])  # the steps moved the fields

    @pytest.mark.parametrize("dim, n, cpus, lanes", [
        (2, 64, 2, 1), (2, 64, 1, 1), (3, 16, 2, 1), (3, 32, 1, 1), (3, 32, 2, 2),
    ])
    def test_lane_count(self, monkeypatch, dim, n, cpus, lanes):
        sp = self.stepper(monkeypatch, cpus, GridSpec.create(dim, n))
        assert len(sp.lanes) == lanes

    @pytest.mark.parametrize("bad_row", [3, 4], ids=["lane1", "lane0"])
    def test_failed_job_waits_for_both_lanes(self, monkeypatch, bad_row):
        """A job that raises propagates only once the other lane is done,
        and the stepper's next evaluation equals a fresh stepper's."""
        g = GridSpec.create(3, 32)
        sp = self.stepper(monkeypatch, 2, g)
        fields = self.fields(sp)
        forward = s3._Stepper3D._forward
        running, lock = [0], threading.Lock()

        def failing(self, lane, row, *pqrs):
            if row == bad_row:
                raise RuntimeError(f"row {row}")
            with lock:
                running[0] += 1
            time.sleep(0.02)  # the other lane is mid-job when the bad row fails
            forward(self, lane, row, *pqrs)
            with lock:
                running[0] -= 1

        monkeypatch.setattr(s3._Stepper3D, "_forward", failing)
        with pytest.raises(RuntimeError, match=f"row {bad_row}"):
            sp.nonlinear(*fields)
        assert running[0] == 0
        monkeypatch.setattr(s3._Stepper3D, "_forward", forward)
        self.assert_same(sp.nonlinear(*fields), self.stepper(monkeypatch, 2, g).nonlinear(*fields))

    def test_forked_child_makes_its_own_worker(self, monkeypatch):
        """A child forked after a two-lane evaluation (so the parent's
        worker exists) evaluates bit for bit as the parent, in time."""
        sp = self.stepper(monkeypatch, 2, GridSpec.create(3, 32))
        fields = self.fields(sp)
        want = sp.nonlinear(*fields)
        with warnings.catch_warnings():  # forking a threaded process warns on 3.12+
            warnings.simplefilter("ignore", DeprecationWarning)
            pid = os.fork()
        if pid == 0:  # child: exit 0 if bit for bit, never running pytest's teardown
            code = 2
            try:
                got = sp.nonlinear(*fields)
                code = 0 if all(np.array_equal(x, y) for x, y in zip(got, want)) else 1
            finally:
                os._exit(code)
        deadline = time.monotonic() + 30.0
        while time.monotonic() < deadline:
            done, status = os.waitpid(pid, os.WNOHANG)
            if done:
                break
            time.sleep(0.05)
        else:
            os.kill(pid, signal.SIGKILL)
            os.waitpid(pid, 0)
            pytest.fail("the forked child did not finish its evaluation within 30 s")
        assert os.waitstatus_to_exitcode(status) == 0


class TestInitialData:
    def test_beltrami_norm(self, g3):
        delta = 0.37
        _, B0 = s3.make_initial(g3, "beltrami", delta)
        # 12 unit-shell modes of modulus delta/2: any-order norm delta sqrt 3
        for s in (0.0, 0.5, 1.5):
            assert hs_norm(B0, s) == pytest.approx(delta * np.sqrt(3), rel=1e-13)

    def test_random_band_determinism_and_normalization(self, g3):
        u1, B1 = s3.make_initial(g3, "random_band", 0.25, seed=42)
        u2, B2 = s3.make_initial(g3, "random_band", 0.25, seed=42)
        assert np.array_equal(u1.c, u2.c) and np.array_equal(B1.c, B2.c)
        assert hs_norm(u1, 0.5) == pytest.approx(0.25, rel=1e-12)
        assert hs_norm(B1, 0.5) == pytest.approx(0.25, rel=1e-12)
        u3, _ = s3.make_initial(g3, "random_band", 0.25, seed=43)
        assert not np.array_equal(u1.c, u3.c)

    def test_taylor_green_divergence(self, g3):
        u0, B0 = s3.make_initial(g3, "taylor_green", 1.0)
        assert u0.divergence_residual() < 1e-13
        assert np.abs(B0.c).max() == 0.0

    def test_unknown_kind(self, g3):
        with pytest.raises(ValueError):
            s3.make_initial(g3, "orszag_tang", 1.0)
        with pytest.raises(ValueError):
            s3.make_initial(g3, "random_band", -1.0, seed=0)


class TestScalingCovariance:
    def test_lambda_one_trivial(self, g3_32):
        u = random_field(g3_32, 1, 2.4, seed=1) * 0.2
        B = random_field(g3_32, 1, 2.4, seed=2) * 0.2
        res = oracle3d.scaling_covariance_check(u, B, 1, P1)
        assert max(res.values()) < 1e-12

    def test_mhd_and_hall_pair_covariance(self, g3_32):
        u = random_field(g3_32, 1, 2.4, seed=3) * 0.2
        B = random_field(g3_32, 1, 2.4, seed=4) * 0.2
        res = oracle3d.scaling_covariance_check(u, B, 2, P1)
        assert res["mhd"] <= 1e-11
        assert res["hall_pair"] <= 1e-11

    def test_non_integer_lambda(self, g3_32):
        u = random_field(g3_32, 1, 2.0, seed=5)
        with pytest.raises(ValueError):
            oracle3d.scaling_covariance_check(u, u, 1.5, P1)

