"""2.5D solver: advective structure, derived fields, the combined-field
law, the rewritten induction equation, the identity suite (checks), and
the 3D oracle (2.5D is 3D with d3 = 0)."""

import numpy as np
import pytest

from hallmhd.checks import identity_suite
from hallmhd.fields import SpectralField
from hallmhd.grid import GridSpec
from hallmhd.norms import hs_norm
from hallmhd.operators import advect, curl3
from hallmhd.params import PhysicalParams, StepControl
from hallmhd import solver25d as s25
from hallmhd import solver3d as s3
from hallmhd.sampling import random_field, random_scalar

import oracle3d
from conftest import rel_err

P1 = PhysicalParams(1.0, 1.0, 1.0)


def random_state(g2, amp=0.3, seed=5, params=P1):
    u0, B0 = s25.make_initial_25d(g2, "random_band", amp, seed=seed)
    return s25.make_state_25d(u0, B0, params)


def rhs(st, params=P1):
    """rhs_25d on a StepSession that holds `st`."""
    return s25.rhs_25d(s3.StepSession(st, params, StepControl(dt=1e-3, t_end=1.0)))


def physical_uB(st):
    return np.stack([st.u.to_physical(), st.B.to_physical()])


class TestRhs:
    def test_zero_state(self, g2):
        st = s25.make_state_25d(SpectralField.zeros(g2), SpectralField.zeros(g2), P1)
        du, dB = rhs(st)
        assert np.abs(du.c).max() == 0.0 and np.abs(dB.c).max() == 0.0

    def test_third_component_pure_heat(self, g2):
        phi = random_scalar(g2, 1, 5, seed=1)
        zero = np.zeros_like(phi)
        u = SpectralField(g2, np.stack([zero, zero, phi]))
        st = s25.make_state_25d(u, SpectralField.zeros(g2), P1)
        du, dB = rhs(st)
        assert rel_err(du.c, -g2.k2 * u.c) < 1e-13
        assert np.abs(dB.c).max() == 0.0

    def test_single_mode_b3_decay(self, g2):
        u0, B0 = s25.make_initial_25d(g2, "single_mode_b3", 0.5)
        st = s25.make_state_25d(u0, B0, P1)
        du, dB = rhs(st)
        assert np.abs(du.c).max() < 1e-14
        assert rel_err(dB.c, -B0.c) < 1e-13

    def test_divergence_free_outputs(self, g2):
        st = random_state(g2)
        du, dB = rhs(st)
        assert du.divergence_residual() < 1e-12
        assert dB.divergence_residual() < 1e-12


class TestRewrittenB:
    @pytest.mark.parametrize("eps", [0.0, 1.0, 10.0])
    def test_agreement(self, g2, eps):
        params = PhysicalParams(1.0, 1.0, eps)
        st = random_state(g2, seed=7, params=params)
        _, dB = rhs(st, params)
        rw = s25.rewritten_B_rhs(st, params, physical_uB(st))
        assert rel_err(rw.c, dB.c) < 1e-11

    def test_zero_field(self, g2):
        st = s25.make_state_25d(SpectralField.zeros(g2), SpectralField.zeros(g2), P1)
        assert np.abs(s25.rewritten_B_rhs(st, P1, physical_uB(st)).c).max() == 0.0


class TestState:
    def test_divergence_invariant(self, g2):
        st = random_state(g2, seed=11)
        assert st.u.divergence_residual() < 1e-12
        assert st.B.divergence_residual() < 1e-12

    def test_extended_state_tracks_physical_session(self):
        """make_state(extended=True) on a 2D lattice: stepped beside the
        physical session from the same data, (u, B) agree and v stays
        u - eps curl B."""
        g = GridSpec.create(2, 32)
        params = PhysicalParams(0.1, 0.1, 1.0)
        ctrl = StepControl(dt=1e-3, t_end=1.0)
        u0, B0 = s25.make_initial_25d(g, "random_band", 0.4, seed=61)
        phys = s3.StepSession(s3.make_state(u0, B0, params), params, ctrl)
        ext = s3.StepSession(s3.make_state(u0, B0, params, extended=True), params, ctrl)
        for _ in range(50):
            phys.advance()
            ext.advance()
        sp, se = phys.state(), ext.state()
        assert se.t == sp.t
        assert rel_err(se.u.c, sp.u.c) < 1e-14
        assert rel_err(se.B.c, sp.B.c) < 1e-14
        assert rel_err(se.v.c, (se.u - params.eps * curl3(se.B)).c) < 1e-13


class TestLiftTo3D:
    """Oracle: the 2.5D system is the 3D physical system on fields that do
    not depend on x3.  Lift 2.5D data to x3-independent 3D fields at N = 16
    and compare every x3 slice of the 3D result with the 2.5D one."""

    G2 = GridSpec.create(2, 16)
    G3 = GridSpec.create(3, 16)
    PARAMS = (PhysicalParams(1.0, 1.0, 1.0), PhysicalParams(0.7, 0.3, 2.0))

    def lift(self, f):
        vals = f.to_physical()
        return SpectralField.from_physical(
            self.G3, np.repeat(vals[..., None], self.G3.n, axis=-1))

    @staticmethod
    def slice_err(f3, f2):
        p3, p2 = f3.to_physical(), f2.to_physical()
        return max(rel_err(p3[..., i], p2) for i in range(p3.shape[-1]))

    @pytest.mark.parametrize("params", PARAMS)
    def test_rhs_matches_3d_reference(self, params):
        u0, B0 = s25.make_initial_25d(self.G2, "random_band", 0.3, seed=51)
        du2, dB2 = rhs(s25.make_state_25d(u0, B0, params), params)
        du3, dB3 = oracle3d.rhs_physical(s3.SimState3D(0.0, self.lift(u0), self.lift(B0)), params)
        assert self.slice_err(du3, du2) < 1e-13
        assert self.slice_err(dB3, dB2) < 1e-13

    @pytest.mark.parametrize("params", PARAMS)
    def test_steps_match_3d_steps(self, params):
        u0, B0 = s25.make_initial_25d(self.G2, "random_band", 0.3, seed=52)
        ctrl = StepControl(dt=1e-3, t_end=1.0)
        st2 = s25.make_state_25d(u0, B0, params)
        st3 = s3.make_state(self.lift(u0), self.lift(B0), params)
        for _ in range(5):
            st2 = s25.step_25d(st2, params, ctrl)
            st3 = s3.step(st3, params, ctrl)
        assert st2.t == st3.t
        assert self.slice_err(st3.u, st2.u) < 1e-13
        assert self.slice_err(st3.B, st2.B) < 1e-13

    def test_curl_and_advect_match_3d_operators(self):
        """The full-lattice operators take a 2D grid as 3D with k3 = 0."""
        u0, B0 = s25.make_initial_25d(self.G2, "random_band", 0.3, seed=53)
        assert self.slice_err(curl3(self.lift(B0)), curl3(B0)) < 1e-13
        adv2, adv3 = (SpectralField(g, advect(g, u.to_physical(), B.to_physical()))
                      for g, u, B in ((self.G2, u0, B0),
                                      (self.G3, self.lift(u0), self.lift(B0))))
        assert self.slice_err(adv3, adv2) < 1e-13


class TestStepAndEResidual:
    def test_heat_data_residual(self, g2):
        """u = 0, single-mode B: E = B evolves exactly by the heat factor,
        so the centered-difference residual is the quadratic discretization
        mismatch h^2/12 of the exponential."""
        u0, B0 = s25.make_initial_25d(g2, "single_mode_b3", 0.4)
        st = s25.make_state_25d(u0, B0, P1)
        ctrl = StepControl(dt=1e-3, t_end=1.0)
        st1 = s25.step_25d(st, P1, ctrl)
        res = oracle3d.e_residual(st, st1, P1, ctrl.dt)
        assert res <= 1e-6
        assert res == pytest.approx(ctrl.dt**2 / 12, rel=1e-2)

    def test_zero_state_guarded(self, g2):
        st = s25.make_state_25d(SpectralField.zeros(g2), SpectralField.zeros(g2), P1)
        assert oracle3d.e_residual(st, st, P1, 1e-3) == 0.0

    def test_mu_ne_nu_rejected(self, g2):
        st = random_state(g2)
        with pytest.raises(ValueError):
            oracle3d.e_residual(st, st, PhysicalParams(1.0, 2.0, 1.0), 1e-3)

    def test_generic_residual_second_order(self, g2):
        # the residual's O(dt^2) constant grows like (k^2)^3; keep the
        # data band at |k| <= 2 so dt = 1e-3 sits well inside tolerance
        u0, B0 = s25.make_initial_25d(g2, "random_band", 0.25, seed=13, hi=2.0)
        st0 = s25.make_state_25d(u0, B0, P1)

        def res_at(dt):
            ctrl = StepControl(dt=dt, t_end=1.0)
            st = st0
            for _ in range(8):
                prev, st = st, s25.step_25d(st, P1, ctrl)
            return oracle3d.e_residual(prev, st, P1, dt)

        r1, r2 = res_at(2e-3), res_at(1e-3)
        assert r2 <= 1e-5
        assert 3.0 <= r1 / r2 <= 5.0

    def test_energy_identity_discrete(self, g2):
        """(u, B) energy balance is exact in space; drift is pure O(dt^2)."""
        st = random_state(g2, amp=0.3, seed=14)
        ctrl = StepControl(dt=1e-3, t_end=1.0)
        e0 = hs_norm(st.u, 0) ** 2 + hs_norm(st.B, 0) ** 2
        diss = 0.0
        from scipy.integrate import cumulative_simpson
        vals = [hs_norm(st.u, 1) ** 2 + hs_norm(st.B, 1) ** 2]
        for _ in range(100):
            st = s25.step_25d(st, P1, ctrl)
            vals.append(hs_norm(st.u, 1) ** 2 + hs_norm(st.B, 1) ** 2)
        diss = cumulative_simpson(np.array(vals), dx=ctrl.dt, initial=0.0)[-1]
        drift = abs(hs_norm(st.u, 0) ** 2 + hs_norm(st.B, 0) ** 2 + 2 * diss - e0) / e0
        assert drift < 1e-7


class TestSharedCertificateWork:
    """Batching and reuse in the certificates change no bit."""

    @pytest.mark.parametrize("dim,n", [(2, 16), (2, 32), (2, 48), (2, 64), (3, 16)])
    def test_batched_advect_matches_component_loop(self, dim, n):
        from hallmhd.operators import to_spectral

        g = GridSpec.create(dim, n)
        initial = s25.make_initial_25d if dim == 2 else s3.make_initial
        u, B = initial(g, "random_band", 0.3, seed=n, hi=n / 4)
        ap, bp = u.to_physical(), B.to_physical()
        ref = np.empty((3,) + g.spectral_shape, dtype=np.complex128)
        for j in range(3):
            prod = to_spectral(g, np.stack([ap[i] * bp[j] for i in range(dim)]))
            ref[j] = 1j * sum(k * p for k, p in zip(g.kvec, prod))
        assert np.array_equal(advect(g, ap, bp), ref)


class TestIdentitySuite:
    def test_random_divfree(self, g2):
        K = g2.n / 4.0 - 1.0
        y = random_field(g2, 1, K, seed=20)
        z = random_field(g2, 1, K, seed=21)
        a = random_field(g2, 1, K, seed=22, divfree=False)
        b = random_field(g2, 1, K, seed=23, divfree=False)
        c = random_field(g2, 1, K, seed=24, divfree=False)
        out = identity_suite(y, z, a, b, c)
        assert not out["i1_skipped"]
        assert out["i1"] <= 1e-11
        assert out["ws6"] <= 1e-13
        assert out["double_curl"] <= 1e-11

    def test_antisymmetry_y_equals_z(self, g2):
        K = g2.n / 4.0 - 1.0
        y = random_field(g2, 1, K, seed=25)
        a = random_field(g2, 1, K, seed=26, divfree=False)
        out = identity_suite(y, y, a, a, a)
        assert out["i1"] <= 1e-13

    def test_divergence_precondition_flag(self, g2):
        K = g2.n / 4.0 - 1.0
        y = random_field(g2, 1, K, seed=27, divfree=False)
        z = random_field(g2, 1, K, seed=28)
        a = random_field(g2, 1, K, seed=29, divfree=False)
        out = identity_suite(y, z, a, a, a)
        assert out["i1_skipped"] and "i1" not in out


class TestFittedConstantStability:
    def test_v_inequality_constant_resolution_stable(self):
        """The empirical constant of the v-difference inequality fitted on
        the same physical trajectory is stable under resolution doubling
        (coarse data zero-padded onto the fine lattice)."""
        from hallmhd.grid import GridSpec
        from hallmhd.operators import spectral_pad

        # weak dissipation so the v-difference numerator actually turns
        # positive and the fit is non-vacuous
        params = PhysicalParams(0.1, 0.1, 1.0)
        g32 = GridSpec.create(2, 32)
        g64 = GridSpec.create(2, 64)
        u0, B0 = s25.make_initial_25d(g32, "random_band", 0.4, seed=41, hi=2.0)

        def c611_for(u, B):
            st = s25.make_state_25d(u, B, params)
            ctrl = StepControl(dt=5e-4, t_end=1.0)
            rows = []
            for _ in range(100):
                v = st.u - params.eps * curl3(st.B)
                rows.append((st.t, hs_norm(v, 0.0) ** 2, hs_norm(v, 1.0) ** 2,
                             hs_norm(st.u, 0.0) ** 2 + hs_norm(st.B, 0.0) ** 2 + hs_norm(v, 0.0) ** 2,
                             hs_norm(st.u, 1.0) ** 2 + hs_norm(st.B, 1.0) ** 2 + hs_norm(v, 1.0) ** 2))
                st = s25.step_25d(st, params, ctrl)
            c = 0.0
            for a, b in zip(rows[:-1], rows[1:]):
                h = b[0] - a[0]
                num = (b[1] - a[1]) / h + 0.5 * (a[2] + b[2])
                den = 0.5 * (a[3] * a[4] + b[3] * b[4])
                if num > 0 and den > 0:
                    c = max(c, num / den)
            return c

        c32 = c611_for(u0, B0)
        u64 = SpectralField(g64, spectral_pad(g32, u0.c, g64))
        B64 = SpectralField(g64, spectral_pad(g32, B0.c, g64))
        c64 = c611_for(u64, B64)
        assert c32 > 0 and c64 > 0
        assert max(c32, c64) / min(c32, c64) <= 2.0


class TestInitial25D:
    def test_normalization(self, g2):
        u0, B0 = s25.make_initial_25d(g2, "random_band", 0.3, seed=31, b_amplitude=0.07)
        assert hs_norm(u0, 0.0) == pytest.approx(0.3, rel=1e-12)
        from hallmhd.norms import inhomogeneous_hs_norm
        assert inhomogeneous_hs_norm(B0, 1.0) == pytest.approx(0.07, rel=1e-12)

    def test_determinism(self, g2):
        a = s25.make_initial_25d(g2, "random_band", 0.3, seed=32)
        b = s25.make_initial_25d(g2, "random_band", 0.3, seed=32)
        assert np.array_equal(a[0].c, b[0].c)

    def test_unknown_kind(self, g2):
        with pytest.raises(ValueError):
            s25.make_initial_25d(g2, "abc", 1.0)
