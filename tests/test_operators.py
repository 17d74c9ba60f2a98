"""Spectral operator contracts: multipliers, curls, projection, filters."""

import numpy as np
import pytest

from hallmhd.fields import SpectralField, l2_inner
from hallmhd.grid import GridSpec
from hallmhd.norms import hs_norm
from hallmhd.operators import (
    apply_lambda,
    band_filter,
    curl3,
    curl_inverse,
    gradient,
    leray_project,
    spectral_pad,
    to_physical,
)
from hallmhd.sampling import random_field, random_scalar, single_mode_field
from hallmhd.solver3d import abc_field

from conftest import rel_err
from oracle3d import coeff_at, dilate, divergence, laplacian


class TestLambda:
    def test_identity_at_zero(self, g3):
        f = random_field(g3, 1, 5, seed=1)
        assert np.array_equal(apply_lambda(f, 0.0).c, f.c)

    def test_single_mode_scaling(self, g3):
        f = single_mode_field(g3, (2, 1, 0), np.array([0.3 + 0.1j, 0.2, 0.0]))
        out = apply_lambda(f, 0.8)
        np.testing.assert_allclose(coeff_at(out, (2, 1, 0)),
                                   5 ** 0.4 * coeff_at(f, (2, 1, 0)), rtol=1e-14)

    def test_inverse_multiplier(self, g3):
        f = random_field(g3, 1, 5, seed=2)
        back = apply_lambda(apply_lambda(f, 0.7), -0.7)
        assert rel_err(back.c, f.c) < 1e-13

    def test_mean_mode_with_negative_order(self, g3):
        c = np.zeros((3,) + g3.spectral_shape, dtype=complex)
        c[(0,) + (0,) * 3] = 1.0
        f = SpectralField(g3, c)
        with pytest.raises(ValueError):
            apply_lambda(f, -0.5)


class TestCurls:
    def test_curl_of_gradient_vanishes(self, g3):
        phi = random_scalar(g3, 1, 5, seed=3)
        g = gradient(g3, phi)
        assert np.abs(curl3(g).c).max() <= 1e-13 * np.abs(g.c).max()

    def test_abc_is_curl_eigenfield(self, g3):
        w = abc_field(g3, 1.0)
        assert rel_err(curl3(w).c, w.c) < 1e-13
        # mode-by-mode audit on one coefficient
        np.testing.assert_allclose(coeff_at(w, (0, 1, 0)), [0.5, 0, -0.5j], atol=1e-14)

    def test_curl2_example(self, g2):
        x1, _ = g2.coordinates()
        zero = np.zeros_like(x1)
        B = SpectralField.from_physical(g2, np.stack([zero, zero, np.sin(x1)]))
        j = to_physical(g2, curl3(B).c)
        assert np.abs(j[0]).max() < 1e-14
        assert np.abs(j[1] + np.cos(x1)).max() < 1e-13
        assert np.abs(j[2]).max() < 1e-14

    def test_curl_curl_identity(self, g3):
        f = random_field(g3, 1, 5, seed=4, divfree=False)
        lhs = curl3(curl3(f)).c
        rhs = -laplacian(f).c + gradient(g3, divergence(f)).c
        assert rel_err(lhs, rhs) < 1e-13

    def test_adjointness(self, g3):
        w = random_field(g3, 1, 6, seed=5, divfree=False)
        v = random_field(g3, 1, 6, seed=6, divfree=False)
        num = abs(l2_inner(curl3(w), v) - l2_inner(w, curl3(v)))
        assert num <= 1e-12 * hs_norm(w, 0.0) * hs_norm(v, 0.0)


class TestLeray:
    def test_fixes_divergence_free(self, g3):
        f = random_field(g3, 1, 5, seed=7, divfree=True)
        assert rel_err(leray_project(f).c, f.c) < 1e-13

    def test_kills_gradients(self, g3):
        g = gradient(g3, random_scalar(g3, 1, 5, seed=8))
        assert np.abs(leray_project(g).c).max() <= 1e-13 * np.abs(g.c).max()

    def test_output_divergence(self, g3):
        f = random_field(g3, 1, 6, seed=9, divfree=False)
        p = leray_project(f)
        assert p.divergence_residual() <= 1e-12

    def test_idempotent_and_selfadjoint(self, g3):
        f = random_field(g3, 1, 6, seed=10, divfree=False)
        h = random_field(g3, 1, 6, seed=11, divfree=False)
        p = leray_project(f)
        assert rel_err(leray_project(p).c, p.c) < 1e-13
        assert abs(l2_inner(leray_project(f), h) - l2_inner(f, leray_project(h))) \
            <= 1e-12 * hs_norm(f, 0) * hs_norm(h, 0)

    def test_2d_projects_first_two_components_only(self, g2):
        f = random_field(g2, 1, 6, seed=12, divfree=False)
        p = leray_project(f)
        assert p.divergence_residual() <= 1e-12
        # third component untouched except the mean mode
        diff = p.c[2] - f.c[2]
        diff[(0, 0)] = 0.0
        assert np.abs(diff).max() == 0.0


class TestCurlInverse:
    def test_left_inverse_on_divfree(self, g3):
        B = random_field(g3, 1, 5, seed=13, divfree=True)
        assert rel_err(curl_inverse(curl3(B)).c, B.c) < 1e-12

    def test_abc_eigenrelation(self, g3):
        w = abc_field(g3, 0.7)
        assert rel_err(curl_inverse(w).c, w.c) < 1e-13

    def test_zero(self, g3):
        z = SpectralField.zeros(g3)
        assert np.abs(curl_inverse(z).c).max() == 0.0

    def test_mean_mode_rejected(self, g3):
        c = np.zeros((3,) + g3.spectral_shape, dtype=complex)
        c[(0,) + (0,) * 3] = 1.0
        with pytest.raises(ValueError):
            curl_inverse(SpectralField(g3, c))


class TestFilters:
    def test_band_filter_identity(self, g3):
        f = random_field(g3, 0, np.inf, seed=14, divfree=False)
        assert np.array_equal(band_filter(f, 0, np.inf).c, f.c)

    def test_shell_audit(self, g3):
        f = (single_mode_field(g3, (1, 0, 0), np.array([1.0, 0, 0]))
             + single_mode_field(g3, (2, 0, 0), np.array([1.0, 0, 0]))
             + single_mode_field(g3, (3, 0, 0), np.array([1.0, 0, 0])))
        kept = band_filter(f, 1.5, 2.5)
        assert abs(coeff_at(kept, (2, 0, 0))[0] - 1.0) < 1e-15
        assert np.abs(coeff_at(kept, (1, 0, 0))).max() == 0.0
        assert np.abs(coeff_at(kept, (3, 0, 0))).max() == 0.0

    def test_partition(self, g3):
        f = random_field(g3, 0, np.inf, seed=15, divfree=False)
        rho = 2.3
        rec = band_filter(f, 0, rho).c + band_filter(f, g3.next_shell(rho), np.inf).c
        assert np.abs(rec - f.c).max() <= 1e-13 * np.abs(f.c).max()

    def test_bad_bounds(self, g3):
        f = random_field(g3, 1, 3, seed=16)
        with pytest.raises(ValueError):
            band_filter(f, 3.0, 1.0)

    def test_laplacian_single_mode(self, g3):
        f = single_mode_field(g3, (2, 1, 0), np.array([1.0, 0, 0]))
        out = laplacian(f)
        np.testing.assert_allclose(coeff_at(out, (2, 1, 0)), [-5.0, 0, 0], rtol=1e-15)

    def test_divergence_of_projection(self, g3):
        f = random_field(g3, 1, 6, seed=18, divfree=False)
        div = divergence(leray_project(f))
        assert np.abs(div).max() <= 1e-12 * np.abs(f.c).max()


class TestDilatePad:
    def test_dilate_moves_modes(self, g3):
        f = single_mode_field(g3, (1, 2, 0), np.array([1.0, 0.5j, 0]))
        d = dilate(f, 2)
        np.testing.assert_allclose(coeff_at(d, (2, 4, 0)), coeff_at(f, (1, 2, 0)), rtol=1e-15)
        with pytest.raises(ValueError):
            dilate(f, 5)  # 5*2 = 10 > n/2 escapes the 16-lattice

    def test_spectral_pad_preserves_values(self, g3):
        fine = GridSpec.create(3, 32)
        f = random_field(g3, 1, 5, seed=19, divfree=False)
        padded = spectral_pad(g3, f.c, fine)
        coarse_phys = f.to_physical()
        fine_phys = to_physical(fine, padded)
        # physical values agree on the coarse collocation points
        assert np.abs(fine_phys[:, ::2, ::2, ::2] - coarse_phys).max() < 1e-13
