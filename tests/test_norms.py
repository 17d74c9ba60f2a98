"""Sobolev/Lebesgue norms and the interpolation identity."""

import math

import numpy as np
import pytest

from hallmhd.fields import SpectralField
from hallmhd.norms import (
    hs_norm,
    inhomogeneous_hs_norm,
    interpolation_check,
    lp_norm,
    lp_norm_scalar,
)
from hallmhd.sampling import random_field, single_mode_field


class TestHsNorm:
    def test_zero_field(self, g3):
        z = SpectralField.zeros(g3)
        for s in (-1.0, 0.0, 0.5, 2.0):
            assert hs_norm(z, s) == 0.0

    def test_cosine_all_orders(self, g3, coords3):
        X = coords3[0]
        f = SpectralField.from_physical(
            g3, np.stack([np.cos(X), np.zeros_like(X), np.zeros_like(X)]))
        for s in (-0.5, 0.0, 0.5, 1.5, 3.0):
            assert hs_norm(f, s) == pytest.approx(1 / math.sqrt(2), rel=1e-13)

    def test_homogeneity_and_triangle(self, g3):
        a = random_field(g3, 1, 5, seed=1)
        b = random_field(g3, 1, 5, seed=2)
        for s in (0.0, 0.5, 1.5):
            assert hs_norm(3.5 * a, s) == pytest.approx(3.5 * hs_norm(a, s), rel=1e-13)
            assert hs_norm(a + b, s) <= hs_norm(a, s) + hs_norm(b, s) + 1e-13

    def test_negative_order_needs_mean_free(self, g3):
        c = np.zeros((3,) + g3.spectral_shape, dtype=complex)
        c[(0,) + (0,) * 3] = 2.0
        with pytest.raises(ValueError):
            hs_norm(SpectralField(g3, c), -1.0)

    def test_nonfinite_rejected(self, g3):
        c = np.zeros((3,) + g3.spectral_shape, dtype=complex)
        c[0, 1, 0, 0] = np.nan
        with pytest.raises(FloatingPointError):
            hs_norm(SpectralField(g3, c), 0.0)

    def test_inhomogeneous_single_mode(self, g3):
        f = single_mode_field(g3, (2, 1, 0), np.array([0.5, 0, 0]))
        # two conjugate modes with |k|^2 = 5
        expected = math.sqrt(2 * 0.25 * (1 + 5.0) ** 1.0)
        assert inhomogeneous_hs_norm(f, 1.0) == pytest.approx(expected, rel=1e-13)


class TestLpNorm:
    def test_cosine_closed_forms(self, g3, coords3):
        """Quadrature against exact moments of |cos| on the torus."""
        X = coords3[0]
        f = np.stack([np.cos(X), np.zeros_like(X), np.zeros_like(X)])
        fld = SpectralField.from_physical(g3, f)
        # mean |cos|^4 = 3/8 (polynomial in cos: quadrature is exact);
        # mean |cos|^3 = 4/(3 pi) (non-smooth |.|^3: small quadrature error)
        assert lp_norm(fld, 4.0) == pytest.approx((3 / 8) ** 0.25, rel=1e-12)
        assert lp_norm_scalar(g3, fld.c[0], 3.0) == pytest.approx(
            (4 / (3 * math.pi)) ** (1 / 3), rel=2e-5)
        assert lp_norm(fld, np.inf) == pytest.approx(1.0, rel=1e-12)

    def test_p2_is_plancherel(self, g3):
        f = random_field(g3, 1, 4, seed=3)
        assert lp_norm(f, 2.0) == pytest.approx(hs_norm(f, 0.0), rel=1e-12)

    def test_p_below_one_rejected(self, g3):
        f = random_field(g3, 1, 4, seed=4)
        with pytest.raises(ValueError):
            lp_norm(f, 0.5)


class TestInterpolation:
    def test_theta_zero_equality(self, g3):
        f = random_field(g3, 1, 5, seed=5)
        r = interpolation_check(f, 0.3, 1.7, 0.0)
        assert r["lhs"] == pytest.approx(r["rhs"], rel=1e-13)
        assert r["holds"]

    def test_single_mode_equality_any_theta(self, g3):
        f = single_mode_field(g3, (2, 1, 0), np.array([0.4, 0.1, 0.0]))
        for theta in (0.2, 0.5, 0.9):
            r = interpolation_check(f, 0.0, 2.0, theta)
            assert r["lhs"] == pytest.approx(r["rhs"], rel=1e-12)

    def test_two_shell_strict_inequality(self, g3):
        f = (single_mode_field(g3, (1, 0, 0), np.array([1.0, 0, 0]))
             + single_mode_field(g3, (4, 0, 0), np.array([1.0, 0, 0])))
        r = interpolation_check(f, 0.0, 1.0, 0.5)
        assert r["holds"] and r["lhs"] < r["rhs"] * (1 - 1e-6)

    def test_holds_on_random_fields(self, g3):
        for seed in range(20):
            f = random_field(g3, 1, 6, seed=seed, divfree=False)
            assert interpolation_check(f, 0.0, 1.5, 0.4)["holds"]

    def test_theta_out_of_range(self, g3):
        f = random_field(g3, 1, 4, seed=6)
        with pytest.raises(ValueError):
            interpolation_check(f, 0.0, 1.0, 1.5)
