"""Grid geometry, field storage, and the forward/inverse transforms."""

import numpy as np
import pytest

from hallmhd.fields import SpectralField, conj_reflect
from hallmhd.grid import GridSpec
from hallmhd.norms import hs_norm
from hallmhd.operators import to_physical, to_spectral
from hallmhd.sampling import random_field

from oracle3d import coeff_at, mean_mode


class TestGridSpec:
    def test_rejects_odd_or_small_n(self):
        with pytest.raises(ValueError):
            GridSpec.create(3, 15)
        with pytest.raises(ValueError):
            GridSpec.create(3, 6)
        with pytest.raises(ValueError):
            GridSpec.create(4, 16)

    def test_one_read_only_grid_per_lattice(self):
        g = GridSpec.create(3, 16)
        assert GridSpec.create(3, 16) is g
        assert GridSpec.create(2, 16) is not g
        for a in (*g.kvec, g.k2, g.kabs, g.inv_k2, g.dealias_mask, g.pair_weight,
                  g.shell_radii):
            with pytest.raises(ValueError, match="read-only"):
                a[(0,) * a.ndim] = 0

    def test_dealias_mask_two_thirds(self):
        g = GridSpec.create(3, 32)
        cutoff = 32 / 3.0
        k1, k2, k3 = (np.broadcast_to(k, g.spectral_shape) for k in g.kvec)
        inside = (np.abs(k1) <= cutoff) & (np.abs(k2) <= cutoff) & (np.abs(k3) <= cutoff)
        assert np.array_equal(g.dealias_mask, inside)
        # Nyquist modes always excluded
        assert not g.dealias_mask[16, 0, 0]
        assert not g.dealias_mask[0, 0, 16]

    def test_pair_weight_counts_conjugates(self):
        g = GridSpec.create(3, 16)
        assert g.pair_weight[0, 0, 0] == 1.0
        assert g.pair_weight[2, 3, 0] == 1.0     # self-conjugate plane
        assert g.pair_weight[2, 3, 8] == 1.0     # Nyquist plane
        assert g.pair_weight[2, 3, 1] == 2.0
        # total mode count equals the full lattice
        assert g.pair_weight.sum() == 16**3

    def test_next_shell(self):
        g = GridSpec.create(3, 16)
        assert g.next_shell(1.0) == pytest.approx(np.sqrt(2.0))
        assert g.next_shell(1.5) == pytest.approx(np.sqrt(3.0))
        assert np.isinf(g.next_shell(1e9))

    def test_index_of_resolves_conjugates(self):
        g = GridSpec.create(3, 16)
        idx, conj = g.index_of((2, -3, 1))
        assert not conj and idx == (2, 13, 1)
        idx, conj = g.index_of((2, -3, -1))
        assert conj and idx == (14, 3, 1)
        with pytest.raises(ValueError):
            g.index_of((9, 0, 0))


class TestTransforms:
    def test_zero_field(self, g3):
        f = SpectralField.from_physical(g3, np.zeros((3,) + g3.physical_shape))
        assert np.all(f.c == 0)

    def test_cosine_matches_direct_dft(self, g3, coords3):
        """Closed-form DFT of a single mode, verified by direct summation."""
        X = coords3[0]
        vals = np.stack([np.cos(X), np.zeros_like(X), np.zeros_like(X)])
        f = SpectralField.from_physical(g3, vals)
        # direct O(N) summation at k = (1,0,0) for component 0
        n = g3.n
        phases = np.exp(-1j * X)
        direct = np.sum(vals[0] * phases) / n**3
        assert abs(direct - 0.5) < 1e-13
        np.testing.assert_allclose(coeff_at(f, (1, 0, 0)), [0.5, 0, 0], atol=1e-13)
        np.testing.assert_allclose(coeff_at(f, (-1, 0, 0)), [0.5, 0, 0], atol=1e-13)
        # all other coefficients vanish
        c = f.c.copy()
        c[0][g3.index_of((1, 0, 0))[0]] = 0.0
        c[0][g3.index_of((-1, 0, 0))[0]] = 0.0
        assert np.abs(c).max() < 1e-13

    def test_roundtrip_random(self, g3):
        rng = np.random.default_rng(11)
        vals = rng.standard_normal((3,) + g3.physical_shape)
        back = to_physical(g3, to_spectral(g3, vals))
        assert np.abs(back - vals).max() <= 1e-13 * np.abs(vals).max()

    def test_shape_errors(self, g3):
        with pytest.raises(ValueError):
            to_spectral(g3, np.zeros((3, 8, 8, 8)))
        with pytest.raises(ValueError):
            to_physical(g3, np.zeros((3, 8, 8, 5), dtype=complex))
        with pytest.raises(ValueError):
            SpectralField(g3, np.zeros((2,) + g3.spectral_shape, dtype=complex))


class TestFieldInvariants:
    def test_hermitian_symmetry_planes(self, g3):
        f = random_field(g3, 1, 5, seed=4, divfree=False)
        for plane in (0, g3.n // 2):
            pl = f.c[..., plane]
            assert np.abs(pl - conj_reflect(g3, pl)).max() < 1e-14

    def test_physical_values_real(self, g3):
        f = random_field(g3, 1, 5, seed=5)
        vals = f.to_physical()
        assert vals.dtype == np.float64
        back = SpectralField.from_physical(g3, vals)
        assert np.abs(back.c - f.c).max() < 1e-14

    def test_divergence_residual(self, g3):
        f = random_field(g3, 1, 5, seed=6, divfree=True)
        assert f.divergence_residual() < 1e-12
        g = random_field(g3, 1, 5, seed=7, divfree=False)
        assert g.divergence_residual() > 1e-3

    def test_mean_mode_zero(self, g3):
        f = random_field(g3, 1, 5, seed=8)
        assert np.abs(mean_mode(f)).max() == 0.0

    def test_plancherel(self, g3):
        f = random_field(g3, 1, 6, seed=9, divfree=False)
        vals = f.to_physical()
        grid_avg = float(np.mean(np.sum(vals**2, axis=0)))
        assert abs(grid_avg - hs_norm(f, 0.0) ** 2) <= 1e-12 * grid_avg

    def test_arithmetic(self, g3):
        a = random_field(g3, 1, 5, seed=10)
        b = random_field(g3, 1, 5, seed=11)
        s = a + b - 0.5 * b
        assert np.abs(s.c - (a.c + 0.5 * b.c)).max() < 1e-15
        assert (-a).c[0, 1, 2, 3] == -a.c[0, 1, 2, 3]
