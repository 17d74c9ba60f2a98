"""Inequality probes: closed-form single-mode ratios, stability, guards."""

import math

import numpy as np
import pytest

from hallmhd.grid import GridSpec
from hallmhd.norms import hs_norm_scalar, lp_norm_scalar
from hallmhd.probes import (
    ProbeReport,
    inequality_probe,
    kato_ponce_probe,
    registered_inequalities,
)
from hallmhd.sampling import single_mode_field


class TestInequalityProbe:
    def test_unknown_id(self):
        with pytest.raises(ValueError):
            inequality_probe("not-an-inequality", 3, 32)

    def test_single_mode_embedding_constant(self):
        """One cosine mode: the L^3 / H^{1/2} ratio has the closed form
        (4 / 3 pi)^{1/3} / (1 / sqrt 2), independent of the seed."""
        g = GridSpec.create(3, 32)
        f = single_mode_field(g, (1, 0, 0), np.array([0.5, 0.0, 0.0]))
        ratio = lp_norm_scalar(g, f.c[0], 3.0) / hs_norm_scalar(g, f.c[0], 0.5)
        exact = (4 / (3 * math.pi)) ** (1 / 3) * math.sqrt(2)
        assert ratio == pytest.approx(exact, rel=1e-6)

    def test_seeded_determinism(self):
        a = inequality_probe("em", 5, 32, seed=3)
        b = inequality_probe("em", 5, 32, seed=3)
        assert a.ratios == b.ratios

    def test_resolution_stability(self):
        lo = inequality_probe("gn1", 10, 32, seed=0)
        hi = inequality_probe("gn1", 10, 64, seed=0)
        top = max(lo.max_ratio, hi.max_ratio)
        bot = min(lo.max_ratio, hi.max_ratio)
        assert np.isfinite(top) and top / bot <= 2.0

    def test_report_csv(self, tmp_path):
        rep = inequality_probe("em", 4, 32, seed=1)
        path = tmp_path / "probe.csv"
        rep.write_csv(path)
        lines = path.read_text().splitlines()
        assert lines[0] == "inequality_id,sample_index,ratio"
        assert len(lines) == 2 + len(rep.ratios)
        assert lines[-1].startswith("em,max,")

    def test_all_registered_run(self):
        for iid in registered_inequalities():
            rep = inequality_probe(iid, 2, 32, seed=5)
            assert isinstance(rep, ProbeReport)
            assert np.isfinite(rep.max_ratio)


class TestKatoPonce:
    def test_exponent_relation_enforced(self):
        with pytest.raises(ValueError):
            kato_ponce_probe(1.0, 2.0, 3.0, 4.0, 4.0, 4.0, samples=1)
        with pytest.raises(ValueError):
            kato_ponce_probe(1.0, 2.0, np.inf, 2.0, 4.0, 4.0, samples=1)
        with pytest.raises(ValueError):
            kato_ponce_probe(-1.0, 2.0, 4.0, 4.0, 4.0, 4.0, samples=1)

    @pytest.mark.parametrize("samples", [0, -1])
    def test_no_samples_rejected(self, samples):
        """A probe over no samples would report max ratio 0.0, a pass on
        nothing."""
        with pytest.raises(ValueError, match="at least one sample"):
            kato_ponce_probe(1.0, 2.0, 4.0, 4.0, 4.0, 4.0, samples=samples)

    def test_symmetric_case_finite(self):
        rep = kato_ponce_probe(1.0, 2.0, 4.0, 4.0, 4.0, 4.0, samples=4, resolution=32)
        assert 0 < rep["commutator"].max_ratio < 10
        assert 0 < rep["product"].max_ratio < 10

    def test_two_mode_commutator_closed_form(self):
        """f = cos(x1), g = cos(2 x1), s = 2: the commutator of the squared
        Laplacian magnitude has an exactly computable spectral form."""
        g = GridSpec.create(3, 32)
        x = g.coordinates()[0]
        import scipy.fft as sfft

        f = sfft.rfftn(np.cos(x), norm="forward")
        h = sfft.rfftn(np.cos(2 * x), norm="forward")
        from hallmhd.operators import apply_lambda_scalar, to_physical, to_spectral

        s = 2.0
        fg = to_spectral(g, to_physical(g, f) * to_physical(g, h))
        comm = apply_lambda_scalar(g, fg, s) - to_spectral(
            g, to_physical(g, f) * to_physical(g, apply_lambda_scalar(g, h, s)))
        # fg = (cos x + cos 3x)/2; Lambda^2 fg = (cos x + 9 cos 3x)/2
        # f Lambda^2 g = 4 cos x cos 2x = 2 (cos x + cos 3x)
        # commutator = (1/2 - 2) cos x + (9/2 - 2) cos 3x
        expect = to_spectral(g, (0.5 - 2.0) * np.cos(x) + (4.5 - 2.0) * np.cos(3 * x))
        assert np.abs(comm - expect).max() < 1e-13
