"""Seeded random band-limited fields for probes, tests and initial data."""

from __future__ import annotations

import numpy as np

from .fields import SpectralField, hermitianize_plane
from .grid import GridSpec
from .operators import band_filter, leray_project, zero_mean

__all__ = ["random_field", "random_scalar", "single_mode_field"]


def _random_coeffs(grid: GridSpec, rng: np.random.Generator, ncomp: int) -> np.ndarray:
    shape = (ncomp,) + grid.spectral_shape
    c = rng.standard_normal(shape) + 1j * rng.standard_normal(shape)
    c = hermitianize_plane(grid, c)
    # no Nyquist content: reflected modes there are ambiguous under products
    for ax in range(grid.dim - 1):
        c[(slice(None),) + (slice(None),) * ax + (grid.n // 2,)] = 0.0
    c[..., -1] = 0.0
    return c


def random_field(
    grid: GridSpec,
    lo: float = 1.0,
    hi: float | None = None,
    seed: int = 0,
    divfree: bool = True,
) -> SpectralField:
    """Random real vector field with spectrum supported on lo <= |k| <= hi
    (hi defaults to the dealias cutoff).  Deterministic in the seed."""
    if hi is None:
        hi = grid.n / 3.0
    rng = np.random.default_rng(seed)
    f = SpectralField(grid, _random_coeffs(grid, rng, 3))
    f = band_filter(f, lo, hi)
    f = zero_mean(f)
    if divfree:
        f = leray_project(f)
    return f


def random_scalar(grid: GridSpec, lo: float = 1.0, hi: float | None = None, seed: int = 0) -> np.ndarray:
    """Random real scalar field, band-limited, mean-free."""
    if hi is None:
        hi = grid.n / 3.0
    rng = np.random.default_rng(seed)
    c = _random_coeffs(grid, rng, 1)[0]
    keep = (grid.kabs >= lo - 1e-12) & (grid.kabs <= hi + 1e-12)
    c *= keep
    c[(0,) * grid.dim] = 0.0
    return c


def single_mode_field(grid: GridSpec, k: tuple[int, ...], amplitude: np.ndarray) -> SpectralField:
    """Field with coefficient `amplitude` at wavevector k (conjugate mode
    implied), i.e. the real field 2 Re(a e^{ik.x})."""
    f = SpectralField.zeros(grid)
    c = f.c.copy()
    idx, conj = grid.index_of(k)
    a = np.asarray(amplitude, dtype=np.complex128)
    c[(slice(None),) + idx] = np.conj(a) if conj else a
    klast = k[-1]
    if klast == 0:
        midx, _ = grid.index_of(tuple(-ki for ki in k))
        c[(slice(None),) + midx] = np.conj(a) if not conj else a
    return f.with_coeffs(c)
