"""Fractional Sobolev and Lebesgue norms.

Conventions: the L2 norm is the mean-normalized Plancherel sum,
||f||^2 = sum_k |f_hat(k)|^2 = grid average of |f|^2, and homogeneous
H^s sums exclude k = 0.  L^p norms for p != 2 are evaluated by
collocation quadrature on a 2x oversampled grid (trigonometric
quadrature is not exact for p != 2; oversampling keeps the error far
below probe tolerances).
"""

from __future__ import annotations

from functools import lru_cache

import numpy as np

from .fields import SpectralField
from .grid import GridSpec
from .operators import _check_mean_free, k2_power, spectral_pad, to_physical

__all__ = [
    "hs_norm",
    "hs_norm_scalar",
    "inhomogeneous_hs_norm",
    "lp_norm",
    "lp_norm_scalar",
    "interpolation_check",
]


def _mode_norm(grid: GridSpec, c: np.ndarray, w: np.ndarray) -> float:
    """sqrt(sum_k w(k) |c(k)|^2) over the stored lattice, summed over any
    leading component axes."""
    mag2 = c.real**2 + c.imag**2
    if c.ndim > grid.dim:
        mag2 = mag2.sum(axis=tuple(range(c.ndim - grid.dim)))
    return float(np.sqrt(np.sum(grid.pair_weight * w * mag2)))


def hs_norm_scalar(grid: GridSpec, c: np.ndarray, s: float) -> float:
    if not np.all(np.isfinite(c)):
        raise FloatingPointError("non-finite spectral coefficients")
    if s < 0:
        _check_mean_free(grid, c, "H^s norm with s < 0")
    return _mode_norm(grid, c, k2_power(grid.k2, s))


def hs_norm(f: SpectralField, s: float) -> float:
    """Homogeneous Sobolev norm (sum over all three components)."""
    return hs_norm_scalar(f.grid, f.c, s)


def inhomogeneous_hs_norm(f: SpectralField, s: float) -> float:
    """(1 + |k|^2)^{s/2} weighted norm, mean mode included."""
    return _mode_norm(f.grid, f.c, (1.0 + f.grid.k2) ** s)


@lru_cache(maxsize=8)
def _fine_grid(dim: int, n: int) -> GridSpec:
    return GridSpec.create(dim, n)


def _oversampled_values(grid: GridSpec, c: np.ndarray, oversample: int) -> np.ndarray:
    if oversample <= 1:
        return to_physical(grid, c)
    fine = _fine_grid(grid.dim, grid.n * oversample)
    return to_physical(fine, spectral_pad(grid, c, fine))


def _lp_of_magnitude(mag: np.ndarray, p: float) -> float:
    """Mean-measure L^p norm of nonnegative collocation values."""
    if p < 1:
        raise ValueError(f"L^p norm needs p >= 1, got {p}")
    if np.isinf(p):
        return float(mag.max())
    return float(np.mean(mag**p) ** (1.0 / p))


def lp_norm_scalar(grid: GridSpec, c: np.ndarray, p: float, oversample: int = 2) -> float:
    return _lp_of_magnitude(np.abs(_oversampled_values(grid, c, oversample)), p)


def lp_norm(f: SpectralField, p: float, oversample: int = 2) -> float:
    """L^p norm of the pointwise Euclidean magnitude, mean measure."""
    vals = _oversampled_values(f.grid, f.c, oversample)
    return _lp_of_magnitude(np.sqrt(np.sum(vals * vals, axis=0)), p)


def interpolation_check(f: SpectralField, s0: float, s1: float, theta: float) -> dict:
    """Log-convexity of H^s norms: ||f||_{H^s} <= ||f||_{H^s0}^{1-theta}
    ||f||_{H^s1}^theta at s = (1-theta) s0 + theta s1."""
    if not 0.0 <= theta <= 1.0:
        raise ValueError(f"theta must lie in [0, 1], got {theta}")
    s = (1.0 - theta) * s0 + theta * s1
    lhs = hs_norm(f, s)
    rhs = hs_norm(f, s0) ** (1.0 - theta) * hs_norm(f, s1) ** theta
    return {"s": s, "lhs": lhs, "rhs": rhs, "holds": lhs <= rhs * (1.0 + 1e-10)}
