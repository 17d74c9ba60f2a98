"""Spectral operators: fractional derivatives, the curl, the advection,
Leray projection, curl inverse, frequency filters, gradients, padding.

Every linear operator here is a homogeneous Fourier multiplier (symbol 0
at k = 0), acting mode-by-mode on the stored half-spectrum; a 2D grid is
a 3D grid with k3 = 0, as in the stepper (solver3d).  Scalar fields
are plain coefficient arrays of grid.spectral_shape; vector fields are
SpectralField.  Transforms use the forward-normalized DFT throughout.
"""

from __future__ import annotations

import numpy as np

from .fields import SpectralField, to_physical, to_spectral
from .grid import GridSpec

__all__ = [
    "to_spectral",
    "to_physical",
    "k2_power",
    "apply_lambda",
    "apply_lambda_scalar",
    "curl3",
    "advect",
    "curl_inverse",
    "leray_project",
    "band_filter",
    "gradient",
    "zero_mean",
    "spectral_pad",
]

# fractional derivative ------------------------------------------------

def k2_power(k2: np.ndarray, p: float) -> np.ndarray:
    """The Fourier symbol (|k|^2)^p, 0 at k = 0: |k|^(2s) weights the
    homogeneous H^s norm (p = s), Lambda^s multiplies by p = s/2.  k2 is
    any array of squared wavenumbers (full lattice or a compact band)."""
    with np.errstate(divide="ignore"):
        sym = np.where(k2 > 0, k2, 1.0) ** p
    sym[k2 == 0] = 0.0
    return sym


def _check_mean_free(grid: GridSpec, c: np.ndarray, what: str) -> None:
    mean = float(np.abs(c[(Ellipsis,) + (0,) * grid.dim]).max())
    scale = float(np.abs(c).max()) or 1.0
    if mean > 1e-13 * scale:
        raise ValueError(f"{what} requires a mean-free field (|k=0 mode| = {mean:.3e})")


def apply_lambda_scalar(grid: GridSpec, c: np.ndarray, s: float) -> np.ndarray:
    if s == 0:
        return c.copy()
    if s < 0:
        _check_mean_free(grid, c, "Lambda^s with s < 0")
    return c * k2_power(grid.k2, 0.5 * s)


def apply_lambda(f: SpectralField, s: float) -> SpectralField:
    """|k|^s multiplier; the k = 0 coefficient stays zero."""
    return f.with_coeffs(apply_lambda_scalar(f.grid, f.c, s))


# curl and advection ---------------------------------------------------

def curl3(f: SpectralField) -> SpectralField:
    """ik x (.); a 2D grid is a 3D grid with k3 = 0, so there it is the
    two-variable curl (d2 f3, -d1 f3, d1 f2 - d2 f1)."""
    g = f.grid
    k1, k2, k3 = g.kvec if g.dim == 3 else (*g.kvec, 0.0)
    c = f.c
    out = np.empty_like(c)
    out[0] = 1j * (k2 * c[2] - k3 * c[1])
    out[1] = 1j * (k3 * c[0] - k1 * c[2])
    out[2] = 1j * (k1 * c[1] - k2 * c[0])
    return SpectralField(g, out)


def advect(grid: GridSpec, ap: np.ndarray, bp: np.ndarray) -> np.ndarray:
    """(a . grad) b as div(b (x) a), valid for div a = 0; on a 2D grid
    (k3 = 0) the two-variable advection.  ap, bp are physical
    (3, *physical_shape) arrays; returns spectral coefficients.  The
    grid.dim x 3 products a_i b_j go through one batched transform."""
    prod = to_spectral(grid, ap[: grid.dim, None] * bp[None])
    acc = grid.kvec[0] * prod[0]
    for k, p in zip(grid.kvec[1:], prod[1:]):
        acc += k * p
    return 1j * acc


def curl_inverse(f: SpectralField) -> SpectralField:
    """B_hat(k) = i k x J_hat(k) / |k|^2 (3D, mean mode excluded)."""
    g = f.grid
    if g.dim != 3:
        raise ValueError("curl_inverse needs a 3D grid")
    _check_mean_free(g, f.c, "curl_inverse")
    rot = curl3(f)
    return rot.with_coeffs(rot.c * g.inv_k2)


# projection and filters ------------------------------------------------

def leray_project(f: SpectralField) -> SpectralField:
    """I - kk*/|k|^2 per mode.  On a 2D grid only the first two components
    are projected (the 2.5D pressure gradient has no third component).
    The mean mode is zeroed (homogeneous multiplier convention)."""
    g = f.grid
    kdotf = sum(g.kvec[i] * f.c[i] for i in range(g.dim)) * g.inv_k2
    out = f.c.copy()
    for i in range(g.dim):
        out[i] -= g.kvec[i] * kdotf
    out[(slice(None),) + (0,) * g.dim] = 0.0
    return SpectralField(g, out)


def band_filter(f: SpectralField, lo: float, hi: float) -> SpectralField:
    """Keep modes with lo <= |k| <= hi (boundary inclusive); lo = 0 keeps
    the ball, hi = inf the full spectrum."""
    if lo < 0 or lo > hi:
        raise ValueError(f"need 0 <= lo <= hi, got lo={lo}, hi={hi}")
    g = f.grid
    keep = (g.kabs >= lo - 1e-12) & (g.kabs <= hi * (1 + 1e-15) + 1e-12)
    return f.with_coeffs(f.c * keep)


def zero_mean(f: SpectralField) -> SpectralField:
    c = f.c.copy()
    c[(slice(None),) + (0,) * f.grid.dim] = 0.0
    return f.with_coeffs(c)


# scalar calculus --------------------------------------------------------

def gradient(grid: GridSpec, c: np.ndarray) -> SpectralField:
    """ik f_hat of a scalar; in 2.5D the third component is zero."""
    out = np.zeros((3,) + grid.spectral_shape, dtype=np.complex128)
    for i in range(grid.dim):
        out[i] = 1j * grid.kvec[i] * c
    return SpectralField(grid, out)


# lattice rescaling ------------------------------------------------------

def spectral_pad(grid: GridSpec, c: np.ndarray, fine: GridSpec) -> np.ndarray:
    """Zero-pad stored coefficients onto a finer grid (same dim, larger n).
    Nyquist content on full axes is dropped (evolved fields never carry it)."""
    if fine.dim != grid.dim or fine.n < grid.n:
        raise ValueError("target grid must match dim and be at least as fine")
    n, m = grid.n, fine.n
    out = np.zeros(c.shape[: -grid.dim] + fine.spectral_shape, dtype=np.complex128)
    pos = n // 2  # positive modes 0..n/2-1; source Nyquist plane is dropped

    def copy_blocks(ax: int, src_idx: tuple, dst_idx: tuple) -> None:
        if ax == grid.dim - 1:
            out[dst_idx + (slice(0, pos),)] = c[src_idx + (slice(0, pos),)]
            return
        copy_blocks(ax + 1, src_idx + (slice(0, pos),), dst_idx + (slice(0, pos),))
        copy_blocks(ax + 1, src_idx + (slice(pos + 1, n),), dst_idx + (slice(m - n + pos + 1, m),))

    lead = tuple(slice(None) for _ in range(c.ndim - grid.dim))
    copy_blocks(0, lead, lead)
    return out
