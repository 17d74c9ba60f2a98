"""Linear spectral operators: fractional derivatives, curls, Leray
projection, curl inverse, frequency filters, dealiasing.

Every operator here is a homogeneous Fourier multiplier (symbol 0 at
k = 0), acting mode-by-mode on the stored half-spectrum.  Scalar fields
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
    "curl2",
    "curl_inverse",
    "leray_project",
    "band_filter",
    "dealias",
    "divergence",
    "gradient",
    "laplacian",
    "zero_mean",
    "dilate",
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


# curls ----------------------------------------------------------------

def curl3(f: SpectralField) -> SpectralField:
    """ik x (.) on a 3D field."""
    g = f.grid
    if g.dim != 3:
        raise ValueError("curl3 needs a 3D grid")
    k1, k2, k3 = g.kvec
    c = f.c
    out = np.empty_like(c)
    out[0] = 1j * (k2 * c[2] - k3 * c[1])
    out[1] = 1j * (k3 * c[0] - k1 * c[2])
    out[2] = 1j * (k1 * c[1] - k2 * c[0])
    return SpectralField(g, out)


def curl2(f: SpectralField) -> SpectralField:
    """Two-variable curl of a three-component field:
    (d2 f3, -d1 f3, d1 f2 - d2 f1)."""
    g = f.grid
    if g.dim != 2:
        raise ValueError("curl2 needs a 2D grid")
    k1, k2 = g.kvec
    c = f.c
    out = np.empty_like(c)
    out[0] = 1j * k2 * c[2]
    out[1] = -1j * k1 * c[2]
    out[2] = 1j * (k1 * c[1] - k2 * c[0])
    return SpectralField(g, out)


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


def dealias(f: SpectralField) -> SpectralField:
    """Two-thirds rule: zero every mode with any |k_i| > n/3."""
    return f.with_coeffs(f.c * f.grid.dealias_mask)


def zero_mean(f: SpectralField) -> SpectralField:
    c = f.c.copy()
    c[(slice(None),) + (0,) * f.grid.dim] = 0.0
    return f.with_coeffs(c)


# scalar calculus --------------------------------------------------------

def divergence(f: SpectralField) -> np.ndarray:
    """ik . f_hat as a scalar coefficient array.  In 2.5D only the first
    two components enter (tilde divergence)."""
    g = f.grid
    return sum(1j * g.kvec[i] * f.c[i] for i in range(g.dim))


def gradient(grid: GridSpec, c: np.ndarray) -> SpectralField:
    """ik f_hat of a scalar; in 2.5D the third component is zero."""
    out = np.zeros((3,) + grid.spectral_shape, dtype=np.complex128)
    for i in range(grid.dim):
        out[i] = 1j * grid.kvec[i] * c
    return SpectralField(grid, out)


def laplacian(f: SpectralField) -> SpectralField:
    return f.with_coeffs(f.c * (-f.grid.k2))


# lattice rescaling ------------------------------------------------------

def dilate(f: SpectralField, lam: int) -> SpectralField:
    """Spatial dilation x -> lam*x: mode k moves to lam*k (integer lam,
    so the torus maps to itself).  Input support must fit the lattice."""
    if int(lam) != lam or lam < 1:
        raise ValueError(f"dilation factor must be a positive integer, got {lam}")
    lam = int(lam)
    if lam == 1:
        return f.copy()
    g = f.grid
    n = g.n
    out = np.zeros_like(f.c)
    nz = np.argwhere(np.abs(f.c).max(axis=0) > 0)
    for idx in nz:
        k = [int(i) if ax == g.dim - 1 or i < n // 2 else int(i) - n
             for ax, i in enumerate(idx)]
        kk = [lam * ki for ki in k]
        if any(not (-n // 2 < ki < n // 2) for ki in kk[:-1]) or kk[-1] >= n // 2:
            raise ValueError(f"dilated mode {tuple(kk)} escapes the lattice (n={n})")
        tgt = tuple(ki % n for ki in kk[:-1]) + (kk[-1],)
        out[(slice(None),) + tgt] = f.c[(slice(None),) + tuple(idx)]
    return f.with_coeffs(out)


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
