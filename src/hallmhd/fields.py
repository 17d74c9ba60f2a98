"""Spectral vector fields: the representation of u, B, v, J, j, omega, E.

A field is three components of Fourier coefficients over one grid
(2.5D fields keep three components over a 2D lattice).  Coefficients
follow the forward-normalized DFT, u_hat(k) = N^-d sum_j u(x_j) e^{-ik.x_j},
stored in real-FFT layout.  Evolved fields are mean-free and
divergence-free: in 3D the full k.u_hat = 0, in 2.5D only the first two
components enter ("tilde" divergence).
"""

from __future__ import annotations

from dataclasses import dataclass, replace

import numpy as np

from .grid import GridSpec

__all__ = [
    "SpectralField",
    "to_spectral",
    "to_physical",
    "conj_reflect",
    "hermitianize_plane",
    "pairing",
    "l2_inner",
]


# transforms: scipy.fft is imported on the first call, so a 3D run that
# makes no full-lattice transform loads no SciPy (the stepper uses
# numpy.fft); rfftn/irfftn are looked up at call time, so they can be
# wrapped from outside, e.g. to count transforms ------------------------

def to_spectral(grid: GridSpec, values: np.ndarray) -> np.ndarray:
    """Forward DFT, u_hat(k) = N^-d sum_j u(x_j) e^{-ik.x_j}, over the
    trailing grid.dim axes; accepts any leading batch axes."""
    values = np.asarray(values)
    if values.shape[-grid.dim:] != grid.physical_shape:
        raise ValueError(f"trailing shape {values.shape[-grid.dim:]} != {grid.physical_shape}")
    import scipy.fft as sfft

    return sfft.rfftn(values, axes=grid.fft_axes, norm="forward")


def to_physical(grid: GridSpec, coeffs: np.ndarray) -> np.ndarray:
    """Inverse of to_spectral on band-limited data."""
    coeffs = np.asarray(coeffs)
    if coeffs.shape[-grid.dim:] != grid.spectral_shape:
        raise ValueError(f"trailing shape {coeffs.shape[-grid.dim:]} != {grid.spectral_shape}")
    import scipy.fft as sfft

    return sfft.irfftn(coeffs, s=grid.physical_shape, axes=grid.fft_axes, norm="forward")


@dataclass(frozen=True, eq=False)
class SpectralField:
    """Three-component vector field stored as spectral coefficients."""

    grid: GridSpec
    c: np.ndarray  # complex128, shape (3, *grid.spectral_shape)

    def __post_init__(self):
        expected = (3,) + self.grid.spectral_shape
        if self.c.shape != expected:
            raise ValueError(f"coefficient shape {self.c.shape} != {expected}")

    @classmethod
    def zeros(cls, grid: GridSpec) -> "SpectralField":
        return cls(grid, np.zeros((3,) + grid.spectral_shape, dtype=np.complex128))

    @classmethod
    def from_physical(cls, grid: GridSpec, values: np.ndarray) -> "SpectralField":
        values = np.asarray(values, dtype=np.float64)
        if values.shape != (3,) + grid.physical_shape:
            raise ValueError(f"physical shape {values.shape} != {(3,) + grid.physical_shape}")
        return cls(grid, to_spectral(grid, values))

    def to_physical(self) -> np.ndarray:
        return to_physical(self.grid, self.c)

    def with_coeffs(self, c: np.ndarray) -> "SpectralField":
        return replace(self, c=c)

    def divergence_residual(self) -> float:
        """max_k |k.c(k)| / ||c||, using the first two components in 2.5D."""
        g = self.grid
        div = sum(1j * g.kvec[i] * self.c[i] for i in range(g.dim))
        scale = np.sqrt(float(np.sum(g.pair_weight * (self.c.real**2 + self.c.imag**2))))
        if scale == 0.0:
            return 0.0
        return float(np.max(np.abs(div))) / scale

    # arithmetic (fields on the same grid)
    def __add__(self, other: "SpectralField") -> "SpectralField":
        return SpectralField(self.grid, self.c + other.c)

    def __sub__(self, other: "SpectralField") -> "SpectralField":
        return SpectralField(self.grid, self.c - other.c)

    def __mul__(self, a: float) -> "SpectralField":
        return SpectralField(self.grid, self.c * a)

    __rmul__ = __mul__

    def __neg__(self) -> "SpectralField":
        return SpectralField(self.grid, -self.c)


def conj_reflect(grid: GridSpec, plane: np.ndarray) -> np.ndarray:
    """conj(X(-k)) over the trailing grid.dim-1 full axes (index i -> -i mod n)."""
    axes = tuple(range(plane.ndim - (grid.dim - 1), plane.ndim))
    out = np.conj(plane)
    for ax in axes:
        out = np.roll(np.flip(out, axis=ax), 1, axis=ax)
    return out


def hermitianize_plane(grid: GridSpec, c: np.ndarray) -> np.ndarray:
    """Project the self-conjugate planes (k_last = 0 and Nyquist) of stored
    rfft coefficients onto Hermitian symmetry; other modes are untouched."""
    c = c.copy()
    for plane_idx in (0, grid.n // 2):
        sl = (..., plane_idx)
        plane = c[sl]
        c[sl] = 0.5 * (plane + conj_reflect(grid, plane))
    return c


def pairing(grid: GridSpec, a: np.ndarray, b: np.ndarray) -> float:
    """Real L2 pairing of coefficient arrays (any matching leading shape)
    under the mean-normalized measure."""
    return float(np.sum(grid.pair_weight * (a.real * b.real + a.imag * b.imag)))


def l2_inner(f: SpectralField, g: SpectralField) -> float:
    """Real L2 inner product of two fields on one grid."""
    if f.grid is not g.grid and f.grid.spectral_shape != g.grid.spectral_shape:
        raise ValueError("fields live on different grids")
    return pairing(f.grid, f.c, g.c)
