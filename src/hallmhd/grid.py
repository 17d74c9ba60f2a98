"""Periodic Fourier grid: wavevector lattice, dealias mask, shell geometry.

The domain is the torus [0, 2pi)^d with d in {2, 3} and n collocation
points per axis, so wavevectors are integer lattice vectors k with
k_i in [-n/2, n/2).  Spectra are stored in real-FFT layout: the last
axis keeps only k_d in [0, n/2] and the missing modes are the complex
conjugates of stored ones.  ``pair_weight`` carries the resulting
multiplicity (2 on duplicated modes, 1 on the self-conjugate planes)
so that mode sums over the stored lattice equal full-lattice sums.

GridSpec.create keeps one grid per lattice (dim, n), the 8 most recently
asked for, with its arrays read-only: every caller of a lattice shares
the one grid, and so the stepper that solver3d.get_stepper keys on it.
"""

from __future__ import annotations

from dataclasses import dataclass, field
from functools import lru_cache

import numpy as np

__all__ = ["GridSpec"]


@dataclass(frozen=True, eq=False)
class GridSpec:
    """Geometry of one periodic spectral grid (immutable, read-only arrays)."""

    dim: int
    n: int
    kvec: tuple[np.ndarray, ...] = field(repr=False, default=())
    k2: np.ndarray = field(repr=False, default=None)
    kabs: np.ndarray = field(repr=False, default=None)
    inv_k2: np.ndarray = field(repr=False, default=None)
    dealias_mask: np.ndarray = field(repr=False, default=None)
    pair_weight: np.ndarray = field(repr=False, default=None)
    shell_radii: np.ndarray = field(repr=False, default=None)

    @classmethod
    @lru_cache(maxsize=8)
    def create(cls, dim: int, n: int) -> "GridSpec":
        if dim not in (2, 3):
            raise ValueError(f"dim must be 2 or 3, got {dim}")
        if n < 8 or n % 2 != 0:
            raise ValueError(f"n must be even and >= 8, got {n}")

        # Integer wavenumbers; full axes use fft order, last axis is reduced.
        full = np.fft.fftfreq(n, d=1.0 / n)
        half = np.fft.rfftfreq(n, d=1.0 / n)
        axes = [full] * (dim - 1) + [half]
        kvec = []
        for i, ax in enumerate(axes):
            shape = [1] * dim
            shape[i] = len(ax)
            kvec.append(ax.reshape(shape))
        k2 = sum(k * k for k in kvec)
        kabs = np.sqrt(k2)
        inv_k2 = np.zeros_like(k2)
        np.divide(1.0, k2, out=inv_k2, where=k2 > 0)

        cutoff = n / 3.0
        mask = np.ones(k2.shape, dtype=bool)
        for k in kvec:
            mask &= np.abs(k) <= cutoff

        # Conjugate-pair multiplicity: stored k_last in (0, n/2) stands for
        # both +-k; k_last in {0, n/2} planes are stored in full.
        klast = kvec[-1]
        weight = np.where((klast > 0) & (klast < n // 2), 2.0, 1.0)
        weight = np.broadcast_to(weight, k2.shape).copy()

        shells = np.unique(k2.round().astype(np.int64))
        shell_radii = np.sqrt(shells.astype(np.float64))
        for a in (*kvec, k2, kabs, inv_k2, mask, weight, shell_radii):
            a.flags.writeable = False  # the grid is shared by every caller

        return cls(
            dim=dim,
            n=n,
            kvec=tuple(kvec),
            k2=k2,
            kabs=kabs,
            inv_k2=inv_k2,
            dealias_mask=mask,
            pair_weight=weight,
            shell_radii=shell_radii,
        )

    @property
    def spectral_shape(self) -> tuple[int, ...]:
        return (self.n,) * (self.dim - 1) + (self.n // 2 + 1,)

    @property
    def physical_shape(self) -> tuple[int, ...]:
        return (self.n,) * self.dim

    @property
    def fft_axes(self) -> tuple[int, ...]:
        """Trailing array axes that carry the grid (leading axes batch)."""
        return tuple(range(-self.dim, 0))

    @property
    def k_cutoff(self) -> float:
        """Largest |k| surviving the two-thirds dealias mask."""
        return float(np.sqrt(self.dim) * np.floor(self.n / 3.0))

    def coordinates(self) -> tuple[np.ndarray, ...]:
        """Collocation coordinates, meshgrid arrays of physical shape."""
        x = np.arange(self.n) * (2.0 * np.pi / self.n)
        return tuple(np.meshgrid(*([x] * self.dim), indexing="ij"))

    def next_shell(self, rho: float) -> float:
        """Smallest representable |k| strictly greater than rho (inf if none)."""
        above = self.shell_radii[self.shell_radii > rho + 1e-12]
        return float(above[0]) if above.size else np.inf

    def index_of(self, k: tuple[int, ...]) -> tuple[tuple[int, ...], bool]:
        """Stored index of wavevector k; second value is True if the stored
        coefficient is the conjugate of the one requested."""
        if len(k) != self.dim:
            raise ValueError(f"wavevector must have {self.dim} entries")
        n = self.n
        kk = [int(ki) for ki in k]
        if any(ki < -n // 2 or ki > n // 2 for ki in kk):
            raise ValueError(f"wavevector {k} outside the lattice for n={n}")
        conj = kk[-1] < 0
        if conj:
            kk = [-ki for ki in kk]
        idx = tuple(ki % n for ki in kk[:-1]) + (kk[-1],)
        return idx, conj
