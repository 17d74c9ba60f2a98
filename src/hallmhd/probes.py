"""Empirical-constant probes for the embedding, Gagliardo-Nirenberg,
product-law and Kato-Ponce inequalities.

The inequalities hold with unquantified constants; each probe draws
seeded random band-limited fields, computes the ratio LHS / RHS with
the constant stripped, and reports the maximum.  Acceptance is
"finite and stable under resolution doubling", never a fixed constant.
Probe fields are band-limited to n/4 - 1 so quadratic products are
exactly representable; L^p norms use 2x-oversampled collocation.
"""

from __future__ import annotations

import csv
from dataclasses import dataclass, field

import numpy as np

from .grid import GridSpec
from .norms import _oversampled_values, hs_norm_scalar, lp_norm, lp_norm_scalar
from .operators import apply_lambda_scalar, gradient, to_physical, to_spectral
from .sampling import random_scalar

__all__ = ["ProbeReport", "inequality_probe", "kato_ponce_probe", "registered_inequalities"]


@dataclass
class ProbeReport:
    inequality_id: str
    samples: int
    resolution: int
    ratios: list[float] = field(default_factory=list)
    skipped: int = 0

    @property
    def max_ratio(self) -> float:
        return max(self.ratios, default=0.0)

    def write_csv(self, path) -> None:
        with open(path, "w", newline="") as fh:
            w = csv.writer(fh)
            w.writerow(["inequality_id", "sample_index", "ratio"])
            for i, r in enumerate(self.ratios):
                w.writerow([self.inequality_id, i, repr(float(r))])
            w.writerow([self.inequality_id, "max", repr(float(self.max_ratio))])


_PROBE_BAND = 7.0  # n-independent: resolution doubling then isolates quadrature


def _probe_grid(dim: int, n: int, samples: int) -> GridSpec:
    if samples < 1:
        raise ValueError("need at least one sample")
    if n < 32:
        raise ValueError("probe resolution must be >= 32")
    return GridSpec.create(dim, n)


def _probe_scalar(grid: GridSpec, seed: int) -> np.ndarray:
    """Random band-limited scalar with a seeded power-law spectral slope;
    the ensemble does not depend on the grid resolution."""
    c = random_scalar(grid, 1.0, _PROBE_BAND, seed=seed)
    gamma = float(np.random.default_rng(seed + 7919).uniform(0.0, 2.0))
    with np.errstate(divide="ignore"):
        envelope = np.where(grid.k2 > 0, grid.kabs, 1.0) ** (-gamma)
    return c * envelope


def _pair_product_l2(grid: GridSpec, a: np.ndarray, b: np.ndarray) -> float:
    """Exact ||ab||_L2 for band-limited a, b via 2x oversampling (the
    integrand (ab)^2 is then fully resolved)."""
    ap, bp = _oversampled_values(grid, np.stack([a, b]), 2)
    return float(np.sqrt(np.mean((ap * bp) ** 2)))


def _embedding(dim: int, s: float):
    p = 2.0 * dim / (dim - 2.0 * s)

    def ratio(grid: GridSpec, seed: int) -> float | None:
        c = _probe_scalar(grid, seed)
        rhs = hs_norm_scalar(grid, c, s)
        if rhs == 0.0:
            return None
        return lp_norm_scalar(grid, c, p) / rhs

    return dim, ratio


def _gn1(p: float):
    def ratio(grid: GridSpec, seed: int) -> float | None:
        c = _probe_scalar(grid, seed)
        l2 = hs_norm_scalar(grid, c, 0.0)
        h1 = hs_norm_scalar(grid, c, 1.0)
        if l2 == 0.0 or h1 == 0.0:
            return None
        return lp_norm_scalar(grid, c, p) / (l2 ** (2.0 / p) * h1 ** (1.0 - 2.0 / p))

    return 2, ratio


def _gn2(s: float, sp: float):
    theta = (1.5 - s) / (sp - s)

    def ratio(grid: GridSpec, seed: int) -> float | None:
        c = _probe_scalar(grid, seed)
        lo = hs_norm_scalar(grid, c, s)
        hi = hs_norm_scalar(grid, c, sp)
        if lo == 0.0 or hi == 0.0:
            return None
        return lp_norm_scalar(grid, c, np.inf) / (lo ** (1.0 - theta) * hi**theta)

    return 3, ratio


def _product_law():
    def ratio(grid: GridSpec, seed: int) -> float | None:
        a = _probe_scalar(grid, 2 * seed)
        b = _probe_scalar(grid, 2 * seed + 1)
        rhs = hs_norm_scalar(grid, a, 0.5) * hs_norm_scalar(grid, b, 1.0)
        if rhs == 0.0:
            return None
        return _pair_product_l2(grid, a, b) / rhs

    return 3, ratio


_REGISTRY = {
    "em": _embedding(3, 0.5),       # H^{1/2}(3D) -> L^3
    "em-s1": _embedding(3, 1.0),    # H^1(3D) -> L^6
    "em-2d": _embedding(2, 0.5),    # H^{1/2}(2D) -> L^4
    "gn1": _gn1(4.0),               # 2D Gagliardo-Nirenberg, p = 4
    "gn1-p6": _gn1(6.0),
    "gn2": _gn2(1.0, 2.0),          # 3D sup-norm interpolation, s=1, s'=2
    "product": _product_law(),      # ||ab||_L2 <= ||a||_{H^1/2} ||b||_{H^1}
}


def registered_inequalities() -> list[str]:
    return sorted(_REGISTRY)


def inequality_probe(inequality_id: str, samples: int, resolution: int,
                     seed: int = 0) -> ProbeReport:
    """Max LHS/RHS ratio of a registered inequality over seeded random
    band-limited fields (constant stripped)."""
    if inequality_id not in _REGISTRY:
        raise ValueError(f"unknown inequality {inequality_id!r}; "
                         f"registered: {registered_inequalities()}")
    dim, fn = _REGISTRY[inequality_id]
    grid = _probe_grid(dim, resolution, samples)
    ratios: list[float] = []
    skipped = 0
    for i in range(samples):
        r = fn(grid, seed + i)
        if r is None or not np.isfinite(r):
            skipped += 1
            continue
        ratios.append(float(r))
    return ProbeReport(inequality_id, samples, resolution, ratios, skipped)


def kato_ponce_probe(s: float, p: float, p1: float, p2: float, p3: float, p4: float,
                     samples: int, resolution: int = 32, dim: int = 3,
                     seed: int = 0) -> dict[str, ProbeReport]:
    """Commutator and product fractional-Leibniz ratios.

    Checks, for random scalar band-limited f, g:
        ||L^s(fg) - f L^s g||_p <= C (||grad f||_p1 ||L^{s-1}g||_p2
                                      + ||L^s f||_p3 ||g||_p4)
        ||L^s(fg)||_p <= C (||L^s f||_p1 ||g||_p2 + ||f||_p3 ||L^s g||_p4)
    and reports max ratios with the constant stripped.
    """
    if s <= 0:
        raise ValueError(f"need s > 0, got {s}")
    for q in (p, p1, p2, p3, p4):
        if not (1.0 < q < np.inf):
            raise ValueError(f"all exponents must lie in (1, inf), got {q}")
    if abs(1 / p - 1 / p1 - 1 / p2) > 1e-12 or abs(1 / p - 1 / p3 - 1 / p4) > 1e-12:
        raise ValueError("exponents must satisfy 1/p = 1/p1 + 1/p2 = 1/p3 + 1/p4")
    grid = _probe_grid(dim, resolution, samples)
    comm_ratios: list[float] = []
    prod_ratios: list[float] = []
    skipped = 0
    for i in range(samples):
        f = _probe_scalar(grid, seed + 2 * i)
        g = _probe_scalar(grid, seed + 2 * i + 1)
        if np.abs(f).max() == 0 or np.abs(g).max() == 0:
            skipped += 1
            continue
        fp = to_physical(grid, f)
        gp = to_physical(grid, g)
        fg = to_spectral(grid, fp * gp)
        ls_fg = apply_lambda_scalar(grid, fg, s)
        ls_g = apply_lambda_scalar(grid, g, s)
        comm = ls_fg - to_spectral(grid, fp * to_physical(grid, ls_g))
        lhs_comm = lp_norm_scalar(grid, comm, p)
        rhs_comm = (
            lp_norm(gradient(grid, f), p1) * lp_norm_scalar(grid, apply_lambda_scalar(grid, g, s - 1.0), p2)
            + lp_norm_scalar(grid, apply_lambda_scalar(grid, f, s), p3) * lp_norm_scalar(grid, g, p4)
        )
        lhs_prod = lp_norm_scalar(grid, ls_fg, p)
        rhs_prod = (
            lp_norm_scalar(grid, apply_lambda_scalar(grid, f, s), p1) * lp_norm_scalar(grid, g, p2)
            + lp_norm_scalar(grid, f, p3) * lp_norm_scalar(grid, ls_g, p4)
        )
        if rhs_comm > 0:
            comm_ratios.append(lhs_comm / rhs_comm)
        if rhs_prod > 0:
            prod_ratios.append(lhs_prod / rhs_prod)

    return {
        "commutator": ProbeReport(f"kato-ponce-commutator-s{s}", samples, resolution,
                                  comm_ratios, skipped),
        "product": ProbeReport(f"kato-ponce-product-s{s}", samples, resolution,
                               prod_ratios, skipped),
    }
