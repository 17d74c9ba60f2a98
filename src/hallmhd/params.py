"""Physical coefficients and step control."""

from __future__ import annotations

import math
from dataclasses import dataclass

from .grid import GridSpec

__all__ = ["PhysicalParams", "StepControl", "CFLError", "required_dt", "step_count"]


@dataclass(frozen=True)
class PhysicalParams:
    """Viscosity mu, resistivity nu (both > 0), Hall coefficient eps >= 0."""

    mu: float
    nu: float
    eps: float = 0.0

    def __post_init__(self):
        if self.mu <= 0 or self.nu <= 0:
            raise ValueError(f"mu and nu must be positive, got mu={self.mu}, nu={self.nu}")
        if self.eps < 0:
            raise ValueError(f"eps must be nonnegative, got eps={self.eps}")

    def require_equal_viscosities(self, what: str) -> None:
        if self.mu != self.nu:
            raise ValueError(f"{what} requires mu == nu (got mu={self.mu}, nu={self.nu})")


@dataclass(frozen=True)
class StepControl:
    """Time-step parameters for the integrating-factor Heun scheme.

    hall_cfl is the explicit-stability safety factor c_h in (0, 1]:
    dt <= c_h / (eps max|B| k_max^2) and dt <= c_h / ((max|u| + max|B|) k_max).
    """

    dt: float
    t_end: float
    hall_cfl: float = 0.25

    def __post_init__(self):
        if self.dt <= 0:
            raise ValueError(f"dt must be positive, got {self.dt}")
        if not 0 < self.hall_cfl <= 1:
            raise ValueError(f"hall_cfl must be in (0, 1], got {self.hall_cfl}")


def step_count(t_end: float, dt: float) -> int:
    """Number of dt steps that reach t_end; raises ValueError unless t_end
    is an integer multiple of dt (to a relative 1e-9)."""
    ratio = t_end / dt
    if not math.isfinite(ratio):
        raise ValueError(f"t_end={t_end} over dt={dt} is not a finite step count")
    nsteps = round(ratio)
    if abs(nsteps * dt - t_end) > 1e-9 * t_end:
        raise ValueError(f"t_end={t_end} is not an integer multiple of dt={dt}")
    return nsteps


class CFLError(RuntimeError):
    """Raised when a step violates the explicit stability guards."""

    def __init__(self, dt: float, dt_required: float):
        self.dt = dt
        self.dt_required = dt_required
        super().__init__(
            f"time step dt={dt:.3e} rejected: stability requires dt <= {dt_required:.3e}"
        )


def required_dt(grid: GridSpec, params: PhysicalParams, control: StepControl,
                umax: float, bmax: float) -> float:
    """Largest admissible dt at the current field amplitudes."""
    kmax = grid.k_cutoff
    bound = float("inf")
    adv = (umax + bmax) * kmax
    if adv > 0:
        bound = control.hall_cfl / adv
    if params.eps > 0 and bmax > 0:
        bound = min(bound, control.hall_cfl / (params.eps * bmax * kmax**2))
    return bound
