"""2.5D Hall-MHD: three-component fields over two space variables.

System (all products dealiased, tilde = two-variable operators):

    du/dt = P2[B~.grad~ B - u~.grad~ u] + mu lap~ u
    dB/dt = -u~.grad~ B - eps B~.grad~ j + eps j~.grad~ B
            + B~.grad~ u + nu lap~ B,       j = curl~ B

with the current j = curl~ B, vorticity omega = curl~ u and the combined
field E = eps omega + B formed where they are used.  When mu = nu, E
satisfies the pure advection-diffusion equation dE/dt = E~.grad~ u -
u~.grad~ E + mu lap~ E, which E_residual certifies on the E_law_terms
of consecutive snapshots.

The system is the 3D physical formulation restricted to x3-independent
fields, so a 2.5D state is a physical-formulation solver3d.SimState3D
on the 2D lattice, and the RHS and the step run on solver3d's
compact-band stepper there (third wavevector zero).  rhs_25d takes a
StepSession, whose current fields are the state, and reads its stage-1
term, which the session's next step reuses: a sampled dB/dt costs no
extra nonlinear evaluation.  The certificates (rewritten_B_rhs,
E_residual on two E_law_terms) evaluate the 2.5D forms on the full
lattice, from physical fields the caller passes.  A run calls rhs_25d
on the stepping thread, and the certificates in a forked worker process
when two CPUs are allowed, inline otherwise (runner).

Certificate transform budget per sample of a run (mu = nu): u and B
come in one batched inverse call; E_law_terms costs 1 inverse (E) and
2 forward transforms, rewritten_B_rhs 1 inverse (j with lap B) and 5
forward: 7 forward and 3 inverse in all, with each sample's E-law
terms carried to the next E_residual (its before-state when samples
are one step apart).  Each operators.advect is one batched forward
call; pocketfft transforms every slice of a batch as it would alone, so
batching changes no bit (solver3d batches below N = 128 the same way).
"""

from __future__ import annotations

import numpy as np

from . import solver3d as s3
from .fields import SpectralField
from .grid import GridSpec
from .norms import hs_norm, inhomogeneous_hs_norm
from .operators import advect, curl3, gradient, to_physical, to_spectral
from .params import PhysicalParams, StepControl
from .sampling import random_field

__all__ = [
    "make_state_25d",
    "make_initial_25d",
    "rhs_25d",
    "rewritten_B_rhs",
    "step_25d",
    "E_law_terms",
    "E_residual",
]


def make_state_25d(u: SpectralField, B: SpectralField, params: PhysicalParams,
                   t: float = 0.0) -> s3.SimState3D:
    """A 2.5D state: the physical-formulation state on the 2D lattice."""
    return s3.make_state(u, B, params, t=t)


def _nonlinear_25d(session: s3.StepSession) -> tuple[np.ndarray, np.ndarray]:
    """Dealiased nonlinear (du/dt, dB/dt) without diffusion on the
    session's current fields, as compact band rows: its stage-1 term,
    which its next step reuses."""
    return session.rhs()[:2]


def rhs_25d(session: s3.StepSession) -> tuple[SpectralField, SpectralField]:
    """Full (du/dt, dB/dt) of the 2.5D system on a session's current
    fields (a StepSession on the 2D lattice).  The diffusion is added on
    the band, where the off-band modes it would add to are zero, so the
    state is not scattered."""
    sp, params = session.sp, session.params
    (du, dB), (u, B) = _nonlinear_25d(session), session.fields[:2]
    return (sp.scatter_field(du - params.mu * sp.k2 * u),
            sp.scatter_field(dB - params.nu * sp.k2 * B))


def rewritten_B_rhs(state: s3.SimState3D, params: PhysicalParams,
                    phys: np.ndarray) -> SpectralField:
    """dB/dt evaluated from the curl-identity rewriting

        dB/dt = -u~.grad~ B + B~.grad~ u
                + eps (lap~ B x B + 2 j~.grad~ B - grad~(j.B)) + nu lap~ B,

    which must agree with rhs_25d to roundoff; it cross-validates the
    advective assembly against an independent algebraic route.  `phys`
    is the state's physical (u, B), a (2, 3, n, n) array."""
    g = state.grid
    mask = g.dealias_mask
    eps = params.eps
    up, Bp = phys
    jp, lapBp = to_physical(g, np.stack([curl3(state.B).c, -g.k2 * state.B.c]))

    lapBxB = to_spectral(g, np.cross(lapBp, Bp, axis=0))
    jdotB = to_spectral(g, np.sum(jp * Bp, axis=0))
    grad_jB = gradient(g, jdotB).c

    c = (
        -advect(g, up, Bp)
        + advect(g, Bp, up)
        + eps * (lapBxB + 2.0 * advect(g, jp, Bp) - grad_jB)
    ) * mask
    c -= params.nu * g.k2 * state.B.c
    return SpectralField(g, c)


def step_25d(state: s3.SimState3D, params: PhysicalParams,
             control: StepControl) -> s3.SimState3D:
    """Integrating-factor Heun step for the 2.5D system (solver3d.step on
    the 2D lattice); modes outside the two-thirds band are dropped."""
    return s3.step(state, params, control)


def E_law_terms(state: s3.SimState3D, params: PhysicalParams,
                up: np.ndarray) -> tuple[SpectralField, np.ndarray]:
    """(E, E~.grad~ u - u~.grad~ E + mu lap~ E) of one state: the combined
    field and the spatial side of its law, dealiased.  `up` is the
    state's physical u."""
    g = state.grid
    E = params.eps * curl3(state.u) + state.B
    Ep = to_physical(g, E.c)
    adv = advect(g, Ep, up) - advect(g, up, Ep)
    return E, adv * g.dealias_mask - params.mu * g.k2 * E.c


def E_residual(terms0: tuple, terms1: tuple, params: PhysicalParams, dt: float) -> float:
    """Normalized residual of the combined-field advection-diffusion law
    on two consecutive snapshots, dt apart, from their E_law_terms
    (centered time difference, midpoint spatial terms).  Needs mu = nu."""
    params.require_equal_viscosities("the combined-field law")
    (E0, s0), (E1, s1) = terms0, terms1

    dE = (E1.c - E0.c) / dt
    res = dE - 0.5 * (s0 + s1)
    mid = 0.5 * (E0 + E1)
    scale = hs_norm(mid, 0.0)
    if scale == 0.0:
        return 0.0
    return hs_norm(E0.with_coeffs(res), 0.0) / scale


def make_initial_25d(grid: GridSpec, kind: str, amplitude: float,
                     seed: int | None = None, b_amplitude: float | None = None,
                     lo: float = 1.0, hi: float = 2.5) -> tuple[SpectralField, SpectralField]:
    """Initial (u0, B0) over a 2D lattice, tilde-divergence-free.

    kinds: 'random_band' (u0 normalized to L2 norm = amplitude, B0 to
    H^1 norm = b_amplitude or amplitude), 'single_mode_b3'
    (u0 = 0, B0 = (0, 0, amplitude sin x1)), 'zero'.
    """
    if kind == "zero":
        return SpectralField.zeros(grid), SpectralField.zeros(grid)
    if amplitude <= 0:
        raise ValueError(f"amplitude must be positive, got {amplitude}")
    if kind == "single_mode_b3":
        x1, _ = grid.coordinates()
        zero = np.zeros_like(x1)
        B = SpectralField.from_physical(grid, np.stack([zero, zero, amplitude * np.sin(x1)]))
        return SpectralField.zeros(grid), B
    if kind == "random_band":
        if seed is None:
            raise ValueError("random_band initial data needs a seed")
        u0 = random_field(grid, lo, hi, seed=seed, divfree=True)
        B0 = random_field(grid, lo, hi, seed=seed + 1, divfree=True)
        nu0 = hs_norm(u0, 0.0)
        nb0 = inhomogeneous_hs_norm(B0, 1.0)
        amp_b = amplitude if b_amplitude is None else b_amplitude
        return (
            u0 * (amplitude / nu0 if nu0 > 0 else 0.0),
            B0 * (amp_b / nb0 if nb0 > 0 else 0.0),
        )
    raise ValueError(f"unknown initial-data kind {kind!r}")
