"""2.5D Hall-MHD: three-component fields over two space variables.

System (all products dealiased, tilde = two-variable operators):

    du/dt = P2[B~.grad~ B - u~.grad~ u] + mu lap~ u
    dB/dt = -u~.grad~ B - eps B~.grad~ j + eps j~.grad~ B
            + B~.grad~ u + nu lap~ B,       j = curl~ B

with the current j = curl~ B, vorticity omega = curl~ u and the combined
field E = eps omega + B formed where they are used.  When mu = nu, E
satisfies the pure advection-diffusion equation dE/dt = E~.grad~ u -
u~.grad~ E + mu lap~ E, which E_residual certifies on consecutive
snapshots.

The system is the 3D physical formulation restricted to x3-independent
fields, so a 2.5D state is a physical-formulation solver3d.SimState3D
on the 2D lattice, and the RHS and the step run on solver3d's
compact-band stepper there (third wavevector zero).  The certificates here
(rewritten_B_rhs, E_residual, identity_suite) evaluate the 2.5D forms
independently on the full lattice.

Certificate transform budget per sample of a run (mu = nu): the run's
monitor inverse-transforms u and B in one batched call and passes them
in; E_law_terms of the sampled state costs 1 inverse (E) and 2 forward
transforms, rewritten_B_rhs 1 inverse (j with lap B) and 5 forward:
7 forward and 3 inverse in all.  The E-law terms of a sample are
carried to the next E_residual, whose before-state it is when samples
are one step apart.  Each _tilde_advect is one batched forward call;
pocketfft transforms every slice of a batch as it would alone, so
batching changes no bit.
"""

from __future__ import annotations

import numpy as np

from . import solver3d as s3
from .fields import SpectralField
from .grid import GridSpec
from .norms import hs_norm, inhomogeneous_hs_norm
from .operators import curl2, gradient, to_physical, to_spectral
from .params import PhysicalParams, StepControl
from .sampling import random_field

__all__ = [
    "make_state_25d",
    "make_initial_25d",
    "rhs_25d",
    "rewritten_B_rhs",
    "physical_uB",
    "step_25d",
    "E_law_terms",
    "E_residual",
    "identity_suite",
]


def make_state_25d(u: SpectralField, B: SpectralField, params: PhysicalParams,
                   t: float = 0.0) -> s3.SimState3D:
    """A 2.5D state: the physical-formulation state on the 2D lattice."""
    return s3.make_state(u, B, params, t=t)


def _tilde_advect(g: GridSpec, ap: np.ndarray, bp: np.ndarray) -> np.ndarray:
    """(a~ . grad~) b as div~(b (x) a~), valid for div~ a~ = 0.
    ap, bp are physical (3, n, n) arrays; returns spectral coefficients.
    The six products a_i b_j (i = 1, 2) go through one batched transform."""
    k1, k2 = g.kvec
    prod = to_spectral(g, ap[:2, None] * bp[None])
    return 1j * (k1 * prod[0] + k2 * prod[1])


def _nonlinear_25d(state: s3.SimState3D, params: PhysicalParams):
    """Dealiased nonlinear (du/dt, dB/dt) without diffusion, from the
    compact-band stepper on the 2D lattice (the nonlinearity does not
    depend on dt, so the workspace is built with dt = 0)."""
    sp = s3.get_stepper(state.grid, params, 0.0, False)
    du, dB, _, _ = sp.nonlinear(sp.gather(state.u.c), sp.gather(state.B.c), with_maxes=False)
    return sp.scatter_field(du), sp.scatter_field(dB)


def rhs_25d(state: s3.SimState3D, params: PhysicalParams) -> tuple[SpectralField, SpectralField]:
    """Full (du/dt, dB/dt) of the 2.5D system."""
    du, dB = _nonlinear_25d(state, params)
    k2 = state.grid.k2
    return (
        du.with_coeffs(du.c - params.mu * k2 * state.u.c),
        dB.with_coeffs(dB.c - params.nu * k2 * state.B.c),
    )


def physical_uB(state: s3.SimState3D) -> np.ndarray:
    """Physical u and B of a state as one (2, 3, n, n) array (one batched
    inverse transform)."""
    return to_physical(state.grid, np.stack([state.u.c, state.B.c]))


def rewritten_B_rhs(state: s3.SimState3D, params: PhysicalParams,
                    phys: np.ndarray | None = None) -> SpectralField:
    """dB/dt evaluated from the curl-identity rewriting

        dB/dt = -u~.grad~ B + B~.grad~ u
                + eps (lap~ B x B + 2 j~.grad~ B - grad~(j.B)) + nu lap~ B,

    which must agree with rhs_25d to roundoff; it cross-validates the
    advective assembly against an independent algebraic route.  `phys`
    is the state's physical (u, B) (physical_uB) when the caller has it."""
    g = state.grid
    mask = g.dealias_mask
    eps = params.eps
    up, Bp = physical_uB(state) if phys is None else phys
    jp, lapBp = to_physical(g, np.stack([curl2(state.B).c, -g.k2 * state.B.c]))

    lapBxB = to_spectral(g, np.cross(lapBp, Bp, axis=0))
    jdotB = to_spectral(g, np.sum(jp * Bp, axis=0))
    grad_jB = gradient(g, jdotB).c

    c = (
        -_tilde_advect(g, up, Bp)
        + _tilde_advect(g, Bp, up)
        + eps * (lapBxB + 2.0 * _tilde_advect(g, jp, Bp) - grad_jB)
    ) * mask
    c -= params.nu * g.k2 * state.B.c
    return SpectralField(g, c)


def step_25d(state: s3.SimState3D, params: PhysicalParams,
             control: StepControl) -> s3.SimState3D:
    """Integrating-factor Heun step for the 2.5D system (solver3d.step on
    the 2D lattice); modes outside the two-thirds band are dropped."""
    return s3.step(state, params, control)


def E_law_terms(state: s3.SimState3D, params: PhysicalParams,
                up: np.ndarray | None = None) -> tuple[SpectralField, np.ndarray]:
    """(E, E~.grad~ u - u~.grad~ E + mu lap~ E) of one state: the combined
    field and the spatial side of its law, dealiased.  `up` is the
    state's physical u when the caller has it."""
    g = state.grid
    E = params.eps * curl2(state.u) + state.B
    Ep = to_physical(g, E.c)
    if up is None:
        up = to_physical(g, state.u.c)
    adv = _tilde_advect(g, Ep, up) - _tilde_advect(g, up, Ep)
    return E, adv * g.dealias_mask - params.mu * g.k2 * E.c


def E_residual(before: s3.SimState3D, after: s3.SimState3D, params: PhysicalParams,
               dt: float, terms: tuple | None = None) -> float:
    """Normalized residual of the combined-field advection-diffusion law
    on two consecutive snapshots (centered time difference, midpoint
    spatial terms).  Needs mu = nu.  `terms` is the pair of E_law_terms
    of (before, after) when the caller has them."""
    params.require_equal_viscosities("the combined-field law")
    g = before.grid
    if terms is None:
        terms = E_law_terms(before, params), E_law_terms(after, params)
    (E0, s0), (E1, s1) = terms

    dE = (E1.c - E0.c) / dt
    res = dE - 0.5 * (s0 + s1)
    mid = 0.5 * (E0 + E1)
    scale = hs_norm(mid, 0.0)
    if scale == 0.0:
        return 0.0
    return hs_norm(SpectralField(g, res), 0.0) / scale


def identity_suite(y: SpectralField, z: SpectralField,
                   a: SpectralField, b: SpectralField, c: SpectralField) -> dict:
    """Max relative residuals of the two-variable vector identities:

    * i1:  curl~(y x z) = z~.grad~ y - y~.grad~ z   (div~-free y, z)
    * ws6: (a x b).c = (c x a).b = (b x c).a        (pointwise)
    * double_curl: curl~(curl~ y) + lap~ y = 0      (div~-free y)

    i1 is skipped (flagged) when the divergence precondition fails.
    Fields should be band-limited to |k| <= n/4 - 1 so products are
    exactly representable on the grid.
    """
    g = y.grid
    out: dict[str, float | bool] = {}

    i1_ok = max(y.divergence_residual(), z.divergence_residual()) <= 1e-10
    out["i1_skipped"] = not i1_ok
    if i1_ok:
        yp = to_physical(g, y.c)
        zp = to_physical(g, z.c)
        lhs = curl2(SpectralField(g, to_spectral(g, np.cross(yp, zp, axis=0))))
        rhs = _tilde_advect(g, zp, yp) - _tilde_advect(g, yp, zp)
        scale = max(float(np.abs(rhs).max()), 1e-300)
        out["i1"] = float(np.abs(lhs.c - rhs).max()) / scale

    ap = to_physical(g, a.c)
    bp = to_physical(g, b.c)
    cp = to_physical(g, c.c)
    axb_c = np.sum(np.cross(ap, bp, axis=0) * cp, axis=0)
    cxa_b = np.sum(np.cross(cp, ap, axis=0) * bp, axis=0)
    bxc_a = np.sum(np.cross(bp, cp, axis=0) * ap, axis=0)
    scale = max(float(np.abs(axb_c).max()), 1e-300)
    out["ws6"] = max(
        float(np.abs(axb_c - cxa_b).max()),
        float(np.abs(axb_c - bxc_a).max()),
    ) / scale

    dc = curl2(curl2(y)).c - y.grid.k2 * y.c
    scale = max(float(np.abs(y.grid.k2 * y.c).max()), 1e-300)
    out["double_curl"] = float(np.abs(dc).max()) / scale
    return out


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
