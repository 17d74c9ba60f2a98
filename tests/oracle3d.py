"""Full-lattice reference right-hand sides of the 3D Hall-MHD system.

They follow the equations of solver3d term by term, on the whole
half-spectrum, with each quadratic term formed by collocation and
dealiased by the two-thirds rule.  The library's stepper regroups the
same terms on the compact dealias band; the tests hold it to these
references.
"""

from __future__ import annotations

import numpy as np

from hallmhd.fields import SpectralField
from hallmhd.operators import band_filter, curl3, dilate, leray_project, to_physical, to_spectral
from hallmhd.params import PhysicalParams
from hallmhd.solver3d import SimState3D

_SYM = ((0, 0), (0, 1), (0, 2), (1, 1), (1, 2), (2, 2))


def hall_pair(J: SpectralField, B: SpectralField, eps: float) -> SpectralField:
    """eps curl(J x B), dealiased, with J an independent field."""
    g = J.grid
    Jp = to_physical(g, J.c)
    Bp = to_physical(g, B.c)
    jxb = to_spectral(g, np.cross(Jp, Bp, axis=0))
    return curl3(SpectralField(g, eps * jxb * g.dealias_mask))


def hall_term(B: SpectralField, eps: float) -> SpectralField:
    """eps curl((curl B) x B), the Hall contribution to dB/dt (with sign
    as it appears on the left of the induction equation)."""
    return hall_pair(curl3(B), B, eps)


def nonlinear_physical(state: SimState3D, params: PhysicalParams):
    """Dealiased nonlinear (du/dt, dB/dt) of the physical formulation."""
    g = state.grid
    ik = [1j * k for k in g.kvec]
    mask = g.dealias_mask

    up = to_physical(g, state.u.c)
    Bp = to_physical(g, state.B.c)
    Jp = to_physical(g, curl3(state.B).c)

    # (curl B) x B, shared by the Lorentz force and the Hall term
    jxb = to_spectral(g, np.cross(Jp, Bp, axis=0))
    # u.grad u = div(u (x) u) for divergence-free u
    uu = to_spectral(g, np.stack([up[i] * up[j] for i, j in _SYM]))
    adv = np.empty_like(state.u.c)
    T = {ij: uu[m] for m, ij in enumerate(_SYM)}
    for i in range(3):
        adv[i] = sum(ik[j] * T[(min(i, j), max(i, j))] for j in range(3))
    du = leray_project(SpectralField(g, (jxb - adv) * mask))

    uxb = to_spectral(g, np.cross(up, Bp, axis=0))
    dB = curl3(SpectralField(g, (uxb - params.eps * jxb) * mask))
    return du, dB


def rhs_physical(state: SimState3D, params: PhysicalParams) -> tuple[SpectralField, SpectralField]:
    """Full time derivative (du/dt, dB/dt) of the physical formulation."""
    du, dB = nonlinear_physical(state, params)
    return (
        du.with_coeffs(du.c - params.mu * state.grid.k2 * state.u.c),
        dB.with_coeffs(dB.c - params.nu * state.grid.k2 * state.B.c),
    )


def nonlinear_extended(state: SimState3D, params: PhysicalParams):
    """Dealiased nonlinear (du/dt, dB/dt, dv/dt) of the extended formulation."""
    g = state.grid
    ik = [1j * k for k in g.kvec]
    mask = g.dealias_mask
    eps = params.eps

    up = to_physical(g, state.u.c)
    Bp = to_physical(g, state.B.c)
    vp = to_physical(g, state.v.c)
    wp = to_physical(g, curl3(state.v).c)

    # T = B (x) B - u (x) u drives both du/dt and dv/dt through P div T
    T6 = to_spectral(g, np.stack([Bp[i] * Bp[j] - up[i] * up[j] for i, j in _SYM]))
    T = {ij: T6[m] for m, ij in enumerate(_SYM)}
    force = np.empty_like(state.u.c)
    for i in range(3):
        force[i] = sum(ik[j] * T[(min(i, j), max(i, j))] for j in range(3))
    force = leray_project(SpectralField(g, force * mask))

    # P[i, j] = F(v_i B_j) serves curl(v x B) and v.grad B = div(B (x) v)
    P = to_spectral(g, np.stack([vp[i] * Bp[j] for i in range(3) for j in range(3)]))
    P = P.reshape((3, 3) + g.spectral_shape)
    vxB = np.stack([P[1, 2] - P[2, 1], P[2, 0] - P[0, 2], P[0, 1] - P[1, 0]])
    dB = curl3(SpectralField(g, vxB * mask))

    wxB = to_spectral(g, np.cross(wp, Bp, axis=0))
    vxu = to_spectral(g, np.cross(vp, up, axis=0))
    vgradB = np.stack([sum(ik[k] * P[k, j] for k in range(3)) for j in range(3)])

    dv_c = (-eps * wxB + vxu + 2.0 * eps * vgradB) * mask
    dv = curl3(SpectralField(g, dv_c))
    dv = dv.with_coeffs(dv.c + force.c)
    return force, dB, dv


def rhs_extended(state: SimState3D, params: PhysicalParams):
    """Full time derivative (du/dt, dB/dt, dv/dt) of the extended system."""
    params.require_equal_viscosities("rhs_extended")
    if state.v is None:
        raise ValueError("extended RHS needs a state carrying v")
    du, dB, dv = nonlinear_extended(state, params)
    k2 = state.grid.k2
    return (
        du.with_coeffs(du.c - params.mu * k2 * state.u.c),
        dB.with_coeffs(dB.c - params.mu * k2 * state.B.c),
        dv.with_coeffs(dv.c - params.mu * k2 * state.v.c),
    )


def scaling_covariance_check(u: SpectralField, B: SpectralField, lam: int,
                             params: PhysicalParams) -> dict[str, float]:
    """Relative residuals of the velocity-type rescaling covariance.

    With S f = lam * f(lam x), (a) the eps = 0 RHS satisfies
    rhs(S u, S B) = lam^3 (rhs(u, B))(lam x), and (b) the Hall operator
    (J, B) -> eps curl(J x B) is covariant when J and B are BOTH scaled
    like the velocity (the current treated as an independent unknown).
    """
    if int(lam) != lam or lam < 1:
        raise ValueError(f"lambda must be a positive integer, got {lam}")
    lam = int(lam)
    representable = (u.grid.n // 2 - 1) / lam

    def scaled(f: SpectralField) -> SpectralField:
        # drop roundoff-level content that a dilation could not represent
        return lam * dilate(band_filter(f, 0.0, representable), lam)

    def rel(a: SpectralField, b: SpectralField) -> float:
        scale = max(float(np.abs(b.c).max()), 1e-300)
        return float(np.abs(a.c - b.c).max()) / scale

    mhd = PhysicalParams(params.mu, params.nu, 0.0)
    du, dB = rhs_physical(SimState3D(0.0, u, B), mhd)
    du_s, dB_s = rhs_physical(SimState3D(0.0, scaled(u), scaled(B)), mhd)
    # lam^3 f(lam x) = lam^2 * S f
    res_mhd = max(rel(du_s, lam**2 * scaled(du)), rel(dB_s, lam**2 * scaled(dB)))

    J = curl3(B)
    res_hall = rel(hall_pair(scaled(J), scaled(B), params.eps),
                   lam**2 * scaled(hall_pair(J, B, params.eps)))
    return {"mhd": res_mhd, "hall_pair": res_hall}
