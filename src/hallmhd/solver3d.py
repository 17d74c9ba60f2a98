"""3D incompressible Hall-MHD on the periodic box.

Two formulations share one integrating-factor Heun stepper:

* physical (u, B):
    du/dt = P[(curl B) x B - u.grad u] + mu lap u
    dB/dt = curl(u x B) - eps curl((curl B) x B) + nu lap B
* extended (u, B, v), valid for mu = nu, with v = u - eps curl B evolved
  as an independent unknown:
    du/dt = mu lap u + P[B.grad B - u.grad u]
    dB/dt = mu lap B + curl(v x B)
    dv/dt = mu lap v + P[B.grad B - u.grad u] - eps curl((curl v) x B)
            + curl(v x u) + 2 eps curl(v.grad B)

Quadratic terms are formed by collocation in physical space and
dealiased by the two-thirds rule; the pressure gradient is eliminated
by the Leray projector.

The stepper below is the library's only RHS.  Full-lattice references
that follow the equations term by term live in tests/oracle3d.py, and
the tests hold the stepper to them.  The stepper regroups the terms.
Under the two-thirds rule the band coefficients of a product of
band-limited fields are exact, so pointwise vector identities carry
over to the band.  With div B = 0,
(curl B) x B = div(B (x) B) - grad |B|^2/2, so on the band
P[(curl B) x B] = P div(B (x) B).  With div v = div B = 0 as well,
curl(v x B) = B.grad v - v.grad B, and grad(v.B) = v.grad B + B.grad v
+ v x curl B + B x curl v has no curl, so
  -eps (curl v) x B + v x u + 2 eps v.grad B
      = v x E - eps curl(v x B) + grad(eps v.B),   E = u - eps curl B,
and the extended dv/dt = mu lap v + P div T + curl(v x E - eps curl(v x B)).
Per RHS evaluation the stepper transforms:

* physical: u, B, E back (9 inverse transforms); the symmetric
  T = B (x) B - u (x) u (nonlinear du/dt = P div T) and E x B
  (nonlinear dB/dt = its curl) forward (9): 18 in all;
* extended: u, B, v, E back (12); T, v x B and v x E forward (12): 24
  in all.

Its transforms are pruned to the band: one 1D pass per axis, each
skipping the lines that are zero (inverse) or dropped (forward), in
the order scipy's irfftn/rfftn use, so that at power-of-two n they are
bit for bit the full transforms.  Inverse: axis 0, axis 1, then the
half-spectrum axis; forward: the half-spectrum axis, axis 0, axis 1
(2D grids have no axis 1).

An evaluation runs as two phases of independent jobs: first one inverse
transform per component of u, B, E (and v); then, per row of the
product table F, one pointwise product p q - r s and its forward
transform (the six rows of T, then E x B, or v x B and v x E).  A
stepper has one or two lanes, each with its own scratch (a spectral
workspace and two product buffers).  With two, the calling thread runs
the even jobs on lane 0 and one worker thread the odd jobs on lane 1
(pocketfft and numpy release the GIL), and each phase ends when both
lanes are done.  A job reads only inputs that no job writes and writes
only its lane's scratch and its own output (a physical array, or a row
of F), and it does the same arithmetic on the same operands on either
lane, so the result is bit for bit that of one lane.  Two lanes are
taken when the process may run on two CPUs and a component has at least
_LANE_MIN_POINTS points; the worker is made on first use, once per
process (a forked child makes its own).
"""

from __future__ import annotations

import itertools
import os
import threading
from concurrent.futures import ThreadPoolExecutor, wait
from dataclasses import dataclass

import numpy as np
import scipy.fft as sfft

from .fields import SpectralField
from .grid import GridSpec
from .norms import hs_norm
from .operators import curl3, k2_power
from .params import CFLError, PhysicalParams, StepControl, required_dt
from .sampling import random_field

__all__ = ["SimState3D", "step", "make_initial", "make_state"]

_SYM = ((0, 0), (0, 1), (0, 2), (1, 1), (1, 2), (2, 2))


@dataclass(frozen=True)
class SimState3D:
    """Time plus the evolved divergence-free, mean-free fields; v is only
    present in extended mode."""

    t: float
    u: SpectralField
    B: SpectralField
    v: SpectralField | None = None

    @property
    def grid(self) -> GridSpec:
        return self.u.grid

    @property
    def extended(self) -> bool:
        return self.v is not None


def make_state(u: SpectralField, B: SpectralField, params: PhysicalParams,
               extended: bool = False, t: float = 0.0) -> SimState3D:
    """Assemble a state; in extended mode v is initialized to u - eps curl B."""
    v = None
    if extended:
        params.require_equal_viscosities("the extended formulation")
        v = u - params.eps * curl3(B)
    return SimState3D(t=t, u=u, B=B, v=v)


# time stepping ---------------------------------------------------------
#
# The stepper works on the compacted dealias band: evolved states carry
# coefficients only inside the two-thirds mask, so all inter-FFT algebra
# runs on ~n^3/7 modes instead of the full half-spectrum.  The pruned
# transforms read and write only band lines, which doubles as the
# dealiasing step, and the quadratic terms are regrouped on the band (see
# the module docstring: 18 transforms per physical RHS, 24 per extended).
# The full-lattice references in tests/oracle3d.py stay the readable
# form; step() is tested to reproduce them.
#
# On a 2D grid the same stepper advances the 2.5D system: the 2.5D flow is
# the 3D physical formulation restricted to x3-independent fields, i.e.
# with a zero third wavevector.  Under the two-thirds rule this is exact
# on the retained band.


# Components with fewer points take one lane: there the handoff to the
# worker costs about what the split saves.  Median ms per physical
# nonlinear evaluation on 2 vCPUs, one lane -> two: 2D n = 64 0.67 -> 0.94,
# 3D n = 24 1.67 -> 1.78, 2D n = 128 1.70 -> 1.58, 3D n = 64 22.5 -> 14.8;
# at 3D n = 32 the per-call timings scatter, but whole runs gain.
_LANE_MIN_POINTS = 32768

_pool: ThreadPoolExecutor | None = None
_pool_lock = threading.Lock()


def _lane1_pool() -> ThreadPoolExecutor:
    """The worker thread that runs lane 1, made on first use."""
    global _pool
    with _pool_lock:
        if _pool is None:
            _pool = ThreadPoolExecutor(1, thread_name_prefix="hallmhd-lane1")
        return _pool


def _forget_pool() -> None:
    # A forked child has no copy of the parent's worker thread, so a job
    # given to the inherited pool would never run: the child makes its own.
    global _pool, _pool_lock
    _pool, _pool_lock = None, threading.Lock()


os.register_at_fork(after_in_child=_forget_pool)


def _c2c_in_place(fn, view: np.ndarray, axis: int) -> None:
    """1D complex transform of `view` along `axis`, written back into it
    (overwrite_x lets scipy.fft work in place; it does not promise to)."""
    out = fn(view, axis=axis, norm="forward", overwrite_x=True)
    if not np.may_share_memory(out, view):
        view[...] = out


class _Lane:
    """Scratch of one thread of a stepper: the spectral workspace, with
    views of the lines the inverse passes transform and of the off-band
    lines they fill, and two physical product buffers."""

    def __init__(self, grid: GridSpec, inv_idx: list, off_idx: list):
        self.wk = np.zeros(grid.spectral_shape, dtype=np.complex128)
        self.inv_lines = [[self.wk[i] for i in lines] for lines in inv_idx]
        self.off_band = [self.wk[i] for i in off_idx]
        self.buf = np.empty(grid.physical_shape)
        self.buf2 = np.empty(grid.physical_shape)


class _Stepper3D:
    """Compact-band workspace for one (grid, params, dt, formulation);
    the grid is 3D, or 2D with k3 = 0.  The band geometry, integrating
    factors and product table F are shared; the transform scratch is per
    lane (module docstring).  A nonlinear evaluation uses every lane, so
    one stepper serves one advancing agent at a time."""

    def __init__(self, grid: GridSpec, params: PhysicalParams, dt: float, extended: bool):
        self.grid = grid
        self.params = params
        self.dt = dt
        self.extended = extended
        if extended:
            params.require_equal_viscosities("extended stepping")

        mask_flat = grid.dealias_mask.reshape(-1)
        self.idx = np.nonzero(mask_flat)[0]
        m = self.idx.size
        spec = grid.spectral_shape
        self.k = [
            np.broadcast_to(grid.kvec[i], spec).reshape(-1)[self.idx].copy()
            if i < grid.dim else np.zeros(m)
            for i in range(3)
        ]
        self.ik = [1j * k for k in self.k]
        k2 = self.k[0] ** 2 + self.k[1] ** 2 + self.k[2] ** 2
        self.k2 = k2
        inv = np.zeros_like(k2)
        np.divide(1.0, k2, out=inv, where=k2 > 0)
        self.inv_k2 = inv
        self.Eu = np.exp(-params.mu * k2 * dt)
        self.Eb = np.exp(-params.nu * k2 * dt)
        nprod = 12 if extended else 9
        self.F = np.empty((nprod, m), dtype=np.complex128)
        self.m = m

        # Pruned band transforms.  A compact row is the C-order flattening
        # of the (2k+1, .., 2k+1, k+1) band block; a full axis stores the
        # band at indices [0, k] and [n-k, n-1].  Each 1D pass transforms
        # only lines that are not identically zero (inverse) or that the
        # band keeps (forward), in the order irfftn/rfftn use, so the
        # result equals the full transform plus scatter/gather.
        n, k, nfull = grid.n, grid.n // 3, grid.dim - 1
        self.block = (2 * k + 1,) * nfull + (k + 1,)
        assert m == np.prod(self.block), "dealias mask is not the band block"
        band = (slice(0, k + 1), slice(n - k, n))
        pos = (slice(0, k + 1), slice(k + 1, 2 * k + 1))
        kz, whole, mid = (slice(0, k + 1),), slice(None), slice(k + 1, n - k)
        self.slabs = [  # (lattice index, block index) of each band slab
            (tuple(band[c] for c in combo) + kz, tuple(pos[c] for c in combo))
            for combo in itertools.product((0, 1), repeat=nfull)
        ]
        heads = [list(itertools.product(band, repeat=a)) for a in range(nfull)]
        # forward pass a: band rows on axes < a, whole axes from a on
        self.fwd_lines = [[h + (whole,) * (nfull - a) + kz for h in heads[a]]
                          for a in range(nfull)]
        # inverse pass a: whole axes up to a, band rows after it; the
        # passes fill the off-band lines, which each inverse job clears first
        inv_idx = [[(whole,) * (a + 1) + t + kz
                    for t in itertools.product(band, repeat=nfull - a - 1)]
                   for a in range(nfull)]
        off_idx = [h + (mid,) + (whole,) * (nfull - a - 1) + kz
                   for a in range(nfull) for h in heads[a]]
        big = np.prod(grid.physical_shape) >= _LANE_MIN_POINTS
        nlanes = 2 if big and len(os.sched_getaffinity(0)) >= 2 else 1
        self.lanes = [_Lane(grid, inv_idx, off_idx) for _ in range(nlanes)]
        self.w_pair = np.broadcast_to(grid.pair_weight, spec).reshape(-1)[self.idx].copy()
        self._hs_weights: dict[float, np.ndarray] = {}

    # compact <-> full layout
    def gather(self, c: np.ndarray) -> np.ndarray:
        return c.reshape(c.shape[0], -1)[:, self.idx]

    def scatter_field(self, comp: np.ndarray) -> SpectralField:
        c = np.zeros((3,) + self.grid.spectral_shape, dtype=np.complex128)
        c.reshape(3, -1)[:, self.idx] = comp
        return SpectralField(self.grid, c)

    def _run(self, job, args: list[tuple]) -> list:
        """[job(lane, *a) for a in args], job i on lane i % len(lanes):
        lane 0 in this thread, lane 1 on the worker.  Returns or raises
        only once both lanes are done, so no job of a failed call is left
        writing into F or a lane's scratch."""
        out = [None] * len(args)

        def run_lane(j):
            lane = self.lanes[j]
            for i in range(j, len(args), len(self.lanes)):
                out[i] = job(lane, *args[i])

        futures = [_lane1_pool().submit(run_lane, 1)] if len(self.lanes) == 2 else []
        try:
            run_lane(0)
        finally:
            wait(futures)
        for f in futures:
            f.result()
        return out

    def _inverse(self, lane: _Lane, row: np.ndarray) -> np.ndarray:
        """Compact coefficients of one component -> its physical array."""
        w = lane.wk
        for view in lane.off_band:  # cleared first: a failed job leaves no residue
            view[...] = 0.0
        blk = row.reshape(self.block)
        for lat, pos in self.slabs:
            w[lat] = blk[pos]
        for axis, lines in enumerate(lane.inv_lines):
            for view in lines:
                _c2c_in_place(sfft.ifft, view, axis)
        return sfft.irfftn(w, s=(self.grid.n,), axes=(-1,), norm="forward")

    def _forward(self, lane: _Lane, row: int, p, q, r, s) -> None:
        """Row `row` of F: the band coefficients of p q - r s."""
        buf, buf2 = lane.buf, lane.buf2
        np.multiply(p, q, out=buf)
        np.multiply(r, s, out=buf2)
        buf -= buf2
        c = sfft.rfftn(buf, axes=(-1,), norm="forward")
        for axis, lines in enumerate(self.fwd_lines):
            for idx in lines:
                _c2c_in_place(sfft.fft, c[idx], axis)
        blk = self.F[row].reshape(self.block)
        for lat, pos in self.slabs:
            blk[pos] = c[lat]

    def _curl(self, c: np.ndarray) -> np.ndarray:
        ik = self.ik
        out = np.empty_like(c)
        out[0] = ik[1] * c[2] - ik[2] * c[1]
        out[1] = ik[2] * c[0] - ik[0] * c[2]
        out[2] = ik[0] * c[1] - ik[1] * c[0]
        return out

    def _project(self, c: np.ndarray) -> np.ndarray:
        kdot = (self.k[0] * c[0] + self.k[1] * c[1] + self.k[2] * c[2]) * self.inv_k2
        for i in range(3):
            c[i] -= self.k[i] * kdot
        return c

    def _force(self) -> np.ndarray:
        """P div T, mean-free, from rows 0..5 of F (T = B (x) B - u (x) u):
        on the band, the Lorentz force minus advection."""
        ik = self.ik
        T = {ij: self.F[row] for row, ij in enumerate(_SYM)}
        force = self._project(np.stack([
            sum(ik[j] * T[(min(i, j), max(i, j))] for j in range(3))
            for i in range(3)
        ]))
        self._zero_mean(force)
        return force

    def _zero_mean(self, c: np.ndarray) -> None:
        if self.idx[0] == 0:
            c[:, 0] = 0.0

    @staticmethod
    def mag2(comp: np.ndarray) -> np.ndarray:
        """Per-mode |c|^2 summed over the compact components."""
        return (comp.real**2 + comp.imag**2).sum(axis=0)

    def sum_hs2(self, mag2: np.ndarray, s: float) -> float:
        """Squared homogeneous H^s mode sum of a per-mode magnitude mag2(c)
        (the weight vanishes at k = 0, so the mean mode never counts)."""
        w = self._hs_weights.get(s)
        if w is None:
            w = self._hs_weights[s] = self.w_pair * k2_power(self.k2, s)
        return float(np.sum(w * mag2))

    def nonlinear(self, uc, Bc, vc=None, with_maxes: bool = True):
        """Compact nonlinear RHS; returns (Nu, NB[, Nv], umax, bmax).  The
        maxima propagate NaN (np.max, unlike Python max over components)."""
        eps = self.params.eps
        comps = [*uc, *Bc, *(uc - eps * self._curl(Bc))]  # E = u - eps curl B
        if self.extended:
            comps += [*vc]
        phys = self._run(self._inverse, [(c,) for c in comps])
        del comps  # E's coefficients are not needed past phase 1
        up, Bp, Ep, vp = phys[0:3], phys[3:6], phys[6:9], phys[9:]
        umax = bmax = 0.0
        if with_maxes:
            umax = float(np.max([np.abs(p).max() for p in up]))
            bmax = float(np.max([np.abs(p).max() for p in Bp]))

        # rows 0..5: T = B (x) B - u (x) u; on the band P div T is the
        # Lorentz force minus advection, for both formulations.  Then
        # rows 6..8 (and 9..11) of a x b: E x B, whose curl is dB/dt; or
        # v x B, whose curl is dB/dt, and v x E, with
        # dv/dt = P div T + curl(v x E - eps curl(v x B)) (module docstring)
        rows = [(Bp[i], Bp[j], up[i], up[j]) for i, j in _SYM]
        for a, b in [(vp, Bp), (vp, Ep)] if self.extended else [(Ep, Bp)]:
            rows += [(a[(i + 1) % 3], b[(i + 2) % 3], a[(i + 2) % 3], b[(i + 1) % 3])
                     for i in range(3)]
        self._run(self._forward, [(row,) + pqrs for row, pqrs in enumerate(rows)])

        F = self.F
        if not self.extended:
            return self._force(), self._curl(F[6:9]), umax, bmax
        NB = self._curl(F[6:9])
        Nv = self._curl(F[9:12] - eps * NB)
        force = self._force()
        Nv += force
        return force, NB, Nv, umax, bmax

    def advance(self, fields: list[np.ndarray], control: StepControl, stage1: tuple):
        """One Heun step on compact coefficient arrays (in order u, B[, v])
        whose stage-1 term nonlinear(*fields) is `stage1`.  Raises
        FloatingPointError on non-finite input fields or a non-finite
        result, and CFLError when the stage-1 amplitudes
        violate the step guards.  The CFL bound is taken once per step,
        from the stage-1 maxima; stage 2 computes no maxima, so its
        predictor fields are not CFL-checked, but a non-finite result
        fails this step rather than the next one."""
        dt = self.dt
        umax, bmax = stage1[-2], stage1[-1]
        n1 = stage1[:-2]
        if not (np.isfinite(umax) and np.isfinite(bmax)):
            raise FloatingPointError(f"non-finite fields (max|u| = {umax}, max|B| = {bmax})")
        bound = required_dt(self.grid, self.params, control, umax, bmax)
        if dt > bound:
            raise CFLError(dt, bound)
        Es = [self.Eu, self.Eb] + ([self.Eu] if self.extended else [])
        stars = [E * (f + dt * n) for E, f, n in zip(Es, fields, n1)]
        out2 = self.nonlinear(*stars, with_maxes=False)
        n2 = out2[:-2]
        new = []
        for E, f, a, b in zip(Es, fields, n1, n2):
            y = E * (f + (0.5 * dt) * a)
            y += (0.5 * dt) * b
            new.append(y)
        # hygiene: evolved fields stay exactly solenoidal and mean-free
        for y in new:
            self._project(y)
            self._zero_mean(y)
            if not np.isfinite(y.view(np.float64)).all():  # float view: half the cost
                raise FloatingPointError("non-finite fields after stage 2")
        return new


_STEPPER_CACHE: dict[tuple, _Stepper3D] = {}


def get_stepper(grid: GridSpec, params: PhysicalParams, dt: float, extended: bool) -> _Stepper3D:
    key = (id(grid), params.mu, params.nu, params.eps, dt, extended)
    st = _STEPPER_CACHE.get(key)
    if st is None:
        if len(_STEPPER_CACHE) > 8:
            _STEPPER_CACHE.clear()
        st = _Stepper3D(grid, params, dt, extended)
        _STEPPER_CACHE[key] = st
    return st


def step(state: SimState3D, params: PhysicalParams, control: StepControl) -> SimState3D:
    """One integrating-factor Heun step: the Laplacian is integrated
    exactly per mode, everything else explicitly in two stages; evolved
    fields are re-projected and stay mean-free.  Raises CFLError (with the
    admissible dt) when the explicit stability guards reject the step, and
    FloatingPointError on non-finite fields."""
    session = StepSession(state, params, control)
    session.advance()
    return session.state()


class StepSession:
    """Long-run driver that keeps the evolved fields in compact (dealias
    band) layout between steps; state() materializes a SimState3D.

    Until the next advance() the session keeps what it has computed on
    its current fields: the stage-1 nonlinear term (rhs(), which the next
    step reuses instead of recomputing it: first same as last) and one
    mag2 per field key of hs2(), so a curl and a magnitude are formed
    once per step whatever the number of orders asked for.  The fields
    must therefore only be replaced, never changed in place."""

    def __init__(self, state: SimState3D, params: PhysicalParams, control: StepControl):
        self.params = params
        self.control = control
        self.extended = state.extended
        self.sp = get_stepper(state.grid, params, control.dt, state.extended)
        self.fields = [self.sp.gather(state.u.c), self.sp.gather(state.B.c)]
        if state.extended:
            self.fields.append(self.sp.gather(state.v.c))
        self.t = state.t
        self._stage1 = None
        self._mag2: dict[str, np.ndarray] = {}

    def rhs(self) -> tuple:
        """The stage-1 output of _Stepper3D.nonlinear on the current fields,
        (Nu, NB[, Nv], max|u|, max|B|); computed once per step."""
        if self._stage1 is None:
            self._stage1 = self.sp.nonlinear(*self.fields)
        return self._stage1

    def advance(self) -> None:
        stage1 = self.rhs()
        self._stage1, self._mag2 = None, {}
        self.fields = self.sp.advance(self.fields, self.control, stage1)
        self.t += self.control.dt

    def state(self) -> SimState3D:
        u = self.sp.scatter_field(self.fields[0])
        B = self.sp.scatter_field(self.fields[1])
        v = self.sp.scatter_field(self.fields[2]) if self.extended else None
        return SimState3D(self.t, u, B, v)

    def hs2(self, which: str, s: float) -> float:
        """Squared H^s norm of one evolved field ('u', 'B', 'v'), of the
        recomputed electron velocity 'v_of_uB', or of the vorticity
        'curl_u' or the current 'curl_B'."""
        sp = self.sp
        mag2 = self._mag2.get(which)
        if mag2 is None:
            u, B = self.fields[:2]
            comps = {
                "u": lambda: u, "B": lambda: B,
                "v_of_uB": lambda: u - self.params.eps * sp._curl(B),
                "curl_u": lambda: sp._curl(u), "curl_B": lambda: sp._curl(B),
            }
            if self.extended:
                comps["v"] = lambda: self.fields[2]
            comp = comps.get(which)
            if comp is None:
                raise ValueError(f"unknown field {which!r}")
            mag2 = self._mag2[which] = sp.mag2(comp())
        return sp.sum_hs2(mag2, s)

    def finite(self) -> bool:
        return all(np.all(np.isfinite(f)) for f in self.fields)


# initial data -----------------------------------------------------------

def abc_field(grid: GridSpec, amplitude: float = 1.0) -> SpectralField:
    """The curl eigenfield (sin x3 + cos x2, sin x1 + cos x3, sin x2 + cos x1)
    scaled by `amplitude`; curl w = w, so every quadratic Hall-MHD term
    vanishes on it and it evolves by pure heat decay."""
    x1, x2, x3 = grid.coordinates()
    vals = amplitude * np.stack([
        np.sin(x3) + np.cos(x2),
        np.sin(x1) + np.cos(x3),
        np.sin(x2) + np.cos(x1),
    ])
    return SpectralField.from_physical(grid, vals)


def taylor_green(grid: GridSpec, amplitude: float = 1.0) -> SpectralField:
    x1, x2, x3 = grid.coordinates()
    vals = amplitude * np.stack([
        np.sin(x1) * np.cos(x2) * np.cos(x3),
        -np.cos(x1) * np.sin(x2) * np.cos(x3),
        np.zeros_like(x1),
    ])
    return SpectralField.from_physical(grid, vals)


def make_initial(grid: GridSpec, kind: str, amplitude: float, seed: int | None = None,
                 lo: float = 1.0, hi: float = 2.5) -> tuple[SpectralField, SpectralField]:
    """Initial (u0, B0): divergence-free, mean-free, Hermitian.

    kinds: 'beltrami' (u0 = 0, B0 = amplitude * ABC), 'random_band'
    (seeded, u0 and B0 each normalized to H^{1/2} norm = amplitude),
    'taylor_green' (u0 = amplitude * TG vortex, B0 = 0), 'zero'.
    """
    if kind == "zero":
        return SpectralField.zeros(grid), SpectralField.zeros(grid)
    if amplitude <= 0:
        raise ValueError(f"amplitude must be positive, got {amplitude}")
    if kind == "beltrami":
        return SpectralField.zeros(grid), abc_field(grid, amplitude)
    if kind == "taylor_green":
        return taylor_green(grid, amplitude), SpectralField.zeros(grid)
    if kind == "random_band":
        if seed is None:
            raise ValueError("random_band initial data needs a seed")
        u0 = random_field(grid, lo, hi, seed=seed, divfree=True)
        B0 = random_field(grid, lo, hi, seed=seed + 1, divfree=True)
        nu0 = hs_norm(u0, 0.5)
        nb0 = hs_norm(B0, 0.5)
        return (
            u0 * (amplitude / nu0 if nu0 > 0 else 0.0),
            B0 * (amplitude / nb0 if nb0 > 0 else 0.0),
        )
    raise ValueError(f"unknown initial-data kind {kind!r}")
