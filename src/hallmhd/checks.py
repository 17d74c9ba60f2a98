"""The static verification suite behind the `check` CLI command: operator
identities, the Hall cancellation, norm interpolation, inequality probes
and the Gronwall verifier on closed-form traces.  No time stepping."""

from __future__ import annotations

import numpy as np

from .diagnostics import adjointness_check, cancellation_check
from .fields import SpectralField, conj_reflect, l2_inner, to_physical, to_spectral
from .grid import GridSpec
from .gronwall import GronwallTrace, gronwall_verify
from .norms import hs_norm, interpolation_check
from .operators import (
    advect,
    apply_lambda,
    band_filter,
    curl3,
    curl_inverse,
    gradient,
    leray_project,
)
from .probes import inequality_probe, kato_ponce_probe
from .sampling import random_field, random_scalar

__all__ = ["run_checks", "CHECK_TOLERANCES"]

CHECK_TOLERANCES = {
    "operators": 1e-11,
    "cancellation": 1e-12,
    "hermitian": 1e-12,
    "probe_stability": 2.0,
}


def _rel(a: np.ndarray, b: np.ndarray) -> float:
    scale = max(float(np.abs(b).max()), 1e-300)
    return float(np.abs(a - b).max()) / scale


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
        lhs = curl3(SpectralField(g, to_spectral(g, np.cross(yp, zp, axis=0))))
        rhs = advect(g, zp, yp) - advect(g, yp, zp)
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

    dc = curl3(curl3(y)).c - y.grid.k2 * y.c
    scale = max(float(np.abs(y.grid.k2 * y.c).max()), 1e-300)
    out["double_curl"] = float(np.abs(dc).max()) / scale
    return out


def operator_identity_suite(n: int = 32, fields: int = 200, seed: int = 0) -> dict:
    """Max residuals over seeded random fields for: curl^-1 o curl = id,
    Leray idempotence/self-adjointness, curl adjointness, the pointwise
    triple-product identity, the two-variable curl identity, double curl,
    and the grad/curl norm equivalence on solenoidal fields."""
    g3 = GridSpec.create(3, n)
    g2 = GridSpec.create(2, n)
    K3 = n / 4.0 - 1.0
    res = {k: 0.0 for k in (
        "curlinv_curl", "leray_idempotent", "leray_selfadjoint", "leray_kills_grad",
        "adjointness", "equivnorm", "ws6", "i1", "double_curl", "plancherel",
        "interpolation_violation",
    )}
    for i in range(fields):
        s = seed + i
        B = random_field(g3, 1.0, K3, seed=10 * s, divfree=True)
        f = random_field(g3, 1.0, K3, seed=10 * s + 1, divfree=False)
        h = random_field(g3, 1.0, K3, seed=10 * s + 2, divfree=False)

        res["curlinv_curl"] = max(res["curlinv_curl"], _rel(curl_inverse(curl3(B)).c, B.c))

        P = leray_project(f)
        res["leray_idempotent"] = max(res["leray_idempotent"], _rel(leray_project(P).c, P.c))
        ip1 = l2_inner(leray_project(f), h)
        ip2 = l2_inner(f, leray_project(h))
        den = max(hs_norm(f, 0.0) * hs_norm(h, 0.0), 1e-300)
        res["leray_selfadjoint"] = max(res["leray_selfadjoint"], abs(ip1 - ip2) / den)
        phi = random_scalar(g3, 1.0, K3, seed=10 * s + 3)
        gr = gradient(g3, phi)
        res["leray_kills_grad"] = max(
            res["leray_kills_grad"],
            float(np.abs(leray_project(gr).c).max()) / max(float(np.abs(gr.c).max()), 1e-300),
        )

        res["adjointness"] = max(res["adjointness"], adjointness_check(f, h))

        # |grad B| and |curl B| carry the same H^s weight for solenoidal B
        eq = abs(hs_norm(B, 1.5) - hs_norm(curl3(B), 0.5)) / max(hs_norm(B, 1.5), 1e-300)
        res["equivnorm"] = max(res["equivnorm"], eq)

        vals = f.to_physical()
        res["plancherel"] = max(
            res["plancherel"],
            abs(float(np.mean(np.sum(vals**2, axis=0))) - hs_norm(f, 0.0) ** 2)
            / max(hs_norm(f, 0.0) ** 2, 1e-300),
        )

        ic = interpolation_check(f, 0.0, 1.0, 0.5)
        res["interpolation_violation"] = max(
            res["interpolation_violation"],
            max(0.0, ic["lhs"] / ic["rhs"] - 1.0) if ic["rhs"] > 0 else 0.0,
        )

        y = random_field(g2, 1.0, n / 4.0 - 1.0, seed=10 * s + 4, divfree=True)
        z = random_field(g2, 1.0, n / 4.0 - 1.0, seed=10 * s + 5, divfree=True)
        a = random_field(g2, 1.0, n / 4.0 - 1.0, seed=10 * s + 6, divfree=False)
        b = random_field(g2, 1.0, n / 4.0 - 1.0, seed=10 * s + 7, divfree=False)
        c = random_field(g2, 1.0, n / 4.0 - 1.0, seed=10 * s + 8, divfree=False)
        ids = identity_suite(y, z, a, b, c)
        res["i1"] = max(res["i1"], ids["i1"])
        res["ws6"] = max(res["ws6"], ids["ws6"])
        res["double_curl"] = max(res["double_curl"], ids["double_curl"])
    return res


def hall_cancellation_suite(n: int = 32, pairs: int = 100, seed: int = 0) -> float:
    g3 = GridSpec.create(3, n)
    worst = 0.0
    for i in range(pairs):
        v = random_field(g3, 1.0, n / 3.0, seed=seed + 2 * i, divfree=True)
        B = random_field(g3, 1.0, n / 3.0, seed=seed + 2 * i + 1, divfree=True)
        worst = max(worst, cancellation_check(v, B))
    return worst


def hermitian_suite(n: int = 16, fields: int = 20, seed: int = 0) -> float:
    """Explicit Hermitian-symmetry residual of random fields and of a few
    derived quantities (the storage makes it structural off the
    self-conjugate planes; those planes are verified directly)."""
    g = GridSpec.create(3, n)
    worst = 0.0
    for i in range(fields):
        f = random_field(g, 1.0, n / 3.0, seed=seed + i, divfree=False)
        for probe in (f, curl3(f), leray_project(f), apply_lambda(f, 0.7),
                      band_filter(f, 1.0, 3.0)):
            for plane in (0, g.n // 2):
                pl = probe.c[..., plane]
                worst = max(worst, float(np.abs(pl - conj_reflect(g, pl)).max()))
    return worst


def gronwall_suite() -> dict:
    """The three closed-form traces: exponential decay with margin, the
    marginal W = 0 restatement, and a violated smallness condition."""
    t = np.linspace(0.0, 3.0, 301)
    x0 = 0.7
    a = gronwall_verify(GronwallTrace(t, x0 * np.exp(-t), np.sqrt(2.0) * x0 * np.exp(-t),
                                      np.zeros_like(t), C=0.5, alpha=1.0))
    b = gronwall_verify(GronwallTrace(t, x0 / np.sqrt(1.0 + t), x0 / (1.0 + t),
                                      np.zeros_like(t), C=0.1, alpha=2.0))
    c = gronwall_verify(GronwallTrace(t, x0 * np.exp(-t), np.sqrt(2.0) * x0 * np.exp(-t),
                                      np.zeros_like(t), C=40.0, alpha=1.0))
    return {
        "decay_trace": a,
        "marginal_trace": b,
        "violated_trace": c,
        "pass": bool(
            a["condition_7200"] and a["bound_7300_holds"] and a["margin"] > 0
            and b["condition_7200"] and b["bound_7300_holds"]
            and not c["condition_7200"] and c["bound_7300_holds"] is None
        ),
    }


def run_checks(n: int = 32, fields: int = 200, pairs: int = 100, seed: int = 0,
               probe_samples: int = 10, emit=print) -> bool:
    """Full static suite; prints one pass/fail line per block and returns
    overall success.  Raises ValueError on a sample count below 1: a
    suite over no samples would pass on nothing."""
    for name, count in (("fields", fields), ("pairs", pairs), ("probe samples", probe_samples)):
        if count < 1:
            raise ValueError(f"need at least one of {name}, got {count}")
    ok = True
    ops = operator_identity_suite(n=n, fields=fields, seed=seed)
    residuals = [(f"operator {name}", "operators", value) for name, value in sorted(ops.items())]
    residuals += [("hall cancellation", "cancellation",
                   hall_cancellation_suite(n=n, pairs=pairs, seed=seed)),
                  ("hermitian symmetry", "hermitian", hermitian_suite())]
    for name, key, value in residuals:
        tol = CHECK_TOLERANCES[key]
        good = value <= tol
        ok &= good
        emit(f"[{'PASS' if good else 'FAIL'}] {name}: max residual {value:.3e} (tol {tol:.0e})")

    tol = CHECK_TOLERANCES["probe_stability"]
    for iid in ("em", "gn1", "gn2", "product"):
        lo = inequality_probe(iid, probe_samples, 32, seed=seed)
        hi = inequality_probe(iid, probe_samples, 64, seed=seed)
        top, bot = max(lo.max_ratio, hi.max_ratio), min(lo.max_ratio, hi.max_ratio)
        stab = top / bot if bot > 0 else np.inf
        good = np.isfinite(top) and stab <= tol
        ok &= good
        emit(f"[{'PASS' if good else 'FAIL'}] probe {iid}: max ratio {top:.4f}, "
             f"stability x{stab:.2f} (tol x{tol:g})")

    kp = kato_ponce_probe(1.0, 2.0, 4.0, 4.0, 4.0, 4.0, samples=probe_samples,
                          resolution=32, seed=seed)
    good = all(np.isfinite(r.max_ratio) and r.max_ratio > 0 for r in kp.values())
    ok &= good
    emit(f"[{'PASS' if good else 'FAIL'}] kato-ponce: commutator {kp['commutator'].max_ratio:.4f}, "
         f"product {kp['product'].max_ratio:.4f}")

    gw = gronwall_suite()
    ok &= gw["pass"]
    emit(f"[{'PASS' if gw['pass'] else 'FAIL'}] gronwall verifier: margin {gw['decay_trace']['margin']:.3e}, "
         f"violated-condition trace not asserted: {gw['violated_trace']['bound_7300_holds'] is None}")

    emit(f"[{'PASS' if ok else 'FAIL'}] check suite overall")
    return bool(ok)
