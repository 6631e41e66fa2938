"""Runtime verification checks and their catalog.

Each check measures one defining property of the construction on the
configured surface and returns a CheckResult with the measured value and
the threshold it was held to. The catalog names are the exact strings a
config's run.checks list may use.
"""

from __future__ import annotations

from dataclasses import dataclass

import numpy as np

from .faber import principal_parts
from .numerics import DiskGrid, NumericalError, ValidationError
from .schiffer import CapDatum, apply_schiffer, schiffer_contour
from .series import invariance_check
from .surface import SurfaceSpec, green, schiffer_kernel
from .targets import build_target


@dataclass(frozen=True)
class CheckResult:
    name: str
    passed: bool
    value: float
    threshold: float
    detail: str = ""


def _sample_points(surface: SurfaceSpec, rng, count: int, clearance: float):
    """Points of the cap complement with a stated clearance, reproducible
    from the rng state."""
    pts = []
    if surface.genus == 1:
        tau = surface.tau
        while len(pts) < count:
            z = rng.uniform(0.02, 0.98) + rng.uniform(0.02, 0.98) * tau
            if surface.in_sigma(z) and float(surface.distance_to_caps_reduced(z)[0]) > clearance:
                pts.append(z)
    else:
        centers = np.asarray(surface.caps.centers)
        mid = complex(np.mean(centers))
        span = 2.0 + float(np.max(np.abs(centers - mid)))
        while len(pts) < count:
            z = mid + complex(rng.uniform(-span, span), rng.uniform(-span, span))
            if surface.in_sigma(z) and float(surface.caps.distance_to_caps(z)) > clearance:
                pts.append(z)
    return np.array(pts)


def check_pole_structure(ctx) -> CheckResult:
    """Pullback tail of each cap form: coefficient m at -(m+1), nothing deeper."""
    surface = ctx.surface
    worst = 0.0
    orders = range(1, ctx.pole_orders + 1)
    for k in range(surface.n_caps):
        # every order of the cap from one contour kernel block
        parts = principal_parts(surface, k, orders, n=1024, contour_nodes=384)
        for m, (tail, _head) in zip(orders, parts):
            worst = max(worst, abs(tail.coefficients[m] - m))
            worst = max(worst, float(np.max(np.abs(tail.coefficients[m + 1:]))))
    return CheckResult("pole-structure", worst < 1e-7, worst, 1e-7,
                       f"caps 0..{surface.n_caps - 1}, orders 1..{ctx.pole_orders}")


def _separation(surface: SurfaceSpec, w, marks) -> float:
    """Smallest distance from w to any marked point, over lattice copies
    on the torus."""
    w = complex(w)
    if surface.genus == 1:
        tau = surface.tau
        shifts = [dx + dy * tau for dx in (-1, 0, 1) for dy in (-1, 0, 1)]
    else:
        shifts = [0.0]
    return min(abs(w + s - m) for m in marks for s in shifts)


def check_harmonicity(ctx) -> CheckResult:
    """Five-point Laplacian of the Green's function away from its singularities."""
    surface = ctx.surface
    rng = np.random.default_rng(ctx.seed)
    h = 3e-4
    if surface.genus == 1:
        z = 0.5 * (1.0 + surface.tau) + 0.06
        q = surface.q
    else:
        z = complex(np.mean(np.asarray(surface.caps.centers))) + 0.31j
        q = z + 1.7 - 0.9j
    pts = []
    while len(pts) < ctx.samples:
        w = _sample_points(surface, rng, 1, clearance=0.0)[0]
        if _separation(surface, w, (z, q)) > 0.25:
            pts.append(w)
    pts = np.array(pts)
    stencil = np.stack([pts + h, pts - h, pts + 1j * h, pts - 1j * h, pts], axis=1)
    vals = green(surface, stencil, z, q=q)
    lap = (np.sum(vals[:, :4], axis=1) - 4.0 * vals[:, 4]) / h**2
    worst = float(np.max(np.abs(lap.real)))
    return CheckResult("harmonicity", worst < 1e-4, worst, 1e-4,
                       f"{ctx.samples} points, step {h:g}")


def _alternative_q(surface: SurfaceSpec) -> SurfaceSpec:
    """The same surface with a genuinely different base point."""
    if surface.genus == 1:
        candidates = [
            surface.q + off
            for off in (
                0.13 + 0.09 * surface.tau,
                -0.17 + 0.11 * surface.tau,
                0.23 - 0.13 * surface.tau,
                -0.11 - 0.19 * surface.tau,
            )
        ]
    else:
        anchor = surface.q if surface.q is not None else surface.w0
        candidates = [anchor + off for off in (3.1 + 2.3j, -2.9 + 3.3j, 2.7 - 3.1j)]
    for cand in candidates:
        try:
            if surface.genus == 1:
                return SurfaceSpec.torus(surface.tau, surface.caps, q=cand,
                                         w0=surface.w0, margin=surface.margin)
            return SurfaceSpec.sphere(surface.caps, q=cand, w0=surface.w0)
        except ValidationError:
            continue
    raise NumericalError("no admissible alternative base point found")


def check_q_independence(ctx) -> CheckResult:
    """The kernel must not feel the auxiliary base point."""
    surface = ctx.surface
    rng = np.random.default_rng(ctx.seed + 1)
    alt = _alternative_q(surface)
    w = _sample_points(surface, rng, ctx.samples, clearance=0.05)
    z = _sample_points(surface, rng, ctx.samples, clearance=0.05)
    keep = np.abs(w - z) > 0.1
    w, z = w[keep], z[keep]
    worst = float(np.max(np.abs(
        schiffer_kernel(surface, w, z) - schiffer_kernel(alt, w, z)
    )))
    return CheckResult("q-independence", worst < 1e-9, worst, 1e-9,
                       f"{w.size} point pairs")


def check_r0_independence(ctx) -> CheckResult:
    """Contour evaluation: radius-independent and equal to area quadrature."""
    surface = ctx.surface
    rng = np.random.default_rng(ctx.seed + 2)
    # the area integrand steepens near large caps, so keep the evaluation
    # points clear in proportion to cap size and refine the grid
    extent = max(
        float(np.max(np.abs(surface.caps.boundary_samples(k) - surface.caps.centers[k])))
        for k in range(surface.n_caps)
    )
    pts = _sample_points(surface, rng, 20, clearance=max(0.25, 0.35 * extent))
    grid = DiskGrid(64, 128)
    worst_r = 0.0
    worst_a = 0.0
    orders = (1, 2, 3)
    for k in range(surface.n_caps):
        # every read carries a trailing axis over the orders: one contour
        # kernel block per radius and one area kernel block per grid
        vals = [schiffer_contour(surface, k, orders, pts, r0=r) for r in (0.4, 0.6, 0.8)]
        for i in range(3):
            for j in range(i):
                worst_r = max(worst_r, float(np.max(np.abs(vals[i] - vals[j]))))
        area = apply_schiffer(surface, [CapDatum.monomial(k, m) for m in orders], pts, grid=grid)
        worst_a = max(worst_a, float(np.max(np.abs(area - vals[1]))))
    passed = worst_r < 1e-9 and worst_a < 1e-8
    return CheckResult("r0-independence", passed, max(worst_r, worst_a), 1e-8,
                       f"radius spread {worst_r:.3e}, area gap {worst_a:.3e}")


def check_convergence(ctx) -> CheckResult:
    """L2 residual history: nonincreasing, final value under tolerance."""
    hist = ctx.decomposition.residual_history
    final = hist[-1][1]
    monotone = all(
        hist[i + 1][1] <= hist[i][1] + 1e-10 for i in range(len(hist) - 1)
    )
    passed = monotone and final < ctx.l2_tolerance
    trail = ", ".join(f"M={m}: {r:.3e}" for m, r in hist)
    return CheckResult("convergence", passed, final, ctx.l2_tolerance, trail)


def check_uniform_convergence(ctx) -> CheckResult:
    """Sup error on the probe circle: decreasing in M, final under tolerance.

    The errors at the checkpoint orders are the ones the runner measured
    for residuals.csv."""
    orders = [m for m, _ in ctx.decomposition.residual_history]
    errs = list(ctx.sup_errors)
    final = errs[-1]
    # once under tolerance the sequence may sit on the roundoff floor, so
    # strict decrease is only demanded above it
    decreasing = all(
        errs[i + 1] < max(errs[i], ctx.sup_tolerance) for i in range(len(errs) - 1)
    )
    passed = decreasing and final < ctx.sup_tolerance
    trail = ", ".join(f"M={m}: {e:.3e}" for m, e in zip(orders, errs))
    return CheckResult("uniform convergence", passed, final, ctx.sup_tolerance, trail)


def check_invariance(ctx) -> CheckResult:
    """Coefficients must survive a translation carrying caps to caps."""
    dev = invariance_check(
        ctx.surface,
        lambda s: build_target(s, ctx.target_family, **ctx.target_params),
        ctx.translation,
        M=ctx.invariance_order,
        checkpoints=(),
    )
    return CheckResult("invariance", dev < 1e-8, dev, 1e-8,
                       f"translation {ctx.translation}")


CHECKS = {
    "pole-structure": (
        check_pole_structure,
        "the order-m cap form pulls back to (m/zeta^(m+1) + holomorphic) dzeta",
    ),
    "harmonicity": (
        check_harmonicity,
        "the bipolar Green's function is harmonic away from its two logarithmic points",
    ),
    "q-independence": (
        check_q_independence,
        "the mixed second derivative of the Green's function forgets the base point q",
    ),
    "r0-independence": (
        check_r0_independence,
        "contour evaluation of the operator is radius-free and matches area quadrature",
    ),
    "convergence": (
        check_convergence,
        "the L2 residual of the truncated decomposition is nonincreasing in the order",
    ),
    "uniform convergence": (
        check_uniform_convergence,
        "partial sums converge in sup norm on compact sets away from the caps",
    ),
    "invariance": (
        check_invariance,
        "decomposition coefficients are unchanged under translations carrying caps to caps",
    ),
}


def catalog() -> str:
    lines = []
    for name, (_fn, anchor) in CHECKS.items():
        lines.append(f"{name:22s} {anchor}")
    return "\n".join(lines)
