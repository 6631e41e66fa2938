"""Runtime verification checks and their catalog.

Each check measures one defining property of the construction on the
configured surface and hands its figures and bounds to one verdict rule,
which returns a CheckResult with the measured value and the threshold it
was held to. The catalog names are the exact strings a config's
run.checks list may use.
"""

from __future__ import annotations

from dataclasses import dataclass

import numpy as np

from .faber import faber_form, principal_part
from .numerics import NumericalError, Pcg64Stream, ValidationError
from .schiffer import CapDatum, apply_schiffer, schiffer_contour
from .series import coefficient_deviations, project_faber
from .surface import SurfaceSpec, green
from .targets import build_target


@dataclass(frozen=True)
class CheckResult:
    name: str
    passed: bool
    value: float
    threshold: float
    detail: str = ""


def _verdict(name: str, figures: dict, detail, steps=(), rule=None) -> CheckResult:
    """The pass rule of every check: each figure of ``figures`` (label ->
    (value, bound)) under its bound, and the values of the (label, value)
    ``steps`` keeping rule(previous, next). A figure or step that is not
    finite raises NumericalError naming it. Reports the figure nearest its
    own bound; ``detail`` is text, or a function of that figure's label."""
    for label, value in [(label, v) for label, (v, _b) in figures.items()] + list(steps):
        if not np.isfinite(value):
            raise NumericalError(f"{label} is not finite")
    labels, (values, bounds) = list(figures), np.array(list(figures.values())).T
    i = int(np.argmax(values / bounds))
    seq = [value for _label, value in steps]
    passed = bool(np.all(values < bounds)) and all(map(rule, seq, seq[1:]))
    return CheckResult(name, passed, float(values[i]), float(bounds[i]),
                       detail if isinstance(detail, str) else detail(labels[i]))


SAMPLE_POINTS = 100  # random points of the harmonicity and q-independence checks

# candidates a sampling call tests per point it asks for before it gives
# up on the region; the shipped configs and benchmark inputs test at most 5
_CANDIDATES_PER_POINT = 1000


def _sample_points(surface: SurfaceSpec, rng: Pcg64Stream, count: int, clearance: float,
                   accept=None):
    """Points of the cap complement with a stated clearance, drawn from the
    geometry's ``sample_region`` and reproducible from the stream's state;
    ``accept(z)``, given, is a further vectorized test. A region that
    yields fewer than ``count`` points within ``count *
    _CANDIDATES_PER_POINT`` candidates raises ValidationError.

    Candidates are drawn and tested a batch at a time, but the accepted
    points, and the stream state left behind, are those of drawing and
    testing one candidate at a time until ``count`` pass.
    """
    origin, lo, hi, step = surface.geometry.sample_region(clearance)
    pts, tested = [], 0
    while len(pts) < count:
        if tested >= count * _CANDIDATES_PER_POINT:
            raise ValidationError(
                f"found {len(pts)} of {count} sample points with clearance {clearance:g} "
                f"from the caps in {tested} candidates")
        state = rng.state
        # surplus candidates cost only their tests, as the rewind below
        # undoes their draws; real and imaginary parts alternate
        batch = max(16, 2 * (count - len(pts)))
        u = rng.uniform(lo, hi, 2 * batch)
        tested += batch
        z = origin + u[0::2] + u[1::2] * step
        ok = surface.in_sigma(z) & (surface.distance_to_caps_reduced(z) > clearance)
        if accept is not None:
            ok &= accept(z)
        hits = np.flatnonzero(ok)[:count - len(pts)]
        pts.extend(z[hits])
        if len(pts) == count:
            # rewind to just past the last accepted candidate's draws
            rng.state = state
            rng.uniform(lo, hi, 2 * (int(hits[-1]) + 1))
    return np.array(pts)


def check_pole_structure(ctx) -> CheckResult:
    """Pullback tail of each cap form: coefficient m at -(m+1), nothing deeper."""
    surface = ctx.surface
    gaps = []
    orders = range(1, ctx.pole_orders + 1)
    for k in range(surface.n_caps):
        # every order of the cap from one contour kernel block
        parts = principal_part(surface, [faber_form(surface, k, m) for m in orders])
        for m, (tail, _head) in zip(orders, parts):
            gaps.append(abs(tail.coefficients[m] - m))
            gaps.append(np.max(np.abs(tail.coefficients[m + 1:])))
    return _verdict("pole-structure", {"tail": (np.max(gaps), 1e-7)},
                    f"caps 0..{surface.n_caps - 1}, orders 1..{ctx.pole_orders}")


def _second_base_point(surface: SurfaceSpec) -> complex:
    """A base point of the surface other than its q: the clear point
    farthest from q and w0."""
    return surface.clear_point(avoid=(surface.q, surface.w0))


def check_harmonicity(ctx) -> CheckResult:
    """Five-point Laplacian of the Green's function away from its singularities."""
    surface = ctx.surface
    rng = Pcg64Stream(ctx.seed)
    h = 3e-4
    q = _second_base_point(surface)
    z = surface.clear_point(avoid=(q, surface.w0))
    pts = _sample_points(surface, rng, SAMPLE_POINTS, clearance=0.0,
                         accept=lambda w: surface.distance(w, (z, q)) > 0.25)
    stencil = np.stack([pts + h, pts - h, pts + 1j * h, pts - 1j * h, pts], axis=1)
    vals = green(surface, stencil, z, q=q)
    lap = (np.sum(vals[:, :4], axis=1) - 4.0 * vals[:, 4]) / h**2
    return _verdict("harmonicity", {"Laplacian": (np.max(np.abs(lap.real)), 1e-4)},
                    f"{SAMPLE_POINTS} points, step {h:g}")


def check_q_independence(ctx) -> CheckResult:
    """The kernel, the Green's function's mixed derivative, must not feel
    the base point: the difference D(w, z) of the Green's functions of two
    base points is then a function of w alone, so the value is the largest
    |D(w, z_i) - D(w, z_0) - D(w_0, z_i) + D(w_0, z_0)| over the samples."""
    surface = ctx.surface
    rng = Pcg64Stream(ctx.seed + 1)
    alt = _second_base_point(surface)
    # both Green's functions are finite away from z, both q and w0
    bases = tuple(q for q in (surface.q, alt) if q is not None)
    z = _sample_points(surface, rng, 4, clearance=0.05,
                       accept=lambda v: surface.distance(v, bases + (surface.w0,)) > 0.1)
    w = _sample_points(surface, rng, SAMPLE_POINTS, clearance=0.05,
                       accept=lambda v: surface.distance(v, bases + tuple(z)) > 0.1)
    d = np.stack([green(surface, w, zi) - green(surface, w, zi, q=alt) for zi in z], axis=1)
    worst = np.max(np.abs(d - d[:, :1] - d[:1, :] + d[0, 0]))
    return _verdict("q-independence", {"double difference": (worst, 1e-9)},
                    f"{w.size} points w, {z.size} points z")


def check_r0_independence(ctx) -> CheckResult:
    """Contour evaluation: radius-independent and equal to area quadrature."""
    surface = ctx.surface
    rng = Pcg64Stream(ctx.seed + 2)
    # the area integrand steepens near large caps, so keep the evaluation
    # points clear in proportion to cap size
    extent = max(
        float(np.max(np.abs(surface.caps.boundary_samples(k) - surface.caps.centers[k])))
        for k in range(surface.n_caps)
    )
    pts = _sample_points(surface, rng, 20, clearance=max(0.25, 0.35 * extent))
    spreads, gaps = [], []
    orders = (1, 2, 3)
    for k in range(surface.n_caps):
        # every read carries a trailing axis over the orders: one contour
        # kernel block per radius and one area kernel block per grid
        vals = np.stack([schiffer_contour(surface, k, orders, pts, r0=r) for r in (0.4, 0.6, 0.8)])
        spreads.append(np.max(np.abs(vals[:, None] - vals[None, :])))
        area = apply_schiffer(surface, [CapDatum.monomial(k, m) for m in orders], pts)
        gaps.append(np.max(np.abs(area - vals[1])))
    spread, gap = np.max(spreads), np.max(gaps)
    return _verdict("r0-independence", {"radius spread": (spread, 1e-9), "area gap": (gap, 1e-8)},
                    f"radius spread {spread:.3e}, area gap {gap:.3e}")


def check_convergence(ctx) -> CheckResult:
    """L2 residual history: nonincreasing, final value under tolerance."""
    hist = ctx.decomposition.residual_history
    steps = [(f"L2 residual at M={m}", r) for m, r in hist]
    label, final = steps[-1]
    return _verdict("convergence", {label: (final, ctx.l2_tolerance)},
                    ", ".join(f"M={m}: {r:.3e}" for m, r in hist),
                    steps, lambda a, b: b <= a + 1e-10)


def check_uniform_convergence(ctx) -> CheckResult:
    """Sup error on the probe circle: decreasing in M, final under tolerance.

    The errors at the checkpoint orders are the ones the runner measured
    for residuals.csv."""
    orders = [m for m, _ in ctx.decomposition.residual_history]
    tol = ctx.sup_tolerance
    steps = [(f"sup error at M={m}", e) for m, e in zip(orders, ctx.sup_errors)]
    label, final = steps[-1]
    # once under tolerance the sequence may sit on the roundoff floor, so
    # strict decrease is only demanded above it
    return _verdict("uniform convergence", {label: (final, tol)},
                    ", ".join(f"M={m}: {e:.3e}" for m, e in zip(orders, ctx.sup_errors)),
                    steps, lambda a, b: b < a or b < tol)


def check_invariance(ctx) -> CheckResult:
    """The reported coefficients must survive a translation carrying caps
    to caps: the target built on the moved surface is decomposed there at
    the run's order and condition limit and compared with the reported
    decomposition, checkpoints included."""
    dec = ctx.decomposition
    moved = ctx.surface.translated(ctx.translation)
    target = build_target(moved, ctx.target_family, **ctx.target_params)
    devs = coefficient_deviations(
        dec, project_faber(target, moved, dec.M, condition_limit=ctx.condition_limit))
    return _verdict("invariance", {name: (dev, 1e-8) for name, dev in devs.items()},
                    lambda worst: f"translation {ctx.translation}, M={dec.M}, worst in {worst}")


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
