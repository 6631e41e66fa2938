"""The cap-to-surface integral operator, by area quadrature and by the
contour reduction.

The operator takes conjugate-analytic data on the caps to a holomorphic
coefficient on the complement: with K the Schiffer kernel,

    (T datum)(z) = - sum_k  integral over cap k of  K(w, z) * datum  dA(w),

pulled back to the unit disk through each cap map. For the monomial datum
of order m on cap k the integrand is holomorphic in an annulus, so the
area integral collapses to a circle integral (the contour route); both are
implemented and tested against each other. The contour route is the
default evaluation path: it is spectrally accurate and much cheaper. The
area route sizes its disk grid by measurement (``numerics.measured_area``):
a small affine torus cap stops at 48 x 96, a large Joukowski cap of the
sphere goes on to 162 x 324.

The default contour read sits on a radius that steps up with the order
(``contour_radius``), carries orders up to ``order_limit`` of that radius,
and uses the fewest of 64, 128, 256, 512 and 1024 nodes whose trapezoid
aliasing factor r0^n is at most 1e-19, else 1024 (``contour_nodes``).
The factor bounds the error for points whose preimage under the cap map
has modulus at least 1, and stays near it down to 0.95, the inner measuring
circle of the series; points at a smaller modulus rho take contour_nodes(r0 / rho).
A read of several orders (``faber.alpha_values``) takes the radius and
node count of its highest order: a lower order's roundoff only shrinks on
a larger radius and the aliasing does not depend on the order, so at the
0.95 circle every order of a read up to order 48 aliases like
(8/9 / 0.95)^512 = 1.6e-15.
"""

from __future__ import annotations

import numpy as np

from .conformal import nearest_distance, winding_number
from .numerics import TWO_PI, NumericalError, ValidationError, measured_area, slice_views
from .surface import SurfaceSpec, schiffer_kernel

PI = np.pi


class CapDatum:
    """Conjugate-analytic one-form data on the caps, in disk coordinates.

    ``analytic`` maps cap index -> callable b(zeta); the datum on cap k is
    conj(b_k(zeta)) d(conj zeta). Caps without an entry carry zero.
    """

    def __init__(self, analytic: dict):
        self.analytic = dict(analytic)
        for k, fn in self.analytic.items():
            if not callable(fn):
                raise ValidationError(f"datum for cap {k} is not callable")

    @classmethod
    def monomial(cls, k: int, m: int) -> "CapDatum":
        """The order-m basis datum on cap k: b(zeta) = m zeta^(m-1),
        i.e. the conjugate differential of zeta-bar^m."""
        guard_order(m)

        def b(zeta, m=m):
            return m * np.asarray(zeta, dtype=complex) ** (m - 1)

        return cls({k: b})

    @classmethod
    def linear(cls, terms) -> "CapDatum":
        """Linear combination sum_j c_j datum_j.

        The combination acts on the d(conj zeta) coefficients; since those
        are conj(b_k), the stored analytic parts pick up conj(c_j).
        """
        terms = [(np.conj(complex(c)), datum.analytic) for c, datum in terms]

        def part(k):
            fns = [(cbar, parts[k]) for cbar, parts in terms if k in parts]
            return lambda zeta: sum(cbar * np.asarray(fn(zeta), dtype=complex) for cbar, fn in fns)

        return cls({k: part(k) for k in {k for _, parts in terms for k in parts}})

    def dbar_coefficient(self, k: int, zeta) -> np.ndarray:
        """The d(conj zeta) coefficient on cap k at the disk points zeta."""
        zeta = np.asarray(zeta, dtype=complex)
        fn = self.analytic.get(k)
        if fn is None:
            return np.zeros(zeta.shape, dtype=complex)
        return np.conj(np.asarray(fn(zeta), dtype=complex))

    def caps(self):
        return sorted(self.analytic)


def apply_schiffer(surface: SurfaceSpec, datum, z):
    """Area-quadrature evaluation of the operator at points z in the
    cap complement.

    ``datum`` is one CapDatum, or a sequence of them: the values then
    carry a trailing axis over the data, and every cap's kernel block is
    built once per grid and shared by the data still open. Each datum is
    read on 1.5x refined grids until two successive reads agree to 1e-12
    relative (``numerics.measured_area``); one still moving by more than
    1e-8 at the last refinement raises, the self-report for data too
    steep for the grids.
    """
    single = isinstance(datum, CapDatum)
    data = [datum] if single else list(datum)
    for k in (k for d in data for k in d.caps()):
        surface.cap(k)
    zz = surface.require_clear(z, 0.0, "evaluation point z")
    val = measured_area(
        lambda grid, cols: _apply_area(surface, [data[j] for j in cols], zz, grid), len(data))
    if single:
        val = val[:, 0]
        return val if np.ndim(z) else complex(val[0])
    return val if np.ndim(z) else val[0]


def _apply_area(surface, data, zz, grid):
    # values at the points zz (flat) of every datum, along a trailing axis;
    # per cap, the kernel block is built in row slices of the block budget
    # and each slice is contracted with the weighted densities of all data
    zeta = grid.nodes
    out = np.zeros((zz.size, len(data)), dtype=complex)
    for k in sorted({k for d in data for k in d.caps()}):
        f = surface.caps[k]
        w = f.evaluate(zeta)[None, :]
        fp = f.derivative(zeta)
        dens = np.stack([d.dbar_coefficient(k, zeta) * fp for d in data], axis=1)
        if not np.all(np.isfinite(dens)):
            raise NumericalError(f"datum not finite on cap {k}")
        dens = grid.weights[:, None] * dens
        for rows, (kernel,) in slice_views(zz.size, zeta.size, complex):
            out[rows] -= schiffer_kernel(surface, w, zz[rows, None], kernel) @ dens
    return out


# Default contour radii come in steps that end at orders 6, 12, 24, 48, ...
RADIUS_STEP = 6
# Largest roundoff amplification r0^(-m) * eps a contour read may carry.
ROUNDOFF_LIMIT = 1e-8
# Node counts a default contour read may use, and the trapezoid aliasing
# factor r0^n the smallest admissible one must reach.
NODE_COUNTS = (64, 128, 256, 512, 1024)
ALIASING_LIMIT = 1e-19


def order_limit(r0: float) -> int:
    """The highest order a contour read on the radius r0 may carry, the
    largest m with roundoff amplification r0^(-m) * eps <= ROUNDOFF_LIMIT:
    the one limit that every guard on an order reads."""
    r0 = float(r0)
    if not 0 < r0 < 1:
        raise ValidationError(f"contour radius must sit in (0, 1), got {r0}")
    # one past the logarithm's answer, then down until the guard's own
    # figure passes, so the rounding of the logarithm cannot decide
    m = int(np.log(ROUNDOFF_LIMIT / np.finfo(float).eps) / -np.log(r0)) + 1
    while r0 ** (-m) * np.finfo(float).eps > ROUNDOFF_LIMIT:
        m -= 1
    return m


def guard_order(m, r0: float | None = None, key: str = "order"):
    """The one check of an order: refuses, naming ``key``, an order m (or
    any of a sequence of orders) below 1 or past ``order_limit(r0)``. r0
    defaults to ``contour_radius`` of the highest order, the radius its
    basis read takes."""
    orders = [int(mi) for mi in np.ravel(m)]
    if not orders:
        return
    low, high = min(orders), max(orders)
    if low < 1:
        raise ValidationError(f"{key}: must be >= 1, got {low}")
    r0 = contour_radius(high) if r0 is None else float(r0)
    top = order_limit(r0)
    if high > top:
        raise ValidationError(f"{key}: must be <= {top}, the roundoff limit of a read on the "
                              f"contour radius {r0:.4g}, got {high}")


def contour_radius(m: int) -> float:
    """Default contour radius for the order-m monomial datum.

    The integrand carries zeta^(-m), which amplifies roundoff like
    r0^(-m); pushing the radius out with m keeps the amplification at a
    few orders of magnitude while staying clear of |zeta| = 1. The radius
    is a step function of m: orders up to 6, 7..12, 13..24, 25..48, ...
    share the radius e / (e + 6) of their step's last order e, that is
    0.5, 0.667, 0.8, 0.889, capped at 0.92. Every order sits on a radius
    at least as large as its own m / (m + 6), so the amplification never
    grows; a read of several orders takes the radius of its highest one
    and shares one kernel block (see ``schiffer_contour``). The node count
    of a read at that radius is ``contour_nodes``: 64, 128, 256, 512 and
    1024 for the five steps, under the same precondition on the
    evaluation points.
    """
    end = RADIUS_STEP
    while end < m:
        end *= 2
    return float(min(max(0.5, end / (end + 6.0)), 0.92))


def contour_nodes(r0: float) -> int:
    """Default node count of a contour read on the radius r0.

    The n-node trapezoid sum on |zeta| = r0 aliases the integrand's
    Laurent terms of degree n onto the constant one; for a point z whose
    preimage f^(-1)(z) under the cap map lies at modulus rho, those
    terms fall like (r0 / rho)^n (Trefethen and Weideman, SIAM Rev. 56,
    2014). The count is the smallest of NODE_COUNTS with
    r0^n <= ALIASING_LIMIT, and the largest when none qualifies, so
    0.5 -> 64, 2/3 -> 128, 0.8 -> 256, 8/9 -> 512 and 0.92 -> 1024.

    Precondition: the points read satisfy rho >= 0.95, the inner
    measuring circle of the series, where r0 = 0.5 with 64 nodes gives
    (0.5 / 0.95)^64 = 1.4e-18. A read deeper inside a cap, down to rho,
    takes contour_nodes(r0 / rho) or passes n.
    """
    r0 = float(r0)
    for n in NODE_COUNTS:
        if r0**n <= ALIASING_LIMIT:
            return n
    return NODE_COUNTS[-1]


def schiffer_contour(surface: SurfaceSpec, k: int, m, z, r0: float | None = None,
                     n: int = 256, out=None):
    """Contour-reduced evaluation of the operator on the order-m monomial
    datum of cap k.

    Equals ``apply_schiffer`` on the cap complement and extends it
    meromorphically through cap k: the value is the circle integral

        -(pi/n) * sum_j K(f(zeta_j), z) zeta_j^(1-m) f'(zeta_j),

    on |zeta_j| = r0, valid for any z strictly outside the image of that
    circle. Radius independence on the exact annulus is a property the
    checks verify rather than assume.

    ``m`` may also be a sequence of orders that share one contour radius
    (with r0 omitted: one radius step; ``faber.alpha_values`` passes the
    radius of its highest order). The kernel block K(f(zeta_j), z)
    is then built and guarded once and every order comes out of one
    matrix product, as a trailing axis over the orders. Reads of an order
    past ``order_limit(r0)`` raise.

    The kernel block, points by the n nodes, is built in row slices of
    ``numerics.row_slices``, each written in place into one kernel buffer
    that the read allocates once (``numerics.slice_views``); each slice's
    product with the weights fills its rows of one output. The kernel
    values do not depend on the slicing. ``out``, given, is that output,
    written in place and returned: an array of the multi-order shape
    z.shape + (len(orders),), which may be a strided view such as one
    cap's columns of a larger stack.
    """
    orders = np.atleast_1d(np.asarray(m))
    if orders.ndim != 1 or orders.size == 0 or not np.issubdtype(orders.dtype, np.integer):
        raise ValidationError(f"orders must be one integer or a flat sequence of them, got {m!r}")
    f = surface.cap(k)
    if r0 is None:
        radii = {contour_radius(int(mi)) for mi in orders}
        if len(radii) > 1:
            raise ValidationError(
                f"orders {orders.tolist()} span {len(radii)} default contour radii; "
                "split them by radius step or pass r0"
            )
        r0 = radii.pop()
    r0 = float(r0)
    guard_order(orders, r0)
    zz = np.asarray(z, dtype=complex)
    pts = zz.ravel()
    shape = zz.shape + (orders.size,)
    if out is None:
        out = np.empty(shape, dtype=complex)
    elif out.shape != shape:
        raise ValidationError(f"out has shape {out.shape}; the read gives {shape}")
    # a view of out, except for a strided out over several point axes,
    # whose copy is written back at the end
    vals = out.reshape(pts.size, orders.size)
    zeta = r0 * np.exp(1j * TWO_PI * np.arange(n) / n)
    w = f.evaluate(zeta)
    _guard_outside_contour(surface, w, pts)
    weights = -(PI / n) * zeta[:, None] ** (1 - orders[None, :]) * f.derivative(zeta)[:, None]
    for rows, (kernel,) in slice_views(pts.size, n, complex):
        np.matmul(schiffer_kernel(surface, w[None, :], pts[rows, None], kernel),
                  weights, out=vals[rows])
    if not np.may_share_memory(vals, out):
        out[...] = vals.reshape(shape)
    if np.ndim(m) == 0:
        out = out[..., 0]
        return out if zz.ndim else complex(out)
    return out


def _guard_outside_contour(surface: SurfaceSpec, contour_image: np.ndarray, zz: np.ndarray):
    # the geometry reduces torus points into the fundamental cell before the
    # winding test; the kernel itself is elliptic, so lattice copies are
    # legitimate inputs
    pts = surface.geometry.reduce(zz)
    center = np.mean(contour_image)
    scale = float(np.max(np.abs(contour_image - center)))
    tol = 1e-6 * max(scale, 1.0)
    # the sample polygon lies in the disk |w - center| <= scale, so a point
    # farther out than scale + tol is outside it and clear of it; only the
    # points nearer in are measured, with the same verdicts
    near = np.flatnonzero(np.abs(pts - center) <= scale + tol)
    gap = nearest_distance(contour_image, pts[near])
    if np.any(gap < tol):
        j = int(near[np.argmin(gap)])
        raise ValidationError(f"z = {zz[j]:.6g} sits on the evaluation contour")
    inside = winding_number(contour_image, pts[near]) != 0
    if np.any(inside):
        j = int(near[np.flatnonzero(inside)[0]])
        raise ValidationError(
            f"z = {zz[j]:.6g} lies inside the evaluation contour; "
            f"shrink r0 below {float(np.abs(pts[j] - center)):.3g}"
        )
