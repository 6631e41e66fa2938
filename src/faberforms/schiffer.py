"""The cap-to-surface integral operator, by area quadrature and by the
contour reduction.

The operator takes conjugate-analytic data on the caps to a holomorphic
coefficient on the complement: with K the Schiffer kernel,

    (T datum)(z) = - sum_k  integral over cap k of  K(w, z) * datum  dA(w),

pulled back to the unit disk through each cap map. For the monomial datum
of order m on cap k the integrand is holomorphic in an annulus, so the
area integral collapses to a circle integral (the contour route); both are
implemented and tested against each other. The contour route is the
default evaluation path: it is spectrally accurate and much cheaper.

The default contour read sits on a radius that steps up with the order
(``contour_radius``) and uses a node count sized to that radius
(``contour_nodes``): the smallest of 64, 128 and 256 nodes whose
trapezoid aliasing factor r0^n is at most 1e-19, else 256. The factor
bounds the error for points whose preimage under the cap map has modulus
at least 1, and stays near it down to 0.95, the inner measuring circle
of the series; reads deeper inside a cap pass their own node count.
"""

from __future__ import annotations

import numpy as np

from .conformal import winding_number
from .numerics import TWO_PI, DiskGrid, NumericalError, ValidationError
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
        if m < 1:
            raise ValidationError(f"monomial datum needs m >= 1, got {m}")

        def b(zeta, m=m):
            return m * np.asarray(zeta, dtype=complex) ** (m - 1)

        return cls({k: b})

    @classmethod
    def linear(cls, terms) -> "CapDatum":
        """Linear combination sum_j c_j datum_j.

        The combination acts on the d(conj zeta) coefficients; since those
        are conj(b_k), the stored analytic parts pick up conj(c_j).
        """
        merged: dict = {}
        for c, datum in terms:
            cbar = np.conj(complex(c))
            for k, fn in datum.analytic.items():
                prev = merged.get(k)
                if prev is None:
                    merged[k] = (
                        lambda zeta, cbar=cbar, fn=fn: cbar * np.asarray(fn(zeta), dtype=complex)
                    )
                else:
                    merged[k] = (
                        lambda zeta, cbar=cbar, fn=fn, prev=prev: prev(zeta)
                        + cbar * np.asarray(fn(zeta), dtype=complex)
                    )
        return cls(merged)

    def dbar_coefficient(self, k: int, zeta) -> np.ndarray:
        """The d(conj zeta) coefficient on cap k at the disk points zeta."""
        zeta = np.asarray(zeta, dtype=complex)
        fn = self.analytic.get(k)
        if fn is None:
            return np.zeros(zeta.shape, dtype=complex)
        return np.conj(np.asarray(fn(zeta), dtype=complex))

    def caps(self):
        return sorted(self.analytic)


def _require_in_sigma(surface: SurfaceSpec, z: np.ndarray):
    zz = np.atleast_1d(z)
    ok = surface.in_sigma(zz)
    if not np.all(ok):
        j = int(np.flatnonzero(~ok)[0])
        raise ValidationError(f"evaluation point z = {zz[j]:.6g} lies inside a closed cap")


def apply_schiffer(surface: SurfaceSpec, datum, z, grid: DiskGrid | None = None,
                   check: bool = True):
    """Area-quadrature evaluation of the operator at points z in the
    cap complement.

    ``datum`` is one CapDatum, or a sequence of them: the values then
    carry a trailing axis over the data, and every cap's kernel block is
    built once per grid and shared by all of them. With ``check`` on,
    the values are recomputed on a 1.5x refined grid and a disagreement
    beyond 1e-8 for any datum raises; this is the self-report for grids
    too coarse for the datum's oscillation.
    """
    single = isinstance(datum, CapDatum)
    data = [datum] if single else list(datum)
    grid = DiskGrid() if grid is None else grid
    zz = np.atleast_1d(np.asarray(z, dtype=complex))
    _require_in_sigma(surface, zz)
    val = _apply_area(surface, data, zz, grid)
    if check:
        ref = _apply_area(surface, data, zz, grid.refined())
        for j in range(len(data)):
            err = float(np.max(np.abs(val[:, j] - ref[:, j])))
            if err > 1e-8 * max(1.0, float(np.max(np.abs(ref[:, j])))):
                raise NumericalError(
                    f"area quadrature too coarse: refinement moved values by {err:.3e}"
                    + ("" if single else f" for datum {j}")
                )
        val = ref
    if single:
        val = val[:, 0]
        return val if np.ndim(z) else complex(val[0])
    return val if np.ndim(z) else val[0]


def _apply_area(surface, data, zz, grid):
    # values at the points zz (flat) of every datum, along a trailing axis;
    # one kernel block per cap, contracted with the weighted densities of
    # all data at once
    zeta = grid.nodes
    out = np.zeros((zz.size, len(data)), dtype=complex)
    for k in sorted({k for d in data for k in d.caps()}):
        f = surface.caps[k]
        # the kernel block first: its temporaries set the peak memory, so
        # the densities are not held while it is built
        kern = schiffer_kernel(surface, f.evaluate(zeta)[None, :], zz[:, None])
        fp = f.derivative(zeta)
        dens = np.stack([d.dbar_coefficient(k, zeta) * fp for d in data], axis=1)
        if not np.all(np.isfinite(dens)):
            raise NumericalError(f"datum not finite on cap {k}")
        out -= kern @ (grid.weights[:, None] * dens)
    return out


# Default contour radii come in steps that end at orders 6, 12, 24, 48, ...
RADIUS_STEP = 6
# Largest roundoff amplification r0^(-m) * eps a contour read may carry.
ROUNDOFF_LIMIT = 1e-8
# Node counts a default contour read may use, and the trapezoid aliasing
# factor r0^n the smallest admissible one must reach.
NODE_COUNTS = (64, 128, 256)
ALIASING_LIMIT = 1e-19


def contour_radius(m: int) -> float:
    """Default contour radius for the order-m monomial datum.

    The integrand carries zeta^(-m), which amplifies roundoff like
    r0^(-m); pushing the radius out with m keeps the amplification at a
    few orders of magnitude while staying clear of |zeta| = 1. The radius
    is a step function of m: orders up to 6, 7..12, 13..24, 25..48, ...
    share the radius e / (e + 6) of their step's last order e, that is
    0.5, 0.667, 0.8, 0.889, capped at 0.92. Every order sits on a radius
    at least as large as its own m / (m + 6), so the amplification never
    grows, and all orders of a step read one shared kernel block (see
    ``schiffer_contour``). The node count of a read at that radius is
    ``contour_nodes``: 64, 128 and 256 for the first three steps, 256
    from then on, under the same precondition on the evaluation points.
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
    0.5 -> 64, 2/3 -> 128 and 256 from 0.8 up.

    Precondition: the points read satisfy rho >= 0.95, the inner
    measuring circle of the series, where r0 = 0.5 with 64 nodes gives
    (0.5 / 0.95)^64 = 1.4e-18. Reads deeper inside a cap must pass n.
    """
    r0 = float(r0)
    for n in NODE_COUNTS:
        if r0**n <= ALIASING_LIMIT:
            return n
    return NODE_COUNTS[-1]


def schiffer_contour(surface: SurfaceSpec, k: int, m, z, r0: float | None = None,
                     n: int = 256):
    """Contour-reduced evaluation of the operator on the order-m monomial
    datum of cap k.

    Equals ``apply_schiffer`` on the cap complement and extends it
    meromorphically through cap k: the value is the circle integral

        -(pi/n) * sum_j K(f(zeta_j), z) zeta_j^(1-m) f'(zeta_j),

    on |zeta_j| = r0, valid for any z strictly outside the image of that
    circle. Radius independence on the exact annulus is a property the
    checks verify rather than assume.

    ``m`` may also be a sequence of orders that share one contour radius
    (with r0 omitted: one radius step). The kernel block K(f(zeta_j), z)
    is then built and guarded once and every order comes out of one
    matrix product, as a trailing axis over the orders. Reads whose
    roundoff amplification r0^(-m) * eps exceeds ROUNDOFF_LIMIT raise.
    """
    orders = np.atleast_1d(np.asarray(m))
    if orders.ndim != 1 or orders.size == 0 or not np.issubdtype(orders.dtype, np.integer):
        raise ValidationError(f"orders must be one integer or a flat sequence of them, got {m!r}")
    if np.any(orders < 1):
        raise ValidationError(f"monomial order must be >= 1, got {int(np.min(orders))}")
    if not 0 <= k < surface.n_caps:
        raise ValidationError(f"cap index {k} out of range")
    if r0 is None:
        radii = {contour_radius(int(mi)) for mi in orders}
        if len(radii) > 1:
            raise ValidationError(
                f"orders {orders.tolist()} span {len(radii)} default contour radii; "
                "split them by radius step or pass r0"
            )
        r0 = radii.pop()
    r0 = float(r0)
    if not 0 < r0 < 1:
        raise ValidationError(f"contour radius must sit in (0, 1), got {r0}")
    top = int(np.max(orders))
    figure = r0 ** (-top) * np.finfo(float).eps
    if figure > ROUNDOFF_LIMIT:
        raise NumericalError(
            f"order {top} on the contour radius {r0:.4g} amplifies roundoff to "
            f"r0^(-m) * eps = {figure:.2e}, above {ROUNDOFF_LIMIT:.0e}"
        )
    f = surface.caps[k]
    zz = np.asarray(z, dtype=complex)
    pts = zz.ravel()
    zeta = r0 * np.exp(1j * TWO_PI * np.arange(n) / n)
    w = f.evaluate(zeta)
    _guard_outside_contour(surface, w, pts)
    weights = -(PI / n) * zeta[:, None] ** (1 - orders[None, :]) * f.derivative(zeta)[:, None]
    vals = (schiffer_kernel(surface, w[None, :], pts[:, None]) @ weights).reshape(
        zz.shape + (orders.size,)
    )
    if np.ndim(m) == 0:
        vals = vals[..., 0]
        return vals if zz.ndim else complex(vals)
    return vals


def _guard_outside_contour(surface: SurfaceSpec, contour_image: np.ndarray, zz: np.ndarray):
    # reduce torus points into the fundamental cell before the winding test;
    # the kernel itself is elliptic, so lattice copies are legitimate inputs
    pts = zz
    if surface.genus == 1:
        x, y = surface.cell_coordinates(zz)
        pts = (x - np.floor(x)) + (y - np.floor(y)) * surface.tau
    center = np.mean(contour_image)
    scale = float(np.max(np.abs(contour_image - center)))
    tol = 1e-6 * max(scale, 1.0)
    # the sample polygon lies in the disk |w - center| <= scale, so a point
    # farther out than scale + tol is outside it and clear of it; only the
    # points nearer in are measured, with the same verdicts
    near = np.flatnonzero(np.abs(pts - center) <= scale + tol)
    gap = np.min(np.abs(contour_image[None, :] - pts[near, None]), axis=1, initial=np.inf)
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
