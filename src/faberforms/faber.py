"""Per-cap basis forms and the classical polynomial family on the sphere.

The order-m basis form of cap k is the operator image of the order-m
monomial datum on that cap. It is stored as a contour evaluator valid on
the whole surface minus the cap center, where it has a single pole of
order m + 1 whose leading pullback coefficient is exactly m; the
``principal_part`` reader verifies that expansion numerically. On a
sphere with one cap the same data has a second, independent description
through the classical polynomial family Phi^m, a finite tail in
1/(z - center); its z-derivative must reproduce the basis form, and the
tests hold the two constructions against each other.
"""

from __future__ import annotations

from dataclasses import dataclass

import numpy as np

from .conformal import ConformalMap
from .numerics import (
    TWO_PI,
    NumericalError,
    PowerSeries,
    ValidationError,
    laurent_from_samples,
)
from .schiffer import contour_nodes, contour_radius, schiffer_contour
from .surface import OneForm, SurfaceSpec, beta_form, gamma_basis

# Coefficient magnitudes in the principal-part read grow like (1/rho)^m,
# so double precision runs out of headroom for very large m. The default
# ceiling is generous for the read radius 0.5; raise it per call when a
# long series truncation needs higher orders through a larger contour.
DEFAULT_MAX_ORDER = 24


@dataclass(frozen=True)
class LaurentTail:
    """A finite principal part: coefficients[j-1] multiplies (z - center)^-j."""

    center: complex
    coefficients: tuple

    def __post_init__(self):
        object.__setattr__(self, "center", complex(self.center))
        object.__setattr__(self, "coefficients", tuple(complex(c) for c in self.coefficients))

    @property
    def order(self) -> int:
        return len(self.coefficients)

    def __call__(self, z):
        z = np.asarray(z, dtype=complex)
        u = 1.0 / (z - self.center)
        out = np.zeros(z.shape, dtype=complex)
        for c in reversed(self.coefficients):
            out = (out + c) * u
        return out if z.ndim else complex(out)

    def derivative(self) -> "LaurentTail":
        coeffs = [0.0] + [-j * c for j, c in enumerate(self.coefficients, start=1)]
        return LaurentTail(self.center, coeffs)


@dataclass(frozen=True)
class FaberBasisElement:
    """One member of the decomposition basis with its construction record.

    tag is "alpha" (cap + order set), "beta" (cap set), or "gamma".
    """

    tag: str
    form: OneForm
    cap: int | None = None
    order: int | None = None
    method: str = ""
    quadrature: tuple = ()


def faber_form(surface: SurfaceSpec, k: int, m: int, r0: float | None = None,
               n: int | None = None, max_order: int = DEFAULT_MAX_ORDER) -> FaberBasisElement:
    """The order-m basis form of cap k, as a contour evaluator on the
    surface minus the cap center.

    The read sits on ``contour_radius(m)`` unless r0 is given, with
    ``contour_nodes`` of that radius unless n is given; ``quadrature``
    records both. The default count assumes the points read satisfy
    |f^(-1)(z)| >= 0.95 (see ``contour_nodes``). Points inside the
    evaluation contour itself are rejected by the underlying quadrature;
    shrink r0 to evaluate deeper into the cap, and pass n with it.
    """
    _check_order(m, max_order)
    if not 0 <= k < surface.n_caps:
        raise ValidationError(f"cap index {k} out of range")
    rr = contour_radius(m) if r0 is None else float(r0)
    nn = contour_nodes(rr) if n is None else int(n)

    def ev(z, surface=surface, k=k, m=m, rr=rr, nn=nn):
        return schiffer_contour(surface, k, m, z, r0=rr, n=nn)

    form = OneForm(ev, conjugate=False, poles=((surface.caps[k].center, m + 1),),
                   label=f"alpha[{k},{m}]")
    return FaberBasisElement("alpha", form, cap=k, order=m, method="contour",
                             quadrature=(("r0", rr), ("nodes", nn)))


def alpha_values(surface: SurfaceSpec, k: int, orders, z, n: int | None = None) -> np.ndarray:
    """Values at z of the basis forms of cap k for every order in
    ``orders``, along a trailing axis over the orders.

    One multi-order ``schiffer_contour`` call per radius step, each at the
    default radius and node count ``faber_form`` uses, so column j equals
    ``faber_form(surface, k, orders[j]).form(z)`` up to roundoff. An
    explicit n replaces the node count of every step.

    The default node count ``contour_nodes`` assumes every point read
    satisfies |f^(-1)(z)| >= 0.95 for the map f of cap k: on and outside
    the cap boundary, and on the inner measuring circle at 0.95, where
    the step-1 read (r0 = 0.5, 64 nodes) aliases at (0.5 / 0.95)^64 =
    1.4e-18. Reads deeper inside the cap must pass n.
    """
    orders = [int(m) for m in orders]
    steps: dict = {}
    for i, m in enumerate(orders):
        steps.setdefault(contour_radius(m), []).append(i)
    zz = np.asarray(z, dtype=complex)
    out = np.empty(zz.shape + (len(orders),), dtype=complex)
    for r0, idx in steps.items():
        out[..., idx] = schiffer_contour(surface, k, [orders[i] for i in idx], zz,
                                         n=contour_nodes(r0) if n is None else n)
    return out


def beta_element(surface: SurfaceSpec, k: int) -> FaberBasisElement:
    """The k-th double-pole-free closed-form basis element (simple poles
    at centers k and n-1)."""
    return FaberBasisElement("beta", beta_form(surface, k), cap=k,
                             method="closed-form")


def gamma_element(surface: SurfaceSpec) -> FaberBasisElement:
    """The holomorphic basis element; torus surfaces only."""
    forms = gamma_basis(surface)
    if not forms:
        raise ValidationError("sphere surfaces carry no holomorphic one-form")
    return FaberBasisElement("gamma", forms[0], method="closed-form")


def principal_part(surface: SurfaceSpec, element: FaberBasisElement,
                   order: int | None = None, rho: float = 0.5, n: int = 2048,
                   contour_nodes: int = 512):
    """Laurent data of the alpha element's pullback through its own cap.

    Returns (tail, head): tail holds the coefficients of zeta^-1 ..
    zeta^-J read on |zeta| = rho, head the regular part as a power series.
    The read self-checks the structure theorem (coefficient m at index
    -(m+1), nothing deeper) at a loose 1e-5 tolerance and raises on
    violation; tests pin the sharp tolerances. This is the one-element
    view of ``principal_parts``.
    """
    if element.tag != "alpha" or element.cap is None or element.order is None:
        raise ValidationError("principal part is defined for alpha elements only")
    # the element checked its order against its own ceiling when it was built
    return principal_parts(surface, element.cap, [element.order], order=order, rho=rho,
                           n=n, contour_nodes=contour_nodes, max_order=element.order)[0]


def principal_parts(surface: SurfaceSpec, k: int, orders, order: int | None = None,
                    rho: float = 0.5, n: int = 2048, contour_nodes: int = 512,
                    max_order: int = DEFAULT_MAX_ORDER) -> list:
    """``principal_part`` of the basis form of cap k for every order in
    ``orders``: a list of (tail, head) pairs, one per order.

    Every order is sampled on the same n-point expansion circle through
    one multi-order ``schiffer_contour`` read at 0.6 * rho with
    ``contour_nodes`` nodes, so the cap's kernel block is built once.
    Each order gets its own Laurent fit (J = max(8, m + 4) unless
    ``order`` is given) and its own pole-structure guard.
    """
    if not 0 < rho < 1:
        raise ValidationError(f"expansion radius must sit in (0, 1), got {rho}")
    orders = [int(m) for m in orders]
    depths = []
    for m in orders:
        _check_order(m, max_order)
        J = max(8, m + 4) if order is None else int(order)
        if J < m + 1:
            raise ValidationError(f"expansion order {J} cannot reach the pole order {m + 1}")
        depths.append(J)
    f = surface.caps[k]
    zeta = rho * np.exp(1j * TWO_PI * np.arange(n) / n)
    # evaluate through the meromorphic extension: the quadrature contour
    # must sit strictly inside the expansion circle
    vals = schiffer_contour(surface, k, orders, f.evaluate(zeta), r0=0.6 * rho, n=contour_nodes)
    samples = vals * f.derivative(zeta)[:, None]
    if not np.all(np.isfinite(samples)):
        raise NumericalError("pullback not finite on the expansion circle")
    parts = []
    for i, (m, J) in enumerate(zip(orders, depths)):
        powers = np.arange(-J, J + 1)
        coeff = laurent_from_samples(samples[:, i], rho, powers)
        neg = {int(-p): c for p, c in zip(powers, coeff) if p < 0}
        lead_err = abs(neg[m + 1] - m)
        deep = max((abs(neg[j]) for j in range(m + 2, J + 1)), default=0.0)
        if lead_err > 1e-5 or deep > 1e-5:
            raise NumericalError(
                f"pole structure violated at order {m}: |c[-(m+1)] - m| = {lead_err:.3e}, "
                f"deeper mass {deep:.3e}"
            )
        tail = LaurentTail(0.0, [neg[j] for j in range(1, J + 1)])
        parts.append((tail, PowerSeries(0.0, coeff[J:], radius=rho)))
    return parts


def faber_polynomial(f: ConformalMap, m: int, r0: float | None = None, n: int = 512,
                     max_order: int = DEFAULT_MAX_ORDER) -> LaurentTail:
    """The order-m polynomial in 1/(z - center) attached to a sphere cap.

    Built from the contour formula

        Phi^m(z) = (1/2 pi i) oint zeta^-m f'(zeta) / (f(zeta) - z) dzeta

    on |zeta| = r0, sampled on a large circle and solved for the finite
    tail; the fit must leave no mass on nonnegative powers or beyond
    order -m, else the read raises (a wrong power convention and an r0
    too small both show up as residual mass).
    """
    _check_order(m, max_order)
    rr = contour_radius(m) if r0 is None else float(r0)
    if not 0 < rr < 1:
        raise ValidationError(f"contour radius must sit in (0, 1), got {rr}")
    zeta = rr * np.exp(1j * TWO_PI * np.arange(n) / n)
    w = f.evaluate(zeta)
    fp = f.derivative(zeta)
    c = f.center
    radius = 2.2 * float(np.max(np.abs(w - c)))
    n_z = max(256, 4 * (m + 1))
    z = c + radius * np.exp(1j * TWO_PI * np.arange(n_z) / n_z)
    phi = np.mean((zeta ** (1 - m) * fp)[None, :] / (w[None, :] - z[:, None]), axis=1)
    coeff = laurent_from_samples(phi, radius, np.arange(-m, 0))
    tail = LaurentTail(c, coeff[::-1])
    scale = max(1.0, float(np.max(np.abs(phi))))
    resid = float(np.max(np.abs(phi - tail(z)))) / scale
    if resid > 1e-8:
        raise NumericalError(
            f"tail fit left relative residual {resid:.3e} outside orders -1..-{m}; "
            "raise r0 or check the map"
        )
    return tail


def _check_order(m: int, max_order: int):
    if m < 1:
        raise ValidationError(f"order must be >= 1, got {m}")
    if m > max_order:
        raise ValidationError(
            f"order {m} exceeds the precision ceiling {max_order}; "
            "pass max_order explicitly to override"
        )
