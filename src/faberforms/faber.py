"""Per-cap basis forms and the classical polynomial family on the sphere.

The order-m basis form of cap k is the operator image of the order-m
monomial datum on that cap. It is stored as a contour evaluator valid on
the whole surface minus the cap center, where it has a single pole of
order m + 1 whose leading pullback coefficient is exactly m; the
``principal_part`` reader verifies that expansion numerically.
``contour_nodes`` sizes every read and ``order_limit`` of its radius
bounds its order, principal parts included. On a sphere with one cap the
same data has a second, independent description through the classical
polynomial family Phi^m, a finite tail in 1/(z - center); its
z-derivative must reproduce the basis form, and the tests hold the two
constructions against each other.
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
from .schiffer import contour_nodes, contour_radius, guard_order, schiffer_contour
from .surface import OneForm, SurfaceSpec, beta_form, gamma_basis

EXPANSION_RADIUS = 0.5  # |zeta| of the circle the pullback tails are expanded on
PRINCIPAL_RADIUS = 0.6 * EXPANSION_RADIUS  # radius of the principal-part contour read


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
    """The order-``order`` basis form of cap ``cap``, as ``faber_form``
    builds it."""

    form: OneForm
    cap: int
    order: int


def faber_form(surface: SurfaceSpec, k: int, m: int) -> FaberBasisElement:
    """The order-m basis form of cap k, as a contour evaluator on the
    surface minus the cap center.

    Its values are those of ``alpha_values`` for the one order m, bit for
    bit: a read on the order's own ``contour_radius(m)`` with
    ``contour_nodes`` of that radius (see its precondition). A read of
    several orders takes the radius of the highest one instead, so there
    the values agree with this form's up to roundoff. An order past
    ``order_limit`` of that radius raises when the element is built;
    points inside the evaluation contour itself are rejected by the
    underlying quadrature.
    """
    guard_order(m)
    f = surface.cap(k)

    def ev(z, surface=surface, k=k, m=m):
        vals = alpha_values(surface, k, [m], z)[..., 0]
        return vals if vals.ndim else complex(vals)

    form = OneForm(ev, poles=((f.center, m + 1),))
    return FaberBasisElement(form, cap=k, order=m)


def alpha_values(surface: SurfaceSpec, k: int, orders, z, out=None) -> np.ndarray:
    """Values at z of the basis forms of cap k for every order in
    ``orders``, along a trailing axis over the orders.

    One multi-order ``schiffer_contour`` call, on the radius
    ``contour_radius`` of the highest order with ``contour_nodes`` of that
    radius: every order reads one kernel block. A lower order loses
    nothing on the larger radius: its roundoff amplification r0^(-m) * eps
    only shrinks as r0 grows, and the aliasing factor (r0 / rho)^n does
    not depend on m, so each column carries the highest order's aliasing
    ((8/9 / 0.95)^512 = 1.6e-15 on the 0.95 circle at orders 25..48) under
    the precondition of ``contour_nodes``. Column j thus equals
    ``faber_form(surface, k, orders[j]).form(z)`` up to roundoff, and
    bit for bit when ``orders`` is the one order.

    ``out``, given, is written in place and returned: an array of the
    result's shape z.shape + (len(orders),), such as one cap's columns of
    a stack of several caps (``series.ExteriorPairing.alpha_data``). The
    values are the same bits as those returned without it.
    """
    orders = [int(m) for m in orders]
    zz = np.asarray(z, dtype=complex)
    if not orders:
        return np.empty(zz.shape + (0,), dtype=complex) if out is None else out
    r0 = contour_radius(max(orders))
    read = {"r0": r0, "n": contour_nodes(r0)}
    if out is not None:
        read["out"] = out
    return schiffer_contour(surface, k, orders, zz, **read)


def closed_terms(surface: SurfaceSpec, epsilon, c) -> list:
    """The closed-form part of a Faber-Tietz sum as (coefficient, form)
    pairs: epsilon[k] beta_k for k < n - 1 and c[j] gamma_j over the
    geometry's holomorphic basis. Terms whose coefficient is zero are left out."""
    terms = [(epsilon[k], beta_form(surface, k))
             for k in range(surface.n_caps - 1) if epsilon[k] != 0]
    return terms + [(cj, gamma) for cj, gamma in zip(c, gamma_basis(surface)) if cj != 0]


def faber_series(surface: SurfaceSpec, epsilon, c, h) -> OneForm:
    """The finite Faber-Tietz sum: the ``closed_terms`` plus
    sum_{m,k} h[m-1, k] alpha_{k,m}, as a form. Each cap's nonzero orders
    are read with one ``alpha_values`` call; poles are listed by order m,
    then cap k."""
    h = np.asarray(h, dtype=complex)
    closed = OneForm.combine(closed_terms(surface, epsilon, c))
    rows, caps = np.nonzero(h)  # row i holds order i + 1, whose pole has order i + 2

    def ev(z):
        out = closed.evaluator(z)
        for k in sorted(set(caps.tolist())):  # np.unique would import numpy.ma
            idx = rows[caps == k]
            out = out + alpha_values(surface, k, idx + 1, z) @ h[idx, k]
        return out

    poles = closed.poles + tuple((surface.caps[k].center, i + 2)
                                 for i, k in zip(rows.tolist(), caps.tolist()))
    return OneForm(ev, poles=poles)


def principal_part(surface: SurfaceSpec, element):
    """Laurent data of a basis element's pullback through its own cap.

    One ``FaberBasisElement`` gives (tail, head): tail holds the
    coefficients of zeta^-1 .. zeta^-J read on |zeta| = EXPANSION_RADIUS,
    head the regular part as a power series. A sequence of elements of
    one cap gives a list of those pairs, one per element, from one read;
    a sequence that spans caps is refused, and an empty one gives [].

    Every order is sampled on one expansion circle |zeta| = rho, with
    rho = EXPANSION_RADIUS, through one multi-order ``schiffer_contour``
    read at r0 = PRINCIPAL_RADIUS = 0.6 * rho, so the cap's kernel block is
    built once; that read refuses an order past
    ``order_limit(PRINCIPAL_RADIUS)`` with ValidationError before it builds
    the block. Each order gets its own Laurent fit
    (J = max(8, m + 4)) and self-checks the structure theorem (coefficient
    m at index -(m+1), nothing deeper) at a loose 1e-5 tolerance, raising
    on violation; tests pin the sharp tolerances. ``contour_nodes`` sizes
    both reads. The points read have preimage modulus rho, so the contour
    aliases like 0.6^n: contour_nodes(0.6) nodes. The pullback's regular
    part is analytic on the closed unit disk, so its modes on the circle
    fall like rho^j and contour_nodes(rho) samples are alias-free; the
    circle takes twice that, 128, since one- and multi-order reads round
    apart by 1e-13 in a head mode at the plain count by order 6. That is
    past 2J for every order the guard admits: m <= 14 gives J <= 18.
    """
    single = isinstance(element, FaberBasisElement)
    elements = [element] if single else list(element)
    if not elements:
        return []
    caps = sorted({el.cap for el in elements})
    if len(caps) > 1:
        raise ValidationError(f"principal_part: one read takes the elements of one cap, "
                              f"got caps {caps}")
    orders = [int(el.order) for el in elements]
    k = caps[0]
    f = surface.cap(k)
    depths = [max(8, m + 4) for m in orders]
    rho = EXPANSION_RADIUS
    n = 2 * contour_nodes(rho)
    zeta = rho * np.exp(1j * TWO_PI * np.arange(n) / n)
    # evaluate through the meromorphic extension: the quadrature contour
    # must sit strictly inside the expansion circle
    samples = schiffer_contour(surface, k, orders, f.evaluate(zeta), r0=PRINCIPAL_RADIUS,
                               n=contour_nodes(0.6)) * f.derivative(zeta)[:, None]
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
    return parts[0] if single else parts


def faber_polynomial(f: ConformalMap, m: int, r0: float | None = None,
                     n: int = 512) -> LaurentTail:
    """The order-m polynomial in 1/(z - center) attached to a sphere cap.

    Built from the contour formula

        Phi^m(z) = (1/2 pi i) oint zeta^-m f'(zeta) / (f(zeta) - z) dzeta

    on |zeta| = r0, sampled on a large circle and solved for the finite
    tail; the fit must leave no mass on nonnegative powers or beyond
    order -m, else the read raises (a wrong power convention and an r0
    too small both show up as residual mass). r0 defaults to
    ``contour_radius(m)``; an order past its ``order_limit`` raises.
    """
    rr = contour_radius(m) if r0 is None else float(r0)
    guard_order(m, rr)
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
