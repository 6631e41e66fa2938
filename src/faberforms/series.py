"""Series decomposition of a holomorphic target form on the cap complement.

The pipeline peels a target apart in three stages. Boundary periods fix
the pole-difference coefficients epsilon. On the torus, lattice periods
fix the holomorphic coefficient c: the cap-built basis forms carry
conjugate-type period vectors (B = conj(tau) A), so the 2x2 period solve
returns c uncontaminated and dumps the basis forms' period mass into the
diagnostic d slot. What remains is projected onto the cap basis forms by
least squares in the surface L2 inner product.

That inner product is evaluated without any 2D quadrature over the
awkward exterior region: for holomorphic forms with zero cap periods,
Stokes plus the bilinear period identity reduce it to cap-boundary
contour sums and (torus) lattice periods. Every form that reaches the
pairing has zero cap periods by construction, and the antiderivative
step enforces that numerically.
"""

from __future__ import annotations

from dataclasses import dataclass

import numpy as np

from .faber import alpha_values
from .numerics import (
    TWO_PI,
    NumericalError,
    ValidationError,
    fft_antiderivative,
    least_squares,
)
from .surface import (
    OneForm,
    SurfaceSpec,
    a_cycle,
    b_cycle,
    beta_form,
    boundary_cycle,
    gamma_basis,
    period,
)

DEFAULT_CHECKPOINTS = (5, 10, 20, 40)


@dataclass(frozen=True)
class TargetForm:
    """A form to decompose: holomorphic on the cap complement, finite norm.

    ``known`` optionally records construction coefficients (keys like
    "epsilon", "c", "h") for round-trip comparisons; the pipeline never
    reads it.
    """

    form: OneForm
    label: str = ""
    known: dict | None = None


@dataclass(frozen=True)
class SeriesDecomposition:
    """Everything the decomposition produced.

    epsilon holds the measured boundary coefficient of every cap; the
    combination uses the first n-1, and ``consistency`` is |sum(epsilon)|
    (zero in exact arithmetic since residues sum to zero). h[m-1, k] is
    the coefficient of the order-m form on cap k. ``checkpoints`` stores
    the sub-solve coefficient matrices behind ``residual_history``.
    """

    epsilon: np.ndarray
    c: np.ndarray
    d: np.ndarray
    h: np.ndarray
    M: int
    residual_history: tuple
    gram_condition: float
    regularized: bool
    consistency: float
    checkpoints: tuple = ()


@dataclass(frozen=True)
class PairingData:
    """Cached boundary/period data of one form, or of a stack of forms.

    g[l] samples the theta-derivative of the form's antiderivative along
    cap boundary l; F[l] is its zero-mean periodic antiderivative; a and
    b are its lattice periods (zero on the sphere). A stack of forms
    carries its index in trailing axes of g, F, a and b.
    """

    g: np.ndarray
    F: np.ndarray
    a: np.ndarray
    b: np.ndarray

    def __sub__(self, other):
        return PairingData(self.g - other.g, self.F - other.F,
                           self.a - other.a, self.b - other.b)

    def combine(self, x) -> "PairingData":
        """Data of sum_i x[i] form_i over the first len(x) forms of a
        stack with one trailing axis."""
        x = np.asarray(x, dtype=complex)
        p = x.size
        return PairingData(self.g[..., :p] @ x, self.F[..., :p] @ x,
                           self.a[:p] @ x, self.b[:p] @ x)


def _finite(vals, where: str) -> np.ndarray:
    vals = np.asarray(vals, dtype=complex)
    if not np.all(np.isfinite(vals)):
        raise NumericalError(f"form not finite on {where}")
    return vals


class ExteriorPairing:
    """L2 inner products over the cap complement by boundary reduction.

    Valid for holomorphic (dz-type) forms whose cap-boundary periods all
    vanish; the construction raises otherwise. Pairing any two cached
    data objects afterwards is a contour sum, and pairing two stacks is
    one matrix product.
    """

    def __init__(self, surface: SurfaceSpec, n_boundary: int = 512, n_cycle: int = 64):
        self.surface = surface
        self.n_boundary = int(n_boundary)
        theta = TWO_PI * np.arange(self.n_boundary) / self.n_boundary
        zeta = np.exp(1j * theta)
        self._boundary = []
        for f in surface.caps:
            self._boundary.append((f.evaluate(zeta), f.derivative(zeta) * 1j * zeta))
        if surface.genus == 1:
            self._cycles = (a_cycle(surface, n=n_cycle), b_cycle(surface, n=n_cycle))
        else:
            self._cycles = ()

    def data(self, form: OneForm) -> PairingData:
        if getattr(form, "conjugate", False):
            raise ValidationError("boundary reduction applies to dz-type forms only")
        return self._pack(form)

    def alpha_data(self, M: int) -> PairingData:
        """Data of the order-1..M basis forms of every cap, stacked along
        one trailing axis in the order (m - 1) * n_caps + k.

        Each (cap, node set) pair is sampled by ``alpha_values``, one
        kernel block per radius step."""
        n = self.surface.n_caps

        def sample(nodes):
            vals = np.empty((nodes.size, M, n), dtype=complex)
            for k in range(n):
                vals[:, :, k] = alpha_values(self.surface, k, range(1, M + 1), nodes)
            return vals.reshape(nodes.size, M * n)

        return self._pack(sample)

    def _pack(self, sample) -> PairingData:
        # sample(nodes) returns the values on one node set with the stack
        # axes trailing; node sets are sampled one at a time, so only one
        # is held besides the stacked boundary data
        g = None
        for k, (w, dw) in enumerate(self._boundary):
            vals = _finite(sample(w), f"the boundary of cap {k}")
            if g is None:
                g = np.empty((len(self._boundary),) + vals.shape, dtype=complex)
            np.multiply(vals, dw.reshape(dw.shape + (1,) * (vals.ndim - 1)), out=g[k])
        F = fft_antiderivative(g, axis=1)
        if self._cycles:
            a, b = (
                np.tensordot(c.weights, _finite(sample(c.nodes), f"the {c.kind} cycle"),
                             axes=(0, 0))
                for c in self._cycles
            )
        else:
            a = b = np.zeros(g.shape[2:], dtype=complex)
        return PairingData(g, F, a, b)

    def inner(self, d1: PairingData, d2: PairingData):
        """<form1, form2>, linear in the first slot. For stacks, the array
        of all products over the stack axes of d1, then those of d2."""
        boundary = np.tensordot(d1.F, np.conj(d2.g), axes=([0, 1], [0, 1]))
        val = 1j * (np.multiply.outer(d1.a, np.conj(d2.b))
                    - np.multiply.outer(d1.b, np.conj(d2.a))
                    - (TWO_PI / self.n_boundary) * boundary)
        return complex(val) if np.ndim(val) == 0 else val

    def norm(self, d: PairingData) -> float:
        return float(np.sqrt(max(self.inner(d, d).real, 0.0)))


def boundary_coefficients(target, surface: SurfaceSpec, radii=(0.95, 1.0),
                          n: int = 512, tol: float = 1e-9) -> np.ndarray:
    """Per-cap boundary coefficients: the counterclockwise period around
    each cap divided by 2 pi i, so that subtracting the pole-difference
    combination kills every boundary period.

    Measured on two circle representatives; disagreement beyond ``tol``
    raises. All n values are returned; their sum vanishes for a form
    holomorphic on the complement, and the decomposition uses the first
    n - 1.
    """
    form = getattr(target, "form", target)
    r1, r2 = sorted(float(r) for r in radii)
    if not 0 < r1 < r2 <= 1.0:
        raise ValidationError(f"radii must satisfy 0 < r1 < r2 <= 1, got {radii}")
    _check_poles_clear(form, surface, r1)
    out = np.zeros(surface.n_caps, dtype=complex)
    for k in range(surface.n_caps):
        vals = [
            period(form, boundary_cycle(surface, k, radius=r, n=n)) / (TWO_PI * 1j)
            for r in (r1, r2)
        ]
        gap = abs(vals[0] - vals[1])
        if gap > tol * max(1.0, abs(vals[1])):
            raise NumericalError(
                f"boundary coefficient of cap {k} moved by {gap:.3e} "
                f"between radii {r1} and {r2}"
            )
        out[k] = vals[1]
    return out


def _check_poles_clear(form: OneForm, surface: SurfaceSpec, r_min: float):
    # declared poles inside a cap must sit strictly inside the inner
    # measuring circle, else the two radii see different periods
    for loc, _order in getattr(form, "poles", ()):
        k = surface.caps.which_cap(complex(loc))
        if k < 0:
            continue
        eta = surface.caps[k].invert(complex(loc))
        if abs(eta) > r_min - 0.02:
            raise ValidationError(
                f"pole at {complex(loc):.6g} sits too close to the measuring "
                f"circles of cap {k} (|preimage| = {abs(eta):.3f})"
            )


def cycle_coefficients(form: OneForm, surface: SurfaceSpec, n: int = 64,
                       boundary_tol: float = 1e-8) -> tuple:
    """Split the lattice periods of a boundary-period-free form into the
    holomorphic and conjugate directions.

    Solves A = c + d, B = tau c + conj(tau) d. The c part is the honest
    holomorphic coefficient; d collects whatever conjugate-type period
    mass the input carries (the cap basis forms are all of that type) and
    is returned for diagnostics. Sphere surfaces return empty vectors.
    """
    for k in range(surface.n_caps):
        p = period(form, boundary_cycle(surface, k, radius=1.0, n=512))
        if abs(p) / TWO_PI > boundary_tol:
            raise ValidationError(
                f"input has nonvanishing boundary period {abs(p):.3e} at cap {k}; "
                "remove the boundary coefficients first"
            )
    if surface.genus == 0:
        empty = np.zeros(0, dtype=complex)
        return empty, empty
    tau = surface.tau
    det = tau - np.conj(tau)
    assert abs(det) > 0  # Im tau > 0 is a construction invariant
    A = period(form, a_cycle(surface, n=n))
    B = period(form, b_cycle(surface, n=n))
    c = (B - np.conj(tau) * A) / det
    d = (tau * A - B) / det
    return np.array([c]), np.array([d])


def project_faber(target, surface: SurfaceSpec, M: int,
                  n_boundary: int = 512, n_cycle: int = 64,
                  condition_limit: float = 1e12,
                  checkpoints=DEFAULT_CHECKPOINTS) -> SeriesDecomposition:
    """Full decomposition of a target at truncation order M.

    Boundary and lattice coefficients are measured first; the remainder
    is projected onto the order-(1..M) basis of every cap by Gram least
    squares. The L2 residual is recorded at each checkpoint order and
    must not increase with M.
    """
    if M < 1:
        raise ValidationError(f"truncation order must be >= 1, got {M}")
    form = getattr(target, "form", target)
    n = surface.n_caps
    eps = boundary_coefficients(target, surface, n=n_boundary)
    consistency = float(abs(np.sum(eps)))
    terms = [(1.0, form)] + [(-eps[k], beta_form(surface, k)) for k in range(n - 1)]
    rho = OneForm.combine(terms, label="remainder")
    if surface.genus == 1:
        c_vec, d_vec = cycle_coefficients(rho, surface, n=n_cycle)
        rho = OneForm.combine(
            [(1.0, rho), (-c_vec[0], gamma_basis(surface)[0])], label="remainder"
        )
    else:
        c_vec, d_vec = cycle_coefficients(rho, surface, n=n_cycle)

    pairing = ExteriorPairing(surface, n_boundary=n_boundary, n_cycle=n_cycle)
    data = pairing.alpha_data(M)
    rho_data = pairing.data(rho)
    # gram[i, j] = <form_j, form_i> and rhs[i] = <rho, form_i>
    gram = pairing.inner(data, data).T
    rhs = pairing.inner(rho_data, data)

    orders = sorted({mp for mp in checkpoints if mp < M} | {M})
    scale = max(1.0, pairing.norm(rho_data))
    history, stored, prev = [], [], np.inf
    condition, regularized, h_flat = np.inf, False, None
    for mp in orders:
        p = mp * n
        sol = least_squares(gram[:p, :p], rhs[:p], condition_limit=condition_limit)
        res = pairing.norm(rho_data - data.combine(sol.coefficients))
        if res > prev + 1e-10 * scale:
            raise NumericalError(
                f"L2 residual increased from {prev:.6e} to {res:.6e} "
                f"between orders; projection monotonicity violated"
            )
        prev = res
        history.append((mp, res))
        stored.append((mp, sol.coefficients.reshape(mp, n).copy()))
        if mp == M:
            condition, regularized = sol.condition, sol.regularized
            h_flat = sol.coefficients

    return SeriesDecomposition(
        epsilon=eps,
        c=c_vec,
        d=d_vec,
        h=h_flat.reshape(M, n),
        M=M,
        residual_history=tuple(history),
        gram_condition=float(condition),
        regularized=bool(regularized),
        consistency=consistency,
        checkpoints=tuple(stored),
    )


def series_evaluator(surface: SurfaceSpec, decomposition: SeriesDecomposition,
                     upto: int | None = None) -> OneForm:
    """The partial sum as a form: pole-difference and lattice parts plus
    the cap basis terms of order <= upto (default: the full truncation).

    A checkpoint order reuses its own sub-solve coefficients; any other
    order truncates the full solution.
    """
    n = surface.n_caps
    M = decomposition.M if upto is None else int(upto)
    if not 1 <= M <= decomposition.M:
        raise ValidationError(f"order {M} outside 1..{decomposition.M}")
    h = dict(decomposition.checkpoints).get(M)
    if h is None:
        h = decomposition.h[:M]
    terms = [(decomposition.epsilon[k], beta_form(surface, k)) for k in range(n - 1)]
    if surface.genus == 1:
        terms.append((decomposition.c[0], gamma_basis(surface)[0]))
    closed = OneForm.combine(terms)
    active = [k for k in range(n) if np.any(h[:, k] != 0)]

    def ev(z):
        # alpha terms: one multi-order contour read per (cap, radius step),
        # contracted with that cap's coefficient column
        out = closed.evaluator(z)
        for k in active:
            out = out + alpha_values(surface, k, range(1, M + 1), z) @ h[:, k]
        return out

    poles = closed.poles + tuple(
        (surface.caps[k].center, m + 1)
        for m in range(1, M + 1)
        for k in range(n)
        if h[m - 1, k] != 0
    )
    return OneForm(ev, poles=poles, label=f"series[{M}]")


def uniform_error(target, surface: SurfaceSpec, decomposition: SeriesDecomposition,
                  points, upto: int | None = None, margin: float = 0.1) -> float:
    """Sup-norm coefficient error of the partial sum on a point set that
    keeps a stated distance from every cap."""
    pts = np.atleast_1d(np.asarray(points, dtype=complex))
    if surface.genus == 1:
        dist = surface.distance_to_caps_reduced(pts)
    else:
        dist = surface.caps.distance_to_caps(pts)
    if np.any(dist < margin):
        j = int(np.argmin(dist))
        raise ValidationError(
            f"point {pts[j]:.6g} is {float(dist[j]):.3f} from a cap, "
            f"inside the margin {margin}"
        )
    form = getattr(target, "form", target)
    partial = series_evaluator(surface, decomposition, upto=upto)
    return float(np.max(np.abs(np.asarray(form(pts)) - np.asarray(partial(pts)))))


def invariance_check(surface: SurfaceSpec, build, translation, M: int,
                     **kwargs) -> float:
    """Decompose a transported target on a translated surface and report
    the worst coefficient deviation against the original decomposition.

    ``build`` maps a surface to its TargetForm, so both sides are
    produced by the same construction in their own coordinates.
    """
    moved = surface.translated(translation)
    dec1 = project_faber(build(surface), surface, M, **kwargs)
    dec2 = project_faber(build(moved), moved, M, **kwargs)
    dev = max(
        float(np.max(np.abs(dec1.epsilon - dec2.epsilon))),
        float(np.max(np.abs(dec1.h - dec2.h))),
    )
    if dec1.c.size:
        dev = max(dev, float(np.max(np.abs(dec1.c - dec2.c))))
    return dev
