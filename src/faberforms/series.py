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

All three stages read the target on the same fixed node sets: each
cap's circles at the measuring radii 0.95 and 1 in its disk chart and,
on the torus, the a and b lattice cycles. The target is sampled once on
each of them; epsilon comes from the periods on the two circles, the
remainder's samples are the target's minus those of the pole-difference
and holomorphic forms, and c, d and the remainder's pairing data are
read from the remainder's samples.
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
# Radii of the two circles around each cap that the boundary coefficients
# are measured on.
MEASURING_RADII = (0.95, 1.0)


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
        raise NumericalError(f"form not finite on the {where}")
    return vals


def _require_dz(form: OneForm):
    if getattr(form, "conjugate", False):
        raise ValidationError("boundary reduction applies to dz-type forms only")


class ExteriorPairing:
    """L2 inner products over the cap complement by boundary reduction.

    Valid for holomorphic (dz-type) forms whose cap-boundary periods all
    vanish; the construction raises otherwise. Pairing any two cached
    data objects afterwards is a contour sum, and pairing two stacks is
    one matrix product.

    ``circles`` are the radius-1 boundary cycles of the caps and
    ``cycles`` the a and b lattice cycles (empty on the sphere): the
    node sets every pairing datum is sampled on.
    """

    def __init__(self, surface: SurfaceSpec, n_boundary: int = 512, n_cycle: int = 64):
        self.surface = surface
        self.n_boundary = int(n_boundary)
        self.circles = tuple(boundary_cycle(surface, k, radius=1.0, n=self.n_boundary)
                             for k in range(surface.n_caps))
        theta = TWO_PI * np.arange(self.n_boundary) / self.n_boundary
        zeta = np.exp(1j * theta)
        self._dw = tuple(f.derivative(zeta) * 1j * zeta for f in surface.caps)
        if surface.genus == 1:
            self.cycles = (a_cycle(surface, n=n_cycle), b_cycle(surface, n=n_cycle))
        else:
            self.cycles = ()

    def data(self, form: OneForm) -> PairingData:
        _require_dz(form)
        return self._pack([c.sample(form) for c in self.circles],
                         [c.sample(form) for c in self.cycles])

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

        # generators: one node set is sampled at a time, so only one is
        # held besides the stacked boundary data
        return self._pack((sample(c.nodes) for c in self.circles),
                         (sample(c.nodes) for c in self.cycles))

    def _pack(self, on_circles, on_cycles) -> PairingData:
        """Pairing data from samples: one array per circle, then one per
        lattice cycle, in the order of ``circles`` and ``cycles``, with
        any stack axes trailing."""
        # indexed, not zipped: a zip tuple would keep the previous circle's
        # samples alive while the next ones are drawn
        g = None
        for k, vals in enumerate(on_circles):
            vals = _finite(vals, self.circles[k].name)
            dw = self._dw[k]
            if g is None:
                g = np.empty((len(self._dw),) + vals.shape, dtype=complex)
            np.multiply(vals, dw.reshape(dw.shape + (1,) * (vals.ndim - 1)), out=g[k])
        F = fft_antiderivative(g, axis=1)
        if self.cycles:
            a, b = (
                np.tensordot(c.weights, _finite(vals, c.name), axes=(0, 0))
                for c, vals in zip(self.cycles, on_cycles)
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


def boundary_coefficients(target, surface: SurfaceSpec, radii=MEASURING_RADII,
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
    inner, outer = (
        [period(form, boundary_cycle(surface, k, radius=r, n=n)) for k in range(surface.n_caps)]
        for r in (r1, r2)
    )
    return _boundary_coefficients(inner, outer, r1, r2, tol)


def _boundary_coefficients(inner, outer, r1: float, r2: float, tol: float) -> np.ndarray:
    # inner[k], outer[k]: the periods around cap k on the circles of radii r1 < r2
    out = np.zeros(len(outer), dtype=complex)
    for k, (p1, p2) in enumerate(zip(inner, outer)):
        v1, v2 = p1 / (TWO_PI * 1j), p2 / (TWO_PI * 1j)
        gap = abs(v1 - v2)
        if gap > tol * max(1.0, abs(v2)):
            raise NumericalError(
                f"boundary coefficient of cap {k} moved by {gap:.3e} "
                f"between radii {r1} and {r2}"
            )
        out[k] = v2
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
    _check_boundary_free(
        [period(form, boundary_cycle(surface, k, radius=1.0, n=512))
         for k in range(surface.n_caps)],
        boundary_tol,
    )
    cycles = (a_cycle(surface, n=n), b_cycle(surface, n=n)) if surface.genus == 1 else ()
    return _cycle_split(surface, [period(form, c) for c in cycles])


def _check_boundary_free(periods, tol: float):
    for k, p in enumerate(periods):
        if abs(p) / TWO_PI > tol:
            raise ValidationError(
                f"input has nonvanishing boundary period {abs(p):.3e} at cap {k}; "
                "remove the boundary coefficients first"
            )


def _cycle_split(surface: SurfaceSpec, lattice_periods) -> tuple:
    # (c, d) from the a- and b-periods; empty on the sphere, which has none
    if surface.genus == 0:
        empty = np.zeros(0, dtype=complex)
        return empty, empty
    A, B = lattice_periods
    tau = surface.tau
    det = tau - np.conj(tau)
    assert abs(det) > 0  # Im tau > 0 is a construction invariant
    c = (B - np.conj(tau) * A) / det
    d = (tau * A - B) / det
    return np.array([c]), np.array([d])


def _integrals(cycles, samples) -> list:
    return [c.integrate(v) for c, v in zip(cycles, samples)]


def _subtract(vals, terms, nodes) -> np.ndarray:
    # samples of (form - sum_j coef_j form_j) at the nodes, from the form's
    # samples, subtracting in the order of the terms; like OneForm.combine,
    # the terms are read through their evaluators
    for coef, f in terms:
        vals = vals - coef * np.asarray(f.evaluator(nodes), dtype=complex)
    return vals


def _split_target(form: OneForm, pairing: ExteriorPairing) -> tuple:
    """The first two stages of the decomposition from one sample of the
    target per fixed node set: (epsilon, c, d, pairing data of the
    remainder rho).

    The node sets are each cap's circles at the two measuring radii (the
    radius-1 circles are the pairing's ``circles``) and, on the torus,
    the pairing's a and b cycles. The remainder's samples are the
    target's minus those of the pole-difference and holomorphic forms.
    """
    _require_dz(form)
    surface = pairing.surface
    r1, r2 = MEASURING_RADII  # r2 = 1: the outer circles are the pairing's
    _check_poles_clear(form, surface, r1)
    inner = [boundary_cycle(surface, k, radius=r1, n=pairing.n_boundary)
             for k in range(surface.n_caps)]
    on_inner = [c.sample(form) for c in inner]
    on_circles = [c.sample(form) for c in pairing.circles]
    on_cycles = [c.sample(form) for c in pairing.cycles]
    eps = _boundary_coefficients(_integrals(inner, on_inner),
                                 _integrals(pairing.circles, on_circles), r1, r2, tol=1e-9)

    def remove(terms):
        return ([_subtract(v, terms, c.nodes) for c, v in zip(pairing.circles, on_circles)],
                [_subtract(v, terms, c.nodes) for c, v in zip(pairing.cycles, on_cycles)])

    on_circles, on_cycles = remove(
        [(eps[k], beta_form(surface, k)) for k in range(surface.n_caps - 1)]
    )
    _check_boundary_free(_integrals(pairing.circles, on_circles), 1e-8)
    c_vec, d_vec = _cycle_split(surface, _integrals(pairing.cycles, on_cycles))
    if surface.genus == 1:
        on_circles, on_cycles = remove([(c_vec[0], gamma_basis(surface)[0])])
    return eps, c_vec, d_vec, pairing._pack(on_circles, on_cycles)


def project_faber(target, surface: SurfaceSpec, M: int,
                  n_boundary: int = 512, n_cycle: int = 64,
                  condition_limit: float = 1e12,
                  checkpoints=DEFAULT_CHECKPOINTS) -> SeriesDecomposition:
    """Full decomposition of a target at truncation order M.

    The target is sampled once per fixed node set: each cap's
    n_boundary-node circles at the radii 0.95 and 1 and, on the torus,
    the n_cycle-node a and b cycles. Boundary and lattice coefficients
    come from those samples, and so do the pairing data of the
    remainder; the remainder is projected onto the order-(1..M) basis of
    every cap by Gram least squares. The L2 residual is recorded at each
    checkpoint order and must not increase with M.
    """
    if M < 1:
        raise ValidationError(f"truncation order must be >= 1, got {M}")
    n = surface.n_caps
    pairing = ExteriorPairing(surface, n_boundary=n_boundary, n_cycle=n_cycle)
    eps, c_vec, d_vec, rho_data = _split_target(getattr(target, "form", target), pairing)
    consistency = float(abs(np.sum(eps)))
    data = pairing.alpha_data(M)
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


def _partial_h(decomposition: SeriesDecomposition, M: int) -> np.ndarray:
    # the order-M partial sum's basis coefficients: a checkpoint order's
    # own sub-solve, any other order the full solution truncated
    if not 1 <= M <= decomposition.M:
        raise ValidationError(f"order {M} outside 1..{decomposition.M}")
    h = dict(decomposition.checkpoints).get(M)
    return decomposition.h[:M] if h is None else h


def _closed_part(surface: SurfaceSpec, decomposition: SeriesDecomposition) -> OneForm:
    # the pole-difference and lattice parts of every partial sum
    terms = [(decomposition.epsilon[k], beta_form(surface, k))
             for k in range(surface.n_caps - 1)]
    if surface.genus == 1:
        terms.append((decomposition.c[0], gamma_basis(surface)[0]))
    return OneForm.combine(terms)


def series_evaluator(surface: SurfaceSpec, decomposition: SeriesDecomposition,
                     upto: int | None = None) -> OneForm:
    """The partial sum as a form: pole-difference and lattice parts plus
    the cap basis terms of order <= upto (default: the full truncation).

    A checkpoint order reuses its own sub-solve coefficients; any other
    order truncates the full solution.
    """
    n = surface.n_caps
    M = decomposition.M if upto is None else int(upto)
    h = _partial_h(decomposition, M)
    closed = _closed_part(surface, decomposition)
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


def uniform_errors(target, surface: SurfaceSpec, decomposition: SeriesDecomposition,
                   points, orders, margin: float = 0.1) -> list:
    """Sup-norm coefficient errors of the partial sums of every order in
    ``orders`` on a point set that keeps a stated distance from every cap.

    The target and the closed part are read on the points once, and the
    basis forms of orders 1..max(orders) of each cap with one
    ``alpha_values`` call; each partial sum contracts the leading columns
    with its own coefficients, chosen as ``series_evaluator`` chooses them.
    """
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
    orders = [int(M) for M in orders]
    hs = [_partial_h(decomposition, M) for M in orders]
    form = getattr(target, "form", target)
    want = np.asarray(form(pts))
    closed = np.asarray(_closed_part(surface, decomposition).evaluator(pts))
    top = max(orders, default=0)
    basis = {k: alpha_values(surface, k, range(1, top + 1), pts)
             for k in range(surface.n_caps) if any(np.any(h[:, k] != 0) for h in hs)}
    errors = []
    for M, h in zip(orders, hs):
        partial = closed
        for k, vals in basis.items():
            partial = partial + vals[:, :M] @ h[:, k]
        errors.append(float(np.max(np.abs(want - partial))))
    return errors


def uniform_error(target, surface: SurfaceSpec, decomposition: SeriesDecomposition,
                  points, upto: int | None = None, margin: float = 0.1) -> float:
    """Sup-norm coefficient error of the partial sum on a point set that
    keeps a stated distance from every cap: ``uniform_errors`` at the one
    order upto (default: the full truncation)."""
    M = decomposition.M if upto is None else int(upto)
    return uniform_errors(target, surface, decomposition, points, [M], margin=margin)[0]


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
