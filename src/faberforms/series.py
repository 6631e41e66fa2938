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
pairing has zero cap periods by construction, and the pairing data's
mean guard (no periodic antiderivative otherwise) enforces that numerically.

All three stages read the target on the same node sets: each cap's
circles at the measuring radii 0.95 and 1 in its disk chart and, on the
torus, the a and b lattice cycles. The target is evaluated once per node
count tried, on all of them concatenated; epsilon comes from the periods
on the two circles, the remainder's samples are the target's minus
those of the pole-difference and holomorphic forms, and c, d and the
remainder's pairing data are read from the remainder's samples.

The circles' node count N is measured, not assumed. The Parseval read
of the pairing and the trapezoid periods are exact once N exceeds twice
the data's bandwidth (Trefethen & Weideman, SIAM Rev. 56, 2014), so
``project_faber`` starts at the smallest of ``schiffer.NODE_COUNTS`` that
is at least 4M and doubles N while, on any cap's radius-1 circle, any
column of the pairing data (the target's, the remainder's and each basis
form's) has Fourier content c_k = ghat_k / N in the band
3N/8 <= |k| < N/2 above SPECTRAL_TAIL_TOL = 1e-12 times max(1, that
column's largest |c_k| on any circle). Data still unresolved at 1024
nodes raise NumericalError. The periods on the 0.95 circles are left to
RADIUS_GAP_TOL, which compares them with the radius-1 reads; below the
last count an unresolved target moves up before that guard reads it,
so a pole target as deep as |eta| = 0.899 in its disk chart is still
read, at 1024 nodes. The shipped configs take 64 (``torus_two_caps``,
``sphere_identity``) and 256 (``sphere_joukowski``, M = 40) nodes; two
unit disks 0.1 apart take 512.
"""

from __future__ import annotations

from dataclasses import dataclass

import numpy as np

from .faber import alpha_values, closed_terms
from .numerics import (
    CONDITION_LIMIT,
    TWO_PI,
    NumericalError,
    ValidationError,
    least_squares,
    row_slices,
)
from .schiffer import NODE_COUNTS, guard_order
from .surface import (
    OneForm,
    SurfaceSpec,
    boundary_cycle,
    lattice_cycles,
    per_cycle,
    period,
    require_finite,
    sample,
)

DEFAULT_CHECKPOINTS = (5, 10, 20, 40)
# Radii of the two circles around each cap that the boundary coefficients
# are measured on.
MEASURING_RADII = (0.95, 1.0)
BOUNDARY_NODES = 512  # trapezoid nodes on each measuring circle of the standalone wrappers
# Largest Fourier content in the band 3N/8 <= |k| < N/2 of a column of
# pairing data on a circle, relative to max(1, the column's largest |c_k|
# on any circle), that an N-node pairing accepts
SPECTRAL_TAIL_TOL = 1e-12
RADIUS_GAP_TOL = 1e-9  # relative gap allowed between the reads on the two circles
# Least gap between the inner measuring radius and the |preimage| of a
# declared pole in its cap's disk chart; a deeper pole is refused. A
# double pole at |eta| <= 0.9198 solves at 1024 nodes on affine, Joukowski
# and polynomial caps (M = 1, 10 and 40, seven directions); from 0.9199
# its radius-1 data keep a Fourier tail above SPECTRAL_TAIL_TOL at every
# node count. On the 0.95 circle the guard admits up to 0.9195.
POLE_CLEARANCE = 0.0305
BOUNDARY_FREE_TOL = 1e-8  # boundary period / 2 pi left once the boundary terms are removed


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
    ``pairing_nodes`` is the node count of the measuring circles and
    ``spectral_tail`` the largest band content the solve measured on
    them, which SPECTRAL_TAIL_TOL bounds.
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
    pairing_nodes: int
    spectral_tail: float
    checkpoints: tuple = ()


@dataclass(frozen=True)
class PairingData:
    """Cached boundary/period data of one form, or of a stack of forms.

    ghat[l] is the DFT along the node axis of g, the form times dw sampled
    on cap boundary l (the theta-derivative of the form's antiderivative);
    a and b are its lattice periods (zero on the sphere). A stack of forms
    carries its index in trailing axes of ghat, a and b.
    """

    ghat: np.ndarray
    a: np.ndarray
    b: np.ndarray

    def __sub__(self, other):
        return PairingData(self.ghat - other.ghat, self.a - other.a, self.b - other.b)

    def combine(self, x) -> "PairingData":
        """Data of sum_i x[i] form_i over the first len(x) forms of a
        stack with one trailing axis."""
        x = np.asarray(x, dtype=complex)
        p = x.size
        return PairingData(self.ghat[..., :p] @ x, self.a[:p] @ x, self.b[:p] @ x)


def _parseval_weights(n: int) -> np.ndarray:
    # weights 2 pi / (n^2 k) of the frequencies k of np.fft.fftfreq(n, 1/n)
    # (Nyquist -n/2), 0 at k = 0
    k = np.fft.fftfreq(n, 1.0 / n)
    k[0] = np.inf
    return TWO_PI / n**2 / k


def _spectral_tail(ghat) -> np.ndarray:
    """Per circle, the largest over the columns of ghat (circles, N,
    stack...) of max |c_k| over the band 3N/8 <= |k| < N/2, divided by
    max(1, the column's largest |c_k| on any circle), where c_k = ghat_k / N;
    in row slices of columns."""
    n_circles, n = ghat.shape[:2]
    g = ghat.reshape(n_circles, n, -1)
    lo, hi = 3 * n // 8, n // 2
    tail = np.zeros(n_circles)
    for cols in row_slices(g.shape[2], n_circles * n):
        c = np.abs(g[..., cols]) / n
        # |k| in [lo, hi): indices lo..hi-1 and, for k < 0, n-hi+1..n-lo
        band = np.maximum(np.max(c[:, lo:hi], axis=1), np.max(c[:, n - hi + 1:n - lo + 1], axis=1))
        ratio = band / np.maximum(1.0, np.max(c, axis=(0, 1)))
        tail = np.maximum(tail, np.max(ratio, axis=1, initial=0.0))
    return tail


class ExteriorPairing:
    """L2 inner products over the cap complement by boundary reduction.

    Valid for holomorphic forms a(w) dw whose cap-boundary periods all
    vanish; the construction raises otherwise. Each datum holds the DFT
    of its boundary samples, transformed in place; pairing two stacks is
    a Parseval sum, one matrix product per row slice of frequencies.

    ``circles`` are the n-node radius-1 boundary cycles of the caps and
    ``cycles`` the a and b lattice cycles (empty on the sphere); ``nodes``
    holds their nodes in that order, the one node array every pairing
    datum is sampled on.
    """

    def __init__(self, surface: SurfaceSpec, n: int):
        self.surface = surface
        self.n = n
        self.circles = tuple(boundary_cycle(surface, k, radius=1.0, n=n)
                             for k in range(surface.n_caps))
        zeta = np.exp(1j * (TWO_PI * np.arange(n) / n))
        self._dw = np.array([f.derivative(zeta) * 1j * zeta for f in surface.caps])
        self._weights = _parseval_weights(n)
        self.cycles = lattice_cycles(surface)
        self.nodes = np.concatenate([c.nodes for c in self.circles + self.cycles])

    def data(self, form: OneForm) -> PairingData:
        return self._pack(sample(form, self.circles + self.cycles))

    def alpha_data(self, M: int) -> PairingData:
        """Data of the order-1..M basis forms of every cap, stacked along
        one trailing axis in the order (m - 1) * n_caps + k.

        Each cap is read by one ``alpha_values`` call on ``nodes``: one
        kernel block, on the radius step of order M, written straight into
        the cap's columns of the stack."""
        n = self.surface.n_caps
        vals = np.empty((self.nodes.size, M, n), dtype=complex)
        for k in range(n):
            alpha_values(self.surface, k, range(1, M + 1), self.nodes, out=vals[:, :, k])
        return self._pack(vals.reshape(self.nodes.size, M * n))

    def _pack(self, vals) -> PairingData:
        """Pairing data from samples on ``nodes``, with any stack axes
        trailing. Consumes ``vals``: its circle rows are multiplied by dw
        and transformed in place, and ghat is a view of them. Each column
        of g must have a mean below 1e-7 * max(1, max|g|), else it has no
        periodic antiderivative."""
        require_finite(vals, self.circles + self.cycles)
        n_caps, stack = len(self._dw), vals.shape[1:]
        ghat = vals[:n_caps * self.n].reshape((n_caps, self.n) + stack)
        ghat *= self._dw.reshape(self._dw.shape + (1,) * len(stack))
        # g to its DFT along the nodes in place, a row slice of columns at a
        # time (np.fft.fft has no out= before numpy 2.0)
        g = ghat.reshape(ghat.shape[:2] + (-1,))
        for cols in row_slices(g.shape[2], g.shape[0] * g.shape[1]):
            scale = np.maximum(1.0, np.max(np.abs(g[..., cols]), axis=1))
            g[..., cols] = np.fft.fft(g[..., cols], axis=1)
            mean = g[:, 0, cols] / self.n
            bad = np.abs(mean) > 1e-7 * scale
            if np.any(bad):
                raise NumericalError(f"samples have nonzero mean {mean[bad][0]:.3e}; "
                                     "no periodic antiderivative")
        on_cycles = per_cycle(vals, self.circles + self.cycles)[n_caps:]
        a, b = ([np.tensordot(c.weights, v, axes=(0, 0)) for c, v in zip(self.cycles, on_cycles)]
                or [np.zeros(stack, dtype=complex)] * 2)  # the sphere has no lattice periods
        return PairingData(ghat, a, b)

    def inner(self, d1: PairingData, d2: PairingData):
        """<form1, form2>, linear in the first slot. For stacks, the array
        of all products over the stack axes of d1, then those of d2. The
        Stokes sum (2 pi i / N) sum_j F1_j conj(g2_j), F1 the zero-mean
        periodic antiderivative of g1, is by Parseval the sum over k != 0
        of 2 pi ghat1_k conj(ghat2_k) / (N^2 k), per circle in row slices."""
        boundary = _boundary_sum(d1.ghat, d2.ghat, self._weights)
        val = 1j * (np.multiply.outer(d1.a, np.conj(d2.b))
                    - np.multiply.outer(d1.b, np.conj(d2.a))) - boundary
        return complex(val) if np.ndim(val) == 0 else val

    def norm(self, d: PairingData) -> float:
        """sqrt(|<form, form>|): the boundary form is indefinite, so at
        roundoff the product may be negative, and reads as roundoff, not 0."""
        return float(np.sqrt(abs(self.inner(d, d).real)))


def _boundary_sum(ghat1, ghat2, weights) -> np.ndarray:
    # sum over circles and frequencies k of 2 pi ghat1_k conj(ghat2_k) / (N^2 k),
    # the N weights given, over every pair of columns of the two stacks, in
    # row slices of frequencies; a slice's weighted and conjugated factors,
    # p + q entries a row, go into one storage of at most the block budget,
    # allocated once and freed before the caller goes on
    shape = ghat1.shape[2:] + ghat2.shape[2:]
    ghat1, ghat2 = (g.reshape(g.shape[:2] + (-1,)) for g in (ghat1, ghat2))
    p, q = ghat1.shape[2], ghat2.shape[2]
    total, prod = np.zeros((p, q), dtype=complex), np.empty((p, q), dtype=complex)
    rows0 = next(row_slices(weights.size, p + q)).stop
    storage = np.empty(rows0 * (p + q), dtype=complex)
    wg1, cg2 = storage[:rows0 * p].reshape(rows0, p), storage[rows0 * p:].reshape(rows0, q)
    for g1, g2 in zip(ghat1, ghat2):
        for rows in row_slices(weights.size, p + q):
            r = rows.stop - rows.start
            np.multiply(weights[rows, None], g1[rows], out=wg1[:r])
            total += np.dot(wg1[:r].T, np.conj(g2[rows], out=cg2[:r]), out=prod)
    return total.reshape(shape)


def boundary_coefficients(target, surface: SurfaceSpec) -> np.ndarray:
    """Per-cap boundary coefficients: the counterclockwise period around
    each cap divided by 2 pi i, so that subtracting the pole-difference
    combination kills every boundary period.

    Measured on the circle representatives at the MEASURING_RADII, each
    read on its own by ``period``; a relative disagreement beyond
    RADIUS_GAP_TOL raises. All n values are returned; their sum vanishes
    for a form holomorphic on the complement, and the decomposition uses
    the first n - 1.
    """
    form = getattr(target, "form", target)
    r1, r2 = MEASURING_RADII
    _check_poles_clear(form, surface, r1)
    inner, outer = (
        [period(form, boundary_cycle(surface, k, radius=r, n=BOUNDARY_NODES))
         for k in range(surface.n_caps)]
        for r in (r1, r2)
    )
    return _boundary_coefficients(inner, outer, r1, r2)


def _boundary_coefficients(inner, outer, r1: float, r2: float) -> np.ndarray:
    # inner[k], outer[k]: the periods around cap k on the circles of radii r1 < r2
    out = np.zeros(len(outer), dtype=complex)
    for k, (p1, p2) in enumerate(zip(inner, outer)):
        v1, v2 = p1 / (TWO_PI * 1j), p2 / (TWO_PI * 1j)
        gap = abs(v1 - v2)
        if gap > RADIUS_GAP_TOL * max(1.0, abs(v2)):
            raise NumericalError(
                f"boundary coefficient of cap {k} moved by {gap:.3e} "
                f"between radii {r1} and {r2}"
            )
        out[k] = v2
    return out


def _check_poles_clear(form: OneForm, surface: SurfaceSpec, r_min: float):
    # a declared pole, read as a point of the surface, must sit in a cap
    # (the target is holomorphic on the complement) and strictly inside its
    # inner measuring circle, else the two radii see different periods
    for loc, _order in getattr(form, "poles", ()):
        point = complex(surface.geometry.reduce(complex(loc)))
        k = surface.caps.which_cap(point)
        if k < 0:
            raise ValidationError(f"pole at {complex(loc):.6g} lies outside every cap; "
                                  "a target must be holomorphic on the cap complement")
        eta = surface.caps[k].invert(point)
        if abs(eta) > r_min - POLE_CLEARANCE:
            raise ValidationError(
                f"pole at {complex(loc):.6g} sits too close to the measuring "
                f"circles of cap {k} (|preimage| = {abs(eta):.4f}, above "
                f"{r_min - POLE_CLEARANCE:.4f})"
            )


def cycle_coefficients(form: OneForm, surface: SurfaceSpec) -> tuple:
    """Split the lattice periods of a boundary-period-free form into the
    holomorphic coefficient c and the conjugate-type period mass d, for
    diagnostics, by the geometry's ``cycle_split`` (empty on the sphere).
    Both are read on the node sets of a BOUNDARY_NODES-node ``ExteriorPairing``.
    """
    pairing = ExteriorPairing(surface, BOUNDARY_NODES)
    cycles = pairing.circles + pairing.cycles
    periods = _periods(cycles, sample(form, cycles))
    _check_boundary_free(periods[:surface.n_caps])
    return surface.geometry.cycle_split(periods[surface.n_caps:])


def _check_boundary_free(periods):
    for k, p in enumerate(periods):
        if abs(p) / TWO_PI > BOUNDARY_FREE_TOL:
            raise ValidationError(
                f"input has nonvanishing boundary period {abs(p):.3e} at cap {k}; "
                "remove the boundary coefficients first"
            )


def _periods(cycles, vals) -> list:
    # the period over each cycle from samples on their concatenated nodes
    return [c.integrate(v) for c, v in zip(cycles, per_cycle(vals, cycles))]


def _subtract(vals, terms, nodes) -> np.ndarray:
    # samples of (form - sum_j coef_j form_j) at the nodes, from the form's
    # samples, subtracting in the order of the terms; like OneForm.combine,
    # the terms are read through their evaluators
    for coef, f in terms:
        vals = vals - coef * np.asarray(f.evaluator(nodes), dtype=complex)
    return vals


def _split_target(form: OneForm, pairing: ExteriorPairing,
                  stop_unresolved: bool = False) -> tuple:
    """The first two stages of the decomposition from one evaluation of
    the target: (epsilon, c, d, pairing data of the remainder rho, tails).

    The target is sampled on each cap's circle at the inner measuring
    radius, followed by the pairing's ``nodes`` (the radius-1 circles
    and, on the torus, the a and b cycles). The remainder's samples are
    the target's minus those of the pole-difference and holomorphic
    forms, each evaluated once on ``nodes``.

    tails[k] is the band content (``_spectral_tail``) of the target's and
    the remainder's data on cap k's radius-1 circle. With
    ``stop_unresolved``, a target whose data there exceed
    SPECTRAL_TAIL_TOL is split no further: its guards would judge
    unresolved samples, so (None, None, None, None, tails) is returned.
    """
    surface = pairing.surface
    r1, r2 = MEASURING_RADII  # r2 = 1: the outer circles are the pairing's
    _check_poles_clear(form, surface, r1)
    inner = tuple(boundary_cycle(surface, k, radius=r1, n=pairing.n)
                  for k in range(surface.n_caps))
    n, N, cycles = surface.n_caps, pairing.n, pairing.circles + pairing.cycles
    vals = sample(form, inner + cycles)
    tails = _spectral_tail(np.fft.fft(vals[n * N:2 * n * N].reshape(n, N) * pairing._dw, axis=1))
    if stop_unresolved and np.max(tails) > SPECTRAL_TAIL_TOL:
        return None, None, None, None, tails
    periods = _periods(inner + pairing.circles, vals[:2 * n * N])
    eps = _boundary_coefficients(periods[:n], periods[n:], r1, r2)
    rho = _subtract(vals[n * N:], closed_terms(surface, eps, ()), pairing.nodes)
    periods = _periods(cycles, rho)
    _check_boundary_free(periods[:n])
    c_vec, d_vec = surface.geometry.cycle_split(periods[n:])
    rho = _subtract(rho, closed_terms(surface, np.zeros(n - 1), c_vec), pairing.nodes)
    rho_data = pairing._pack(rho)
    return eps, c_vec, d_vec, rho_data, np.maximum(tails, _spectral_tail(rho_data.ghat))


def _resolved_split(form: OneForm, surface: SurfaceSpec, M: int) -> tuple:
    """(pairing, epsilon, c, d, remainder data, basis data, spectral tail)
    on the first node count of the ladder whose circles resolve the data.

    The ladder is the entries of NODE_COUNTS from the smallest that is at
    least 4M (the last alone when none is). At each count the target is split and, once its data pass
    SPECTRAL_TAIL_TOL, the order-1..M basis of every cap is read; the
    count is accepted when those pass too. Below the last count an
    unresolved target goes to the next count before the split's guards
    read it; at the last count the guards speak first, and then data that
    are still unresolved raise NumericalError naming the count, the
    circle and the figure.
    """
    ladder = [n for n in NODE_COUNTS if n >= 4 * M] or list(NODE_COUNTS[-1:])
    for count in ladder:
        pairing = ExteriorPairing(surface, count)
        eps, c_vec, d_vec, rho_data, tails = _split_target(
            form, pairing, stop_unresolved=count != ladder[-1])
        if np.max(tails) <= SPECTRAL_TAIL_TOL:
            data = pairing.alpha_data(M)
            tails = np.maximum(tails, _spectral_tail(data.ghat))
            if np.max(tails) <= SPECTRAL_TAIL_TOL:
                return pairing, eps, c_vec, d_vec, rho_data, data, float(np.max(tails))
    raise NumericalError(
        f"{count}-node pairing circles do not resolve the data: Fourier tail "
        f"{np.max(tails):.3e} on the radius-1 circle of cap {int(np.argmax(tails))}, "
        f"above {SPECTRAL_TAIL_TOL:.0e}")


def project_faber(target, surface: SurfaceSpec, M: int,
                  condition_limit: float = CONDITION_LIMIT,
                  checkpoints=DEFAULT_CHECKPOINTS) -> SeriesDecomposition:
    """Full decomposition of a target at truncation order M.

    The target is evaluated once per node count tried, on every node set
    at once: each cap's N-node circles at the radii 0.95 and 1 and, on the
    torus, the CYCLE_NODES-node a and b cycles, whose nodes are the points
    at which the cycle-base search measured their clearance from the caps.
    Every one of these cycles carries the trapezoid rule. Boundary and
    lattice coefficients come from those samples, and so do the pairing
    data of the remainder; the remainder is projected onto the
    order-(1..M) basis of every cap by Gram least squares. The L2 residual
    is recorded at each checkpoint order and must not increase with M.

    N is measured (``_resolved_split``): it starts at the smallest entry of
    NODE_COUNTS (64, 128, ..., 1024) that is at least 4M and doubles while,
    on any cap's radius-1 circle, any column of the target's, the
    remainder's or the basis forms' data has Fourier content c_k in the
    band 3N/8 <= |k| < N/2 above SPECTRAL_TAIL_TOL = 1e-12 times max(1, the
    column's largest |c_k| on any circle); past 1024 it raises
    NumericalError. The benchmark's inputs take 64 (torus-solve), 128
    (torus-verify, after one 64-node try) and 256 (sphere-multicap,
    M = 40); the count and the largest band content measured at it are
    reported as ``pairing_nodes`` and ``spectral_tail``.
    """
    guard_order(M, key="M")
    n = surface.n_caps
    pairing, eps, c_vec, d_vec, rho_data, data, tail = _resolved_split(
        getattr(target, "form", target), surface, M)
    # gram[i, j] = <form_j, form_i> and rhs[i] = <rho, form_i>
    gram = pairing.inner(data, data).T
    rhs = pairing.inner(rho_data, data)

    orders = sorted({mp for mp in checkpoints if mp < M} | {M})
    scale = max(1.0, pairing.norm(rho_data))
    history, stored, prev = [], [], np.inf
    for mp in orders:  # ascending, ending with M: the last solve is the reported one
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

    return SeriesDecomposition(
        epsilon=eps,
        c=c_vec,
        d=d_vec,
        h=sol.coefficients.reshape(M, n),
        M=M,
        residual_history=tuple(history),
        gram_condition=float(sol.condition),
        regularized=bool(sol.regularized),
        consistency=float(abs(np.sum(eps))),
        pairing_nodes=pairing.n,
        spectral_tail=tail,
        checkpoints=tuple(stored),
    )


def _partial_h(decomposition: SeriesDecomposition, M: int) -> np.ndarray:
    # the order-M partial sum's basis coefficients: a checkpoint order's
    # own sub-solve, any other order the full solution truncated
    if not 1 <= M <= decomposition.M:
        raise ValidationError(f"order {M} outside 1..{decomposition.M}")
    h = dict(decomposition.checkpoints).get(M)
    return decomposition.h[:M] if h is None else h


def uniform_error(target, surface: SurfaceSpec, decomposition: SeriesDecomposition,
                  points, upto=None):
    """Sup-norm coefficient error of the partial sum of order ``upto``
    (default: the full truncation) on a point set that keeps the
    geometry's ``probe_margin`` from every cap; for a sequence of orders,
    the list of their errors from one read.

    The target and the closed part are read on the points once, and the
    basis forms of orders 1..max(orders) of each cap with one
    ``alpha_values`` call, one kernel block on the radius step of the
    highest order; each partial sum contracts the leading columns with its
    own coefficients, a checkpoint order's own sub-solve and any other
    order's the full solution truncated. An order read alone takes its
    basis forms on the step of its own order, so it agrees with the same
    order read among higher ones up to roundoff.
    """
    pts = surface.require_clear(points, surface.geometry.probe_margin, "probe point z")
    single = np.ndim(upto) == 0
    orders = ([decomposition.M if upto is None else int(upto)] if single
              else [int(M) for M in upto])
    hs = [_partial_h(decomposition, M) for M in orders]
    form = getattr(target, "form", target)
    want = np.asarray(form(pts))
    closed = np.asarray(OneForm.combine(
        closed_terms(surface, decomposition.epsilon, decomposition.c)).evaluator(pts))
    top = max(orders, default=0)
    basis = {k: alpha_values(surface, k, range(1, top + 1), pts)
             for k in range(surface.n_caps) if any(np.any(h[:, k] != 0) for h in hs)}
    errors = []
    for M, h in zip(orders, hs):
        partial = closed
        for k, vals in basis.items():
            partial = partial + vals[:, :M] @ h[:, k]
        errors.append(float(np.max(np.abs(want - partial))))
    return errors[0] if single else errors


def coefficient_deviations(a: SeriesDecomposition, b: SeriesDecomposition) -> dict:
    """Largest absolute difference between two decompositions of the same
    order and checkpoints, per component: epsilon, c, d, h, and the h of
    each checkpoint order m under the name "h at M=m"."""
    if a.M != b.M or [m for m, _h in a.checkpoints] != [m for m, _h in b.checkpoints]:
        raise ValidationError("decompositions of different orders or checkpoints do not compare")
    pairs = [("epsilon", a.epsilon, b.epsilon), ("c", a.c, b.c), ("d", a.d, b.d),
             ("h", a.h, b.h)]
    pairs += [(f"h at M={m}", ha, hb) for (m, ha), (_m, hb) in zip(a.checkpoints, b.checkpoints)]
    return {name: float(np.max(np.abs(x - y), initial=0.0)) for name, x, y in pairs}


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
    return float(np.max(list(coefficient_deviations(dec1, dec2).values())))
