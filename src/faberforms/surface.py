"""Sphere and torus surface data: Green's function, Schiffer kernel,
pole-difference forms, the holomorphic basis, homology cycles and periods.

A ``SurfaceSpec`` chooses its geometry once, from its genus: a
``geometry.Sphere`` (the plane plus infinity, points read as given) or a
``geometry.Torus`` (the fundamental parallelogram spanned by 1 and tau,
points read through their lattice copies). Everything that differs
between the two is a member of the geometry, so no caller asks the genus.
"""

from __future__ import annotations

from dataclasses import dataclass
from functools import cached_property, partial
from typing import Callable

import numpy as np

from .conformal import CapFamily, TranslatedMap
from .geometry import CYCLE_NODES, Sphere, Torus
from .numerics import TWO_PI, NumericalError, ValidationError


@dataclass(frozen=True)
class OneForm:
    """A one-form a(w) dw.

    ``evaluator`` returns the coefficient a(w). ``poles`` lists known
    (location, order) pairs of the meromorphic tag.
    """

    evaluator: Callable
    poles: tuple = ()
    label: str = ""

    def __call__(self, w):
        return self.evaluator(w)

    @staticmethod
    def combine(terms, label: str = "") -> "OneForm":
        """Linear combination sum_j c_j form_j."""
        terms = [(complex(c), f) for c, f in terms]
        if not terms:
            return OneForm(lambda w: np.zeros_like(np.asarray(w, dtype=complex)), label=label)
        poles = tuple(p for _, f in terms for p in f.poles)

        def ev(w, _terms=terms):
            w = np.asarray(w, dtype=complex)
            out = np.zeros(w.shape, dtype=complex)
            for c, f in _terms:
                out = out + c * np.asarray(f.evaluator(w), dtype=complex)
            return out

        return OneForm(ev, poles=poles, label=label)


@dataclass(frozen=True)
class Cycle:
    """A closed periodic path with the trapezoid rule: equispaced nodes
    in the path's parameter, each weighted by its step.

    ``sum(a(nodes) * weights)`` is the path integral of a(w) dw. Boundary
    cycles are circles around a cap; lattice cycles are the segments
    [base, base + 1] and [base, base + tau], closed on the torus. Every
    form integrated over a cycle is periodic along it, so the rule
    converges geometrically (Trefethen & Weideman, SIAM Rev. 56, 2014).
    """

    kind: str
    index: int
    nodes: np.ndarray
    weights: np.ndarray

    @property
    def name(self) -> str:
        if self.kind == "boundary":
            return f"boundary cycle of cap {self.index}"
        return f"{self.kind} cycle"

    def integrate(self, vals) -> complex:
        """Path integral from samples at the nodes."""
        return complex(np.sum(vals * self.weights))


class SurfaceSpec:
    """A capped surface: its geometry, caps, base point q and normalization
    point w0. The genus picks the geometry once, here, a ``Sphere`` or a
    ``Torus`` held as ``geometry``; ``genus`` and ``tau`` are read-only
    figures of it. Use the ``sphere`` and ``torus`` classmethods; both
    place w0, and the torus q, by ``clear_point`` when they are not given.
    """

    genus = property(lambda self: self.geometry.genus)
    tau = property(lambda self: self.geometry.tau)

    def __init__(self, genus, caps: CapFamily, tau=None, q=None, w0=None):
        # the one check of the genus; each refusal starts with the argument
        # it names, and the geometry checks tau, through theta.check_tau
        if genus not in (0, 1):
            raise ValidationError(f"genus: must be 0 or 1, got {genus}")
        self.caps = caps
        self.geometry = (Sphere, Torus)[int(genus)](caps, tau)
        self.q = self.geometry.default_q(self) if q is None else complex(q)
        self.w0 = complex(w0) if w0 is not None else self.clear_point(avoid=(self.q,))
        self._check_marked_points()

    # -- constructors -------------------------------------------------------

    @classmethod
    def sphere(cls, caps: CapFamily, q=None, w0=None) -> "SurfaceSpec":
        """Capped sphere; q = None places the base point at infinity."""
        return cls(0, caps, q=q, w0=w0)

    @classmethod
    def torus(cls, tau, caps: CapFamily, q=None, w0=None) -> "SurfaceSpec":
        return cls(1, caps, tau=tau, q=q, w0=w0)

    # -- geometry helpers -----------------------------------------------------

    @property
    def n_caps(self) -> int:
        return len(self.caps)

    def cap(self, k: int, key: str | None = None):
        """The map of cap k: the one check of a cap index. An index outside
        0..n_caps - 1 is refused, after ``key`` when one is given."""
        if not 0 <= k < self.n_caps:
            raise ValidationError(f"{key + ': ' if key else ''}cap index {k} out of range")
        return self.caps[k]

    def in_sigma(self, z) -> np.ndarray:
        """True where z, as a point of the surface, lies outside every
        closed cap: z reduced by the geometry lies in no cap."""
        zz = self.geometry.reduce(np.atleast_1d(np.asarray(z, dtype=complex)))
        out = self.caps.which_cap(zz) == -1
        return out if np.ndim(z) else bool(out[0])

    def cycle_base(self) -> complex:
        """Deterministic base point for the a/b cycles, away from all caps
        (``Torus.cycle_base``); the sphere refuses."""
        return self.geometry.cycle_base()

    def distance(self, w, points):
        """Smallest distance from each w to any of the points, as points of
        the surface: from the geometry's copies of w to the points reduced
        by it. A float for a scalar w."""
        copies = self.geometry.copies(np.asarray(w, dtype=complex))
        points = self.geometry.reduce(np.array(points, dtype=complex))
        out = np.min(np.abs(copies[..., None] - points), axis=(0, -1), initial=np.inf)
        return out if np.ndim(w) else float(out)

    def distance_to_caps_reduced(self, w) -> np.ndarray:
        """Distance, as points of the surface, to the nearest cap boundary."""
        return self.geometry.distance_to_caps(np.atleast_1d(np.asarray(w, dtype=complex)))

    def translated(self, t: complex) -> "SurfaceSpec":
        """The same surface with every marked object shifted by t."""
        t = complex(t)
        moved = CapFamily([TranslatedMap(m, t) for m in self.caps])
        q = None if self.q is None else self.q + t
        return SurfaceSpec(self.genus, moved, tau=self.tau, q=q, w0=self.w0 + t)

    # -- validation -----------------------------------------------------------

    def require_clear(self, points, margin: float, name: str) -> np.ndarray:
        """The points as a complex array of at least one dimension: the one
        refusal of a point too near the caps. Raises ValidationError naming
        ``name`` and the first point in a closed cap (torus: in a lattice
        copy of one), or, for a positive margin, the nearest point when one
        lies closer to a cap than the margin."""
        pts = np.atleast_1d(np.asarray(points, dtype=complex))
        inside = ~self.in_sigma(pts)
        if np.any(inside):
            raise ValidationError(f"{name} = {pts[inside][0]:.6g} lies in a closed cap")
        if margin > 0:
            dist = self.distance_to_caps_reduced(pts)
            j = int(np.argmin(dist))
            if dist.flat[j] < margin:
                raise ValidationError(f"{name} = {pts.flat[j]:.6g} is {float(dist.flat[j]):.3f} "
                                      f"from a cap, inside the margin {margin}")
        return pts

    def _check_marked_points(self):
        for name, p in (("q", self.q), ("w0", self.w0)):
            if p is not None:
                self.require_clear(p, 1e-6, f"marked point {name}")
        if self.q is not None and self.distance(self.w0, [self.q]) < 1e-9:
            raise ValidationError(f"marked points q = {self.q:.6g} and w0 = {self.w0:.6g} "
                                  f"are the same point of the surface")

    @cached_property
    def _candidates(self):
        """The geometry's grid ``clear_point`` chooses from, and each
        point's distance to the caps, -1 inside one."""
        cand = self.geometry.candidates()
        d = self.distance_to_caps_reduced(cand)
        d[~self.in_sigma(cand)] = -1.0
        return cand, d

    def clear_point(self, avoid=()):
        """The candidate of a fixed grid outside the caps farthest from
        them and from the points ``avoid``, by ``distance``; None in
        ``avoid`` is the sphere's point at infinity, which every candidate
        clears."""
        cand, d = self._candidates
        d = np.minimum(d, self.distance(cand, [p for p in avoid if p is not None]))
        j = int(np.argmax(d))
        if d[j] <= 0:
            raise ValidationError("found no marked point clear of the caps")
        return complex(cand[j])

    def __repr__(self):
        return f"SurfaceSpec({self.geometry!r}, {len(self.caps)} caps)"


_SURFACE_DEFAULT = object()


def green(surface: SurfaceSpec, w, z, q=_SURFACE_DEFAULT):
    """Bipolar Green's function: -log singularity at z, +log at q, zero at w0.

    The geometry's closed form (``Sphere.green``, ``Torus.green``) less its
    own value at w0; on the sphere with q at infinity it is
    log(|z - w0| / |w - z|).
    """
    w = np.asarray(w, dtype=complex)
    z = complex(z)
    if q is _SURFACE_DEFAULT:
        q = surface.q
    elif q is not None:
        q = complex(q)
    for name, mark in (("z", z), ("q", q)):
        if mark is not None and np.any(surface.distance(w, [mark]) < 1e-12):
            raise NumericalError(
                f"Green's function evaluated at its {name}-singularity (distance below 1e-12)")
    return surface.geometry.green(w, z, q, surface.w0)


def schiffer_kernel(surface: SurfaceSpec, w, z, out=None):
    """Kernel of the cap-to-surface operator; (2/pi) d2 G / dw dz.

    Sphere: exactly -(1/pi) (w - z)^(-2), independent of q and w0. Torus:
    (log theta1)''(w - z)/pi plus the constant 1/Im tau contributed by the
    periodicity correction; the base point drops out exactly.

    ``out``, given, is a C-contiguous complex array of the broadcast shape
    of w and z that receives the kernel and is returned: w - z is written
    into it and turned into the kernel in place by the geometry, so a
    caller that builds many kernel slices (``schiffer.schiffer_contour``)
    reuses one buffer for all of them. Without it the call allocates that
    array and runs the same arithmetic, so the values are the same bits
    either way. Scalar w and z give a scalar.
    """
    w = np.asarray(w, dtype=complex)
    z = np.asarray(z, dtype=complex)
    if out is None:
        out = np.empty(np.broadcast_shapes(w.shape, z.shape), dtype=complex)
    d = surface.geometry.kernel(np.subtract(w, z, out=out))
    return d if d.ndim else d[()]


def beta_form(surface: SurfaceSpec, k: int) -> OneForm:
    """Pole-difference form: simple poles, residue +1 at center k, -1 at the
    last cap's center, the geometry's closed form (on the torus a theta
    log-derivative difference, exactly elliptic). Index k runs to n_caps - 2.
    """
    n = surface.n_caps
    if n < 2:
        raise ValidationError("pole-difference forms need at least two caps")
    if not 0 <= k < n - 1:
        raise ValidationError(f"cap index {k} out of range for {n} caps (0..{n - 2})")
    zk = complex(surface.caps.centers[k])
    zn = complex(surface.caps.centers[n - 1])
    return OneForm(partial(surface.geometry.pole_difference, zk=zk, zn=zn),
                   poles=((zk, 1), (zn, 1)), label=f"beta_{k}")


def gamma_basis(surface: SurfaceSpec) -> list:
    """The geometry's a-normalized holomorphic one-form basis: [] on the
    sphere, [dw] on the torus."""
    return [OneForm(ev, label=f"gamma_{j}") for j, ev in enumerate(surface.geometry.holomorphic)]


def boundary_cycle(surface: SurfaceSpec, k: int, radius: float = 1.0, n: int = 512) -> Cycle:
    """Circle |zeta| = radius in cap k's disk chart, winding once around
    the cap center, counterclockwise."""
    f = surface.cap(k)
    zeta = radius * np.exp(1j * TWO_PI * np.arange(n) / n)
    nodes = f.evaluate(zeta)
    weights = (TWO_PI * 1j / n) * zeta * f.derivative(zeta)
    return Cycle("boundary", k, nodes, weights)


def lattice_cycles(surface: SurfaceSpec) -> tuple:
    """The geometry's lattice cycles with the CYCLE_NODES-node trapezoid
    rule: on the torus the a cycle [base, base + 1] and the b cycle [base,
    base + tau] from the cycle base, each closed on the torus; none on the
    sphere."""
    t = np.arange(CYCLE_NODES) / CYCLE_NODES
    return tuple(Cycle(kind, 0, surface.cycle_base() + t * omega,
                       np.full(CYCLE_NODES, omega / CYCLE_NODES, dtype=complex))
                 for kind, omega in surface.geometry.periods)


def per_cycle(vals, cycles) -> list:
    """Samples on the concatenated nodes of the cycles, split along the
    leading axis into one view per cycle."""
    return np.split(vals, np.cumsum([c.nodes.size for c in cycles])[:-1])


def sample(form: OneForm, cycles) -> np.ndarray:
    """The form's coefficient at the nodes of the cycles, concatenated in
    their order, from one evaluation. Raises, naming the cycle, when a
    declared pole sits on a cycle or a value is not finite."""
    nodes = np.concatenate([c.nodes for c in cycles])
    if form.poles:
        locs = np.array([p for p, _ in form.poles])
        gaps = np.min(np.abs(nodes[None, :] - locs[:, None]), axis=0)
        for c, g in zip(cycles, per_cycle(gaps, cycles)):
            if np.min(g) < 1e-8:
                raise NumericalError(f"a pole sits on the {c.name} (gap {np.min(g):.2e})")
    vals = np.asarray(form(nodes), dtype=complex)
    require_finite(vals, cycles)
    return vals


def require_finite(vals, cycles):
    """Raise naming the first cycle on whose nodes, along the leading axis
    of ``vals``, a value is not finite."""
    for c, v in zip(cycles, per_cycle(vals, cycles)):
        if not np.all(np.isfinite(v)):
            raise NumericalError(f"form not finite on the {c.name}")


def period(form: OneForm, cycle: Cycle) -> complex:
    """Path integral of the form over the cycle's quadrature rule."""
    return cycle.integrate(sample(form, [cycle]))
