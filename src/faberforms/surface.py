"""Sphere and torus surface data: Green's function, Schiffer kernel,
pole-difference forms, the holomorphic basis, homology cycles and periods.

Chart conventions. The sphere is the plane plus infinity; the base point q
defaults to infinity, which turns the Green's function into the elementary
log ratio. The torus is handled on the universal cover as the fundamental
parallelogram spanned by 1 and tau; caps must stay inside it by
CELL_MARGIN, while all torus quantities are built from lattice-reduced
theta calls and so are exactly doubly periodic.
"""

from __future__ import annotations

from dataclasses import dataclass
from functools import cached_property
from typing import Callable

import numpy as np

from . import theta
from .conformal import CapFamily, TranslatedMap
from .numerics import BLOCK_ENTRIES, TWO_PI, NumericalError, ValidationError

PI = np.pi
# Nodes on each lattice cycle: the trapezoid rule's nodes, and the side of
# the node lattice on which SurfaceSpec.cycle_base measures clearance
CYCLE_NODES = 64
CELL_MARGIN = 0.05  # least lattice-coordinate gap between a torus cap and the cell's edges
# Points per slice of SurfaceSpec.distance_to_caps_reduced on the torus.
# Measured whole, the cycle-base search's 4096-node lattice freed over 1 MB
# of mapped temporaries, which raised glibc's dynamic mmap and trim
# thresholds above a contour read's heap; the reads' freed heap then stayed
# resident until the first LAPACK call paged in its code, where
# torus-solve's peak RSS is set. In slices of 512 points that peak reads
# 0.63 MB lower without bytecode and level with it written
# (perfbench/child.py, the first eight pool inputs, theta's 4096-point
# blocks on both sides), and the search takes 16.4 ms against 15.8 ms
# (median over the 16 torus-solve inputs of the best of 7, one process,
# 2-vCPU x86-64 VM).
DISTANCE_SLICE = BLOCK_ENTRIES // 64


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
    """A capped sphere or torus: genus, caps, base point q, normalization w0.

    Use the ``sphere`` and ``torus`` classmethods; both auto-place q and w0
    away from the caps when they are not given.
    """

    def __init__(self, genus, caps: CapFamily, tau=None, q=None, w0=None):
        if genus not in (0, 1):
            raise ValidationError(f"genus must be 0 or 1, got {genus}")
        self.genus = int(genus)
        self.caps = caps
        if self.genus == 1:
            if tau is None:
                raise ValidationError("torus surface needs a lattice parameter tau")
            tau = complex(tau)
            if not tau.imag > 0:
                raise ValidationError(f"lattice parameter needs Im tau > 0, got tau = {tau}")
            self.tau = tau
            self._check_caps_in_cell()
        else:
            if tau is not None:
                raise ValidationError("sphere surface takes no lattice parameter")
            self.tau = None
        self.q = None if q is None else complex(q)
        if self.genus == 1 and self.q is None:
            self.q = self._auto_point(avoid=())
        self.w0 = complex(w0) if w0 is not None else self._auto_point(
            avoid=() if self.q is None else (self.q,)
        )
        self._check_marked_points()
        self._cycle_base = None

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

    def cell_coordinates(self, w):
        """Torus lattice coordinates (x, y) with w = x + y tau."""
        w = np.asarray(w, dtype=complex)
        y = w.imag / self.tau.imag
        x = w.real - y * self.tau.real
        return x, y

    def reduce_to_cell(self, w) -> np.ndarray:
        """Torus points w moved into the cell {x + y tau : 0 <= x, y < 1}."""
        x, y = self.cell_coordinates(w)
        return (x - np.floor(x)) + (y - np.floor(y)) * self.tau

    def in_sigma(self, z) -> np.ndarray:
        """True where z lies outside every closed cap (torus: after reduction)."""
        zz = np.atleast_1d(np.asarray(z, dtype=complex))
        if self.genus == 1:
            zz = self.reduce_to_cell(zz)
        out = self.caps.which_cap(zz) == -1
        return out if np.ndim(z) else bool(out[0])

    def cycle_base(self) -> complex:
        """Deterministic base point for the a/b cycles, away from all caps.

        The candidates are the points (j + i tau) / n of the cell's n x n
        node lattice, n = CYCLE_NODES. The a-cycle nodes of the base (i, j)
        are row i of that lattice and its b-cycle nodes are column j, up to
        lattice shifts, so its clearance, that of its quadrature nodes, is
        the smaller of its row's and its column's minimum. The first
        maximum in row-major order wins.
        """
        if self.genus == 0:
            raise ValidationError("the sphere has no lattice cycles")
        if self._cycle_base is None:
            k = np.arange(CYCLE_NODES)
            nodes = (k + k[:, None] * self.tau) / CYCLE_NODES
            d = self.distance_to_caps_reduced(nodes)
            clearance = np.minimum(d.min(axis=1)[:, None], d.min(axis=0))
            j = int(np.argmax(clearance))
            best_d = float(clearance.flat[j])
            if best_d < 2 * CELL_MARGIN:
                raise ValidationError(
                    f"no lattice cycle clears the caps (best clearance {best_d:.3g})"
                )
            self._cycle_base = complex(nodes.flat[j])
        return self._cycle_base

    def _lattice_copies(self, w) -> np.ndarray:
        """The 3x3 block of lattice copies around the cell of each torus
        point w reduced into the cell, stacked along a new first axis."""
        x, y = self.cell_coordinates(w)
        return np.stack([
            (x - np.floor(x) + dx) + (y - np.floor(y) + dy) * self.tau
            for dx in (-1, 0, 1)
            for dy in (-1, 0, 1)
        ])

    def distance_to_caps_reduced(self, w) -> np.ndarray:
        """Distance to the nearest cap boundary, torus points reduced first.

        On the torus the points go in slices of ``DISTANCE_SLICE``: a
        slice's nine lattice copies take 72 KiB, and ``min_distance`` sizes
        its storage by the slice, where the cycle-base search's 4096 nodes
        at once took nine copies twice over (1.2 MB) and a whole block
        budget of storage.
        """
        ww = np.atleast_1d(np.asarray(w, dtype=complex))
        if self.genus == 0:
            return self.caps.distance_to_caps(ww)
        flat = ww.ravel()
        d = np.empty(flat.size)
        for start in range(0, flat.size, DISTANCE_SLICE):
            part = flat[start:start + DISTANCE_SLICE]
            d[start:start + part.size] = self.caps.min_distance(self._lattice_copies(part))
        return d.reshape(ww.shape)

    def translated(self, t: complex) -> "SurfaceSpec":
        """The same surface with every marked object shifted by t."""
        t = complex(t)
        moved = CapFamily([TranslatedMap(m, t) for m in self.caps],
                          separation=self.caps.separation)
        q = None if self.q is None else self.q + t
        return SurfaceSpec(self.genus, moved, tau=self.tau, q=q, w0=self.w0 + t)

    # -- validation -----------------------------------------------------------

    def _check_caps_in_cell(self):
        for k in range(len(self.caps)):
            x, y = self.cell_coordinates(self.caps.boundary_samples(k))
            if (
                x.min() < CELL_MARGIN
                or x.max() > 1 - CELL_MARGIN
                or y.min() < CELL_MARGIN
                or y.max() > 1 - CELL_MARGIN
            ):
                raise ValidationError(
                    f"cap {k} leaves the fundamental cell (margin {CELL_MARGIN}); "
                    f"lattice coordinates span [{x.min():.3f}, {x.max():.3f}] x "
                    f"[{y.min():.3f}, {y.max():.3f}]"
                )

    def _check_marked_points(self):
        for name, p in (("q", self.q), ("w0", self.w0)):
            if p is None:
                continue
            if not self.in_sigma(p) or self.distance_to_caps_reduced(p)[0] < 1e-6:
                raise ValidationError(f"marked point {name} = {p:.6g} lies in a closed cap")
        if self.q is not None and abs(self.q - self.w0) < 1e-9:
            raise ValidationError("q and w0 must be distinct")

    @cached_property
    def _candidates(self):
        """The grid q and w0 are placed on, and each point's distance to the
        caps (torus: to every lattice copy), -1 inside one."""
        if self.genus == 1:
            g = np.linspace(0.08, 0.92, 22)
            cand = (g[:, None] + g[None, :] * self.tau).ravel()
        else:
            b = np.concatenate([self.caps.boundary_samples(k) for k in range(len(self.caps))])
            span = max(float(np.max(np.abs(b - np.mean(b)))), 1.0)
            g = np.linspace(-2.5, 2.5, 21)
            cand = (np.mean(b) + span * (g[:, None] + 1j * g[None, :])).ravel()
        d = self.distance_to_caps_reduced(cand)
        d[~self.in_sigma(cand)] = -1.0
        return cand, d

    def _auto_point(self, avoid=()):
        cand, d = self._candidates
        for p in avoid:
            d = np.minimum(d, np.abs(cand - p))
        j = int(np.argmax(d))
        if d[j] <= 0:
            raise ValidationError("found no marked point clear of the caps")
        return complex(cand[j])

    def __repr__(self):
        kind = "sphere" if self.genus == 0 else f"torus(tau={self.tau:.4g})"
        return f"SurfaceSpec({kind}, {len(self.caps)} caps)"


def _guard_apart(diff, what: str, tol: float = 1e-12):
    """Raise when any entry of the difference ``diff`` of two point sets is
    below ``tol`` in modulus. The moduli are taken a chunk of an eighth of
    the block budget at a time, into one small buffer, so a guard on a
    kernel slice adds no slice-sized array."""
    flat = np.asarray(diff).reshape(-1)
    step = BLOCK_ENTRIES // 8
    moduli = np.empty(min(flat.size, step))
    for start in range(0, flat.size, step):
        part = flat[start:start + step]
        if np.any(np.abs(part, out=moduli[:part.size]) < tol):
            raise NumericalError(f"{what} (distance below {tol:.0e})")


_SURFACE_DEFAULT = object()


def green(surface: SurfaceSpec, w, z, q=_SURFACE_DEFAULT):
    """Bipolar Green's function: -log singularity at z, +log at q, zero at w0.

    On the sphere with q at infinity this is log(|z - w0| / |w - z|); with
    finite q the full cross-ratio log. On the torus it is the theta
    quotient with the linear Im-correction that restores double
    periodicity, normalized by subtracting its own value at w0.
    """
    w = np.asarray(w, dtype=complex)
    z = complex(z)
    w0 = surface.w0
    if q is _SURFACE_DEFAULT:
        q = surface.q
    elif q is not None:
        q = complex(q)
    _guard_apart(w - z, "Green's function evaluated at its z-singularity")
    if surface.genus == 0:
        if q is None:
            return np.log(np.abs(z - w0)) - np.log(np.abs(w - z))
        _guard_apart(w - q, "Green's function evaluated at its q-singularity")
        # single log of the cross-ratio modulus: at w = w0 numerator and
        # denominator are the same doubles, so the value is exactly zero
        return np.log(
            (np.abs(z - w0) * np.abs(w - q)) / (np.abs(w - z) * np.abs(q - w0))
        )
    if q is None:
        raise ValidationError("torus Green's function needs a finite base point q")
    _guard_apart(w - q, "Green's function evaluated at its q-singularity")
    tau = surface.tau

    def g0(u):
        return (
            theta.log_abs(u - q, tau)
            - theta.log_abs(u - z, tau)
            - (TWO_PI * (z - q).imag / tau.imag) * np.asarray(u, dtype=complex).imag
        )

    return g0(w) - g0(w0)


def schiffer_kernel(surface: SurfaceSpec, w, z, out=None):
    """Kernel of the cap-to-surface operator; (2/pi) d2 G / dw dz.

    Sphere: exactly -(1/pi) (w - z)^(-2), independent of q and w0. Torus:
    (log theta1)''(w - z)/pi plus the constant 1/Im tau contributed by the
    periodicity correction; the base point drops out exactly.

    ``out``, given, is a C-contiguous complex array of the broadcast shape
    of w and z that receives the kernel and is returned: w - z is written
    into it and turned into the kernel in place, so a caller that builds
    many kernel slices (``schiffer.schiffer_contour``) reuses one buffer
    for all of them. Without it the call allocates that array and runs the
    same arithmetic, so the values are the same bits either way. Scalar w
    and z give a scalar.
    """
    w = np.asarray(w, dtype=complex)
    z = np.asarray(z, dtype=complex)
    if out is None:
        out = np.empty(np.broadcast_shapes(w.shape, z.shape), dtype=complex)
    d = np.subtract(w, z, out=out)
    _guard_apart(d, "Schiffer kernel evaluated on its diagonal")
    if surface.genus == 0:
        # -1 / (pi d^2), with d squared, scaled and inverted in place
        d **= 2
        d *= PI
        np.divide(-1.0, d, out=d)
    else:
        theta.log_derivative2(d, surface.tau, out=d)
        d /= PI
        d += 1.0 / surface.tau.imag
    return d if d.ndim else d[()]


def beta_form(surface: SurfaceSpec, k: int) -> OneForm:
    """Pole-difference form: simple poles, residue +1 at center k, -1 at the
    last cap's center. Torus version is a theta log-derivative difference,
    which is exactly elliptic. Index k is 0-based and runs to n_caps - 2.
    """
    n = surface.n_caps
    if n < 2:
        raise ValidationError("pole-difference forms need at least two caps")
    if not 0 <= k < n - 1:
        raise ValidationError(f"cap index {k} out of range for {n} caps (0..{n - 2})")
    zk = complex(surface.caps.centers[k])
    zn = complex(surface.caps.centers[n - 1])
    if surface.genus == 0:

        def ev(w, zk=zk, zn=zn):
            w = np.asarray(w, dtype=complex)
            return 1.0 / (w - zk) - 1.0 / (w - zn)

    else:
        tau = surface.tau

        def ev(w, zk=zk, zn=zn, tau=tau):
            w = np.asarray(w, dtype=complex)
            return theta.log_derivative(w - zk, tau) - theta.log_derivative(w - zn, tau)

    return OneForm(ev, poles=((zk, 1), (zn, 1)), label=f"beta_{k}")


def gamma_basis(surface: SurfaceSpec) -> list:
    """Holomorphic one-form basis, a-normalized: [] on the sphere, [dw] on
    the torus (its a-period along [base, base + 1] is exactly 1)."""
    if surface.genus == 0:
        return []

    def ev(w):
        return np.ones_like(np.asarray(w, dtype=complex))

    return [OneForm(ev, label="gamma_0")]


def boundary_cycle(surface: SurfaceSpec, k: int, radius: float = 1.0, n: int = 512) -> Cycle:
    """Circle |zeta| = radius in cap k's disk chart, winding once around
    the cap center, counterclockwise."""
    if not 0 <= k < surface.n_caps:
        raise ValidationError(f"cap index {k} out of range")
    f = surface.caps[k]
    zeta = radius * np.exp(1j * TWO_PI * np.arange(n) / n)
    nodes = f.evaluate(zeta)
    weights = (TWO_PI * 1j / n) * zeta * f.derivative(zeta)
    return Cycle("boundary", k, nodes, weights)


def _segment_cycle(surface: SurfaceSpec, kind: str) -> Cycle:
    if surface.genus == 0:
        raise ValidationError("the sphere has no lattice cycles")
    direction = 1.0 if kind == "a" else surface.tau
    nodes = surface.cycle_base() + np.arange(CYCLE_NODES) / CYCLE_NODES * direction
    return Cycle(kind, 0, nodes, np.full(CYCLE_NODES, direction / CYCLE_NODES, dtype=complex))


def a_cycle(surface: SurfaceSpec) -> Cycle:
    """Lattice cycle [base, base + 1] from the cycle base, closed on the
    torus, with the CYCLE_NODES-node trapezoid rule."""
    return _segment_cycle(surface, "a")


def b_cycle(surface: SurfaceSpec) -> Cycle:
    """Lattice cycle [base, base + tau] from the cycle base, closed on the
    torus, with the CYCLE_NODES-node trapezoid rule."""
    return _segment_cycle(surface, "b")


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
