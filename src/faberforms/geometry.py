"""The two geometries of a capped surface, ``Sphere`` and ``Torus``.

A ``surface.SurfaceSpec`` chooses its geometry once, from its genus, and
every caller asks the geometry, never the genus. The geometry owns what
differs between the two surfaces: point reduction and lattice copies
(from which ``SurfaceSpec`` writes its one ``in_sigma`` and
``distance``), the distances to the caps, the cell margin, the default
base point q, the closed forms of the Green's function, the Schiffer
kernel, the pole-difference form and the pole target's double pole, the
holomorphic forms, the lattice periods and their split, and the regions
the checks, the candidate grid of the marked points and the probe ring
read.
"""

from __future__ import annotations

import numpy as np

from . import theta
from .conformal import CapFamily
from .numerics import BLOCK_ENTRIES, TWO_PI, NumericalError, ValidationError

PI = np.pi
# Nodes on each lattice cycle: the trapezoid rule's nodes, and the side of
# the node lattice on which Torus.cycle_base measures clearance
CYCLE_NODES = 64
CELL_MARGIN = 0.05  # least lattice-coordinate gap between a torus cap and the cell's edges
DIAGONAL_GAP = 1e-12  # least distance, as points of the surface, of a kernel entry's two points
# Points per slice of Torus.distance_to_caps and of the cycle-base search's
# bounds, whose nine lattice copies and min_distance or lower_bound storage
# then take a few hundred KiB. Measured whole, the cycle-base search's
# 4096-node lattice took nine copies twice over (1.2 MB) and freed over
# 1 MB of mapped temporaries, which raised glibc's dynamic mmap and trim
# thresholds above a contour read's heap; the reads' freed heap then stayed
# resident until the first LAPACK call paged in its code, where
# torus-solve's peak RSS is set. In slices of 512 points that peak reads
# 0.63 MB lower without bytecode and level with it written
# (perfbench/child.py, the first eight pool inputs, theta's 4096-point
# blocks on both sides), and the search, then measuring every node, took
# 16.4 ms against 15.8 ms (median over the 16 torus-solve inputs of the
# best of 7, one process, 2-vCPU x86-64 VM).
DISTANCE_SLICE = BLOCK_ENTRIES // 64


def _guard_diagonal(values, inverse_square: bool = False):
    """Raise the kernel's diagonal NumericalError when an entry of
    ``values`` comes from two points less than DIAGONAL_GAP apart.
    ``values`` holds the points' differences or, with ``inverse_square``,
    (log theta1)'' of them, which is -1/v^2 + O(1) at the lattice-reduced
    difference v: at least DIAGONAL_GAP^-2 in modulus there, and not
    finite on a lattice point. The moduli are taken a chunk of an eighth
    of the block budget at a time, into one small buffer, so a guard on a
    kernel slice adds no slice-sized array."""
    flat = np.asarray(values).reshape(-1)
    step = BLOCK_ENTRIES // 8
    moduli = np.empty(min(flat.size, step))
    for start in range(0, flat.size, step):
        part = flat[start:start + step]
        mod = np.abs(part, out=moduli[:part.size])
        # a nan modulus fails the comparison, so it counts as too large
        near = ~(mod < DIAGONAL_GAP ** -2) if inverse_square else mod < DIAGONAL_GAP
        if np.any(near):
            raise NumericalError(
                f"Schiffer kernel evaluated on its diagonal (distance below {DIAGONAL_GAP:.0e})")


class CapOutsideCell(ValidationError):
    """``cap <cap> <reason>``: a torus cap that leaves the fundamental cell."""

    def __init__(self, cap: int, reason: str):
        super().__init__(f"cap {cap} {reason}")
        self.cap, self.reason = cap, reason


class Sphere:
    """The plane plus the point at infinity. Points are read as given:
    ``reduce`` is the identity and each point is its own one copy; there
    are no lattice cycles and no holomorphic forms, and q defaults to
    infinity (None)."""

    genus, tau, periods, holomorphic = 0, None, (), ()
    probe_margin = 0.1  # least distance from the caps of a point the sup errors read
    translation = 0.5  # the default run.translation

    def __init__(self, caps: CapFamily, tau):
        if tau is not None:
            raise ValidationError("tau: not allowed for genus 0")
        self.caps = caps

    def __repr__(self):
        return "sphere"

    def reduce(self, w):
        return w

    def copies(self, w) -> np.ndarray:
        """Each point w itself, along a new first axis of one copy."""
        return np.asarray(w)[None]

    def distance_to_caps(self, ww) -> np.ndarray:
        return self.caps.distance_to_caps(ww)

    def default_q(self, surface):
        return None

    def candidates(self) -> np.ndarray:
        b = np.concatenate([self.caps.boundary_samples(k) for k in range(len(self.caps))])
        span = max(float(np.max(np.abs(b - np.mean(b)))), 1.0)
        g = np.linspace(-2.5, 2.5, 21)
        return (np.mean(b) + span * (g[:, None] + 1j * g[None, :])).ravel()

    def sample_region(self, clearance: float) -> tuple:
        centers = np.asarray(self.caps.centers)
        origin = complex(np.mean(centers))
        # the caps lie within their boundary reach of the origin, so a square
        # of half-width reach + clearance keeps its corners, 1 - pi/4 of it, open
        hi = max(2.0 + float(np.max(np.abs(centers - origin))),
                 self.caps.reach(origin) + clearance)
        return origin, -hi, hi, 1j

    def probe_ring(self) -> tuple:
        center = complex(np.mean(self.caps.centers))
        return center, max(0.5, self.caps.reach(center)) + 0.75

    def cycle_base(self):
        raise ValidationError("the sphere has no lattice cycles")

    def cycle_split(self, lattice_periods) -> tuple:
        return (np.zeros(0, dtype=complex),) * 2

    def green(self, w, z, q, w0):
        if q is None:
            return np.log(np.abs(z - w0)) - np.log(np.abs(w - z))
        # single log of the cross-ratio modulus: at w = w0 numerator and
        # denominator are the same doubles, so the value is exactly zero
        return np.log((np.abs(z - w0) * np.abs(w - q)) / (np.abs(w - z) * np.abs(q - w0)))

    def kernel(self, d):
        _guard_diagonal(d)
        # -1 / (pi d^2), with d squared, scaled and inverted in place
        d **= 2
        d *= PI
        return np.divide(-1.0, d, out=d)

    def pole_difference(self, w, zk, zn):
        w = np.asarray(w, dtype=complex)
        return 1.0 / (w - zk) - 1.0 / (w - zn)

    def double_pole(self, k, eta, s, second_log_derivative):
        """s / (z - a)^2 at a = f_k(eta), and its known coefficients: no c,
        and the h column eta^(m-1)/f'(eta), by the generating identity
        sum_m alpha^m eta^(m-1) = f'(eta) dz/(z-a)^2."""
        f = self.caps[k]
        a, fp = complex(f.evaluate(eta)), complex(f.derivative(eta))

        def ev(z, a=a, s=s):
            return s / (np.asarray(z, dtype=complex) - a) ** 2

        return a, ev, {"c": np.zeros(0, dtype=complex),
                       "h_column": (k, lambda m, s=s, eta=eta, fp=fp: s * eta ** (m - 1) / fp)}


# the 3x3 block of lattice shifts (dx, dy) of Torus.copies, dx outer, in
# plain Python: a numpy call at import faults in pages of numpy's code
_SHIFTS = tuple((dx, dy) for dx in (-1.0, 0.0, 1.0) for dy in (-1.0, 0.0, 1.0))


def _dw(w):
    return np.ones_like(np.asarray(w, dtype=complex))


class Torus:
    """The plane modulo the lattice spanned by 1 and tau, charted as the
    cell {x + y tau : 0 <= x, y < 1}, whose edges every cap clears by
    CELL_MARGIN. Every point is read through its lattice copies (``reduce``
    into the cell, the 3x3 block of ``copies`` around it), and every
    closed form through lattice-reduced theta calls, exactly doubly
    periodic. dw, whose a-period is exactly 1, is the one holomorphic form."""

    genus = 1
    holomorphic = (_dw,)  # coefficients of the a-normalized holomorphic forms
    # the default ring, radius 0.04 about the cycle base, keeps at least
    # 2 * CELL_MARGIN - 0.04 from the caps
    probe_margin = 0.05
    translation = 0.05

    def __init__(self, caps: CapFamily, tau):
        if tau is None:
            raise ValidationError("tau: required for genus 1")
        self.caps, self.tau, self._cycle_base = caps, theta.check_tau(tau), None
        self.periods = (("a", 1.0), ("b", self.tau))  # the lattice cycles' kinds and steps
        for k in range(len(caps)):
            x, y = self.cell_coordinates(caps.boundary_samples(k))
            if min(x.min(), y.min()) < CELL_MARGIN or max(x.max(), y.max()) > 1 - CELL_MARGIN:
                raise CapOutsideCell(k, f"leaves the fundamental cell (margin {CELL_MARGIN}); "
                                        f"lattice coordinates span [{x.min():.3f}, "
                                        f"{x.max():.3f}] x [{y.min():.3f}, {y.max():.3f}]")

    def __repr__(self):
        return f"torus(tau={self.tau:.4g})"

    def cell_coordinates(self, w):
        """Lattice coordinates (x, y) with w = x + y tau."""
        w = np.asarray(w, dtype=complex)
        y = w.imag / self.tau.imag
        return w.real - y * self.tau.real, y

    def reduce(self, w) -> np.ndarray:
        """Points w moved into the cell."""
        x, y = self.cell_coordinates(w)
        return (x - np.floor(x)) + (y - np.floor(y)) * self.tau

    def copies(self, w) -> np.ndarray:
        """The 3x3 block of lattice copies around the cell of each point w
        reduced into the cell, stacked along a new first axis."""
        x, y = self.cell_coordinates(w)
        x, y = x - np.floor(x), y - np.floor(y)
        shifts = np.array(_SHIFTS).reshape((9, 2) + (1,) * x.ndim)
        return (x + shifts[:, 0]) + (y + shifts[:, 1]) * self.tau

    def distance_to_caps(self, ww) -> np.ndarray:
        return self._through_copies(self.caps.min_distance, ww)

    def _through_copies(self, read, ww) -> np.ndarray:
        """``read`` (a CapFamily method) of the lattice copies of each point,
        in slices of DISTANCE_SLICE points."""
        flat = ww.ravel()
        out = np.empty(flat.size)
        for start in range(0, flat.size, DISTANCE_SLICE):
            part = flat[start:start + DISTANCE_SLICE]
            out[start:start + part.size] = read(self.copies(part))
        return out.reshape(ww.shape)

    def default_q(self, surface):
        return surface.clear_point()

    def candidates(self) -> np.ndarray:
        g = np.linspace(0.08, 0.92, 22)
        return (g[:, None] + g[None, :] * self.tau).ravel()

    def sample_region(self, clearance: float) -> tuple:
        return 0.0, 0.02, 0.98, self.tau

    def probe_ring(self) -> tuple:
        # ride the corridor of the cycle base the pairing searched for
        return complex(self.cycle_base()), 0.04

    def cycle_base(self) -> complex:
        """The first maximum in row-major order of a base's clearance on
        the node lattice (j + i tau) / n, n = CYCLE_NODES: the smaller of
        the least distance to the caps of row i's and column j's nodes (its
        a- and b-cycle nodes). Every node is bounded from below, and only
        nodes whose bound can decide the pick are measured; the maxima stay
        exact, so the pick is that of measuring every node."""
        if self._cycle_base is None:
            k = np.arange(CYCLE_NODES)
            nodes = (k + k[:, None] * self.tau) / CYCLE_NODES
            # bounded: each node by the least |z - c_k| - R_k of its lattice
            # copies, never above its measured distance
            bound = self._through_copies(self.caps.lower_bound, nodes)
            d = np.full(nodes.shape, np.inf)  # inf where not measured

            def measure(mask):
                d[mask] = self.distance_to_caps(nodes[mask])

            # measured first: each row's and each column's node of least
            # bound. A row's least measured distance is then an upper
            # estimate of its minimum and its least bound a lower one, so the
            # base in the row and the column of largest least bound clears at
            # least floor, the smaller of those two bounds.
            seed = np.zeros(nodes.shape, dtype=bool)
            seed[k, np.argmin(bound, axis=1)] = True
            seed[np.argmin(bound, axis=0), k] = True
            measure(seed)
            rows, cols = d.min(axis=1)[:, None], d.min(axis=0)
            floor = min(bound.min(axis=1).max(), bound.min(axis=0).max())
            # measured then: in every row and column whose estimate reaches
            # floor, the nodes whose bound is below the estimate, which makes
            # its least measured distance its exact minimum. A row or column
            # below floor holds no maximum: its bases read below floor, and
            # every maximum keeps its exact clearance.
            measure(~seed & (((rows >= floor) & (bound < rows))
                             | ((cols >= floor) & (bound < cols))))
            clearance = np.minimum(d.min(axis=1)[:, None], d.min(axis=0))
            j = int(np.argmax(clearance))
            best_d = float(clearance.flat[j])
            if best_d < 2 * CELL_MARGIN:
                raise ValidationError(
                    f"no lattice cycle clears the caps (best clearance {best_d:.3g})"
                )
            self._cycle_base = complex(nodes.flat[j])
        return self._cycle_base

    def cycle_split(self, lattice_periods) -> tuple:
        """(c, d) from the periods A = c + d and B = tau c + conj(tau) d: c
        the holomorphic coefficient, d the conjugate-type period mass, which
        every cap basis form carries."""
        A, B = lattice_periods
        tau = self.tau
        det = tau - np.conj(tau)
        assert abs(det) > 0  # Im tau > 0 is a construction invariant
        return np.array([(B - np.conj(tau) * A) / det]), np.array([(tau * A - B) / det])

    def green(self, w, z, q, w0):
        """The theta quotient with the linear Im-correction that restores
        double periodicity."""
        if q is None:
            raise ValidationError("torus Green's function needs a finite base point q")
        tau = self.tau

        def g0(u):
            return (
                theta.log_abs(u - q, tau)
                - theta.log_abs(u - z, tau)
                - (TWO_PI * (z - q).imag / tau.imag) * np.asarray(u, dtype=complex).imag
            )

        return g0(w) - g0(w0)

    def kernel(self, d):
        # guarded after the series, which reduces w - z: a lattice copy of
        # the diagonal is refused too, and its division by theta1 = 0 is quiet
        with np.errstate(divide="ignore", invalid="ignore"):
            theta.log_derivative2(d, self.tau, out=d)
        _guard_diagonal(d, inverse_square=True)
        d /= PI
        d += 1.0 / self.tau.imag
        return d

    def pole_difference(self, w, zk, zn):
        w = np.asarray(w, dtype=complex)
        return theta.log_derivative(w - zk, self.tau) - theta.log_derivative(w - zn, self.tau)

    def double_pole(self, k, eta, s, second_log_derivative):
        """(s/pi) (log theta1)''(z - a) at a = f_k(eta), read through
        ``second_log_derivative``, and its known lattice coefficient -s/Im
        tau: the b-period of (log theta1)'' is -2 pi i, its a-period 0."""
        a = complex(self.caps[k].evaluate(eta))

        def ev(z, a=a, s=s, tau=self.tau):
            return (s / np.pi) * second_log_derivative(np.asarray(z, dtype=complex) - a, tau)

        return a, ev, {"c": np.array([-s / self.tau.imag])}
