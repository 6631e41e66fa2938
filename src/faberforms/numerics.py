"""Area quadrature, series extraction, regularized least squares.

Two discretizations live here: Gauss-Legendre-by-radius grids on the unit
disk (the rule by Newton's iteration), and FFT reads of Taylor/Laurent
coefficients from equispaced circle samples. So do numpy's ``polyval``,
``polyder`` and ``default_rng`` uniform and normal draws, each computed
here bit for bit so that no run loads numpy.polynomial or numpy.random.
"""

from __future__ import annotations

import math
from dataclasses import dataclass, field

import numpy as np

TWO_PI = 2.0 * np.pi
CONDITION_LIMIT = 1e12  # Gram condition estimate above which least_squares regularizes

# Complex entries (512 KiB) in one row slice of a point-by-sample block,
# such as |sample - z| or a kernel block K(f(zeta_j), z): the slice and its
# few temporaries stay in a core's cache. Whole blocks of a few million
# entries ran at memory speed and set the peak memory of a run.
#
# A block read allocates its slice storage once (``slice_views``), at most
# these 512 KiB for all of its buffers, and writes every slice into it,
# because of how glibc's malloc places blocks: one of at least the mmap
# threshold (128 KiB at start) is mapped on its own, and freeing such a
# block raises the threshold to its size and the heap's trim threshold to
# twice that. So the largest temporary freed early in a run decides the
# rest. Below it, later temporaries come from the heap, which stays
# resident at its largest extent: a whole 256 x 256 injectivity block at
# parse time, and fresh temporaries in every slice, held about 1.5 MB more
# of a torus run resident. Above it, every slice temporary is mapped,
# faulted in and unmapped again: slicing that block alone did that to the
# kernel slices. One storage per read, never larger than the budget, keeps
# the heap small and steady whatever came before. What a read computes in
# its storage counts too: on the torus every kernel slice goes through the
# theta series, whose rows, 0.35 MB in blocks of theta._BLOCK = 2048
# points, come on top of the storage (theta._BLOCK has their measured
# effect on the torus runs' peak RSS).
BLOCK_ENTRIES = 32768


def row_slices(n_rows: int, width: int):
    """Successive slices of range(n_rows) of at most BLOCK_ENTRIES // width
    rows each, and at least one row, for blocks ``width`` entries wide."""
    step = max(1, BLOCK_ENTRIES // max(width, 1))
    for lo in range(0, n_rows, step):
        yield slice(lo, min(lo + step, n_rows))


def slice_views(n_rows: int, width: int, *dtypes):
    """Row slices of a block ``width`` entries wide with storage: yields
    (rows, views), where views holds one (rows, width) array of each dtype
    in ``dtypes``, the leading rows of buffers allocated once.

    The slices are those of ``row_slices`` for a block whose entries take
    the bytes of all the buffers together, so the storage of a read is at
    most BLOCK_ENTRIES complex entries (and one row); a read with one
    complex buffer slices as ``row_slices`` does. The buffers are cut from
    one allocation: several smaller ones would keep the allocator's
    thresholds below a read's whole storage, and the heap would be trimmed
    and faulted in again at every read. A slice's values do not outlive
    the next step of the loop.
    """
    dtypes = [np.dtype(d) for d in dtypes]
    share = -(-sum(d.itemsize for d in dtypes) // np.dtype(complex).itemsize)
    rows0 = next(row_slices(n_rows, width * share), slice(0, 0)).stop
    # one allocation, cut widest item first so that every view is aligned
    storage = np.empty(rows0 * width * sum(d.itemsize for d in dtypes), dtype=np.uint8)
    buffers, at = {}, 0
    for i in sorted(range(len(dtypes)), key=lambda i: -dtypes[i].itemsize):
        size = rows0 * width * dtypes[i].itemsize
        buffers[i] = storage[at:at + size].view(dtypes[i]).reshape(rows0, width)
        at += size
    for rows in row_slices(n_rows, width * share):
        yield rows, [buffers[i][:rows.stop - rows.start] for i in range(len(dtypes))]


class NumericalError(Exception):
    """A quadrature or solve failed in a way a retry will not fix."""


class ValidationError(Exception):
    """Inputs violate a documented precondition or parameter range."""


def polyval(x, c):
    """``numpy.polynomial.polynomial.polyval(x, c)`` for 1-D float or complex
    ``c``, bit for bit: numpy's Horner steps, with the operands in numpy's
    order (the complex product is not bitwise commutative)."""
    c = np.asarray(c)
    c0 = c[-1] + x * 0
    for i in range(2, len(c) + 1):
        c0 = c[-i] + c0 * x
    return c0


def polyder(c) -> np.ndarray:
    """``numpy.polynomial.polynomial.polyder(c)`` for 1-D float or complex
    ``c``, bit for bit."""
    c = np.asarray(c)
    if len(c) < 2:
        return c[:1] * 0
    c = c * 1  # numpy scales by 1 first: on complex entries, inf * 0 parts turn NaN
    der = np.empty(len(c) - 1, dtype=c.dtype)
    for j in range(len(c) - 1, 0, -1):
        der[j - 1] = j * c[j]
    return der


def _gauss_legendre(n: int):
    """Nodes (ascending) and weights of the n-point Gauss-Legendre rule on
    [-1, 1], by Newton's iteration on P_n from Tricomi's guesses
    cos(pi (k - 1/4) / (n + 1/2)) until no node moves by 1e-15; P_n and
    P_n' come from the three-term recurrence, and the weights are
    2 / ((1 - x^2) P_n'(x)^2) at the final nodes (Hale & Townsend, SIAM J.
    Sci. Comput. 35, 2013)."""
    # the nodes in [0, 1), ascending; the others are their mirror images
    x, step = np.cos(np.pi * (np.arange((n + 1) // 2, 0, -1) - 0.25) / (n + 0.5)), np.inf
    while True:
        p0, p1 = np.ones_like(x), x
        for k in range(2, n + 1):
            p0, p1 = p1, ((2 * k - 1) * x * p1 - (k - 1) * p0) / k
        dp = n * (x * p1 - p0) / (x * x - 1)
        if np.max(np.abs(step)) < 1e-15:
            w = 2 / ((1 - x * x) * dp * dp)
            return (np.concatenate([-x[::-1], x[n % 2:]]),
                    np.concatenate([w[::-1], w[n % 2:]]))
        step = p1 / dp
        x = x - step


@dataclass(frozen=True)
class DiskGrid:
    """Quadrature grid on the closed unit disk.

    Gauss-Legendre in radius on [0, 1), equispaced in angle. Weights carry
    the area element r dr dtheta, so ``integrate(1)`` returns pi exactly up
    to the Legendre rule's reach. ``measured_area`` picks the area grids.
    """

    n_radial: int
    n_angular: int
    nodes: np.ndarray = field(init=False, repr=False, compare=False)
    weights: np.ndarray = field(init=False, repr=False, compare=False)

    def __post_init__(self):
        if self.n_radial < 2 or self.n_angular < 4:
            raise ValidationError(f"grid too small: {self.n_radial} radial x "
                                  f"{self.n_angular} angular")
        x, gw = _gauss_legendre(self.n_radial)
        r, wr = 0.5 * (x + 1.0), 0.5 * gw
        theta = TWO_PI * np.arange(self.n_angular) / self.n_angular
        nodes = (r[:, None] * np.exp(1j * theta)[None, :]).ravel()
        weights = np.broadcast_to(
            (TWO_PI / self.n_angular) * (wr * r)[:, None],
            (self.n_radial, self.n_angular),
        ).ravel()
        # built once per grid and shared by every caller, so read-only
        for name, arr in (("nodes", nodes), ("weights", weights)):
            arr.setflags(write=False)
            object.__setattr__(self, name, arr)

    def integrate(self, values: np.ndarray) -> complex:
        vals = np.asarray(values, dtype=complex).ravel()
        w = self.weights
        if vals.shape != w.shape:
            raise ValidationError(f"expected {w.size} samples, got {vals.size}")
        return complex(np.sum(w * vals))

    def refined(self) -> "DiskGrid":
        """The grid with 1.5x the nodes each way, rounded up."""
        return DiskGrid(-(-3 * self.n_radial // 2), -(-3 * self.n_angular // 2))


@dataclass(frozen=True)
class PowerSeries:
    """Finite Taylor polynomial around ``center``, valid on |z - center| < radius."""

    center: complex
    coefficients: np.ndarray
    radius: float

    def __call__(self, z):
        u = np.asarray(z, dtype=complex) - self.center
        return polyval(u, self.coefficients)


def laurent_from_samples(samples: np.ndarray, radius: float, orders) -> np.ndarray:
    """Laurent coefficients c_k, k in ``orders``, from equispaced circle samples.

    c_k = (1/2 pi i) * integral of f(w) (w - center)^(-k-1) dw, read off as
    the k-th discrete Fourier mode divided by radius**k. Orders beyond the
    alias-free band |k| < n/2 are rejected.
    """
    samples = np.asarray(samples, dtype=complex)
    n = samples.size
    orders = np.asarray(list(orders), dtype=int)
    if orders.size and np.max(np.abs(orders)) >= n // 2:
        raise ValidationError(
            f"order {int(np.max(np.abs(orders)))} needs more than {n} samples"
        )
    fhat = np.fft.fft(samples) / n
    return fhat[np.mod(orders, n)] * radius ** (-orders.astype(float))


@dataclass(frozen=True)
class LeastSquaresResult:
    coefficients: np.ndarray
    condition: float
    regularized: bool


def least_squares(gram: np.ndarray, rhs: np.ndarray,
                  condition_limit: float = CONDITION_LIMIT) -> LeastSquaresResult:
    """Solve gram @ x = rhs for Hermitian positive semidefinite ``gram``.

    Solved by eigendecomposition. When the condition estimate exceeds
    ``condition_limit`` a Tikhonov term 1e-12 * trace is added and the
    result is flagged, not rejected.
    """
    G = np.asarray(gram, dtype=complex)
    b = np.asarray(rhs, dtype=complex)
    if G.ndim != 2 or G.shape[0] != G.shape[1] or G.shape[0] != b.size:
        raise ValidationError(f"shape mismatch: gram {G.shape}, rhs {b.shape}")
    hermitian_defect = np.max(np.abs(G - G.conj().T)) if G.size else 0.0
    if hermitian_defect > 1e-8 * max(1.0, float(np.max(np.abs(G)))):
        raise ValidationError(f"gram matrix is not Hermitian (defect {hermitian_defect:.3e})")
    G = 0.5 * (G + G.conj().T)
    ev, V = np.linalg.eigh(G)
    lam_max = float(ev[-1]) if ev.size else 0.0
    lam_min = float(ev[0]) if ev.size else 0.0
    condition = np.inf if lam_min <= 0 else lam_max / lam_min
    regularized = bool(condition > condition_limit)
    shift = 1e-12 * float(np.sum(ev)) if regularized else 0.0
    denom = ev + shift
    if np.any(denom <= 0):
        # semidefinite with exact zero modes: drop them instead of dividing
        denom = np.where(denom <= 0, np.inf, denom)
    x = V @ ((V.conj().T @ b) / denom)
    return LeastSquaresResult(coefficients=x, condition=condition, regularized=regularized)


# The area routes' grids: the first one, the relative delta of two
# successive reads at which a datum stops, and the most 1.5x refinements.
AREA_START = (32, 64)
AREA_DELTA = 1e-12
AREA_REFINEMENTS = 5


def measured_area(evaluate, n_data: int) -> np.ndarray:
    """Area values on grids sized by measurement; ``evaluate(grid, columns)``
    reads the data ``columns`` on ``grid`` as an array (points, data).

    From ``AREA_START`` the grid refines by 1.5x. Each datum stops at the
    first two successive reads v, v' with max|v - v'| <= AREA_DELTA *
    max(1, max|v'|) and keeps v'; only open data are read again. After
    AREA_REFINEMENTS refinements the bound is 1e-8, and a datum past it
    raises, naming the move (and the datum, when there are several).
    """
    grid = DiskGrid(*AREA_START)
    cols = np.arange(n_data)
    prev = evaluate(grid, cols)
    out = np.empty_like(prev)
    for step in range(AREA_REFINEMENTS):
        grid = grid.refined()
        vals = evaluate(grid, cols)
        moved = np.max(np.abs(vals - prev), axis=0)
        scale = np.maximum(1.0, np.max(np.abs(vals), axis=0))
        last = step == AREA_REFINEMENTS - 1
        done = moved <= (1e-8 if last else AREA_DELTA) * scale
        if last and not done.all():
            j = int(np.argmin(done))
            which = f" for datum {cols[j]}" if n_data > 1 else ""
            raise NumericalError(f"area quadrature too coarse: refinement moved values by "
                                 f"{moved[j]:.3e}{which}")
        out[:, cols[done]] = vals[:, done]
        cols, prev = cols[~done], vals[:, ~done]
        if not cols.size:
            return out


def area_pairing(form1, form2, chart_map) -> complex:
    """L2 pairing of two one-forms a(w) dw over the image of ``chart_map``.

    Computes i * integral of form1 wedge conjugate(form2), the Bergman
    inner product, by pullback to the unit disk. ``measured_area`` sizes
    the grid.
    """

    def evaluate(grid, columns):
        w, jac = chart_map.evaluate(grid.nodes), chart_map.derivative(grid.nodes)
        g1 = np.asarray(form1(w), dtype=complex) * jac
        g2 = np.asarray(form2(w), dtype=complex) * jac
        return np.array([[2.0 * grid.integrate(g1 * np.conj(g2))]])

    return complex(measured_area(evaluate, 1)[0, 0])


_M32, _M64, _M128 = (1 << 32) - 1, (1 << 64) - 1, (1 << 128) - 1


class Pcg64Stream:
    """The uniform and normal draws of numpy's ``np.random.default_rng(seed)``,
    bit for bit, computed here so that no run loads numpy.random (and,
    through it, OpenSSL's libcrypto).

    The seed goes through numpy's SeedSequence (the seed's little-endian
    32-bit words hashed into a pool of 4 words, then 4 64-bit words drawn
    from the pool), which seeds the 128-bit PCG64 generator with its
    XSL-RR output (O'Neill 2014). A uniform draw is
    ``low + (high - low) * ((x >> 11) * 2**-53)`` of one 64-bit output x;
    a normal draw is numpy's 256-layer ziggurat (Marsaglia & Tsang 2000)
    on the same outputs, whose tables ``_ziggurat`` holds and the first
    normal draw loads. ``state`` may be saved and assigned back to replay
    the draws since.
    """

    _MULT = 0x2360ED051FC65DA44385DF649FCCF645

    def __init__(self, seed: int):
        seed = int(seed)
        entropy = [seed >> shift & _M32 for shift in range(0, max(seed.bit_length(), 1), 32)]
        hash_const = 0x43B0D7E5

        def hashmix(value):
            nonlocal hash_const
            value ^= hash_const
            hash_const = hash_const * 0x931E8875 & _M32
            value = value * hash_const & _M32
            return value ^ value >> 16

        def mix(x, y):
            value = (0xCA01F9DD * x - 0x4973F715 * y) & _M32
            return value ^ value >> 16

        pool = [hashmix(entropy[i] if i < len(entropy) else 0) for i in range(4)]
        for src in range(4):
            for dst in range(4):
                if src != dst:
                    pool[dst] = mix(pool[dst], hashmix(pool[src]))
        for word in entropy[4:]:
            for dst in range(4):
                pool[dst] = mix(pool[dst], hashmix(word))
        hash_const, words = 0x8B51F9DD, []
        for i in range(8):
            value = pool[i % 4] ^ hash_const
            hash_const = hash_const * 0x58F38DED & _M32
            value = value * hash_const & _M32
            words.append(value ^ value >> 16)
        initstate = words[1] << 96 | words[0] << 64 | words[3] << 32 | words[2]
        initseq = words[5] << 96 | words[4] << 64 | words[7] << 32 | words[6]
        # from state 0: step, add initstate, step
        self.inc = (initseq << 1 | 1) & _M128
        self.state = ((self.inc + initstate) * self._MULT + self.inc) & _M128

    def _outputs(self):
        """The 64-bit outputs from ``state`` on; ``state`` follows each one
        taken."""
        state, inc, mult = self.state, self.inc, self._MULT
        while True:
            state = (state * mult + inc) & _M128
            self.state = state
            x, rot = (state >> 64 ^ state) & _M64, state >> 122
            yield (x >> rot | x << (64 - rot)) & _M64

    def uniform(self, low: float, high: float, size: int) -> np.ndarray:
        outputs = self._outputs()
        out = [next(outputs) >> 11 for _ in range(size)]
        return low + (high - low) * (np.array(out, dtype=float) * 2.0**-53)

    def normal(self, size) -> np.ndarray:
        """numpy's ``normal(0.0, 1.0, size)``: ``0.0 + 1.0 * x`` of each
        standard normal draw x, as a float64 array of shape ``size``."""
        from . import _ziggurat

        outputs = self._outputs()
        out = [0.0 + 1.0 * _standard_normal(outputs, _ziggurat) for _ in range(int(np.prod(size)))]
        return np.array(out, dtype=float).reshape(size)


def _standard_normal(outputs, zig) -> float:
    """numpy's ``random_standard_normal`` on the 64-bit ``outputs``, with
    the tables of module ``zig``: the low 8 bits of an output pick a layer,
    the next its sign, and the 52 above them a position in the layer; a
    draw under the layer's KI bound is accepted at once, the others go to
    the tail test (layer 0) or the wedge test."""

    def uniform():
        return (next(outputs) >> 11) * 2.0**-53

    while True:
        r = next(outputs)
        idx, r = r & 0xFF, r >> 8
        rabs = r >> 1 & 0xFFFFFFFFFFFFF
        x = rabs * zig.WI[idx]
        if r & 1:
            x = -x
        if rabs < zig.KI[idx]:
            return x
        if idx == 0:
            # beyond R, by Marsaglia's exponential tail test; numpy takes
            # log1p(-U) rather than log(U), so U = 0 is harmless
            while True:
                xx = -zig.INV_R * math.log1p(-uniform())
                yy = -math.log1p(-uniform())
                if yy + yy > xx * xx:
                    return -(zig.R + xx) if rabs >> 8 & 1 else zig.R + xx
        elif (zig.FI[idx - 1] - zig.FI[idx]) * uniform() + zig.FI[idx] < math.exp(-0.5 * x * x):
            return x
