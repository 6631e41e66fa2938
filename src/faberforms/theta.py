"""First Jacobi theta function and the lattice-reduced quantities built on it.

Conventions: lattice 1, tau with Im tau > 0, nome p = exp(i pi tau),

    theta1(v | tau) = 2 sum_{j>=0} (-1)^j p^((j+1/2)^2) sin((2j+1) pi v).

The series is evaluated only on lattice-reduced arguments, |Im v| <=
Im(tau)/2, where term j is bounded by exp(-pi Im(tau) (j^2 - 1/4))
(from DLMF 20.2.1); the term count comes from that bound. theta1, theta1' and
theta1'' are summed together in one pass, and quasi-period factors are
restored in closed form. The log-derivative gets an exact branch
correction of -2 pi i per tau-shift, which is what keeps pole-difference
forms on the torus single valued.

Every public function runs its whole chain (reduction, series, quotient
or quasi-period step) on successive flat blocks of ``_BLOCK`` points and
writes each block's result into one output array. The series keeps
eleven rows of its input's size alive (``_BLOCK`` says which); on a block
they stay in a core's cache, where on a whole area grid of a few hundred
thousand points they would run at memory speed and dominate peak memory,
and on the torus they come on top of every kernel read's slice storage.
The arithmetic per point does not depend on the blocking, so the values
are the same as those of one call on the whole array.
"""

from __future__ import annotations

import cmath
import math

import numpy as np

from .numerics import BLOCK_ENTRIES, ValidationError

PI = np.pi


def check_tau(tau) -> complex:
    """The lattice parameter as a complex number; refuses Im tau <= 0. The
    one check of tau: every public function here and ``SurfaceSpec`` call it."""
    tau = complex(tau)
    if not tau.imag > 0:
        raise ValidationError(f"tau: Im tau must be positive, got {tau}")
    return tau


# Truncation tolerance for the omitted tail of the series. On a reduced
# argument the first omitted term is bounded by exp(-pi Im(tau) (J^2 - 1/4));
# asking for 1e-25 keeps it about six orders below double roundoff even
# after the (2j + 1)^2 pi^2 weight that the second derivative puts on it.
_TAIL_TOLERANCE = 1e-25


def _n_terms(tau: complex) -> int:
    """Term count J of the series on lattice-reduced arguments.

    For |Im v| <= Im(tau)/2 term j is bounded by
    |p|^((j+1/2)^2) exp((2j+1) pi |Im v|) = exp(-pi Im(tau) (j^2 - 1/4))
    (from DLMF 20.2.1), so J is the first index whose bound falls below
    ``_TAIL_TOLERANCE``.
    """
    j2 = math.log(1.0 / _TAIL_TOLERANCE) / (PI * complex(tau).imag) + 0.25
    return max(1, math.ceil(math.sqrt(j2)))


def _theta1_series(v, tau: complex, n_deriv: int):
    """theta1 and its first ``n_deriv`` v-derivatives at reduced arguments, in
    one pass; v is a 1-D complex array, and the result is an
    (n_deriv + 1, v.size) array, one row per order.

    sin((2j+1) pi v) and cos((2j+1) pi v) come from the three-term
    recurrence f_(j+1) = 2 cos(2 pi v) f_j - f_(j-1), stepped as one stacked
    pair (row 0 the sine, row 1 the cosine when derivatives are asked for),
    and the three sums are accumulated in place, so a term costs two array
    operations for the pair and n_deriv + 2 for the sums. Every element
    goes through the same operations in the same operand order as with one
    array per sine, cosine and sum. Unlike differences of
    exp(+-i (2j+1) pi v), the recurrence keeps full relative accuracy next
    to the zero at v = 0.
    """
    p = cmath.exp(1j * PI * tau)
    # sin and cos of pi v from the real functions of its parts, which numpy
    # evaluates several times faster than its complex sin and cos
    a, b = PI * v.real, PI * v.imag
    sin_a, cos_a, sinh_b, cosh_b = np.sin(a), np.cos(a), np.sinh(b), np.cosh(b)
    f = np.empty((2 if n_deriv else 1, v.size), dtype=complex)
    np.add(sin_a * cosh_b, 1j * (cos_a * sinh_b), out=f[0])
    if n_deriv:
        np.subtract(cos_a * cosh_b, 1j * (sin_a * sinh_b), out=f[1])
    del a, b, sin_a, cos_a, sinh_b, cosh_b
    # the pair at j = -1: (-sin, cos) of pi v
    f_prev = f.copy()
    np.negative(f[0], out=f_prev[0])
    two_cos2 = 2.0 - 4.0 * f[0] * f[0]
    sums = np.empty((n_deriv + 1, v.size), dtype=complex)
    products = np.empty_like(sums)
    for j in range(_n_terms(tau)):
        if j:
            np.subtract(np.multiply(two_cos2, f, out=products[:len(f)]), f_prev, out=f_prev)
            f, f_prev = f_prev, f
        freq = (2 * j + 1) * PI
        amp = 2.0 * (-1.0) ** j * p ** ((j + 0.5) ** 2)
        # d/dv of sin((2j+1) pi v) is freq cos(...), and of cos it is -freq sin(...)
        weights = (amp, freq * amp, -freq * freq * amp)
        for k in range(n_deriv + 1):
            np.multiply(f[k % 2], weights[k], out=products[k] if j else sums[k])
        if j:
            sums += products
    return sums


# Points per block of the public functions: a sixteenth of the block
# budget, 2048 points. The series then holds eleven rows of 32 KiB (the
# stacked pair and its previous term, two rows each, three sums, three
# products and 2 cos(2 pi v)), 0.35 MB, where 4096-point blocks of one array
# per sine, cosine and sum held about 0.9 MB. On the torus that comes on
# top of a kernel read's 512 KiB slice storage, and it sets torus-verify's
# peak RSS, which its r0-independence check's area reads reach: against
# 4096-point blocks, with the distance search sliced (surface.DISTANCE_SLICE)
# on both sides, 0.37 MB lower without bytecode and 0.36 MB lower with it
# written (perfbench/child.py, the first eight pool inputs, fresh
# processes). torus-solve's peak is set later, when the first LAPACK call
# pages in its code on top of whatever heap the contour reads left
# resident; a smaller read leaves glibc's trim threshold unreached, so its
# freed heap stays, and that peak reads 0.34 MB higher without bytecode and
# 0.06 MB lower with it. The cost is per block, some sixty numpy calls:
# log_derivative2 takes 20% more per point than with the former 4096-point
# blocks of one array per sine, cosine and sum, and 9% more at 4096 points
# (100k reduced points at tau = 0.3+1.1i, best of 15, interleaved, median
# of ten rounds, 2-vCPU x86-64 VM, numpy 2.4). At 8192 points the old
# series' temporaries were exactly 128 KiB, glibc's initial mmap
# threshold, and the heap was trimmed and faulted in again on every call
# (see numerics.BLOCK_ENTRIES). The kernel has the series write into its
# slice buffer (``log_derivative2(..., out=)``), so no output the size of
# a kernel slice is allocated.
_BLOCK = BLOCK_ENTRIES // 16


def _blockwise(fn, v, dtype, out=None):
    """fn on successive flat blocks of v, of at most ``_BLOCK`` points each.

    fn maps a 1-D complex array to an array of ``dtype`` values of the same
    length. Its results fill one output shaped like v: ``out`` when given,
    which may be v itself, since each block of v is read before its block
    of the output is written, else a new array. A scalar v gives a
    ``dtype`` scalar.

    A block gives the same bits as one call on the whole array only if fn's
    arithmetic does not depend on the array's size. numpy reuses a large
    temporary operand as the output (above 256 kB, so never on a block) and
    then swaps the operands of a commutative ufunc, and its complex product
    is not bitwise commutative; so no temporary is the right-hand factor of
    a complex product in the bodies below.
    """
    v = np.asarray(v, dtype=complex)
    if out is None:
        out = np.empty(v.shape, dtype=dtype)
    elif out.shape != v.shape or not out.flags.c_contiguous:
        raise ValidationError(f"out must be a C-contiguous array of shape {v.shape}")
    flat, out_flat = v.reshape(-1), out.reshape(-1)
    for start in range(0, flat.size, _BLOCK):
        out_flat[start:start + _BLOCK] = fn(flat[start:start + _BLOCK])
    return out if v.ndim else dtype(out)


def lattice_reduce(v, tau):
    """Split v = v_red + m + n tau with v_red in the centered fundamental cell.

    Returns (v_red, m, n) with m, n integer arrays. tau is a complex
    number with Im tau > 0 (``check_tau``), checked once by the caller
    rather than once per block.
    """
    vv = np.asarray(v, dtype=complex)
    n = np.round(vv.imag / tau.imag)
    v1 = vv - n * tau
    m = np.round(v1.real)
    return v1 - m, m, n


def theta1(v, tau, deriv: int = 0):
    """theta1(v | tau), or its v-derivative of order 1 or 2.

    With v = v_r + m + n tau and v_r reduced, theta1(v) = F theta1(v_r) for
    F = (-1)^(m+n) exp(-i pi n^2 tau - 2 pi i n v_r), and dF/dv = -2 pi i n F,
    so every order is restored in closed form from the series at v_r:
    moderate |Im v| is exact; very large n tau-shifts overflow F, as they
    must.
    """
    tau = check_tau(tau)
    if deriv not in (0, 1, 2):
        raise ValidationError(f"theta series supports derivatives 0..2, got {deriv}")

    def block(v):
        vr, m, n = lattice_reduce(v, tau)
        t = _theta1_series(vr, tau, deriv)
        factor = (-1.0) ** (m + n) * np.exp(-1j * PI * n ** 2 * tau - 2j * PI * n * vr)
        if deriv == 0:
            return factor * t[0]
        s = -2j * PI * n
        # theta1' = F (theta1'_r + s theta1_r), theta1'' = F (theta1''_r +
        # 2 s theta1'_r + s^2 theta1_r); restored is named, so that it is no
        # temporary in the product with F (see _blockwise)
        restored = t[1] + s * t[0] if deriv == 1 else t[2] + 2.0 * s * t[1] + s * s * t[0]
        return factor * restored

    return _blockwise(block, v, complex)


def log_derivative(v, tau):
    """Branch-corrected theta1'(v)/theta1(v).

    theta1'/theta1 drops by 2 pi i under v -> v + tau; reducing the
    argument and subtracting 2 pi i n restores the exact meromorphic
    function, with simple poles of residue 1 at the lattice points.
    """
    tau = check_tau(tau)

    def block(v):
        vr, _, n = lattice_reduce(v, tau)
        t0, t1 = _theta1_series(vr, tau, 1)
        return t1 / t0 - 2j * PI * n

    return _blockwise(block, v, complex)


def log_derivative2(v, tau, out=None):
    """(log theta1)''(v): elliptic, hence computed on the reduced argument.

    ``out``, given, is a C-contiguous complex array shaped like v that
    receives the values and is returned; it may be v itself, which the
    Schiffer kernel uses to turn w - z into the kernel in place. The values
    are the same bits with or without it.
    """
    tau = check_tau(tau)

    def block(v):
        vr, _, _ = lattice_reduce(v, tau)
        t0, t1, t2 = _theta1_series(vr, tau, 2)
        t1 /= t0
        t2 /= t0
        t2 -= t1 * t1
        return t2

    return _blockwise(block, v, complex, out)


def log_abs(v, tau):
    """log |theta1(v | tau)|, stable for any v via the quasi-period law."""
    tau = check_tau(tau)

    def block(v):
        vr, _, n = lattice_reduce(v, tau)
        t0 = _theta1_series(vr, tau, 0)[0]
        return np.log(np.abs(t0)) + PI * n ** 2 * tau.imag + 2 * PI * n * vr.imag

    return _blockwise(block, v, float)
