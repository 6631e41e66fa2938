"""The lattice-reduced quantities built on the first Jacobi theta function:
its log-derivatives and log|theta1|, the only quantities the package reads.

Conventions: lattice 1, tau with Im tau > 0, nome p = exp(i pi tau),

    theta1(v | tau) = 2 sum_{j>=0} (-1)^j p^((j+1/2)^2) sin((2j+1) pi v)

(DLMF 20.2.1), read as theta1(v) = s Q(y) for s = sin(pi v) and
y = cos(2 pi v), on lattice-reduced arguments; the quasi-period law is
restored in closed form. The log-derivative gets an exact branch
correction of -2 pi i per tau-shift, which is what keeps pole-difference
forms on the torus single valued. Every public function runs on
successive flat blocks of ``_BLOCK`` points into one output array, with
the values of one call on the whole array.
"""

from __future__ import annotations

import cmath
import functools
import math
import operator

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


# Truncation bound of the series, relative to its leading term (``_n_terms``).
_RELATIVE_TAIL = 1e-18


# Term count J of the series on lattice-reduced arguments, where term j is
# at most exp(-pi Im(tau) j^2) times the leading one and the second
# derivative weights it by (2j+1)^2: the least J whose first omitted term,
# so weighted, is at most _RELATIVE_TAIL of the leading one.
def _n_terms(tau: complex) -> int:
    j = 1
    while math.exp(-PI * tau.imag * j * j) * (2 * j + 1) ** 2 > _RELATIVE_TAIL:
        j += 1
    return j


# sin((2j+1) pi v) / s is a polynomial D_j(y): D_(-1) = -1, D_0 = 1 and
# D_(j+1) = 2 y D_j - D_(j-1). So Q = sum_j 2 (-1)^j p^((j+1/2)^2) D_j. Its
# coefficients and those of Q' and Q'' are built here once per tau, highest
# power first, each a tuple (no buffer in the C heap mid-run) of at least
# one complex number; a point then costs sin, cos, sinh and cosh of the
# parts of pi v and a Horner pass for each of Q, Q' and Q'' it needs.
@functools.cache
def _coefficients(tau: complex):
    p = cmath.exp(1j * PI * tau)
    n = _n_terms(tau)
    q = [0j] * n
    # D_(-1) and D_0, lowest power first; each step writes D_(j+1) =
    # 2 y D_j - D_(j-1) over D_(j-1), in exact integers
    d_prev, d = [-1] + [0] * n, [1] + [0] * n
    for j in range(n):
        amp = 2.0 * (-1.0) ** j * p ** ((j + 0.5) ** 2)
        for k in range(j + 1):
            q[k] += amp * d[k]
        d_prev[0] = -d_prev[0]
        for k in range(1, j + 2):
            d_prev[k] = 2 * d[k - 1] - d_prev[k]
        d, d_prev = d_prev, d
    q1 = list(map(operator.mul, range(1, n), q[1:])) or [0j]
    q2 = list(map(operator.mul, range(1, len(q1)), q1[1:])) or [0j]
    return tuple(q[::-1]), tuple(q1[::-1]), tuple(q2[::-1])


# The polynomial with coeffs (highest power first) at y, by Horner's rule,
# each product written to a second array (see _blockwise).
def _horner(coeffs, y):
    if len(coeffs) == 1:
        return np.full_like(y, coeffs[0])
    qy = y * coeffs[0]
    q = qy + coeffs[1]
    for c in coeffs[2:]:
        np.multiply(q, y, out=qy)
        np.add(qy, c, out=q)
    return q


# At reduced v: s = sin(pi v), c = cos(pi v) if with_cos else None, s^2,
# y = 1 - 2 s^2 and [Q, Q', Q''][:n_deriv + 1] at y. The zero at v = 0 is
# that of s alone, so the values keep full relative accuracy next to it.
# s and c come from the real functions of the parts of pi v, several times
# faster in numpy than its complex sin and cos.
def _series(v, tau: complex, n_deriv: int, with_cos: bool = False):
    a, b = PI * v.real, PI * v.imag
    sin_a, cos_a, sinh_b, cosh_b = np.sin(a), np.cos(a), np.sinh(b), np.cosh(b)
    s = np.empty(v.shape, dtype=complex)
    np.multiply(sin_a, cosh_b, out=s.real)
    np.multiply(cos_a, sinh_b, out=s.imag)
    c = None
    if with_cos:
        c = np.empty(v.shape, dtype=complex)
        np.multiply(cos_a, cosh_b, out=c.real)
        np.multiply(sin_a, sinh_b, out=c.imag)
        np.negative(c.imag, out=c.imag)
    del a, b, sin_a, cos_a, sinh_b, cosh_b
    s2 = s * s
    y = 1.0 - 2.0 * s2
    q = []
    for coeffs in _coefficients(tau)[:n_deriv + 1]:
        q.append(_horner(coeffs, y))
    return s, c, s2, y, q


# Points per block of the public functions: a sixteenth of the block
# budget, 2048 points. A log_derivative2 block holds at most eight rows of
# 32 KiB beyond its output (0.26 MB traced; the stepped sin/cos series
# held fifteen). On the torus they come on top of a kernel read's 512 KiB
# slice storage, and wider blocks would raise torus-verify's peak RSS,
# which its r0-independence check's area reads reach (the stepped series'
# 2048-point blocks read 0.37 MB below 4096-point ones there). torus-solve's
# peak is set later, when the first LAPACK call pages in its code on top
# of whatever heap the contour reads left resident. The cost is per
# block, some forty numpy calls: 11% more per point than at 4096 points
# (log_derivative2, 100k reduced points at tau = 0.3+1.1i, 2-vCPU x86-64
# VM, numpy 2.4). At 8192 points the stepped series' temporaries were
# exactly 128 KiB, glibc's initial mmap threshold, and the heap was
# trimmed and faulted in again on every call (see numerics.BLOCK_ENTRIES).
# The kernel has the series write into its slice buffer
# (``log_derivative2(..., out=)``).
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
    a complex product in the bodies below, nor is a product of two complex
    arrays written over one of them, which rounds differently on arrays of
    one to three points.
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


def log_derivative(v, tau):
    """Branch-corrected theta1'(v)/theta1(v).

    theta1'/theta1 drops by 2 pi i under v -> v + tau; reducing the
    argument and subtracting 2 pi i n restores the exact meromorphic
    function, with simple poles of residue 1 at the lattice points.
    """
    tau = check_tau(tau)

    def block(v):
        vr, _, n = lattice_reduce(v, tau)
        s, c, s2, _, (q, q1) = _series(vr, tau, 1, with_cos=True)
        # theta1 = s Q(y), and with x = pi v, c = cos x and dy/dx = -4 s c:
        # theta1' = pi c g for g = Q - 4 s^2 Q'
        g = q - 4.0 * s2 * q1
        return PI * c * g / (s * q) - 2j * PI * n

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
        _, _, s2, y, (q, q1, q2) = _series(lattice_reduce(v, tau)[0], tau, 2)
        q1 /= q
        q2 /= q
        q2 -= q1 * q1
        # log theta1 = log s + log Q(y), and for x = pi v (dy/dx)^2 =
        # 4 (1 - y^2) and d^2y/dx^2 = -4 y: (log theta1)'' = -pi^2 / s^2 +
        # 4 pi^2 ((1 - y^2) (Q''/Q - (Q'/Q)^2) - y Q'/Q), with q spent and
        # reused, and each complex product written to an array other than
        # its factors (see _blockwise)
        np.multiply(y, y, out=q)
        np.subtract(1.0, q, out=q)
        k = q2 * q
        np.multiply(y, q1, out=q)
        k -= q
        k *= 4.0 * PI * PI
        np.divide(PI * PI, s2, out=q)
        k -= q
        return k

    return _blockwise(block, v, complex, out)


def log_abs(v, tau):
    """log |theta1(v | tau)|, stable for any v via the quasi-period law."""
    tau = check_tau(tau)

    def block(v):
        vr, _, n = lattice_reduce(v, tau)
        s, _, _, _, (q,) = _series(vr, tau, 0)
        return np.log(np.abs(s)) + np.log(np.abs(q)) + PI * n ** 2 * tau.imag + 2 * PI * n * vr.imag

    return _blockwise(block, v, float)
