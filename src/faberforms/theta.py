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
"""

from __future__ import annotations

import cmath
import math

import numpy as np

from .numerics import ValidationError

PI = np.pi


def _check_tau(tau: complex) -> complex:
    tau = complex(tau)
    if not tau.imag > 0:
        raise ValidationError(f"lattice parameter needs Im tau > 0, got tau = {tau}")
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
    one pass; returns a list of n_deriv + 1 arrays shaped like v.

    sin((2j+1) pi v) and cos((2j+1) pi v) come from the three-term
    recurrence f_(j+1) = 2 cos(2 pi v) f_j - f_(j-1), so after sin(pi v) and
    cos(pi v) each term costs a few array products. Unlike differences of
    exp(+-i (2j+1) pi v), the recurrence keeps full relative accuracy next
    to the zero at v = 0.
    """
    shape = np.shape(v)
    v = np.asarray(v, dtype=complex).ravel()
    p = cmath.exp(1j * PI * tau)
    # sin and cos of pi v from the real functions of its parts, which numpy
    # evaluates several times faster than its complex sin and cos
    a, b = PI * v.real, PI * v.imag
    sin_a, cos_a, sinh_b, cosh_b = np.sin(a), np.cos(a), np.sinh(b), np.cosh(b)
    sin_j = sin_a * cosh_b + 1j * (cos_a * sinh_b)
    sin_prev = -sin_j
    two_cos2 = 2.0 - 4.0 * sin_j * sin_j
    cos_j = cos_prev = None
    if n_deriv:
        cos_j = cos_a * cosh_b - 1j * (sin_a * sinh_b)
        cos_prev = cos_j.copy()
    tmp = np.empty(v.shape, dtype=complex)
    sums = None
    for j in range(_n_terms(tau)):
        if j:
            sin_prev = np.subtract(np.multiply(two_cos2, sin_j, out=tmp), sin_prev, out=sin_prev)
            sin_j, sin_prev = sin_prev, sin_j
            if n_deriv:
                cos_prev = np.subtract(np.multiply(two_cos2, cos_j, out=tmp), cos_prev, out=cos_prev)
                cos_j, cos_prev = cos_prev, cos_j
        freq = (2 * j + 1) * PI
        amp = 2.0 * (-1.0) ** j * p ** ((j + 0.5) ** 2)
        # d/dv of sin((2j+1) pi v) is freq cos(...), and of cos it is -freq sin(...)
        weights = (amp, freq * amp, -freq * freq * amp)[:n_deriv + 1]
        factors = (sin_j, cos_j, sin_j)
        if sums is None:
            sums = [f * w for f, w in zip(factors, weights)]
        else:
            for total, f, w in zip(sums, factors, weights):
                total += np.multiply(f, w, out=tmp)
    return [t.reshape(shape) for t in sums]


def lattice_reduce(v, tau):
    """Split v = v_red + m + n tau with v_red in the centered fundamental cell.

    Returns (v_red, m, n) with m, n integer arrays.
    """
    tau = _check_tau(tau)
    vv = np.asarray(v, dtype=complex)
    n = np.round(vv.imag / tau.imag)
    v1 = vv - n * tau
    m = np.round(v1.real)
    return v1 - m, m, n


def theta1(v, tau, deriv: int = 0):
    """theta1(v | tau), or its v-derivative of order 1 or 2.

    Quasi-period factors for the tau-direction are applied in closed form,
    so moderate |Im v| is exact; very large n tau-shifts overflow the
    restored exponential factor, as they must.
    """
    tau = _check_tau(tau)
    if deriv not in (0, 1, 2):
        raise ValidationError(f"theta series supports derivatives 0..2, got {deriv}")
    if deriv == 0:
        vr, m, n = lattice_reduce(v, tau)
        factor = (-1.0) ** (m + n) * np.exp(-1j * PI * n ** 2 * tau - 2j * PI * n * vr)
        out = factor * _theta1_series(vr, tau, 0)[0]
        return out if np.ndim(v) else complex(out)
    # derivatives are only needed through the reduced quantities below;
    # evaluate the series directly (callers pass reduced arguments)
    out = _theta1_series(v, tau, deriv)[deriv]
    return out if np.ndim(v) else complex(out)


def log_derivative(v, tau):
    """Branch-corrected theta1'(v)/theta1(v).

    theta1'/theta1 drops by 2 pi i under v -> v + tau; reducing the
    argument and subtracting 2 pi i n restores the exact meromorphic
    function, with simple poles of residue 1 at the lattice points.
    """
    tau = _check_tau(tau)
    vr, _, n = lattice_reduce(v, tau)
    t0, t1 = _theta1_series(vr, tau, 1)
    out = t1 / t0 - 2j * PI * n
    return out if np.ndim(v) else complex(out)


def log_derivative2(v, tau):
    """(log theta1)''(v): elliptic, hence computed on the reduced argument."""
    tau = _check_tau(tau)
    vr, _, _ = lattice_reduce(v, tau)
    t0, t1, t2 = _theta1_series(vr, tau, 2)
    t1 /= t0
    t2 /= t0
    t2 -= t1 * t1
    return t2 if np.ndim(v) else complex(t2)


def log_abs(v, tau):
    """log |theta1(v | tau)|, stable for any v via the quasi-period law."""
    tau = _check_tau(tau)
    vr, _, n = lattice_reduce(v, tau)
    t0 = _theta1_series(vr, tau, 0)[0]
    out = np.log(np.abs(t0)) + PI * n ** 2 * tau.imag + 2 * PI * n * vr.imag
    return out if np.ndim(v) else float(out)
