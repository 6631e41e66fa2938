import tracemalloc

import mpmath
import numpy as np
import pytest

from faberforms import theta
from faberforms.numerics import ValidationError
from faberforms.theta import (
    _BLOCK,
    _RELATIVE_TAIL,
    _coefficients,
    _horner,
    _n_terms,
    lattice_reduce,
    log_abs,
    log_derivative,
    log_derivative2,
)

TAU = 0.3 + 1.1j
PI = np.pi


def mp_theta1_derivs(v, tau):
    """theta1, theta1' and theta1'' in v, as mpmath numbers: the
    independent oracle, whose jtheta reads theta1 at z = pi v and
    differentiates in z."""
    q = mpmath.exp(1j * mpmath.pi * tau)
    z = mpmath.pi * mpmath.mpc(complex(v))
    return [mpmath.jtheta(1, z, q, derivative=d) * mpmath.pi ** d for d in range(3)]


def mp_log_abs(v, tau):
    return float(mpmath.log(abs(mp_theta1_derivs(v, tau)[0])))


def mp_log_derivatives(v, tau):
    """theta1'/theta1 and (log theta1)'' at v, formed in mpmath's precision."""
    t0, t1, t2 = mp_theta1_derivs(v, tau)
    return complex(t1 / t0), complex(t2 / t0 - (t1 / t0) ** 2)


def random_cell_points(rng, n, tau=TAU, pad=0.1):
    x = rng.uniform(pad, 1 - pad, n)
    y = rng.uniform(pad, 1 - pad, n)
    return x + y * complex(tau)


def test_lattice_reduce():
    v = 0.2 + 0.3j + 5 + 3 * TAU
    vr, m, n = lattice_reduce(v, TAU)
    assert n == 3
    assert m == 5
    assert vr == pytest.approx(0.2 + 0.3j, abs=1e-12)


def test_log_derivative_is_elliptic_in_effect():
    # the beta forms only ever use differences L(v - z1) - L(v - z2); such
    # differences must be exactly doubly periodic
    rng = np.random.default_rng(4)
    v = random_cell_points(rng, 10)
    z1, z2 = 0.25 + 0.3j, 0.6 + 0.7j
    base = log_derivative(v - z1, TAU) - log_derivative(v - z2, TAU)
    for shift in (1.0, TAU, -2 + TAU, 3 - 2 * TAU):
        moved = log_derivative(v + shift - z1, TAU) - log_derivative(v + shift - z2, TAU)
        assert np.max(np.abs(moved - base)) < 1e-12


def test_log_derivative_branch_correction():
    # raw theta1'/theta1 drops by 2 pi i per tau shift; the corrected value
    # must reproduce exactly that drop relative to the reduced argument
    v = 0.31 + 0.22j
    assert log_derivative(v + TAU, TAU) == pytest.approx(log_derivative(v, TAU) - 2j * PI, abs=1e-12)
    assert log_derivative(v + 1, TAU) == pytest.approx(log_derivative(v, TAU), abs=1e-12)


def test_log_derivative_simple_pole_residue():
    # residue 1 at v = 0: contour integral over a small circle
    n = 256
    r = 0.05
    zeta = r * np.exp(2j * PI * np.arange(n) / n)
    integral = np.sum(log_derivative(zeta, TAU) * 1j * zeta) * (2 * PI / n)
    assert integral / (2j * PI) == pytest.approx(1.0, abs=1e-12)


def test_log_derivative2_doubly_periodic():
    rng = np.random.default_rng(5)
    v = random_cell_points(rng, 10)
    base = log_derivative2(v, TAU)
    for shift in (1.0, TAU, 2 - TAU):
        assert np.max(np.abs(log_derivative2(v + shift, TAU) - base)) < 1e-12


def test_log_derivative2_is_derivative_of_log_derivative():
    v = 0.4 + 0.5j
    h = 1e-5
    fd = (log_derivative(v + h, TAU) - log_derivative(v - h, TAU)) / (2 * h)
    assert log_derivative2(v, TAU) == pytest.approx(fd, abs=1e-8)


def test_log_abs_large_shift_stable():
    # direct evaluation of theta1 would overflow at n = 40 tau-shifts; the
    # closed-form correction keeps log|theta1| finite and smooth
    v = 0.3 + 0.4j + 40 * TAU
    val = log_abs(v, TAU)
    assert np.isfinite(val)
    expected = log_abs(0.3 + 0.4j, TAU) + PI * 1600 * TAU.imag + 2 * PI * 40 * 0.4
    assert val == pytest.approx(expected, abs=1e-9)


def test_small_im_tau_still_accurate():
    tau = 0.1 + 0.25j
    rng = np.random.default_rng(7)
    v = random_cell_points(rng, 5, tau=tau)
    ours = log_abs(v, tau)
    with mpmath.workdps(30):
        ref = np.array([mp_log_abs(vj, tau) for vj in v])
    assert np.max(np.abs(ours - ref)) < 1e-12 * max(1.0, np.max(np.abs(ref)))


def test_tau_validation():
    with pytest.raises(ValidationError):
        log_abs(0.3, 0.5 - 1.0j)
    with pytest.raises(ValidationError):
        log_abs(0.3, 1.0)


ORACLE_TAUS = (0.2 + 0.3j, -0.1 + 0.7j, 0.3 + 1.1j, 0.45 + 2.0j)


def oracle_points(tau):
    # reduced points: |Im v| up to 0.49 Im(tau), the edge where the series
    # terms are largest, plus a ring of radius 1e-3 around the zero at 0
    rng = np.random.default_rng(11)
    x = rng.uniform(-0.5, 0.5, 12)
    y = rng.choice([-0.49, -0.45, 0.45, 0.49], 12) * tau.imag
    edge = x + y / tau.imag * tau
    ring = 1e-3 * np.exp(2j * PI * np.arange(6) / 6 + 0.3j)
    return np.concatenate([edge, ring, rng.uniform(-0.4, 0.4, 6) + 0.2j * tau.imag])


def assert_log_derivatives_match_mpmath(v, tau):
    with mpmath.workdps(30):
        ref = np.array([mp_log_derivatives(vj, tau) for vj in v])
    for d, ours in enumerate((log_derivative(v, tau), log_derivative2(v, tau))):
        assert np.max(np.abs(ours - ref[:, d]) / np.abs(ref[:, d])) < 1e-12, d


@pytest.mark.parametrize("tau", ORACLE_TAUS)
def test_log_derivatives_match_mpmath(tau):
    v = oracle_points(tau)
    assert np.all(lattice_reduce(v, tau)[2] == 0)
    assert_log_derivatives_match_mpmath(v, tau)


@pytest.mark.parametrize("tau", ORACLE_TAUS)
def test_log_derivatives_match_mpmath_off_the_strip(tau):
    # up to 6 tau-shifts off the reduced cell: the branch-corrected
    # log-derivative is the true theta1'/theta1 there, and (log theta1)''
    # is elliptic
    rng = np.random.default_rng(12)
    y = rng.choice([-1, 1], 16) * rng.uniform(0.5, 6.0, 16)
    v = rng.uniform(-2.0, 2.0, 16) + y * tau
    assert np.max(np.abs(v.imag)) > 5 * tau.imag
    assert_log_derivatives_match_mpmath(v, tau)


@pytest.mark.parametrize("tau", ORACLE_TAUS)
def test_log_abs_matches_mpmath(tau):
    # on the reduced cell's hard edges and up to 6 tau-shifts off it, where
    # the quasi-period law supplies most of the value
    rng = np.random.default_rng(16)
    y = rng.choice([-1, 1], 16) * rng.uniform(0.5, 6.0, 16)
    v = np.concatenate([oracle_points(tau), rng.uniform(-2.0, 2.0, 16) + y * tau])
    with mpmath.workdps(30):
        ref = np.array([mp_log_abs(vj, tau) for vj in v])
    ours = log_abs(v, tau)
    assert np.max(np.abs(ours - ref) / np.maximum(1.0, np.abs(ref))) < 1e-12


@pytest.mark.parametrize("m, n", [(2, 0), (-3, 0), (0, 2), (-1, -1), (3, 2)])
def test_quasi_periods_hold_at_lattice_shifts(m, n):
    # theta1(v + tau) = -exp(-i pi tau - 2 pi i v) theta1(v): a shift by
    # m + n tau lowers theta1'/theta1 by 2 pi i n, leaves (log theta1)''
    # alone and raises log|theta1| by pi n^2 Im tau + 2 pi n Im v
    rng = np.random.default_rng(3)
    v = random_cell_points(rng, 8)
    w = v + m + n * TAU
    assert np.max(np.abs(log_derivative(w, TAU) - (log_derivative(v, TAU) - 2j * PI * n))) < 1e-11
    assert np.max(np.abs(log_derivative2(w, TAU) - log_derivative2(v, TAU))) < 1e-11
    want = log_abs(v, TAU) + PI * n * n * TAU.imag + 2 * PI * n * v.imag
    assert np.max(np.abs(log_abs(w, TAU) - want)) < 1e-11


@pytest.mark.parametrize("fn, parity", [(log_derivative, -1), (log_derivative2, 1), (log_abs, 1)],
                         ids=["log_derivative", "log_derivative2", "log_abs"])
def test_theta1_oddness_carries_to_the_log_functions(fn, parity):
    # theta1 is odd, so theta1'/theta1 is odd and (log theta1)'' and
    # log|theta1| are even, on the reduced cell and off it
    rng = np.random.default_rng(2)
    v = np.concatenate([oracle_points(TAU), rng.uniform(-2.0, 2.0, 16) + rng.uniform(-6.0, 6.0, 16) * TAU])
    ours, mirrored = fn(v, TAU), fn(-v, TAU)
    assert np.max(np.abs(mirrored - parity * ours) / np.maximum(1.0, np.abs(ours))) < 1e-12


@pytest.mark.parametrize("tau", ORACLE_TAUS)
def test_log_abs_is_the_real_part_of_the_log_derivatives_primitive(tau):
    # log|theta1| = Re log theta1, so by Cauchy-Riemann its x- and
    # y-derivatives are Re and -Im of theta1'/theta1: two outputs formed
    # from the one series by different arithmetic
    rng = np.random.default_rng(6)
    v = random_cell_points(rng, 10, tau=tau, pad=0.25) + 2 - tau
    h = 1e-5
    dx = (log_abs(v + h, tau) - log_abs(v - h, tau)) / (2 * h)
    dy = (log_abs(v + 1j * h, tau) - log_abs(v - 1j * h, tau)) / (2 * h)
    assert np.max(np.abs(dx - 1j * dy - log_derivative(v, tau))) < 1e-6


def test_log_derivative2_double_pole():
    # (log theta1)'' = -1/v^2 + an even function regular at 0: no residue,
    # and -1 as the coefficient of 1/v^2
    n = 256
    r = 0.05
    zeta = r * np.exp(2j * PI * np.arange(n) / n)
    dz = 1j * zeta * (2 * PI / n)
    values = log_derivative2(zeta, TAU)
    assert np.sum(values * dz) / (2j * PI) == pytest.approx(0.0, abs=1e-12)
    assert np.sum(zeta * values * dz) / (2j * PI) == pytest.approx(-1.0, abs=1e-12)


PUBLIC = (
    lambda v: log_derivative(v, TAU),
    lambda v: log_derivative2(v, TAU),
    lambda v: log_abs(v, TAU),
)
PUBLIC_IDS = ("log_derivative", "log_derivative2", "log_abs")


@pytest.mark.parametrize("fn", PUBLIC, ids=PUBLIC_IDS)
def test_blocked_evaluation_matches_slices_and_one_call(fn, monkeypatch):
    rng = np.random.default_rng(13)
    # 12305 random points, as many as three blocks held at 4096 points
    n = 6 * _BLOCK + 17
    flat = rng.uniform(-3.0, 3.0, n) + rng.uniform(-3.0, 3.0, n) * TAU
    # before each block's worth of those points, 64 points on each of the
    # series' two hard edges, so that every block holds some: |v| = 1e-7,
    # next to the zero at v = 0, where differences of exponentials lost
    # digits, and |Im v| = 0.49 Im tau, next to the edge of the reduced cell,
    # where the terms decay slowest
    parts = []
    for i in range(0, n, _BLOCK):
        parts.append(1e-7 * np.exp(2j * PI * rng.uniform(0.0, 1.0, 64)))
        parts.append(rng.uniform(-0.5, 0.5, 64) + 0.49j * TAU.imag * rng.choice([-1.0, 1.0], 64))
        parts.append(flat[i:i + _BLOCK])
    flat = np.concatenate(parts)
    n = flat.size
    v = flat.reshape(-1, 1)
    out = fn(v)
    assert out.shape == v.shape
    slices = np.concatenate([fn(flat[i:i + _BLOCK]) for i in range(0, n, _BLOCK)])
    assert np.array_equal(out, slices.reshape(v.shape))
    monkeypatch.setattr(theta, "_BLOCK", n)
    assert np.array_equal(out, fn(v))
    # blocks of one and three points, on the first block's hard edges and
    # some random points: the Horner passes too must not depend on the size
    head = v[:400]
    for size in (1, 3):
        monkeypatch.setattr(theta, "_BLOCK", size)
        assert np.array_equal(out[:400], fn(head)), size


def term_by_term(y, tau):
    # the reference arithmetic: Q, Q' and Q'' as sums of a_j D_j(y) and its
    # y-derivatives, each D_j stepped by its recurrence on arrays, and the
    # bound sum |a_j D_j^(k)(y)| of each sum's rounding
    p = complex(mpmath.exp(1j * mpmath.pi * tau))
    d_prev, d = [-np.ones_like(y), np.zeros_like(y), np.zeros_like(y)], [np.ones_like(y), np.zeros_like(y), np.zeros_like(y)]
    sums = [np.zeros_like(y) for _ in range(3)]
    sizes = [np.zeros(y.shape) for _ in range(3)]
    for j in range(_n_terms(tau)):
        amp = 2.0 * (-1.0) ** j * p ** ((j + 0.5) ** 2)
        for k in range(3):
            sums[k] += amp * d[k]
            sizes[k] += abs(amp) * np.abs(d[k])
        # D_(j+1) = 2 y D_j - D_(j-1), and its y-derivatives
        d, d_prev = [2 * y * d[0] - d_prev[0],
                     2 * d[0] + 2 * y * d[1] - d_prev[1],
                     4 * d[1] + 2 * y * d[2] - d_prev[2]], d
    return sums, sizes


@pytest.mark.parametrize("tau", [0.1 + 0.35j, *ORACLE_TAUS])
def test_coefficients_reproduce_the_series_term_by_term(tau):
    # y = cos(2 pi v) at the two hard edges of the series, |v| = 1e-7, next
    # to the zero at v = 0, and |Im v| = 0.49 Im tau, next to the edge of
    # the reduced cell, where |y| is largest
    rng = np.random.default_rng(15)
    v = np.concatenate([1e-7 * np.exp(2j * PI * rng.uniform(0.0, 1.0, 200)),
                        rng.uniform(-0.5, 0.5, 200) + 0.49j * tau.imag * rng.choice([-1.0, 1.0], 200)])
    y = np.cos(2 * PI * v)
    n = _n_terms(tau)
    coeffs = _coefficients(tau)
    assert [len(c) for c in coeffs] == [n, max(n - 1, 1), max(n - 2, 1)]
    sums, sizes = term_by_term(y, tau)
    eps = np.finfo(float).eps
    for k in range(3):
        got = _horner(coeffs[k], y)
        # Horner's rounding is below 2 n eps sum |c_i| |y|^i (Higham, 5.1),
        # the term-by-term sum's below n eps sum |a_j D_j^(k)(y)|; a complex
        # product rounds by up to sqrt(5) eps, hence the factor 4
        horner_size = sum(abs(c) * np.abs(y) ** i for i, c in enumerate(reversed(coeffs[k])))
        bound = 4 * n * eps * (2 * horner_size + sizes[k])
        assert np.all(np.abs(got - sums[k]) <= bound), k


@pytest.mark.parametrize("fn", PUBLIC, ids=PUBLIC_IDS)
def test_scalar_and_empty_inputs(fn):
    scalar = fn(0.31 + 0.22j + 2 * TAU)
    assert type(scalar) is (float if fn is PUBLIC[-1] else complex)
    for shape in ((0,), (0, 3)):
        out = fn(np.zeros(shape, dtype=complex))
        assert out.shape == shape


def test_blocked_series_keeps_its_temporaries_small():
    # an area block of the r0-independence check: the series' temporaries
    # live one block at a time, so the peak is the output plus one block
    rng = np.random.default_rng(14)
    v = rng.uniform(-0.5, 0.5, (20, 18432)) + 0.4j * rng.uniform(-1.0, 1.0, (20, 18432))
    tracemalloc.start()
    try:
        out = log_derivative2(v, TAU)
        peak = tracemalloc.get_traced_memory()[1]
    finally:
        tracemalloc.stop()
    assert peak < 2 * out.nbytes


def test_term_count_is_the_least_that_meets_the_relative_tail_bound():
    counts = [_n_terms(tau) for tau in ORACLE_TAUS]
    assert counts == [8, 5, 4, 3]

    def tail(j, tau):
        # the first omitted term against the leading one, weighted as in
        # the second derivative
        return np.exp(-PI * tau.imag * j * j) * (2 * j + 1) ** 2

    for tau in (*ORACLE_TAUS, 0.1 + 0.35j, 0.25j, 5j, 20j):
        j = _n_terms(tau)
        assert tail(j, tau) <= _RELATIVE_TAIL
        assert j == 1 or tail(j - 1, tau) > _RELATIVE_TAIL
    assert _n_terms(20j) == 1


def test_log_derivative2_writes_its_output_in_place():
    # the Schiffer kernel turns w - z into the kernel in one buffer: the
    # output may be the input itself, over several blocks, with the same bits
    v = random_cell_points(np.random.default_rng(4), 2 * _BLOCK + 100)
    want = log_derivative2(v, TAU)
    out = np.empty_like(v)
    assert log_derivative2(v, TAU, out=out) is out
    assert np.array_equal(out, want)
    same = v.copy()
    log_derivative2(same, TAU, out=same)
    assert np.array_equal(same, want)
    for bad in (np.empty(3, dtype=complex), np.empty(2 * v.size, dtype=complex)[::2]):
        with pytest.raises(ValidationError,
                           match=rf"^out must be a C-contiguous array of shape \({v.size},\)$"):
            log_derivative2(v, TAU, out=bad)
