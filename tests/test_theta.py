import cmath
import tracemalloc

import mpmath
import numpy as np
import pytest

from faberforms import theta
from faberforms.numerics import ValidationError
from faberforms.theta import (
    _BLOCK,
    _TAIL_TOLERANCE,
    _n_terms,
    lattice_reduce,
    log_abs,
    log_derivative,
    log_derivative2,
    theta1,
)

TAU = 0.3 + 1.1j
PI = np.pi


def mp_theta1(v, tau):
    # independent oracle: mpmath's jtheta uses theta1(z, q) with z = pi v
    q = mpmath.exp(1j * mpmath.pi * tau)
    val = mpmath.jtheta(1, mpmath.pi * complex(v), q)
    return complex(val)


def random_cell_points(rng, n, tau=TAU, pad=0.1):
    x = rng.uniform(pad, 1 - pad, n)
    y = rng.uniform(pad, 1 - pad, n)
    return x + y * complex(tau)


def test_theta1_matches_mpmath_in_cell():
    rng = np.random.default_rng(2)
    v = random_cell_points(rng, 20)
    ours = theta1(v, TAU)
    ref = np.array([mp_theta1(vj, TAU) for vj in v])
    assert np.max(np.abs(ours - ref)) < 1e-13 * np.max(np.abs(ref))


def test_theta1_matches_mpmath_far_from_cell():
    # quasi-period factors restored in closed form, so shifted arguments
    # must still agree with the direct oracle
    rng = np.random.default_rng(3)
    base = random_cell_points(rng, 8)
    for shift in (2.0, -3.0, 2 * TAU, -1 - TAU, 3 + 2 * TAU):
        v = base + shift
        ours = theta1(v, TAU)
        ref = np.array([mp_theta1(vj, TAU) for vj in v])
        assert np.max(np.abs(ours - ref) / np.abs(ref)) < 1e-11


def test_theta1_odd_and_zero_at_origin():
    assert abs(theta1(0.0, TAU)) < 1e-14
    v = 0.17 - 0.05j
    assert theta1(-v, TAU) == pytest.approx(-theta1(v, TAU), abs=1e-14)


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


def test_log_abs_consistent_with_theta1():
    rng = np.random.default_rng(6)
    v = random_cell_points(rng, 10) + 2 + TAU
    ours = log_abs(v, TAU)
    ref = np.log(np.abs(theta1(v, TAU)))
    assert np.max(np.abs(ours - ref)) < 1e-11


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
    ours = theta1(v, tau)
    ref = np.array([mp_theta1(vj, tau) for vj in v])
    assert np.max(np.abs(ours - ref)) < 1e-12 * np.max(np.abs(ref))


def test_tau_validation():
    with pytest.raises(ValidationError):
        theta1(0.3, 0.5 - 1.0j)
    with pytest.raises(ValidationError):
        log_abs(0.3, 1.0)


ORACLE_TAUS = (0.2 + 0.3j, -0.1 + 0.7j, 0.3 + 1.1j, 0.45 + 2.0j)


def mp_theta1_derivs(v, tau):
    """theta1, theta1', theta1'' in v (mpmath differentiates in pi v)."""
    q = mpmath.exp(1j * mpmath.pi * tau)
    z = mpmath.pi * mpmath.mpc(complex(v))
    return [complex(mpmath.jtheta(1, z, q, derivative=d) * mpmath.pi ** d) for d in range(3)]


def oracle_points(tau):
    # reduced points: |Im v| up to 0.49 Im(tau), the edge where the series
    # terms are largest, plus a ring of radius 1e-3 around the zero at 0
    rng = np.random.default_rng(11)
    x = rng.uniform(-0.5, 0.5, 12)
    y = rng.choice([-0.49, -0.45, 0.45, 0.49], 12) * tau.imag
    edge = x + y / tau.imag * tau
    ring = 1e-3 * np.exp(2j * PI * np.arange(6) / 6 + 0.3j)
    return np.concatenate([edge, ring, rng.uniform(-0.4, 0.4, 6) + 0.2j * tau.imag])


@pytest.mark.parametrize("tau", ORACLE_TAUS)
def test_theta1_derivatives_match_mpmath(tau):
    v = oracle_points(tau)
    with mpmath.workdps(30):
        ref = np.array([mp_theta1_derivs(vj, tau) for vj in v])
    assert np.all(lattice_reduce(v, tau)[2] == 0)
    for d in range(3):
        ours = theta1(v, tau, d)
        assert np.max(np.abs(ours - ref[:, d]) / np.abs(ref[:, d])) < 1e-12, d
    exact = ref[:, 2] / ref[:, 0] - (ref[:, 1] / ref[:, 0]) ** 2
    rel = np.abs(log_derivative2(v, tau) - exact) / np.abs(exact)
    assert np.max(rel) < 1e-12
    rel = np.abs(log_derivative(v, tau) - ref[:, 1] / ref[:, 0]) / np.abs(ref[:, 1] / ref[:, 0])
    assert np.max(rel) < 1e-12


@pytest.mark.parametrize("tau", ORACLE_TAUS)
def test_theta1_derivatives_match_mpmath_off_the_strip(tau):
    # the closed-form quasi-period factor and its v-derivatives restore
    # theta1, theta1' and theta1'' from the reduced argument, up to 6 tau-shifts
    rng = np.random.default_rng(12)
    y = rng.choice([-1, 1], 16) * rng.uniform(0.5, 6.0, 16)
    v = rng.uniform(-2.0, 2.0, 16) + y * tau
    assert np.max(np.abs(v.imag)) > 5 * tau.imag
    with mpmath.workdps(30):
        ref = np.array([mp_theta1_derivs(vj, tau) for vj in v])
    for d in range(3):
        ours = theta1(v, tau, d)
        assert np.max(np.abs(ours - ref[:, d]) / np.abs(ref[:, d])) < 1e-12, d


PUBLIC = (
    lambda v: theta1(v, TAU),
    lambda v: theta1(v, TAU, 1),
    lambda v: theta1(v, TAU, 2),
    lambda v: log_derivative(v, TAU),
    lambda v: log_derivative2(v, TAU),
    lambda v: log_abs(v, TAU),
)


@pytest.mark.parametrize("fn", PUBLIC)
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


def one_array_per_sum(v, tau, n_deriv):
    # the reference arithmetic: sin and cos stepped as separate arrays, and
    # each sum built term by term on its own
    p = cmath.exp(1j * PI * tau)
    a, b = PI * v.real, PI * v.imag
    sin_a, cos_a, sinh_b, cosh_b = np.sin(a), np.cos(a), np.sinh(b), np.cosh(b)
    sin_j = sin_a * cosh_b + 1j * (cos_a * sinh_b)
    cos_j = cos_a * cosh_b - 1j * (sin_a * sinh_b)
    sin_prev, cos_prev = -sin_j, cos_j
    two_cos2 = 2.0 - 4.0 * sin_j * sin_j
    sums = None
    for j in range(_n_terms(tau)):
        if j:
            sin_j, sin_prev = two_cos2 * sin_j - sin_prev, sin_j
            cos_j, cos_prev = two_cos2 * cos_j - cos_prev, cos_j
        freq = (2 * j + 1) * PI
        amp = 2.0 * (-1.0) ** j * p ** ((j + 0.5) ** 2)
        terms = [sin_j * amp, cos_j * (freq * amp), sin_j * (-freq * freq * amp)][:n_deriv + 1]
        sums = terms if sums is None else [s + t for s, t in zip(sums, terms)]
    return sums


@pytest.mark.parametrize("tau", [TAU, 0.1 + 0.35j])
def test_stacked_series_gives_the_bits_of_one_array_per_sum(tau):
    # random reduced points and the two hard edges, |v| = 1e-7 and
    # |Im v| = 0.49 Im tau, under two term counts
    rng = np.random.default_rng(15)
    n = 3000
    v = lattice_reduce(rng.uniform(-3.0, 3.0, n) + rng.uniform(-3.0, 3.0, n) * tau, tau)[0]
    v[0::3] = 1e-7 * np.exp(2j * PI * rng.uniform(0.0, 1.0, n // 3))
    v[1::3] = rng.uniform(-0.5, 0.5, n // 3) + 0.49j * tau.imag * rng.choice([-1.0, 1.0], n // 3)
    for n_deriv in range(3):
        got = theta._theta1_series(v, tau, n_deriv)
        assert got.shape == (n_deriv + 1, n)
        for row, want in zip(got, one_array_per_sum(v, tau, n_deriv)):
            assert np.array_equal(row.view(np.uint64), want.view(np.uint64)), n_deriv

@pytest.mark.parametrize("fn", PUBLIC)
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


def test_term_count_falls_as_im_tau_grows():
    counts = [_n_terms(tau) for tau in ORACLE_TAUS]
    assert counts == sorted(counts, reverse=True)
    assert counts[0] > counts[-1]
    # the first omitted term is negligible; the last kept one is not
    for tau in ORACLE_TAUS:
        j = _n_terms(tau)
        assert np.exp(-PI * tau.imag * (j ** 2 - 0.25)) < _TAIL_TOLERANCE
        assert np.exp(-PI * tau.imag * ((j - 1) ** 2 - 0.25)) > _TAIL_TOLERANCE


def test_theta1_rejects_unsupported_derivative():
    with pytest.raises(ValidationError):
        theta1(0.3, TAU, deriv=3)


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
