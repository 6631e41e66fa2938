import numpy as np
import pytest

from faberforms import _ziggurat, numerics
from faberforms.numerics import (
    DiskGrid,
    LeastSquaresResult,
    NumericalError,
    Pcg64Stream,
    PowerSeries,
    ValidationError,
    _gauss_legendre,
    area_pairing,
    laurent_from_samples,
    least_squares,
    measured_area,
    polyder,
    polyval,
)

TWO_PI = 2.0 * np.pi


class _Form:
    """Minimal one-form stand-in: an analytic evaluator."""

    def __init__(self, fn):
        self._fn = fn

    def __call__(self, w):
        return self._fn(np.asarray(w, dtype=complex))


class _IdentityChart:
    def evaluate(self, zeta):
        return np.asarray(zeta, dtype=complex)

    def derivative(self, zeta):
        return np.ones_like(np.asarray(zeta, dtype=complex))


def test_disk_grid_total_weight_is_pi():
    g = DiskGrid(24, 48)
    assert g.weights.min() > 0
    assert abs(g.integrate(np.ones(g.weights.size)) - np.pi) < 1e-12


def test_disk_grid_moment():
    # integral of |z|^2 over the unit disk = pi/2
    g = DiskGrid(24, 48)
    z = g.nodes
    assert abs(g.integrate(np.abs(z) ** 2) - np.pi / 2) < 1e-12


def test_disk_grid_built_once_and_read_only():
    g = DiskGrid(24, 48)
    assert g.nodes is g.nodes and g.weights is g.weights
    with pytest.raises(ValueError):
        g.weights[0] = 0.0
    assert g == DiskGrid(24, 48) and hash(g) == hash(DiskGrid(24, 48))


@pytest.mark.parametrize("n_radial, n_angular", [(1, 8), (4, 3)])
def test_disk_grid_refuses_a_grid_too_small(n_radial, n_angular):
    with pytest.raises(ValidationError,
                       match=f"^grid too small: {n_radial} radial x {n_angular} angular$"):
        DiskGrid(n_radial, n_angular)


def test_disk_grid_integrate_needs_one_sample_per_node():
    with pytest.raises(ValidationError, match="^expected 32 samples, got 31$"):
        DiskGrid(4, 8).integrate(np.ones(31))


def test_area_pairing_monomials():
    chart = _IdentityChart()
    one = _Form(lambda w: np.ones_like(w))
    z = _Form(lambda w: w)
    # i dz wedge conj(dz) = 2 dA, so (dz, dz) over the disk is 2 pi
    assert abs(area_pairing(one, one, chart) - TWO_PI) < 1e-12
    # angular symmetry kills mixed monomials
    assert abs(area_pairing(z, one, chart)) < 1e-13
    assert abs(area_pairing(z, z, chart) - np.pi) < 1e-12


def test_area_pairing_norm_positive():
    rng = np.random.default_rng(7)
    chart = _IdentityChart()
    for _ in range(10):
        c = rng.standard_normal(4) + 1j * rng.standard_normal(4)
        form = _Form(lambda w, c=c: np.polynomial.polynomial.polyval(w, c))
        val = area_pairing(form, form, chart)
        assert abs(val.imag) < 1e-12 * max(1.0, abs(val))
        assert val.real >= 0


def test_measured_area_stops_each_datum_on_its_own_grid():
    # column j reads 1 + n^-p_j on a grid of n radial nodes: p = 6 settles
    # to 1e-12 on 162 radial nodes, p = 4 never does but moves by 1.2e-9
    # on the last refinement, under the 1e-8 guard
    powers = np.array([0.0, 6.0, 4.0])
    asked = []

    def evaluate(grid, columns):
        asked.append(((grid.n_radial, grid.n_angular), columns.tolist()))
        n = float(grid.n_radial)
        return np.array([[1.0 + n ** -powers[j] if powers[j] else 1.0 for j in columns]] * 2)

    got = measured_area(evaluate, 3)
    seq = [(32, 64), (48, 96), (72, 144), (108, 216), (162, 324), (243, 486)]
    # five 1.5x refinements; only the data still open are read on the next grid
    assert asked == [(seq[0], [0, 1, 2]), (seq[1], [0, 1, 2]), (seq[2], [1, 2]),
                     (seq[3], [1, 2]), (seq[4], [1, 2]), (seq[5], [2])]
    assert got.shape == (2, 3)
    assert np.array_equal(got[0], [1.0, 1.0 + 162.0 ** -6, 1.0 + 243.0 ** -4])


def test_measured_area_raises_past_the_guard_and_names_the_datum(monkeypatch):
    def evaluate(grid, columns):
        # column 1 moves by 1e-5 per radial node, so never settles
        return np.array([[[1.0, 1.0 + 1e-5 * grid.n_radial][j] for j in columns]])

    with pytest.raises(NumericalError,
                       match=r"^area quadrature too coarse: refinement moved values by "
                             r"\S+ for datum 1$"):
        measured_area(evaluate, 2)
    with pytest.raises(NumericalError, match=r"moved values by 8\.100e-04$"):
        measured_area(lambda grid, columns: evaluate(grid, columns + 1), 1)
    # the guard reads the last refinement only
    monkeypatch.setattr(numerics, "AREA_REFINEMENTS", 1)
    with pytest.raises(NumericalError, match=r"by 1\.600e-04 for datum 1$"):
        measured_area(evaluate, 2)


def circle(center, radius, n):
    """n equispaced points on the circle |w - center| = radius."""
    return center + radius * np.exp(1j * TWO_PI * np.arange(n) / n)


def test_power_series_reads_its_constant_term_at_the_center():
    s = PowerSeries(0.0, laurent_from_samples(np.cos(circle(0.0, 0.7, 128)), 0.7, range(13)), 0.7)
    assert abs(s(0.0) - s.coefficients[0]) < 1e-15


def test_laurent_coefficients_two_sided():
    fn = lambda w: 3.0 / w ** 2 + 1.0 + 2.0 * w
    c = laurent_from_samples(fn(circle(0.0, 0.7, 256)), 0.7, [-3, -2, -1, 0, 1, 2])
    expect = np.array([0, 3, 0, 1, 2, 0], dtype=complex)
    assert np.max(np.abs(c - expect)) < 1e-12


def test_laurent_order_band_guard():
    with pytest.raises(ValidationError, match=r"^order 200 needs more than 256 samples$"):
        laurent_from_samples(circle(0.0, 0.5, 256), 0.5, [200])


def test_least_squares_identity():
    rhs = np.array([1.0, 2.0j, -3.0])
    res = least_squares(np.eye(3), rhs)
    assert isinstance(res, LeastSquaresResult)
    assert np.max(np.abs(res.coefficients - rhs)) < 1e-14
    assert not res.regularized


def test_least_squares_diagonal():
    res = least_squares(np.diag([2.0, 4.0]), np.array([2.0, 4.0]))
    assert np.max(np.abs(res.coefficients - 1.0)) < 1e-14


def test_least_squares_orthogonal_monomial_basis():
    # gram of {dz, z dz} on the unit disk is diag(2 pi, pi); rhs from
    # nu = (1 + z) dz pairs to (2 pi, pi), so the solve returns (1, 1)
    chart = _IdentityChart()
    basis = [_Form(lambda w: np.ones_like(w)), _Form(lambda w: w)]
    nu = _Form(lambda w: 1.0 + w)
    gram = np.array([[area_pairing(bj, bi, chart) for bj in basis] for bi in basis])
    rhs = np.array([area_pairing(nu, bi, chart) for bi in basis])
    res = least_squares(gram, rhs)
    assert np.max(np.abs(res.coefficients - 1.0)) < 1e-10
    assert gram @ res.coefficients == pytest.approx(rhs, abs=1e-10)


def test_least_squares_random_hermitian_systems():
    rng = np.random.default_rng(11)
    for _ in range(20):
        n = rng.integers(2, 7)
        A = rng.standard_normal((n, n)) + 1j * rng.standard_normal((n, n))
        G = A @ A.conj().T + 0.5 * np.eye(n)
        rhs = rng.standard_normal(n) + 1j * rng.standard_normal(n)
        res = least_squares(G, rhs)
        assert np.max(np.abs(G @ res.coefficients - rhs)) < 1e-10 * np.linalg.norm(rhs)


def test_least_squares_flags_bad_conditioning():
    G = np.diag([1.0, 1e-15])
    res = least_squares(G, np.array([1.0, 0.0]), condition_limit=1e12)
    assert res.regularized
    assert res.condition > 1e12


def test_least_squares_rejects_mismatched_shapes():
    with pytest.raises(ValidationError, match=r"^shape mismatch: gram \(2, 2\), rhs \(3,\)$"):
        least_squares(np.eye(2), np.ones(3))
    with pytest.raises(ValidationError, match=r"^shape mismatch: gram \(2, 3\), rhs \(2,\)$"):
        least_squares(np.ones((2, 3)), np.ones(2))


def test_least_squares_rejects_non_hermitian():
    with pytest.raises(ValidationError):
        least_squares(np.array([[1.0, 2.0], [0.0, 1.0]]), np.array([1.0, 1.0]))


@pytest.mark.parametrize("seed", [0, 1, 5, 2**32 - 1, 2**32, 2**64 + 1, 10**30])
def test_the_stream_draws_numpys_default_rng_normals_bit_for_bit(seed):
    for size in ((), 0, 1, 7):
        want = np.random.default_rng(seed).normal(size=size)
        got = Pcg64Stream(seed).normal(size)
        assert got.shape == want.shape and got.dtype == np.float64
        assert got.tobytes() == want.tobytes()
    # one stream serves both kinds of draw, each going on where the last stopped
    want_rng, got_rng = np.random.default_rng(seed), Pcg64Stream(seed)
    for _ in range(3):
        assert got_rng.normal(7).tobytes() == want_rng.normal(size=7).tobytes()
        assert got_rng.uniform(-1.0, 2.0, 5).tobytes() == want_rng.uniform(-1.0, 2.0, 5).tobytes()
    pcg = want_rng.bit_generator.state["state"]
    assert (got_rng.state, got_rng.inc) == (pcg["state"], pcg["inc"])


def test_a_long_normal_stream_matches_numpy_through_the_tail_and_wedge_branches(monkeypatch):
    # record the 64-bit outputs the stream takes and where each draw starts
    outputs, starts = [], []
    draw = numerics._standard_normal

    def recording_draw(source, zig):
        starts.append(len(outputs))
        return draw(source, zig)

    stream = Pcg64Stream(2024)
    raw = stream._outputs
    stream._outputs = lambda: (outputs.append(x) or x for x in raw())
    monkeypatch.setattr(numerics, "_standard_normal", recording_draw)
    got = stream.normal(200_000)
    assert got.tobytes() == np.random.default_rng(2024).normal(size=200_000).tobytes()
    # a draw's first output picks its layer and position; past the layer's
    # KI bound the draw takes the tail test (layer 0) or the wedge test
    layers = [r & 0xFF for r in (outputs[start] for start in starts)
              if r >> 9 & (2**52 - 1) >= _ziggurat.KI[r & 0xFF]]
    assert len(starts) == 200_000
    assert 0 in layers and any(layers)  # the tail test, and the wedge test


def test_gauss_legendre_nodes_match_numpys():
    from numpy.polynomial import legendre

    for n in range(1, 257):
        x, w = _gauss_legendre(n)
        assert np.max(np.abs(x - legendre.leggauss(n)[0])) <= 1e-15, n
        assert np.array_equal(w, w[::-1]), n  # mirror nodes share a weight


def test_disk_grids_of_one_size_share_one_read_only_rule():
    _gauss_legendre.cache_clear()
    first, second = DiskGrid(32, 64), DiskGrid(32, 64)
    info = _gauss_legendre.cache_info()
    assert (info.misses, info.hits) == (1, 1)  # the second grid built no rule
    assert np.array_equal(first.weights, second.weights)
    x, w = _gauss_legendre(32)
    assert not x.flags.writeable and not w.flags.writeable
    with pytest.raises(ValueError):
        x[0] = 0.0


def test_gauss_legendre_integrates_every_power_below_2n():
    for n in range(1, 257):
        x, w = _gauss_legendre(n)
        k = np.arange(2 * n)
        powers = np.cumprod(np.vstack([np.ones(n), np.broadcast_to(x, (2 * n - 1, n))]), axis=0)
        exact = np.where(k % 2 == 0, 2.0 / (k + 1), 0.0)
        assert np.max(np.abs(powers @ w - exact)) <= 1e-14, n


def test_gauss_legendre_weights_match_an_mpmath_reference():
    mpmath = pytest.importorskip("mpmath")

    def derivative(n, t):  # P_n(t) and P_n'(t)
        pn = mpmath.legendre(n, t)
        return pn, n * (t * pn - mpmath.legendre(n - 1, t)) / (t * t - 1)

    with mpmath.workdps(40):
        for n in (32, 72, 108, 243):
            x, w = _gauss_legendre(n)
            for xk, wk in zip(x[n // 2:], w[n // 2:]):  # the others mirror these
                t = mpmath.mpf(xk)
                pn, dp = derivative(n, t)
                t -= pn / dp  # one Newton step from a double node: about 1e-32 off
                dp = derivative(n, t)[1]
                assert abs(float(wk * (1 - t * t) * dp * dp / 2) - 1) <= 1e-12, (n, xk)


def test_polyval_and_polyder_are_numpys_bit_for_bit():
    from numpy.polynomial import polynomial

    rng = np.random.default_rng(11)
    for length in range(1, 9):
        for _ in range(20):
            c = rng.normal(size=length) + 1j * rng.normal(size=length)
            for x in (rng.normal(size=33), rng.normal(size=33) + 1j * rng.normal(size=33),
                      rng.normal(size=(3, 4)) + 1j * rng.normal(size=(3, 4)),
                      np.complex128(0.3 - 0.2j), 0.7):
                want = polynomial.polyval(x, c)
                assert np.shape(polyval(x, c)) == np.shape(want)
                assert np.asarray(polyval(x, c)).tobytes() == np.asarray(want).tobytes()
            assert polyder(c).tobytes() == polynomial.polyder(c).tobytes()
    # signed zeros and infinite parts go through the same complex products
    special = [0.0, -0.0, np.inf, -1.5]
    for re, im in ((special, special[::-1]), (special[::-1], special), (special[:1], [-0.0])):
        c = np.array([complex(a, b) for a, b in zip(re, im)])
        with np.errstate(invalid="ignore"):
            assert polyder(c).tobytes() == polynomial.polyder(c).tobytes()

