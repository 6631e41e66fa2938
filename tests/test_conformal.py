import math
import tracemalloc

import numpy as np
import pytest

from faberforms import numerics
from faberforms.conformal import (
    AffineMap,
    CapFamily,
    ConformalMap,
    JoukowskiEllipseMap,
    PolynomialCapMap,
    TranslatedMap,
    make_map,
    winding_number,
)
from faberforms.numerics import NumericalError, ValidationError, laurent_from_samples

TWO_PI = 2.0 * np.pi


def builtin_maps():
    return [
        AffineMap(0.5),
        AffineMap(0.3 + 0.1j, offset=1.0 - 0.5j),
        JoukowskiEllipseMap(0.25),
        JoukowskiEllipseMap(0.4, scale=0.7, offset=2.0),
        PolynomialCapMap([1.0, 0.1]),
        PolynomialCapMap([0.5, 0.05, 0.02j], offset=-1.0),
    ]


def test_affine_evaluate():
    f = AffineMap(0.5)
    assert f.evaluate(0.2) == pytest.approx(0.1)
    assert f.derivative(0.9j) == pytest.approx(0.5)
    assert f.center == 0.0


def test_joukowski_center_is_offset():
    f = JoukowskiEllipseMap(0.25, offset=2.0 + 1.0j)
    assert f.evaluate(0.0) == pytest.approx(2.0 + 1.0j)


def test_polynomial_evaluate_and_derivative():
    f = PolynomialCapMap([1.0, 0.1])
    assert f.evaluate(0.5) == pytest.approx(0.525)
    assert f.derivative(0.5) == pytest.approx(1.1)


def test_domain_guard():
    f = AffineMap(1.0)
    with pytest.raises(ValidationError):
        f.evaluate(1.5)
    with pytest.raises(ValidationError):
        f.derivative(1.0 + 1e-6)
    # the closed disk itself is fine (pairing contours live on |zeta| = 1)
    f.evaluate(np.exp(1j * 0.3))


def test_derivative_matches_finite_differences():
    rng = np.random.default_rng(5)
    h = 1e-5
    for f in builtin_maps():
        zeta = 0.9 * np.sqrt(rng.uniform(0, 1, 100)) * np.exp(1j * rng.uniform(0, TWO_PI, 100))
        fd = (f.evaluate(zeta + h) - f.evaluate(zeta - h)) / (2 * h)
        assert np.max(np.abs(fd - f.derivative(zeta))) < 1e-7


def test_invert_round_trip():
    rng = np.random.default_rng(9)
    for f in builtin_maps():
        zeta = 0.95 * np.sqrt(rng.uniform(0, 1, 100)) * np.exp(1j * rng.uniform(0, TWO_PI, 100))
        w = f.evaluate(zeta)
        back = f.invert(w)
        assert np.max(np.abs(back - zeta)) < 1e-11
        again = f.evaluate(back)
        assert np.max(np.abs(again - w)) < 1e-10


def test_invert_simple_values():
    assert AffineMap(0.5).invert(0.1) == pytest.approx(0.2)
    assert PolynomialCapMap([1.0, 0.1]).invert(0.525) == pytest.approx(0.5)


def test_invert_reports_failure():
    f = AffineMap(0.5)
    with pytest.raises(NumericalError, match="residual"):
        f.invert(10.0)  # far outside the image; the clamped iteration stalls


def test_extract_taylor_matches_map():
    f = JoukowskiEllipseMap(0.25)
    c = laurent_from_samples(f.evaluate(0.5 * np.exp(1j * TWO_PI * np.arange(128) / 128)), 0.5,
                             range(21))
    zeta = 0.25 * np.exp(1j * TWO_PI * np.arange(7) / 7)
    assert np.max(np.abs(np.polynomial.polynomial.polyval(zeta, c) - f.evaluate(zeta))) < 1e-12
    # odd map: even Taylor coefficients vanish, odd ones are a^(j)
    assert abs(c[2]) < 1e-13
    assert c[3] == pytest.approx(0.25, abs=1e-12)
    assert c[5] == pytest.approx(0.0625, abs=1e-12)


def test_derivative_vanishing_rejected():
    # f(zeta) = zeta^2 has f'(0) = 0 and doubles angles, so both the
    # derivative grid check and the injectivity spot check would fail
    with pytest.raises(ValidationError):
        PolynomialCapMap([0.0, 1.0])


def test_derivative_grid_guard_names_the_smallest_derivative():
    # f = zeta + zeta^2 has f'(-1/2) = 0, a node of the derivative grid
    with pytest.raises(ValidationError,
                       match=r"^polynomial-perturbation map derivative vanishes on the disk "
                             r"\(min \d\.\d{3}e[-+]\d+ at \|zeta\| <= 1\)$") as err:
        PolynomialCapMap([1, 1])
    assert err.type is ValidationError


@pytest.mark.parametrize("build, message", [
    (lambda: AffineMap(0.0, offset=1.0), "affine scale must be nonzero"),
    (lambda: JoukowskiEllipseMap(0.3, scale=0.0), "joukowski scale must be nonzero"),
    (lambda: CapFamily([]), "cap family needs at least one map"),
], ids=["affine", "joukowski", "empty-family"])
def test_a_degenerate_map_or_family_is_refused_by_name(build, message):
    with pytest.raises(ValidationError, match=f"^{message}$") as err:
        build()
    assert err.type is ValidationError


def test_derivative_winding_guard_rejects_folding():
    # f = zeta + 2 zeta^5 folds the disk: f' has zeros inside it, which the
    # derivative-winding guard sees before the injectivity spot check runs
    # (``_ExpMap`` below reaches that check)
    with pytest.raises(ValidationError, match="polynomial-perturbation map derivative "
                                              "vanishes inside the disk"):
        PolynomialCapMap([1.0, 0.0, 0.0, 0.0, 2.0])


def test_center_winding_guard_rejects_a_map_that_covers_its_center_three_times():
    # f = (1 + zeta / 1.1)^7 - 1: f' vanishes only at zeta = -1.1, outside
    # the disk, but f also takes the center value f(0) = 0 at
    # zeta = 1.1 (exp(+-2 pi i / 7) - 1), |zeta| = 0.955, so the boundary
    # winds three times around it
    with pytest.raises(ValidationError,
                       match="^polynomial-perturbation map covers its center more than once$"):
        PolynomialCapMap([math.comb(7, j) / 1.1**j for j in range(1, 8)])


class _ExpMap(ConformalMap):
    # f(zeta) = (exp(lam zeta) - 1) / lam: f' never vanishes, and for
    # lam < 2 pi the center 0 has one preimage, but for lam > pi two points
    # of the disk 2 pi i / lam apart share an image
    kind = "exp"

    def __init__(self, lam):
        self.lam = lam
        super().__init__((lam,))

    def _evaluate(self, zeta):
        return np.expm1(self.lam * zeta) / self.lam

    def _derivative(self, zeta):
        return np.exp(self.lam * zeta)


def test_injectivity_spot_check_rejects_a_boundary_self_intersection():
    # the other guards pass this map: at lam = pi / sin(pi/4) the samples at
    # angles +-pi/4 (nodes 32 and 224 of 256) share an image, while lam = 3
    # is injective
    _ExpMap(3.0)
    with pytest.raises(ValidationError, match="^exp map is not injective on boundary samples$"):
        _ExpMap(np.pi / np.sin(np.pi / 4))


def test_map_construction_keeps_its_temporaries_small():
    # the injectivity spot check measures the 256 x 256 sample gaps in row
    # slices of numerics.BLOCK_ENTRIES entries (whole, the complex block
    # alone is 1 MB)
    JoukowskiEllipseMap(0.3)
    tracemalloc.start()
    try:
        JoukowskiEllipseMap(0.25)
        peak = tracemalloc.get_traced_memory()[1]
    finally:
        tracemalloc.stop()
    assert peak < 1.25e6


def test_joukowski_parameter_range():
    with pytest.raises(ValidationError):
        JoukowskiEllipseMap(0.9)


def test_translated_map_is_base_plus_shift():
    # bit for bit: the moved cap's samples, derivative and center are the
    # base map's plus the shift, on every map kind
    zeta = 0.7 * np.exp(1j * np.linspace(0, TWO_PI, 11))
    for base in builtin_maps():
        for t in (1.0 + 2.0j, -0.05, 0.3j):
            g = TranslatedMap(base, t)
            assert np.array_equal(g.evaluate(zeta), base.evaluate(zeta) + t)
            assert np.array_equal(g.derivative(zeta), base.derivative(zeta))
            assert g.center == base.center + t


def test_make_map_dispatch():
    f = make_map("affine", scale=0.5, offset=1.0)
    assert isinstance(f, AffineMap)
    assert f.center == 1.0
    with pytest.raises(ValidationError):
        make_map("schwarz-christoffel")
    with pytest.raises(ValidationError):
        make_map("affine", slope=2.0)


def test_winding_number():
    poly = np.exp(1j * TWO_PI * np.arange(64) / 64)
    assert winding_number(poly, 0.0) == 1
    assert winding_number(poly, 2.0) == 0
    inside = np.array([0.1, -0.3j, 0.5 + 0.2j])
    assert np.all(winding_number(poly, inside) == 1)


def test_cap_family_accepts_disjoint():
    fam = CapFamily([AffineMap(0.4), AffineMap(0.4, offset=2.0)])
    assert len(fam) == 2
    assert np.allclose(fam.centers, [0.0, 2.0])


def test_cap_family_rejects_overlap():
    with pytest.raises(ValidationError):
        CapFamily([AffineMap(1.0), AffineMap(1.0, offset=0.5)])


def test_cap_family_rejects_containment():
    with pytest.raises(ValidationError):
        CapFamily([AffineMap(1.0), AffineMap(0.2)])


def test_cap_family_rejects_containment_in_either_order():
    big, small = AffineMap(1.0), AffineMap(0.2, offset=0.1 + 0.1j)
    for maps in ([big, small], [small, big]):
        with pytest.raises(ValidationError, match="overlap"):
            CapFamily(maps)


def test_cap_family_names_close_and_crossing_caps():
    # a nested cap 0.01 from its host's boundary, and two crossing disks:
    # the winding test speaks before the gap test (the nested cap read
    # "come within 0.01 < separation 0.02")
    for pair in ([AffineMap(1.0), AffineMap(0.2, offset=0.79)],
                 [AffineMap(1.0), AffineMap(1.0, offset=0.5)]):
        for maps in (pair, pair[::-1]):
            with pytest.raises(ValidationError, match=r"^caps 0 and 1 overlap: a boundary point "
                                                      r"of cap \d lies in cap \d$"):
                CapFamily(maps)


@pytest.mark.parametrize("offset", [0.0, 0.06, 0.2])
def test_cap_family_names_identical_and_shifted_caps_as_overlapping(offset):
    # two torus-sized caps 0.06 apart read "come within 0.0003688 <
    # separation 0.02", and two identical ones "come within 0 < ...": a
    # boundary sample on the other cap's polygon is in its closed image
    maps = [AffineMap(0.11, offset=0.39 + 0.33j), AffineMap(0.11, offset=0.39 + 0.33j + offset)]
    with pytest.raises(ValidationError,
                       match=r"^caps 0 and 1 overlap: a boundary point of cap 0 lies in cap 1$"):
        CapFamily(maps)


def test_cap_family_accepts_disjoint_caps_with_overlapping_bounding_disks():
    # two flat ovals (half-width 1, half-height 0.53) stacked 1.2 apart,
    # 0.139 between their boundaries, and stacked 1.07 apart, 0.0095
    def ovals(offset):
        return [JoukowskiEllipseMap(0.5, scale=0.5),
                JoukowskiEllipseMap(0.5, scale=0.5, offset=offset)]

    fam = CapFamily(ovals(1.2j))
    assert np.all(fam.which_cap(np.array([0.9, 0.9 + 1.2j, 0.6j])) == [0, 1, -1])
    with pytest.raises(ValidationError, match=r"^caps 0 and 1 come within 0\.009453 "
                                              r"< separation 0\.02$"):
        CapFamily(ovals(1.07j))


def unfiltered_which_cap(fam, z):
    """Every point against every cap's polygon, with no bounding-disk
    prefilter."""
    out = np.full(z.shape, -1, dtype=int)
    for k in range(len(fam)):
        poly = fam.boundary_samples(k)
        near = np.min(np.abs(poly[None, :] - z[:, None]), axis=1) < 1e-9
        inside = winding_number(poly, z) != 0
        out[near | inside] = k
    return out


def probe_points(fam, rng, n=2000):
    """Random points around the caps, the boundary samples, points within
    1e-10 of them and points on and about each cap's bounding circle."""
    samples = [fam.boundary_samples(k) for k in range(len(fam))]
    b = np.concatenate(samples)
    centre = np.mean(b)
    span = 1.2 * float(np.max(np.abs(b - centre)))
    cloud = centre + span * (rng.uniform(-1, 1, n) + 1j * rng.uniform(-1, 1, n))
    jitter = 1e-10 * rng.uniform(0, 1, b.size) * np.exp(1j * TWO_PI * rng.uniform(0, 1, b.size))
    rings = []
    for p in samples:
        c = np.mean(p)
        radius = float(np.max(np.abs(p - c)))
        for d in (-1e-6, 0.0, 5e-7, 1e-6, 2e-6):
            rings.append(c + (radius + d) * np.exp(1j * TWO_PI * rng.uniform(0, 1, 200)))
    return np.concatenate([cloud, b, b + jitter, *rings])


def test_which_cap_prefilter_matches_unfiltered_loop():
    rng = np.random.default_rng(11)
    fam = CapFamily([
        AffineMap(0.5 + 0.2j, offset=-1.0),
        JoukowskiEllipseMap(0.4, scale=0.6, offset=1.0 + 0.5j),
        PolynomialCapMap([0.5, 0.05, 0.02j], offset=-0.5 + 1.8j),
    ])
    z = probe_points(fam, rng)
    got = fam.which_cap(z)
    assert np.array_equal(got, unfiltered_which_cap(fam, z))
    assert set(got.tolist()) == {-1, 0, 1, 2}
    assert [fam.which_cap(w) for w in z[::97]] == got[::97].tolist()


def test_which_cap_prefilter_matches_unfiltered_loop_on_the_torus():
    from faberforms.surface import SurfaceSpec

    tau = 0.3 + 1.1j
    surface = SurfaceSpec.torus(tau, CapFamily([
        AffineMap(0.11, offset=0.39 + 0.33j),
        JoukowskiEllipseMap(0.2, scale=0.1, offset=0.924 + 0.748j),
        PolynomialCapMap([0.07, 0.01], offset=0.25 + 0.75 * tau),
    ]))
    rng = np.random.default_rng(12)
    fam = surface.caps
    near = probe_points(fam, rng)
    shifts = rng.integers(-2, 3, near.size) + rng.integers(-2, 3, near.size) * tau
    wide = rng.uniform(-2, 3, 3000) + rng.uniform(-2, 3, 3000) * tau
    z = surface.geometry.reduce(np.concatenate([near + shifts, wide]))
    got = fam.which_cap(z)
    assert np.array_equal(got, unfiltered_which_cap(fam, z))
    assert set(got.tolist()) == {-1, 0, 1, 2}


def cap_geometry_reads(surface, z):
    """Every blocked cap-geometry read at the points z: winding numbers,
    pruned distances of three positions per point, cap indices and
    lattice-reduced distances."""
    fam = surface.caps
    return (
        *(winding_number(fam.boundary_samples(k), z) for k in range(len(fam))),
        fam.min_distance(np.stack([z, z + 0.25, z - 0.25j])),
        fam.which_cap(z),
        surface.distance_to_caps_reduced(z),
    )


@pytest.mark.parametrize("budget", [1, 1 << 40], ids=["one-row", "unbounded"])
def test_block_budget_does_not_change_cap_geometry(budget, monkeypatch):
    # the point-by-sample blocks go in row slices of numerics.BLOCK_ENTRIES
    # entries: one row per slice, and one slice for everything, give the
    # same floats and verdicts as the default budget
    from faberforms.surface import SurfaceSpec

    tau = 0.3 + 1.1j
    surface = SurfaceSpec.torus(tau, CapFamily([
        AffineMap(0.11, offset=0.39 + 0.33j),
        JoukowskiEllipseMap(0.2, scale=0.1, offset=0.924 + 0.748j),
        PolynomialCapMap([0.07, 0.01], offset=0.25 + 0.75 * tau),
    ]))
    z = probe_points(surface.caps, np.random.default_rng(15), n=600)[::5]
    assert z.size > 4 * (numerics.BLOCK_ENTRIES // 512)
    want = cap_geometry_reads(surface, z)
    base = surface.cycle_base()
    monkeypatch.setattr(numerics, "BLOCK_ENTRIES", budget)
    got = cap_geometry_reads(surface, z)
    for a, b in zip(got, want):
        assert np.array_equal(a, b)
    assert set(want[-2].tolist()) == {-1, 0, 1, 2}
    # the injectivity spot check of a map, in row slices of the budget,
    # keeps both verdicts, and the cycle-base search (cached, so on a new
    # surface) picks the same base
    _ExpMap(3.0)
    with pytest.raises(ValidationError, match="^exp map is not injective on boundary samples$"):
        _ExpMap(np.pi / np.sin(np.pi / 4))
    assert SurfaceSpec.torus(tau, surface.caps).cycle_base() == base


def test_which_cap_and_distance():
    fam = CapFamily([AffineMap(0.5), JoukowskiEllipseMap(0.25, scale=0.5, offset=3.0)])
    assert fam.which_cap(0.1) == 0
    assert fam.which_cap(3.05) == 1
    assert fam.which_cap(1.5) == -1
    assert np.all(fam.which_cap(np.array([0.0, 3.0, 10.0])) == [0, 1, -1])
    # nearest boundary is the oval's left extreme at 3 - (4/3)*0.5 = 7/3
    assert fam.distance_to_caps(1.5) == pytest.approx(7.0 / 3.0 - 1.5, abs=1e-3)
