import numpy as np
import pytest

from faberforms.conformal import AffineMap, CapFamily, JoukowskiEllipseMap, PolynomialCapMap
from faberforms.faber import alpha_values
from faberforms.numerics import DiskGrid, NumericalError, ValidationError
from faberforms.schiffer import (
    NODE_COUNTS,
    CapDatum,
    apply_schiffer,
    contour_nodes,
    contour_radius,
    schiffer_contour,
)
from faberforms.surface import SurfaceSpec, a_cycle, b_cycle, boundary_cycle, schiffer_kernel

TAU = 0.3 + 1.1j


def sphere_one_cap(r=1.0):
    return SurfaceSpec.sphere(CapFamily([AffineMap(r)]), w0=4.0 + 3.0j)


def sphere_two_caps():
    caps = CapFamily([AffineMap(0.4), JoukowskiEllipseMap(0.25, scale=0.3, offset=2.5)])
    return SurfaceSpec.sphere(caps, w0=1.0 - 2.0j)


def torus_two_caps():
    caps = CapFamily([
        AffineMap(0.11, 0.3 + 0.3 * TAU),
        AffineMap(0.11, 0.75 + 0.7 * TAU),
    ])
    return SurfaceSpec.torus(TAU, caps)


def test_unit_cap_monomial_closed_form():
    # expanding the kernel in the disk and using the orthogonality of the
    # angular modes gives T(e^m)(z) = m r^m z^-(m+1) for the scale-r cap
    for r in (1.0, 0.5):
        surface = sphere_one_cap(r)
        pts = np.array([2.0, -2.0, 1.0 + 1.0j])
        for m in range(1, 5):
            want = m * r**m * pts ** -(m + 1)
            got_area = apply_schiffer(surface, CapDatum.monomial(0, m), pts)
            got_cont = schiffer_contour(surface, 0, m, pts)
            assert np.max(np.abs(got_area - want)) < 1e-10
            assert np.max(np.abs(got_cont - want)) < 1e-10


def test_mean_value_point_evaluation_is_scalar():
    surface = sphere_one_cap()
    val = apply_schiffer(surface, CapDatum.monomial(0, 1), 2.0)
    assert isinstance(val, complex)
    assert abs(val - 0.25) < 1e-10


def test_linearity():
    surface = sphere_two_caps()
    d1 = CapDatum.monomial(0, 1)
    d2 = CapDatum.monomial(1, 2)
    combo = CapDatum.linear([(2.0, d1), (-1.0j, d2)])
    pts = np.array([1.2 + 0.9j, -0.8 - 0.4j, 0.9 - 1.1j])
    lhs = apply_schiffer(surface, combo, pts)
    rhs = 2.0 * apply_schiffer(surface, d1, pts) - 1.0j * apply_schiffer(surface, d2, pts)
    assert np.max(np.abs(lhs - rhs)) < 1e-12


def test_contour_matches_area_sphere():
    surface = sphere_two_caps()
    rng = np.random.default_rng(11)
    pts = []
    while len(pts) < 20:
        z = complex(rng.uniform(-3, 6), rng.uniform(-4, 4))
        if surface.caps.distance_to_caps(z) > 0.3:
            pts.append(z)
    pts = np.array(pts)
    for k in (0, 1):
        for m in range(1, 5):
            a = apply_schiffer(surface, CapDatum.monomial(k, m), pts)
            c = schiffer_contour(surface, k, m, pts)
            assert np.max(np.abs(a - c)) < 1e-8


def test_contour_matches_area_torus():
    surface = torus_two_caps()
    rng = np.random.default_rng(12)
    pts = []
    while len(pts) < 12:
        z = rng.uniform(0.05, 0.95) + rng.uniform(0.05, 0.95) * TAU
        if surface.distance_to_caps_reduced(z) > 0.2:
            pts.append(z)
    pts = np.array(pts)
    for k in (0, 1):
        for m in range(1, 4):
            a = apply_schiffer(surface, CapDatum.monomial(k, m), pts)
            c = schiffer_contour(surface, k, m, pts)
            assert np.max(np.abs(a - c)) < 1e-8


def test_contour_radius_independence():
    surface = sphere_two_caps()
    pts = np.array([1.0 + 1.2j, -1.5 + 0.2j, 4.0 - 0.5j])
    for m in range(1, 4):
        vals = [schiffer_contour(surface, 1, m, pts, r0=r) for r in (0.4, 0.6, 0.8)]
        spread = max(
            float(np.max(np.abs(vals[i] - vals[j]))) for i in range(3) for j in range(i)
        )
        assert spread < 1e-9


def test_default_radius_policy():
    assert contour_radius(1) == 0.5
    assert contour_radius(12) == pytest.approx(12.0 / 18.0)
    assert contour_radius(200) == 0.92


def test_default_radius_steps():
    # steps end at orders 6, 12, 24, 48, ...; each takes the radius of its
    # last order, so no order sits below its own m / (m + 6)
    for m in range(1, 301):
        own = min(max(0.5, m / (m + 6.0)), 0.92)
        assert contour_radius(m) >= own
    assert {contour_radius(m) for m in range(1, 7)} == {0.5}
    assert {contour_radius(m) for m in range(7, 13)} == {12.0 / 18.0}
    assert {contour_radius(m) for m in range(13, 25)} == {0.8}
    assert {contour_radius(m) for m in range(25, 49)} == {48.0 / 54.0}
    assert {contour_radius(m) for m in range(49, 301)} == {0.92}


def test_contour_nodes_by_radius_step():
    # steps 1-5 of the default radius: 0.5, 2/3, 0.8, 8/9, 0.92
    assert [contour_nodes(contour_radius(e)) for e in (6, 12, 24, 48, 96)] == [
        64, 128, 256, 256, 256]
    for r0 in np.linspace(0.01, 0.99, 99):
        n = contour_nodes(r0)
        assert n in NODE_COUNTS and n <= 256
        if n < 256:
            assert r0**n <= 1e-19
        # the smallest count that qualifies
        assert all(r0**fewer > 1e-19 for fewer in NODE_COUNTS if fewer < n)


def _summand_scale(surface, k, orders, pts, r0, n=256):
    # (pi/n) sum_j |K(f(zeta_j), z)| |zeta_j^(1-m) f'(zeta_j)|: the size of
    # the roundoff any summation order of the contour sum may carry; the
    # value itself can be far smaller after cancellation at high orders
    f = surface.caps[k]
    zeta = r0 * np.exp(2j * np.pi * np.arange(n) / n)
    kern = np.abs(schiffer_kernel(surface, f.evaluate(zeta)[None, :], pts[:, None]))
    weight = np.abs(zeta[:, None] ** (1 - np.asarray(orders)[None, :])
                    * f.derivative(zeta)[:, None])
    return (np.pi / n) * kern @ weight


def _multi_vs_single(surface, k, pts):
    blocks = [(range(1, 7), None), (range(7, 13), None), (range(13, 25), None),
              # an explicit radius lets orders of several steps share a block
              ([1, 5, 9], 0.7)]
    for orders, r0 in blocks:
        multi = schiffer_contour(surface, k, orders, pts, r0=r0)
        assert multi.shape == pts.shape + (len(orders),)
        single = np.stack([schiffer_contour(surface, k, m, pts, r0=r0) for m in orders], -1)
        radius = contour_radius(orders[-1]) if r0 is None else r0
        scale = _summand_scale(surface, k, orders, pts, radius)
        assert np.all(np.abs(multi - single) <= 1e-13 * scale), (k, list(orders))


def test_multi_order_matches_single_orders_sphere():
    caps = CapFamily([
        AffineMap(0.5, 3.0 + 0.5j),
        JoukowskiEllipseMap(0.25, scale=1.0, offset=0.0),
        PolynomialCapMap([0.6, 0.08, 0.02], offset=-1.2 + 2.8j),
    ])
    surface = SurfaceSpec.sphere(caps)
    pts = np.array([5.0 + 0.1j, -3.0 - 1.0j, 1.5 + 1.5j, 0.2 - 2.5j])
    assert np.all(surface.in_sigma(pts))
    for k in range(3):
        _multi_vs_single(surface, k, pts)


def test_multi_order_matches_single_orders_torus():
    surface = torus_two_caps()
    pts = np.array([0.5 + 0.12j, 0.15 + 0.6 * TAU, 0.9 + 0.2 * TAU])
    _multi_vs_single(surface, 0, pts)


def _default_vs_fine_reads(surface, point_sets):
    # default-node reads of steps 1-3 against 1024-node reads on the same
    # radius, for every cap, at every point set
    for k in range(surface.n_caps):
        for orders in (range(1, 7), range(7, 13), range(13, 25)):
            r0 = contour_radius(orders[-1])
            for pts in point_sets:
                got = alpha_values(surface, k, orders, pts)
                fine = schiffer_contour(surface, k, orders, pts, r0=r0, n=1024)
                scale = _summand_scale(surface, k, orders, pts, r0, n=1024)
                assert np.all(np.abs(got - fine) <= 1e-13 * scale), (k, orders[-1])


def _measuring_circles(surface, n=64):
    # own and foreign circles at the radii the series measures on
    return [boundary_cycle(surface, k, radius=r, n=n).nodes
            for k in range(surface.n_caps) for r in (0.95, 1.0)]


def test_default_node_count_matches_fine_reads_sphere():
    caps = CapFamily([
        AffineMap(0.5, 3.0 + 0.5j),
        JoukowskiEllipseMap(0.25, scale=1.0, offset=0.0),
        PolynomialCapMap([0.6, 0.08, 0.02], offset=-1.2 + 2.8j),
    ])
    surface = SurfaceSpec.sphere(caps)
    _default_vs_fine_reads(surface, _measuring_circles(surface))


def test_default_node_count_matches_fine_reads_torus():
    surface = torus_two_caps()
    cycles = [a_cycle(surface).nodes, b_cycle(surface).nodes]
    _default_vs_fine_reads(surface, _measuring_circles(surface) + cycles)


def test_multi_order_scalar_point_and_bad_orders():
    surface = sphere_one_cap()
    vals = schiffer_contour(surface, 0, [1, 2, 3], 2.0)
    assert vals.shape == (3,)
    assert np.max(np.abs(vals - np.array([1, 2, 3]) * 2.0 ** -np.arange(2, 5))) < 1e-12
    with pytest.raises(ValidationError, match="radius step"):
        schiffer_contour(surface, 0, [6, 7], 2.0)
    with pytest.raises(ValidationError, match="order"):
        schiffer_contour(surface, 0, [1, 0], 2.0)
    with pytest.raises(ValidationError, match="integer"):
        schiffer_contour(surface, 0, [1.0, 2.0], 2.0)


def test_multi_order_guard_rejects_z_inside_or_on_contour():
    surface = sphere_one_cap()
    with pytest.raises(ValidationError, match="inside the evaluation contour"):
        schiffer_contour(surface, 0, [1, 2, 3], np.array([2.0, 0.1]), r0=0.8)
    with pytest.raises(ValidationError, match="sits on the evaluation contour"):
        schiffer_contour(surface, 0, range(7, 13), np.array([2.0, 12.0 / 18.0]))


def test_roundoff_guard_names_order_radius_and_figure():
    surface = sphere_one_cap()
    # 0.5^-40 * eps = 2.44e-04
    with pytest.raises(NumericalError,
                       match=r"order 40 on the contour radius 0\.5 .* 2\.44e-04"):
        schiffer_contour(surface, 0, [30, 40], 2.0, r0=0.5)
    # the default radius tops out at 0.92, where order 250 is past the bound
    with pytest.raises(NumericalError, match=r"order 250 on the contour radius 0\.92 "):
        schiffer_contour(surface, 0, 250, 2.0)
    # the long sphere run reads order 40 at radius 48/54: figure ~ 2.5e-14
    assert abs(schiffer_contour(surface, 0, 40, 2.0) - 40 * 2.0**-41) < 1e-12


def test_base_point_independence():
    pts = np.array([1.4 + 1.0j, -0.9 - 0.7j])
    caps = CapFamily([AffineMap(0.4), JoukowskiEllipseMap(0.25, scale=0.3, offset=2.5)])
    s_inf = SurfaceSpec.sphere(caps, q=None, w0=1.0 - 2.0j)
    s_fin = SurfaceSpec.sphere(caps, q=5.0 + 5.0j, w0=1.0 - 2.0j)
    d = CapDatum.monomial(1, 2)
    assert np.max(np.abs(apply_schiffer(s_inf, d, pts) - apply_schiffer(s_fin, d, pts))) < 1e-12

    t1 = torus_two_caps()
    t2 = SurfaceSpec.torus(TAU, t1.caps, q=0.52 + 0.52 * TAU, w0=t1.w0)
    zt = np.array([0.5 + 0.1 * TAU, 0.1 + 0.55 * TAU])
    assert np.max(np.abs(apply_schiffer(t1, d, zt) - apply_schiffer(t2, d, zt))) < 1e-12


def test_output_is_holomorphic():
    # Taylor data read off a circle reproduces interior values only for a
    # holomorphic function; any conjugate contamination breaks this
    surface = sphere_two_caps()
    vals = {}
    center, radius = 1.2 - 1.5j, 0.6
    n = 256
    circle = center + radius * np.exp(2j * np.pi * np.arange(n) / n)
    samples = schiffer_contour(surface, 1, 3, circle)
    coeff = np.fft.fft(samples) / n
    orders = np.arange(n)
    orders[orders > n // 2] -= n
    inner = center + 0.5 * radius * np.exp(2j * np.pi * np.arange(32) / 32)
    direct = schiffer_contour(surface, 1, 3, inner)
    rebuilt = np.zeros(32, dtype=complex)
    for c, p in zip(coeff, orders):
        if p >= 0 and abs(c) > 1e-15:
            rebuilt += c * ((inner - center) / radius) ** p
    assert np.max(np.abs(rebuilt - direct)) < 1e-9
    neg_mass = float(np.max(np.abs(coeff[orders < 0])))
    assert neg_mass < 1e-9
    vals["neg"] = neg_mass


def test_torus_output_is_elliptic():
    surface = torus_two_caps()
    z = np.array([0.5 + 0.12j, 0.15 + 0.6 * TAU])
    base = schiffer_contour(surface, 0, 2, z)
    shifted = schiffer_contour(surface, 0, 2, z + 1 + TAU)
    assert np.max(np.abs(base - shifted)) < 1e-10


def test_rejects_z_inside_cap():
    surface = sphere_two_caps()
    with pytest.raises(ValidationError, match="cap"):
        apply_schiffer(surface, CapDatum.monomial(0, 1), 0.1 + 0.1j)


def test_rejects_z_inside_contour():
    surface = sphere_one_cap()
    with pytest.raises(ValidationError, match="contour"):
        schiffer_contour(surface, 0, 1, 0.1, r0=0.8)
    with pytest.raises(ValidationError, match="contour"):
        schiffer_contour(surface, 0, 1, complex(0.8), r0=0.8)
    # inside the cap but outside the contour is the meromorphic extension
    val = schiffer_contour(surface, 0, 1, 0.9, r0=0.5)
    assert abs(val - 0.9**-2) < 1e-10


def test_rejects_bad_arguments():
    surface = sphere_one_cap()
    with pytest.raises(ValidationError, match="m"):
        CapDatum.monomial(0, 0)
    with pytest.raises(ValidationError, match="order"):
        schiffer_contour(surface, 0, 0, 2.0)
    with pytest.raises(ValidationError, match="index"):
        schiffer_contour(surface, 3, 1, 2.0)
    with pytest.raises(ValidationError, match="radius"):
        schiffer_contour(surface, 0, 1, 2.0, r0=1.2)


def test_coarse_grid_self_report():
    surface = sphere_two_caps()
    datum = CapDatum.monomial(1, 6)
    z = np.array([2.5 + 0.55j])
    with pytest.raises(NumericalError, match="coarse"):
        apply_schiffer(surface, datum, z, grid=DiskGrid(4, 8), check=True)
    fine = apply_schiffer(surface, datum, z, check=True)
    ref = schiffer_contour(surface, 1, 6, z)
    assert np.max(np.abs(fine - ref)) < 1e-8


def test_stacked_area_read_matches_per_datum_reads():
    # one kernel block per (cap, grid), shared by every datum of the stack
    data = [
        CapDatum.monomial(1, 2),
        CapDatum.monomial(0, 1),
        CapDatum.linear([(0.5, CapDatum.monomial(0, 3)), (2j, CapDatum.monomial(1, 1))]),
    ]
    grid = DiskGrid(64, 128)
    cases = (
        (sphere_two_caps(), np.array([1.4 + 1.0j, -0.9 - 0.7j, 2.5 + 0.9j])),
        (torus_two_caps(), np.array([0.5 + 0.1 * TAU, 0.1 + 0.55 * TAU])),
    )
    for surface, pts in cases:
        stacked = apply_schiffer(surface, data, pts, grid=grid)
        assert stacked.shape == (pts.size, len(data))
        for j, datum in enumerate(data):
            single = apply_schiffer(surface, datum, pts, grid=grid)
            scale = max(1.0, float(np.max(np.abs(single))))
            assert np.max(np.abs(stacked[:, j] - single)) <= 1e-13 * scale, j
    # a scalar point keeps only the axis over the data
    surface, pts = cases[0]
    point = apply_schiffer(surface, data, complex(pts[0]), grid=grid)
    assert point.shape == (len(data),)
    assert np.max(np.abs(point - apply_schiffer(surface, data, pts, grid=grid)[0])) < 1e-15


def test_stacked_coarse_grid_names_the_datum_that_needs_refinement():
    surface = sphere_two_caps()
    z = np.array([2.5 + 0.55j])
    grid = DiskGrid(6, 12)
    # the cap-0 data are resolved on this grid; the order-6 datum on the
    # Joukowski cap is not
    resolved = [CapDatum.monomial(0, 1), CapDatum.monomial(0, 6)]
    apply_schiffer(surface, resolved, z, grid=grid)
    with pytest.raises(NumericalError,
                       match=r"too coarse: refinement moved values by .* for datum 1$"):
        apply_schiffer(surface, [resolved[0], CapDatum.monomial(1, 6)], z, grid=grid)
    with pytest.raises(NumericalError, match=r"too coarse: refinement moved values by \S+$"):
        apply_schiffer(surface, CapDatum.monomial(1, 6), z, grid=grid)
