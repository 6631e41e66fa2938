import os
from types import SimpleNamespace

import numpy as np
import pytest

from faberforms import checks, numerics, schiffer
from faberforms.config import parse_config
from faberforms.conformal import AffineMap, CapFamily, JoukowskiEllipseMap, PolynomialCapMap
from faberforms.faber import PRINCIPAL_RADIUS, alpha_values
from faberforms.numerics import DiskGrid, NumericalError, ValidationError
from faberforms.schiffer import (
    NODE_COUNTS,
    CapDatum,
    _apply_area,
    apply_schiffer,
    contour_nodes,
    contour_radius,
    guard_order,
    order_limit,
    schiffer_contour,
)
from faberforms.surface import SurfaceSpec, boundary_cycle, lattice_cycles, schiffer_kernel

TAU = 0.3 + 1.1j
ROOT = os.path.join(os.path.dirname(__file__), "..")


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
    # a combination of the columns of a stack of monomials on two caps is
    # the same combination of their one-datum reads
    surface = sphere_two_caps()
    d1 = CapDatum.monomial(0, 1)
    d2 = CapDatum.monomial(1, 2)
    pts = np.array([1.2 + 0.9j, -0.8 - 0.4j, 0.9 - 1.1j])
    lhs = apply_schiffer(surface, [d1, d2], pts) @ np.array([2.0, -1.0j])
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
        64, 128, 256, 512, 1024]
    for r0 in np.linspace(0.01, 0.99, 99):
        n = contour_nodes(r0)
        assert n in NODE_COUNTS and n <= 1024
        if n < 1024:
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
    # default-node reads of steps 1-3 against 1024-node reads and of steps
    # 4-5 against 2048-node reads on the same radius, for every cap, at
    # every point set
    steps = ((range(1, 7), 1024), (range(7, 13), 1024), (range(13, 25), 1024),
             (range(25, 49), 2048), (range(49, 97), 2048))
    for k in range(surface.n_caps):
        for orders, fine_n in steps:
            r0 = contour_radius(orders[-1])
            for pts in point_sets:
                got = alpha_values(surface, k, orders, pts)
                fine = schiffer_contour(surface, k, orders, pts, r0=r0, n=fine_n)
                scale = _summand_scale(surface, k, orders, pts, r0, n=fine_n)
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
    cycles = [c.nodes for c in lattice_cycles(surface)]
    _default_vs_fine_reads(surface, _measuring_circles(surface) + cycles)


def _one_read_vs_own_steps(surface, M):
    # alpha_values reads orders 1..M from one block on the step of order M;
    # each order against a 2048-node read on its own step's radius, for
    # every cap, on its own and the foreign measuring circles
    steps = [range(lo, min(hi, M) + 1) for lo, hi in ((1, 6), (7, 12), (13, 24), (25, 48))
             if lo <= M]
    for k in range(surface.n_caps):
        for pts in _measuring_circles(surface):
            got = alpha_values(surface, k, range(1, M + 1), pts)
            want = np.concatenate([
                schiffer_contour(surface, k, orders, pts, r0=contour_radius(orders[-1]), n=2048)
                for orders in steps], axis=-1)
            assert np.max(np.abs(got - want)) <= 1e-13 * np.max(np.abs(want)), k


def test_one_read_matches_each_order_on_its_own_step_sphere():
    # the caps of the sphere-multicap benchmark workload, M = 40
    caps = CapFamily([
        JoukowskiEllipseMap(0.25, scale=1.0, offset=0.0),
        AffineMap(0.5, offset=3.0 + 0.5j),
        PolynomialCapMap([0.6, 0.08, 0.02], offset=-1.2 + 2.8j),
    ])
    _one_read_vs_own_steps(SurfaceSpec.sphere(caps), 40)


def test_one_read_matches_each_order_on_its_own_step_torus():
    config = parse_config(os.path.join(ROOT, "configs", "torus_two_caps.cfg"))
    assert config.M == 10
    _one_read_vs_own_steps(config.surface, config.M)


def test_multi_order_scalar_point_and_bad_orders():
    surface = sphere_one_cap()
    vals = schiffer_contour(surface, 0, [1, 2, 3], 2.0)
    assert vals.shape == (3,)
    assert np.max(np.abs(vals - np.array([1, 2, 3]) * 2.0 ** -np.arange(2, 5))) < 1e-12
    # orders of two radius steps read on the radius of the highest
    assert np.array_equal(schiffer_contour(surface, 0, [6, 7], 2.0),
                          schiffer_contour(surface, 0, [6, 7], 2.0, r0=contour_radius(7)))
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


BUDGETS = pytest.mark.parametrize("budget", [1, 1 << 40], ids=["one-row", "unbounded"])


def ring(center, radius, n):
    return center + radius * np.exp(2j * np.pi * np.arange(n) / n)


@BUDGETS
def test_block_budget_does_not_change_contour_guard_verdicts(budget, monkeypatch):
    # the guard's gap and winding blocks go in row slices of
    # numerics.BLOCK_ENTRIES entries; every verdict and message stays. Only
    # points in the contour's bounding disk are measured, so the rings of
    # 1000 points sit just inside the contours
    sphere, torus = sphere_one_cap(), torus_two_caps()
    far = ring(0.0, 2.0, 1000)
    c0 = torus.caps[0].center
    torus_inner = ring(c0, 0.05, 1000)
    # a node of the order-1 contour (radius 0.055), moved by a lattice vector
    on_torus_contour = torus.caps[0].evaluate(ring(0.0, 0.5, 256)[3]) + 1.0 - TAU
    cases = (
        (sphere, 1, far, 0.8),
        (sphere, 1, np.append(far, ring(0.0, 0.79, 1000)), 0.8),
        (sphere, list(range(7, 13)), np.append(ring(0.0, 0.66, 1000), 12.0 / 18.0), None),
        (torus, 1, ring(c0, 0.3, 1000), None),
        (torus, 1, torus_inner + 1.0 + TAU, None),
        (torus, 1, np.append(torus_inner - TAU, on_torus_contour), None),
    )

    def verdicts():
        out = []
        for surface, m, z, r0 in cases:
            try:
                schiffer_contour(surface, 0, m, z, r0=r0)
                out.append(None)
            except ValidationError as exc:
                out.append(str(exc))
        return out

    want = verdicts()
    assert want[0] is None and want[3] is None
    assert all("inside the evaluation contour" in want[j] for j in (1, 4))
    assert all("sits on the evaluation contour" in want[j] for j in (2, 5))
    monkeypatch.setattr(numerics, "BLOCK_ENTRIES", budget)
    assert verdicts() == want


def contour_term_scale(surface, k, orders, pts, r0, n=256):
    """sum_j |K(f(zeta_j), z) w_j| for each point and order: the scale of
    the contour sum's roundoff, which r0^(1 - m) amplifies."""
    f = surface.caps[k]
    zeta = ring(0.0, r0, n)
    kern = np.abs(schiffer_kernel(surface, f.evaluate(zeta)[None, :], pts[:, None]))
    amp = np.abs(zeta[:, None] ** (1 - np.asarray(orders)[None, :]) * f.derivative(zeta)[:, None])
    return kern @ ((np.pi / n) * amp)


def area_term_scale(surface, data, pts):
    """The integral of |K(w, z)| |datum| over the caps, for each point and
    datum: the scale of the area sum's roundoff, on the first grid."""
    grid = DiskGrid(*numerics.AREA_START)
    total = 0.0
    for k in range(surface.n_caps):
        f = surface.caps[k]
        kern = np.abs(schiffer_kernel(surface, f.evaluate(grid.nodes)[None, :], pts[:, None]))
        # |conj(m zeta^(m-1)) f'(zeta)| on the datum's own cap, zero on the other
        dens = np.stack([np.abs(d.order * grid.nodes ** (d.order - 1) * f.derivative(grid.nodes))
                         * (d.cap == k) for d in data], axis=1)
        total = total + kern @ (grid.weights[:, None] * dens)
    return total


@BUDGETS
def test_block_budget_does_not_change_contour_and_area_reads(budget, monkeypatch):
    # the kernel blocks go in row slices of numerics.BLOCK_ENTRIES entries;
    # the kernel values are the same floats, and only the rounding of the
    # products with the weights may move, as a one-row slice is a
    # matrix-vector product that sums in another order. The bound is on the
    # sum of the terms' moduli, which cancellation puts above the values:
    # about sqrt(n) eps of it for n terms, 3.6e-15 for the 256-node contour
    # and 1.5e-14 for the 4608-node area grid these points stop on
    cases = (
        (sphere_two_caps(), ring(0.0, 1.0, 1100)),
        (torus_two_caps(), ring(0.3 + 0.3 * TAU, 0.2, 1100)),
    )
    orders = list(range(1, 7))
    data = [CapDatum.monomial(0, 2), CapDatum.monomial(1, 1)]
    slices = []

    def kernel(surface, w, z, out=None):
        values = schiffer_kernel(surface, w, z, out)
        slices.append(values.copy())
        return values

    monkeypatch.setattr(schiffer, "schiffer_kernel", kernel)

    def read(fn, *args):
        # the value, every kernel entry the read built in the order built
        # (row slices, so one flat sequence under any budget), and the
        # node count of its last kernel block
        slices.clear()
        value = fn(*args)
        return value, np.concatenate([s.ravel() for s in slices]), slices[-1].shape[-1]

    def reads(surface, pts):
        return (read(schiffer_contour, surface, 0, orders, pts),
                read(apply_schiffer, surface, data, pts[::25]))

    want = [reads(*case) for case in cases]
    monkeypatch.setattr(numerics, "BLOCK_ENTRIES", budget)
    eps = np.finfo(float).eps
    for (surface, pts), (contour, area) in zip(cases, want):
        got_contour, got_area = reads(surface, pts)
        assert np.array_equal(got_contour[1], contour[1])
        assert np.array_equal(got_area[1], area[1])
        assert (contour[2], area[2]) == (256, 4608)
        scale = contour_term_scale(surface, 0, orders, pts, contour_radius(6))
        assert np.all(np.abs(got_contour[0] - contour[0]) <= np.sqrt(contour[2]) * eps * scale)
        scale = area_term_scale(surface, data, pts[::25])
        assert np.all(np.abs(got_area[0] - area[0]) <= np.sqrt(area[2]) * eps * scale)


def test_roundoff_guard_names_order_radius_and_limit():
    surface = sphere_one_cap()
    # 0.5^-40 * eps = 2.44e-04, where 0.5 carries orders up to 25
    with pytest.raises(ValidationError, match=r"^order: must be <= 25, .* 0\.5, got 40$"):
        schiffer_contour(surface, 0, [30, 40], 2.0, r0=0.5)
    # the default radius tops out at 0.92, where order 250 is past the bound
    with pytest.raises(ValidationError, match=r"^order: must be <= 211, .* 0\.92, got 250$"):
        schiffer_contour(surface, 0, 250, 2.0)
    # the long sphere run reads order 40 at radius 48/54: figure ~ 2.5e-14
    assert abs(schiffer_contour(surface, 0, 40, 2.0) - 40 * 2.0**-41) < 1e-12


def test_the_roundoff_guard_refuses_an_order_past_the_float_range():
    # 0.92^(-100000) * eps overflows a float, and formatting it crashed the
    # guard with an OverflowError; the guard names the limit, not the figure
    message = r"^order: must be <= 211, .* 0\.92, got 100000$"
    with pytest.raises(ValidationError, match=message):
        schiffer_contour(sphere_one_cap(), 0, 100000, 2.0)
    with pytest.raises(ValidationError, match=message):
        guard_order(100000, 0.92)
    # the radius defaults to that of the order's own basis read, and a key
    # takes the place of the word order
    with pytest.raises(ValidationError) as err:
        guard_order(10**30, key="run.M")
    assert str(err.value) == ("run.M: must be <= 211, the roundoff limit of a read on the "
                              f"contour radius 0.92, got {10**30}")


@pytest.mark.parametrize("r0", [PRINCIPAL_RADIUS] + [contour_radius(e)
                                                      for e in (6, 12, 24, 48, 96)])
def test_order_limit_is_the_roundoff_guard(r0):
    # the largest order the guard lets through on r0, and the next one it
    # refuses, at the principal-part radius and every default radius
    surface = sphere_one_cap()
    top = order_limit(r0)
    schiffer_contour(surface, 0, top, 2.0, r0=r0)
    with pytest.raises(ValidationError, match=rf"^order: must be <= {top}, .* got {top + 1}$"):
        schiffer_contour(surface, 0, top + 1, 2.0, r0=r0)


def test_order_limit_of_the_principal_part_and_last_default_radius():
    assert order_limit(PRINCIPAL_RADIUS) == 14
    assert order_limit(contour_radius(10**6)) == 211
    with pytest.raises(ValidationError, match="radius"):
        order_limit(1.0)


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


# a point 0.03 outside the Joukowski cap of sphere_two_caps: the order-6
# datum there moves by 1.3e-5 from the first grid to the second and
# settles on the fourth
NEAR_JOUKOWSKI = np.array([2.5 + 0.27j])


def test_coarse_grid_self_report(monkeypatch):
    surface = sphere_two_caps()
    datum = CapDatum.monomial(1, 6)
    z = NEAR_JOUKOWSKI
    fine = apply_schiffer(surface, datum, z)
    ref = schiffer_contour(surface, 1, 6, z)
    assert np.max(np.abs(fine - ref)) < 1e-8
    monkeypatch.setattr(numerics, "AREA_REFINEMENTS", 1)
    with pytest.raises(NumericalError, match="coarse"):
        apply_schiffer(surface, datum, z)


@pytest.mark.parametrize("k", [3, -1])
def test_area_read_refuses_a_datum_on_a_cap_index_out_of_range(k):
    # cap 3 of one raised IndexError; cap -1 read the last cap (0.111)
    surface = sphere_one_cap()
    with pytest.raises(ValidationError, match=f"^cap index {k} out of range$"):
        apply_schiffer(surface, CapDatum.monomial(k, 1), 3.0)
    with pytest.raises(ValidationError, match=f"^cap index {k} out of range$"):
        apply_schiffer(surface, [CapDatum.monomial(0, 1), CapDatum.monomial(k, 2)], 3.0)


def test_stacked_area_read_matches_per_datum_reads():
    # one kernel block per (cap, grid), shared by every datum of the stack
    # still open; each datum stops on its own grid
    data = [
        CapDatum.monomial(1, 2),
        CapDatum.monomial(0, 1),
        CapDatum.monomial(0, 3),
        CapDatum.monomial(1, 1),
        CapDatum.monomial(1, 6),
    ]
    cases = (
        (sphere_two_caps(), np.array([1.4 + 1.0j, -0.9 - 0.7j, 2.5 + 0.9j, NEAR_JOUKOWSKI[0]])),
        (torus_two_caps(), np.array([0.5 + 0.1 * TAU, 0.1 + 0.55 * TAU])),
    )
    for surface, pts in cases:
        stacked = apply_schiffer(surface, data, pts)
        assert stacked.shape == (pts.size, len(data))
        for j, datum in enumerate(data):
            single = apply_schiffer(surface, datum, pts)
            scale = max(1.0, float(np.max(np.abs(single))))
            assert np.max(np.abs(stacked[:, j] - single)) <= 1e-13 * scale, j
    # a scalar point keeps only the axis over the data
    surface, pts = cases[0]
    point = apply_schiffer(surface, data, complex(pts[0]))
    assert point.shape == (len(data),)
    assert np.max(np.abs(point - apply_schiffer(surface, data, pts)[0])) < 1e-15


def test_stacked_coarse_grid_names_the_datum_that_needs_refinement(monkeypatch):
    surface = sphere_two_caps()
    z = NEAR_JOUKOWSKI
    monkeypatch.setattr(numerics, "AREA_REFINEMENTS", 1)
    # the cap-0 data are resolved after one refinement; the order-6 datum
    # on the Joukowski cap is not
    resolved = [CapDatum.monomial(0, 1), CapDatum.monomial(0, 6)]
    apply_schiffer(surface, resolved, z)
    with pytest.raises(NumericalError,
                       match=r"too coarse: refinement moved values by .* for datum 1$"):
        apply_schiffer(surface, [resolved[0], CapDatum.monomial(1, 6)], z)
    with pytest.raises(NumericalError, match=r"too coarse: refinement moved values by \S+$"):
        apply_schiffer(surface, CapDatum.monomial(1, 6), z)


def _r0_check_area_reads(surface, seed, monkeypatch):
    """The stacked area reads ``check_r0_independence`` makes on ``surface``:
    (data, points, values) per call."""
    reads = []

    def recording(surface, data, pts):
        values = apply_schiffer(surface, data, pts)
        reads.append((data, pts, values))
        return values

    with monkeypatch.context() as m:
        m.setattr(checks, "apply_schiffer", recording)
        checks.check_r0_independence(SimpleNamespace(surface=surface, seed=seed))
    return reads


def torus_affine_joukowski():
    # shaped like the torus-verify benchmark inputs
    caps = CapFamily([
        AffineMap(0.11, offset=0.39 + 0.33j),
        JoukowskiEllipseMap(0.2, scale=0.1, offset=0.924 + 0.748j),
    ], separation=0.05)
    return SurfaceSpec.torus(TAU, caps)


def _check_cases():
    """(name, surface, seed) of every config with the r0 check, and a torus
    shaped like the torus-verify inputs."""
    cases = []
    for name in ("sphere_identity", "sphere_joukowski", "torus_two_caps"):
        config = parse_config(os.path.join(ROOT, "configs", f"{name}.cfg"))
        cases.append((name, config.surface, config.seed))
    return cases + [("affine_joukowski_torus", torus_affine_joukowski(), 5)]


def test_measured_area_read_matches_the_old_fixed_grid(monkeypatch):
    # the r0 check used to read on a fixed 64 x 128 grid, refined to 96 x 192
    for name, surface, seed in _check_cases():
        reads = _r0_check_area_reads(surface, seed, monkeypatch)
        assert len(reads) == surface.n_caps
        for data, pts, values in reads:
            old = _apply_area(surface, data, pts, DiskGrid(96, 192))
            scale = max(1.0, float(np.max(np.abs(old))))
            assert np.max(np.abs(values - old)) <= 1e-13 * scale, name


def test_area_grid_stops_by_measurement(monkeypatch):
    visited = {}
    for name, surface, seed in _check_cases():
        grids = visited[name] = []

        def recording(surface, data, zz, grid, grids=grids):
            grids.append((grid.n_radial, grid.n_angular))
            return _apply_area(surface, data, zz, grid)

        monkeypatch.setattr(schiffer, "_apply_area", recording)
        _r0_check_area_reads(surface, seed, monkeypatch)
        assert grids[0] == numerics.AREA_START == (32, 64), name
    # every torus cap settles after one 1.5x refinement; the large
    # Joukowski cap of the sphere goes on past the identity cap
    for name in ("torus_two_caps", "affine_joukowski_torus"):
        assert visited[name] == [(32, 64), (48, 96)] * 2, name
    assert max(visited["sphere_identity"]) == (72, 144)
    assert max(visited["sphere_joukowski"]) > (72, 144)
