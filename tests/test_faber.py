import tracemalloc
from pathlib import Path
from types import SimpleNamespace

import numpy as np
import pytest

from faberforms.checks import check_pole_structure
from faberforms.config import parse_config
from faberforms.conformal import (
    AffineMap,
    CapFamily,
    JoukowskiEllipseMap,
    PolynomialCapMap,
)
from faberforms import faber
from faberforms.faber import (
    EXPANSION_RADIUS,
    PRINCIPAL_RADIUS,
    LaurentTail,
    alpha_values,
    faber_form,
    faber_polynomial,
    principal_part,
)
from faberforms.numerics import (
    NumericalError,
    ValidationError,
    laurent_from_samples,
)
from faberforms.schiffer import contour_nodes, contour_radius, order_limit, schiffer_contour
from faberforms.surface import SurfaceSpec, boundary_cycle

ROOT = Path(__file__).resolve().parents[1]
TAU = 0.3 + 1.1j


def one_cap_sphere(cap):
    return SurfaceSpec.sphere(CapFamily([cap]), w0=4.0 + 3.0j)


def torus_one_cap():
    return SurfaceSpec.torus(TAU, CapFamily([AffineMap(0.12, 0.5 + 0.5 * TAU)]))


def elements(surface, k, orders):
    return [faber_form(surface, k, m) for m in orders]


def test_laurent_tail_evaluation_and_derivative():
    tail = LaurentTail(1.0, [2.0, 0.0, -3.0j])
    z = np.array([3.0, 1.0 + 2.0j])
    u = 1.0 / (z - 1.0)
    want = 2.0 * u - 3.0j * u**3
    assert np.max(np.abs(tail(z) - want)) < 1e-14
    dt = tail.derivative()
    want_d = -2.0 * u**2 + 9.0j * u**4
    assert np.max(np.abs(dt(z) - want_d)) < 1e-14
    assert dt.order == 4


def test_alpha_values_reads_every_order_from_one_block(monkeypatch):
    surface = one_cap_sphere(JoukowskiEllipseMap(0.25, scale=0.5, offset=0.0))
    pts = np.array([1.5 + 0.2j, -0.3 - 1.4j, 2.0j])
    calls = []
    contour = faber.schiffer_contour

    def counting(surface, k, m, z, **kwargs):
        calls.append((list(m), kwargs))
        return contour(surface, k, m, z, **kwargs)

    monkeypatch.setattr(faber, "schiffer_contour", counting)
    vals = alpha_values(surface, 0, range(1, 31), pts)
    # one read, on the radius step of the highest order
    assert calls == [(list(range(1, 31)), {"r0": contour_radius(30), "n": 512})]
    monkeypatch.undo()
    # against fine reads, each order on its own radius
    want = np.stack([schiffer_contour(surface, 0, m, pts, r0=contour_radius(m), n=2048)
                     for m in range(1, 31)], axis=-1)
    assert vals.shape == (3, 30)
    assert np.max(np.abs(vals - want)) < 1e-13 * np.max(np.abs(want))


def test_alpha_values_without_orders_has_an_empty_order_axis():
    surface = one_cap_sphere(JoukowskiEllipseMap(0.25, scale=0.5, offset=0.0))
    pts = np.array([[1.5 + 0.2j, 2.0j]])
    assert alpha_values(surface, 0, [], pts).shape == (1, 2, 0)
    assert alpha_values(surface, 0, range(1, 1), 2.0j).shape == (0,)


def test_alpha_values_write_into_a_strided_view_bit_for_bit():
    # the pairing stacks every cap's reads along one axis; a read written
    # into its cap's columns is bit for bit the array a read returns, across
    # kernel slices (order 30 reads 512 nodes: 64 points a slice)
    surface = SurfaceSpec.sphere(CapFamily([JoukowskiEllipseMap(0.25, scale=0.5),
                                            AffineMap(0.5, offset=3.0 + 0.5j)]))
    pts = 5.0 * np.exp(2j * np.pi * np.arange(150) / 150) + 1.5 + 0.25j
    stack = np.empty((pts.size, 30, 2), dtype=complex)
    for k in range(2):
        view = stack[:, :, k]
        assert alpha_values(surface, k, range(1, 31), pts, out=view) is view
        assert np.array_equal(view, alpha_values(surface, k, range(1, 31), pts))
    # points along two axes into a strided view: the copy a reshape makes
    # is written back
    grid = np.empty((2, 75, 3, 30), dtype=complex)
    got = alpha_values(surface, 1, range(1, 31), pts.reshape(2, 75), out=grid[:, :, 1])
    assert np.array_equal(got, stack[:, :, 1].reshape(2, 75, 30))
    assert np.array_equal(grid[:, :, 1], got)
    empty = np.empty((pts.size, 0), dtype=complex)
    assert alpha_values(surface, 0, [], pts, out=empty) is empty
    with pytest.raises(ValidationError, match=r"^out has shape \(150, 29\); the read gives "
                                              r"\(150, 30\)$"):
        alpha_values(surface, 0, range(1, 31), pts, out=stack[:, 1:, 0])


def test_alpha_values_keeps_its_kernel_blocks_small():
    # M = 40 reaches the 512-node radius step, whose kernel block on a
    # 512-node circle is 4.2 MB whole; it is built in row slices of
    # numerics.BLOCK_ENTRIES entries
    surface = SurfaceSpec.sphere(CapFamily([
        JoukowskiEllipseMap(0.25),
        AffineMap(0.5, offset=3.0 + 0.5j),
        PolynomialCapMap([0.6, 0.08, 0.02], offset=-1.2 + 2.8j),
    ]))
    nodes = boundary_cycle(surface, 0).nodes
    tracemalloc.start()
    try:
        vals = alpha_values(surface, 0, range(1, 41), nodes)
        peak = tracemalloc.get_traced_memory()[1]
    finally:
        tracemalloc.stop()
    assert vals.shape == (512, 40)
    assert peak < 3e6


def test_torus_alpha_values_keep_one_storage_and_one_theta_block():
    # a torus read of torus_two_caps' first cap on both caps' 512-node
    # radius-1 circles: the kernel's slice storage (0.52 MB), the 1024 x 10
    # output (0.16 MB) and one theta block's rows (0.26 MB), with the
    # block's reduced points, make the 0.98 MB traced (the stepped sin/cos
    # series: 1.20 MB; 4096-point blocks of one array per sine, cosine and
    # sum: 1.61 MB); the margin covers a line tracer's 0.08 MB
    surface = parse_config(str(ROOT / "configs" / "torus_two_caps.cfg")).surface
    pts = np.concatenate([boundary_cycle(surface, k).nodes for k in range(surface.n_caps)])
    tracemalloc.start()
    try:
        vals = alpha_values(surface, 0, range(1, 11), pts)
        peak = tracemalloc.get_traced_memory()[1]
    finally:
        tracemalloc.stop()
    assert vals.shape == (1024, 10)
    assert peak < 1.35e6


def test_node_count_follows_the_radius(monkeypatch):
    surface = one_cap_sphere(JoukowskiEllipseMap(0.25, scale=0.5, offset=0.0))
    pts = np.array([1.5 + 0.2j, 2.0j])
    calls = []
    contour = faber.schiffer_contour

    def counting(surface, k, m, z, **kwargs):
        calls.append((kwargs["r0"], kwargs["n"]))
        return contour(surface, k, m, z, **kwargs)

    monkeypatch.setattr(faber, "schiffer_contour", counting)
    for m in (3, 9, 20, 30, 60):
        faber_form(surface, 0, m).form(pts)
    # every order of a multi-order read takes the highest order's step
    alpha_values(surface, 0, range(1, 97), pts)
    alpha_values(surface, 0, [2, 5, 20], pts)
    radii = [contour_radius(m) for m in (3, 9, 20, 30, 60)]
    assert calls == list(zip(radii, [64, 128, 256, 512, 1024])) + [(radii[-1], 1024),
                                                                   (radii[2], 256)]


@pytest.mark.parametrize("m", [1, 25, 60])
def test_faber_form_is_the_one_order_alpha_read(m):
    # bit for bit: the same contour read, radius, node count and weights
    surface = one_cap_sphere(JoukowskiEllipseMap(0.25, scale=0.5, offset=0.0))
    pts = np.array([1.5 + 0.2j, -0.3 - 1.4j, 2.0j])
    form = faber_form(surface, 0, m).form
    got = form(pts)
    assert np.array_equal(got, alpha_values(surface, 0, [m], pts)[..., 0])
    r0 = contour_radius(m)
    assert np.array_equal(got, schiffer_contour(surface, 0, m, pts, r0=r0, n=contour_nodes(r0)))
    point = form(pts[2])
    assert type(point) is complex
    assert point == schiffer_contour(surface, 0, m, pts[2], r0=r0, n=contour_nodes(r0))


def test_principal_part_of_many_orders_matches_single_element_reads(monkeypatch):
    # the pole-structure check's reads, orders 1..6 of both torus caps;
    # orders 5 and 6 fit deeper tails than the others
    surface = SurfaceSpec.torus(TAU, CapFamily([
        AffineMap(0.11, 0.39 + 0.33j),
        JoukowskiEllipseMap(0.2, scale=0.1, offset=0.8 + 0.7j),
    ]))
    orders = range(1, 7)
    calls = []
    contour = faber.schiffer_contour

    def counting(surface, k, m, z, **kwargs):
        calls.append(k)
        return contour(surface, k, m, z, **kwargs)

    monkeypatch.setattr(faber, "schiffer_contour", counting)
    parts = [principal_part(surface, elements(surface, k, orders)) for k in (0, 1)]
    assert calls == [0, 1]
    res = check_pole_structure(SimpleNamespace(surface=surface, pole_orders=6))
    assert calls == [0, 1, 0, 1]
    monkeypatch.undo()
    worst = 0.0
    for k in (0, 1):
        for m, (tail, head) in zip(orders, parts[k]):
            want, want_head = principal_part(surface, faber_form(surface, k, m))
            assert tail.order == want.order == max(8, m + 4)
            got, ref = np.array(tail.coefficients), np.array(want.coefficients)
            scale = max(1.0, float(np.max(np.abs(ref))))
            assert np.max(np.abs(got - ref)) <= 1e-13 * scale
            # head coefficient j is a Fourier mode divided by rho^j, read from
            # the same samples as the tail, so it carries roundoff of the
            # tail's scale (order m's coefficient m); worst measured 8.1e-14,
            # 1.4e-14 of the scale (cap 1, m = 6)
            gap = np.abs(head.coefficients - want_head.coefficients)
            assert np.max(gap * 0.5 ** np.arange(gap.size)) <= 1e-13 * scale
            worst = max(worst, abs(ref[m] - m), float(np.max(np.abs(ref[m + 1:]))))
    assert res.passed and res.threshold == 1e-7
    assert abs(res.value - worst) <= 1e-13


@pytest.mark.parametrize("genus", [1, 0])
def test_principal_part_of_many_orders_matches_a_fine_read(genus):
    # the default sizes (a 128-node contour read on a 128-sample circle)
    # against a 1024-node read on a 4096-sample circle, built by hand, on
    # the two torus caps of the benchmark's check path and one sphere cap
    # of each kind
    if genus == 1:
        surface = SurfaceSpec.torus(TAU, CapFamily([
            AffineMap(0.11, 0.39 + 0.33j),
            JoukowskiEllipseMap(0.2, scale=0.1, offset=0.924 + 0.748j),
        ]))
    else:
        surface = SurfaceSpec.sphere(CapFamily([
            JoukowskiEllipseMap(0.25, scale=1.0),
            AffineMap(0.5, 3.0 + 0.5j),
            PolynomialCapMap([0.6, 0.08, 0.02], offset=-1.2 + 2.8j),
        ]))
    rho, n, orders = 0.5, 4096, range(1, 13)
    zeta = rho * np.exp(2j * np.pi * np.arange(n) / n)
    for k in range(surface.n_caps):
        f = surface.caps[k]
        vals = schiffer_contour(surface, k, list(orders), f.evaluate(zeta), r0=0.6 * rho,
                                n=1024) * f.derivative(zeta)[:, None]
        parts = principal_part(surface, elements(surface, k, orders))
        for i, (m, (tail, _head)) in enumerate(zip(orders, parts)):
            J = tail.order
            ref = laurent_from_samples(vals[:, i], rho, np.arange(-1, -J - 1, -1))
            gap = np.abs(np.array(tail.coefficients) - ref)
            # within the roundoff figure schiffer_contour guards at r0 = 0.6 rho
            assert np.max(gap) <= 10 * (0.6 * rho) ** (-m) * np.finfo(float).eps
            # the pole-structure check reads slot m and deeper
            assert np.max(gap[m:]) <= 1e-13


def test_the_expansion_circle_has_more_samples_than_twice_the_deepest_tail(monkeypatch):
    # the orders the guard admits on PRINCIPAL_RADIUS, 1..14, fit tails of
    # depth J <= 18 from 2 contour_nodes(EXPANSION_RADIUS) = 128 samples, so
    # the 2J + 1 Laurent modes of every fit stay below the sample count
    surface = one_cap_sphere(AffineMap(1.0))
    top = order_limit(PRINCIPAL_RADIUS)
    sizes = []
    contour = faber.schiffer_contour

    def counting(surface, k, m, z, **kwargs):
        sizes.append(np.size(z))
        return contour(surface, k, m, z, **kwargs)

    monkeypatch.setattr(faber, "schiffer_contour", counting)
    parts = principal_part(surface, elements(surface, 0, range(1, top + 1)))
    assert sizes == [2 * contour_nodes(EXPANSION_RADIUS)] == [128]
    assert 2 * max(tail.order for tail, _head in parts) + 1 < sizes[0]
    with pytest.raises(ValidationError, match=rf"^order: must be <= {top}, "):
        principal_part(surface, elements(surface, 0, [top + 1]))


def test_unit_cap_form_value():
    surface = one_cap_sphere(AffineMap(1.0))
    el = faber_form(surface, 0, 1)
    assert el.cap == 0 and el.order == 1
    assert el.form.poles == ((0.0, 2),)
    assert abs(el.form(2.0) - 0.25) < 1e-10


def test_pole_structure_all_cap_kinds():
    # leading pullback coefficient is m, nothing deeper, for every
    # built-in cap shape and a torus cap
    cap_kinds = [
        AffineMap(1.0),
        AffineMap(0.5, 1.0 + 0.5j),
        JoukowskiEllipseMap(0.25, scale=0.5, offset=-1.0),
        PolynomialCapMap([0.6, 0.0, 0.12, 0.04j], offset=2.0),
    ]
    surfaces = [one_cap_sphere(c) for c in cap_kinds] + [torus_one_cap()]
    for surface in surfaces:
        for m in range(1, 13):
            el = faber_form(surface, 0, m)
            tail, head = principal_part(surface, el)
            got = tail.coefficients[m]  # index m is the zeta^-(m+1) slot
            assert abs(got - m) < 1e-7, (surface.genus, m, got)
            deeper = np.abs(tail.coefficients[m + 1:])
            assert deeper.size >= 3
            assert np.max(deeper) < 1e-7
            assert np.all(np.isfinite(np.abs(head.coefficients)))


def test_scaled_cap_tail_is_pure():
    # f = 0.5 zeta: pullback is exactly m / zeta^(m+1), so even the
    # shallow tail entries vanish
    surface = one_cap_sphere(AffineMap(0.5))
    for m in (1, 3, 5):
        tail, _ = principal_part(surface, faber_form(surface, 0, m))
        assert abs(tail.coefficients[m] - m) < 1e-9
        others = [c for j, c in enumerate(tail.coefficients) if j != m]
        assert max(abs(c) for c in others) < 1e-9


def test_torus_order_one_has_zero_residue():
    # sole pole on a closed surface: residue must vanish
    surface = torus_one_cap()
    tail, _ = principal_part(surface, faber_form(surface, 0, 1))
    assert abs(tail.coefficients[0]) < 1e-8


def test_holomorphic_across_other_caps():
    caps = CapFamily([AffineMap(0.4), JoukowskiEllipseMap(0.25, scale=0.3, offset=2.5)])
    surface = SurfaceSpec.sphere(caps, w0=1.0 - 2.0j)
    el = faber_form(surface, 0, 3)
    other = caps[1].center
    assert abs(other - 2.5) < 1e-12
    w = other + 0.15 * np.exp(2j * np.pi * np.arange(512) / 512)
    tails = laurent_from_samples(el.form(w), 0.15, np.arange(-6, 0))
    assert np.max(np.abs(tails)) < 1e-8


def test_faber_polynomial_scaled_cap_oracle():
    f = AffineMap(0.7)
    for m in range(1, 7):
        tail = faber_polynomial(f, m)
        coeffs = np.array(tail.coefficients)
        assert abs(coeffs[m - 1] + 0.7**m) < 1e-10
        rest = np.delete(coeffs, m - 1)
        assert rest.size == 0 or np.max(np.abs(rest)) < 1e-10


def test_faber_polynomial_vanishes_at_infinity():
    # no constant term: values decay like 1/|z|
    tail = faber_polynomial(JoukowskiEllipseMap(0.25), 4)
    assert tail.order == 4
    assert abs(tail(1e6)) < 1e-5
    assert abs(tail(1e9)) < 1e-8


def test_derivative_identity():
    # d/dz Phi^m equals the order-m basis form, tying the polynomial
    # construction to the operator construction
    f = JoukowskiEllipseMap(0.25, scale=0.5, offset=0.0)
    surface = one_cap_sphere(f)
    rng = np.random.default_rng(5)
    pts = []
    while len(pts) < 20:
        z = complex(rng.uniform(-4, 4), rng.uniform(-4, 4))
        if surface.caps.distance_to_caps(z) > 0.4:
            pts.append(z)
    pts = np.array(pts)
    for m in range(1, 9):
        dphi = faber_polynomial(f, m).derivative()
        alpha = faber_form(surface, 0, m)
        assert np.max(np.abs(dphi(pts) - alpha.form(pts))) < 1e-8


def test_translation_invariance_of_forms():
    caps = CapFamily([AffineMap(0.4), JoukowskiEllipseMap(0.25, scale=0.3, offset=2.5)])
    surface = SurfaceSpec.sphere(caps, w0=1.0 - 2.0j)
    t = 0.7 - 0.3j
    moved = surface.translated(t)
    rng = np.random.default_rng(9)
    pts = []
    while len(pts) < 20:
        z = complex(rng.uniform(-3, 5), rng.uniform(-4, 4))
        if surface.caps.distance_to_caps(z) > 0.35:
            pts.append(z)
    pts = np.array(pts)
    for (k, m) in ((0, 1), (1, 2), (1, 5)):
        a = faber_form(surface, k, m).form(pts)
        b = faber_form(moved, k, m).form(pts + t)
        assert np.max(np.abs(a - b)) < 1e-8


def test_principal_part_fails_a_form_off_its_pole_structure(monkeypatch):
    # a basis form scaled by 1.01 leads its pullback with 1.01 m, not m
    surface = one_cap_sphere(AffineMap(1.0))
    monkeypatch.setattr(faber, "schiffer_contour",
                        lambda *a, **kw: 1.01 * schiffer_contour(*a, **kw))
    with pytest.raises(NumericalError, match=r"^pole structure violated at order 2: "
                                             r"\|c\[-\(m\+1\)\] - m\| = 2\.000e-02, "
                                             r"deeper mass \d\.\d{3}e-1\d$"):
        principal_part(surface, elements(surface, 0, [2, 3]))


def test_principal_part_refuses_a_pullback_that_is_not_finite(monkeypatch):
    surface = one_cap_sphere(AffineMap(1.0))
    monkeypatch.setattr(faber, "schiffer_contour",
                        lambda *a, **kw: np.nan * schiffer_contour(*a, **kw))
    with pytest.raises(NumericalError, match="^pullback not finite on the expansion circle$"):
        principal_part(surface, faber_form(surface, 0, 1))


def test_principal_part_refuses_a_sequence_that_spans_caps(monkeypatch):
    # refused by name before any read
    surface = SurfaceSpec.sphere(CapFamily([AffineMap(1.0), AffineMap(0.5, 3.0)]), w0=4.0 + 3.0j)
    calls = []
    monkeypatch.setattr(faber, "schiffer_contour", lambda *a, **kw: calls.append(a))
    mixed = [faber_form(surface, 1, 2), faber_form(surface, 0, 1), faber_form(surface, 1, 3)]
    with pytest.raises(ValidationError, match=r"^principal_part: one read takes the elements "
                                              r"of one cap, got caps \[0, 1\]$"):
        principal_part(surface, mixed)
    assert calls == []


def test_principal_part_of_no_elements_reads_nothing(monkeypatch):
    surface = SurfaceSpec.sphere(CapFamily([AffineMap(1.0), AffineMap(0.5, 3.0)]), w0=4.0 + 3.0j)
    calls = []
    monkeypatch.setattr(faber, "schiffer_contour", lambda *a, **kw: calls.append(a))
    assert principal_part(surface, []) == []
    assert calls == []


@pytest.mark.parametrize("k", [-1, 1])
def test_faber_form_refuses_a_cap_index_out_of_range(k):
    with pytest.raises(ValidationError, match=f"^cap index {k} out of range$"):
        faber_form(one_cap_sphere(AffineMap(1.0)), k, 1)


def limit(top, r0, m):
    # schiffer.guard_order's message past the roundoff limit, whose full
    # text tests/test_preconditions.py holds at each of these entry points
    return rf"^order: must be <= {top}, .* radius {r0}, got {m}$"


def test_order_guards():
    surface = one_cap_sphere(AffineMap(1.0))
    with pytest.raises(ValidationError, match="^order: must be >= 1, got 0$"):
        faber_form(surface, 0, 0)
    # the roundoff limit of the read's radius is the only ceiling: orders
    # from 49 up read on 0.92, which carries 211
    assert faber_form(surface, 0, 211).order == 211
    with pytest.raises(ValidationError, match=limit(211, 0.92, 212)):
        faber_form(surface, 0, 212)
    # the principal-part read sits on 0.3, which carries 14
    with pytest.raises(ValidationError, match=limit(14, 0.3, 15)):
        principal_part(surface, faber_form(surface, 0, 15))
    # the polynomial reads on its own radius: 0.5 carries 25
    with pytest.raises(ValidationError, match=limit(25, 0.5, 26)):
        faber_polynomial(AffineMap(1.0), 26, r0=0.5)
    with pytest.raises(ValidationError, match=limit(211, 0.92, 212)):
        faber_polynomial(AffineMap(1.0), 212)
    with pytest.raises(ValidationError, match="^order: must be >= 1, got 0$"):
        faber_polynomial(AffineMap(1.0), 0)


def test_tail_fit_self_report():
    # an undersampled contour corrupts the tail read; the residual check
    # must catch it rather than return plausible-looking coefficients
    f = PolynomialCapMap([0.6, 0.0, 0.12, 0.04j], offset=2.0)
    tail = faber_polynomial(f, 5)
    assert tail.order == 5
    with pytest.raises(NumericalError, match="residual"):
        faber_polynomial(f, 12, n=8)
