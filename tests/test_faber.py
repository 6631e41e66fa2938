from types import SimpleNamespace

import numpy as np
import pytest

from faberforms.checks import check_pole_structure
from faberforms.conformal import (
    AffineMap,
    CapFamily,
    JoukowskiEllipseMap,
    PolynomialCapMap,
)
from faberforms import faber
from faberforms.faber import (
    FaberBasisElement,
    LaurentTail,
    alpha_values,
    beta_element,
    faber_form,
    faber_polynomial,
    gamma_element,
    principal_part,
    principal_parts,
)
from faberforms.numerics import NumericalError, ValidationError, laurent_coefficients
from faberforms.surface import SurfaceSpec

TAU = 0.3 + 1.1j


def one_cap_sphere(cap):
    return SurfaceSpec.sphere(CapFamily([cap]), w0=4.0 + 3.0j)


def torus_one_cap():
    return SurfaceSpec.torus(TAU, CapFamily([AffineMap(0.12, 0.5 + 0.5 * TAU)]))


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


def test_alpha_values_one_read_per_radius_step(monkeypatch):
    surface = one_cap_sphere(JoukowskiEllipseMap(0.25, scale=0.5, offset=0.0))
    pts = np.array([1.5 + 0.2j, -0.3 - 1.4j, 2.0j])
    calls = []
    contour = faber.schiffer_contour

    def counting(surface, k, m, z, **kwargs):
        calls.append(list(m))
        return contour(surface, k, m, z, **kwargs)

    monkeypatch.setattr(faber, "schiffer_contour", counting)
    vals = alpha_values(surface, 0, range(1, 31), pts)
    assert calls == [list(range(1, 7)), list(range(7, 13)),
                     list(range(13, 25)), list(range(25, 31))]
    monkeypatch.undo()
    want = np.stack([faber_form(surface, 0, m, max_order=30).form(pts)
                     for m in range(1, 31)], axis=-1)
    assert vals.shape == (3, 30)
    assert np.max(np.abs(vals - want)) < 1e-13 * np.max(np.abs(want))


def test_node_count_follows_the_radius_unless_given(monkeypatch):
    surface = one_cap_sphere(JoukowskiEllipseMap(0.25, scale=0.5, offset=0.0))
    # the record holds the count the read uses
    assert faber_form(surface, 0, 1).quadrature == (("r0", 0.5), ("nodes", 64))
    assert dict(faber_form(surface, 0, 9).quadrature)["nodes"] == 128
    assert dict(faber_form(surface, 0, 20).quadrature)["nodes"] == 256
    assert faber_form(surface, 0, 2, r0=0.8).quadrature == (("r0", 0.8), ("nodes", 256))
    # an explicit count wins
    assert faber_form(surface, 0, 1, n=256).quadrature == (("r0", 0.5), ("nodes", 256))
    pts = np.array([1.5 + 0.2j, 2.0j])
    calls = []
    contour = faber.schiffer_contour

    def counting(surface, k, m, z, **kwargs):
        calls.append(kwargs["n"])
        return contour(surface, k, m, z, **kwargs)

    monkeypatch.setattr(faber, "schiffer_contour", counting)
    faber_form(surface, 0, 3).form(pts)
    faber_form(surface, 0, 3, n=96).form(pts)
    alpha_values(surface, 0, range(1, 20), pts)
    alpha_values(surface, 0, range(1, 20), pts, n=512)
    assert calls == [64, 96, 64, 128, 256, 512, 512, 512]


def test_principal_parts_match_single_element_reads(monkeypatch):
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
    parts = [principal_parts(surface, k, orders, n=1024, contour_nodes=384) for k in (0, 1)]
    assert calls == [0, 1]
    res = check_pole_structure(SimpleNamespace(surface=surface, pole_orders=6))
    assert calls == [0, 1, 0, 1]
    monkeypatch.undo()
    worst = 0.0
    for k in (0, 1):
        for m, (tail, head) in zip(orders, parts[k]):
            want, want_head = principal_part(surface, faber_form(surface, k, m),
                                             n=1024, contour_nodes=384)
            assert tail.order == want.order == max(8, m + 4)
            got, ref = np.array(tail.coefficients), np.array(want.coefficients)
            assert np.max(np.abs(got - ref)) <= 1e-13 * max(1.0, float(np.max(np.abs(ref))))
            # head coefficient j is a Fourier mode divided by rho^j
            gap = np.abs(head.coefficients - want_head.coefficients)
            assert np.max(gap * 0.5 ** np.arange(gap.size)) <= 1e-13
            worst = max(worst, abs(ref[m] - m), float(np.max(np.abs(ref[m + 1:]))))
    assert res.passed and res.threshold == 1e-7
    assert abs(res.value - worst) <= 1e-13
    with pytest.raises(ValidationError, match="cannot reach the pole order 10"):
        principal_parts(surface, 0, [1, 9], order=8)


def test_unit_cap_form_value():
    surface = one_cap_sphere(AffineMap(1.0))
    el = faber_form(surface, 0, 1)
    assert el.tag == "alpha" and el.cap == 0 and el.order == 1
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
    tails = laurent_coefficients(el.form, center=other, radius=0.15,
                                 orders=np.arange(-6, 0))
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


def test_beta_and_gamma_elements():
    caps = CapFamily([AffineMap(0.4), JoukowskiEllipseMap(0.25, scale=0.3, offset=2.5)])
    surface = SurfaceSpec.sphere(caps, w0=1.0 - 2.0j)
    b = beta_element(surface, 0)
    assert b.tag == "beta" and b.cap == 0
    assert {loc for loc, _ in b.form.poles} == {0.0, 2.5}
    with pytest.raises(ValidationError):
        gamma_element(surface)
    g = gamma_element(torus_one_cap())
    assert g.tag == "gamma" and g.form.poles == ()
    assert abs(g.form(0.3 + 0.2j) - 1.0) < 1e-15


def test_order_guards():
    surface = one_cap_sphere(AffineMap(1.0))
    with pytest.raises(ValidationError, match="order"):
        faber_form(surface, 0, 0)
    with pytest.raises(ValidationError, match="ceiling"):
        faber_form(surface, 0, 25)
    el = faber_form(surface, 0, 25, max_order=40)
    assert el.order == 25
    with pytest.raises(ValidationError, match="alpha"):
        principal_part(surface, beta_element(SurfaceSpec.sphere(
            CapFamily([AffineMap(0.4), AffineMap(0.4, 2.0)]), w0=1.0 - 2.0j), 0))
    with pytest.raises(ValidationError, match="reach"):
        principal_part(surface, faber_form(surface, 0, 9), order=8)
    with pytest.raises(ValidationError, match="ceiling"):
        faber_polynomial(AffineMap(1.0), 30)


def test_tail_fit_self_report():
    # an undersampled contour corrupts the tail read; the residual check
    # must catch it rather than return plausible-looking coefficients
    f = PolynomialCapMap([0.6, 0.0, 0.12, 0.04j], offset=2.0)
    tail = faber_polynomial(f, 5)
    assert tail.order == 5
    with pytest.raises(NumericalError, match="residual"):
        faber_polynomial(f, 12, n=8)
