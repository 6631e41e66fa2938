import re
import sys
import tracemalloc
from pathlib import Path

import numpy as np
import pytest

from faberforms.config import parse_config
from faberforms.conformal import AffineMap, CapFamily, JoukowskiEllipseMap, PolynomialCapMap
from faberforms.numerics import NumericalError, ValidationError, slice_views
from faberforms import geometry as geometry_module
from faberforms import theta
from faberforms.geometry import CELL_MARGIN
from faberforms.surface import (
    Cycle,
    OneForm,
    SurfaceSpec,
    beta_form,
    boundary_cycle,
    gamma_basis,
    green,
    lattice_cycles,
    period,
    schiffer_kernel,
)

ROOT = Path(__file__).resolve().parents[1]
TAU = 0.3 + 1.1j
TWO_PI = 2.0 * np.pi


def sphere_two_caps():
    caps = CapFamily([AffineMap(0.4), AffineMap(0.4, offset=2.0)])
    return SurfaceSpec.sphere(caps, w0=1.0 + 2.0j)


def torus_two_caps():
    caps = CapFamily(
        [
            AffineMap(0.11, offset=0.3 + 0.3 * TAU),
            AffineMap(0.11, offset=0.75 + 0.7 * TAU),
        ],
    )
    return SurfaceSpec.torus(TAU, caps)


def fd_mixed_wirtinger(gfun, w, z, h=2e-3):
    # d2/dw dz of a real-valued g via centered differences of the four
    # real partials; dw = (dx - i dy)/2 acting on w, same for z
    def g(a, b):
        return gfun(a, b)

    gxx = (g(w + h, z + h) - g(w + h, z - h) - g(w - h, z + h) + g(w - h, z - h)) / (4 * h * h)
    gyy = (
        g(w + 1j * h, z + 1j * h)
        - g(w + 1j * h, z - 1j * h)
        - g(w - 1j * h, z + 1j * h)
        + g(w - 1j * h, z - 1j * h)
    ) / (4 * h * h)
    gxy = (
        g(w + h, z + 1j * h) - g(w + h, z - 1j * h) - g(w - h, z + 1j * h) + g(w - h, z - 1j * h)
    ) / (4 * h * h)
    gyx = (
        g(w + 1j * h, z + h) - g(w + 1j * h, z - h) - g(w - 1j * h, z + h) + g(w - 1j * h, z - h)
    ) / (4 * h * h)
    return 0.25 * ((gxx - gyy) - 1j * (gxy + gyx))


def test_sphere_green_closed_form():
    s = sphere_two_caps()
    w, z = 0.9 + 0.7j, 1.3 - 0.2j
    expect = np.log(abs(z - s.w0)) - np.log(abs(w - z))
    assert green(s, w, z) == pytest.approx(expect, abs=1e-14)


def test_sphere_green_finite_q():
    s = sphere_two_caps()
    w, z, q = 0.9 + 0.7j, 1.3 - 0.2j, 4.0 + 1.0j
    expect = np.log(abs((z - s.w0) * (w - q) / ((w - z) * (q - s.w0))))
    assert green(s, w, z, q=q) == pytest.approx(expect, abs=1e-14)


def test_green_normalization_exact():
    s = sphere_two_caps()
    assert green(s, s.w0, 1.2 + 0.4j) == 0.0
    t = torus_two_caps()
    assert green(t, t.w0, 0.52 + 0.52 * TAU) == 0.0


def test_green_coincidence_guard():
    s = sphere_two_caps()
    with pytest.raises(NumericalError, match="at its z-singularity"):
        green(s, 1.0 + 1.0j, 1.0 + 1.0j)
    t = torus_two_caps()
    with pytest.raises(NumericalError, match="at its q-singularity"):
        green(t, t.q, 0.5 + 0.5 * TAU)


@pytest.mark.parametrize("name, shift", [("z", 1), ("z", TAU), ("z", -2 + 3 * TAU),
                                         ("q", TAU), ("q", 1 - TAU)])
def test_torus_green_refuses_a_lattice_copy_of_its_singularities(name, shift):
    # the same torus point written in another cell: at z + 1 the value was
    # inf, and at q + tau a finite -36.13
    t = torus_two_caps()
    z = 0.52 + 0.52 * TAU
    w = (z if name == "z" else t.q) + shift
    message = f"Green's function evaluated at its {name}-singularity (distance below 1e-12)"
    with pytest.raises(NumericalError, match=f"^{re.escape(message)}$"):
        green(t, w, z)
    with pytest.raises(NumericalError, match=f"^{re.escape(message)}$"):
        green(t, np.array([0.5 + 0.2j, w]), z)


def test_vectorized_distance_matches_scalar_calls():
    for surface in (parse_config(str(ROOT / "configs" / "torus_two_caps.cfg")).surface,
                    parse_config(str(ROOT / "configs" / "sphere_joukowski.cfg")).surface):
        marks = (surface.w0, surface.w0 + 0.4 - 0.1j)
        w = surface.w0 + np.random.default_rng(3).normal(size=50) * (1 + 1j)
        got = surface.distance(w, marks)
        assert np.array_equal(got, [surface.distance(v, marks) for v in w])
        assert isinstance(surface.distance(w[0], marks), float)
        assert np.array_equal(surface.distance(w.reshape(5, 10), marks), got.reshape(5, 10))


def test_torus_distance_is_the_distance_between_lattice_classes():
    t = torus_two_caps()
    rng = np.random.default_rng(4)
    w = rng.uniform(0.1, 0.9, 40) + rng.uniform(0.1, 0.9, 40) * TAU
    p = 0.3 + 0.8 * TAU
    want = _reduced_distance(w, p)
    for shift in (0, 1, -TAU, 3 - 2 * TAU):
        assert np.allclose(t.distance(w + shift, [p]), want, atol=1e-12)
        assert np.allclose(t.distance(w, [p - shift]), want, atol=1e-12)
    assert t.distance(p + 2 - TAU, [p]) < 1e-12


def test_kernel_diagonal_guard():
    w = np.array([[0.2 + 0.3 * TAU, 0.5 + 0.1j], [0.6 + 0.8 * TAU, 0.1j]])
    for surface in (sphere_two_caps(), torus_two_caps()):
        # a scalar z, and an array z that meets w in one entry
        for z in (0.5 + 0.1j, w + np.array([[0.3, 0.0], [0.3, 0.3]])):
            with pytest.raises(NumericalError, match="on its diagonal \\(distance below 1e-12\\)"):
                schiffer_kernel(surface, w, z)
        assert np.all(np.isfinite(schiffer_kernel(surface, w, w + 0.05)))


@pytest.mark.parametrize("shift", [1.0, TAU, -2 + 3 * TAU])
def test_kernel_refuses_a_lattice_copy_of_its_diagonal(shift):
    # w = z + 1 read nan and w = z + tau read -1.03e32: the guard read the
    # raw difference w - z, not the difference as points of the torus
    t = torus_two_caps()
    z = 0.52 + 0.5j
    diagonal = r"^Schiffer kernel evaluated on its diagonal \(distance below 1e-12\)$"
    with pytest.raises(NumericalError, match=diagonal):
        schiffer_kernel(t, z + shift, z)
    w = np.array([[z + 0.1, z + shift], [z - 0.2j, z + 0.3]])
    with pytest.raises(NumericalError, match=diagonal):
        schiffer_kernel(t, w, z, out=np.empty(w.shape, dtype=complex))
    # off the copy the kernel is the lattice-periodic value at w - z
    near = schiffer_kernel(t, z + shift + 1e-3, z)
    assert abs(near - schiffer_kernel(t, z + 1e-3, z)) <= 1e-9 * abs(near)


def test_the_torus_kernel_guard_reads_and_keeps_the_kernel_bits():
    # the guard only reads the series' values: the kernel is the same
    # arithmetic, bit for bit, as the unguarded formula
    t = torus_two_caps()
    rng = np.random.default_rng(5)
    w = rng.uniform(-2.0, 2.0, 500) + 1j * rng.uniform(-2.0, 2.0, 500)
    z = 0.52 + 0.5j
    want = theta.log_derivative2(w - z, TAU) / np.pi + 1.0 / TAU.imag
    assert np.array_equal(schiffer_kernel(t, w, z), want)


def test_kernel_slices_in_one_buffer_are_the_fresh_values():
    # a contour read writes every kernel slice into one buffer; each slice,
    # the shorter last one too, is bit for bit a fresh kernel call and the
    # rows of the whole block
    for surface in (sphere_two_caps(), torus_two_caps()):
        w = surface.caps[0].evaluate(0.8 * np.exp(2j * np.pi * np.arange(256) / 256))
        z = surface.caps.centers[1] + 0.2 * np.exp(2j * np.pi * np.arange(300) / 300)
        whole = schiffer_kernel(surface, w[None, :], z[:, None])
        sizes = []
        for rows, (kernel,) in slice_views(z.size, w.size, complex):
            got = schiffer_kernel(surface, w[None, :], z[rows, None], out=kernel)
            assert got is kernel
            assert np.array_equal(got, schiffer_kernel(surface, w[None, :], z[rows, None]))
            assert np.array_equal(got, whole[rows])
            sizes.append(got.shape[0])
        assert sizes == [128, 128, 44]


def test_scalar_kernel_inputs_give_a_scalar():
    for surface in (sphere_two_caps(), torus_two_caps()):
        k = schiffer_kernel(surface, 0.2 + 0.3j, 0.6 + 0.5j)
        assert np.ndim(k) == 0 and isinstance(k, complex)
        assert k == schiffer_kernel(surface, np.array([0.2 + 0.3j]), np.array([0.6 + 0.5j]))[0]


def test_torus_green_doubly_periodic():
    t = torus_two_caps()
    rng = np.random.default_rng(1)
    z = 0.55 + 0.45 * TAU
    w = rng.uniform(0.1, 0.9, 25) + rng.uniform(0.1, 0.9, 25) * TAU
    base = green(t, w, z)
    assert np.max(np.abs(green(t, w + 1, z) - base)) < 1e-9
    assert np.max(np.abs(green(t, w + TAU, z) - base)) < 1e-9
    assert np.max(np.abs(green(t, w - 2 + 3 * TAU, z) - base)) < 1e-8


def _reduced_distance(pts, s, tau=TAU):
    best = np.full(np.shape(pts), np.inf)
    for dx in (-1, 0, 1):
        for dy in (-1, 0, 1):
            best = np.minimum(best, np.abs(pts - (s + dx + dy * tau)))
    return best


def test_torus_green_harmonic():
    # the 5-point Laplacian error scales like h^2 / r^4 with r the distance
    # to the nearest log singularity, so the sample needs clearance
    t = torus_two_caps()
    rng = np.random.default_rng(2)
    z = 0.55 + 0.45 * TAU
    h = 1e-3
    pts = rng.uniform(0, 1, 4000) + rng.uniform(0, 1, 4000) * TAU
    keep = (_reduced_distance(pts, z) > 0.35) & (_reduced_distance(pts, t.q) > 0.35)
    pts = pts[keep][:100]
    assert pts.size == 100
    lap = (
        green(t, pts + h, z)
        + green(t, pts - h, z)
        + green(t, pts + 1j * h, z)
        + green(t, pts - 1j * h, z)
        - 4 * green(t, pts, z)
    ) / (h * h)
    assert np.max(np.abs(lap)) < 1e-4


def test_torus_green_log_singularity_bounded():
    # G + log|w - z| stays bounded on shrinking circles around z and
    # settles to a limit at rate O(r). The rate's constant, the gradient of
    # the smooth part at z, grows as q nears z, so q is given: 0.61 from z
    t = SurfaceSpec.torus(TAU, torus_two_caps().caps, q=0.356 + 1.012j)
    z = 0.55 + 0.45 * TAU
    vals = []
    for r in (1e-2, 1e-4, 1e-6):
        w = z + r * np.exp(1j * TWO_PI * np.arange(8) / 8)
        vals.append(green(t, w, z) + np.log(np.abs(w - z)))
    assert np.max(np.abs(np.concatenate(vals))) < 10.0
    assert np.max(np.abs(vals[2] - np.mean(vals[2]))) < 1e-6
    assert np.max(np.abs(vals[1] - vals[2])) < 1e-3


def test_sphere_kernel_closed_form():
    s = sphere_two_caps()
    assert schiffer_kernel(s, 2.0, 0.0) == pytest.approx(-1.0 / (4 * np.pi), abs=1e-15)
    rng = np.random.default_rng(3)
    w = rng.standard_normal(50) + 1j * rng.standard_normal(50)
    z = rng.standard_normal(50) + 1j * rng.standard_normal(50)
    assert np.max(np.abs(schiffer_kernel(s, w, z) + 1.0 / (np.pi * (w - z) ** 2))) < 1e-12


def test_kernel_symmetric_in_swap():
    s = sphere_two_caps()
    assert schiffer_kernel(s, 2.0, 0.0) == schiffer_kernel(s, 0.0, 2.0)
    t = torus_two_caps()
    w, z = 0.2 + 0.3 * TAU, 0.6 + 0.8 * TAU
    assert schiffer_kernel(t, w, z) == pytest.approx(schiffer_kernel(t, z, w), abs=1e-13)


def test_torus_kernel_matches_fd_derivative_of_green():
    t = torus_two_caps()
    pairs = [(0.2 + 0.35 * TAU, 0.6 + 0.6 * TAU), (0.15 + 0.7 * TAU, 0.55 + 0.25 * TAU)]
    for w, z in pairs:
        want = schiffer_kernel(t, w, z)
        got = (2.0 / np.pi) * fd_mixed_wirtinger(lambda a, b: green(t, a, b), w, z)
        assert abs(got - want) < 2e-7 * max(1.0, abs(want))


def test_torus_kernel_q_independent():
    # kernels built from Green's functions with different base points must
    # coincide; the FD error cancels in the difference
    t = torus_two_caps()
    rng = np.random.default_rng(4)
    q1, q2 = t.q, 0.12 + 0.82 * TAU
    deviations = []
    for _ in range(10):
        w = rng.uniform(0.1, 0.9) + rng.uniform(0.1, 0.9) * TAU
        z = rng.uniform(0.1, 0.9) + rng.uniform(0.1, 0.9) * TAU
        if min(abs(w - z), abs(w - q1), abs(w - q2)) < 0.15:
            continue
        k1 = fd_mixed_wirtinger(lambda a, b: green(t, a, b, q=q1), w, z)
        k2 = fd_mixed_wirtinger(lambda a, b: green(t, a, b, q=q2), w, z)
        deviations.append(abs(k1 - k2))
    assert max(deviations) < 1e-9


def test_beta_residues_sphere():
    s = sphere_two_caps()
    b = beta_form(s, 0)
    assert b.poles == ((0.0, 1), (2.0, 1))
    assert period(b, boundary_cycle(s, 0)) / (2j * np.pi) == pytest.approx(1.0, abs=1e-12)
    assert period(b, boundary_cycle(s, 1)) / (2j * np.pi) == pytest.approx(-1.0, abs=1e-12)
    # a circle away from both poles sees no residue
    far = Cycle("test", 0, *_circle_rule(5.0 + 5.0j, 0.5, 256))
    assert abs(period(b, far)) < 1e-12


def test_beta_residues_torus():
    t = torus_two_caps()
    b = beta_form(t, 0)
    assert period(b, boundary_cycle(t, 0)) / (2j * np.pi) == pytest.approx(1.0, abs=1e-11)
    assert period(b, boundary_cycle(t, 1)) / (2j * np.pi) == pytest.approx(-1.0, abs=1e-11)


def test_beta_index_validation():
    s = sphere_two_caps()
    with pytest.raises(ValidationError):
        beta_form(s, 1)  # only index 0 exists for two caps
    caps = CapFamily([AffineMap(0.4)])
    single = SurfaceSpec.sphere(caps, w0=3.0)
    with pytest.raises(ValidationError):
        beta_form(single, 0)


def _circle_rule(center, radius, n):
    zeta = np.exp(1j * TWO_PI * np.arange(n) / n)
    return center + radius * zeta, (TWO_PI * 1j / n) * radius * zeta


def test_gamma_basis_and_period_matrix():
    s = sphere_two_caps()
    assert gamma_basis(s) == []
    t = torus_two_caps()
    (g,) = gamma_basis(t)
    assert g.poles == () and g(0.3 + 0.2j) == 1.0
    # a-normalized, so the period matrix is the b-period [[tau]]
    a, b = lattice_cycles(t)
    assert (a.kind, b.kind) == ("a", "b")
    assert period(g, a) == pytest.approx(1.0, abs=1e-14)
    assert period(g, b) == pytest.approx(TAU, abs=1e-14)


def test_exact_form_has_zero_periods():
    t = torus_two_caps()
    # d(sin(2 pi w)) is exact and doubly periodic, so all periods vanish
    form = OneForm(lambda w: TWO_PI * np.cos(TWO_PI * np.asarray(w, dtype=complex)))
    assert abs(period(form, lattice_cycles(t)[0])) < 1e-12
    for k in range(2):
        assert abs(period(form, boundary_cycle(t, k))) < 1e-12


def test_the_sphere_has_no_lattice_cycles():
    s = sphere_two_caps()
    assert lattice_cycles(s) == ()
    with pytest.raises(ValidationError, match="^the sphere has no lattice cycles$"):
        s.cycle_base()


def test_period_pole_on_path_guard():
    s = sphere_two_caps()
    b = beta_form(s, 0)
    through_pole = Cycle("test", 0, *_circle_rule(1.0, 1.0, 64))
    with np.errstate(divide="ignore", invalid="ignore"), \
            pytest.raises(NumericalError, match="^form not finite on the test cycle$"):
        period(b, through_pole)


def test_surface_validation():
    caps = CapFamily([AffineMap(0.4)])
    with pytest.raises(ValidationError, match=r"^tau: Im tau must be positive, got \(0\.5-1j\)$"):
        SurfaceSpec.torus(0.5 - 1.0j, caps)
    with pytest.raises(ValidationError):
        SurfaceSpec.sphere(caps, w0=0.1)  # normalization point inside the cap
    same = r"^marked points q = 2\+0j and w0 = 2\+0j are the same point of the surface$"
    with pytest.raises(ValidationError, match=same):
        SurfaceSpec.sphere(caps, q=2.0, w0=2.0)
    # cap sticking out of the fundamental cell
    big = CapFamily([AffineMap(0.3, offset=0.05 + 0.5 * TAU)])
    with pytest.raises(ValidationError, match="cell"):
        SurfaceSpec.torus(TAU, big)
    with pytest.raises(ValidationError, match="^genus: must be 0 or 1, got 2$"):
        SurfaceSpec(2, caps)
    with pytest.raises(ValidationError, match="^tau: required for genus 1$"):
        SurfaceSpec(1, caps)
    with pytest.raises(ValidationError, match="^tau: not allowed for genus 0$"):
        SurfaceSpec(0, caps, tau=TAU)


def test_a_torus_refuses_a_marked_point_on_a_lattice_copy_of_a_cap():
    caps = torus_two_caps().caps
    copy = caps.centers[0] + 1 + TAU
    for key in ("q", "w0"):
        message = f"marked point {key} = 1.69+1.43j lies in a closed cap"
        with pytest.raises(ValidationError, match=f"^{re.escape(message)}$"):
            SurfaceSpec.torus(TAU, caps, **{key: copy})
    # a point near a copy of the cap's boundary is refused as well
    edge = caps.boundary_samples(0)[0] - 1 + 2 * TAU
    with pytest.raises(ValidationError, match=r"^marked point q = .* lies in a closed cap$"):
        SurfaceSpec.torus(TAU, caps, q=edge)


@pytest.mark.parametrize("w0", ["1.5+0.55j", "0.8+1.65j"], ids=["q-plus-1", "q-plus-tau"])
def test_a_torus_w0_on_a_lattice_copy_of_q_is_refused(w0):
    # w0 at q + 1 or q + tau is q as a point of the torus: given in the
    # torus config, it exited 3 with two checks' values not finite, naming
    # neither point
    surface = parse_config(str(ROOT / "configs" / "torus_two_caps.cfg")).surface
    message = f"marked points q = 0.5+0.55j and w0 = {w0} are the same point of the surface"
    with pytest.raises(ValidationError, match=f"^{re.escape(message)}$"):
        SurfaceSpec.torus(surface.tau, surface.caps, q=0.5 + 0.55j, w0=complex(w0))


def test_a_torus_whose_cap_covers_every_candidate_has_no_marked_point(monkeypatch):
    # the degree-13 truncation of the Schwarz-Christoffel map of the disk
    # onto a square, scaled by 0.51, fills the cell's 22 x 22 grid of
    # candidate marked points; a cell margin of 0 lets it reach the edges
    monkeypatch.setattr(geometry_module, "CELL_MARGIN", 0.0)
    square = [1, 0, 0, 0, -1 / 10, 0, 0, 0, 1 / 24, 0, 0, 0, -5 / 208]
    caps = CapFamily([PolynomialCapMap([0.51 * c for c in square], offset=0.5 + 0.5j)])
    with pytest.raises(ValidationError, match=r"^found no marked point clear of the caps$"):
        SurfaceSpec.torus(1j, caps)


def test_a_torus_q_is_the_candidate_farthest_from_every_lattice_copy_of_the_caps():
    # the caps of the torus-solve benchmark input 7: ranked by the distance
    # within the cell, q went to a grid corner 0.362 from a lattice copy of
    # a cap, where the best-cleared candidate keeps 0.416
    caps = CapFamily([AffineMap(0.11, 0.386088 + 0.344628j),
                      AffineMap(0.11, 0.949700 + 0.772491j)])
    surface = SurfaceSpec.torus(0.3 + 1.1j, caps)
    g = np.linspace(0.08, 0.92, 22)
    cand = (g[:, None] + g[None, :] * surface.tau).ravel()
    best = np.max(surface.distance_to_caps_reduced(cand[surface.in_sigma(cand)]))
    assert surface.distance_to_caps_reduced(surface.q)[0] == best > 0.4


def test_an_auto_placed_torus_w0_is_the_candidate_farthest_from_the_caps_and_q():
    # on the torus config w0 was ranked 0.950 from q by plain distance,
    # but sat 0.362 from a lattice copy of q
    surface = parse_config(str(ROOT / "configs" / "torus_two_caps.cfg")).surface
    g = np.linspace(0.08, 0.92, 22)
    cand = (g[:, None] + g[None, :] * surface.tau).ravel()
    cand = cand[surface.in_sigma(cand)]
    score = np.minimum(surface.distance_to_caps_reduced(cand), surface.distance(cand, [surface.q]))
    assert surface.w0 == cand[np.argmax(score)]
    assert surface.distance(surface.w0, [surface.q]) > np.max(score) > 0.39


def test_auto_marked_points():
    t = torus_two_caps()
    assert t.caps.which_cap(t.q) == -1
    assert t.caps.which_cap(t.w0) == -1
    assert abs(t.q - t.w0) > 1e-3
    x, y = t.geometry.cell_coordinates(t.q)
    assert 0 < x < 1 and 0 < y < 1


def test_in_sigma_reduces_torus_points():
    t = torus_two_caps()
    inside_cap = 0.3 + 0.3 * TAU + 0.01
    assert not t.in_sigma(inside_cap)
    assert not t.in_sigma(inside_cap + 3 + 2 * TAU)  # lattice copy of a cap point
    assert t.in_sigma(0.52 + 0.52 * TAU)


def test_translated_surface():
    s = sphere_two_caps()
    moved = s.translated(0.5 + 0.25j)
    assert moved.caps.centers[0] == pytest.approx(0.5 + 0.25j)
    assert moved.w0 == s.w0 + 0.5 + 0.25j
    t = torus_two_caps()
    shifted = t.translated(0.05)
    assert shifted.caps.centers[1] == pytest.approx(t.caps.centers[1] + 0.05)


LATTICE_SHIFTS = tuple((dx, dy) for dx in (-1, 0, 1) for dy in (-1, 0, 1))


def brute_force_cycle_base(surface):
    """The full search: every point of the 64 x 64 node lattice against
    every sample of every cap in the 3x3 block of lattice copies, with no
    pruning; then a base's clearance is the smaller of its row's and its
    column's minimum, and the strict-> first maximum in row-major order
    wins."""
    n = 64
    k = np.arange(n)
    nodes = (k + k[:, None] * surface.tau) / n
    x, y = surface.geometry.cell_coordinates(nodes)
    d = np.full(nodes.shape, np.inf)
    for dx, dy in LATTICE_SHIFTS:
        shifted = (x - np.floor(x) + dx) + (y - np.floor(y) + dy) * surface.tau
        for j in range(surface.n_caps):
            p = surface.caps.boundary_samples(j)
            for i in range(n):  # a lattice row at a time
                d[i] = np.minimum(d[i], np.min(np.abs(p[None, :] - shifted[i, :, None]), axis=1))
    rows, cols = d.min(axis=1), d.min(axis=0)
    best, best_d = None, -1.0
    for i in range(n):
        for j in range(n):
            if min(rows[i], cols[j]) > best_d:
                best, best_d = nodes[i, j], float(min(rows[i], cols[j]))
    return best, best_d


def test_cycle_base_matches_numpy_brute_force():
    surface = parse_config(str(ROOT / "configs" / "torus_two_caps.cfg")).surface
    base, clearance = brute_force_cycle_base(surface)
    assert surface.cycle_base() == base
    path = np.concatenate([c.nodes for c in lattice_cycles(surface)])
    assert float(np.min(surface.distance_to_caps_reduced(path))) == clearance


def pool_surface(workload, index, tmp_path):
    """The surface of a benchmark pool input."""
    sys.path.insert(0, str(ROOT / "perfbench"))
    try:
        import workloads
    finally:
        sys.path.pop(0)
    path = tmp_path / f"{workload}-{index}.cfg"
    path.write_text(workloads.make_config(workloads.WORKLOADS[workload], index))
    return parse_config(str(path)).surface


def test_cycle_base_matches_brute_force(tmp_path):
    cfg = ROOT / "configs" / "torus_two_caps.cfg"
    mixed = CapFamily(
        [
            AffineMap(0.11, offset=0.39 + 0.33j),
            JoukowskiEllipseMap(0.2, scale=0.1, offset=0.924 + 0.748j),
        ],
    )
    # caps by a corner and by the right edge push the winner off row 0
    # and column 0 of the node lattice
    inner = SurfaceSpec.torus(TAU, CapFamily(
        [AffineMap(0.08, offset=0.15 + 0.15 * TAU), AffineMap(0.08, offset=0.85 + 0.5 * TAU)],
    ))
    # ties: a centred circle on tau = i, whose row 0 and column 0 have the
    # same minimum, and a circle off the middle of a flat cell, where 32
    # bases of row 0 tie, their columns clearing more than the row does;
    # the first of them in row-major order, (0, 29), wins
    centred = SurfaceSpec.torus(1j, CapFamily([AffineMap(0.2, offset=0.5 + 0.5j)]))
    flat = SurfaceSpec.torus(0.5j, CapFamily([AffineMap(0.1, offset=0.2 + 0.25j)]))
    # a surface on which the pick is wrong when the columns keep the
    # estimate of their node of least bound, or when the floor is the
    # larger of the largest row and column bounds
    columns = SurfaceSpec.torus(0.22 + 1.28j, CapFamily(
        [AffineMap(0.13, offset=0.31 + 0.52j), AffineMap(0.17, offset=0.79 + 0.81j)]))
    surfaces = (parse_config(str(cfg)).surface, SurfaceSpec.torus(TAU, mixed), inner,
                pool_surface("torus-solve", 4, tmp_path),
                pool_surface("torus-verify", 0, tmp_path), centred, flat, columns)
    x, y = inner.geometry.cell_coordinates(inner.cycle_base())
    assert (x, y) == (0.5, 0.8125)
    k = np.arange(64)

    def minima(surface):  # each row's and each column's least node distance
        d = surface.distance_to_caps_reduced((k + k[:, None] * surface.tau) / 64)
        return d.min(axis=1), d.min(axis=0)

    rows, cols = minima(centred)
    assert rows[0] == cols[0] == max(rows.max(), cols.max()) and centred.cycle_base() == 0
    rows, cols = minima(flat)
    clearance = np.minimum(rows[:, None], cols)
    assert np.flatnonzero(clearance == clearance.max()).tolist() == list(range(29, 61))
    x, y = flat.geometry.cell_coordinates(flat.cycle_base())
    assert (x, y) == (29 / 64, 0.0)
    for surface in surfaces:
        base, clearance = brute_force_cycle_base(surface)
        assert surface.cycle_base() == base
        # the clearance is that of the quadrature nodes of both cycles
        path = np.concatenate([c.nodes for c in lattice_cycles(surface)])
        assert float(np.min(surface.distance_to_caps_reduced(path))) == clearance
        # the pruned distance is the same float as the full search
        rng = np.random.default_rng(8)
        pts = rng.uniform(-1, 2, 300) + rng.uniform(-1, 2, 300) * TAU
        x, y = surface.geometry.cell_coordinates(pts)
        full = np.full(pts.shape, np.inf)
        for dx in (-1, 0, 1):
            for dy in (-1, 0, 1):
                shifted = (x - np.floor(x) + dx) + (y - np.floor(y) + dy) * surface.tau
                for k in range(surface.n_caps):
                    p = surface.caps.boundary_samples(k)
                    full = np.minimum(full, np.min(np.abs(p[None, :] - shifted[:, None]), axis=1))
        assert np.array_equal(surface.distance_to_caps_reduced(pts), full)


def test_cycle_base_measures_at_most_a_quarter_of_the_lattice(monkeypatch):
    # the search bounds all 4096 nodes and measures only those that can
    # decide the base (126 on this config); a full search would pass all
    # 4096 to min_distance
    surface = parse_config(str(ROOT / "configs" / "torus_two_caps.cfg")).surface
    measured = []
    min_distance = CapFamily.min_distance

    def counted(self, candidates):
        measured.append(np.shape(candidates)[1])
        return min_distance(self, candidates)

    monkeypatch.setattr(CapFamily, "min_distance", counted)
    surface.cycle_base()
    assert 0 < sum(measured) <= 1024


def test_torus_setup_keeps_its_temporaries_small():
    # the cycle-base search measures its point-by-sample blocks in row
    # slices of numerics.BLOCK_ENTRIES entries, never whole (the lattice's
    # 4096 x 512 block against one cap is 33.6 MB)
    tracemalloc.start()
    try:
        surface = parse_config(str(ROOT / "configs" / "torus_two_caps.cfg")).surface
        surface.cycle_base()
        peak = tracemalloc.get_traced_memory()[1]
    finally:
        tracemalloc.stop()
    assert peak < 6e6


def test_cycle_base_search_measures_the_lattice_in_slices():
    # a 512-point slice holds its nine lattice copies (72 KiB), and
    # min_distance adds its bounds and argsort order for the 18 (copy, cap)
    # pairs (288 + 72 KiB) and a nearest_distance block of 32 points by 512
    # samples (384 KiB): 0.92 MB traced with the lattice's nodes, bounds and
    # distances and the search's smaller temporaries, against 2.04 MB for
    # the whole lattice at once; the margin covers a line tracer's 0.08 MB
    surface = parse_config(str(ROOT / "configs" / "torus_two_caps.cfg")).surface
    tracemalloc.start()
    try:
        surface.cycle_base()
        peak = tracemalloc.get_traced_memory()[1]
    finally:
        tracemalloc.stop()
    assert peak < 1.5e6


def test_cycle_base_crowded_cell_raises():
    # lattice row 0 passes 0.5 - 0.42 = 0.08 below the cap, short of twice
    # the 0.05 margin
    crowded = SurfaceSpec.torus(1j, CapFamily([AffineMap(0.42, offset=0.5 + 0.5j)]))
    with pytest.raises(ValidationError,
                       match=r"^no lattice cycle clears the caps \(best clearance 0\.08\)$"):
        crowded.cycle_base()


def test_cycle_base_clears_caps():
    t = torus_two_caps()
    base = t.cycle_base()
    path = np.concatenate([c.nodes for c in lattice_cycles(t)])
    assert float(np.min(t.distance_to_caps_reduced(path))) > 2 * CELL_MARGIN
    assert base == t.cycle_base()  # cached, deterministic


def test_torus_green_function_needs_a_base_point():
    t = torus_two_caps()
    with pytest.raises(ValidationError,
                       match="^torus Green's function needs a finite base point q$"):
        green(t, t.w0 + 0.1, t.w0, q=None)


@pytest.mark.parametrize("k", [-1, 2])
def test_boundary_cycle_refuses_a_cap_index_out_of_range(k):
    with pytest.raises(ValidationError, match=f"^cap index {k} out of range$"):
        boundary_cycle(sphere_two_caps(), k)
