import os
import sys
import tracemalloc
from dataclasses import replace

import numpy as np
import pytest

from faberforms import faber, numerics, series
from faberforms.config import parse_config
from faberforms.conformal import AffineMap, CapFamily, JoukowskiEllipseMap, PolynomialCapMap
from faberforms.faber import alpha_values, faber_form
from faberforms.numerics import NumericalError, ValidationError, area_pairing
from faberforms.schiffer import contour_radius
from faberforms.series import (
    BOUNDARY_NODES,
    ExteriorPairing,
    TargetForm,
    _split_target,
    boundary_coefficients,
    coefficient_deviations,
    cycle_coefficients,
    invariance_check,
    project_faber,
    uniform_error,
)
from faberforms.surface import (
    CYCLE_NODES,
    Cycle,
    OneForm,
    SurfaceSpec,
    beta_form,
    boundary_cycle,
    gamma_basis,
    per_cycle,
    sample,
)
from faberforms.targets import build_target

TAU = 0.3 + 1.1j
ROOT = os.path.join(os.path.dirname(__file__), "..")


def explicit_target(surface, epsilon, c, h):
    # the finite Faber-Tietz sum of the given terms, h an (order, cap) matrix
    return TargetForm(faber.faber_series(surface, epsilon, c, h), known={"epsilon": epsilon, "c": c, "h": h})


def identity_cap_sphere():
    return SurfaceSpec.sphere(CapFamily([AffineMap(1.0)]), w0=4.0 + 3.0j)


def joukowski_sphere():
    return SurfaceSpec.sphere(
        CapFamily([JoukowskiEllipseMap(0.25, scale=1.0, offset=0.0)]), w0=5.0 + 4.0j
    )


def two_cap_sphere():
    caps = CapFamily([AffineMap(0.4), JoukowskiEllipseMap(0.25, scale=0.3, offset=2.5)])
    return SurfaceSpec.sphere(caps, w0=1.0 - 2.0j)


def multicap_sphere():
    # the shape of sphere-multicap input 0: one cap of each map kind
    return SurfaceSpec.sphere(CapFamily([
        JoukowskiEllipseMap(0.25, scale=1.0, offset=0.008074 - 0.007721j),
        AffineMap(0.5, offset=2.995968 + 0.481214j),
        PolynomialCapMap([0.6, 0.08, 0.02], offset=-1.120547 + 2.985978j),
    ]))


def torus_two_caps():
    caps = CapFamily([
        AffineMap(0.11, 0.3 + 0.3 * TAU),
        AffineMap(0.11, 0.72 + 0.68 * TAU),
    ])
    return SurfaceSpec.torus(TAU, caps)


class _InversionChart:
    # u -> 1/u maps the punctured disk onto the exterior of the unit circle
    def evaluate(self, u):
        return 1.0 / np.asarray(u, dtype=complex)

    def derivative(self, u):
        return -1.0 / np.asarray(u, dtype=complex) ** 2


def test_pairing_identity_cap_gram_is_diagonal():
    surface = identity_cap_sphere()
    pairing = ExteriorPairing(surface, BOUNDARY_NODES)
    data = [pairing.data(faber_form(surface, 0, m).form) for m in range(1, 6)]
    for i, di in enumerate(data, start=1):
        for j, dj in enumerate(data, start=1):
            val = pairing.inner(di, dj)
            want = 2.0 * np.pi * i if i == j else 0.0
            assert abs(val - want) < 1e-10, (i, j, val)


@pytest.mark.parametrize("cap, a", [
    (AffineMap(1.0), 0.0),
    (AffineMap(0.3 - 0.2j, offset=1.5 + 0.5j), 0.0),
    (JoukowskiEllipseMap(0.25), 0.25),
    (JoukowskiEllipseMap(0.5, scale=0.7, offset=-1 + 2j), 0.5),
    (JoukowskiEllipseMap(0.4 + 0.3j, scale=1.3j, offset=0.5), 0.4 + 0.3j),
    (JoukowskiEllipseMap(0.8, scale=0.4, offset=2 - 1j), 0.8),
], ids=["affine-unit", "affine-scaled", "joukowski-0.25", "joukowski-0.5",
        "joukowski-complex", "joukowski-0.8"])
def test_one_cap_sphere_gram_is_the_closed_form(cap, a):
    # a Joukowski cap's only Grunsky coupling is the diagonal a^m, so
    # <alpha_m, alpha_n> = 2 pi m (1 - |a|^(2m)) delta_mn for any scale and
    # offset (an affine cap is a = 0); M = 64 reads radius steps 1 to 5.
    # Worst measured: 5.5e-15 relative on the diagonal (a = 0.8) and
    # 8.4e-14 of sqrt(G_ii G_jj) off it
    pairing = ExteriorPairing(SurfaceSpec.sphere(CapFamily([cap])), BOUNDARY_NODES)
    data = pairing.alpha_data(64)
    gram = pairing.inner(data, data).T
    m = np.arange(1, 65)
    want = 2 * np.pi * m * (1 - abs(a) ** (2 * m))
    diag = np.diag(gram)
    assert np.max(np.abs(diag - want) / want) <= 1e-14
    off = gram - np.diag(diag)
    assert np.all(np.abs(off) <= 1e-12 * np.sqrt(np.outer(want, want)))


def closed_form_residual(a, h_column, M):
    """||rho_M|| = sqrt(sum_{m>M} |h_m|^2 2 pi m (1 - |a|^(2m))): the pole
    target's tail in a diagonal Gram, summed to m = 400 (|eta|^800 is far
    below roundoff for every eta used here)."""
    m = np.arange(M + 1, 401)
    h = np.array([h_column(int(j)) for j in m])
    return np.sqrt(np.sum(np.abs(h) ** 2 * 2 * np.pi * m * (1 - abs(a) ** (2 * m))))


@pytest.mark.parametrize("cap, eta, a", [
    (None, None, 0.25),  # configs/sphere_joukowski.cfg: a = 0.25, eta = 0.55
    (JoukowskiEllipseMap(0.5, scale=0.7, offset=-1 + 2j), 0.3 + 0.4j, 0.5),
    (AffineMap(0.3 - 0.2j, offset=1.5 + 0.5j), -0.6j, 0.0),
], ids=["sphere_joukowski", "joukowski-0.5", "affine"])
def test_one_cap_sphere_residual_history_is_the_closed_form(cap, eta, a):
    # a diagonal Gram makes Parseval exact, so the residual after order M
    # is the pole target's tail h_m = s eta^(m-1) / f'(eta) past M. Worst
    # measured gap: 2.1e-15 absolute (joukowski-0.5 at M = 10); at M = 40
    # it is at most 2.7e-16, 4e-9 to 9e-6 of residuals of 3e-11 to 7e-8
    if cap is None:
        config = parse_config(os.path.join(ROOT, "configs", "sphere_joukowski.cfg"))
        surface, target = config.surface, config.target
    else:
        surface = SurfaceSpec.sphere(CapFamily([cap]))
        target = build_target(surface, "pole", eta=eta)
    _k, h_column = target.known["h_column"]
    history = project_faber(target, surface, 40).residual_history
    assert [order for order, _res in history] == [5, 10, 20, 40]
    for order, res in history:
        assert abs(res - closed_form_residual(a, h_column, order)) <= 1e-13


def test_two_cap_sphere_pole_column_is_the_closed_form():
    # the pole target's h column holds on its own cap whatever the other
    # caps; M = 40 only, since a truncated solve in a coupled basis is not
    # the truncated series (at M = 10 the gap is 1e-6 to 1e-4). Worst
    # measured: 1.9e-15 on the column and 3.0e-15 on the other cap's
    caps = CapFamily([JoukowskiEllipseMap(0.25), AffineMap(0.5, offset=3 + 1j)])
    surface = SurfaceSpec.sphere(caps)
    for cap in (0, 1):
        target = build_target(surface, "pole", cap=cap, eta=0.55)
        k, h_column = target.known["h_column"]
        h = project_faber(target, surface, 40).h
        want = np.array([h_column(m) for m in range(1, 41)])
        assert np.max(np.abs(h[:, k] - want)) <= 1e-13
        assert np.max(np.abs(h[:, 1 - k])) <= 1e-13


@pytest.mark.parametrize("name, nodes", [("torus_two_caps", 64), ("sphere_joukowski", 256)])
def test_project_picks_the_node_count_and_matches_a_512_node_pairing(name, nodes, monkeypatch):
    # the measured count, against a pairing forced to the old fixed 512
    # nodes; worst measured deviation 3.0e-15 (sphere_joukowski)
    config = parse_config(os.path.join(ROOT, "configs", f"{name}.cfg"))
    dec = project_faber(config.target, config.surface, config.M)
    assert dec.pairing_nodes == nodes
    assert 0.0 < dec.spectral_tail <= series.SPECTRAL_TAIL_TOL
    monkeypatch.setattr(series, "NODE_COUNTS", (512,))
    fixed = project_faber(config.target, config.surface, config.M)
    assert fixed.pairing_nodes == 512
    assert max(coefficient_deviations(dec, fixed).values()) <= 1e-13


@pytest.mark.parametrize("gap, nodes", [(1.0, 256), (0.1, 512), (0.03, 512)])
def test_two_close_disks_take_more_nodes_and_keep_the_pole_column(gap, nodes):
    # two unit disks: the other disk's basis forms reach further into the
    # band on each circle as the gap closes. M = 40 starts at 256 nodes.
    # The pole target's column stays the closed form s eta^(m-1) / f'(eta)
    # and the other column 0; worst measured 9.8e-15 on the column and
    # 5.6e-15 on the other (gap 0.03)
    surface = SurfaceSpec.sphere(CapFamily([AffineMap(1.0), AffineMap(1.0, offset=2.0 + gap)]))
    for cap in (0, 1):
        target = build_target(surface, "pole", cap=cap, eta=0.3)
        k, h_column = target.known["h_column"]
        dec = project_faber(target, surface, 40)
        assert dec.pairing_nodes == nodes
        want = np.array([h_column(m) for m in range(1, 41)])
        assert np.max(np.abs(dec.h[:, k] - want)) <= 1e-13
        assert np.max(np.abs(dec.h[:, 1 - k])) <= 1e-13


def test_a_deep_pole_target_moves_up_the_ladder_before_the_radius_guard_reads_it():
    # at eta = 0.85 the 64-node periods on the 0.95 circle alias far past
    # RADIUS_GAP_TOL; the target goes up a count before that guard reads
    # them, and its radius-1 data are resolved at 1024. One cap's Gram is
    # diagonal, so the M = 5 column is the closed form; worst measured
    # 1.1e-15
    surface = joukowski_sphere()
    target = build_target(surface, "pole", cap=0, eta=0.85)
    _k, h_column = target.known["h_column"]
    dec = project_faber(target, surface, 5)
    assert dec.pairing_nodes == 1024
    want = np.array([h_column(m) for m in range(1, 6)])
    assert np.max(np.abs(dec.h[:, 0] - want)) <= 1e-13


def test_the_radius_gap_guard_refuses_a_period_that_moves_by_a_millionth():
    # a declared pole at f0(0.3) and an undeclared one of opposite residue
    # at f1(0.96), between cap 1's measuring circles: the residues balance,
    # so only the radius-gap guard speaks. With a tolerance of 1e-3 the
    # solve returned at 1024 nodes with epsilon = +-1e-6
    caps = CapFamily([AffineMap(0.4), AffineMap(0.4, offset=2.0)])
    surface = SurfaceSpec.sphere(caps, w0=1.0 + 2.0j)
    a, b = complex(caps[0].evaluate(0.3)), complex(caps[1].evaluate(0.96))

    def ev(z):
        z = np.asarray(z, dtype=complex)
        return -1e-6 / (z - a) + 1e-6 / (z - b)

    with pytest.raises(NumericalError) as err:
        project_faber(TargetForm(OneForm(ev, poles=((a, 1),))), surface, M=2)
    assert str(err.value) == ("boundary coefficient of cap 1 moved by 1.000e-06 "
                              "between radii 0.95 and 1.0")


def test_project_refuses_data_the_last_node_count_leaves_unresolved(monkeypatch):
    # with a one-entry ladder, sphere_joukowski's pole target at M = 40
    # keeps 2e-5 of its largest coefficient in the band on 64 nodes
    config = parse_config(os.path.join(ROOT, "configs", "sphere_joukowski.cfg"))
    monkeypatch.setattr(series, "NODE_COUNTS", (64,))
    with pytest.raises(NumericalError) as err:
        project_faber(config.target, config.surface, 40)
    assert str(err.value) == ("64-node pairing circles do not resolve the data: Fourier tail "
                              "2.035e-05 on the radius-1 circle of cap 0, above 1e-12")


def test_lattice_periods_match_a_1024_node_trapezoid_read():
    # every form read over the lattice cycles is elliptic, so the
    # CYCLE_NODES-node trapezoid rule converges geometrically: its periods
    # of gamma, beta_0, the combination target and the basis forms of both
    # caps agree with a 1024-node read to roundoff
    config = parse_config(os.path.join(ROOT, "configs", "torus_two_caps.cfg"))
    surface = config.surface
    base = surface.cycle_base()
    forms = [gamma_basis(surface)[0], beta_form(surface, 0), config.target.form]

    def periods(n):
        t = np.arange(n) / n
        cycles = [Cycle(kind, 0, base + t * d, np.full(n, d / n, dtype=complex))
                  for kind, d in (("a", 1.0), ("b", surface.tau))]
        nodes = np.concatenate([c.nodes for c in cycles])
        vals = np.column_stack([sample(f, cycles) for f in forms]
                               + [alpha_values(surface, k, (1, 2, 6), nodes) for k in range(2)])
        return np.array([c.weights @ v for c, v in zip(cycles, per_cycle(vals, cycles))])

    got, ref = periods(CYCLE_NODES), periods(1024)
    assert got.shape == (2, 9)
    assert np.all(np.abs(got - ref) <= 1e-14 * np.maximum(1.0, np.abs(ref)))
    # the default cycles are this rule
    pairing = ExteriorPairing(surface, BOUNDARY_NODES)
    for cycle, t in zip(pairing.cycles, (1.0, surface.tau)):
        assert np.array_equal(cycle.nodes, base + np.arange(CYCLE_NODES) / CYCLE_NODES * t)
        assert np.array_equal(cycle.weights, np.full(CYCLE_NODES, t / CYCLE_NODES))


def test_pairing_matches_area_quadrature():
    # independent route: exterior L2 norm computed as a genuine area
    # integral in the 1/z chart
    surface = identity_cap_sphere()
    pairing = ExteriorPairing(surface, BOUNDARY_NODES)
    for m, j in ((1, 1), (2, 2), (1, 2), (3, 2)):
        fm = faber_form(surface, 0, m).form
        fj = faber_form(surface, 0, j).form
        via_boundary = pairing.inner(pairing.data(fm), pairing.data(fj))
        via_area = area_pairing(fm, fj, _InversionChart())
        assert abs(via_boundary - via_area) < 1e-8, (m, j)


def _antiderivative(g):
    # zero-mean periodic antiderivative in theta of equispaced samples
    # along axis 0, with its own FFTs
    n = g.shape[0]
    ghat = np.fft.fft(g, axis=0)
    ghat[0] = 0.0
    ghat[1:] /= (1j * np.fft.fftfreq(n, 1.0 / n)[1:]).reshape((-1,) + (1,) * (g.ndim - 1))
    return np.fft.ifft(ghat, axis=0)


def test_gram_by_products_matches_inner_double_loop():
    # the Gram of the M = 40 Joukowski config, once from the stacked
    # multi-order Fourier data by Parseval, and once entry by entry in
    # physical space: the Stokes sum of F conj(g) over the boundary nodes,
    # with g the samples of each single-order form times dw and F its
    # antiderivative
    n = BOUNDARY_NODES
    theta = 2.0 * np.pi * np.arange(n) / n
    F = _antiderivative(np.cos(3 * theta) + 1j * np.sin(theta))
    want = np.sin(3 * theta) / 3.0 - 1j * np.cos(theta)
    assert np.max(np.abs(F - (want - want.mean()))) < 1e-13
    config = parse_config(os.path.join(ROOT, "configs", "sphere_joukowski.cfg"))
    surface, M = config.surface, config.M
    pairing = ExteriorPairing(surface, BOUNDARY_NODES)
    stacked = pairing.alpha_data(M)
    gram = pairing.inner(stacked, stacked).T
    zeta = np.exp(1j * theta)
    dw = [f.derivative(zeta) * 1j * zeta for f in surface.caps]
    forms = [faber_form(surface, 0, m).form for m in range(1, M + 1)]
    g = np.stack([[sample(f, [c]) * w for c, w in zip(pairing.circles, dw)] for f in forms])
    F = _antiderivative(np.moveaxis(g, 2, 0))
    loop = np.zeros((M, M), dtype=complex)
    for i in range(M):
        for j in range(M):
            loop[i, j] = -1j * (2.0 * np.pi / n) * np.sum(F[:, j] * np.conj(g[i].T))
    assert np.max(np.abs(gram - loop)) <= 1e-13 * np.max(np.abs(loop))


def test_stacked_residual_matches_sequential_subtraction():
    surface = torus_two_caps()
    pairing = ExteriorPairing(surface, BOUNDARY_NODES)
    data = pairing.alpha_data(3)
    target = explicit_target(surface, [0.0], [0.7], [[0.5, 0.0], [0.0, -0.2j]])
    rho = pairing.data(target.form)
    x = np.array([0.3 - 0.1j, 1.2, -0.5j, 0.25, 0.1 + 0.1j])
    ghat, a, b = rho.ghat, rho.a, rho.b
    for i, xi in enumerate(x):
        ghat = ghat - xi * data.ghat[..., i]
        a, b = a - xi * data.a[i], b - xi * data.b[i]
    stacked = rho - data.combine(x)
    for got, want in zip((stacked.ghat, stacked.a, stacked.b), (ghat, a, b)):
        assert np.max(np.abs(got - want)) < 1e-13


def test_residual_in_the_span_reads_roundoff_not_zero():
    # the boundary form is indefinite, so the squared norm of a remainder
    # at roundoff can come out negative: the norm reads its modulus, not
    # an exact fit (the basis target of configs/fail_tolerance.cfg)
    config = parse_config(os.path.join(ROOT, "configs", "fail_tolerance.cfg"))
    dec = project_faber(config.target, config.surface, config.M)
    res = dec.residual_history[-1][1]
    assert 0.0 < res < 1e-15


@pytest.mark.parametrize("budget", [1, 1 << 40], ids=["one-row", "unbounded"])
def test_block_budget_does_not_change_the_gram(budget, monkeypatch):
    # the data are transformed in row slices of columns and the products
    # taken in row slices of frequencies of numerics.BLOCK_ENTRIES entries
    # (at the default budget, 21 columns and four slices a circle, for 120
    # forms on three circles)
    surface = multicap_sphere()
    pairing = ExteriorPairing(surface, BOUNDARY_NODES)
    data = pairing.alpha_data(40)
    rho = pairing.data(build_target(surface, "pole", cap=0, eta=0.55).form)
    assert BOUNDARY_NODES > numerics.BLOCK_ENTRIES // 120
    want = pairing.inner(data, data), pairing.inner(rho, data), pairing.norm(rho)
    monkeypatch.setattr(numerics, "BLOCK_ENTRIES", budget)
    again = pairing.alpha_data(40)
    assert np.max(np.abs(again.ghat - data.ghat)) <= 1e-13 * np.max(np.abs(data.ghat))
    got = pairing.inner(again, again), pairing.inner(rho, again), pairing.norm(rho)
    for x, y in zip(got, want):
        assert np.max(np.abs(x - y)) <= 1e-13 * np.max(np.abs(y))


def test_project_faber_keeps_its_pairing_data_small():
    # sphere-multicap's shape at M = 40: the basis data are one stack of
    # boundary DFTs on the 256 nodes the circles take, 3 x 256 x 120
    # complex (1.5 MB), with no antiderivative stack beside it, and the
    # products go in row slices
    surface = multicap_sphere()
    target = build_target(surface, "pole", cap=0, eta=0.55)
    tracemalloc.start()
    try:
        dec = project_faber(target, surface, M=40)
        peak = tracemalloc.get_traced_memory()[1]
    finally:
        tracemalloc.stop()
    assert dec.h.shape == (40, 3) and dec.pairing_nodes == 256
    assert peak < 5e6


def test_pairing_inner_keeps_its_factors_in_one_block():
    # sphere-multicap's M = 40 stack on the 256 nodes its circles take: a
    # frequency slice's weighted and conjugated factors, 120 + 120 entries
    # a row, share one storage of numerics.BLOCK_ENTRIES entries (0.5 MB)
    # beside the 120 x 120 sum and product (0.23 MB each)
    surface = multicap_sphere()
    pairing = ExteriorPairing(surface, 256)
    data = pairing.alpha_data(40)
    tracemalloc.start()
    try:
        gram = pairing.inner(data, data)
        peak = tracemalloc.get_traced_memory()[1]
    finally:
        tracemalloc.stop()
    assert gram.shape == (120, 120)
    assert peak < 1.3e6


def test_pairing_torus_gamma_norm():
    surface = torus_two_caps()
    pairing = ExteriorPairing(surface, BOUNDARY_NODES)
    d = pairing.data(gamma_basis(surface)[0])
    want = 2.0 * (TAU.imag - 2.0 * np.pi * 0.11**2)
    assert abs(pairing.inner(d, d) - want) < 1e-10


def test_pairing_rejects_unsuitable_forms():
    surface = torus_two_caps()
    pairing = ExteriorPairing(surface, BOUNDARY_NODES)
    with pytest.raises(NumericalError, match="mean"):
        pairing.data(beta_form(surface, 0))


def test_pairing_data_rejects_nonzero_mean():
    # a form with a boundary period has samples times dw of nonzero mean,
    # so no periodic antiderivative: the pairing data refuse it
    surface = identity_cap_sphere()
    pole = OneForm(lambda z: 1.0 / np.asarray(z, dtype=complex), poles=((0j, 1),))
    # g = (1/z) i z = i on the unit circle
    with pytest.raises(NumericalError, match=r"samples have nonzero mean \S+\+1\.000e\+00j; "
                                             "no periodic antiderivative"):
        ExteriorPairing(surface, BOUNDARY_NODES).data(pole)


def test_boundary_coefficients_of_beta():
    surface = two_cap_sphere()
    eps = boundary_coefficients(beta_form(surface, 0), surface)
    assert abs(eps[0] - 1.0) < 1e-10
    assert abs(eps[1] + 1.0) < 1e-10

    pole = build_target(surface, "pole", cap=1, eta=0.3)
    combo = OneForm.combine([(2.0, beta_form(surface, 0)), (1.0, pole.form)])
    eps2 = boundary_coefficients(combo, surface)
    assert abs(eps2[0] - 2.0) < 1e-10
    assert abs(np.sum(eps2)) < 1e-10


def double_pole_at(a):
    return OneForm(lambda z: 1.0 / (np.asarray(z, dtype=complex) - a) ** 2, poles=((a, 2),))


def test_boundary_coefficients_refuse_an_undeclared_pole_between_the_circles():
    # an undeclared simple pole between the two circles changes the period
    surface = two_cap_sphere()
    b = complex(surface.caps[1].evaluate(0.97))
    hidden = OneForm(lambda z: 1.0 / (np.asarray(z, dtype=complex) - b))
    with pytest.raises(NumericalError, match="moved"):
        boundary_coefficients(hidden, surface)


def test_project_faber_refuses_a_declared_pole_near_the_measuring_circles():
    surface = two_cap_sphere()
    a = complex(surface.caps[1].evaluate(0.93))
    with pytest.raises(ValidationError) as err:
        project_faber(double_pole_at(a), surface, 2)
    assert str(err.value) == (f"pole at {a:.6g} sits too close to the measuring circles of "
                              "cap 1 (|preimage| = 0.9300, above 0.9195)")


def test_a_declared_pole_outside_every_cap_is_refused():
    # a double pole at 2 + 0.5i, outside the unit cap, is no target: the
    # guard passed it over, and the solve returned h ~ 1e-17 with an L2
    # residual of 0.771 and no error
    surface = identity_cap_sphere()
    message = ("pole at 2+0.5j lies outside every cap; a target must be holomorphic "
               "on the cap complement")
    form = double_pole_at(2.0 + 0.5j)
    with pytest.raises(ValidationError) as err:
        project_faber(form, surface, 4)
    assert str(err.value) == message
    with pytest.raises(ValidationError) as err:
        boundary_coefficients(form, surface)
    assert str(err.value) == message


def test_a_declared_pole_no_node_count_can_read_is_refused_by_name():
    # a double pole at |eta| = 0.915 solves at 1024 nodes, its h column the
    # closed form (one cap's Gram is diagonal; worst measured 1.3e-15);
    # at 0.92 its radius-1 data would keep a Fourier tail above
    # SPECTRAL_TAIL_TOL at every node count, so the validation refuses it
    surface = joukowski_sphere()
    f = surface.caps[0]

    def double_pole(eta):
        a = complex(f.evaluate(eta))
        return OneForm(lambda z: 1.0 / (np.asarray(z, dtype=complex) - a) ** 2,
                       poles=((a, 2),))

    dec = project_faber(double_pole(0.915), surface, 10)
    assert dec.pairing_nodes == 1024
    want = np.array([0.915 ** (m - 1) / complex(f.derivative(0.915)) for m in range(1, 11)])
    assert np.max(np.abs(dec.h[:, 0] - want)) <= 1e-14
    with pytest.raises(ValidationError) as err:
        project_faber(double_pole(0.92), surface, 10)
    assert str(err.value) == ("pole at 1.16692+0j sits too close to the measuring circles "
                              "of cap 0 (|preimage| = 0.9200, above 0.9195)")


def test_cycle_coefficients_torus():
    surface = torus_two_caps()
    gamma = gamma_basis(surface)[0]
    c, d = cycle_coefficients(gamma, surface)
    assert abs(c[0] - 1.0) < 1e-12 and abs(d[0]) < 1e-12
    # the split of the periods (1, tau) of dw and (1, conj tau) of dw-bar
    c1, d1 = surface.geometry.cycle_split((1.0, TAU))
    assert abs(c1[0] - 1.0) < 1e-12 and abs(d1[0]) < 1e-12
    c2, d2 = surface.geometry.cycle_split((1.0, np.conj(TAU)))
    assert abs(c2[0]) < 1e-12 and abs(d2[0] - 1.0) < 1e-12
    with pytest.raises(ValidationError, match="boundary period"):
        cycle_coefficients(beta_form(surface, 0), surface)


def test_cycle_coefficients_sphere_empty():
    surface = two_cap_sphere()
    pole = build_target(surface, "pole", cap=0, eta=0.2)
    c, d = cycle_coefficients(pole.form, surface)
    assert c.size == 0 and d.size == 0


def test_project_basis_element_round_trip():
    surface = identity_cap_sphere()
    target = build_target(surface, "basis", k=0, m=1)
    dec = project_faber(target, surface, M=3, checkpoints=(2,))
    assert dec.h.shape == (3, 1)
    assert abs(dec.h[0, 0] - 1.0) < 1e-10
    assert np.max(np.abs(dec.h[1:, 0])) < 1e-10
    assert np.max(np.abs(dec.epsilon)) < 1e-10
    assert dec.residual_history[-1][1] < 1e-10
    assert dec.consistency < 1e-10
    assert np.isfinite(dec.gram_condition) and not dec.regularized
    assert [mp for mp, _ in dec.residual_history] == [2, 3]


def test_project_pole_target_matches_generating_oracle():
    surface = joukowski_sphere()
    target = build_target(surface, "pole", cap=0, eta=0.55)
    dec = project_faber(target, surface, M=20, checkpoints=(5, 10))
    res = [r for _, r in dec.residual_history]
    assert res[0] > res[1] > res[2]
    assert res[-1] < 1e-4
    k, oracle = target.known["h_column"]
    assert k == 0
    for m in range(1, 5):
        assert abs(dec.h[m - 1, 0] - oracle(m)) < 1e-4, m


def test_uniform_error_decreases_for_pole_target():
    surface = joukowski_sphere()
    target = build_target(surface, "pole", cap=0, eta=0.55)
    dec = project_faber(target, surface, M=20, checkpoints=(5, 10))
    theta = 2.0 * np.pi * np.arange(40) / 40
    ring = 2.0 * np.exp(1j * theta)
    errs = [uniform_error(target, surface, dec, ring, upto=mp) for mp in (5, 10, 20)]
    assert errs[0] > errs[1] > errs[2]
    assert errs[-1] < 1e-3
    # 0.067 from the cap, inside the sphere's margin of 0.1
    with pytest.raises(ValidationError, match=r"is 0\.067 from a cap, inside the margin 0\.1$"):
        uniform_error(target, surface, dec, np.array([1.4 + 0.0j]))


def test_a_pole_at_the_depth_the_solve_admits_builds_and_solves():
    # the pole family refused |eta| >= 0.9, short of the 0.95 - POLE_CLEARANCE
    # the solve's own guard admits
    surface = joukowski_sphere()
    dec = project_faber(build_target(surface, "pole", cap=0, eta=0.919), surface, M=10)
    assert dec.M == 10 and dec.pairing_nodes == 1024
    with pytest.raises(ValidationError, match=r"^target\.eta: the pole preimage must satisfy "
                                              r"\|eta\| <= 0\.9195, got 0\.92$"):
        build_target(surface, "pole", cap=0, eta=0.92)


def test_uniform_error_reads_the_ring_once_for_every_order(monkeypatch):
    surface = joukowski_sphere()
    target = build_target(surface, "pole", cap=0, eta=0.55)
    dec = project_faber(target, surface, M=20, checkpoints=(5, 10))
    ring = 2.0 * np.exp(2j * np.pi * np.arange(40) / 40)
    orders = (5, 10, 15, 20)
    form, sizes = _counting(target.form)
    calls = []
    contour = faber.schiffer_contour

    def counting(surface, k, m, z, **kwargs):
        calls.append((list(m), kwargs))
        return contour(surface, k, m, z, **kwargs)

    monkeypatch.setattr(faber, "schiffer_contour", counting)
    got = uniform_error(TargetForm(form), surface, dec, ring, orders)
    # one target read and one basis read of orders 1..20, on the step of 20
    assert sizes == [40]
    assert calls == [(list(range(1, 21)), {"r0": contour_radius(20), "n": 256})]
    monkeypatch.undo()
    # the one-order path on the same read: each partial sum's basis forms
    # from the step of order 20, as the batched read takes them
    monkeypatch.setattr(faber, "contour_radius", lambda m: contour_radius(20))
    want = [uniform_error(target, surface, dec, ring, upto=mp) for mp in orders]
    monkeypatch.undo()
    assert np.allclose(got, want, rtol=1e-14, atol=0.0)
    # one order gives a float, the default order the full truncation's;
    # a sequence gives a list, an empty one []
    assert type(want[0]) is float and type(got) is list
    assert uniform_error(target, surface, dec, ring) == uniform_error(target, surface, dec, ring,
                                                                      upto=20)
    assert uniform_error(target, surface, dec, ring, []) == []
    with pytest.raises(ValidationError, match=r"is 0\.067 from a cap, inside the margin 0\.1$"):
        uniform_error(target, surface, dec, np.array([1.4 + 0.0j]), orders)


def test_uniform_error_of_many_orders_matches_per_order_reads_torus():
    surface = torus_two_caps()
    # order-6 terms that a partial sum of order <= 4 cannot reproduce
    target = build_target(surface, "combination", seed=3, order=6)
    dec = project_faber(target, surface, M=4, checkpoints=(2, 3))
    ring = 0.15 + 0.75 * TAU + 0.15 * np.exp(2j * np.pi * np.arange(24) / 24)
    orders = (1, 2, 3, 4)  # 1 is not a checkpoint: it truncates h
    # partial sums built term by term, each checkpoint with its own
    # sub-solve coefficients, which differ from the truncated full solve
    stored = dict(dec.checkpoints)
    vals = target.form(ring)
    closed = (dec.epsilon[0] * beta_form(surface, 0)(ring)
              + dec.c[0] * gamma_basis(surface)[0](ring))
    alpha = {(m, k): faber_form(surface, k, m).form(ring) for m in range(1, 5) for k in (0, 1)}
    ref = []
    for mp in orders:
        h = stored.get(mp, dec.h[:mp])
        partial = closed + sum(h[m - 1, k] * alpha[m, k] for m in range(1, mp + 1) for k in (0, 1))
        ref.append(np.max(np.abs(vals - partial)))
    want = [uniform_error(target, surface, dec, ring, upto=mp) for mp in orders]
    assert np.allclose(want, ref, rtol=0.0, atol=1e-13 * np.max(np.abs(vals)))
    got = uniform_error(target, surface, dec, ring, orders)
    assert min(want) > 1e-6
    assert np.allclose(got, want, rtol=1e-14, atol=0.0)


@pytest.mark.parametrize("seed", [0, 3, 2**40 + 7])
@pytest.mark.parametrize("order", [1, 6])
def test_a_seeded_combination_draws_numpys_default_rng_normals(seed, order):
    # the terms that np.random.default_rng(seed).normal draws, in the same order
    surface = torus_two_caps()
    known = build_target(surface, "combination", seed=seed, order=order).known
    rng = np.random.default_rng(seed)

    def draw(size):
        return rng.normal(size=size) + 1j * rng.normal(size=size)

    epsilon, c = draw(1), draw(1)
    h = {(m, k): complex(draw(()) * 0.75**m) for m in range(1, order + 1) for k in range(2)}
    assert known["epsilon"].tobytes() == np.concatenate([epsilon, -epsilon]).tobytes()
    assert known["c"].tobytes() == c.tobytes()
    assert known["h"] == h


def test_round_trip_combination_torus():
    surface = torus_two_caps()
    target = build_target(surface, "combination", seed=3, order=6)
    dec = project_faber(target, surface, M=8, checkpoints=(4,))
    known = target.known
    assert np.max(np.abs(dec.epsilon - known["epsilon"])) < 1e-8
    assert abs(dec.c[0] - known["c"][0]) < 1e-8
    for (m, k), v in known["h"].items():
        assert abs(dec.h[m - 1, k] - v) < 1e-8, (m, k)
    tail = dec.h[6:, :]
    assert np.max(np.abs(tail)) < 1e-8
    assert dec.consistency < 1e-9


def test_decomposition_linearity():
    surface = two_cap_sphere()
    t1 = build_target(surface, "basis", k=0, m=1)
    t2 = build_target(surface, "pole", cap=1, eta=0.3)
    a, b = 2.0 - 1.0j, 0.5j
    combined = TargetForm(OneForm.combine([(a, t1.form), (b, t2.form)]))
    d1 = project_faber(t1, surface, M=4, checkpoints=())
    d2 = project_faber(t2, surface, M=4, checkpoints=())
    dc = project_faber(combined, surface, M=4, checkpoints=())
    assert np.max(np.abs(dc.epsilon - a * d1.epsilon - b * d2.epsilon)) < 1e-9
    assert np.max(np.abs(dc.h - a * d1.h - b * d2.h)) < 1e-9


def test_coefficient_stability_under_truncation_growth():
    # finite-combination target: the 2M0 -> 3M0 growth must leave the
    # low-order coefficients untouched
    surface = two_cap_sphere()
    h = np.array([[0.8, 0.0], [0.0, -0.3j], [0.1 + 0.2j, 0.0]])
    target = explicit_target(surface, [0.5], [], h)
    d6 = project_faber(target, surface, M=6, checkpoints=())
    d9 = project_faber(target, surface, M=9, checkpoints=())
    assert np.max(np.abs(d6.h[:3] - d9.h[:3])) < 1e-8
    assert np.max(np.abs(d9.h[:3] - h)) < 1e-9


def test_faber_series_of_the_solve_reproduces_target():
    surface = identity_cap_sphere()
    target = build_target(surface, "basis", k=0, m=2)
    dec = project_faber(target, surface, M=3, checkpoints=())
    partial = faber.faber_series(surface, dec.epsilon, dec.c, dec.h)
    pts = np.array([2.0 + 1.0j, -3.0, 1.5j])
    assert np.max(np.abs(partial(pts) - target.form(pts))) < 1e-9
    err = uniform_error(target, surface, dec, pts)
    assert err < 1e-9
    with pytest.raises(ValidationError, match=r"^order 7 outside 1\.\.3$"):
        uniform_error(target, surface, dec, pts, upto=7)


def _pool_input(workload, index, tmp_path):
    sys.path.insert(0, os.path.join(ROOT, "perfbench"))
    try:
        import gate
        import workloads
    finally:
        sys.path.pop(0)
    path = tmp_path / f"input{index}.cfg"
    path.write_text(workloads.make_config(workloads.WORKLOADS[workload], index))
    ref = gate.read_reference(os.path.join(ROOT, "perfbench", "reference", f"{workload}.csv"))
    return parse_config(str(path)), ref[index], gate.max_deviation


def _solved(dec) -> dict:
    got = {(tag, i, ""): v for tag in ("epsilon", "c", "d")
           for i, v in enumerate(getattr(dec, tag))}
    got.update({("h", k, m): dec.h[m - 1, k]
                for m in range(1, dec.M + 1) for k in range(dec.h.shape[1])})
    return got


def _reference_deviation(workload, tmp_path) -> float:
    # pool input 0 of a benchmark workload against the seed code's
    # committed coefficients
    config, ref, max_deviation = _pool_input(workload, 0, tmp_path)
    dec = project_faber(config.target, config.surface, config.M,
                        condition_limit=config.condition_limit)
    return max_deviation(_solved(dec), ref)


def test_project_matches_sphere_multicap_reference(tmp_path):
    assert _reference_deviation("sphere-multicap", tmp_path) <= 1e-10


def test_project_matches_torus_solve_reference(tmp_path):
    assert _reference_deviation("torus-solve", tmp_path) <= 1e-10


def test_faber_series_order_past_roundoff_bound_raises():
    # no silent order ceiling: an order whose contour read amplifies
    # roundoff past the bound fails loudly and names the limit
    surface = identity_cap_sphere()
    partial = faber.faber_series(surface, np.zeros(1, dtype=complex), np.zeros(0),
                                 np.ones((250, 1), dtype=complex))
    with pytest.raises(ValidationError,
                       match=r"^order: must be <= 211, the roundoff limit of a read on the "
                             r"contour radius 0\.92, got 250$"):
        partial(np.array([3.0 + 1.0j]))


def test_invariance_identity_is_exact():
    surface = two_cap_sphere()
    dev = invariance_check(
        surface, lambda s: build_target(s, "pole", cap=1, eta=0.3), 0.0, M=3,
        checkpoints=(),
    )
    assert dev < 1e-14


@pytest.mark.parametrize("component", ["epsilon", "h", "h at M=2"])
def test_invariance_returns_a_nan_deviation(component, monkeypatch):
    # the moved surface's solve carries one NaN entry; the fold returns it
    solve = series.project_faber
    calls = []

    def poisoned(*args, **kwargs):
        dec = solve(*args, **kwargs)
        calls.append(dec)
        if len(calls) == 1:
            return dec
        if component == "h at M=2":
            return replace(dec, checkpoints=((2, np.full((2, 2), np.nan)),) + dec.checkpoints[1:])
        return replace(dec, **{component: np.full_like(getattr(dec, component), np.nan)})

    monkeypatch.setattr(series, "project_faber", poisoned)
    dev = invariance_check(two_cap_sphere(), lambda s: build_target(s, "pole", cap=1, eta=0.3),
                           0.0, M=3, checkpoints=(2,))
    assert len(calls) == 2 and np.isnan(dev)


def test_invariance_under_sphere_translation():
    surface = joukowski_sphere()
    dev = invariance_check(
        surface, lambda s: build_target(s, "pole", cap=0, eta=0.55), 0.7 - 0.3j,
        M=4, checkpoints=(),
    )
    assert dev < 1e-8


def test_coefficient_deviations_name_each_component_and_checkpoint():
    surface = joukowski_sphere()
    target = build_target(surface, "pole", cap=0, eta=0.55)
    dec = project_faber(target, surface, 10, checkpoints=(5,))
    h5 = dict(dec.checkpoints)[5]
    bumped = replace(dec, checkpoints=((5, h5 + 1e-3), (10, dec.h)))
    devs = coefficient_deviations(dec, bumped)
    assert list(devs) == ["epsilon", "c", "d", "h", "h at M=5", "h at M=10"]
    assert devs["h at M=5"] == pytest.approx(1e-3) and devs["epsilon"] == devs["h"] == 0.0
    with pytest.raises(ValidationError, match="do not compare"):
        coefficient_deviations(dec, project_faber(target, surface, 10, checkpoints=()))


def test_project_refuses_a_residual_that_rises_with_the_order(monkeypatch):
    # a solve that returns zeros at the top order leaves the whole
    # remainder, above the order-2 residual
    surface = identity_cap_sphere()
    target = build_target(surface, "basis", k=0, m=1)
    dec = project_faber(target, surface, M=2, checkpoints=())
    r2 = dec.residual_history[-1][1]
    # the remainder's norm on the pairing the solve picked (64 nodes at M = 2 and 3)
    pairing = ExteriorPairing(surface, dec.pairing_nodes)
    rho = pairing.norm(_split_target(target.form, pairing)[3])

    def zero_at_the_top(gram, rhs, condition_limit):
        sol = numerics.least_squares(gram, rhs, condition_limit)
        return replace(sol, coefficients=0 * sol.coefficients) if rhs.size == 3 else sol

    monkeypatch.setattr(series, "least_squares", zero_at_the_top)
    with pytest.raises(NumericalError) as err:
        project_faber(target, surface, M=3, checkpoints=(2,))
    assert str(err.value) == (f"L2 residual increased from {r2:.6e} to {rho:.6e} between "
                              f"orders; projection monotonicity violated")


def test_project_rejects_bad_order():
    surface = identity_cap_sphere()
    target = build_target(surface, "basis")
    with pytest.raises(ValidationError, match="^M: must be >= 1, got 0$"):
        project_faber(target, surface, M=0)


def test_build_target_validation():
    surface = two_cap_sphere()
    with pytest.raises(ValidationError, match="family"):
        build_target(surface, "mystery")
    with pytest.raises(ValidationError, match="eta"):
        build_target(surface, "pole", cap=0, eta=0.95)
    with pytest.raises(ValidationError, match="^target.seed: required by the combination family$"):
        build_target(surface, "combination", order=2)
    with pytest.raises(ValidationError, match="^target.order: must be >= 0, got -1$"):
        build_target(surface, "combination", seed=0, order=-1)


def _counting(form):
    sizes = []

    def ev(z):
        sizes.append(np.size(z))
        return form.evaluator(z)

    return OneForm(ev, poles=form.poles), sizes


def test_project_samples_the_target_once_per_solve():
    # one evaluation per node count tried, on every cap's circles at radii
    # 0.95 and 1 (N nodes each), then on the torus the a and b cycles
    # (CYCLE_NODES each); the two pole targets are unresolved on the 0.95
    # circles at 64 and 128 nodes, so they are read at 64, 128 and 256
    torus, sphere = torus_two_caps(), two_cap_sphere()
    cases = (
        (torus, build_target(torus, "combination", seed=3, order=2), [64]),
        (sphere, build_target(sphere, "pole", cap=1, eta=0.3), [64, 128, 256]),
        (joukowski_sphere(), build_target(joukowski_sphere(), "pole", cap=0, eta=0.55),
         [64, 128, 256]),
    )
    for surface, target, counts in cases:
        form, sizes = _counting(target.form)
        dec = project_faber(TargetForm(form), surface, M=3, checkpoints=())
        assert sizes == [2 * surface.n_caps * n + 2 * surface.genus * CYCLE_NODES
                         for n in counts]
        assert dec.pairing_nodes == counts[-1]
        ref = project_faber(target, surface, M=3, checkpoints=())
        assert np.array_equal(dec.h, ref.h)


def test_project_reads_each_cap_once_for_the_target_and_once_for_the_basis(monkeypatch):
    # the combination target of orders 1..6 and the basis of orders 1..10
    # each take one contour read per cap, on every node set at once
    config = parse_config(os.path.join(ROOT, "configs", "torus_two_caps.cfg"))
    calls = []
    contour = faber.schiffer_contour

    def counting(surface, k, m, z, **kwargs):
        calls.append((k, list(m), np.size(z)))
        return contour(surface, k, m, z, **kwargs)

    monkeypatch.setattr(faber, "schiffer_contour", counting)
    n = project_faber(config.target, config.surface, config.M).pairing_nodes
    # the chosen pairing's nodes: two N-node circles and the two cycles
    pairing_nodes = ExteriorPairing(config.surface, n).nodes.size
    assert pairing_nodes == 2 * n + 2 * CYCLE_NODES
    target_nodes = pairing_nodes + 2 * n
    assert calls == [(0, list(range(1, 7)), target_nodes), (1, list(range(1, 7)), target_nodes),
                     (0, list(range(1, 11)), pairing_nodes),
                     (1, list(range(1, 11)), pairing_nodes)]


def _wrapper_path(target, surface):
    # the decomposition's first stages composed from the public wrappers,
    # each of which samples the form it is given on its own
    n = surface.n_caps
    eps = boundary_coefficients(target, surface)
    rho = OneForm.combine([(1.0, target.form)]
                          + [(-eps[k], beta_form(surface, k)) for k in range(n - 1)])
    c, d = cycle_coefficients(rho, surface)
    if surface.genus == 1:
        rho = OneForm.combine([(1.0, rho), (-c[0], gamma_basis(surface)[0])])
    return eps, c, d, ExteriorPairing(surface, BOUNDARY_NODES).data(rho)


@pytest.mark.parametrize("name", ["torus_two_caps", "sphere_joukowski"])
def test_sampled_split_matches_the_wrapper_path(name):
    config = parse_config(os.path.join(ROOT, "configs", f"{name}.cfg"))
    got = _split_target(config.target.form, ExteriorPairing(config.surface, BOUNDARY_NODES))
    want = _wrapper_path(config.target, config.surface)
    rho, rho_want = got[3], want[3]
    pairs = list(zip(got[:3], want[:3])) + [
        (rho.ghat, rho_want.ghat), (rho.a, rho_want.a), (rho.b, rho_want.b),
    ]
    for x, y in pairs:
        assert x.shape == y.shape
        if y.size:
            assert np.max(np.abs(x - y)) <= 1e-13 * max(1.0, float(np.max(np.abs(y))))


def test_project_faber_raises_the_sampling_guards():
    surface = two_cap_sphere()
    f = surface.caps[1]
    # a declared pole just inside the inner measuring circle
    a = complex(f.evaluate(0.94))
    declared = OneForm(lambda z: 1.0 / (np.asarray(z, dtype=complex) - a) ** 2,
                       poles=((a, 2),))
    with pytest.raises(ValidationError, match="close"):
        project_faber(TargetForm(declared), surface, M=2)
    # an undeclared simple pole between the two measuring circles
    b = complex(f.evaluate(0.97))
    hidden = OneForm(lambda z: 1.0 / (np.asarray(z, dtype=complex) - b))
    with pytest.raises(NumericalError, match="moved"):
        project_faber(TargetForm(hidden), surface, M=2)
    # a lone simple pole in cap 0: its residue is balanced at infinity, not
    # by the caps, so the remainder keeps a period around the last cap
    p = complex(surface.caps[0].evaluate(0.3))
    lone = OneForm(lambda z: 1.0 / (np.asarray(z, dtype=complex) - p), poles=((p, 1),))
    with pytest.raises(ValidationError, match="boundary period .* at cap 1"):
        project_faber(TargetForm(lone), surface, M=2)


def test_project_faber_names_the_cycle_a_sampling_guard_trips_on():
    config = parse_config(os.path.join(ROOT, "configs", "torus_two_caps.cfg"))
    surface, target = config.surface, config.target.form
    pairing = ExteriorPairing(surface, BOUNDARY_NODES)
    # the a and b cycles share their first node, the base point, which the
    # a cycle's guard sees first; poison only the nodes of the b cycle alone
    a_nodes, b_nodes = (c.nodes for c in pairing.cycles)
    on_b = b_nodes[~np.isin(b_nodes, a_nodes)]
    assert on_b.size == b_nodes.size - 1

    def nan_on_b(z):
        vals = np.array(target(z), dtype=complex)
        vals[np.isin(z, on_b)] = np.nan
        return vals

    with pytest.raises(NumericalError, match="^form not finite on the b cycle$"):
        project_faber(TargetForm(OneForm(nan_on_b, poles=target.poles)), surface, M=2)
    # a declared pole on a node of the a cycle, away from every cap: the
    # solve refuses it as no target before it samples anything
    node = complex(pairing.cycles[0].nodes[10])
    on_a = OneForm(target.evaluator, poles=target.poles + ((node, 1),))
    with pytest.raises(ValidationError, match=r"^pole at .* lies outside every cap; "):
        project_faber(TargetForm(on_a), surface, M=2)


def test_project_faber_refuses_basis_data_that_are_not_finite(monkeypatch):
    # a basis read that is not finite on the a cycle (the rows after the
    # two radius-1 circles of the pairing's N nodes) is refused by the
    # pairing data, naming the cycle; the pairing has each read write into
    # its columns of the stack (out=)
    config = parse_config(os.path.join(ROOT, "configs", "torus_two_caps.cfg"))
    read = series.alpha_values
    n = project_faber(config.target, config.surface, M=2).pairing_nodes

    def nan_on_a(surface, k, orders, z, out=None):
        vals = read(surface, k, orders, z, out=out)
        vals[2 * n + 3, -1] = np.nan
        return vals

    monkeypatch.setattr(series, "alpha_values", nan_on_a)
    with pytest.raises(NumericalError, match="^form not finite on the a cycle$"):
        project_faber(config.target, config.surface, M=2)


def test_combination_target_reads_each_cap_once_per_radius_step(monkeypatch):
    config = parse_config(os.path.join(ROOT, "configs", "torus_two_caps.cfg"))
    surface, target = config.surface, config.target
    known = target.known
    assert len(known["h"]) == 12
    pts = np.concatenate([boundary_cycle(surface, k, radius=1.0, n=64).nodes
                          for k in range(surface.n_caps)])
    calls = []
    contour = faber.schiffer_contour

    def counting(surface, k, m, z, **kwargs):
        calls.append((k, list(m)))
        return contour(surface, k, m, z, **kwargs)

    monkeypatch.setattr(faber, "schiffer_contour", counting)
    got = target.form(pts)
    # orders 1..6 share one radius step
    assert calls == [(0, list(range(1, 7))), (1, list(range(1, 7)))]
    monkeypatch.undo()
    terms = [known["epsilon"][0] * beta_form(surface, 0)(pts),
             known["c"][0] * gamma_basis(surface)[0](pts)]
    terms += [v * faber_form(surface, k, m).form(pts) for (m, k), v in known["h"].items()]
    want = np.sum(terms, axis=0)
    scale = np.sum(np.abs(terms), axis=0)
    assert np.all(np.abs(got - want) <= 1e-13 * scale)


def test_sparse_combination_reads_only_its_orders(monkeypatch):
    surface = two_cap_sphere()
    h = np.zeros((9, 2), dtype=complex)
    h[2, 0], h[8, 1] = 1.0, 2.0
    target = explicit_target(surface, [0.0], [], h)
    centers = surface.caps.centers
    assert target.form.poles == ((centers[0], 4), (centers[1], 10))
    pts = np.array([4.0 + 1.0j, -2.5 + 2.0j, 0.5 - 3.0j])
    calls = []
    contour = faber.schiffer_contour

    def counting(surface, k, m, z, **kwargs):
        calls.append((k, list(m)))
        return contour(surface, k, m, z, **kwargs)

    monkeypatch.setattr(faber, "schiffer_contour", counting)
    got = target.form(pts)
    assert calls == [(0, [3]), (1, [9])]
    monkeypatch.undo()
    want = faber_form(surface, 0, 3).form(pts) + 2.0 * faber_form(surface, 1, 9).form(pts)
    assert np.max(np.abs(got - want)) <= 1e-13 * np.max(np.abs(want))


def test_faber_series_poles_follow_order_then_cap():
    surface = torus_two_caps()
    dec = project_faber(build_target(surface, "combination", seed=3, order=2), surface,
                        M=3, checkpoints=())
    assert np.all(dec.h != 0) and np.all(dec.epsilon != 0) and np.all(dec.c != 0)
    # the poles of the closed part, every beta form then gamma, then one
    # per nonzero h entry, order by order and cap by cap within an order
    closed = OneForm.combine([(dec.epsilon[0], beta_form(surface, 0)),
                              (dec.c[0], gamma_basis(surface)[0])])
    want = closed.poles + tuple((surface.caps[k].center, m + 1)
                                for m in range(1, 4) for k in range(2))
    assert faber.faber_series(surface, dec.epsilon, dec.c, dec.h).poles == want
