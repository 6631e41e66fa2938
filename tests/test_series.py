import os
import sys

import numpy as np
import pytest

from faberforms import faber
from faberforms.config import parse_config
from faberforms.conformal import AffineMap, CapFamily, JoukowskiEllipseMap
from faberforms.faber import faber_form
from faberforms.numerics import DiskGrid, NumericalError, ValidationError, area_pairing
from faberforms.series import (
    ExteriorPairing,
    SeriesDecomposition,
    TargetForm,
    _split_target,
    boundary_coefficients,
    cycle_coefficients,
    invariance_check,
    project_faber,
    series_evaluator,
    uniform_error,
    uniform_errors,
)
from faberforms.surface import OneForm, SurfaceSpec, beta_form, boundary_cycle, gamma_basis
from faberforms.targets import build_target

TAU = 0.3 + 1.1j
ROOT = os.path.join(os.path.dirname(__file__), "..")


def identity_cap_sphere():
    return SurfaceSpec.sphere(CapFamily([AffineMap(1.0)]), w0=4.0 + 3.0j)


def joukowski_sphere():
    return SurfaceSpec.sphere(
        CapFamily([JoukowskiEllipseMap(0.25, scale=1.0, offset=0.0)]), w0=5.0 + 4.0j
    )


def two_cap_sphere():
    caps = CapFamily([AffineMap(0.4), JoukowskiEllipseMap(0.25, scale=0.3, offset=2.5)])
    return SurfaceSpec.sphere(caps, w0=1.0 - 2.0j)


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
    pairing = ExteriorPairing(surface)
    data = [pairing.data(faber_form(surface, 0, m).form) for m in range(1, 6)]
    for i, di in enumerate(data, start=1):
        for j, dj in enumerate(data, start=1):
            val = pairing.inner(di, dj)
            want = 2.0 * np.pi * i if i == j else 0.0
            assert abs(val - want) < 1e-10, (i, j, val)


def test_pairing_matches_area_quadrature():
    # independent route: exterior L2 norm computed as a genuine area
    # integral in the 1/z chart
    surface = identity_cap_sphere()
    pairing = ExteriorPairing(surface)
    for m, j in ((1, 1), (2, 2), (1, 2), (3, 2)):
        fm = faber_form(surface, 0, m).form
        fj = faber_form(surface, 0, j).form
        via_boundary = pairing.inner(pairing.data(fm), pairing.data(fj))
        via_area = area_pairing(fm, fj, _InversionChart(), DiskGrid(64, 128))
        assert abs(via_boundary - via_area) < 1e-8, (m, j)


def test_gram_by_products_matches_inner_double_loop():
    # the Gram of the M = 40 Joukowski config, once from the stacked
    # multi-order data by one product and once entry by entry from the
    # per-form data of single-order evaluators
    config = parse_config(os.path.join(ROOT, "configs", "sphere_joukowski.cfg"))
    surface, M = config.surface, config.M
    pairing = ExteriorPairing(surface)
    stacked = pairing.alpha_data(M)
    gram = pairing.inner(stacked, stacked).T
    data = [pairing.data(faber_form(surface, 0, m, max_order=M).form) for m in range(1, M + 1)]
    step = 2.0 * np.pi / pairing.n_boundary
    loop = np.zeros((M, M), dtype=complex)
    for i, di in enumerate(data):
        for j, dj in enumerate(data):
            boundary = sum(step * np.sum(Fj * np.conj(gi)) for Fj, gi in zip(dj.F, di.g))
            loop[i, j] = 1j * (dj.a * np.conj(di.b) - dj.b * np.conj(di.a) - boundary)
    assert np.max(np.abs(gram - loop)) <= 1e-13 * np.max(np.abs(loop))


def test_stacked_residual_matches_sequential_subtraction():
    surface = torus_two_caps()
    pairing = ExteriorPairing(surface)
    data = pairing.alpha_data(3)
    target = build_target(surface, "combination", epsilon=[0.0], c=[0.7],
                          h={(1, 0): 0.5, (2, 1): -0.2j})
    rho = pairing.data(target.form)
    x = np.array([0.3 - 0.1j, 1.2, -0.5j, 0.25, 0.1 + 0.1j])
    g, F, a, b = rho.g, rho.F, rho.a, rho.b
    for i, xi in enumerate(x):
        g, F = g - xi * data.g[..., i], F - xi * data.F[..., i]
        a, b = a - xi * data.a[i], b - xi * data.b[i]
    stacked = rho - data.combine(x)
    for got, want in zip((stacked.g, stacked.F, stacked.a, stacked.b), (g, F, a, b)):
        assert np.max(np.abs(got - want)) < 1e-13


def test_pairing_torus_gamma_norm():
    surface = torus_two_caps()
    pairing = ExteriorPairing(surface)
    d = pairing.data(gamma_basis(surface)[0])
    want = 2.0 * (TAU.imag - 2.0 * np.pi * 0.11**2)
    assert abs(pairing.inner(d, d) - want) < 1e-10


def test_pairing_rejects_unsuitable_forms():
    surface = torus_two_caps()
    pairing = ExteriorPairing(surface)
    conj_gamma = OneForm(lambda z: np.ones(np.shape(z), dtype=complex), conjugate=True)
    with pytest.raises(ValidationError, match="dz-type"):
        pairing.data(conj_gamma)
    with pytest.raises(NumericalError, match="mean"):
        pairing.data(beta_form(surface, 0))


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


def test_boundary_coefficients_pole_guards():
    surface = two_cap_sphere()
    f = surface.caps[1]
    a = complex(f.evaluate(0.88))
    declared = OneForm(lambda z: 1.0 / (np.asarray(z, dtype=complex) - a) ** 2,
                       poles=((a, 2),))
    with pytest.raises(ValidationError, match="close"):
        boundary_coefficients(declared, surface, radii=(0.85, 1.0))
    # an undeclared simple pole between the two circles changes the period
    b = complex(f.evaluate(0.97))
    hidden = OneForm(lambda z: 1.0 / (np.asarray(z, dtype=complex) - b))
    with pytest.raises(NumericalError, match="moved"):
        boundary_coefficients(hidden, surface)


def test_cycle_coefficients_torus():
    surface = torus_two_caps()
    gamma = gamma_basis(surface)[0]
    c, d = cycle_coefficients(gamma, surface)
    assert abs(c[0] - 1.0) < 1e-12 and abs(d[0]) < 1e-12
    conj_gamma = OneForm(lambda z: np.ones(np.shape(z), dtype=complex), conjugate=True)
    c2, d2 = cycle_coefficients(conj_gamma, surface)
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
    with pytest.raises(ValidationError, match="margin"):
        uniform_error(target, surface, dec, np.array([1.4 + 0.0j]), margin=0.5)


def test_uniform_errors_read_the_ring_once_for_every_order(monkeypatch):
    surface = joukowski_sphere()
    target = build_target(surface, "pole", cap=0, eta=0.55)
    dec = project_faber(target, surface, M=20, checkpoints=(5, 10))
    ring = 2.0 * np.exp(2j * np.pi * np.arange(40) / 40)
    orders = (5, 10, 15, 20)
    want = [uniform_error(target, surface, dec, ring, upto=mp) for mp in orders]
    form, sizes = _counting(target.form)
    calls = []
    contour = faber.schiffer_contour

    def counting(surface, k, m, z, **kwargs):
        calls.append(list(m))
        return contour(surface, k, m, z, **kwargs)

    monkeypatch.setattr(faber, "schiffer_contour", counting)
    got = uniform_errors(TargetForm(form), surface, dec, ring, orders)
    # one target read and one basis read per radius step of orders 1..20
    assert sizes == [40]
    assert calls == [list(range(1, 7)), list(range(7, 13)), list(range(13, 21))]
    monkeypatch.undo()
    assert np.allclose(got, want, rtol=1e-14, atol=0.0)
    with pytest.raises(ValidationError, match="margin"):
        uniform_errors(target, surface, dec, np.array([1.4 + 0.0j]), orders, margin=0.5)


def test_uniform_errors_match_per_order_reads_torus():
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
    got = uniform_errors(target, surface, dec, ring, orders)
    assert min(want) > 1e-6
    assert np.allclose(got, want, rtol=1e-14, atol=0.0)


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
    h = {(1, 0): 0.8, (2, 1): -0.3j, (3, 0): 0.1 + 0.2j}
    target = build_target(surface, "combination", epsilon=[0.5], h=h)
    d6 = project_faber(target, surface, M=6, checkpoints=())
    d9 = project_faber(target, surface, M=9, checkpoints=())
    assert np.max(np.abs(d6.h[:3] - d9.h[:3])) < 1e-8
    for (m, k), v in h.items():
        assert abs(d9.h[m - 1, k] - v) < 1e-9


def test_series_evaluator_reproduces_target():
    surface = identity_cap_sphere()
    target = build_target(surface, "basis", k=0, m=2)
    dec = project_faber(target, surface, M=3, checkpoints=())
    partial = series_evaluator(surface, dec)
    pts = np.array([2.0 + 1.0j, -3.0, 1.5j])
    assert np.max(np.abs(partial(pts) - target.form(pts))) < 1e-9
    err = uniform_error(target, surface, dec, pts)
    assert err < 1e-9
    with pytest.raises(ValidationError, match="order"):
        series_evaluator(surface, dec, upto=7)


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


def test_series_evaluator_order_past_roundoff_bound_raises():
    # no silent order ceiling: an order whose contour read amplifies
    # roundoff past the bound fails loudly and names the figure
    surface = identity_cap_sphere()
    M = 250
    dec = SeriesDecomposition(
        epsilon=np.zeros(1, dtype=complex), c=np.zeros(0), d=np.zeros(0),
        h=np.ones((M, 1), dtype=complex), M=M, residual_history=(),
        gram_condition=1.0, regularized=False, consistency=0.0,
    )
    partial = series_evaluator(surface, dec)
    with pytest.raises(NumericalError,
                       match=r"order 250 on the contour radius 0\.92 .* = 2\.5\de-07"):
        partial(np.array([3.0 + 1.0j]))


def test_invariance_identity_is_exact():
    surface = two_cap_sphere()
    dev = invariance_check(
        surface, lambda s: build_target(s, "pole", cap=1, eta=0.3), 0.0, M=3,
        checkpoints=(),
    )
    assert dev < 1e-14


def test_invariance_under_sphere_translation():
    surface = joukowski_sphere()
    dev = invariance_check(
        surface, lambda s: build_target(s, "pole", cap=0, eta=0.55), 0.7 - 0.3j,
        M=4, checkpoints=(),
    )
    assert dev < 1e-8


def test_project_rejects_bad_order():
    surface = identity_cap_sphere()
    target = build_target(surface, "basis")
    with pytest.raises(ValidationError, match="order"):
        project_faber(target, surface, M=0)


def test_build_target_validation():
    surface = two_cap_sphere()
    with pytest.raises(ValidationError, match="family"):
        build_target(surface, "mystery")
    with pytest.raises(ValidationError, match="eta"):
        build_target(surface, "pole", cap=0, eta=0.95)
    with pytest.raises(ValidationError, match="epsilon"):
        build_target(surface, "combination", epsilon=[1.0, 2.0], h={(1, 0): 1.0})
    with pytest.raises(ValidationError, match="out of range"):
        build_target(surface, "combination", h={(0, 0): 1.0})


def _counting(form):
    sizes = []

    def ev(z):
        sizes.append(np.size(z))
        return form.evaluator(z)

    return OneForm(ev, poles=form.poles, label=form.label), sizes


def test_project_samples_the_target_once_per_node_set():
    # each cap's circles at radii 0.95 and 1 (512 nodes), then on the torus
    # the a and b cycles (64 nodes): 2n + 2 evaluations, 2n on the sphere
    torus, sphere = torus_two_caps(), two_cap_sphere()
    cases = (
        (torus, build_target(torus, "combination", seed=3, order=2), [512] * 4 + [64] * 2),
        (sphere, build_target(sphere, "pole", cap=1, eta=0.3), [512] * 4),
        (joukowski_sphere(), build_target(joukowski_sphere(), "pole", cap=0, eta=0.55),
         [512] * 2),
    )
    for surface, target, want in cases:
        form, sizes = _counting(target.form)
        dec = project_faber(TargetForm(form), surface, M=3, checkpoints=())
        assert sizes == want
        ref = project_faber(target, surface, M=3, checkpoints=())
        assert np.array_equal(dec.h, ref.h)


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
    return eps, c, d, ExteriorPairing(surface).data(rho)


@pytest.mark.parametrize("name", ["torus_two_caps", "sphere_joukowski"])
def test_sampled_split_matches_the_wrapper_path(name):
    config = parse_config(os.path.join(ROOT, "configs", f"{name}.cfg"))
    got = _split_target(config.target.form, ExteriorPairing(config.surface))
    want = _wrapper_path(config.target, config.surface)
    rho, rho_want = got[3], want[3]
    pairs = list(zip(got[:3], want[:3])) + [
        (rho.g, rho_want.g), (rho.F, rho_want.F), (rho.a, rho_want.a), (rho.b, rho_want.b),
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
    conj = OneForm(lambda z: np.ones(np.shape(z), dtype=complex), conjugate=True)
    with pytest.raises(ValidationError, match="dz-type"):
        project_faber(TargetForm(conj), surface, M=2)


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
