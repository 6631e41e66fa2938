"""One guard per precondition, and every public entry point held to it.

A cap index is checked by ``SurfaceSpec.cap``, an order by
``schiffer.guard_order``, the genus by ``SurfaceSpec`` and the lattice
parameter by ``theta.check_tau``, and a point's clearance from the caps by
``SurfaceSpec.require_clear``. Each test below calls every public function
that takes the input with a bad value and matches the guard's one message,
after the key a target parameter is named by."""

import numpy as np
import pytest

from faberforms import theta
from faberforms.conformal import AffineMap, CapFamily
from faberforms.faber import (
    PRINCIPAL_RADIUS,
    FaberBasisElement,
    alpha_values,
    faber_form,
    faber_polynomial,
    principal_part,
)
from faberforms.numerics import ValidationError
from faberforms.schiffer import (
    CapDatum,
    apply_schiffer,
    contour_radius,
    guard_order,
    order_limit,
    schiffer_contour,
)
from faberforms.series import project_faber, uniform_error
from faberforms.surface import OneForm, SurfaceSpec, boundary_cycle
from faberforms.targets import build_target

TAU = 0.3 + 1.1j
Z = 2.0 + 2.0j  # a point clear of both caps of the sphere below


def sphere_two_caps():
    caps = CapFamily([AffineMap(0.4), AffineMap(0.4, offset=2.0)])
    return SurfaceSpec.sphere(caps, w0=1.0 + 2.0j)


CAP_ENTRIES = {
    "SurfaceSpec.cap": ("", lambda s, k: s.cap(k)),
    "boundary_cycle": ("", lambda s, k: boundary_cycle(s, k)),
    "schiffer_contour": ("", lambda s, k: schiffer_contour(s, k, 1, Z)),
    "apply_schiffer": ("", lambda s, k: apply_schiffer(s, CapDatum.monomial(k, 1), Z)),
    "apply_schiffer-stack": (
        "", lambda s, k: apply_schiffer(s, [CapDatum.monomial(0, 1), CapDatum.monomial(k, 2)], Z)),
    "faber_form": ("", lambda s, k: faber_form(s, k, 1)),
    "alpha_values": ("", lambda s, k: alpha_values(s, k, [1, 2], Z)),
    # raised a bare IndexError for k = n_caps
    "principal_part": (
        "", lambda s, k: principal_part(s, FaberBasisElement(OneForm(np.ones_like), k, 1))),
    "principal_part-list": (
        "", lambda s, k: principal_part(s, [FaberBasisElement(OneForm(np.ones_like), k, 1)])),
    "basis-target": ("target.k: ", lambda s, k: build_target(s, "basis", k=k)),
    "pole-target": ("target.cap: ", lambda s, k: build_target(s, "pole", cap=k)),
}


@pytest.mark.parametrize("k", [2, -1])
@pytest.mark.parametrize("entry", list(CAP_ENTRIES))
def test_every_cap_index_is_refused_by_one_guard(entry, k):
    prefix, call = CAP_ENTRIES[entry]
    with pytest.raises(ValidationError, match=rf"^{prefix}cap index {k} out of range$"):
        call(sphere_two_caps(), k)


def _past(r0):
    # the first order past the roundoff limit of a read on r0, and the limit
    return order_limit(r0) + 1, order_limit(r0)


TOP = contour_radius(10**6)  # the radius of every basis read from order 49 on
ORDER_ENTRIES = {
    "guard_order": ("order", None, lambda s, m: guard_order(m)),
    "CapDatum.monomial": ("order", None, lambda s, m: CapDatum.monomial(0, m)),
    "schiffer_contour": ("order", None, lambda s, m: schiffer_contour(s, 0, m, Z)),
    "schiffer_contour-r0": ("order", 0.5, lambda s, m: schiffer_contour(s, 0, m, Z, r0=0.5)),
    "faber_form": ("order", None, lambda s, m: faber_form(s, 0, m)),
    "alpha_values": ("order", None, lambda s, m: alpha_values(s, 0, [1, m], Z)),
    "principal_part": ("order", PRINCIPAL_RADIUS, lambda s, m: principal_part(
        s, FaberBasisElement(OneForm(np.ones_like), 0, m))),
    "principal_part-list": ("order", PRINCIPAL_RADIUS, lambda s, m: principal_part(
        s, [FaberBasisElement(OneForm(np.ones_like), 0, j) for j in (1, m)])),
    "faber_polynomial": ("order", None, lambda s, m: faber_polynomial(AffineMap(1.0), m)),
    "project_faber": ("M", None,
                      lambda s, m: project_faber(build_target(s, "basis"), s, m)),
    "basis-target": ("target.m", None, lambda s, m: build_target(s, "basis", m=m)),
}


@pytest.mark.parametrize("entry", list(ORDER_ENTRIES))
def test_every_order_below_one_or_past_its_roundoff_limit_is_refused_by_one_guard(entry):
    key, r0, call = ORDER_ENTRIES[entry]
    surface = sphere_two_caps()
    with pytest.raises(ValidationError, match=rf"^{key}: must be >= 1, got 0$"):
        call(surface, 0)
    r0 = TOP if r0 is None else r0
    m, top = _past(r0)
    with pytest.raises(ValidationError) as err:
        call(surface, m)
    assert str(err.value) == (f"{key}: must be <= {top}, the roundoff limit of a read on the "
                              f"contour radius {r0:.4g}, got {m}")


@pytest.mark.parametrize("call, message", [
    (lambda caps: SurfaceSpec(2, caps), "genus: must be 0 or 1, got 2"),
    (lambda caps: SurfaceSpec(1, caps), "tau: required for genus 1"),
    (lambda caps: SurfaceSpec(0, caps, tau=TAU), "tau: not allowed for genus 0"),
    (lambda caps: SurfaceSpec.torus(0.3 - 1.1j, caps),
     "tau: Im tau must be positive, got (0.3-1.1j)"),
    (lambda caps: theta.log_derivative(0.1, 1.0), "tau: Im tau must be positive, got (1+0j)"),
    (lambda caps: theta.log_derivative2(0.1, 0j), "tau: Im tau must be positive, got 0j"),
    (lambda caps: theta.log_abs(0.1, -1j), "tau: Im tau must be positive, got (-0-1j)"),
], ids=["genus", "tau-missing", "tau-on-sphere", "surface-tau", "log_derivative",
        "log_derivative2", "log_abs"])
def test_the_genus_and_tau_are_refused_by_one_guard(call, message):
    caps = CapFamily([AffineMap(0.11, offset=0.5 + 0.5 * TAU)])
    with pytest.raises(ValidationError) as err:
        call(caps)
    assert str(err.value) == message


def test_a_point_in_a_cap_is_refused_by_one_guard():
    surface = sphere_two_caps()
    caps = surface.caps
    dec = project_faber(build_target(surface, "basis"), surface, 1)
    for name, call in [
        ("marked point q", lambda p: SurfaceSpec.sphere(caps, q=p)),
        ("marked point w0", lambda p: SurfaceSpec.sphere(caps, w0=p)),
        ("evaluation point z", lambda p: apply_schiffer(surface, CapDatum.monomial(0, 1), p)),
        ("probe point z", lambda p: uniform_error(build_target(surface, "basis"), surface, dec,
                                                  [Z, p])),
    ]:
        with pytest.raises(ValidationError, match=rf"^{name} = 2\.1\+0j lies in a closed cap$"):
            call(2.1)
    # a point clear of the caps but inside a margin names its distance
    with pytest.raises(ValidationError, match=r"^probe point z = 2\.45\+0j is 0\.050 from a cap, "
                                              r"inside the margin 0\.1$"):
        surface.require_clear([Z, 2.45], 0.1, "probe point z")
    assert surface.require_clear(Z, 0.1, "probe point z").shape == (1,)
