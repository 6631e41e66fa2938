"""Built-in target families for decomposition experiments.

Each family records what it knows about its own coefficients in
``TargetForm.known`` so tests and reports can compare recovered values
against construction values without re-deriving them:

    basis        one cap basis form; everything zero except one h entry
    pole         double pole inside a cap, the geometry's ``double_pole``,
                 which gives its known h column or lattice coefficient
    combination  a finite combination of basis terms drawn from a seed,
                 evaluated as a ``faber.faber_series``
"""

from __future__ import annotations

import inspect

import numpy as np

from .faber import faber_form, faber_series
from .numerics import Pcg64Stream, ValidationError
from .schiffer import guard_order
from .series import MEASURING_RADII, POLE_CLEARANCE, TargetForm
from .surface import OneForm, SurfaceSpec, gamma_basis
from .theta import log_derivative2


def _basis_target(surface, k: int = 0, m: int = 1) -> TargetForm:
    surface.cap(int(k), key="target.k")
    guard_order(int(m), key="target.m")
    el = faber_form(surface, int(k), int(m))
    known = {
        "epsilon": np.zeros(surface.n_caps, dtype=complex),
        "c": np.zeros(len(gamma_basis(surface)), dtype=complex),
        "h": {(int(m), int(k)): 1.0 + 0.0j},
    }
    return TargetForm(el.form, label=f"basis[{k},{m}]", known=known)


def _pole_target(surface, cap: int = 0, eta: complex = 0.5,
                 strength: complex = 1.0) -> TargetForm:
    k = int(cap)
    surface.cap(k, key="target.cap")
    eta = complex(eta)
    # the depth the solve's own guard admits inside its inner measuring circle
    depth = min(MEASURING_RADII) - POLE_CLEARANCE
    if not abs(eta) <= depth:
        raise ValidationError(f"target.eta: the pole preimage must satisfy |eta| <= {depth:.4g}, "
                              f"got {abs(eta):.4g}")
    # the torus form reads (log theta1)'' through this module's binding, an
    # import site that perfbench's tracer rebinds
    a, ev, known = surface.geometry.double_pole(k, eta, complex(strength), log_derivative2)
    known = {"epsilon": np.zeros(surface.n_caps, dtype=complex), **known}
    return TargetForm(OneForm(ev, poles=((a, 2),)), label=f"pole[cap {k}]", known=known)


def _combination_target(surface, seed, order=6) -> TargetForm:
    """Terms epsilon, c and h drawn from ``seed``, h of orders 1..``order``
    shrinking like 0.75 to the power m."""
    order = int(order)
    if order < 0:
        raise ValidationError(f"target.order: must be >= 0, got {order}")
    if order:  # order 0 draws no h terms
        guard_order(order, key="target.order")
    rng = Pcg64Stream(int(seed))

    def draw(size):
        return rng.normal(size) + 1j * rng.normal(size)

    n = surface.n_caps
    epsilon = draw(n - 1)
    c = draw(len(gamma_basis(surface)))
    h = {(m, k): complex(draw(()) * 0.75**m) for m in range(1, order + 1) for k in range(n)}
    if not (epsilon.size or c.size or h):
        raise ValidationError("combination target has no nonzero terms")
    h_matrix = np.array(list(h.values()), dtype=complex).reshape(order, n)
    form = faber_series(surface, epsilon, c, h_matrix)
    known = {"epsilon": np.concatenate([epsilon, [-np.sum(epsilon)]]), "c": c, "h": h}
    return TargetForm(form, label="combination", known=known)


FAMILIES = {
    "basis": _basis_target,
    "pole": _pole_target,
    "combination": _combination_target,
}


def build_target(surface: SurfaceSpec, kind: str, **params) -> TargetForm:
    """Build a target of family ``kind``; a keyword its builder does not
    take, or one it requires and is not given, is rejected by name."""
    if kind not in FAMILIES:
        raise ValidationError(f"target.family: unknown family {kind!r}; "
                              f"choose from {tuple(FAMILIES)}")
    builder = FAMILIES[kind]
    takes = dict(list(inspect.signature(builder).parameters.items())[1:])  # all but the surface
    for key in params:
        if key not in takes:
            raise ValidationError(
                f"target.{key}: not a parameter of the {kind} family, "
                f"which takes {', '.join(takes)}"
            )
    for key, p in takes.items():
        if p.default is p.empty and key not in params:
            raise ValidationError(f"target.{key}: required by the {kind} family")
    return builder(surface, **params)
