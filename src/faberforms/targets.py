"""Built-in target families for decomposition experiments.

Each family records what it knows about its own coefficients in
``TargetForm.known`` so tests and reports can compare recovered values
against construction values without re-deriving them:

    basis        one cap basis form; everything zero except one h entry
    pole         double pole inside a cap, the geometry's ``double_pole``,
                 which gives its known h column or lattice coefficient
    combination  explicit or seeded finite combination of basis terms,
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
    return TargetForm(OneForm(ev, poles=((a, 2),), label=f"pole[{a:.3g}]"),
                      label=f"pole[cap {k}]", known=known)


def _combination_target(surface, epsilon=None, c=None, h=None, seed=None,
                        order=None, decay=None) -> TargetForm:
    """Explicit terms epsilon, c and h, or terms drawn from ``seed`` up to
    ``order`` (default 6) with h shrinking like ``decay`` (default 0.75)
    to the power m; a term of the other kind is rejected by name."""
    if seed is None:
        stray = {"order": order, "decay": decay}
        why = "only shape the terms that target.seed draws, and no seed is given"
    else:
        stray = {"epsilon": epsilon, "c": c, "h": h}
        why = "cannot be mixed with target.seed, which draws every term"
    named = [f"target.{key}" for key, value in stray.items() if value is not None]
    if named:
        raise ValidationError(f"{', '.join(named)}: {why}")
    n = surface.n_caps
    g = len(gamma_basis(surface))
    if seed is not None:
        order = 6 if order is None else int(order)
        decay = 0.75 if decay is None else decay
        if order < 0:
            raise ValidationError(f"target.order: must be >= 0, got {order}")
        if order:  # order 0 draws no h terms
            guard_order(order, key="target.order")
        try:
            float(abs(decay)) ** order
        except OverflowError:
            raise ValidationError(f"target.decay: {decay:g} to the power {order} "
                                  f"overflows a float") from None
        rng = Pcg64Stream(int(seed))

        def draw(size):
            return rng.normal(size) + 1j * rng.normal(size)

        epsilon = draw(n - 1)
        c = draw(g)
        h = {
            (m, k): complex(draw(()) * decay**m)
            for m in range(1, order + 1)
            for k in range(n)
        }
    epsilon = np.zeros(n - 1, dtype=complex) if epsilon is None else np.asarray(
        epsilon, dtype=complex
    )
    c = np.zeros(g, dtype=complex) if c is None else np.asarray(c, dtype=complex)
    h = {} if h is None else {
        (int(m), int(k)): complex(v) for (m, k), v in dict(h).items()
    }
    guard_order([m for m, _k in h], key="target.h")
    for _m, k in h:
        surface.cap(k, key="target.h")
    if epsilon.size != n - 1:
        raise ValidationError(f"target.epsilon: needs {n - 1} entries, got {epsilon.size}")
    if c.size != g:
        raise ValidationError(f"target.c: needs {g} entries, got {c.size}")
    h_matrix = np.zeros((max([0, *(m for m, _k in h)]), n), dtype=complex)
    for (m, k), v in h.items():
        h_matrix[m - 1, k] = v
    if not (np.any(epsilon) or np.any(c) or np.any(h_matrix)):
        raise ValidationError("combination target has no nonzero terms")
    form = faber_series(surface, epsilon, c, h_matrix, label="combination")
    eps_full = np.concatenate([epsilon, [-np.sum(epsilon)]])
    known = {"epsilon": eps_full, "c": c, "h": dict(h)}
    return TargetForm(form, label="combination", known=known)


FAMILIES = {
    "basis": _basis_target,
    "pole": _pole_target,
    "combination": _combination_target,
}


def build_target(surface: SurfaceSpec, kind: str, **params) -> TargetForm:
    """Build a target of family ``kind``; a keyword its builder does not
    take is rejected by name."""
    if kind not in FAMILIES:
        raise ValidationError(f"target.family: unknown family {kind!r}; "
                              f"choose from {tuple(FAMILIES)}")
    builder = FAMILIES[kind]
    takes = list(inspect.signature(builder).parameters)[1:]  # all but the surface
    for key in params:
        if key not in takes:
            raise ValidationError(
                f"target.{key}: not a parameter of the {kind} family, "
                f"which takes {', '.join(takes)}"
            )
    return builder(surface, **params)
