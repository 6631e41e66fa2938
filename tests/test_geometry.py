"""Each geometry reads points as points of its surface.

On the torus every point-to-point and point-to-cap measure must read w,
w + 1, w + tau and w - 2 + 3 tau alike, and refuse a point on a lattice
copy of a mark or a cap as it refuses the mark or the cap itself. On the
sphere the same measures read the points as given: w + 1 is another
point. ``lattice_mismatches`` lists every measure that breaks its
geometry's rule, so a torus path that forgets the lattice copies fails
here, by name.
"""

import numpy as np
import pytest

from faberforms.conformal import AffineMap, CapFamily
from faberforms.numerics import NumericalError, ValidationError
from faberforms.geometry import Torus
from faberforms.series import boundary_coefficients
from faberforms.surface import OneForm, SurfaceSpec, green, schiffer_kernel

TAU = 0.3 + 1.1j
PERIODS = (1.0, TAU, -2.0 + 3.0 * TAU)


def sphere():
    caps = CapFamily([AffineMap(0.4), AffineMap(0.4, offset=2.0)])
    return SurfaceSpec.sphere(caps, w0=1.0 + 2.0j)


def torus():
    caps = CapFamily([AffineMap(0.11, offset=0.39 + 0.33j),
                      AffineMap(0.11, offset=0.924 + 0.748j)])
    return SurfaceSpec.torus(TAU, caps)


def measures(surface, w, mark) -> dict:
    """Every point-to-point and point-to-cap measure at the points w, with
    ``mark`` as the other point."""
    return {
        "distance": surface.distance(w, [mark]),
        "in_sigma": surface.in_sigma(w),
        "distance_to_caps_reduced": surface.distance_to_caps_reduced(w),
        "green": green(surface, w, mark),
        "schiffer_kernel": schiffer_kernel(surface, w, mark),
    }


def as_given(surface, w, mark) -> dict:
    """The same measures on the plane, the points taken as given."""
    w0 = surface.w0
    return {
        "distance": np.abs(w - mark),
        "in_sigma": surface.caps.which_cap(w) == -1,
        "distance_to_caps_reduced": surface.caps.distance_to_caps(w),
        "green": np.log(np.abs(mark - w0)) - np.log(np.abs(w - mark)),
        "schiffer_kernel": -1.0 / (np.pi * (w - mark) ** 2),
    }


def _refused(call, reason: str = "") -> bool:
    try:
        call()
    except (NumericalError, ValidationError) as exc:
        return reason in str(exc)
    return False


def refusals(surface, mark) -> dict:
    """Whether each measure refuses a point on the mark, or on cap 0's
    center for the caps, at each shift of the point; the declared-pole
    guard of the series, whether it refuses a pole at f_0(0.93), outside
    the inner measuring circle of cap 0, as sitting too close to it."""
    center = complex(surface.caps.centers[0])
    near = complex(surface.caps[0].evaluate(0.93))
    return {
        "declared pole": lambda p: _refused(lambda: boundary_coefficients(
            OneForm(np.ones_like, poles=((near + p, 2),)), surface), "sits too close"),
        "green": lambda p: _refused(lambda: green(surface, mark + p, mark)),
        "schiffer_kernel": lambda p: _refused(lambda: schiffer_kernel(surface, mark + p, mark)),
        "require_clear": lambda p: _refused(lambda: surface.require_clear(center + p, 0.0, "w")),
        "marked points": lambda p: _refused(lambda: SurfaceSpec(
            surface.genus, surface.caps, tau=surface.tau, q=mark, w0=mark + p)),
    }


def lattice_mismatches(surface) -> list:
    """(measure, shift) for every measure that breaks its geometry's rule:
    on the torus the same reads at every lattice shift of the points and
    of the mark, and the same refusals; on the sphere the reads of the
    points as given, and no refusal of a shifted point."""
    mark = surface.clear_point(avoid=(surface.q, surface.w0))
    w = mark + 0.1 * np.exp(2j * np.pi * np.arange(3) / 3)
    assert np.all(surface.distance_to_caps_reduced(w) > 0.05)
    base, bad = measures(surface, w, mark), []
    lattice = isinstance(surface.geometry, Torus)
    for p in PERIODS:
        want = base if lattice else as_given(surface, w + p, mark)
        for shifted in (measures(surface, w + p, mark),
                        measures(surface, w, mark - p) if lattice else {}):
            bad += [(name, p) for name, value in shifted.items()
                    if not np.allclose(value, want[name], rtol=1e-10, atol=1e-12)]
        for name, refuses in refusals(surface, mark).items():
            if refuses(p) != lattice or not refuses(0.0):
                bad.append((f"refusal by {name}", p))
    return bad


@pytest.mark.parametrize("make", [sphere, torus])
def test_every_measure_reads_points_of_its_surface(make):
    assert lattice_mismatches(make()) == []


@pytest.mark.parametrize("skip, named", [
    # the reduction into the cell taken as the identity
    (("reduce", lambda self, w: w),
     {"distance", "refusal by require_clear", "refusal by declared pole"}),
    # each point read as its own one copy, as on the sphere
    (("copies", lambda self, w: np.asarray(w)[None]),
     {"distance", "refusal by green", "refusal by marked points"}),
], ids=["reduce", "copies"])
def test_a_torus_path_that_skips_the_lattice_copies_is_named(monkeypatch, skip, named):
    monkeypatch.setattr(Torus, *skip)
    with np.errstate(divide="ignore"):  # a Green's function read on its singularity
        assert named <= {name for name, _p in lattice_mismatches(torus())}
