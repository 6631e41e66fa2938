"""Faber series decompositions of holomorphic one-forms on capped surfaces.

The package builds surfaces of genus 0 or 1 with conformally mapped caps
removed, evaluates the integral operator attached to the Green's
function of the cap complement, constructs the resulting basis of
meromorphic one-forms, and decomposes target forms against that basis
with verifiable residuals. The command-line entry point drives complete
experiments from INI configs; see the README for a tour.
"""

__version__ = "0.1.0"

from .conformal import (
    AffineMap,
    CapFamily,
    ConformalMap,
    JoukowskiEllipseMap,
    PolynomialCapMap,
    make_map,
)
from .faber import (
    FaberBasisElement,
    LaurentTail,
    faber_form,
    faber_polynomial,
    principal_part,
)
from .numerics import (
    DiskGrid,
    NumericalError,
    PowerSeries,
    ValidationError,
    area_pairing,
    least_squares,
)
from .schiffer import CapDatum, apply_schiffer, contour_nodes, contour_radius, schiffer_contour
from .series import (
    ExteriorPairing,
    SeriesDecomposition,
    TargetForm,
    invariance_check,
    project_faber,
    uniform_error,
)
from .surface import (
    Cycle,
    OneForm,
    SurfaceSpec,
    beta_form,
    gamma_basis,
    green,
    lattice_cycles,
    period,
    schiffer_kernel,
)
from .targets import FAMILIES, build_target

__all__ = [
    "AffineMap",
    "CapDatum",
    "CapFamily",
    "ConformalMap",
    "Cycle",
    "DiskGrid",
    "ExteriorPairing",
    "FAMILIES",
    "FaberBasisElement",
    "JoukowskiEllipseMap",
    "LaurentTail",
    "NumericalError",
    "OneForm",
    "PolynomialCapMap",
    "PowerSeries",
    "SeriesDecomposition",
    "SurfaceSpec",
    "TargetForm",
    "ValidationError",
    "apply_schiffer",
    "area_pairing",
    "beta_form",
    "build_target",
    "contour_nodes",
    "contour_radius",
    "faber_form",
    "faber_polynomial",
    "gamma_basis",
    "green",
    "invariance_check",
    "lattice_cycles",
    "least_squares",
    "make_map",
    "period",
    "principal_part",
    "project_faber",
    "schiffer_contour",
    "schiffer_kernel",
    "uniform_error",
    "__version__",
]
