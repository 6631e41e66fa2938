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
    MoebiusComposedMap,
    PolynomialCapMap,
    make_map,
)
from .faber import (
    FaberBasisElement,
    LaurentTail,
    beta_element,
    faber_form,
    faber_polynomial,
    gamma_element,
    principal_part,
)
from .numerics import (
    CircleContour,
    DiskGrid,
    NumericalError,
    PowerSeries,
    ValidationError,
    area_pairing,
    circle_integral,
    laurent_coefficients,
    least_squares,
)
from .schiffer import CapDatum, apply_schiffer, contour_nodes, contour_radius, schiffer_contour
from .series import (
    ExteriorPairing,
    SeriesDecomposition,
    TargetForm,
    invariance_check,
    project_faber,
    series_evaluator,
    uniform_error,
)
from .surface import (
    Cycle,
    OneForm,
    SurfaceSpec,
    a_cycle,
    b_cycle,
    beta_form,
    gamma_basis,
    green,
    period,
    period_matrix,
    schiffer_kernel,
)
from .targets import FAMILIES, build_target

__all__ = [
    "AffineMap",
    "CapDatum",
    "CapFamily",
    "CircleContour",
    "ConformalMap",
    "Cycle",
    "DiskGrid",
    "ExteriorPairing",
    "FAMILIES",
    "FaberBasisElement",
    "JoukowskiEllipseMap",
    "LaurentTail",
    "MoebiusComposedMap",
    "NumericalError",
    "OneForm",
    "PolynomialCapMap",
    "PowerSeries",
    "SeriesDecomposition",
    "SurfaceSpec",
    "TargetForm",
    "ValidationError",
    "a_cycle",
    "apply_schiffer",
    "area_pairing",
    "b_cycle",
    "beta_element",
    "beta_form",
    "build_target",
    "circle_integral",
    "contour_nodes",
    "contour_radius",
    "faber_form",
    "faber_polynomial",
    "gamma_basis",
    "gamma_element",
    "green",
    "invariance_check",
    "laurent_coefficients",
    "least_squares",
    "make_map",
    "period",
    "period_matrix",
    "principal_part",
    "project_faber",
    "schiffer_contour",
    "schiffer_kernel",
    "series_evaluator",
    "uniform_error",
    "__version__",
]
