"""Smooth rigidity of polynomial zero sets: geometry, bounds, estimators.

The package quantifies how large the high-order derivatives of a smooth
function must be once its zero set is topologically rich (many nested ovals)
or metrically massive (box dimension near the ambient dimension). Entry
points: validated oval configurations and their domain decomposition
(``geometry``), Remez-constant machinery (``remez``), rigidity bounds
(``rigidity``), test curves (``curves``), box-counting (``fractal``),
critical-point accounting (``prooftrace``), and the ``rigidkit`` CLI.
"""

__version__ = "0.1.0"

from .errors import (
    RigidKitError,
    SolverError,
    ValidationError,
)
from .poly import (
    MultiPoly,
    basis_size,
    chebyshev,
    compose,
    derivative_norm_pointwise,
    eval_poly,
    monomials,
    partial_derivative,
    random_poly,
)
from .geometry import (
    Domain,
    NestingForest,
    Oval,
    OvalConfiguration,
    build_domains,
    build_nesting_forest,
    config_from_json_dict,
    mu,
    regular_polygon,
    sample_boundary,
    validate_configuration,
)
from .remez import (
    RemezEstimate,
    brudnyi_ganzburg_bound,
    inverse_remez,
    ovals_required,
    remez_bound_topological,
    remez_estimate_lp,
)
from .rigidity import (
    RigidityReport,
    divided_difference,
    interior_line_bound,
    rigidity_1d_bound,
    rigidity_from_remez,
    rigidity_report,
    rigidity_topological_composed,
    rigidity_topological_literal,
)
from .curves import (
    ParamCurve,
    composition_report,
    crossing_count,
    fit_curve,
)
from .fractal import (
    BoxDimensionFit,
    PointCloud,
    box_dimension_estimate,
    covering_number,
    rigidity_threshold,
    rigidity_threshold_check,
)
from .prooftrace import (
    BezoutVerdict,
    CriticalPointSet,
    bezout_check,
    default_perturbation,
    domain_pigeonhole_report,
    find_critical_points,
    perturb_linear,
)
from .svg import render_svg

__all__ = [
    "__version__",
    "RigidKitError",
    "ValidationError",
    "SolverError",
    "MultiPoly",
    "eval_poly",
    "partial_derivative",
    "derivative_norm_pointwise",
    "compose",
    "chebyshev",
    "monomials",
    "basis_size",
    "random_poly",
    "Oval",
    "OvalConfiguration",
    "NestingForest",
    "Domain",
    "validate_configuration",
    "build_nesting_forest",
    "build_domains",
    "mu",
    "sample_boundary",
    "regular_polygon",
    "config_from_json_dict",
    "RemezEstimate",
    "remez_estimate_lp",
    "ovals_required",
    "remez_bound_topological",
    "brudnyi_ganzburg_bound",
    "inverse_remez",
    "RigidityReport",
    "rigidity_from_remez",
    "rigidity_topological_literal",
    "rigidity_topological_composed",
    "rigidity_1d_bound",
    "interior_line_bound",
    "divided_difference",
    "rigidity_report",
    "ParamCurve",
    "fit_curve",
    "composition_report",
    "crossing_count",
    "PointCloud",
    "BoxDimensionFit",
    "covering_number",
    "box_dimension_estimate",
    "rigidity_threshold",
    "rigidity_threshold_check",
    "CriticalPointSet",
    "BezoutVerdict",
    "find_critical_points",
    "perturb_linear",
    "default_perturbation",
    "bezout_check",
    "domain_pigeonhole_report",
    "render_svg",
]
