"""Convex bodies, hyperplane section centroids, cut-volume functionals,
and recession-cone asymptotics."""

__version__ = "0.1.0"

from .bodies import (
    BodySpec,
    ConeDescriptor,
    circular_cone,
    ellipsoid,
    function_epigraph,
    hyperboloid_sheet,
    paraboloid_epigraph,
    superellipsoid,
    unit_disk,
    unit_sphere,
)
from .centroids import (
    LineFamilyVerdict,
    LineFit,
    centroid_curve,
    classify_lines,
    cone_direction_check,
    fit_line,
    sample_levels,
    sccp_residual,
)
from .cutvol import (
    CutVolumeResult,
    cut_gradient,
    cut_volume,
    floating_constancy,
    halfspace_cut_volume,
    homothety_cut_scan,
    parallel_cut_scan,
)
from .asymptotics import (
    ShellDistance,
    asymptotic_diagnostic,
    blowdown_check,
    body_shell_points,
    cone_shell_points,
    shell_distance,
    trend_verdict,
)
from .errors import GeometryError
from .sections import (
    SectionStats,
    admissible_levels,
    section_bounded,
    section_diameter,
    section_measure,
    section_stats,
)

__all__ = [
    "__version__",
    "BodySpec", "ConeDescriptor",
    "ellipsoid", "unit_disk", "unit_sphere", "paraboloid_epigraph",
    "hyperboloid_sheet", "circular_cone", "function_epigraph", "superellipsoid",
    "SectionStats", "section_bounded", "admissible_levels",
    "section_stats", "section_measure", "section_diameter",
    "LineFit", "LineFamilyVerdict", "sample_levels", "centroid_curve",
    "fit_line", "sccp_residual", "classify_lines", "cone_direction_check",
    "CutVolumeResult", "halfspace_cut_volume", "cut_volume", "cut_gradient",
    "parallel_cut_scan", "homothety_cut_scan", "floating_constancy",
    "ShellDistance", "body_shell_points", "cone_shell_points",
    "shell_distance", "blowdown_check", "trend_verdict",
    "asymptotic_diagnostic",
    "GeometryError",
]
