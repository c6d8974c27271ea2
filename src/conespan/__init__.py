"""conespan: cone-based sparse proximity graphs over planar point sets,
with exact stretch-factor measurement and property verification.

Four directed graph families are constructed with one consistent tie-break
rule: classic Yao, degree-bounded Yao-Yao (reverse-Yao pruned), widened-cone
overlapping-Yao, and trapezoidal-Yao selected by first contact of a growing
curved trapezoid.  The analysis layer measures exact stretch factors against
the families' closed-form bounds, and the path layer builds the certificate
paths those bounds come from.
"""

__version__ = "0.1.0"

from .analysis import (
    BoundTable,
    SpannerReport,
    degree_stats,
    is_connected,
    stretch_factor,
    subgraph_check,
    t_bound,
    tau_bound,
    tau_prime_bound,
)
from .build import (
    ConeGraph,
    Family,
    build_oy,
    build_ty,
    build_yao,
    build_yao_yao,
)
from .geometry import (
    GeometryError,
    HitPart,
    HitResult,
    Point,
    TrapezoidFrame,
    cone_index,
    dist,
    gamma,
    lhp_containment_check,
    normalize_angle,
    polar_angle,
    scale_to_hit,
    theta,
    to_local,
)
from .paths import (
    InvariantViolation,
    PathTrace,
    StepAudit,
    StepKind,
    descent_length_bound,
    harvest_descent_configs,
    oy_greedy_path,
    phi_potential,
    ty_descent_path,
)
from .pointgen import GenKind, GenSpec, gen_points
from .render import render_svg

__all__ = [
    "BoundTable",
    "ConeGraph",
    "Family",
    "GenKind",
    "GenSpec",
    "GeometryError",
    "HitPart",
    "HitResult",
    "InvariantViolation",
    "PathTrace",
    "Point",
    "SpannerReport",
    "StepAudit",
    "StepKind",
    "TrapezoidFrame",
    "build_oy",
    "build_ty",
    "build_yao",
    "build_yao_yao",
    "cone_index",
    "degree_stats",
    "descent_length_bound",
    "dist",
    "gamma",
    "gen_points",
    "harvest_descent_configs",
    "is_connected",
    "lhp_containment_check",
    "normalize_angle",
    "oy_greedy_path",
    "phi_potential",
    "polar_angle",
    "render_svg",
    "scale_to_hit",
    "stretch_factor",
    "subgraph_check",
    "t_bound",
    "tau_bound",
    "tau_prime_bound",
    "theta",
    "to_local",
    "ty_descent_path",
]
