"""circlelab: exact rational arithmetic on the circle of circumference 1.

Points, finite unions of half-open arcs with exact measure, thickenings of
finite-order points, affine circle maps with exact preimages, density
ratios, and reproducible desk-scale approximation experiments.  Everything
is computed in arbitrary-precision rational arithmetic; no floats anywhere.
"""

from .approx import (
    Constant,
    DeltaSequence,
    Power,
    Table,
    TailUnionSpec,
    approx_order_set,
    check_inclusion_i,
    check_inclusion_ii,
    check_inclusion_iii,
    check_inclusion_iv,
    delta_from_json_dict,
    finite_order_points,
    gallagher_decomposition,
    parse_delta,
    tail_union,
)
from .arcs import Arc, ArcSet, arc, thicken, union_all
from .circle import (
    ZERO_POINT,
    CirclePoint,
    as_fraction,
    circle_point,
    format_fraction,
    parse_fraction,
)
from .density import ball, density_profile, density_ratio, doubling_check
from .ergodic import AffineCircleMap, conjugation_check, grid_cells, invariant_set_search
from .experiments import (
    ExperimentReport,
    ReportRow,
    Verdict,
    cassels_experiment,
    decimal_string,
    duffin_schaeffer_classify,
    gallagher_experiment,
    membership_witnesses,
)
from .numtheory import (
    All,
    DivBySquare,
    ExactlyOnce,
    IndexPredicate,
    NotDiv,
    Or,
    is_prime,
    parse_predicate,
    totient,
    totient_range,
)

__version__ = "0.1.0"

__all__ = [
    "AffineCircleMap",
    "All",
    "Arc",
    "ArcSet",
    "CirclePoint",
    "Constant",
    "DeltaSequence",
    "DivBySquare",
    "ExactlyOnce",
    "ExperimentReport",
    "IndexPredicate",
    "NotDiv",
    "Or",
    "Power",
    "ReportRow",
    "Table",
    "TailUnionSpec",
    "Verdict",
    "ZERO_POINT",
    "approx_order_set",
    "arc",
    "as_fraction",
    "ball",
    "cassels_experiment",
    "check_inclusion_i",
    "check_inclusion_ii",
    "check_inclusion_iii",
    "check_inclusion_iv",
    "circle_point",
    "conjugation_check",
    "decimal_string",
    "delta_from_json_dict",
    "density_profile",
    "density_ratio",
    "doubling_check",
    "duffin_schaeffer_classify",
    "finite_order_points",
    "format_fraction",
    "gallagher_decomposition",
    "gallagher_experiment",
    "grid_cells",
    "invariant_set_search",
    "is_prime",
    "membership_witnesses",
    "parse_delta",
    "parse_fraction",
    "parse_predicate",
    "tail_union",
    "thicken",
    "totient",
    "totient_range",
    "union_all",
]
