"""Wasserstein-2 projections in the convex order.

Gaussian closed forms through a certified orthogonal/diagonal order
transform, exact quantile formulas in dimension one, and a barycentric
weak-optimal-transport solver for finitely supported measures.
"""

from .bures import bw2, bw2_gradient, centered_w2, gaussian_w2
from .discrete import (
    Coupling,
    WotConfig,
    WotResult,
    barycentric_pushforward,
    exact_w2_sq,
    is_convex_ordered_1d,
    project_discrete,
    solve_transport_lp,
    solve_wot,
    wot_objective,
)
from .gaussian import (
    DominanceVerdict,
    OrderTransform,
    ProjectionResult,
    SingularReduction,
    UniquenessVerdict,
    dominance_check,
    is_above_projection_unique,
    project_below,
    project_pair,
    reduce_singular_above,
    shared_correlation_fast_path,
)
from .linalg import (
    loewner_leq,
    positive_part,
    spd_sqrt,
    sym_eigen,
)
from .measures import DiscreteMeasure, GaussianMeasure
from .one_dim import (
    GFunction,
    QuantileFunction,
    g_function,
    lower_convex_hull,
    project_1d,
    project_1d_detail,
    quantile_of,
    w2_1d,
)
from .pgd import (
    PgdConfig,
    PgdTrace,
    frobenius_project_above,
    frobenius_project_below,
    pgd_project_above,
)

__all__ = [
    "Coupling",
    "DiscreteMeasure",
    "DominanceVerdict",
    "GFunction",
    "GaussianMeasure",
    "OrderTransform",
    "PgdConfig",
    "PgdTrace",
    "ProjectionResult",
    "QuantileFunction",
    "SingularReduction",
    "UniquenessVerdict",
    "WotConfig",
    "WotResult",
    "barycentric_pushforward",
    "bw2",
    "bw2_gradient",
    "centered_w2",
    "dominance_check",
    "exact_w2_sq",
    "frobenius_project_above",
    "frobenius_project_below",
    "g_function",
    "gaussian_w2",
    "is_above_projection_unique",
    "is_convex_ordered_1d",
    "loewner_leq",
    "lower_convex_hull",
    "pgd_project_above",
    "positive_part",
    "project_1d",
    "project_1d_detail",
    "project_below",
    "project_discrete",
    "project_pair",
    "quantile_of",
    "reduce_singular_above",
    "shared_correlation_fast_path",
    "solve_transport_lp",
    "solve_wot",
    "spd_sqrt",
    "sym_eigen",
    "w2_1d",
    "wot_objective",
]
