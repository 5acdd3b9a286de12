"""Wasserstein-2 projections in the convex order.

Gaussian closed forms through a certified orthogonal/diagonal order
transform, exact quantile formulas in dimension one, and a barycentric
weak-optimal-transport solver for finitely supported measures.
"""

from .bures import bw2
from .discrete import (
    Coupling,
    WotResult,
    barycentric_pushforward,
    exact_w2_sq,
    project_discrete,
    solve_transport_lp,
    solve_wot,
)
from .gaussian import (
    OrderTransform,
    ProjectionResult,
    UniquenessVerdict,
    project_pair,
)
from .measures import DiscreteMeasure, GaussianMeasure
from .one_dim import (
    is_convex_ordered_1d,
    lower_convex_hull,
    project_1d_detail,
    w2_1d,
)

__all__ = [
    "Coupling",
    "DiscreteMeasure",
    "GaussianMeasure",
    "OrderTransform",
    "ProjectionResult",
    "UniquenessVerdict",
    "WotResult",
    "barycentric_pushforward",
    "bw2",
    "exact_w2_sq",
    "is_convex_ordered_1d",
    "lower_convex_hull",
    "project_1d_detail",
    "project_discrete",
    "project_pair",
    "solve_transport_lp",
    "solve_wot",
    "w2_1d",
]
