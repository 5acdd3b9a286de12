"""Exact projections and the convex-order test in dimension one.

For finitely supported measures on the line both projections have explicit
quantile formulas: integrate the difference of the two quantile functions
into ``g``, take the lower convex hull of ``g``, and shift each quantile
function by the hull's slope.  Everything here is read off one common
breakpoint grid of the two measures (:func:`_quantile_grid`): both quantile
functions are constant on each of its pieces, ``g`` is linear on each, and
the hull's vertices are nodes of the grid.  The same grid gives the
quadratic Wasserstein distance and the convex-order test.
"""

from __future__ import annotations

from dataclasses import dataclass

import numpy as np

from .measures import DiscreteMeasure

# convex-order tolerance per unit of the largest atom magnitude
CX_TOL = 1e-9
_EPS = np.finfo(float).eps


class QuantileOrderError(ArithmeticError):
    """A projected quantile function decreased by more than roundoff."""


def _quantile_grid(mu: DiscreteMeasure, nu: DiscreteMeasure) -> tuple[np.ndarray, ...]:
    """Common breakpoint grid of two 1-d measures, the value of each
    quantile function on each piece ``(grid[j], grid[j+1]]``, and the values
    of ``g = int_0^u (F_mu^-1 - F_nu^-1)`` at the grid's nodes.

    The grid is one merge of both measures' cumulative weights (a stable
    sort of their two sorted runs).  Breakpoints no further apart than
    ``(mu.size + nu.size) * eps``, a bound on the roundoff of the cumulative
    sums (cuts equal in exact arithmetic land that close), collapse to the
    last of their cluster (so the endpoint 1.0 survives exactly), and the
    origin is restored exactly.  Each quantile function is read at the
    midpoint of each piece, so an atom whose weight is below that resolution
    takes no piece of its own.  The cuts below a midpoint are those up to
    the piece's left node, counted by origin along the merge, unless a
    cluster spans the midpoint (a chain of atoms below the resolution); only
    such pieces search the merge for their midpoint.
    """
    n = mu.size
    cuts = np.concatenate(([0.0], np.cumsum(mu.weights[:-1]), [1.0, 0.0],
                           np.cumsum(nu.weights[:-1]), [1.0]))
    order = np.argsort(cuts, kind="stable")
    merged = cuts[order]
    ends = np.append(np.flatnonzero(np.diff(merged) > (n + nu.size) * _EPS), merged.size - 1)
    grid = merged[ends]
    grid[0] = 0.0
    mids = 0.5 * (grid[:-1] + grid[1:])
    # merged position of the last cut below each midpoint: the piece's left
    # node, unless a cluster spans the midpoint (the next one starts below
    # it, or the first one, whose node is reset to 0, ends above it)
    last_below = ends[:-1]
    late = (merged[last_below] >= mids) | (merged[last_below + 1] < mids)
    if late.any():
        last_below[late] = np.searchsorted(merged, mids[late]) - 1
    mu_below = np.cumsum(order <= n)[last_below]  # the rest of the cuts below are nu's
    q_mu = mu.values_1d[np.clip(mu_below - 1, 0, n - 1)]
    q_nu = nu.values_1d[np.clip(last_below - mu_below, 0, nu.size - 1)]
    g_nodes = np.concatenate(([0.0], np.cumsum((q_mu - q_nu) * np.diff(grid))))
    return grid, q_mu, q_nu, g_nodes


def g_function(mu: DiscreteMeasure, nu: DiscreteMeasure) -> tuple[np.ndarray, np.ndarray]:
    """Nodes of ``g: u -> int_0^u (F_mu^-1 - F_nu^-1)``: the common
    breakpoint grid and the values of ``g`` there."""
    grid, _, _, g_nodes = _quantile_grid(mu, nu)
    return grid, g_nodes


def lower_convex_hull(x: np.ndarray, y: np.ndarray) -> np.ndarray:
    """Indices of the vertices of the greatest convex minorant of the
    piecewise-linear function with nodes ``(x, y)``, ``x`` increasing.

    Monotone-chain lower hull: the first and last nodes are vertices, and
    the slopes between consecutive vertices increase.

    The chain runs only over the nodes that survive a vectorised pre-filter.
    Each numpy pass drops, all at once, every interior candidate whose
    cross product with its current neighbours is ``<= 0``, the predicate on
    which the chain pops.  A dropped node lies on or above a chord between
    two points of the epigraph, so in exact arithmetic it is never a vertex.
    In floating point the vertices are the full chain's, except on runs of
    nodes collinear only up to roundoff (``g`` of a measure against its
    translate), where each keeps its own roundoff-level vertices.  Pruning
    to the fixed point could take one pass per node (a parabola whose last
    node lies deep below drops one node a pass), so the passes stop after
    one that removes fewer than an eighth of the candidates.  The passes
    then cost at most about ``8n`` cross products, and the worst case is
    one O(n) pass plus the chain over every node.
    """
    x = np.asarray(x, dtype=float)
    y = np.asarray(y, dtype=float)
    keep = np.arange(x.size)
    while keep.size > 2:
        candidates = keep.size
        xk, yk = x[keep], y[keep]
        cross = ((xk[1:-1] - xk[:-2]) * (yk[2:] - yk[:-2])
                 - (yk[1:-1] - yk[:-2]) * (xk[2:] - xk[:-2]))
        keep = keep[np.concatenate(([True], cross > 0.0, [True]))]
        if 8 * (candidates - keep.size) < candidates:
            break
    xs, ys = x[keep].tolist(), y[keep].tolist()
    hull = [0]
    for i in range(1, len(xs)):
        while len(hull) >= 2:
            a, b = hull[-2], hull[-1]
            if (xs[b] - xs[a]) * (ys[i] - ys[a]) - (ys[b] - ys[a]) * (xs[i] - xs[a]) > 0.0:
                break
            hull.pop()
        hull.append(i)
    return keep[hull]


@dataclass(frozen=True)
class OneDimProjection:
    """Both projections with their distances."""

    below: DiscreteMeasure
    above: DiscreteMeasure
    distance_sq: float  # = W2^2(mu, below) = W2^2(nu, above)
    cross_distance_sq: float  # = W2^2(nu, below) = W2^2(mu, above)


def project_1d_detail(mu: DiscreteMeasure, nu: DiscreteMeasure) -> OneDimProjection:
    """Projections of ``mu`` below ``nu`` and of ``nu`` above ``mu``, with
    their distances.

    ``below`` is the W2-closest measure to ``mu`` among those dominated by
    ``nu`` in the convex order, ``above`` the W2-closest measure to ``nu``
    among those dominating ``mu``; the pair does not depend on the
    Wasserstein index used.  ``distance_sq`` is ``W2^2(mu, below) =
    W2^2(nu, above)`` and ``cross_distance_sq`` is ``W2^2(nu, below) =
    W2^2(mu, above)``.  Raises :class:`QuantileOrderError` when a projected
    quantile function decreases by more than roundoff.
    """
    grid, q_mu, q_nu, nodes = _quantile_grid(mu, nu)
    widths = np.diff(grid)
    vertices = lower_convex_hull(grid, nodes)
    # the hull's slope between consecutive vertices is the width-weighted
    # mean of the pieces' slopes (a difference of g loses it on narrow spans)
    starts = vertices[:-1]
    slopes = np.add.reduceat(widths * (q_mu - q_nu), starts) / np.add.reduceat(widths, starts)
    shift = np.repeat(slopes, np.diff(vertices))
    below_vals = q_mu - shift
    above_vals = q_nu + shift
    # the hull construction makes both non-decreasing; enforce against
    # roundoff, which grows with the magnitude of the atoms
    tol = 1e-9 * max(float(np.abs(q_mu).max()), float(np.abs(q_nu).max()))
    for vals in (below_vals, above_vals):
        drop = float(-np.diff(vals).min(initial=0.0))
        if drop > tol:
            raise QuantileOrderError(
                f"projected quantile lost monotonicity (drop {drop:.3e}, tolerance {tol:.3e})"
            )
    below = DiscreteMeasure.from_1d(np.maximum.accumulate(below_vals), widths)
    above = DiscreteMeasure.from_1d(np.maximum.accumulate(above_vals), widths)
    distance_sq = float(widths @ shift**2)
    cross_distance_sq = float(widths @ (q_mu - q_nu - shift) ** 2)
    return OneDimProjection(below, above, distance_sq, cross_distance_sq)


def w2_1d(mu: DiscreteMeasure, nu: DiscreteMeasure) -> float:
    """Quadratic Wasserstein distance on the line via quantile coupling."""
    grid, q_mu, q_nu, _ = _quantile_grid(mu, nu)
    return float(np.sqrt(np.diff(grid) @ (q_mu - q_nu) ** 2))


def convex_order_tol(eta: DiscreteMeasure, nu: DiscreteMeasure) -> float:
    """Tolerance of :func:`is_convex_ordered_1d`: ``CX_TOL`` times the
    largest atom magnitude of either measure, so the verdict is scale-free."""
    return CX_TOL * max(float(np.abs(eta.values_1d).max()), float(np.abs(nu.values_1d).max()))


def convex_order_violation(eta: DiscreteMeasure, nu: DiscreteMeasure) -> float:
    """How far ``eta <=cx nu`` fails on the line: ``max(-min g, |g(1)|)``
    over the nodes of ``g(eta, nu)``, the integral of ``F_eta^-1 - F_nu^-1``
    (0 iff ``g`` stays nonnegative and ends at 0, as equal barycenters do)."""
    _, nodes = g_function(eta, nu)
    return float(max(-nodes.min(), abs(nodes[-1])))


def is_convex_ordered_1d(eta: DiscreteMeasure, nu: DiscreteMeasure) -> bool:
    """Integrated-quantile test for ``eta <=cx nu`` on the line: the
    violation of :func:`convex_order_violation` is within the tolerance of
    :func:`convex_order_tol`."""
    return convex_order_violation(eta, nu) <= convex_order_tol(eta, nu)
