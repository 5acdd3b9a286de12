"""Weak-optimal-transport solver for finitely supported measures.

Minimizes the barycentric cost ``sum_i w_i |x_i - m(pi_{x_i})|^2`` over the
transportation polytope with fully-corrective Frank-Wolfe, that is Wolfe's
minimum-norm-point method.  The cost sees a coupling only through its row
image ``p = pi @ y``, so the iterate is kept as the image ``p`` of a convex
combination of stored vertices, and only the linear subproblem works on
``n x m`` couplings.  Its cost ``-2 r y'`` has rank d.  In one dimension
the comonotone coupling of the residuals ``r`` with ``y`` solves it in
closed form; otherwise a network simplex on the transportation basis tree
(Dantzig pricing with a Bland fallback against cycling) solves it exactly.
The same comonotone staircase, rows in their given order, is the
northwest corner: the first vertex, and the simplex's cold-start basis.
Each new vertex joins the stored ones, over whose hull an exact QP
re-optimizes the quadratic; its active-set steps solve the support's KKT
system by LU.  The marginals stay fixed across one solve, so every LP
warm-starts from the optimal basis of the previous one; likewise every QP
starts from the iterate's weights.  The pushforward of the first marginal
under the conditional-barycenter map of an optimal coupling realizes the
dominated-side Wasserstein projection.  ``exact_w2_sq`` solves the
transportation LP by the same simplex for exact W2 between small measures,
in every dimension; the 1-d quantile formulas and convex-order test live in
:mod:`.one_dim`.
"""

from __future__ import annotations

import math
from dataclasses import dataclass
from typing import Any

import numpy as np

from .measures import DiscreteMeasure

MARGINAL_TOL = 1e-9
# weights after a corrective QP step above -_QP_TOL count as nonnegative
_QP_TOL = 1e-13
# Dantzig pricing gives way to Bland's rule after _DEGENERATE_RUNS * (n + m)
# degenerate pivots in a row (0: Bland's rule throughout)
_DEGENERATE_RUNS = 1
# Frank-Wolfe iterations per solve, and the largest n * m it accepts
MAX_ITER = 50_000
BUDGET = 1_000_000
# stored vertices that solve_wot first allocates room for; it doubles when full
_CORRAL_ROWS = 16


class BudgetExceededError(ValueError):
    """The instance is larger than the size budget ``BUDGET``."""


def _require_budget(mu: DiscreteMeasure, nu: DiscreteMeasure) -> None:
    if mu.size * nu.size > BUDGET:
        raise BudgetExceededError(
            f"instance size {mu.size}x{nu.size} exceeds the budget {BUDGET}"
        )


class LpInfeasibleError(RuntimeError):
    """Marginals are inconsistent (guards bugs; cannot happen for
    probability vectors)."""


@dataclass(frozen=True)
class Coupling:
    """Nonnegative matrix with prescribed row and column marginals."""

    pi: np.ndarray
    mu: DiscreteMeasure
    nu: DiscreteMeasure

    def __post_init__(self):
        pi = np.asarray(self.pi, dtype=float)
        if pi.shape != (self.mu.size, self.nu.size):
            raise ValueError("coupling shape must match the two supports")
        if np.any(pi < -1e-15):
            raise ValueError("coupling must be entrywise nonnegative")
        row_err = float(np.abs(pi.sum(axis=1) - self.mu.weights).max())
        col_err = float(np.abs(pi.sum(axis=0) - self.nu.weights).max())
        if max(row_err, col_err) > MARGINAL_TOL:
            raise ValueError(
                f"marginal residuals ({row_err:.3e}, {col_err:.3e}) exceed "
                f"{MARGINAL_TOL}"
            )
        pi = np.clip(pi, 0.0, None)
        pi.setflags(write=False)
        object.__setattr__(self, "pi", pi)

    def conditional_barycenters(self) -> np.ndarray:
        """Row-wise barycenters ``m(pi_{x_i})`` of the disintegration."""
        return (self.pi @ self.nu.points) / self.mu.weights[:, None]


def _comonotone_vertex(
    key: np.ndarray, row_w: np.ndarray, col_w: np.ndarray
) -> tuple[np.ndarray, np.ndarray, np.ndarray]:
    """Comonotone vertex of the transportation polytope and its n + m - 1
    basis cells ``(rows[k], cols[k])``, degenerate ones with zero mass.

    Rows are ordered by ``key`` (stable, so ties keep their order), columns
    as given, and mass is laid down on the merged cumulative weights.  Each
    piece between consecutive merged cuts is one cell, in the row and column
    that the cuts before it have passed; a row cut sorts before an equal
    column cut, so a tie moves down first.  Each cell is one row or column
    on from the last, so the cells grow a spanning tree.  With residuals
    ``r`` as the key and ``y`` ascending, this is the optimum of the cost
    ``-r_i y_j``; with ``arange(n)``, the northwest corner, whose tree grows
    from row 0 as :class:`_TransportBasis` needs.
    """
    n = row_w.size
    order = np.argsort(key, kind="stable")
    col_cum = np.cumsum(col_w)
    cuts = np.concatenate((np.cumsum(row_w[order][:-1]), col_cum[:-1]))
    by_cut = np.argsort(cuts, kind="stable")
    passed_col = by_cut >= n - 1
    rows = order[np.concatenate(([0], np.cumsum(~passed_col)))]
    cols = np.concatenate(([0], np.cumsum(passed_col)))
    pi = np.zeros((n, col_w.size))
    pi[rows, cols] = np.diff(np.concatenate(([0.0], cuts[by_cut], col_cum[-1:])))
    return pi, rows, cols


class _TransportBasis:
    """Spanning-tree basis of the transportation simplex, with its flows
    and dual potentials.

    Nodes ``0..n-1`` are the rows and ``n..n+m-1`` the columns; the tree is
    rooted at row 0.  Every other node ``k`` hangs from ``parent[k]`` at
    ``depth[k]`` through the basis cell ``cell[k]`` (flat index
    ``i * m + j``), which carries the mass ``flow[k]``; ``children[k]``
    lists the nodes hung below ``k``; ``in_basis`` flags the basis cells
    by flat index.  ``pot`` holds the potentials ``u`` (rows) then ``v``
    (columns), with ``u_i + v_j = c_ij`` on every basis cell and the root
    at 0.  A basic feasible solution stays feasible when
    only the cost changes, so one basis can warm-start a sequence of solves
    that share the marginals.
    """

    def __init__(self, pi: np.ndarray, rows: np.ndarray, cols: np.ndarray):
        """Tree of the basic solution ``pi`` on the cells ``(rows[k], cols[k])``,
        each joining one new node to the tree grown from row 0 (as in the
        northwest corner of :func:`_comonotone_vertex`)."""
        n, m = pi.shape
        size = n + m
        self.n, self.m = n, m
        self.parent = [-1] * size
        self.depth = [0] * size
        self.cell = [-1] * size
        self.flow = [0.0] * size
        self.children: list[list[int]] = [[] for _ in range(size)]
        self.pot = [0.0] * size
        self.pivots = 0
        placed = [True] + [False] * (size - 1)
        for i, j in zip(rows.tolist(), cols.tolist()):
            if placed[i] == placed[n + j]:
                raise LpInfeasibleError("basis cells do not grow a spanning tree")
            child, up = (n + j, i) if placed[i] else (i, n + j)
            placed[child] = True
            self.parent[child] = up
            self.depth[child] = self.depth[up] + 1
            self.cell[child] = i * m + j
            self.flow[child] = float(pi[i, j])
            self.children[up].append(child)
        if not all(placed):
            raise LpInfeasibleError("basis cells do not grow a spanning tree")
        self.in_basis = np.zeros(n * m, dtype=bool)
        self.in_basis[self.cell[1:]] = True

    def coupling(self) -> np.ndarray:
        """The basic solution as a dense ``n x m`` matrix."""
        pi = np.zeros(self.n * self.m)
        pi[self.cell[1:]] = self.flow[1:]
        return pi.reshape(self.n, self.m)

    def settle(self, top: int, cost: list[float]) -> None:
        """Recompute depth and potential of ``top`` and of every node below it."""
        parent, depth, cell, pot, children = (
            self.parent, self.depth, self.cell, self.pot, self.children
        )
        stack = [top]
        while stack:
            node = stack.pop()
            up = parent[node]
            if up >= 0:
                depth[node] = depth[up] + 1
                pot[node] = cost[cell[node]] - pot[up]
            stack.extend(children[node])

    def pivot(
        self, i: int, j: int, up_col: list[int], up_row: list[int], cost: list[float]
    ) -> float:
        """Enter cell ``(i, j)``, whose cycle is ``_basis_cycle``'s output.

        Moves the largest feasible mass ``theta`` around the cycle, drops
        the first emptied losing cell in row-major order (Bland's leaving
        rule) and re-hangs the subtree it cut off from the entering cell.
        Returns ``theta``.
        """
        n, m = self.n, self.m
        parent, cell, flow, children = self.parent, self.cell, self.flow, self.children
        # one pass over the losing cells keeps the least (flow, cell), the
        # walk it lies on, its position there and the entering cell's end
        # across from that walk
        theta = math.inf
        for walk, end in ((up_col, i), (up_row, n + j)):
            for at in range(0, len(walk), 2):
                k = walk[at]
                f = flow[k]
                if f < theta or (f == theta and cell[k] < cell[leave]):
                    theta, leave, found = f, k, (walk, at, end)
        if theta > 0.0:
            for k in up_col[0::2] + up_row[0::2]:
                flow[k] -= theta
            for k in up_col[1::2] + up_row[1::2]:
                flow[k] += theta
        # the path from the entering cell's end down to ``leave`` flips over
        walk, at, anchor = found
        path = walk[: at + 1]
        self.in_basis[cell[leave]] = False
        self.in_basis[i * m + j] = True
        hang = (anchor, i * m + j, theta)
        for node in path:
            children[parent[node]].remove(node)
            old = (parent[node], cell[node], flow[node])
            parent[node], cell[node], flow[node] = hang
            children[hang[0]].append(node)
            hang = (node, old[1], old[2])
        self.settle(path[0], cost)
        self.pivots += 1
        return theta


def _basis_cycle(basis: _TransportBasis, i: int, j: int) -> tuple[list[int], list[int]]:
    """Cycle closed by adding cell ``(i, j)`` to the basis tree.

    Returns the nodes passed walking up from column ``j`` and from row
    ``i`` to their lowest common ancestor, that ancestor excluded; each
    node stands for the cell joining it to its parent.  Along either walk
    the cells alternately lose and gain mass, starting with a loss.
    """
    parent, depth = basis.parent, basis.depth
    a, b = basis.n + j, i
    up_col: list[int] = []
    up_row: list[int] = []
    while depth[a] > depth[b]:
        up_col.append(a)
        a = parent[a]
    while depth[b] > depth[a]:
        up_row.append(b)
        b = parent[b]
    while a != b:
        up_col.append(a)
        a = parent[a]
        up_row.append(b)
        b = parent[b]
    return up_col, up_row


def solve_transport_lp(
    cost: np.ndarray,
    row_weights: np.ndarray,
    col_weights: np.ndarray,
    *,
    basis: _TransportBasis | None = None,
) -> np.ndarray:
    """Exact optimal vertex of the transportation polytope.

    Network simplex on the basis tree.  Without ``basis`` it starts cold
    from the northwest corner (:func:`_comonotone_vertex`); with one (built
    for the same marginals) it starts from that basis and leaves the
    optimal basis in it, ready to warm-start the next cost.  The entering
    cell has the most negative reduced cost (Dantzig pricing); after
    ``n + m`` degenerate pivots in a row, Bland's rule (first cell in
    row-major order with sufficiently negative reduced cost) takes over
    until a pivot moves mass, which rules out cycling.  Potentials are
    recomputed only on the subtree that each pivot re-hangs.  With zero
    cost the starting vertex is returned unchanged.  ``solve_wot`` calls it
    for measures in two or more dimensions, and ``exact_w2_sq`` in every
    dimension.
    """
    cost = np.asarray(cost, dtype=float)
    row_w = np.asarray(row_weights, dtype=float)
    col_w = np.asarray(col_weights, dtype=float)
    if not np.all(np.isfinite(cost)):
        raise ValueError("cost entries must be finite")
    if abs(row_w.sum() - col_w.sum()) > 1e-9 * (1.0 + row_w.sum()):
        raise LpInfeasibleError("row and column weights have different totals")
    n, m = row_w.size, col_w.size
    if basis is None:
        basis = _TransportBasis(*_comonotone_vertex(np.arange(n), row_w, col_w))
    elif (basis.n, basis.m) != (n, m):
        raise ValueError("warm-start basis does not match the weights")
    flat_cost = cost.ravel().tolist()
    basis.settle(0, flat_cost)
    threshold = 1e-12 * (1.0 + float(np.abs(cost).max()))
    max_pivots = 40 * (n + m) * max(n, m)
    max_degenerate = _DEGENERATE_RUNS * (n + m)
    degenerate = 0

    for _ in range(max_pivots):
        pot = np.array(basis.pot)
        reduced = cost - pot[:n, None]
        reduced -= pot[None, n:]
        flat = reduced.ravel()
        flat[basis.in_basis] = 0.0
        enter = int(flat.argmin())
        if flat[enter] >= -threshold:
            return basis.coupling()
        if degenerate >= max_degenerate:  # Bland: first in row-major order
            enter = int(np.flatnonzero(flat < -threshold)[0])
        i, j = divmod(enter, m)
        up_col, up_row = _basis_cycle(basis, i, j)
        theta = basis.pivot(i, j, up_col, up_row, flat_cost)
        degenerate = degenerate + 1 if theta == 0.0 else 0
    raise LpInfeasibleError("transportation simplex exceeded its pivot budget")


def _simplex_qp(
    quad: np.ndarray, lin: np.ndarray, start: np.ndarray, enter: int
) -> tuple[np.ndarray, int]:
    """Exact minimizer of ``a' quad a + lin' a`` over the probability simplex.

    Primal active-set method on the nonnegativity bounds (Wolfe's minor
    cycle), from the feasible point ``start`` with index ``enter`` added to
    its support.  Each step solves the support's bordered KKT system by LU
    for the step from the current point to the minimizer over the support's
    affine hull.  When that system is singular (LU fails, or leaves a
    residual above roundoff), a least-squares solve takes its place: on a
    singular ``quad`` (PSD; repeated or affinely dependent vertex images)
    its step leaves the weights alone where the quadratic is flat, unless
    the linear term descends there: that ray is followed to the boundary.
    A support of every index, as from a positive ``start``, solves the
    whole bordered matrix without copying it, and an unblocked step there
    returns at once: no index is left to enter.  ``start`` is not written.
    Returns the minimizer and the number of active-set steps it took.
    """
    k = quad.shape[0]
    alpha = np.array(start, dtype=float)
    scale = 1.0 + float(np.abs(quad).max()) + float(np.abs(lin).max())
    # [[2 quad, scale], [scale, 0]]: the KKT matrix of a support is its
    # principal submatrix on the support's rows and the last one, always
    # flagged.  A border at the scale of quad keeps the least-squares rank
    # decision independent of the units of the points.
    bordered = np.full((k + 1, k + 1), scale)
    bordered[:k, :k] = 2.0 * quad
    bordered[k, k] = 0.0
    flagged = np.ones(k + 1, dtype=bool)
    support = flagged[:k]
    support[:] = alpha > 0.0
    support[enter] = True
    s = int(np.count_nonzero(support))
    every = np.arange(k)
    for steps in range(1, 60 * k + 41):
        if s == k:
            # the whole support, as in the first step from a positive start:
            # the KKT matrix is ``bordered`` itself
            idx, kkt = every, bordered
        else:
            rows = flagged.nonzero()[0]
            idx, kkt = rows[:s], bordered[rows[:, None], rows]
        rhs = np.zeros(s + 1)
        rhs[:s] = -(bordered[:k, :k] @ alpha + lin)[idx]
        ray = None
        try:
            sol = np.linalg.solve(kkt, rhs)
            regular = np.abs(kkt @ sol - rhs).max() <= 1e-12 * scale
        except np.linalg.LinAlgError:
            regular = False
        if not regular:
            sol, _, rank, _ = np.linalg.lstsq(kkt, rhs, rcond=None)
            # a singular KKT system without a solution leaves a residual
            # along which the quadratic is flat and the linear term descends
            residual = rhs[:s] - kkt[:s] @ sol
            if rank <= s and np.abs(residual).max() > 1e-12 * scale:
                ray = residual
        current, step = alpha[idx], sol[:s]
        if ray is not None:
            step, blocking = ray, ray < 0.0
        else:
            blocking = current + step < -_QP_TOL
        if not blocking.any():
            alpha[idx] = np.maximum(current + step, 0.0)  # 0 off the support
            alpha /= alpha.sum()
            if s == k:
                return alpha, steps  # no index is left to enter
            # the KKT rows read 2 Q (a + step) + scale sol[s] = -lin on the support
            reduced = bordered[:k, :k] @ alpha + lin + scale * sol[s]
            reduced[support] = np.inf
            worst = int(np.argmin(reduced))
            if reduced[worst] >= -1e-12 * scale:
                return alpha, steps
            support[worst] = True
            s += 1
        else:
            # move along the step until the first support weight hits 0; the
            # step sums to 0, so some other weight stays positive
            ratios = current[blocking] / -step[blocking]
            first = int(np.argmin(ratios))
            drop = idx[blocking][first]
            alpha[idx] = np.maximum(current + ratios[first] * step, 0.0)
            alpha[drop] = 0.0
            alpha /= alpha.sum()
            support[drop] = False
            s -= 1
    return alpha, steps  # active-set budget hit: return the best feasible point seen


@dataclass(frozen=True)
class WotResult:
    """Outcome of :func:`solve_wot`.

    ``coupling`` is the returned coupling ``sum_k alpha_k V_k``.  ``value``
    is its barycentric cost ``sum_i w_i |x_i - m(pi_{x_i})|^2`` and ``gap``
    its Frank-Wolfe duality gap against the last oracle vertex, both in the
    caller's units (squared units of the points), though the solve runs at
    unit scale.  ``iterations`` counts the Frank-Wolfe iterations, one
    oracle call each, and ``converged`` tells whether the gap met its
    target ``fw_tol * (1 + value)``.  ``diagnostics`` holds:

    - ``active_vertices``: the stored vertices that carry the coupling;
    - ``lp_calls``: transportation-LP solves, one per iteration (0 in 1-d,
      where the oracle is the comonotone coupling);
    - ``pivots``: simplex pivots over all LP solves (0 in 1-d);
    - ``qp_steps``: active-set steps of the corrective QP over all
      iterations;
    - ``scale_exponent``: the ``k`` of the unit scale ``2^k`` that divided
      the points;
    - ``stop_reason``: ``"gap"``; ``"no_descent"``, when before the gap
      target was met the oracle returned a stored vertex or the QP did not
      descend; or ``"max_iter"``, after ``MAX_ITER`` iterations.
    """

    coupling: Coupling
    value: float
    gap: float
    iterations: int
    converged: bool
    diagnostics: dict[str, Any]


def solve_wot(mu: DiscreteMeasure, nu: DiscreteMeasure, fw_tol: float = 1e-8) -> WotResult:
    """Minimize the barycentric cost over the couplings of ``(mu, nu)``.

    Fully-corrective Frank-Wolfe (Wolfe's minimum-norm-point method) with
    an exact linear oracle over the couplings and duality-gap stopping at
    ``fw_tol * (1 + value)``, at unit scale: the points are divided by the
    power of two ``2^scale_exponent`` that brings the largest |coordinate|
    into ``[2, 4)``, and ``value`` and ``gap`` multiplied back by its
    square.  The iterate is the row image ``p = sum_k alpha_k V_k y`` of a
    convex combination of stored vertices ``V_k``; with the residual
    ``r = x - p / w`` the gradient in the coupling is ``-2 r y'``, and the
    gap against an oracle vertex with image ``q`` is ``2 sum r . (q - p)``.
    For measures on the real line the oracle vertex is the comonotone
    coupling of ``r`` with ``y``; in two or more dimensions it is the
    optimum of the transportation LP, which ``solve_transport_lp`` finds
    warm-started from the previous call's basis.  Points on a line in R^d,
    d >= 2, take the LP.  Each oracle vertex joins the stored ones (the
    corral), and an exact QP over their hull, started from the iterate's
    weights with the new vertex at 0, gives the next iterate.  The corral
    keeps its vertices' images, linear terms and the QP's start in
    preallocated arrays that double when full; a vertex joins in place,
    and the arrays are compacted in place only when the QP leaves a vertex
    without weight, which drops it.  The coupling is formed once, at
    return.  On the last allowed iteration the loop stops after the gap
    test, so the reported gap is always that of the returned coupling.  A
    result with ``converged=False`` carries the best iterate and its
    remaining gap; :class:`WotResult` lists the diagnostics.  A NaN or
    infinite ``fw_tol`` raises ``ValueError``; a negative one is never met.
    Instances with more than ``BUDGET`` cells ``n * m`` raise
    :class:`BudgetExceededError`.
    """
    if mu.dim != nu.dim:
        raise ValueError("dimension mismatch")
    if not math.isfinite(fw_tol):  # an infinite target passes the first vertex
        raise ValueError(f"fw_tol must be finite, got {fw_tol}")
    _require_budget(mu, nu)
    # unit scale through an exact power of two; [2, 4) rather than [1, 2),
    # where N(0, 1) data would see the absolute part of the gap target grow
    top = max(float(np.abs(mu.points).max()), float(np.abs(nu.points).max()))
    k = math.frexp(top)[1] - 2 if 2.0**-1000 <= top <= 2.0**500 else 0  # 2^-k, 4^k finite
    unit = math.ldexp(1.0, -k)
    x, y, w = unit * mu.points, unit * nu.points, mu.weights
    w_col = w[:, None]
    root_w = np.sqrt(w_col)

    def residual_and_value(p: np.ndarray) -> tuple[np.ndarray, float]:
        # the objective touches a coupling only through its row image
        # p = pi @ y: it is sum_i w_i |r_i|^2 with the residual r = x - p / w
        residual = x - p / w_col
        return residual, float(w @ np.sum(residual**2, axis=1))

    # the northwest corner is the first vertex; in 1-d the oracle needs no
    # basis, otherwise each LP warm-starts from the previous optimal basis
    # (the marginals never change)
    pi, rows, cols = _comonotone_vertex(np.arange(w.size), w, nu.weights)
    basis = None if mu.dim == 1 else _TransportBasis(pi, rows, cols)
    # the corral: the stored vertices by their bytes, in the order they
    # joined; in the rows of preallocated arrays, their images q_k = V_k y,
    # divided by sqrt(w) and flattened (``images``, whose Gram matrix is the
    # quadratic's), their linear terms ``lin`` (value = sum_i w_i |x_i|^2 +
    # alpha' Gram alpha + lin' alpha) and ``start``: the weights alpha of
    # the ``size`` vertices that carry the iterate, then 0 for an entering
    # vertex, from which the next QP starts.  The arrays double when full
    # and are compacted in place only when a QP drops a vertex.
    corral = {pi.tobytes(): pi}
    images = np.empty((_CORRAL_ROWS, x.size))
    lin = np.empty(_CORRAL_ROWS)
    start = np.empty(_CORRAL_ROWS)
    p = pi @ y
    images[0] = (p / root_w).ravel()
    lin[0] = -2.0 * float(np.vdot(x, p))
    start[0] = 1.0
    size = 1
    residual, value = residual_and_value(p)
    gap = np.inf
    iterations = qp_steps = 0
    stop_reason = "max_iter"

    for iterations in range(1, MAX_ITER + 1):
        if basis is None:
            # the cost -2 r y' has rank one and nu's atoms are ascending
            # (DiscreteMeasure sorts them)
            vertex = _comonotone_vertex(residual[:, 0], w, nu.weights)[0]
        else:
            vertex = solve_transport_lp(-2.0 * residual @ y.T, w, nu.weights, basis=basis)
        q = vertex @ y
        gap = 2.0 * float(np.vdot(residual, q - p))
        if gap <= fw_tol * (1.0 + abs(value)):
            stop_reason = "gap"
            break
        key = vertex.tobytes()
        if key in corral:
            # the iterate already minimizes over this vertex, up to roundoff
            stop_reason = "no_descent"
            break
        if iterations == MAX_ITER:
            break  # return the iterate whose gap was just measured
        # re-optimize exactly over the hull of the stored vertices and this one
        if size == lin.size:
            images, lin, start = (np.concatenate((full, np.empty_like(full)))
                                  for full in (images, lin, start))
        corral[key] = vertex
        images[size] = (q / root_w).ravel()
        lin[size] = -2.0 * float(np.vdot(x, q))
        start[size] = 0.0
        stored = images[: size + 1]
        weights, steps = _simplex_qp(stored @ stored.T, lin[: size + 1], start[: size + 1], size)
        qp_steps += steps
        keep = weights > 1e-15
        dropped = not keep.all()
        if dropped:
            weights, stored = weights[keep], stored[keep]
        candidate = (weights @ stored).reshape(x.shape) * root_w
        cand_residual, cand_value = residual_and_value(candidate)
        if cand_value > value + 1e-15 * (1.0 + abs(value)):
            stop_reason = "no_descent"
            break
        p, residual, value = candidate, cand_residual, cand_value
        if dropped:
            lin[: weights.size] = lin[: size + 1][keep]
            images[: weights.size] = stored
            for joined, kept in zip(list(corral), keep):
                if not kept:
                    del corral[joined]
        size = weights.size
        start[:size] = weights

    # after a rejected QP the last stored vertex carries no weight
    pi = np.tensordot(start[:size], list(corral.values())[:size], axes=1)
    return WotResult(
        coupling=Coupling(pi, mu, nu),
        value=math.ldexp(value, 2 * k),
        gap=math.ldexp(gap, 2 * k),
        iterations=iterations,
        converged=stop_reason == "gap",
        diagnostics={
            "active_vertices": size,
            "lp_calls": 0 if basis is None else iterations,
            "pivots": 0 if basis is None else basis.pivots,
            "qp_steps": qp_steps,
            "scale_exponent": k,
            "stop_reason": stop_reason,
        },
    )


def barycentric_pushforward(coupling: Coupling) -> DiscreteMeasure:
    """Image of the first marginal under the conditional-barycenter map.

    For an optimal coupling this is the projection of ``mu`` onto the
    measures dominated by ``nu`` in the convex order; its barycenter always
    equals that of ``nu``.
    """
    return DiscreteMeasure(coupling.conditional_barycenters(), coupling.mu.weights)


def project_discrete(
    mu: DiscreteMeasure, nu: DiscreteMeasure
) -> tuple[DiscreteMeasure, WotResult]:
    """Dominated-side projection of ``mu`` with the result of
    :func:`solve_wot` at its default gap target."""
    result = solve_wot(mu, nu)
    return barycentric_pushforward(result.coupling), result


def exact_w2_sq(mu: DiscreteMeasure, nu: DiscreteMeasure) -> float:
    """Exact squared Wasserstein-2 distance between small discrete measures.

    Instances with more than ``BUDGET`` cells ``n * m`` raise
    :class:`BudgetExceededError`."""
    if mu.dim != nu.dim:
        raise ValueError("dimension mismatch")
    _require_budget(mu, nu)
    diff = mu.points[:, None, :] - nu.points[None, :, :]
    cost = np.sum(diff**2, axis=2)
    pi = solve_transport_lp(cost, mu.weights, nu.weights)
    return float(np.sum(pi * cost))

