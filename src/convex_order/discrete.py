"""Weak-optimal-transport solver for finitely supported measures.

Minimizes the barycentric cost ``sum_i w_i |x_i - m(pi_{x_i})|^2`` over the
transportation polytope by a primal-dual interior-point method on the convex
QP in the coupling and its row images, solves the optimality equations on
the support it finds, once early if the iterate has settled (or restores the
marginals of its last iterate, else takes the product coupling), and
certifies the result by a weak-duality lower bound.  The pushforward of the
first marginal under the conditional-barycenter map of an optimal coupling is
the dominated-side Wasserstein projection.  ``exact_w2_sq`` solves the
transportation LP by a network simplex.
"""

from __future__ import annotations

import math
from dataclasses import dataclass
from typing import Any

import numpy as np

from .linalg import _solve, solve_rule
from .measures import DiscreteMeasure

MARGINAL_TOL = 1e-9
# the certified gap every solve_wot meets, relative to 1 + value at unit scale
GAP_TOL = 1e-10
# Dantzig pricing gives way to Bland's rule after _DEGENERATE_RUNS * (n + m)
# degenerate pivots in a row (0: Bland's rule throughout)
_DEGENERATE_RUNS = 1
# Newton steps per solve; the largest n * m of either engine; the largest
# n (d + 1) (m + d) + m^2 (row blocks and Schur complement) of solve_wot
MAX_ITER = 100
BUDGET = 1_000_000
WOT_BUDGET = 4_000_000
# a predictor blocked before this fraction of its step is followed by a
# centring step to this fraction of the complementarity
_BLOCKED = 0.1
_CENTER = 0.5
# a complementarity below this fraction of 1 + value is roundoff: the steps
# after it lose accuracy, so the solve certifies and stops there
_ROUNDOFF = 1e-15
# the polish: the ratio of each cell of its support, its Newton steps per
# support, the supports it tries, and the marginal residual it may leave
_POLISH_WEIGHT = 1e7
_POLISH_STEPS = 2
_POLISH_ROUNDS = 3
_POLISH_RESIDUAL = 1e-15
# one early polish try at a complementarity below this fraction of 1 + value, once each
# cell's last step kept pi_ij or s_ij above 1 - _SETTLED, the other below
_EARLY_POLISH = 1e-6
_SETTLED = 0.3
# the start's share c of the slacks s_ij = z_i.y_j - min_k z_i.y_k + c (1 / w_i + 1 / nu_j)
_START = 0.1


class BudgetExceededError(ValueError):
    """The instance is larger than the size budget ``BUDGET``."""


def _require_budget(mu: DiscreteMeasure, nu: DiscreteMeasure) -> None:
    """Each discrete engine's pair guard: equal dimensions, ``BUDGET`` cells."""
    if mu.dim != nu.dim:
        raise ValueError("dimension mismatch")
    if mu.size * nu.size > BUDGET:
        raise BudgetExceededError(f"instance size {mu.size}x{nu.size} exceeds the budget {BUDGET}")


class LpInfeasibleError(RuntimeError):
    """Marginals are inconsistent (guards bugs; not for probability vectors)."""


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
        if (pi < -1e-15).any():
            raise ValueError("coupling must be entrywise nonnegative")
        row_err = float(np.abs(pi.sum(axis=1) - self.mu.weights).max())
        col_err = float(np.abs(pi.sum(axis=0) - self.nu.weights).max())
        if not (row_err <= MARGINAL_TOL and col_err <= MARGINAL_TOL):  # NaN fails too
            raise ValueError(f"marginal residuals ({row_err:.3e}, {col_err:.3e}) exceed "
                             f"{MARGINAL_TOL}")
        pi = np.maximum(pi, 0.0)
        pi.setflags(write=False)
        object.__setattr__(self, "pi", pi)

    def conditional_barycenters(self) -> np.ndarray:
        """Row-wise barycenters ``m(pi_{x_i})`` of the disintegration."""
        return (self.pi @ self.nu.points) / self.mu.weights[:, None]


def _northwest_corner(row_w: np.ndarray, col_w: np.ndarray) -> tuple[np.ndarray, ...]:
    """Northwest corner of the transportation polytope, the rows and columns
    taken in their given order, and its n + m - 1 basis cells ``(rows[k],
    cols[k])``, degenerate ones with zero mass: the simplex's start.

    Each piece between consecutive cuts of the merged cumulative weights is
    one cell, in the row and column that the cuts before it have passed; a
    row cut sorts before an equal column cut, so a tie moves down first.
    The cells grow a spanning tree from row 0, as :class:`_TransportBasis`
    needs.
    """
    n = row_w.size
    col_cum = np.cumsum(col_w)
    cuts = np.concatenate((np.cumsum(row_w[:-1]), col_cum[:-1]))
    by_cut = np.argsort(cuts, kind="stable")
    passed_col = by_cut >= n - 1
    rows = np.concatenate(([0], np.cumsum(~passed_col)))
    cols = np.concatenate(([0], np.cumsum(passed_col)))
    pi = np.zeros((n, col_w.size))
    pi[rows, cols] = np.diff(np.concatenate(([0.0], cuts[by_cut], col_cum[-1:])))
    return pi, rows, cols


class _TransportBasis:
    """Spanning-tree basis of the transportation simplex, with its flows
    and dual potentials.

    Nodes ``0..n-1`` are the rows and ``n..n+m-1`` the columns; the tree is
    rooted at row 0.  Every other node ``k`` hangs from ``parent[k]`` at
    ``depth[k]`` through the basis cell ``cell[k]`` (flat index ``i * m +
    j``) of mass ``flow[k]``; ``children[k]`` lists the nodes hung below.
    ``pot`` holds the potentials ``u`` (rows) then ``v`` (columns): 0 at the
    root, elsewhere the cell's cost less the parent's potential.  These are
    plain lists, as each pivot touches a few nodes.  Pricing a cost needs
    ``settle(0, cost)`` first.
    """

    def __init__(self, pi: np.ndarray, rows: np.ndarray, cols: np.ndarray):
        """Tree of the basic solution ``pi`` on the cells ``(rows[k], cols[k])``,
        each joining one new node to the tree grown from row 0."""
        n, m = pi.shape
        size = n + m
        self.n, self.m = n, m
        self.parent = [-1] * size
        self.depth = [0] * size
        self.cell = [-1] * size
        self.flow = [0.0] * size
        self.children: list[list[int]] = [[] for _ in range(size)]
        self.pot = [0.0] * size
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

    def coupling(self) -> np.ndarray:
        """The basic solution as a dense ``n x m`` matrix."""
        pi = np.zeros(self.n * self.m)
        pi[self.cell[1:]] = self.flow[1:]
        return pi.reshape(self.n, self.m)

    def settle(self, top: int, cost: list[float]) -> None:
        """Recompute depth and potential of ``top`` and of every node below
        it; ``top = 0``, the root, recomputes the whole tree."""
        parent, depth, cell, pot, children = (self.parent, self.depth, self.cell, self.pot,
                                              self.children)
        # the root keeps depth and potential 0; a node is reached after
        # its parent, as the loop runs on over the nodes it appends
        below = [top] if top else children[0][:]
        for node in below:
            up = parent[node]
            depth[node] = depth[up] + 1
            pot[node] = cost[cell[node]] - pot[up]
            below += children[node]

    def pivot(self, i: int, j: int, up_col: list[int], up_row: list[int],
              cost: list[float]) -> float:
        """Enter cell ``(i, j)``, whose cycle is ``_basis_cycle``'s output:
        move the largest feasible mass ``theta`` around the cycle, drop the
        first emptied losing cell in row-major order (Bland's leaving rule),
        re-hang the subtree it cut off from the entering cell; ``theta``."""
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
        hang = (anchor, i * m + j, theta)
        for node in path:
            children[parent[node]].remove(node)
            old = (parent[node], cell[node], flow[node])
            parent[node], cell[node], flow[node] = hang
            children[hang[0]].append(node)
            hang = (node, old[1], old[2])
        self.settle(path[0], cost)
        return theta


def _basis_cycle(basis: _TransportBasis, i: int, j: int) -> tuple[list[int], list[int]]:
    """Cycle closed by adding cell ``(i, j)`` to the basis tree.

    Returns the nodes passed walking up from column ``j`` and from row
    ``i`` to their lowest common ancestor (excluded), each standing for the
    cell to its parent; along either walk the cells lose and gain mass in
    turn, starting with a loss.
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


def solve_transport_lp(cost: np.ndarray, row_weights: np.ndarray,
                       col_weights: np.ndarray) -> np.ndarray:
    """Exact optimal vertex of the transportation polytope.

    Network simplex on the basis tree, from :func:`_northwest_corner`.  The
    entering cell has the most negative reduced cost; after ``n + m``
    degenerate pivots in a row, Bland's rule (the first cell in row-major
    order that prices below the threshold) takes over until a pivot moves
    mass, which rules out cycling.  Each pivot recomputes the potentials of
    the subtree it re-hangs.  Zero cost returns the northwest corner.

    Pricing computes ``(c_ij - u_i) - v_j`` on every cell, basis cells
    included, unmasked: a basis cell prices at exactly 0 (child column) or
    a few ulps of the potentials (child row), far inside ``threshold = 1e-12
    * (1 + max|c|)`` (by more than 100x up to 90x90, in the tests).  So it
    is the argmin only when no cell prices below ``-threshold``, which ends
    the solve, and Bland's rule never picks one.  A cost that is not finite
    or not of shape ``(n, m)``, or a negative or non-finite weight, raises
    ``ValueError``.
    """
    cost = np.asarray(cost, dtype=float)
    row_w = np.asarray(row_weights, dtype=float)
    col_w = np.asarray(col_weights, dtype=float)
    n, m = row_w.size, col_w.size
    if cost.shape != (n, m):
        raise ValueError(f"cost must have the shape {(n, m)} of the weights, not {cost.shape}")
    if not np.isfinite(cost).all():
        raise ValueError("cost entries must be finite")
    for name, weights in (("row_weights", row_w), ("col_weights", col_w)):
        if not (np.isfinite(weights) & (weights >= 0.0)).all():
            raise ValueError(f"{name} must be finite and nonnegative")
    total = float(row_w.sum())
    if abs(total - float(col_w.sum())) > 1e-9 * (1.0 + total):
        raise LpInfeasibleError("row and column weights have different totals")
    basis = _TransportBasis(*_northwest_corner(row_w, col_w))
    flat_cost = cost.ravel().tolist()
    basis.settle(0, flat_cost)
    threshold = 1e-12 * (1.0 + float(np.abs(cost).max()))
    max_pivots = 40 * (n + m) * max(n, m)
    max_degenerate = _DEGENERATE_RUNS * (n + m)
    degenerate = 0
    pot = np.empty(n + m)
    row_pot, col_pot = pot[:n, None], pot[n:]
    reduced = np.empty((n, m))
    flat = reduced.reshape(-1)

    for _ in range(max_pivots):
        pot[:] = basis.pot
        np.subtract(cost, row_pot, out=reduced)
        reduced -= col_pot
        enter = int(flat.argmin())
        if flat[enter] >= -threshold:
            return basis.coupling()
        if degenerate >= max_degenerate:  # Bland: first in row-major order
            enter = int((flat < -threshold).argmax())
        i, j = divmod(enter, m)
        up_col, up_row = _basis_cycle(basis, i, j)
        theta = basis.pivot(i, j, up_col, up_row, flat_cost)
        degenerate = degenerate + 1 if theta == 0.0 else 0
    raise LpInfeasibleError("transportation simplex exceeded its pivot budget")


@dataclass(frozen=True)
class WotResult:
    """Outcome of :func:`solve_wot`.

    ``coupling`` is the last certified coupling (see :func:`solve_wot`),
    ``value`` its barycentric cost and ``gap`` that less the weak-duality
    bound of :func:`_lower_bound`: the optimum lies in ``[value - gap,
    value]`` up to roundoff (a polished gap can be a few ulps below 0).
    ``iterations`` counts the Newton steps; ``converged`` tells whether the
    gap met ``GAP_TOL * (1 + value)`` at unit scale.  ``diagnostics`` holds:

    - ``complementarity``: ``sum_ij pi_ij s_ij`` of the last iterate;
    - ``certificates``: the iterates certified, an early polish try only if it ends the solve;
    - ``polished``: whether the coupling is the polish's, not the restored
      iterate;
    - ``scale_exponent``: the ``k`` of the unit scale ``2^k``;
    - ``stop_reason``: ``"gap"``; ``"forced"`` (a single atom on one side
      forces the product coupling); ``"roundoff"`` (the complementarity fell
      to roundoff first); ``"singular"`` (a Newton system gave no finite
      step); or ``"max_iter"``;
    - ``least_squares``: singular Schur complements solved by least norm, a failed try's included.
    """

    coupling: Coupling
    value: float
    gap: float
    iterations: int
    converged: bool
    diagnostics: dict[str, Any]


def _lower_bound(x: np.ndarray, w: np.ndarray, y: np.ndarray, col_w: np.ndarray,
                 r: np.ndarray, b: np.ndarray) -> float:
    """Weak-duality bound on the barycentric cost of every coupling:
    ``LB(r, b) = sum_i w_i (2 r_i.x_i - |r_i|^2) - 2 sum_i w_i max_j (r_i.y_j -
    b_j) - 2 sum_j col_w_j b_j`` for any residuals ``r`` and potentials ``b``.
    A coupling with images ``p_i`` and barycenters ``T_i = p_i / w_i`` costs
    ``sum_i w_i |x_i - T_i|^2 >= sum_i w_i (2 r_i.(x_i - T_i) - |r_i|^2)``, and
    ``sum_i r_i.p_i = sum_ij pi_ij (r_i.y_j - b_j) + sum_j col_w_j b_j`` is at
    most the sums the bound subtracts.  Optimal duals attain it."""
    reach = (r @ y.T - b).max(axis=1)
    own = (r * (2.0 * x - r)).sum(axis=1)
    return float(w @ (own - 2.0 * reach)) - 2.0 * float(col_w @ b)


def _restore_marginals(pi: np.ndarray, row_w: np.ndarray, col_w: np.ndarray) -> np.ndarray:
    """``pi`` scaled onto the marginals ``(row_w, col_w)`` by one
    multiplicative Newton step ``pi_ij (1 + a_i + b_j)``.  The sums are
    linear in ``(a, b)``; row ``i``'s gives ``a_i = (row_w_i - R_i - sum_j
    pi_ij b_j) / R_i`` (``R``, ``C`` the sums of ``pi``), which leaves the
    (m - 1) system ``(diag(C) - pi' diag(1 / R) pi) b = col_w - C - pi' ((row_w
    - R) / R)``, ``b`` of the last column at 0, definite for a positive
    ``pi``: one solve meets both marginals to roundoff."""
    rows, cols = pi.sum(axis=1), pi.sum(axis=0)
    row_gap = row_w - rows
    per_row = pi / rows[:, None]
    system = np.diag(cols[:-1]) - pi.T[:-1] @ per_row[:, :-1]
    col_shift = np.append(_solve(system, (col_w - cols - row_gap @ per_row)[:-1]), 0.0)
    row_shift = (row_gap - pi @ col_shift) / rows
    return pi * ((1.0 + row_shift[:, None]) + col_shift)


class _NewtonSystem:
    """The Newton equations of :func:`solve_wot` at one iterate, reduced to
    one block per row and the Schur complement on the column duals, with the
    work arrays that every step reuses.

    Row ``i``'s block ``sum_j d_ij a_ij a_ij' + diag(0, w_i / 2 I)``, with
    ratios ``d_ij`` (``pi_ij / s_ij`` in the interior) and ``a_ij = (1,
    c_ij)``, is centred on the row's d-weighted mean ``ybar_i`` of the atoms:
    ``c_ij = ybar_i - y_j``, so it splits into ``total_i = sum_j d_ij`` and
    an image part solved by LU.  In a row's largest cell, which holds nearly
    all of ``total_i`` near the optimum, ``c_ij`` is summed over the others.

    Built once per solve: the block arrays, every slice of them that a step
    reads, :meth:`factor`'s ``rest`` and :meth:`direction`'s work arrays.
    Each step fills them in place, so the stacked step and ``dz`` that
    :meth:`direction` returns are overwritten by its next call."""

    def __init__(self, x: np.ndarray, y: np.ndarray, w: np.ndarray, col_w: np.ndarray):
        n, m, dim = w.size, col_w.size, x.shape[1]
        self.shape = n, m, dim
        self.y, self.y_t, self.w, self.col_w = y, y.T, w, col_w
        self.half_w = 0.5 * w[:, None]
        self.w_x = w[:, None] * x  # the images are p = w x + (w / 2) z
        self.every_row = np.arange(n)
        self.cols = cols = np.ones((n, dim + 1, m))
        self.spread = spread = np.empty((n, dim + 1, m))  # the columns d_ij a_ij
        solved = np.empty((n, dim + 1, m + 1))
        image_rhs = np.empty((n, dim, m + 1))
        self.half_w_block = np.zeros((n, dim, dim))
        self.half_w_block[:, np.arange(dim), np.arange(dim)] = self.half_w
        self.least_squares = 0  # the Schur solves that fell back to lstsq
        # the views each step reads: row 0 of a block is its share of total_i,
        # rows 1: its image part, and column m of solved is the residual's
        self.cols_image, self.spread_image = cols[:, 1:], spread[:, 1:]
        self.cols_image_t, solved_image = self.cols_image.transpose(0, 2, 1), solved[:, 1:]
        self.rhs_cols, self.rhs_residual = image_rhs[:, :, :m], image_rhs[:, :, m]
        self.share, self.share_residual = solved[:, 0, :m], solved[:, 0, m]
        self.solved_cols, self.solved_residual = solved[:, :, :m], solved[:, :, m]
        self.flat_spread = flat_spread = spread.reshape(-1, m)
        self.spread_head = flat_spread[:, :-1].T
        self.solved_head = solved.reshape(-1, m + 1)[:, :-2]
        self.image_heads = spread[:, 1:, :-1], solved_image[:, :, :-2]
        self.targets = {0: (image_rhs, solved_image),
                        m: (image_rhs[:, :, m:], solved_image[:, :, m:])}
        # direction's work arrays with their views, and factor's rest
        eta, q, moved = np.empty((n, dim + 1, 1)), np.empty((n, 1, dim + 1)), np.empty((n, 1, m))
        self.eta, self.eta_rows, self.flat_eta = eta, eta[:, :, 0], eta.reshape(-1)
        self.q, self.q_rows, self.flat_q, self.dz = q, q[:, 0], q.reshape(-1), q[:, 0, 1:]
        self.moved, self.moved_rows, self.moved_head = moved, moved[:, 0], moved[:, 0, :-1]
        self.dpi, self.ds = self.step = np.empty((2, n, m))
        self.quotient, self.rest = np.empty((2, n, m)), np.empty((n, m))

    def factor(self, ratio: np.ndarray, pi: np.ndarray, z: np.ndarray) -> None:
        """Solve the blocks at the ratios ``d = ratio`` and the residuals of
        ``(pi, z)``, and form the Schur complement."""
        m = self.shape[1]
        y, every_row, cols_image, spread_image, rest, share = (
            self.y, self.every_row, self.cols_image, self.spread_image, self.rest, self.share)
        self.ratio = ratio
        self.total = total = np.add.reduce(ratio, axis=1)
        largest = ratio.argmax(axis=1)
        np.copyto(rest, ratio)
        rest[every_row, largest] = 0.0
        self.y_bar = (ratio @ y) / total[:, None]
        np.subtract(self.y_bar[:, :, None], self.y_t, out=cols_image)
        cols_image[every_row, :, largest] = (rest @ y - np.add.reduce(rest, axis=1)[:, None]
                                             * y[largest]) / total[:, None]
        np.multiply(ratio[:, None, :], self.cols, out=self.spread)
        self.image_block = spread_image @ self.cols_image_t + self.half_w_block
        self.rhs_cols[...] = spread_image
        self.residual(pi, z, 0)
        np.divide(ratio, total[:, None], out=share)
        # D_col - sum_i B_i' K_i^-1 B_i, whose row part D_col - sum_i d_i d_i'
        # / total_i has the diagonal sum_i d_ij (total_i - d_ij) / total_i
        schur = -(self.spread_head @ self.solved_head)
        image_diag = np.add.reduce(np.multiply(*self.image_heads), axis=(0, 1))
        schur.flat[::m] = np.add.reduce(share * (total[:, None] - ratio), axis=0)[:-1] - image_diag
        self.schur = schur

    def residual(self, pi: np.ndarray, z: np.ndarray, first: int) -> None:
        """Set the marginal and image residuals of ``(pi, z)`` and solve the
        blocks of the last :meth:`factor` for the right-hand sides from column
        ``first`` on (``m``: the residuals alone, as the ratios are unchanged)."""
        r_row = self.w - np.add.reduce(pi, axis=1)
        self.r_col = (self.col_w - np.add.reduce(pi, axis=0))[:-1]
        np.add(pi @ self.y - self.w_x - self.half_w * z, self.y_bar * r_row[:, None],
               out=self.rhs_residual)
        rhs, target = self.targets[first]
        target[...] = _solve(self.image_block, rhs)
        np.divide(r_row, self.total, out=self.share_residual)

    def direction(self, t: np.ndarray, primal_slack: np.ndarray | float):
        """The step whose complementarity rows read ``s dpi + pi ds = pi t``:
        ``dpi = d (moved + t)`` and ``ds = -moved``, where ``moved_ij =
        a_ij.q_i + dv_j`` and ``K_i q_i = residual_i - sum_j d_ij (t_ij +
        dv_j) a_ij``.  Returns the stacked ``(dpi, ds)``, ``dz``, ``dv`` and
        the largest step that keeps ``primal_slack`` nonnegative; the stacked
        step and ``dz`` are work arrays that the next call overwrites.  A
        singular Schur complement is solved by least norm; a step that is not
        finite raises ``LinAlgError``."""
        ratio, eta, q_rows, moved, dpi = (self.ratio, self.eta_rows, self.q_rows, self.moved_rows,
                                          self.dpi)
        np.matmul(self.solved_cols, t[:, :, None], out=self.eta)
        np.subtract(self.solved_residual, eta, out=eta)
        rhs = self.r_col - (np.add.reduce(ratio * t, axis=0)
                            + self.flat_eta @ self.flat_spread)[:-1]
        try:
            dv = _solve(self.schur, rhs)
        except np.linalg.LinAlgError:
            # on degenerate instances the complement can round to an exact
            # zero pivot: the least-norm solution leaves the free duals alone
            self.least_squares += 1
            dv = np.linalg.lstsq(self.schur, rhs, rcond=None)[0]
        np.matmul(self.solved_head, dv, out=self.flat_q)
        np.subtract(eta, q_rows, out=q_rows)
        np.matmul(self.q, self.cols, out=self.moved)
        self.moved_head += dv
        np.add(moved, t, out=dpi)
        np.multiply(ratio, dpi, out=dpi)
        np.negative(moved, out=self.ds)
        np.divide(self.step, primal_slack, out=self.quotient)
        lowest = float(np.minimum.reduce(self.quotient, axis=None))
        if not math.isfinite(lowest):
            raise np.linalg.LinAlgError("the Newton step is not finite")
        return self.step, self.dz, dv, -1.0 / lowest if lowest < 0.0 else math.inf

    def polish(self, support: np.ndarray, *start: np.ndarray):
        """The solution ``(pi, z, v)`` from ``start = (pi, s, z, v)`` of the
        optimality equations on ``support``: ``s = 0`` there, ``pi = 0`` off
        it, and the marginal and image equations.  ``_POLISH_STEPS`` proximal
        Newton steps (ratio ``_POLISH_WEIGHT`` on the support: each solves
        ``s_ij + dpi_ij / _POLISH_WEIGHT = 0``) take them to roundoff on one
        factorization: the steps after the first solve their :meth:`residual`
        alone.  Cells whose ``pi`` comes out negative leave the support, for at
        most ``_POLISH_ROUNDS`` supports.
        ``LinAlgError`` if a row or column misses the support, or the last
        leaves ``pi < 0`` or a marginal off by more than ``_POLISH_RESIDUAL``,
        without which the bound's gap would not certify a coupling."""
        for _ in range(_POLISH_ROUNDS):
            if not (support.any(axis=1).all() and support.any(axis=0).all()):
                raise np.linalg.LinAlgError("a row or column misses the support")
            ratio = np.where(support, _POLISH_WEIGHT, 0.0)
            pi = np.where(support, start[0], 0.0)
            s, z, v = (a.copy() for a in start[1:])
            self.factor(ratio, pi, z)
            for step in range(_POLISH_STEPS):
                if step:  # the same ratios: only the residuals are solved again
                    self.residual(pi, z, self.shape[1])
                (dpi, ds), dz, dv, _ = self.direction(-s, 1.0)
                pi += dpi
                s += ds
                z += dz
                v[:-1] += dv
            negative = pi < 0.0
            if not negative.any():
                break
            support = support & ~negative
        off = max(np.abs(pi.sum(axis=1) - self.w).max(),
                  np.abs(pi.sum(axis=0) - self.col_w).max())
        if negative.any() or not off <= _POLISH_RESIDUAL:
            raise np.linalg.LinAlgError("no nonnegative solution on the support")
        return pi, z, v


def solve_wot(mu: DiscreteMeasure, nu: DiscreteMeasure) -> WotResult:
    """Minimize the barycentric cost over the couplings of ``(mu, nu)``.

    Mehrotra's predictor-corrector on the QP over couplings ``pi >= 0`` and
    images ``p``: minimize ``sum_i |w_i x_i - p_i|^2 / w_i`` subject to
    ``pi 1 = w``, ``pi' 1 = nu`` (the last column's equation dropped) and
    ``p_i = sum_j pi_ij y_j``, with duals ``u``, ``v`` (``v_m = 0``), ``z``
    and slacks ``s_ij = z_i.y_j - u_i - v_j >= 0``.  Stationarity in ``p``,
    ``p_i = w_i (x_i + z_i / 2)`` (``z = -2 r``), holds along every step.
    The points are divided by the power of two ``2^scale_exponent`` that
    brings the largest |coordinate| into ``[2, 4)``.

    The start is the product coupling with ``z = -2 r`` and the slacks
    ``s_ij = z_i.y_j - min_k z_i.y_k + c (1 / w_i + 1 / nu_j)``, ``c =
    _START``, so every ``pi_ij s_ij >= c (w_i + nu_j)``, with equality at
    each row's least ``z_i.y_j``.  The steps follow the weighted central path
    ``pi_ij s_ij = mu (w_i + nu_j)`` that this start lies on: on the uniform
    one, ``pi_ij s_ij = mu``, a light row swung between the corners of its
    cells and Mehrotra's steps cycled to ``MAX_ITER`` (on 6 of 30,000 small
    grid instances in the plane).  Each step solves :class:`_NewtonSystem`
    for the predictor and the corrector and goes 0.995 of the way to the
    boundary, or centres (see ``_BLOCKED``).

    Once the complementarity falls to ``GAP_TOL * (1 + value)``, the iterate is
    certified: the coupling is :meth:`_NewtonSystem.polish`'s solution on the
    support ``pi > s`` if it meets the target, else the iterate with
    :func:`_restore_marginals` if that is a :class:`Coupling`, else the product
    coupling, and ``gap`` is its value less :func:`_lower_bound` at that
    solution's ``r = -z / 2``, ``b = -v / 2``.  The solve stops when the gap
    meets the target and resumes otherwise; a complementarity below ``_ROUNDOFF
    * (1 + value)``, a singular Newton system (inside one ``linalg.solve_rule``)
    or ``MAX_ITER`` steps end it.  More than ``BUDGET`` cells ``n * m``, or ``n
    (d + 1) (m + d) + m^2 > WOT_BUDGET``, raise :class:`BudgetExceededError`
    (the README has times at the budget).

    Once before that, at the first step where the complementarity is below
    ``_EARLY_POLISH * (1 + value)`` and every cell has settled (``_SETTLED``),
    the polish is tried; the solve stops there if the gap meets the target, and
    otherwise goes on as if untried, but for the try's ``least_squares``.
    """
    _require_budget(mu, nu)
    n, m, dim = mu.size, nu.size, mu.dim
    if n * (dim + 1) * (m + dim) + m * m > WOT_BUDGET:
        raise BudgetExceededError(f"instance size {n}x{m} in dimension {dim} exceeds the "
                                  f"interior-point budget {WOT_BUDGET}")
    # unit scale through an exact power of two; [2, 4) rather than [1, 2),
    # where N(0, 1) data would see the absolute part of the gap target grow
    top = max(float(np.abs(mu.points).max()), float(np.abs(nu.points).max()))
    k = math.frexp(top)[1] - 2 if top >= 2.0**-1000 else 0  # 2^-k and 4^k stay finite
    unit = math.ldexp(1.0, -k)
    x, y, w, col_w = unit * mu.points, unit * nu.points, mu.weights, nu.weights
    w_col = w[:, None]
    # pi and s stacked, so that one ratio test and one update serve both
    primal_slack = np.empty((2, n, m))
    pi, s = primal_slack
    np.multiply(w_col, col_w, out=pi)
    z = 2.0 * (col_w @ y - x)
    system = _NewtonSystem(x, y, w, col_w)
    if n == 1 or m == 1:
        # the product coupling is the only one; b_j = r_1.y_j closes the bound
        v = z[0] @ y.T
        max_steps = 0
    else:
        zy = z @ y.T
        # u_i = min_j z_i.y_j - c / w_i - c / nu_m and v_j = c / nu_m - c / nu_j, c =
        # _START: every product pi_ij s_ij >= c (w_i + nu_j)
        np.subtract(zy, zy.min(axis=1)[:, None] - _START / w_col, out=s)
        s += _START / col_w
        v = _START / col_w[-1] - _START / col_w
        max_steps = MAX_ITER
    certified: list[bool] = []  # one entry per certified iterate: whether its polish was

    def bracket(coupling: np.ndarray, z: np.ndarray, v: np.ndarray) -> tuple[float, float]:
        residual = x - (coupling @ y) / w_col
        value = float(w @ (residual * residual).sum(axis=1))
        return value, value - _lower_bound(x, w, y, col_w, -0.5 * z, -0.5 * v)

    def polish() -> tuple[np.ndarray, float, float] | None:
        try:
            exact, exact_z, exact_v = system.polish(pi > s, pi, s, z, v)
        except np.linalg.LinAlgError:
            return None
        value, gap = bracket(exact, exact_z, exact_v)
        if gap > GAP_TOL * (1.0 + value):
            return None
        certified.append(True)
        return exact, value, gap

    def certify() -> tuple[np.ndarray, float, float]:
        if max_steps and (exact := polish()) is not None:
            return exact
        certified.append(False)
        if max_steps == 0:
            return pi.copy(), *bracket(pi, z, v)
        try:
            coupling = _restore_marginals(pi, w, col_w)
            Coupling(coupling, mu, nu)  # nonnegative, with both marginals
        except (np.linalg.LinAlgError, ValueError):
            coupling = w_col * col_w  # the product coupling always is
        return coupling, *bracket(coupling, z, v)

    # the central path's products pi_ij s_ij = mu (w_i + nu_j), in shares of their sum
    centre = w_col + col_w
    centre /= centre.sum()
    steps = 0
    singular = False
    early, last = True, primal_slack.copy()  # the early try is to come; pi, s before a step
    with solve_rule():  # a singular Newton system raises LinAlgError
        while True:
            # the interior iterate's own value is sum_i w_i |z_i / 2|^2
            scale = 1.0 + 0.25 * float(w @ np.add.reduce(z * z, axis=1))
            complementarity = float(np.vdot(pi, s)) if max_steps else 0.0
            spent = complementarity <= _ROUNDOFF * scale or steps == max_steps
            if complementarity <= GAP_TOL * scale or spent:
                coupling, value, gap = certify()
                if gap <= GAP_TOL * (1.0 + value) or spent:
                    break
            elif early and complementarity <= _EARLY_POLISH * scale:
                low, high = np.sort(primal_slack / last, axis=0)  # the shares each cell kept
                if (low < _SETTLED).all() and (high > 1.0 - _SETTLED).all():
                    early = False
                    if (exact := polish()) is not None:
                        coupling, value, gap = exact
                        break
            try:
                system.factor(pi / s, pi, z)
                predictor, _, _, reach = system.direction(-s, primal_slack)
                central = complementarity * centre
                if reach < _BLOCKED:
                    correction = _CENTER * central
                else:
                    trial = primal_slack + min(1.0, reach) * predictor
                    sigma = (float(np.vdot(trial[0], trial[1])) / complementarity) ** 3
                    correction = sigma * central - predictor[0] * predictor[1]
                move, dz, dv, reach = system.direction(correction / pi - s, primal_slack)
            except np.linalg.LinAlgError:
                singular = True
                if complementarity > GAP_TOL * scale:  # else certified at this step
                    coupling, value, gap = certify()
                break
            alpha = min(1.0, 0.995 * reach)
            last[:] = primal_slack
            primal_slack += alpha * move
            v[:-1] += alpha * dv
            z += alpha * dz
            steps += 1

    converged = gap <= GAP_TOL * (1.0 + value)
    stop_reason = ("forced" if max_steps == 0 else "gap" if converged else "singular"
                   if singular else "max_iter" if steps == max_steps else "roundoff")
    return WotResult(
        coupling=Coupling(coupling, mu, nu),
        value=math.ldexp(value, 2 * k),
        gap=math.ldexp(gap, 2 * k),
        iterations=steps,
        converged=converged,
        diagnostics={"complementarity": math.ldexp(complementarity, 2 * k),
                     "certificates": len(certified), "least_squares": system.least_squares,
                     "polished": certified[-1:] == [True],
                     "scale_exponent": k, "stop_reason": stop_reason},
    )


def barycentric_pushforward(coupling: Coupling) -> DiscreteMeasure:
    """Image of the first marginal under the conditional-barycenter map.

    For an optimal coupling this is the projection of ``mu`` onto the
    measures dominated by ``nu`` in the convex order; its barycenter always
    equals that of ``nu``.
    """
    return DiscreteMeasure(coupling.conditional_barycenters(), coupling.mu.weights)


def project_discrete(mu: DiscreteMeasure,
                     nu: DiscreteMeasure) -> tuple[DiscreteMeasure, WotResult]:
    """Dominated-side projection of ``mu`` with the result of
    :func:`solve_wot`."""
    result = solve_wot(mu, nu)
    return barycentric_pushforward(result.coupling), result


def exact_w2_sq(mu: DiscreteMeasure, nu: DiscreteMeasure) -> float:
    """Exact squared Wasserstein-2 distance between small discrete measures;
    more than ``BUDGET`` cells ``n * m`` raise :class:`BudgetExceededError`."""
    _require_budget(mu, nu)
    diff = mu.points[:, None, :] - nu.points[None, :, :]
    cost = (diff**2).sum(axis=2)
    pi = solve_transport_lp(cost, mu.weights, nu.weights)
    return float((pi * cost).sum())

