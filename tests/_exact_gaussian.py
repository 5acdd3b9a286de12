"""References in d = 2 that share no code with the library.

In d = 2, ``tr((A^1/2 B A^1/2)^1/2) = sqrt(tr AB + 2 sqrt(det A det B))``,
so ``bw2`` takes two square roots, which ``decimal`` holds at ``DIGITS``
digits.  The reference solves the float matrices as given: their entries
are read exactly, and a determinant below zero (a matrix built to rank one
keeps an eigenvalue of either sign at about 1e-17 of its scale) is read as
zero, as the library clamps that eigenvalue, which moves the value by about
as much.

The projection distance is, in floats, the maximum over one rotation angle
of the paper's bound ``sum_i (sqrt((O'AO)_ii) - sqrt((O'BO)_ii))_+^2``,
which holds for every orthogonal ``O`` and is attained at a certified one.
"""

import math
from decimal import Decimal, localcontext

import numpy as np

DIGITS = 60
FAMILIES = ("full_rank", "rank_one_a", "rank_one_b", "both_rank_one")


def exact_bw2(a: np.ndarray, b: np.ndarray) -> Decimal:
    """``bw2(a, b)`` for exactly symmetric 2x2 float matrices, in ``decimal``."""
    assert a.shape == b.shape == (2, 2) and a[0, 1] == a[1, 0] and b[0, 1] == b[1, 0]
    with localcontext() as ctx:
        ctx.prec = DIGITS
        (a11, a12), (_, a22) = [[Decimal(float(x)) for x in row] for row in a]
        (b11, b12), (_, b22) = [[Decimal(float(x)) for x in row] for row in b]
        det_a = max(a11 * a22 - a12 * a12, Decimal(0))
        det_b = max(b11 * b22 - b12 * b12, Decimal(0))
        cross = a11 * b11 + 2 * a12 * b12 + a22 * b22 + 2 * (det_a * det_b).sqrt()
        return +(a11 + a22 + b11 + b22 - 2 * max(cross, Decimal(0)).sqrt())


def _covariance(rng: np.random.Generator, rank: int) -> np.ndarray:
    """``R diag(v) R'`` in float, exactly symmetric, for a rotation ``R`` by a
    uniform angle and ``v`` of the given rank with entries in [0.2, 3]."""
    t = rng.uniform(0.0, np.pi)
    r = np.array([[np.cos(t), -np.sin(t)], [np.sin(t), np.cos(t)]])
    v = np.zeros(2)
    v[:rank] = rng.uniform(0.2, 3.0, rank)
    m = (r * v) @ r.T
    return 0.5 * (m + m.T)


def oracle_pairs(rng: np.random.Generator, family: str, n: int) -> list:
    """``n`` pairs ``(a, b)`` of ``family``: both full rank, ``a`` or ``b``
    of rank one, or both of rank one."""
    ranks = {"full_rank": (2, 2), "rank_one_a": (1, 2), "rank_one_b": (2, 1),
             "both_rank_one": (1, 1)}[family]
    return [tuple(_covariance(rng, rank) for rank in ranks) for _ in range(n)]


DISTANCE_FAMILIES = ("full_rank", "commuting", "wide", "wide_commuting", "rank_one_mu")


def _rotated(angles: np.ndarray, vals: np.ndarray) -> np.ndarray:
    """The stack ``R diag(v) R'``, exactly symmetric, for rotations ``R`` by
    ``angles`` and the rows ``v`` of ``vals``."""
    c, s = np.cos(angles), np.sin(angles)
    r = np.stack((np.stack((c, -s), -1), np.stack((s, c), -1)), -2)
    m = (r * vals[:, None, :]) @ np.swapaxes(r, 1, 2)
    return 0.5 * (m + np.swapaxes(m, 1, 2))


def distance_pairs(rng: np.random.Generator, family: str, n: int):
    """``n`` pairs of ``family`` as two ``(n, 2, 2)`` stacks, one row of
    draws a pair (so the first ``k`` of ``n`` pairs are the ``k`` pairs):
    full rank with eigenvalues in [0.2, 3]; commuting (one rotation) in
    [0.1, 4]; wide spectra, eigenvalues ``10^U(-6, 1)``, generic or
    commuting; and ``A`` of rank one against a full-rank ``B``."""
    u = rng.random((n, 6))
    angles = np.pi * u[:, :2]
    if family in ("commuting", "wide_commuting"):
        angles[:, 1] = angles[:, 0]
    if family in ("wide", "wide_commuting"):
        vals = 10.0 ** (7.0 * u[:, 2:] - 6.0)
    else:
        lo, hi = (0.1, 4.0) if family == "commuting" else (0.2, 3.0)
        vals = lo + (hi - lo) * u[:, 2:]
    if family == "rank_one_mu":
        vals[:, 1] = 0.0
    return _rotated(angles[:, 0], vals[:, :2]), _rotated(angles[:, 1], vals[:, 2:])


def _bound(a: np.ndarray, b: np.ndarray, theta: np.ndarray) -> np.ndarray:
    """The bound at the rotations by ``theta`` (one row of angles a pair)."""
    c, s = np.cos(theta), np.sin(theta)
    diagonals = []
    for m in (a, b):
        p, q, r = m[:, 0, 0, None], m[:, 0, 1, None], m[:, 1, 1, None]
        cross = 2.0 * q * s * c
        diagonals.append((p * c * c + cross + r * s * s, p * s * s - cross + r * c * c))
    return sum(np.maximum(np.sqrt(np.maximum(x, 0.0)) - np.sqrt(np.maximum(y, 0.0)), 0.0) ** 2
               for x, y in zip(*diagonals))


def bound_maximum(a: np.ndarray, b: np.ndarray, grid: int = 4097,
                  sections: int = 64) -> np.ndarray:
    """The bound's maximum over the angle, for each pair of the stacks ``a``
    and ``b``: the best of a ``grid``-point grid on [0, pi/2] (swapping the
    two axes leaves the bound unchanged, so that period suffices), refined
    by ``sections`` golden-section steps on the grid cells beside it."""
    theta = np.linspace(0.0, 0.5 * np.pi, grid)
    values = _bound(a, b, np.broadcast_to(theta, (len(a), grid)))
    best = values.argmax(axis=1)
    lo, hi = theta[best] - theta[1], theta[best] + theta[1]
    ratio = 0.5 * (math.sqrt(5.0) - 1.0)
    for _ in range(sections):
        x1, x2 = hi - ratio * (hi - lo), lo + ratio * (hi - lo)
        f1, f2 = _bound(a, b, x1[:, None])[:, 0], _bound(a, b, x2[:, None])[:, 0]
        right = f1 < f2  # the maximum lies in [x1, hi]
        lo, hi = np.where(right, x1, lo), np.where(right, hi, x2)
    return np.maximum(values.max(axis=1), np.maximum(f1, f2))
