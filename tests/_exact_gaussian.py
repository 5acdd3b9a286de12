"""An extended-precision reference for the Bures value in d = 2.

In d = 2, ``tr((A^1/2 B A^1/2)^1/2) = sqrt(tr AB + 2 sqrt(det A det B))``,
so ``bw2`` takes two square roots, which ``decimal`` holds at ``DIGITS``
digits.  The reference solves the float matrices as given: their entries
are read exactly, and a determinant below zero (a matrix built to rank one
keeps an eigenvalue of either sign at about 1e-17 of its scale) is read as
zero, as the library clamps that eigenvalue, which moves the value by about
as much.
"""

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
