"""Supremum of [<u, x> - a]_+ / ||u||_dual over a convex hull of generators.

With c = A x - alpha, the ratio is positively homogeneous in the hull
weights, so the supremum is 1 / D with D = min {||A^T mu||_dual : mu >= 0,
c.mu = 1}.  Euclidean decision norm: one non-negative least squares solve,
nu = argmin_{nu >= 0} ||A^T nu||^2 + (c.nu - 1)^2, is a positive multiple of
the minimizing mu, and the supremum is c.nu / ||A^T nu||.  l1/linf norms:
the equivalent LP max {c.mu : mu >= 0, ||A^T mu||_dual <= 1}.

Conventions: 0/0 := 0 for zero-coefficient hull points with nonnegative
offset; a hull point (0, a) with a < 0 certifies infeasibility of the
underlying system and the supremum is +inf.
"""
from __future__ import annotations

import numpy as np

from ..norms import NormSpec
from .minnorm import nnls
from .simplex import lp_solve_nonneg


def zero_face_floor(A, alpha):
    """min alpha.lam over simplex weights with A^T lam = 0, and the weights.

    Returns (floor, lam, status); (+inf, None, status) unless Optimal.  It
    is the dual of the margin LP min s s.t. <a_t, x> - s <= alpha_t: an
    Optimal status carries x and -s as its duals, an Infeasible one a Farkas
    certificate.  Weight t's column is scaled by the power of two nearest
    1 / max|(a_t, 1)| (Tomlin 1975), which keeps the duals in the caller's
    units.
    """
    m, n = A.shape
    scale = np.exp2(-np.rint(np.log2(np.abs(A).max(axis=1, initial=1.0))))
    eq = np.vstack([A.T, np.ones((1, m))]) * scale
    rhs = np.concatenate([np.zeros(n), [1.0]])
    status, mu = lp_solve_nonneg(alpha * scale, None, None, eq, rhs)
    if not status.optimal:
        return np.inf, None, status
    lam = scale * mu
    return float(alpha @ lam), lam, status


def dual_ball_lp(A, c, dual_kind):
    """max c.mu over mu >= 0 with ||A^T mu||_dual <= 1, for dual l1 or linf.

    Returns (status, mu) of the minimization of -c.mu; mu is None unless
    the LP returned a point.  The l1 ball uses auxiliary s >= 0 with
    +-(A^T mu)_k <= s_k and sum s <= 1.
    """
    m, n = A.shape
    if dual_kind == "linf":
        status, z = lp_solve_nonneg(-c, np.vstack([A.T, -A.T]), np.ones(2 * n))
    else:
        k = np.arange(n)
        ub = np.zeros((2 * n + 1, m + n))
        ub[0:2 * n:2, :m] = A.T
        ub[1:2 * n:2, :m] = -A.T
        ub[2 * k, m + k] = -1.0
        ub[2 * k + 1, m + k] = -1.0
        ub[2 * n, m:] = 1.0
        rhs = np.zeros(2 * n + 1)
        rhs[2 * n] = 1.0
        cost = np.zeros(m + n)
        cost[:m] = -c
        status, z = lp_solve_nonneg(cost, ub, rhs)
    return status, None if z is None else z[:m]


def max_ratio_over_hull(generators, x, norm: NormSpec = NormSpec()) -> float:
    """sup over hull points (u, a) of co(generators) of [<u, x> - a]_+ / ||u||_dual."""
    A = np.atleast_2d(np.asarray(generators.coefficients, dtype=float))
    alpha = np.asarray(generators.offsets, dtype=float)
    x = np.asarray(x, dtype=float)
    c = A @ x - alpha

    if float(c.max()) <= 0.0:
        return 0.0

    dual_kind = norm.dual().kind
    if dual_kind != "euclid":
        # homogenized LP: max c.mu, mu >= 0, ||A^T mu||_dual <= 1
        status, mu = dual_ball_lp(A, c, dual_kind)
        if not status.optimal:
            return np.inf
        return max(float(c @ mu), 0.0)

    # NNLS on M = [A^T; c^T], y = e_{n+1}
    y = np.zeros(A.shape[1] + 1)
    y[-1] = 1.0
    nu, _ = nnls(np.vstack([A.T, c]), y)
    # c.nu > 0 at the optimum, since c has a positive entry; A^T nu at the
    # rounding level of its terms means a hull point (0, a) with a < 0
    den = float(np.linalg.norm(A.T @ nu))
    if den <= 10.0 * A.size * np.finfo(float).eps * float(np.linalg.norm(np.abs(A).T @ nu)):
        return np.inf
    return float(c @ nu) / den
