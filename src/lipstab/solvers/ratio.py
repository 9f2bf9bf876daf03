"""Supremum of [<u, x> - a]_+ / ||u||_dual over a convex hull of generators.

Euclidean decision norm: Dinkelbach iteration on rho, each inner concave
maximization max_lam c.lam - rho ||A^T lam|| over the simplex solved by
away-step Frank-Wolfe with closed-form exact line search.  l1/linf norms:
the positively homogeneous reformulation max {c.mu : mu >= 0,
||A^T mu||_dual <= 1} is a single LP.

Conventions: 0/0 := 0 for zero-coefficient hull points with nonnegative
offset; a hull point (0, a) with a < 0 certifies infeasibility of the
underlying system and the supremum is +inf.
"""
from __future__ import annotations

import numpy as np

from ..norms import NormSpec
from .simplex import lp_solve_nonneg

_INNER_CAP = 50_000
_OUTER_CAP = 80


def zero_face_floor(A, alpha) -> float:
    """min alpha.lam over simplex weights with A^T lam = 0; +inf if none exist.

    A nonpositive floor means co{(a_t, alpha_t)} meets {0} x (-inf, 0].
    """
    m, n = A.shape
    eq = np.vstack([A.T, np.ones((1, m))])
    rhs = np.concatenate([np.zeros(n), [1.0]])
    status, lam = lp_solve_nonneg(alpha, None, None, eq, rhs)
    if not status.optimal:
        return np.inf
    return float(alpha @ lam)


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


def _line_search(cd, rho, q0, q1, q2, gmax):
    """argmax over [0, gmax] of  gamma*cd - rho*sqrt(q0 + 2 gamma q1 + gamma^2 q2)."""
    def val(gamma):
        return gamma * cd - rho * np.sqrt(max(q0 + 2 * gamma * q1 + gamma * gamma * q2, 0.0))

    cands = [0.0, gmax]
    a2 = cd * cd * q2 - rho * rho * q2 * q2
    a1 = 2 * cd * cd * q1 - 2 * rho * rho * q1 * q2
    a0 = cd * cd * q0 - rho * rho * q1 * q1
    if abs(a2) > 1e-300:
        disc = a1 * a1 - 4 * a2 * a0
        if disc >= 0:
            r = np.sqrt(disc)
            for root in ((-a1 - r) / (2 * a2), (-a1 + r) / (2 * a2)):
                if 0.0 < root < gmax:
                    cands.append(root)
    elif abs(a1) > 1e-300:
        root = -a0 / a1
        if 0.0 < root < gmax:
            cands.append(root)
    vals = [val(gm) for gm in cands]
    k = int(np.argmax(vals))
    return cands[k], vals[k]


def _fw_concave_max(A, c, rho, lam, tol_gap, maxiter=_INNER_CAP):
    """Away-step Frank-Wolfe for max c.lam - rho ||A^T lam|| over the simplex.

    Returns (lam, value, last_gap).
    """
    u = A.T @ lam
    tiny = 1e-300
    for _ in range(maxiter):
        nu = float(np.linalg.norm(u))
        grad = c - rho * (A @ u) / nu if nu > tiny else c.copy()
        s = int(np.argmax(grad))
        glam = float(grad @ lam)
        fw_gap = grad[s] - glam
        if fw_gap <= tol_gap:
            break
        support = np.where(lam > 1e-15)[0]
        v = support[int(np.argmin(grad[support]))]
        away_gap = glam - grad[v]
        if fw_gap >= away_gap:
            d_c = c[s] - float(c @ lam)
            w = A[s] - u
            gmax = 1.0
            is_away = False
        else:
            d_c = float(c @ lam) - c[v]
            w = u - A[v]
            gmax = lam[v] / (1.0 - lam[v]) if lam[v] < 1.0 else 1.0
            is_away = True
        q0 = float(u @ u)
        q1 = float(u @ w)
        q2 = float(w @ w)
        gamma, _ = _line_search(d_c, rho, q0, q1, q2, gmax)
        if gamma <= 0.0:
            break
        if is_away:
            lam = lam * (1.0 + gamma)
            lam[v] -= gamma
        else:
            lam = lam * (1.0 - gamma)
            lam[s] += gamma
        np.clip(lam, 0.0, None, out=lam)
        ssum = lam.sum()
        if abs(ssum - 1.0) > 1e-13:
            lam /= ssum
        u = A.T @ lam
    nu = float(np.linalg.norm(u))
    value = float(c @ lam) - rho * nu
    grad = c - rho * (A @ u) / nu if nu > tiny else c
    gap = float(grad.max() - grad @ lam)
    return lam, value, max(gap, 0.0)


def max_ratio_over_hull(generators, x, norm: NormSpec = NormSpec(),
                        rel_tol: float = 1e-8, trace: list | None = None) -> float:
    """sup over hull points (u, a) of co(generators) of [<u, x> - a]_+ / ||u||_dual.

    ``trace``, when given, collects (rho_k, inner_max_k) per Dinkelbach
    round: rho climbs to the supremum while the inner maxima fall to 0.
    """
    A = np.atleast_2d(np.asarray(generators.coefficients, dtype=float))
    alpha = np.asarray(generators.offsets, dtype=float)
    x = np.asarray(x, dtype=float)
    m = A.shape[0]
    c = A @ x - alpha

    norms_a = np.linalg.norm(A, axis=1)
    if np.any(norms_a < 1e-300):
        if zero_face_floor(A, alpha) < -1e-12 * (1.0 + float(np.abs(alpha).max())):
            return np.inf
    if np.all(norms_a < 1e-300):
        return 0.0
    if float(c.max()) <= 0.0:
        return 0.0

    dual_kind = norm.dual().kind
    if dual_kind != "euclid":
        # homogenized LP: max c.mu, mu >= 0, ||A^T mu||_dual <= 1
        status, mu = dual_ball_lp(A, c, dual_kind)
        if not status.optimal:
            return np.inf
        return max(float(c @ mu), 0.0)

    # Dinkelbach on the Euclidean ratio
    with np.errstate(divide="ignore", invalid="ignore"):
        vertex_ratio = np.where(norms_a > 1e-300, np.maximum(c, 0.0) / norms_a, 0.0)
    start = int(np.argmax(vertex_ratio))
    rho = float(vertex_ratio[start])
    lam = np.zeros(m)
    lam[start] = 1.0
    scale = 1.0 + float(np.abs(c).max()) + float(norms_a.max())
    best = rho
    for _ in range(_OUTER_CAP):
        lam, value, gap = _fw_concave_max(A, c, rho, lam, tol_gap=1e-13 * scale)
        if trace is not None:
            trace.append((rho, value))
        u = A.T @ lam
        nu = float(np.linalg.norm(u))
        if nu > 1e-300:
            best = max(best, float(c @ lam) / nu)
        upper = value + gap
        if upper <= rel_tol * 1e-2 * max(1.0, rho) and best - rho <= rel_tol * 1e-2 * max(1.0, rho):
            break
        if best <= rho * (1.0 + 1e-15):
            break
        rho = best
    return best
