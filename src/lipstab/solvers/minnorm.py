"""Minimum-norm point over a convex hull, the anchored-slice variant, and NNLS.

``nnls`` is the Lawson-Hanson active-set kernel for non-negative least
squares; it checks the KKT conditions of every result it returns.  The
Euclidean min-norm point is one ``nnls`` solve on the hull points
homogenized with a row of ones.  For l1/linf decision norms the dual-norm
objective is polyhedral and the problem is an LP, so that path never
touches the quadratic machinery.
"""
from __future__ import annotations

from dataclasses import dataclass

import numpy as np

from ..errors import NonConvergentError
from ..norms import NormSpec, norm_value
from .simplex import StatusKind, lp_solve_nonneg


@dataclass(frozen=True)
class MinNormResult:
    status: StatusKind
    value: float
    weights: np.ndarray | None
    point: np.ndarray | None
    kkt_residual: float
    iterations: int


def nnls(M, y):
    """argmin ||M nu - y|| over nu >= 0 (Lawson & Hanson 1974, ch. 23).

    Returns nu only after checking its KKT conditions with
    w = M^T (y - M nu): nu >= 0, w <= tol everywhere and |w| <= tol on the
    passive set {nu > 0}.  tol bounds the rounding error of w, which grows
    with ||y|| + || |M| nu ||.  Returns (nu, iterations), the count of outer
    steps that freed a column.  Raises NonConvergentError when the check
    fails or the iteration cap of 3 x columns is hit.
    """
    M = np.atleast_2d(np.asarray(M, dtype=float))
    y = np.asarray(y, dtype=float)
    cols = M.shape[1]
    absM = np.abs(M)
    unit = 10.0 * max(M.shape) * np.finfo(float).eps * float(absM.sum(axis=0).max(initial=0.0))
    y_norm = float(np.linalg.norm(y))
    nu = np.zeros(cols)
    passive = np.zeros(cols, dtype=bool)
    w = M.T @ y
    tol = unit * y_norm
    for iterations in range(3 * cols):
        j = int(np.argmax(np.where(passive, -np.inf, w)))
        if passive[j] or w[j] <= tol:
            break
        passive[j] = True
        while True:
            idx = np.flatnonzero(passive)
            s = np.linalg.lstsq(M[:, idx], y, rcond=None)[0]
            if s.min() > 0.0:
                break
            # step from nu toward s until the first passive weight hits 0
            cur = nu[idx]
            neg = s <= 0.0
            steps = cur[neg] / (cur[neg] - s[neg])
            nu[idx] = cur + steps.min() * (s - cur)
            nu[idx[neg][steps == steps.min()]] = 0.0
            passive[idx[nu[idx] <= 0.0]] = False
            if not passive.any():
                s = np.zeros(0)
                break
        nu[:] = 0.0
        nu[np.flatnonzero(passive)] = s
        w = M.T @ (y - M @ nu)
        tol = unit * (y_norm + float(np.linalg.norm(absM @ nu)))
    else:
        raise NonConvergentError("NNLS active-set method hit its iteration cap")
    kkt = max(float(w.max(initial=0.0)), float(np.abs(w[passive]).max(initial=0.0)))
    if nu.min(initial=0.0) < 0.0 or kkt > tol:
        raise NonConvergentError(
            f"NNLS result failed its KKT check: residual {kkt:.3g} > {tol:.3g}")
    return nu, iterations


def _affine_min_norm(G_S):
    """Weights minimizing ||Q_S^T alpha|| over the affine hull (sum alpha = 1)."""
    k = G_S.shape[0]
    kkt = np.zeros((k + 1, k + 1))
    kkt[:k, :k] = G_S
    kkt[:k, k] = 1.0
    kkt[k, :k] = 1.0
    rhs = np.zeros(k + 1)
    rhs[k] = 1.0
    sol, *_ = np.linalg.lstsq(kkt, rhs, rcond=None)
    return sol[:k]


def min_norm_point(points):
    """argmin ||u|| over u in co{points} (Euclidean norm), by one NNLS solve.

    With P = Q / max|Q| (the weights do not depend on the scale),
    nu = argmin_{nu >= 0} ||P^T nu||^2 + (1^T nu - 1)^2 is a positive
    multiple of the min-norm weights.  The weights are then re-solved on the
    affine hull of supp nu and kept when they stay non-negative, which makes
    exact answers (such as 0) come out exact; otherwise nu / 1^T nu is used.

    Returns (value, u, weights, kkt_residual, iterations): kkt_residual is
    max(0, ||v||^2 - min_t <p_t, v>) at v = P^T weights, and iterations
    counts the kernel's outer steps.
    """
    Q = np.atleast_2d(np.asarray(points, dtype=float))
    m, d = Q.shape
    scale = float(np.abs(Q).max(initial=0.0))
    P = Q / scale if scale > 0.0 else Q
    y = np.zeros(d + 1)
    y[d] = 1.0
    nu, iterations = nnls(np.vstack([P.T, np.ones(m)]), y)
    support = np.flatnonzero(nu)
    alpha = _affine_min_norm(P[support] @ P[support].T)
    weights = np.zeros(m)
    if alpha.min() >= 0.0:
        weights[support] = alpha / alpha.sum()
    else:
        weights = nu / nu.sum()
    v = P.T @ weights
    kkt = max(0.0, float(v @ v) - float((P @ v).min()))
    u = Q.T @ weights
    return float(np.linalg.norm(u)), u, weights, kkt, iterations


def _lp_min_dual_norm(A, dual_kind):
    """Weights lam minimizing ||A^T lam||_dual over the simplex, by one LP.

    ``dual_kind`` is the norm applied to A^T lam.  Auxiliary variables bound
    |(A^T lam)_k| from above: one shared t for linf, one s_k per k for l1;
    the objective is their sum.
    """
    m, n = A.shape
    if dual_kind == "linf":
        cover = np.ones((n, 1))
    elif dual_kind == "l1":
        cover = np.eye(n)
    else:
        raise ValueError(dual_kind)
    aux = cover.shape[1]
    ub = np.zeros((2 * n, m + aux))
    ub[0::2, :m] = A.T
    ub[1::2, :m] = -A.T
    ub[:, m:] -= np.repeat(cover, 2, axis=0)
    c = np.concatenate([np.zeros(m), np.ones(aux)])
    eq = np.concatenate([np.ones(m), np.zeros(aux)])[None, :]
    status, z = lp_solve_nonneg(c, ub, np.zeros(2 * n), eq, np.ones(1))
    if not status.optimal:
        raise NonConvergentError(f"dual-norm LP ended with {status.kind}")
    return z[:m]


def min_norm_sliced_hull(generators, anchor, norm: NormSpec = NormSpec(),
                         feas_tol: float = 1e-9):
    """min ||u||_dual over hull points (u, a) of the generators with <u, anchor> = a.

    The anchor must be feasible: with g_t = <a_t, anchor> - beta_t, every
    g_t <= feas_tol, and ValueError is raised otherwise.  The slice
    constraint sum(lam_t g_t) = 0 then confines the weights to the active
    generators (|g_t| <= feas_tol), so the slice is their hull.  Status
    NoIntersection means no generator is active: the slice is empty, which
    makes the anchor a strong Slater point of the generator system.
    Otherwise the point is u = A^T weights and the value ||u||_dual; when
    several supports give the same point, the solver's weights are returned
    as found.
    """
    A = np.atleast_2d(np.asarray(generators.coefficients, dtype=float))
    beta = np.asarray(generators.offsets, dtype=float)
    x = np.asarray(anchor, dtype=float)
    g = A @ x - beta
    m = A.shape[0]
    if (g > feas_tol).any():
        worst = int(np.argmax(g))
        raise ValueError(f"anchor violates generator {worst} by {float(g[worst]):g}")
    idx = np.flatnonzero(g >= -feas_tol)
    if idx.size == 0:
        return MinNormResult(StatusKind.NO_INTERSECTION, np.inf, None, None, 0.0, 0)

    dual_kind = norm.dual().kind
    kkt, iters = 0.0, 0
    weights = np.zeros(m)
    if dual_kind == "euclid":
        _, _, weights[idx], kkt, iters = min_norm_point(A[idx])
    else:
        weights[idx] = _lp_min_dual_norm(A[idx], dual_kind)
    u = A.T @ weights
    return MinNormResult(StatusKind.OPTIMAL, norm_value(dual_kind, u), weights, u, kkt, iters)
