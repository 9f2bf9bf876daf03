"""Minimum-norm point over a convex hull, the anchored-slice variant, and NNLS.

The Euclidean path is Wolfe's active-set method in weight space; it
terminates finitely and solves each corral subproblem exactly.  For l1/linf
decision norms the dual-norm objective is polyhedral and both problems are
LPs, so that path never touches the quadratic machinery.  ``nnls`` is the
Lawson-Hanson active-set kernel for non-negative least squares; it checks
the KKT conditions of every result it returns.
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
    with ||y|| + || |M| nu ||.  Raises NonConvergentError when the check
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
    for _ in range(3 * cols):
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
    return nu


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


def min_norm_point(points, maxiter: int = 100_000):
    """Wolfe's algorithm: argmin ||u|| over u in co{points} (Euclidean norm).

    Returns (value, u, weights, kkt_residual, iterations).
    """
    Q = np.atleast_2d(np.asarray(points, dtype=float))
    m = Q.shape[0]
    sq = np.einsum("ij,ij->i", Q, Q)
    scale = 1.0 + float(sq.max(initial=0.0))
    tol = 1e-12 * scale
    start = int(np.argmin(sq))
    support = [start]
    lam_s = np.array([1.0])
    iterations = 0
    while iterations < maxiter:
        iterations += 1
        u = Q[support].T @ lam_s
        ip = Q @ u
        uu = float(u @ u)
        t = int(np.argmin(ip))
        if ip[t] >= uu - tol or t in support:
            break
        support.append(t)
        lam_s = np.append(lam_s, 0.0)
        while True:
            G = Q[support] @ Q[support].T
            alpha = _affine_min_norm(G)
            if alpha.min() > 1e-12:
                lam_s = alpha
                break
            diff = lam_s - alpha
            steps = [
                lam_s[i] / diff[i]
                for i in range(len(support))
                if alpha[i] <= 1e-12 and diff[i] > 1e-15
            ]
            theta = min(steps, default=0.0)
            lam_s = lam_s + theta * (alpha - lam_s)
            keep = [i for i in range(len(support)) if lam_s[i] > 1e-12]
            if not keep:
                keep = [int(np.argmax(lam_s))]
            support = [support[i] for i in keep]
            lam_s = lam_s[keep]
            lam_s = lam_s / lam_s.sum()
    else:
        raise NonConvergentError("Wolfe min-norm point hit iteration cap")

    u = Q[support].T @ lam_s
    weights = np.zeros(m)
    weights[support] = lam_s
    value = float(np.linalg.norm(u))
    kkt = max(0.0, float(u @ u) - float((Q @ u).min())) / scale
    return value, u, weights, kkt, iterations


def _lp_min_dual_norm(A, dual_kind, eq_rows=None, eq_rhs=None):
    """min ||A^T lam||_dual over the simplex (plus optional equalities on lam).

    Returns (value, lam).  ``dual_kind`` is the norm applied to A^T lam.
    """
    m, n = A.shape
    if dual_kind == "linf":
        nv = m + 1
        c = np.zeros(nv)
        c[m] = 1.0
        ub_rows, ub_rhs = [], []
        for k in range(n):
            row = np.concatenate([A[:, k], [-1.0]])
            ub_rows.append(row)
            ub_rhs.append(0.0)
            ub_rows.append(np.concatenate([-A[:, k], [-1.0]]))
            ub_rhs.append(0.0)
    elif dual_kind == "l1":
        nv = m + n
        c = np.concatenate([np.zeros(m), np.ones(n)])
        ub_rows, ub_rhs = [], []
        for k in range(n):
            e = np.zeros(nv)
            e[:m] = A[:, k]
            e[m + k] = -1.0
            ub_rows.append(e.copy())
            ub_rhs.append(0.0)
            e2 = np.zeros(nv)
            e2[:m] = -A[:, k]
            e2[m + k] = -1.0
            ub_rows.append(e2)
            ub_rhs.append(0.0)
    else:
        raise ValueError(dual_kind)
    eqs = [np.concatenate([np.ones(m), np.zeros(nv - m)])]
    rhs = [1.0]
    if eq_rows is not None:
        for row, r in zip(eq_rows, eq_rhs):
            eqs.append(np.concatenate([row, np.zeros(nv - m)]))
            rhs.append(r)
    status, z = lp_solve_nonneg(c, np.array(ub_rows), np.array(ub_rhs),
                                np.array(eqs), np.array(rhs))
    if status.kind is StatusKind.INFEASIBLE:
        return None, None
    if not status.optimal:
        raise NonConvergentError(f"dual-norm LP ended with {status.kind}")
    return float(c @ z), z[:m]


def _polish_sliced(A, g, lam, support_tol=1e-10):
    """Exact KKT solve of min ||A^T lam||^2 on the support found by the homotopy."""
    support = np.where(lam > support_tol)[0]
    k = support.size
    if k == 0:
        return None
    G = A[support] @ A[support].T
    kkt = np.zeros((k + 2, k + 2))
    kkt[:k, :k] = G
    kkt[:k, k] = 1.0
    kkt[:k, k + 1] = g[support]
    kkt[k, :k] = 1.0
    kkt[k + 1, :k] = g[support]
    rhs = np.zeros(k + 2)
    rhs[k] = 1.0
    sol, *_ = np.linalg.lstsq(kkt, rhs, rcond=None)
    cand = sol[:k]
    if cand.min() < -1e-9 or abs(cand.sum() - 1.0) > 1e-7:
        return None
    if abs(float(g[support] @ cand)) > 1e-8 * (1.0 + float(np.abs(g).max())):
        return None
    full = np.zeros(len(lam))
    full[support] = np.maximum(cand, 0.0)
    return full


def min_norm_sliced_hull(generators, anchor, norm: NormSpec = NormSpec(),
                         feas_tol: float = 1e-9):
    """min ||u||_dual over hull points (u, a) of the generators with <u, anchor> = a.

    The slice constraint sum(lam_t g_t) = 0 with g_t = <a_t, anchor> - beta_t
    is eliminated exactly when every g_t has one sign (support confined to
    the active generators); mixed signs fall back to a quadratic penalty
    homotopy polished by an exact KKT step.  Status NoIntersection means the
    slice is empty: for a feasible anchor that makes it a strong Slater
    point of the generator system.  Otherwise the point is u = A^T weights
    and the value ||u||_dual; when several supports give the same point, the
    solver's weights are returned as found.
    """
    A = np.atleast_2d(np.asarray(generators.coefficients, dtype=float))
    beta = np.asarray(generators.offsets, dtype=float)
    x = np.asarray(anchor, dtype=float)
    g = A @ x - beta
    m = A.shape[0]
    if m == 0:
        return MinNormResult(StatusKind.NO_INTERSECTION, np.inf, None, None, 0.0, 0)

    active = np.abs(g) <= feas_tol
    has_neg = bool((g < -feas_tol).any())
    has_pos = bool((g > feas_tol).any())
    if not active.any() and not (has_neg and has_pos):
        return MinNormResult(StatusKind.NO_INTERSECTION, np.inf, None, None, 0.0, 0)

    dual_kind = norm.dual().kind
    kkt, iters = 0.0, 0
    if not (has_neg and has_pos):
        idx = np.where(active)[0]
        if dual_kind == "euclid":
            _, _, w_sub, kkt, iters = min_norm_point(A[idx])
        else:
            _, w_sub = _lp_min_dual_norm(A[idx], dual_kind)
        weights = np.zeros(m)
        weights[idx] = w_sub
    elif dual_kind == "euclid":
        weights, _, iters = _penalty_homotopy(A, g)
    else:
        _, weights = _lp_min_dual_norm(A, dual_kind, eq_rows=[g], eq_rhs=[0.0])
        if weights is None:
            return MinNormResult(StatusKind.NO_INTERSECTION, np.inf, None, None, 0.0, 0)

    u = A.T @ weights
    return MinNormResult(StatusKind.OPTIMAL, norm_value(dual_kind, u), weights, u, kkt, iters)


def _penalty_homotopy(A, g, target: float = 1e-10, max_rounds: int = 120):
    """Doubling quadratic penalty on the slice constraint, Euclid norm."""
    gscale = 1.0 + float(np.abs(g).max())
    rho = (1.0 + float(np.einsum("ij,ij->i", A, A).max())) / gscale**2
    total_iters = 0
    lam = None
    for _ in range(max_rounds):
        aug = np.hstack([A, (np.sqrt(rho) * g)[:, None]])
        _, _, lam, _, iters = min_norm_point(aug)
        total_iters += iters
        if abs(float(g @ lam)) < target * gscale:
            break
        rho *= 2.0
    else:
        raise NonConvergentError("slice penalty homotopy did not reach tolerance")
    polished = _polish_sliced(A, g, lam)
    if polished is not None:
        if np.linalg.norm(A.T @ polished) <= np.linalg.norm(A.T @ lam) + 1e-12:
            lam = polished
    return lam, A.T @ lam, total_iters
