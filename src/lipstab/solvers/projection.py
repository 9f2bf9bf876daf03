"""Projection of a point onto a polyhedron {y : A y <= b}.

The Euclidean case runs a primal active-set method: starting from a feasible
point it alternates equality-constrained projections on the working set with
blocking-constraint steps, so every working set stays consistent and every
iterate stays feasible.  For l1/linf decision norms the distance is an LP in
an epigraph formulation.
"""
from __future__ import annotations

import numpy as np

from ..errors import InfeasibleRegionError, NonConvergentError
from ..norms import NormSpec
from .simplex import StatusKind, lp_solve


def _feasible_point(A, b):
    """Phase-1 LP witness that {A y <= b} is nonempty; raises if it is empty."""
    status, x = lp_solve(np.zeros(A.shape[1]), A, b)
    if status.kind is StatusKind.INFEASIBLE:
        raise InfeasibleRegionError("polyhedron is empty")
    return x


def _eqp_step(x, A, b, work):
    """Minimizer of ||z - x|| s.t. A_W z = b_W, with its multipliers."""
    if not work:
        return x.copy(), np.zeros(0)
    Aw = A[work]
    M = Aw @ Aw.T
    r = Aw @ x - b[work]
    mu, *_ = np.linalg.lstsq(M, r, rcond=None)
    return x - Aw.T @ mu, mu


def _project_euclid(x, A, b, start):
    res = A @ x - b
    if res.max() <= 0.0:
        return 0.0, x.copy()
    scale = 1.0 + float(np.abs(res).max())
    tol = 1e-11 * scale
    y = start.copy()
    resy = A @ y - b
    if resy.max() > 1e-7 * scale:
        raise InfeasibleRegionError("starting point is not feasible")
    work = list(np.where(resy > -tol)[0][: A.shape[1]])
    for _ in range(10_000):
        z, mu = _eqp_step(x, A, b, work)
        p = z - y
        if float(np.abs(p).max(initial=0.0)) <= 1e-13 * (1.0 + np.abs(y).max()):
            if mu.size == 0 or mu.min() >= -tol:
                return float(np.linalg.norm(y - x)), y
            work.pop(int(np.argmin(mu)))
            continue
        Ap = A @ p
        blocking = Ap > tol
        blocking[work] = False
        rows = np.flatnonzero(blocking)
        steps = (b - A @ y)[rows] / Ap[rows]
        alpha = float(steps.min(initial=1.0))
        if alpha >= 1.0:
            y = z
            # constraints newly active at the unconstrained-on-W optimum
            continue
        alpha = max(alpha, 0.0)
        y = y + alpha * p
        # ties go to the lowest-index row among the blocking ones
        work.append(rows[np.argmax(steps <= alpha + tol)])
    raise NonConvergentError("projection active-set hit iteration cap")


def _project_lp(x, A, b, kind):
    """Epigraph LP over (y, s): min sum s with +-(y_i - x_i) <= s, s in R^n
    for l1 and s in R for linf."""
    m, n = A.shape
    i = np.arange(n)
    nv = 2 * n if kind == "l1" else n + 1
    c = np.zeros(nv)
    c[n:] = 1.0
    box = np.zeros((2 * n, nv))
    box[2 * i, i] = 1.0
    box[2 * i + 1, i] = -1.0
    if kind == "l1":
        box[2 * i, n + i] = -1.0
        box[2 * i + 1, n + i] = -1.0
    else:
        box[:, n] = -1.0
    box_rhs = np.empty(2 * n)
    box_rhs[0::2] = x
    box_rhs[1::2] = -x
    A_ub = np.vstack([np.hstack([A, np.zeros((m, nv - n))]), box])
    status, z = lp_solve(c, A_ub, np.concatenate([b, box_rhs]))
    if not status.optimal:
        raise NonConvergentError(f"projection LP ended with {status.kind}")
    return float(c @ z), z[:n]


def project_polyhedron(x, A, b, norm: NormSpec = NormSpec(), start=None):
    """Distance from x to {y : A y <= b} and an attaining point.

    ``A`` is an (m, n) array and ``b`` a length-m vector, for x of length n;
    other shapes raise ValueError.  Without ``start`` a phase-1 LP finds a
    feasible point or shows the region empty; a known feasible ``start``
    skips it.  Zero coefficient rows are vacuous when their rhs is >= 0 and
    make the region empty otherwise.  Raises InfeasibleRegionError for an
    empty region, and NonConvergentError after 10 000 Euclidean active-set
    steps.
    """
    x = np.asarray(x, dtype=float)
    A = np.asarray(A, dtype=float)
    b = np.asarray(b, dtype=float)
    if x.ndim != 1 or A.ndim != 2 or b.ndim != 1 or A.shape != (b.size, x.size):
        raise ValueError(f"project_polyhedron needs A (m, n), b (m,) and x (n,); "
                         f"got A {A.shape}, b {b.shape}, x {x.shape}")
    keep = ~np.all(np.abs(A) < 1e-300, axis=1)
    if np.any(b[~keep] < -1e-12):
        raise InfeasibleRegionError("a zero row with negative rhs empties the region")
    A, b = A[keep], b[keep]
    if A.shape[0] == 0:
        return 0.0, x.copy()
    if start is None:
        start = _feasible_point(A, b)
    if norm.kind == "euclid":
        return _project_euclid(x, A, b, np.asarray(start, dtype=float))
    return _project_lp(x, A, b, norm.kind)
