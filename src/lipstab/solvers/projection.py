"""Projection of points onto polyhedra {y : A y <= b}.

The Euclidean case is the dual active-set method of Goldfarb and Idnani
(1983) for Hessian I, on rows divided by their norms.  A point starts at x
with no working rows and adds the row of largest residual (lowest index on
ties), moving along its part orthogonal to the working rows and dropping a
working row whose multiplier reaches 0 first.  No feasible start is needed.
A violated row in the span of the working rows with no blocking multiplier
gives a Farkas certificate that the region is empty.  A batch advances one
step per point per round, with one stacked Gram solve.  For l1/linf the
distance is an epigraph LP, whose Infeasible status needs a Farkas
certificate too.  Certificates and the KKT conditions of every point are
checked before anything is returned.
"""
from __future__ import annotations

import numpy as np

from ..errors import InfeasibleRegionError, InternalCheckError, NonConvergentError
from ..norms import NormSpec
from .simplex import StatusKind, lp_solve

_DEPENDENT = 1e-10  # ||z|| below this, for a unit row: it lies in the working rows' span
_MAX_ROUNDS = 10_000


def _check_farkas(u, A, b):
    """Accept u as proof that {y : A y <= b} is empty: u >= 0 (entries down
    to -1e-12 max u are rounding and count as 0), A^T u = 0 at rounding
    level relative to |A|^T u, and b . u < 0."""
    if u.min() >= -1e-12 * u.max():
        u = np.maximum(u, 0.0)
        if u @ b < 0.0 and np.linalg.norm(u @ A) <= 1e-9 * np.linalg.norm(u @ np.abs(A)):
            return
    raise InternalCheckError("an emptiness certificate fails its check")


def _working_rows(Ap, W):
    """Working rows, with free slots at the zero last row of Ap, and their
    Gram matrices, with 1 on the diagonal of each free slot so they invert."""
    AW = Ap[W]
    G = AW @ AW.transpose(0, 2, 1)
    i = np.arange(W.shape[1])
    G[:, i, i] += W == Ap.shape[0] - 1
    return AW, G


def _project_euclid(X, A, B):
    """Euclidean projections of the rows of X onto {y : A y <= B[s]}.

    Returns (D, Y); D[s] is +inf and Y[s] NaN where the region is empty.
    """
    k, n = X.shape
    m = A.shape[0]
    norms = np.sqrt(np.einsum("tn,tn->t", A, A))
    An = np.vstack([A / norms[:, None], np.zeros(n)])  # row m marks a free slot
    absA = np.abs(An)
    W_out = np.full((k, n), m)
    empty = np.zeros(k, dtype=bool)
    # the points still running: index, y, rhs, working rows and multipliers,
    # and the row being added (-1 before it is chosen) with its multiplier
    s, Y, Bn = np.arange(k), X.copy(), np.hstack([B / norms, np.zeros((k, 1))])
    W, mu, q, tq = W_out.copy(), np.zeros((k, n)), np.full(k, -1), np.zeros(k)
    for _ in range(_MAX_ROUNDS):
        pick = np.flatnonzero(q < 0)
        if pick.size:
            Yp, Bp = Y[pick], Bn[pick]
            V = Yp @ An.T - Bp
            # a residual within rounding of its terms counts as satisfied
            V[V <= 1e-12 * (np.abs(Bp) + np.abs(Yp) @ absA.T)] = -np.inf
            V[np.arange(pick.size)[:, None], W[pick]] = -np.inf
            q[pick] = np.where(V.max(axis=1) > -np.inf, V.argmax(axis=1), -1)
            done = q < 0
            if done.any():
                W_out[s[done]] = W[done]
                s, Y, Bn, W, mu, q, tq = (a[~done] for a in (s, Y, Bn, W, mu, q, tq))
        if not s.size:
            break
        aq = An[q]
        AW, G = _working_rows(An, W)
        r = np.linalg.solve(G, AW @ aq[:, :, None])[:, :, 0]
        z = aq - np.einsum("ks,ksn->kn", r, AW)
        zz = np.einsum("kn,kn->k", z, z)
        dependent = (zz <= _DEPENDENT ** 2) | (W < m).all(axis=1)
        ratio = np.full(r.shape, np.inf)
        np.divide(mu, r, out=ratio, where=r > 1e-12)
        t2 = ratio.min(axis=1)
        t1 = np.full(len(s), np.inf)
        res = np.einsum("kn,kn->k", Y, aq) - Bn[np.arange(len(s)), q]
        np.divide(res, zz, out=t1, where=~dependent)
        stuck = np.isinf(t1) & np.isinf(t2)
        if stuck.any():
            for j in np.flatnonzero(stuck):
                u = np.zeros(m + 1)
                u[W[j]], u[q[j]] = -r[j], 1.0
                _check_farkas(u[:m] / norms, A, B[s[j]])
            empty[s[stuck]] = True
            s, Y, Bn, W, mu, q, tq, r, z, t1, t2, ratio = (
                a[~stuck] for a in (s, Y, Bn, W, mu, q, tq, r, z, t1, t2, ratio))
        t = np.minimum(t1, t2)
        Y -= np.where(np.isinf(t1), 0.0, t)[:, None] * z  # a dependent row: y stays
        mu = np.maximum(mu - t[:, None] * r, 0.0)
        tq += t
        F = np.flatnonzero(t1 <= t2)
        slot = np.argmax(W[F] == m, axis=1)
        W[F, slot], mu[F, slot], q[F], tq[F] = q[F], tq[F], -1, 0.0
        D = np.flatnonzero(t1 > t2)
        if D.size:  # drop the row whose multiplier reached 0, lowest row index on ties
            rat = ratio[D]
            j = np.where(rat == rat.min(axis=1, keepdims=True), W[D], m + 1).argmin(axis=1)
            W[D, j], mu[D, j] = m, 0.0
    else:
        raise NonConvergentError("projection active set hit its round cap")
    return _checked_points(X, A, B, W_out, empty)


def _checked_points(X, A, B, W, empty):
    """Each point recomputed from its working rows and its KKT conditions
    checked: multipliers >= -1e-11 (1 + max |A x - b|), working rows tight
    within 1e-11 (1 + |b_t| + |a_t| z) and every row within 1e-9 (1 + |A| z),
    where z = |x| + sum_s |mu_s||a_s| is the size of the terms that build
    y = x - sum_s mu_s a_s: each row is judged at the rounding scale of its
    own terms, cancellation in y included."""
    k, n = X.shape
    Ap = np.vstack([A, np.zeros(n)])
    Bw = np.hstack([B, np.zeros((k, 1))])[np.arange(k)[:, None], W]
    AW, G = _working_rows(Ap, W)
    mu = np.linalg.solve(G, AW @ X[:, :, None] - Bw[:, :, None])[:, :, 0]
    Y = X - np.einsum("ks,ksn->kn", mu, AW)
    tol = 1e-11 * (1.0 + np.abs(X @ A.T - B).max(axis=1))
    terms = np.abs(X) + np.einsum("ks,ksn->kn", np.abs(mu), np.abs(AW))
    tight = np.abs(np.einsum("ksn,kn->ks", AW, Y) - Bw) - 1e-11 * (
        1.0 + np.abs(Bw) + np.einsum("ksn,kn->ks", np.abs(AW), terms))
    slack = Y @ A.T - B - 1e-9 * (1.0 + terms @ np.abs(A).T)
    bad = ((mu.min(axis=1) < -tol) | (tight.max(axis=1) > 0.0)
           | (slack.max(axis=1) > 0.0)) & ~empty
    if bad.any():
        raise InternalCheckError(
            f"projection fails its KKT check at {int(bad.sum())} of {k} points")
    Y[empty] = np.nan
    D = np.linalg.norm(Y - X, axis=1)
    D[empty] = np.inf
    return D, Y


def _project_lp(x, A, b, kind):
    """Epigraph LP over (y, s): min sum s with +-(y_i - x_i) <= s, s in R^n
    for l1 and s in R for linf.  An Infeasible status gives (inf, NaN) once
    its Farkas certificate passes the check."""
    if (A @ x - b).max() <= 0.0:
        return 0.0, x.copy()
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
    b_ub = np.concatenate([b, box_rhs])
    status, z = lp_solve(c, A_ub, b_ub)
    if status.kind is StatusKind.INFEASIBLE:
        _check_farkas(status.certificate, A_ub, b_ub)
        return np.inf, np.full(n, np.nan)
    if not status.optimal:
        raise NonConvergentError(f"projection LP ended with {status.kind}")
    return float(c @ z), z[:n]


def project_polyhedron(x, A, b, norm: NormSpec = NormSpec()):
    """Distance from x to {y : A y <= b} and an attaining point.

    ``A`` is an (m, n) array.  For one point, x has length n and b length m;
    the result is (distance, point), and an empty region raises
    InfeasibleRegionError.  For a batch, x is (k, n) and b is (k, m), one
    region per point; the result is k distances and a (k, n) array of
    points, with +inf and a NaN row where the region is empty.  Other shapes
    raise ValueError.  Zero rows (entries below about 1e-154) are vacuous
    when their rhs is >= 0 and make the region empty otherwise.  A reported
    empty region has passed a Farkas-certificate check and every Euclidean
    point a KKT check; a failed check raises InternalCheckError.  Raises
    NonConvergentError after 10 000 Euclidean rounds.
    """
    x = np.asarray(x, dtype=float)
    A = np.asarray(A, dtype=float)
    b = np.asarray(b, dtype=float)
    if (x.ndim not in (1, 2) or b.ndim != x.ndim or A.ndim != 2
            or A.shape != (b.shape[-1], x.shape[-1]) or x.shape[:-1] != b.shape[:-1]):
        raise ValueError(f"project_polyhedron needs A (m, n) with x (n,) and b (m,), "
                         f"or x (k, n) and b (k, m); got A {A.shape}, b {b.shape}, x {x.shape}")
    X, B = np.atleast_2d(x), np.atleast_2d(b)
    # a row whose squared norm is below the smallest normal float counts as 0
    keep = np.einsum("tn,tn->t", A, A) >= np.finfo(float).tiny
    empty = np.any(B[:, ~keep] < -1e-12, axis=1)
    if not keep.all():
        A, B = A[keep], B[:, keep]
    D, Y = np.zeros(len(X)), X.copy()
    if A.shape[0] and norm.kind == "euclid":
        D, Y = _project_euclid(X, A, B)
    elif A.shape[0]:
        for s in range(len(X)):
            D[s], Y[s] = _project_lp(X[s], A, B[s], norm.kind)
    D[empty], Y[empty] = np.inf, np.nan
    if x.ndim == 2:
        return D, Y
    if np.isinf(D[0]):
        raise InfeasibleRegionError("polyhedron is empty")
    return float(D[0]), Y[0]
