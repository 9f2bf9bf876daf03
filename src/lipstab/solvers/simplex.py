"""Dense two-phase revised simplex for small/medium LPs.

Self-contained on purpose: desk-scale problems, deterministic pivoting
(Dantzig entering, largest pivot among tied leaving rows, Bland fallback on
stall), explicit basis inverse with periodic refactorization.
lp_solve_nonneg is the only builder of the standard form; lp_solve handles
free variables by splitting them into nonnegative parts.
"""
from __future__ import annotations

from dataclasses import dataclass
from enum import Enum

import numpy as np

DEFAULT_MAXITER = 100_000


class StatusKind(Enum):
    OPTIMAL = "Optimal"
    INFEASIBLE = "Infeasible"
    UNBOUNDED = "Unbounded"
    ITER_LIMIT = "IterLimit"
    NO_INTERSECTION = "NoIntersection"  # hull-slice problems only


@dataclass(frozen=True)
class SolveStatus:
    kind: StatusKind
    iterations: int = 0
    certificate: np.ndarray | None = None

    @property
    def optimal(self) -> bool:
        return self.kind is StatusKind.OPTIMAL


class _Tableau:
    """Standard-form state: min c.z  s.t.  A z = b (b >= 0), z >= 0."""

    def __init__(self, A, b, seed_cols, maxiter):
        self.m, self.N = A.shape
        # explicit artificial block: column N + i is e_i
        self.A = np.hstack([A, np.eye(self.m)])
        self.b = b.astype(float).copy()
        self.maxiter = maxiter
        self.iterations = 0
        self.Binv = np.eye(self.m)
        self.xB = self.b.copy()
        self.basis = np.empty(self.m, dtype=int)
        self.artificial_used = []
        for i in range(self.m):
            if seed_cols[i] >= 0:
                self.basis[i] = seed_cols[i]
            else:
                self.basis[i] = self.N + i
                self.artificial_used.append(self.N + i)

    def _refactor(self):
        B = self.A[:, self.basis]
        try:
            self.Binv = np.linalg.inv(B)
        except np.linalg.LinAlgError:
            self.Binv = np.linalg.pinv(B)
        self.xB = self.Binv @ self.b

    def duals(self, cost):
        """pi with B^T pi = cost_B, solved afresh: the updated inverse drifts."""
        B = self.A[:, self.basis]
        try:
            return np.linalg.solve(B.T, cost[self.basis])
        except np.linalg.LinAlgError:
            return np.linalg.pinv(B.T) @ cost[self.basis]

    def _pivot(self, leave, enter, d):
        theta = self.xB[leave] / d[leave]
        self.xB -= theta * d
        self.xB[leave] = theta
        row = self.Binv[leave] / d[leave]
        self.Binv -= np.outer(d, row)
        self.Binv[leave] = row
        self.basis[leave] = enter

    def run(self, cost, allowed_mask, scale):
        """Simplex iterations for one phase.  Returns 'optimal'/'unbounded'/'iterlimit'."""
        tol_red = 1e-10 * (1.0 + scale)
        tol_piv = 1e-11
        # rounding in pi @ A grows with ||pi||_1 and the column's largest entry
        col_max = np.abs(self.A).max(axis=0, initial=0.0)
        eps_m = 10.0 * self.m * np.finfo(float).eps
        stall = 0
        bland = False
        last_obj = np.inf
        is_artificial = np.arange(self.N + self.m) >= self.N
        while True:
            if self.iterations >= self.maxiter:
                return "iterlimit"
            self.iterations += 1
            if self.iterations % 200 == 0:
                self._refactor()
            pi = cost[self.basis] @ self.Binv
            reduced = cost - pi @ self.A
            reduced[self.basis] = 0.0
            tol_col = tol_red + eps_m * float(np.abs(pi).sum()) * col_max
            candidates = np.where(allowed_mask & (reduced < -tol_col))[0]
            if candidates.size == 0:
                return "optimal"
            if bland:
                enter = int(candidates[0])
            else:
                enter = int(candidates[np.argmin(reduced[candidates])])
            d = self.Binv @ self.A[:, enter]
            # entries at rounding level of the column are no pivots
            piv = tol_piv * max(1.0, float(np.abs(d).max(initial=0.0)))

            # keep zero-valued artificials pinned: a negative direction
            # component on such a row forces a degenerate swap-out
            art_rows = np.where(
                is_artificial[self.basis] & (d < -piv) & (self.xB <= 1e-9)
            )[0]
            if art_rows.size:
                leave = int(art_rows[0])
                self._pivot(leave, enter, d)
                continue

            pos = np.where(d > piv)[0]
            if pos.size == 0:
                self._last_enter = enter
                self._last_dir = d
                return "unbounded"
            ratios = self.xB[pos] / d[pos]
            best = ratios.min()
            ties = pos[np.where(ratios <= best + tol_piv)[0]]
            if bland:
                leave = int(ties[np.argmin(self.basis[ties])])
            else:
                # largest pivot entry among the tied rows keeps B well conditioned
                leave = int(ties[np.argmax(d[ties])])
            self._pivot(leave, enter, d)

            obj = float(cost[self.basis] @ self.xB)
            if obj < last_obj - 1e-12 * (1.0 + scale):
                stall = 0
            else:
                stall += 1
                if stall > 2 * (self.m + self.N):
                    bland = True
            last_obj = obj

    def solution(self):
        z = np.zeros(self.N + self.m)
        z[self.basis] = self.xB
        return z

    def ray(self):
        r = np.zeros(self.N + self.m)
        r[self._last_enter] = 1.0
        r[self.basis] -= self._last_dir
        return r


def solve_standard(c, A, b, seed_cols, maxiter=DEFAULT_MAXITER):
    """Two-phase simplex on min c.z s.t. A z = b, z >= 0 with b >= 0.

    seed_cols[i] gives a column equal to +e_i usable as initial basis for
    row i, or -1 to request an artificial.  Returns (status, z).  The
    status certificate is the duals pi (Optimal), the phase-1 duals
    (Infeasible) or an improving ray (Unbounded, z the last iterate).
    """
    c = np.asarray(c, dtype=float)
    A = np.asarray(A, dtype=float)
    b = np.asarray(b, dtype=float)
    tab = _Tableau(A, b, seed_cols, maxiter)
    m, N = tab.m, tab.N
    scale_b = float(np.abs(b).max()) if b.size else 0.0

    allowed = np.zeros(N + m, dtype=bool)
    allowed[:N] = True
    if tab.artificial_used:
        cost1 = np.zeros(N + m)
        cost1[N:] = 1.0
        outcome = tab.run(cost1, allowed, 1.0)
        if outcome == "iterlimit":
            return SolveStatus(StatusKind.ITER_LIMIT, tab.iterations), None
        if float(cost1[tab.basis] @ tab.xB) > 1e-9 * (1.0 + scale_b):
            phase1_duals = cost1[tab.basis] @ tab.Binv
            return SolveStatus(StatusKind.INFEASIBLE, tab.iterations, phase1_duals), None
        # drive removable artificials out via degenerate pivots
        for i in range(m):
            if tab.basis[i] >= N:
                row = tab.Binv[i] @ A
                nz = np.where(np.abs(row) > 1e-9)[0]
                if nz.size:
                    d = tab.Binv @ tab.A[:, nz[0]]
                    tab._pivot(i, int(nz[0]), d)
        tab._refactor()

    cost2 = np.concatenate([c, np.zeros(m)])
    scale_c = float(np.abs(c).max()) if c.size else 0.0
    outcome = tab.run(cost2, allowed, scale_c)
    if outcome == "iterlimit":
        return SolveStatus(StatusKind.ITER_LIMIT, tab.iterations), None
    if outcome == "unbounded":
        return SolveStatus(StatusKind.UNBOUNDED, tab.iterations, tab.ray()[:N]), tab.solution()[:N]
    return SolveStatus(StatusKind.OPTIMAL, tab.iterations, tab.duals(cost2)), tab.solution()[:N]


def lp_solve(objective, A_ub=None, b_ub=None, A_eq=None, b_eq=None,
             maxiter=DEFAULT_MAXITER):
    """Minimize objective . x over free x with A_ub x <= b_ub, A_eq x = b_eq.

    Either block may be omitted (None).  Solved as the nonnegative program
    over the split x = w+ - w-.  Returns (SolveStatus, x); x is None unless
    the status is Optimal or Unbounded (then x is the last feasible iterate
    and the certificate holds an improving ray).  Optimal and Infeasible
    statuses carry the duals and the Farkas certificate of lp_solve_nonneg;
    for free x, y^T [A_ub; A_eq] is the objective and 0 respectively.
    """
    c = np.asarray(objective, dtype=float)
    n = c.shape[0]

    def split(M):
        return None if M is None else np.hstack([M, np.negative(M)])

    status, w = lp_solve_nonneg(np.concatenate([c, -c]), split(A_ub), b_ub,
                                split(A_eq), b_eq, maxiter)
    if w is None:
        return status, None
    x = w[:n] - w[n:]
    if status.kind is StatusKind.UNBOUNDED:
        ray = status.certificate
        return SolveStatus(status.kind, status.iterations, ray[:n] - ray[n:]), x
    return status, x


def lp_solve_nonneg(objective, A_ub=None, b_ub=None, A_eq=None, b_eq=None,
                    maxiter=DEFAULT_MAXITER):
    """Minimize objective . w for w >= 0 with A_ub w <= b_ub, A_eq w = b_eq.

    Returns (SolveStatus, w) as lp_solve does.  The certificate is over the
    caller's rows, A_ub rows first.  Optimal: duals y <= 0 on the A_ub rows
    with y^T [A_ub; A_eq] <= objective and y . [b_ub; b_eq] = objective . w.
    Infeasible: a Farkas y >= 0 on the A_ub rows with y^T [A_ub; A_eq] >= 0
    and y . [b_ub; b_eq] < 0.
    """
    c = np.asarray(objective, dtype=float)
    n = c.shape[0]
    ub = (np.zeros((0, n)), np.zeros(0)) if A_ub is None else (
        np.atleast_2d(np.asarray(A_ub, dtype=float)), np.atleast_1d(np.asarray(b_ub, dtype=float)))
    eq = (np.zeros((0, n)), np.zeros(0)) if A_eq is None else (
        np.atleast_2d(np.asarray(A_eq, dtype=float)), np.atleast_1d(np.asarray(b_eq, dtype=float)))
    m_ub, m_eq = ub[0].shape[0], eq[0].shape[0]
    m = m_ub + m_eq
    N = n + m_ub
    A = np.zeros((m, N))
    b = np.zeros(m)
    A[:m_ub, :n] = ub[0]
    A[:m_ub, n:] = np.eye(m_ub)
    b[:m_ub] = ub[1]
    A[m_ub:, :n] = eq[0]
    b[m_ub:] = eq[1]
    flip = np.where(b < 0, -1.0, 1.0)
    A *= flip[:, None]
    b *= flip
    seed = np.full(m, -1, dtype=int)
    slack_seeded = flip[:m_ub] > 0
    seed[:m_ub][slack_seeded] = n + np.arange(m_ub)[slack_seeded]
    cost = np.concatenate([c, np.zeros(m_ub)])
    status, z = solve_standard(cost, A, b, seed, maxiter)
    if status.kind is StatusKind.INFEASIBLE:
        # phase-1 duals pi have pi.b > 0 and pi.A <= 0 on the flipped rows
        return SolveStatus(status.kind, status.iterations, -flip * status.certificate), None
    if z is None:
        return status, None
    w = z[:n]
    if status.kind is StatusKind.UNBOUNDED:
        return SolveStatus(status.kind, status.iterations, status.certificate[:n]), w
    return SolveStatus(status.kind, status.iterations, flip * status.certificate), w
