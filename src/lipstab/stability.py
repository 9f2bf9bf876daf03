"""Stability analysis of block-perturbed linear systems.

Strong Slater certification (two independent routes), the feasible-set
distance formula, the exact Lipschitzian bound at a nominal solution, cone
membership and norm of the coderivative, and the eps-active reduction.

Extended-value conventions used throughout: sup over an empty slice is 0
(strong Slater anchors get bound 0) and 1/0 is +inf (bound +inf exactly when
the strong Slater condition fails).
"""
from __future__ import annotations

from dataclasses import dataclass

import numpy as np

from .errors import (
    InfeasibleAnchorError,
    InfeasibleRegionError,
    InternalCheckError,
    NonConvergentError,
    SSCViolatedError,
    ValidationError,
)
from .model import (
    FEAS_TOL,
    BlockPartition,
    CharacteristicSet,
    LinearSystem,
    Perturbation,
    block_assignment,
    characteristic_generators,
    perturbed_system,
    validated,
)
from .solvers.minnorm import min_norm_point, min_norm_sliced_hull
from .solvers.projection import project_polyhedron
from .solvers.ratio import max_ratio_over_hull, zero_face_floor
from .solvers.simplex import StatusKind, lp_solve_nonneg

REGIME_SLATER = "SlaterPoint"
REGIME_REGULAR = "Regular"
REGIME_SSC_FAILS = "SSCFails"


@dataclass(frozen=True)
class SSCReport:
    """Verdict of both strong-Slater routes; they must agree.

    ``margin`` is min over x of max_t (<a_t, x> - b_t) from the LP route;
    ``hull_gap`` is the distance from the origin to the hull of the rows
    (a_t, b_t) / ||(a_t, b_t)|| and (0, 1) from the hull route (no LP).
    """

    holds: bool
    margin: float
    hull_gap: float
    slater_point: np.ndarray | None
    lp_holds: bool
    hull_holds: bool


@dataclass(frozen=True)
class LipReport:
    """Exact Lipschitzian bound of the feasible map at (0, anchor)."""

    bound: float
    regime: str
    slice_weights: np.ndarray | None = None
    min_norm_value: float | None = None
    projection_value: float | None = None  # min ||v|| over A_act v >= 1


@dataclass(frozen=True)
class CoderivCertificate:
    """Cone weights witnessing a coderivative element."""

    cone_weights: np.ndarray
    p_star: tuple
    x_star: np.ndarray
    anchor_residual: float


@dataclass(frozen=True)
class CoderivNormReport:
    value: float
    certificate: CoderivCertificate | None
    lip_cross: float


@dataclass(frozen=True)
class EpsActiveResult:
    indices: tuple
    report: LipReport
    full_bound: float
    matches_full: bool


def check_ssc(system: LinearSystem, tol: float = FEAS_TOL) -> SSCReport:
    """Certify the strong Slater condition by two independent routes.

    Both decide on the rows (a_t, b_t) divided by their Euclidean norms
    (zero rows stay zero): that keeps the condition and its Slater points,
    so scaling any row, or the whole system, keeps the verdict.  LP
    route: the margin min s s.t. <a_t, x> - s <= b_t and its point come
    from the optimal duals of one LP, its dual the zero-face floor LP
    (n + 1 equality rows), or from that LP's Farkas certificate when the
    margin is unbounded below; both are checked on all m rows before they
    are used.  SSC holds iff the normalized rows have a margin < -tol: the
    point shows it when its normalized residuals are all < -tol, else the
    floor LP of the normalized rows decides and gives the Slater point.
    Hull route: SSC fails iff co{(a_t, b_t)} meets the ray {0} x (-inf, 0],
    that is iff the origin lies in the hull of the normalized rows and
    (0, 1); it holds iff the NNLS kernel, with no LP, finds that hull's
    min-norm point > tol from the origin.  Disagreement aborts with
    diagnostics.
    """
    validated(system)
    A = system.coefficient_matrix()
    b = system.rhs_vector()
    n = A.shape[1]
    hull = np.hstack([A, b[:, None]])
    # the first division keeps the norms from overflowing
    hull /= np.abs(hull).max(axis=1, keepdims=True).clip(min=np.finfo(float).tiny)
    hull /= np.linalg.norm(hull, axis=1, keepdims=True).clip(min=1.0)
    A1, b1 = hull[:, :n], hull[:, n]

    margin, witness = _margin(A, b)
    slack = float((A1 @ witness - b1).max())
    if not slack < -tol:
        slack, witness = _margin(A1, b1)
    lp_holds = slack < -tol

    hull_gap, _, _, _, _ = min_norm_point(np.vstack([hull, np.eye(1, n + 1, n)]))
    hull_holds = hull_gap > tol

    if lp_holds != hull_holds:
        raise InternalCheckError(
            f"SSC verdicts disagree: normalized margin {slack!r} vs hull gap {hull_gap!r}"
        )
    return SSCReport(
        holds=lp_holds,
        margin=margin,
        hull_gap=float(hull_gap),
        slater_point=witness if lp_holds else None,
        lp_holds=lp_holds,
        hull_holds=hull_holds,
    )


def _margin(A, b):
    """min over x of max_t (<a_t, x> - b_t), and a point within rounding of it.

    One zero-face floor LP, the dual of the margin LP, gives both.  Optimal:
    its duals are the point x and minus the margin; x is checked on every
    row at that row's rounding scale, and the weights for nonnegativity,
    A^T lam = 0 and b.lam = -margin.  Infeasible: its Farkas certificate y
    gives d = y[:n] / y[n] with A d <= -1, so the margin is unbounded below;
    the witness is (|s| + 1) d with s = max(-b), and the margin reported is
    its largest residual.  Returns (margin, witness).
    """
    n = A.shape[1]
    _, lam, status = zero_face_floor(A, b)
    y = status.certificate
    if status.kind is StatusKind.ITER_LIMIT:
        raise NonConvergentError("zero-face floor LP hit the pivot cap")
    if status.kind is StatusKind.OPTIMAL:
        x, margin = y[:n], -float(y[n])
        miss = A @ x - b - margin
        if (miss > 1e-9 * (np.abs(A) @ np.abs(x) + np.abs(b) + abs(margin))).any():
            raise InternalCheckError(f"SSC LP point misses a row by {float(miss.max())!r}")
        # the weights solve the basis normwise, weight t on the scale max|(a_t, 1)|
        face = float(np.abs(A.T @ lam).max(initial=0.0))
        gap = abs(float(b @ lam) + margin)
        if (lam.min() < -1e-9 * float(np.abs(lam).sum())
                or face > 1e-9 * float(np.abs(lam) @ np.abs(A).max(axis=1, initial=1.0))
                or gap > 1e-9 * float(np.abs(b) @ np.abs(lam))):
            raise InternalCheckError(f"SSC LP weights fail: A^T lam {face!r}, gap {gap!r}")
        return margin, x
    if status.kind is StatusKind.INFEASIBLE:
        if not y[n] < 0:
            raise InternalCheckError(f"SSC LP Farkas certificate has y[n] = {y[n]!r}")
        d = y[:n] / y[n]
        # each row is judged at the rounding scale of its own terms
        if (A @ d + 1.0 > 1e-9 * (1.0 + np.abs(A) @ np.abs(d))).any():
            raise InternalCheckError("SSC LP direction misses a row")
        witness = (abs(float((-b).max())) + 1.0) * d
        return float((A @ witness - b).max()), witness
    raise InternalCheckError(f"SSC LP ended with {status.kind}")


def _anchor_vector(anchor, dimension: int) -> np.ndarray:
    """The anchor as a float vector; ValidationError unless it has dimension entries."""
    anchor = np.asarray(anchor, dtype=float)
    if anchor.shape != (dimension,):
        raise ValidationError(
            f"anchor has {anchor.size} entries for a {dimension}-dimensional system")
    return anchor


def _require_anchor(system: LinearSystem, anchor, tol: float) -> np.ndarray:
    anchor = _anchor_vector(anchor, system.dimension)
    res = system.residuals(anchor)
    if res.size and res.max() > tol:
        worst = int(np.argmax(res))
        raise InfeasibleAnchorError(
            f"anchor violates row {system.labels[worst]!r} by {float(res[worst]):g}"
        )
    return anchor


def distance_formula(system: LinearSystem, partition: BlockPartition,
                     p: Perturbation, x, tol: float = FEAS_TOL) -> float:
    """dist(x; F_J(p)) from the characteristic-set ratio formula.

    Requires the strong Slater condition for the perturbed system; in R^n
    the hull needs no closure, so the supremum runs over the plain convex
    hull of the generators.  ``tol`` is relative to each row's norm, in the
    strong-Slater step (its only use here, since x may be any point).
    """
    validated(system, partition)
    x = _anchor_vector(x, system.dimension)
    pert = perturbed_system(system, partition, p)
    if not check_ssc(pert, tol).holds:
        raise SSCViolatedError("perturbed system fails the strong Slater condition")
    gens = characteristic_generators(system, partition, p)
    return max_ratio_over_hull(gens, x, system.norm)


def lip_bound(system: LinearSystem, anchor, tol: float = FEAS_TOL) -> LipReport:
    """Exact Lipschitzian bound of the feasible map at (0, anchor).

    Partition-independent: the computation consumes only the nominal
    characteristic set C(0).  Residuals <a_t, anchor> - b_t above ``tol``
    reject the anchor (an absolute test), and a row is active when its
    hyperplane lies within tol of the anchor, residual >= -tol ||a_t||_2:
    scaling a row keeps the active set, and a zero row is active only when
    b_t <= 0.  With none the anchor is a strong Slater point (bound 0).
    Otherwise SSC fails iff 0 is in co{a_t : t active}
    (Gordan-Motzkin), and two routes on the active rows decide it: the slice
    min-norm value nu (SSC fails when nu <= 1e-12 max ||a_t||_dual, the bound
    is 1/nu otherwise), and min ||v|| over A_act v >= 1 (an empty region,
    shown by a checked Farkas ray, when SSC fails; the bound by
    norm-minimization duality otherwise).  They must agree in verdict and
    within 1e-6 relative, or InternalCheckError is raised.
    """
    validated(system)
    anchor = _require_anchor(system, anchor, tol)
    A = system.coefficient_matrix()
    b = system.rhs_vector()
    active = np.flatnonzero(A @ anchor - b >= -tol * np.linalg.norm(A, axis=1))
    if not active.size:
        return LipReport(0.0, REGIME_SLATER, projection_value=0.0)
    A_act = A[active]
    projected = _min_norm_above_one(A_act, system.norm)
    # an infinite feas_tol keeps every row: the slice is exactly these rows
    result = min_norm_sliced_hull(CharacteristicSet(A_act, b[active], active), anchor,
                                  system.norm, feas_tol=np.inf)
    scale = max(map(system.norm.dual().value, A_act))
    bound = np.inf if result.value <= 1e-12 * scale else 1.0 / result.value
    if np.isinf(bound) != np.isinf(projected) or abs(projected - bound) > 1e-6 * max(1.0, bound):
        raise InternalCheckError(
            f"lip routes disagree: slice bound {bound!r}, projection value {projected!r}")
    if np.isinf(bound):
        return LipReport(np.inf, REGIME_SSC_FAILS, projection_value=np.inf)
    return LipReport(
        bound=float(bound),
        regime=REGIME_REGULAR,
        slice_weights=np.bincount(active, result.weights, len(b)),
        min_norm_value=float(result.value),
        projection_value=projected,
    )


def coderivative_member(system: LinearSystem, partition: BlockPartition, anchor,
                        p_star, x_star, tol: float = FEAS_TOL):
    """Decide (p*, -x*, -<x*, anchor>) in cone{(-delta_j, a_t, b_t)}.

    For finite systems the cone is finitely generated and closed, so the
    test is an LP feasibility problem in the weights mu >= 0.  Returns
    (member, certificate-or-None).
    """
    validated(system, partition)
    anchor = _require_anchor(system, anchor, tol)
    p_star = np.asarray(p_star, dtype=float)
    if p_star.shape != (len(partition.block_labels),):
        raise ValueError("p_star must carry one value per block")
    x_star = np.asarray(x_star, dtype=float)
    A = system.coefficient_matrix()
    b = system.rhs_vector()
    m = A.shape[0]
    assign = block_assignment(system, partition)
    n_blocks = len(partition.block_labels)

    eq_rows = np.vstack([np.arange(n_blocks)[:, None] == assign, A.T, b])
    eq_rhs = np.concatenate([-p_star, -x_star, [-float(x_star @ anchor)]])
    status, mu = lp_solve_nonneg(np.zeros(m), None, None, eq_rows, eq_rhs)
    if not status.optimal:
        return False, None
    resid = float(np.abs(eq_rows @ mu - eq_rhs).max())
    scale = 1.0 + float(np.abs(eq_rhs).max())
    if resid > 1e-7 * scale:
        return False, None
    return True, _certificate(mu, assign, n_blocks, A, b, anchor)


def _certificate(mu, assign, n_blocks, A, b, anchor) -> CoderivCertificate:
    p_star = tuple((-np.bincount(assign, weights=mu, minlength=n_blocks)).tolist())
    x_star = -A.T @ mu
    anchor_residual = abs(float(mu @ (A @ anchor - b)))
    return CoderivCertificate(mu, p_star, x_star, anchor_residual)


def coderivative_norm(system: LinearSystem, partition: BlockPartition, anchor,
                      tol: float = FEAS_TOL) -> CoderivNormReport:
    """sup { sum mu_t : mu >= 0, ||sum mu_t a_t||_dual <= 1, anchor identity }.

    Finite Dirac combinations make ||p*|| = sum mu_t for any partition.  The
    weights live on the rows active at the anchor, and by norm-minimization
    duality the supremum equals min { ||v|| : <a_t, v> >= 1 on those rows },
    the distance from 0 to that polyhedron in the system's norm: lip_bound's
    projection route, which lip_bound has already checked against its slice
    route.  An empty polyhedron (a Gordan ray) gives +inf.  The
    certificate's cone weights are lip_bound's slice weights over its
    min-norm value: they are dual feasible, and their mass is the bound.
    """
    validated(system, partition)
    anchor = _require_anchor(system, anchor, tol)
    lip = lip_bound(system, anchor, tol)
    if lip.regime == REGIME_SSC_FAILS:
        return CoderivNormReport(np.inf, None, lip.bound)
    A = system.coefficient_matrix()
    mu = np.zeros(A.shape[0])
    if lip.slice_weights is not None:
        mu = lip.slice_weights / lip.min_norm_value
    cert = _certificate(mu, block_assignment(system, partition), len(partition.block_labels),
                        A, system.rhs_vector(), anchor)
    return CoderivNormReport(lip.projection_value, cert, lip.bound)


def _min_norm_above_one(A_act, norm):
    """min ||v|| s.t. A_act v >= 1, or +inf when no v qualifies."""
    try:
        _, v = project_polyhedron(np.zeros(A_act.shape[1]), -A_act,
                                  np.full(A_act.shape[0], -1.0), norm)
    except InfeasibleRegionError:
        return np.inf
    # v is accurate normwise, to rounding of its largest entry, so each row is
    # judged at |a_t|_1 max|v|: a small entry can carry its big neighbours' error
    slack = A_act @ v - 1.0
    if (slack < -1e-9 * (1.0 + np.abs(A_act).sum(axis=1) * np.abs(v).max())).any():
        raise InternalCheckError(
            f"projection-route point misses an active row by {-float(slack.min())!r}")
    return norm.value(v)


def eps_active(system: LinearSystem, anchor, eps: float,
               tol: float = FEAS_TOL) -> EpsActiveResult:
    """Indices within eps of tightness at the anchor and the reduced bound.

    The comparison <a_t, anchor> >= b_t - eps is strict arithmetic against
    the caller's eps; eps itself is the only slack.
    """
    if eps < 0:
        raise ValueError("eps must be nonnegative")
    validated(system)
    anchor = _require_anchor(system, anchor, tol)
    res = system.residuals(anchor)
    labels = tuple(
        label for label, r in zip(system.labels, res) if r >= -eps
    )
    full = lip_bound(system, anchor, tol)
    if labels:
        sub_report = lip_bound(system.subsystem(labels), anchor, tol)
    else:
        # empty index set: empty hull, empty slice, sup over empty set is 0
        sub_report = LipReport(0.0, REGIME_SLATER, projection_value=0.0)
    if np.isinf(sub_report.bound) or np.isinf(full.bound):
        matches = np.isinf(sub_report.bound) and np.isinf(full.bound)
    else:
        matches = abs(sub_report.bound - full.bound) <= 1e-9 * max(1.0, full.bound)
    return EpsActiveResult(labels, sub_report, full.bound, matches)
