"""Convex inequality systems f_j(x) <= p_j and their cut linearization.

Each supported function class is full-domain with a closed-form (or
LP-computable) Fenchel-Legendre conjugate, so every subgradient cut
(u, f*(u)) generated at a sample point lies exactly on the conjugate graph
by Fenchel-Young equality.  The linearized rows <u, x> <= f*(u) + p_j form
one block per convex inequality, which is where block perturbations come
from: one right-hand-side scalar moves a whole block at once.

A linearization grows in rounds, each appending its new cuts after the rows
already held.  A new cut is dropped when its u lies within 1e-12 in max-norm
of a cut kept earlier in its round and block, or else of a cut the block
held before the round; so the first cut is kept.
"""
from __future__ import annotations

from dataclasses import dataclass

import numpy as np

from .errors import InfeasibleAnchorError, InfeasibleRegionError, NonConvergentError
from .model import BlockPartition, LinearSystem
from .norms import NormSpec, norm_value
from .solvers.projection import project_polyhedron
from .solvers.simplex import lp_solve_nonneg
from .stability import REGIME_SSC_FAILS, LipReport, _anchor_vector, lip_bound
from .streams import streams

FY_TOL = 1e-9
_NEAR_ENTRIES = 2**20  # differences held at once by the duplicate test (8 MB)


@dataclass(frozen=True)
class AffineFn:
    """x -> <c, x> + d"""

    c: np.ndarray
    d: float

    def __post_init__(self):
        object.__setattr__(self, "c", np.atleast_1d(np.asarray(self.c, dtype=float)))
        object.__setattr__(self, "d", float(self.d))

    @property
    def dimension(self):
        return self.c.shape[0]

    def value(self, x):
        return float(self.c @ np.asarray(x, dtype=float) + self.d)

    def subgradient(self, x):
        return self.c.copy()

    def conjugate(self, u):
        u = np.asarray(u, dtype=float)
        if np.abs(u - self.c).max(initial=0.0) > 1e-12:
            return np.inf
        return -self.d


@dataclass(frozen=True)
class QuadraticFn:
    """x -> 1/2 <Q x, x> + <c, x> + r with Q symmetric positive definite."""

    Q: np.ndarray
    c: np.ndarray
    r: float

    def __post_init__(self):
        Q = np.atleast_2d(np.asarray(self.Q, dtype=float))
        if np.abs(Q - Q.T).max() > 1e-12:
            raise ValueError("Q must be symmetric")
        np.linalg.cholesky(Q)  # definiteness check
        object.__setattr__(self, "Q", Q)
        object.__setattr__(self, "c", np.atleast_1d(np.asarray(self.c, dtype=float)))
        object.__setattr__(self, "r", float(self.r))

    @property
    def dimension(self):
        return self.c.shape[0]

    def value(self, x):
        x = np.asarray(x, dtype=float)
        return float(0.5 * x @ self.Q @ x + self.c @ x + self.r)

    def subgradient(self, x):
        return self.Q @ np.asarray(x, dtype=float) + self.c

    def conjugate(self, u):
        w = np.linalg.solve(self.Q, np.asarray(u, dtype=float) - self.c)
        return float(0.5 * w @ (np.asarray(u, dtype=float) - self.c) - self.r)


@dataclass(frozen=True)
class MaxAffineFn:
    """x -> max_i <c_i, x> + d_i; subgradient ties resolved by first max."""

    pieces_c: np.ndarray  # (k, n)
    pieces_d: np.ndarray  # (k,)

    def __post_init__(self):
        C = np.atleast_2d(np.asarray(self.pieces_c, dtype=float))
        d = np.atleast_1d(np.asarray(self.pieces_d, dtype=float))
        if C.shape[0] != d.shape[0]:
            raise ValueError("pieces_c and pieces_d disagree on the piece count")
        object.__setattr__(self, "pieces_c", C)
        object.__setattr__(self, "pieces_d", d)

    @property
    def dimension(self):
        return self.pieces_c.shape[1]

    def value(self, x):
        return float((self.pieces_c @ np.asarray(x, dtype=float) + self.pieces_d).max())

    def subgradient(self, x):
        vals = self.pieces_c @ np.asarray(x, dtype=float) + self.pieces_d
        return self.pieces_c[int(np.argmax(vals))].copy()

    def conjugate(self, u):
        # min -theta.d  s.t. theta in simplex, sum theta_i c_i = u
        u = np.asarray(u, dtype=float)
        k, n = self.pieces_c.shape
        eq = np.vstack([self.pieces_c.T, np.ones((1, k))])
        rhs = np.concatenate([u, [1.0]])
        status, theta = lp_solve_nonneg(-self.pieces_d, None, None, eq, rhs)
        if not status.optimal:
            return np.inf
        if np.abs(eq @ theta - rhs).max() > 1e-7 * (1.0 + np.abs(rhs).max()):
            return np.inf
        return float(-self.pieces_d @ theta)


@dataclass(frozen=True)
class ScaledNormFn:
    """x -> kappa * ||x - shift|| + offset in the given norm."""

    kappa: float
    shift: np.ndarray
    offset: float
    kind: str = "euclid"

    def __post_init__(self):
        if self.kappa <= 0:
            raise ValueError("kappa must be positive")
        object.__setattr__(self, "kappa", float(self.kappa))
        object.__setattr__(self, "shift", np.atleast_1d(np.asarray(self.shift, dtype=float)))
        object.__setattr__(self, "offset", float(self.offset))

    @property
    def dimension(self):
        return self.shift.shape[0]

    def value(self, x):
        return self.kappa * norm_value(self.kind, np.asarray(x, dtype=float) - self.shift) + self.offset

    def subgradient(self, x):
        z = np.asarray(x, dtype=float) - self.shift
        if np.abs(z).max(initial=0.0) < 1e-300:
            return np.zeros_like(z)
        if self.kind == "euclid":
            return self.kappa * z / np.linalg.norm(z)
        if self.kind == "l1":
            return self.kappa * np.sign(z)
        k = int(np.argmax(np.abs(z)))  # first max coordinate
        g = np.zeros_like(z)
        g[k] = self.kappa * np.sign(z[k])
        return g

    def conjugate(self, u):
        u = np.asarray(u, dtype=float)
        if norm_value(NormSpec(self.kind).dual().kind, u) > self.kappa + 1e-12:
            return np.inf
        return float(u @ self.shift - self.offset)


def eval_sub(f, x):
    """(f(x), one subgradient) with Fenchel-Young equality at the pair."""
    return f.value(x), f.subgradient(x)


def conjugate_value(f, u) -> float:
    """f*(u), +inf outside the conjugate domain."""
    return f.conjugate(u)


@dataclass(frozen=True)
class CutConfig:
    """Sampling plan for subgradient cuts around an anchor."""

    budget: int = 64
    radii: tuple = (1.0, 0.5, 0.25, 0.1, 0.05, 0.02, 0.01, 3e-3, 1e-3)
    seed: int = 0
    refine_rounds: int = 8
    refine_budget: int = 16
    rel_tol: float = 1e-4


@dataclass(frozen=True)
class LinearizedSystem:
    system: LinearSystem
    partition: BlockPartition
    block: np.ndarray       # function index of each row
    provenance: np.ndarray  # sample point of each row's cut


@dataclass(frozen=True)
class ConvexLipReport:
    bound: float
    regime: str
    history: tuple
    converged: bool
    linearization: LinearizedSystem | None
    slice_weights: np.ndarray | None = None
    notes: tuple = ()


def _cut_points(anchor, cfg: CutConfig, block_idx: int, dimension: int, budget: int,
                round_idx: int = 0, centers=None) -> np.ndarray:
    """Deterministic sample points, one per row: the anchor, then radius-ladder rings."""
    anchor = np.asarray(anchor, dtype=float)
    centers = anchor[None, :] if centers is None else np.asarray(centers, dtype=float)
    radii = np.asarray(cfg.radii, dtype=float)
    pts, count, i = [anchor[None, :]], 1, 0
    while count < budget + 1:
        stop = i + budget + 1 - count
        # point i draws from the stream default_rng((seed, round, block, i))
        D = np.array([rng.normal(size=dimension)
                      for rng in streams((cfg.seed, round_idx, block_idx), range(i, stop))])
        # row-wise dot products: np.linalg.norm's own sum on every row
        nrm = np.sqrt((D[:, None, :] @ D[:, :, None])[:, 0, 0])
        ok = nrm > 1e-12
        idx = np.arange(i, stop)[ok]
        pts.append(centers[idx % len(centers)]
                   + radii[idx % len(radii)][:, None] * D[ok] / nrm[ok, None])
        count, i = count + len(idx), stop
    return np.concatenate(pts)


def _kept(U, held) -> np.ndarray:
    """Mask of the new cuts U (rows, in sample order) that pass both duplicate tests.

    The test against held runs apart from, and after, the one within U:
    nearness is not transitive, so a cut dropped for a held neighbour still
    drops the later cuts near it.
    """
    def near(P, Q):
        return np.abs(P[:, None, :] - Q[None, :, :]).max(axis=2, initial=0.0) <= 1e-12

    step = max(1, _NEAR_ENTRIES // ((len(U) + len(held)) * U.shape[1]))
    first, fresh = np.ones(len(U), dtype=bool), np.ones(len(U), dtype=bool)
    for lo in range(0, len(U), step):
        earlier = np.tril(near(U[lo:lo + step], U[:lo + step]), lo - 1)
        for i in lo + np.flatnonzero(earlier.any(axis=1)):
            first[i] = not (earlier[i - lo, :i] & first[:i]).any()
        fresh[lo:lo + step] = ~near(U[lo:lo + step], held).any(axis=1)
    return first & fresh


def linearize(fs, cfg: CutConfig, anchor, norm: NormSpec = NormSpec(),
              block_labels=None) -> LinearizedSystem:
    """Subgradient-cut linearization of {f_j(x) <= p_j} around the anchor.

    Every cut is exact on the conjugate graph: f*(u) is evaluated through
    Fenchel-Young equality at the sample point, never numerically
    conjugated.  A cut within 1e-12 in max-norm of one kept earlier in its
    block and round is dropped, so the first is kept (refinement rounds then
    test against the cuts the block held before the round).  Rows run block
    by block, then by sample index i (the anchor is 0), labelled
    (j=<block>, sample 0.<i>).  Blocks are per function, so right-hand-side
    perturbations of the convex system are block perturbations of the
    linearization.
    """
    anchor = _anchor_vector(anchor, fs[0].dimension)
    block_labels = map(str, range(len(fs))) if block_labels is None else block_labels
    n = anchor.shape[0]
    empty = LinearizedSystem(LinearSystem(n, (), norm),
                             BlockPartition(tuple((j, ()) for j, _ in zip(block_labels, fs))),
                             np.zeros(0, dtype=int), np.zeros((0, n)))
    return _extend(empty, fs, cfg, anchor, 0, cfg.budget, [None] * len(fs))


def _extend(lin: LinearizedSystem, fs, cfg: CutConfig, anchor, round_idx: int, budget: int,
            centers_per_block) -> LinearizedSystem:
    """lin with the round's kept cuts appended, labelled (j=<block>, sample <round>.<i>)."""
    names, held = lin.partition.block_labels, lin.system.coefficient_matrix()
    members = [list(m) for _, m in lin.partition.blocks]
    rows, block, prov = list(lin.system.rows), [lin.block], [lin.provenance]
    for j, f in enumerate(fs):
        pts = _cut_points(anchor, cfg, j, f.dimension, budget, round_idx, centers_per_block[j])
        cuts = [eval_sub(f, x) for x in pts]
        keep = np.flatnonzero(_kept(np.array([u for _, u in cuts]), held[lin.block == j]))
        for i in keep:
            val, u = cuts[i]
            members[j].append(f"(j={names[j]}, sample {round_idx}.{i})")
            rows.append((members[j][-1], u, float(u @ pts[i] - val)))
        block.append(np.full(len(keep), j))
        prov.append(pts[keep])
    return LinearizedSystem(LinearSystem(lin.system.dimension, tuple(rows), lin.system.norm),
                            BlockPartition(tuple(zip(names, map(tuple, members)))),
                            np.concatenate(block), np.concatenate(prov))


def lip_bound_convex(fs, anchor, cfg: CutConfig = CutConfig(),
                     norm: NormSpec = NormSpec(), tol: float = FY_TOL,
                     block_labels=None) -> ConvexLipReport:
    """Exact-bound estimate for the convex system via conjugate linearization.

    The sampled hull sits inside the true hull of the conjugate graphs, so
    the reported bound is a lower estimate of the true bound and is
    nondecreasing under refinement (sample sets are nested for a fixed
    seed).  Refinement targets the supporting face of the current slice
    minimizer and stops once two successive bounds agree to cfg.rel_tol
    relative; stalling at the budget is flagged, not hidden.
    """
    anchor = _anchor_vector(anchor, fs[0].dimension)
    for j, f in enumerate(fs):
        v = f.value(anchor)
        if v > tol:
            raise InfeasibleAnchorError(
                f"anchor violates convex inequality {j} by {v:g}")
    lin = linearize(fs, cfg, anchor, norm, block_labels)
    report = lip_bound(lin.system, anchor, tol)
    history = [report.bound]
    if report.regime == REGIME_SSC_FAILS:
        return ConvexLipReport(np.inf, REGIME_SSC_FAILS, tuple(history), True, lin)
    converged = cfg.refine_rounds < 1  # no refinement requested
    for round_idx in range(1, cfg.refine_rounds + 1):
        lin = _extend(lin, fs, cfg, anchor, round_idx, cfg.refine_budget,
                      _refine_centers(lin, report, anchor))
        report = lip_bound(lin.system, anchor, tol)
        history.append(report.bound)
        if report.regime == REGIME_SSC_FAILS:
            return ConvexLipReport(np.inf, REGIME_SSC_FAILS, tuple(history), True, lin)
        prev, cur = history[-2], history[-1]
        if np.isfinite(cur) and abs(cur - prev) < cfg.rel_tol * max(1.0, abs(cur)):
            converged = True
            break
    notes = () if converged else (
        f"refinement stalled at budget; last gap {abs(history[-1] - history[-2]):.3g}",)
    return ConvexLipReport(report.bound, report.regime, tuple(history), converged,
                           lin, report.slice_weights, notes)


def _refine_centers(lin: LinearizedSystem, report: LipReport, anchor):
    """Per block, the anchor, then the sample points of its cuts with slice weight above 1e-10."""
    w = report.slice_weights
    hot = np.zeros(len(lin.block), dtype=bool) if w is None else w > 1e-10
    return [np.concatenate([anchor[None, :], lin.provenance[hot & (lin.block == j)]])
            for j in range(len(lin.partition.blocks))]


def distance_convex(fs, p, x, norm: NormSpec = NormSpec(), tol: float = 1e-8) -> float:
    """dist(x; {y : f_j(y) <= p_j}) by Kelley cutting planes.

    Projects onto the current linearization, cuts every violated inequality
    at the projection, and repeats until the worst violation is below tol;
    after 500 rounds it raises NonConvergentError with the last projection.
    The linearized region contains the true one, so emptiness of the
    linearization certifies emptiness of the convex region.
    """
    x = _anchor_vector(x, fs[0].dimension)
    p = np.asarray(p, dtype=float)
    if p.shape != (len(fs),):
        raise ValueError("p must carry one value per convex inequality")

    def cuts(js, y):  # the cut of each f_j at y, shifted by p_j
        ev = [eval_sub(fs[j], y) for j in js]
        return (np.reshape([u for _, u in ev], (-1, len(y))),
                np.array([float(u @ y - val) + p[j] for j, (val, u) in zip(js, ev)]))

    A, b = cuts(range(len(fs)), x)
    y = x
    for _ in range(500):
        viols = np.array([f.value(y) - p[j] for j, f in enumerate(fs)])
        if float(viols.max()) <= tol:
            return norm_value(norm.kind, y - x)
        A_new, b_new = cuts(np.flatnonzero(viols > tol), y)
        A, b = np.concatenate([A, A_new]), np.concatenate([b, b_new])
        try:
            _, y = project_polyhedron(x, A, b, norm)
        except InfeasibleRegionError:
            raise InfeasibleRegionError(
                "linearized region is empty, so the convex region is empty")
    raise NonConvergentError("cutting-plane distance hit the cut cap", partial=y)
