"""Convex inequality systems f_j(x) <= p_j and their cut linearization.

Each supported function class is full-domain with a closed-form (or
LP-computable) Fenchel-Legendre conjugate, so every subgradient cut
(u, f*(u)) generated at a sample point lies exactly on the conjugate graph
by Fenchel-Young equality.  The linearized rows <u, x> <= f*(u) + p_j form
one block per convex inequality, which is where block perturbations come
from: one right-hand-side scalar moves a whole block at once.
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
class ConjugateSample:
    block: str
    u: np.ndarray
    fstar: float
    provenance: np.ndarray


@dataclass(frozen=True)
class LinearizedSystem:
    system: LinearSystem
    partition: BlockPartition
    samples: tuple


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
                round_idx: int = 0, centers=None):
    """Deterministic sample points: the anchor plus radius-ladder rings."""
    pts = [np.asarray(anchor, dtype=float)]
    if centers is None:
        centers = [np.asarray(anchor, dtype=float)]
    i = 0
    while len(pts) < budget + 1:
        # point i draws from the stream default_rng((seed, round, block, i))
        for rng in streams((cfg.seed, round_idx, block_idx), range(i, i + budget + 1 - len(pts))):
            radius = cfg.radii[i % len(cfg.radii)]
            center = centers[i % len(centers)]
            direction = rng.normal(size=dimension)
            nrm = np.linalg.norm(direction)
            if nrm > 1e-12:
                pts.append(center + radius * direction / nrm)
            i += 1
    return pts


def linearize(fs, cfg: CutConfig, anchor, norm: NormSpec = NormSpec(),
              block_labels=None, round_idx: int = 0, centers_per_block=None,
              extra_budget: int | None = None) -> LinearizedSystem:
    """Subgradient-cut linearization of {f_j(x) <= p_j} around the anchor.

    Every cut is exact on the conjugate graph: f*(u) is evaluated through
    Fenchel-Young equality at the sample point, never numerically
    conjugated.  Duplicate u within 1e-12 are dropped (first kept).  Blocks
    are per function, so right-hand-side perturbations of the convex system
    are block perturbations of the linearization.
    """
    anchor = _anchor_vector(anchor, fs[0].dimension)
    if block_labels is None:
        block_labels = [str(j) for j in range(len(fs))]
    rows = []
    blocks = []
    samples = []
    budget = extra_budget if extra_budget is not None else cfg.budget
    for j, f in enumerate(fs):
        centers = None if centers_per_block is None else centers_per_block[j]
        pts = _cut_points(anchor, cfg, j, f.dimension, budget, round_idx, centers)
        seen = []
        members = []
        for i, xs in enumerate(pts):
            val, u = eval_sub(f, xs)
            if any(np.abs(u - prev).max(initial=0.0) <= 1e-12 for prev in seen):
                continue
            seen.append(u)
            fstar = float(u @ xs - val)
            label = f"(j={block_labels[j]}, sample {round_idx}.{i})"
            rows.append((label, u, fstar))
            members.append(label)
            samples.append(ConjugateSample(block_labels[j], u, fstar, xs))
        blocks.append((block_labels[j], tuple(members)))
    system = LinearSystem(anchor.shape[0], tuple(rows), norm)
    return LinearizedSystem(system, BlockPartition(tuple(blocks)), tuple(samples))


def _merge(lin: LinearizedSystem, extra: LinearizedSystem) -> LinearizedSystem:
    """Nested refinement: previous rows kept, new distinct cuts appended."""
    rows = list(lin.system.rows)
    samples = list(lin.samples)
    blocks = {j: list(members) for j, members in lin.partition.blocks}
    existing = {j: [r[1] for r in lin.system.rows if r[0] in set(members)]
                for j, members in lin.partition.blocks}
    for (label, u, fstar), sample in zip(extra.system.rows, extra.samples):
        us = existing.setdefault(sample.block, [])
        if any(np.abs(u - prev).max(initial=0.0) <= 1e-12 for prev in us):
            continue
        us.append(u)
        rows.append((label, u, fstar))
        samples.append(sample)
        blocks[sample.block].append(label)
    parts = tuple((j, tuple(m)) for j, m in blocks.items())
    return LinearizedSystem(
        LinearSystem(lin.system.dimension, tuple(rows), lin.system.norm),
        BlockPartition(parts),
        tuple(samples),
    )


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
    converged = False
    for round_idx in range(1, cfg.refine_rounds + 1):
        centers = _refine_centers(lin, report, anchor)
        extra = linearize(fs, cfg, anchor, norm, block_labels, round_idx=round_idx,
                          centers_per_block=centers, extra_budget=cfg.refine_budget)
        lin = _merge(lin, extra)
        report = lip_bound(lin.system, anchor, tol)
        history.append(report.bound)
        if report.regime == REGIME_SSC_FAILS:
            return ConvexLipReport(np.inf, REGIME_SSC_FAILS, tuple(history), True, lin)
        prev, cur = history[-2], history[-1]
        if np.isfinite(cur) and abs(cur - prev) < cfg.rel_tol * max(1.0, abs(cur)):
            converged = True
            break
    if len(history) < 2:
        converged = True  # no refinement requested
    notes = () if converged else (
        f"refinement stalled at budget; last gap {abs(history[-1] - history[-2]):.3g}",)
    return ConvexLipReport(report.bound, report.regime, tuple(history), converged,
                           lin, report.slice_weights, notes)


def _refine_centers(lin: LinearizedSystem, report: LipReport, anchor):
    """New sample centers near the provenance of the active support atoms."""
    by_block = {j: [np.asarray(anchor, dtype=float)] for j, _ in lin.partition.blocks}
    if report.slice_weights is not None:
        for w, sample in zip(report.slice_weights, lin.samples):
            if w > 1e-10:
                by_block[sample.block].append(sample.provenance)
    return [by_block[j] for j, _ in lin.partition.blocks]


def distance_convex(fs, p, x, cfg: CutConfig = CutConfig(),
                    norm: NormSpec = NormSpec(), tol: float = 1e-8) -> float:
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
    cuts, rhs = [], []
    for j, f in enumerate(fs):
        val, u = eval_sub(f, x)
        cuts.append(u)
        rhs.append(float(u @ x - val) + p[j])
    y = x
    for _ in range(500):
        viols = np.array([f.value(y) - p[j] for j, f in enumerate(fs)])
        if float(viols.max()) <= tol:
            return norm_value(norm.kind, y - x)
        for j in np.where(viols > tol)[0]:
            val, u = eval_sub(fs[j], y)
            cuts.append(u)
            rhs.append(float(u @ y - val) + p[j])
        try:
            _, y = project_polyhedron(x, np.array(cuts), np.array(rhs), norm)
        except InfeasibleRegionError:
            raise InfeasibleRegionError(
                "linearized region is empty, so the convex region is empty")
    raise NonConvergentError("cutting-plane distance hit the cut cap", partial=y)
