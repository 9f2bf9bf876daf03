"""Empirical Lipschitz-modulus estimation from the distance quotient.

Samples (p, x) near (0, anchor), evaluates the quotient
dist(x; F_J(p)) / dist(p; F_J^{-1}(x)) with the numerator computed as a
primal projection (never by the ratio formula under test), and reports the
per-radius maxima.  0/0 samples contribute 0 by convention.

The samples of each radius are processed in chunks whose arrays stay near
128 KB.  A sample whose x already lies in F_J(p) has numerator 0.  For
the Euclidean norm, the other numerators come from one guess of the active
set per sample: the rows active at the anchor, minus, round by round, the
row of the most negative multiplier, solved for all samples sharing a
working set at once.  A guess is used only after its KKT conditions
(multipliers >= 0, working rows tight, every row feasible) pass a check.
Every sample whose guess fails, and under l1/linf every sample outside
F_J(p), gets the exact project_polyhedron; RadiusStats.fallbacks counts
those.  Reports are
bit-reproducible for a fixed seed: the RNG stream is split per sample index,
and the chunk size depends only on the system's shape.
"""
from __future__ import annotations

from dataclasses import dataclass

import numpy as np

from .errors import InfeasibleRegionError, OrderingViolationError
from .model import BlockPartition, LinearSystem, block_assignment, validated
from .stability import check_ssc, lip_bound, _require_anchor
from .solvers.projection import project_polyhedron

_TINY = 1e-12
_CHUNK_BYTES = 128 * 1024


@dataclass(frozen=True)
class SamplingConfig:
    """Radius ladder and per-radius sample counts for quotient sampling."""

    radii: tuple = (1e-1, 1e-2, 1e-3)
    samples_per_radius: int = 2000
    seed: int = 0
    perturb_anchor: bool = True  # joint (p, x) mode; False perturbs p only

    def __post_init__(self):
        radii = tuple(float(r) for r in self.radii)
        if not radii or any(r <= 0 for r in radii):
            raise ValueError("radii must be positive")
        if any(radii[i] <= radii[i + 1] for i in range(len(radii) - 1)):
            raise ValueError("radii must be strictly decreasing")
        if self.samples_per_radius < 1:
            raise ValueError("samples_per_radius must be >= 1")
        object.__setattr__(self, "radii", radii)


@dataclass(frozen=True)
class RadiusStats:
    radius: float
    max_quotient: float
    samples: int
    zero_over_zero: int
    argmax_index: int
    fallbacks: int = 0  # samples projected by project_polyhedron, not by the batch


@dataclass(frozen=True)
class EstimateReport:
    per_radius: tuple
    estimate: float
    notes: tuple = ()


@dataclass(frozen=True)
class PartitionCompareReport:
    entries: tuple  # of (name, EstimateReport)
    lip: float
    ordered: bool
    converged: bool


def _sphere_direction(rng, kind: str, dim: int) -> np.ndarray:
    if kind == "euclid":
        g = rng.normal(size=dim)
        n = np.linalg.norm(g)
        return g / n if n > 1e-12 else np.eye(dim)[0]
    if kind == "linf":
        # face-uniform: pin one coordinate to +-1, rest uniform in the face
        v = rng.uniform(-1.0, 1.0, size=dim)
        k = int(rng.integers(dim))
        v[k] = 1.0 if rng.uniform() < 0.5 else -1.0
        return v
    # l1: Dirichlet weights per orthant face (face-uniform)
    w = rng.dirichlet(np.ones(dim))
    signs = np.where(rng.uniform(size=dim) < 0.5, -1.0, 1.0)
    return w * signs


def _working_set_multipliers(Aw, X, rhs_w):
    """mu with (A_W A_W^T) mu = A_W x - rhs_W for each row x of X.

    Returns None when the Gram matrix A_W A_W^T is singular.
    """
    gram = Aw @ Aw.T
    if np.linalg.matrix_rank(gram) < gram.shape[0]:
        return None
    return np.linalg.solve(gram, (X @ Aw.T - rhs_w).T).T


def _guess_and_verify(A, X, RHS, W0):
    """Euclidean projections of the rows of X onto {y : A y <= rhs} by guessing.

    Each sample starts from the working set W0 and, for at most |W0|
    rounds, drops the row of its most negative multiplier while that is
    below -tol; samples that share a working set are solved together.
    Returns (Z, ok): Z[s] is the projection of X[s] wherever ok[s], which
    holds only when mu >= -tol, A_W z = rhs_W within tol and
    A z <= rhs + 1e-9 (1 + |A||z|) on every row.
    """
    tol = 1e-11 * (1.0 + np.abs(X @ A.T - RHS).max(axis=1))
    keep = np.ones((len(X), W0.size), dtype=bool)
    Z = np.empty_like(X)
    ok = np.zeros(len(X), dtype=bool)
    live = np.arange(len(X))
    for _ in range(W0.size):
        masks, group = np.unique(keep[live], axis=0, return_inverse=True)
        retry = []
        for g, mask in enumerate(masks):
            s = live[group.ravel() == g]
            if not mask.any():
                continue  # x itself violates a row: the guess failed
            rows = W0[mask]
            Aw = A[rows]
            mu = _working_set_multipliers(Aw, X[s], RHS[np.ix_(s, rows)])
            if mu is None:
                continue
            bad = mu.min(axis=1) < -tol[s]
            # like the exact method, drop the most negative multiplier's row
            keep[s[bad], np.flatnonzero(mask)[np.argmin(mu[bad], axis=1)]] = False
            retry.append(s[bad])
            done = s[~bad]
            Z[done] = X[done] - mu[~bad] @ Aw
            tight = np.abs(Z[done] @ Aw.T - RHS[np.ix_(done, rows)]) <= tol[done, None]
            ok[done] = tight.all(axis=1)
        live = np.concatenate(retry) if retry else live[:0]
        if not live.size:
            break
    cand = np.flatnonzero(ok)
    Zc = Z[cand]
    slack = Zc @ A.T - RHS[cand]
    ok[cand] = (slack <= 1e-9 * (1.0 + np.abs(Zc) @ np.abs(A).T)).all(axis=1)
    return Z, ok


def empirical_lip(system: LinearSystem, partition: BlockPartition, anchor,
                  cfg: SamplingConfig = SamplingConfig(), notes=()) -> EstimateReport:
    """Sampled sup of the distance quotient at each ladder radius.

    The estimate is the maximum quotient at the smallest radius.  If the
    strong Slater condition fails, the bound is +inf by the Lipschitz-like
    characterization and the report says so immediately.
    """
    validated(system, partition)
    anchor = _require_anchor(system, anchor, 1e-9)
    ssc = check_ssc(system)
    if not ssc.holds:
        stats = tuple(
            RadiusStats(r, np.inf, 0, 0, -1) for r in cfg.radii
        )
        return EstimateReport(stats, np.inf, tuple(notes) + ("ssc fails: bound is infinite",))

    A = system.coefficient_matrix()
    b = system.rhs_vector()
    assign = block_assignment(system, partition)
    n_blocks = len(partition.blocks)
    n = system.dimension
    x_kind = system.norm.kind
    # rows sorted by block, so each block's residual sup is one reduceat segment
    order = np.argsort(assign, kind="stable")
    starts = np.searchsorted(assign[order], np.arange(n_blocks))
    W0 = np.flatnonzero(A @ anchor - b >= -1e-9)
    witness = ssc.slater_point
    witness_res = A @ witness - b
    # the chunk's (samples x rows) and (samples x blocks) arrays stay near
    # _CHUNK_BYTES; the size depends on the shape only, so reruns repeat
    chunk = max(1, _CHUNK_BYTES // (8 * (A.shape[0] + n_blocks)))

    def draw(r_idx, radius, i):
        rng = np.random.default_rng((cfg.seed, r_idx, i))
        if cfg.perturb_anchor:
            dx = _sphere_direction(rng, x_kind, n)
            x = anchor + (radius * rng.uniform() ** (1.0 / n)) * dx
        else:
            x = anchor
        dp = _sphere_direction(rng, "linf", n_blocks)
        return x, (radius * rng.uniform() ** (1.0 / n_blocks)) * dp

    def numerators(X, P, AX):
        """dist(x; F_J(p)) for each sample; returns (values, exact fallbacks)."""
        RHS = b + P[:, assign]
        num = np.zeros(len(X))
        todo = np.flatnonzero((AX - RHS).max(axis=1) > 0.0)
        if x_kind == "euclid" and todo.size:
            Z, ok = _guess_and_verify(A, X[todo], RHS[todo], W0)
            num[todo[ok]] = np.linalg.norm(X[todo[ok]] - Z[ok], axis=1)
            todo = todo[~ok]
        for s in todo:
            start = witness if (witness_res - P[s, assign]).max() <= 0.0 else None
            try:
                num[s], _ = project_polyhedron(X[s], A, RHS[s], system.norm, start=start)
            except InfeasibleRegionError:
                num[s] = np.inf  # dist(x; empty set) = +inf by convention
        return num, todo.size

    stats = []
    for r_idx, radius in enumerate(cfg.radii):
        quotients = np.empty(cfg.samples_per_radius)
        zoz = fallbacks = 0
        for lo in range(0, cfg.samples_per_radius, chunk):
            drawn = [draw(r_idx, radius, i)
                     for i in range(lo, min(lo + chunk, cfg.samples_per_radius))]
            X = np.array([x for x, _ in drawn])
            P = np.array([p for _, p in drawn])
            AX = X @ A.T
            sup = np.maximum.reduceat((AX - b)[:, order], starts, axis=1)
            den = np.maximum((sup - P).max(axis=1), 0.0)
            num, fell = numerators(X, P, AX)
            fallbacks += fell
            flat = den <= _TINY
            q = num / np.where(flat, 1.0, den)
            q[flat] = np.where(num[flat] <= 1e-9, 0.0, np.inf)
            zoz += int((flat & (num <= 1e-9)).sum())
            quotients[lo:lo + len(q)] = q
        best = int(np.argmax(quotients)) if len(quotients) else -1
        stats.append(RadiusStats(radius, float(quotients.max(initial=0.0)),
                                 len(quotients), zoz, best, fallbacks))
    estimate = stats[-1].max_quotient
    return EstimateReport(tuple(stats), estimate, tuple(notes))


def partition_compare(system: LinearSystem, partitions, anchor,
                      cfg: SamplingConfig = SamplingConfig(),
                      slack_fraction: float = 0.05) -> PartitionCompareReport:
    """Empirical estimates for min/user/max partitions against the exact bound.

    Asserts the sampled estimates respect min <= J <= max up to the
    statistical slack and that every partition's smallest-radius estimate
    lands within the slack of the exact bound (they all share it: the
    computation is partition-independent in R^n).
    """
    validated(system)
    labels = system.labels
    entries = []
    named = [("min", BlockPartition.minimum(labels))]
    named += [(f"J{i}", p) for i, p in enumerate(partitions)]
    named.append(("max", BlockPartition.maximum(labels)))
    lip = lip_bound(system, anchor).bound
    for name, part in named:
        entries.append((name, empirical_lip(system, part, anchor, cfg)))
    if np.isinf(lip):
        ordered = all(np.isinf(rep.estimate) for _, rep in entries)
        return PartitionCompareReport(tuple(entries), lip, ordered, ordered)

    slack = slack_fraction * lip + 1e-9
    est = {name: rep.estimate for name, rep in entries}
    offending = []
    for name, rep in entries:
        if name in ("min", "max"):
            continue
        if est["min"] > est[name] + slack:
            offending.append((name, "min", est["min"], est[name]))
        if est[name] > est["max"] + slack:
            offending.append((name, "max", est[name], est["max"]))
    if offending:
        raise OrderingViolationError(
            f"partition ordering violated beyond slack {slack:g}", offending)
    converged = all(abs(rep.estimate - lip) <= slack for _, rep in entries)
    ordered = True
    return PartitionCompareReport(tuple(entries), lip, ordered, converged)
