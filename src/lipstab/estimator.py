"""Empirical Lipschitz-modulus estimation from the distance quotient.

Samples (p, x) near (0, anchor), evaluates the quotient
dist(x; F_J(p)) / dist(p; F_J^{-1}(x)) with the numerator computed by the
projection oracle (never by the ratio formula under test), and reports the
per-radius maxima.  0/0 samples contribute 0 by convention.  Reports are
bit-reproducible for a fixed seed: the RNG stream is split per sample index,
so the reduction order cannot change results.
"""
from __future__ import annotations

from dataclasses import dataclass

import numpy as np

from .errors import InfeasibleRegionError, OrderingViolationError
from .model import (
    BlockPartition,
    LinearSystem,
    block_assignment,
    block_residual_sup,
    validated,
)
from .stability import check_ssc, lip_bound, _require_anchor
from .solvers.projection import project_polyhedron

_TINY = 1e-12


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
    witness = ssc.slater_point
    margin = ssc.margin  # negative
    x_kind = system.norm.kind

    def one_sample(r_idx, radius, i):
        rng = np.random.default_rng((cfg.seed, r_idx, i))
        if cfg.perturb_anchor:
            dx = _sphere_direction(rng, x_kind, n)
            x = anchor + (radius * rng.uniform() ** (1.0 / n)) * dx
        else:
            x = anchor
        dp = _sphere_direction(rng, "linf", n_blocks)
        p = (radius * rng.uniform() ** (1.0 / n_blocks)) * dp
        res = A @ x - b
        den = max(float((block_residual_sup(res, assign, n_blocks) - p).max()), 0.0)
        rhs = b + p[assign]
        start = witness if margin + radius < 0 else None
        try:
            num, _ = project_polyhedron(x, list(zip(A, rhs)), system.norm,
                                        check_feasible=start is None, start=start)
        except InfeasibleRegionError:
            # dist(x; empty set) = +inf by convention
            return np.inf, False
        if den <= _TINY:
            if num <= 1e-9:
                return 0.0, True
            return np.inf, False
        return num / den, False

    stats = []
    for r_idx, radius in enumerate(cfg.radii):
        quotients = np.empty(cfg.samples_per_radius)
        zoz = 0
        for i in range(cfg.samples_per_radius):
            quotients[i], zero_over_zero = one_sample(r_idx, radius, i)
            zoz += zero_over_zero
        best = int(np.argmax(quotients)) if len(quotients) else -1
        stats.append(RadiusStats(radius, float(quotients.max(initial=0.0)),
                                 len(quotients), zoz, best))
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
