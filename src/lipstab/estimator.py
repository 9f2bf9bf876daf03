"""Empirical Lipschitz-modulus estimation from the distance quotient.

Samples (p, x) near (0, anchor), evaluates the quotient
dist(x; F_J(p)) / dist(p; F_J^{-1}(x)) with the numerator computed as a
polyhedral projection (never by the ratio formula under test), and reports
the per-radius maxima.  0/0 samples contribute 0 by convention.

The samples of each radius are processed in chunks whose arrays stay near
128 KB; each chunk's numerators come from one batched project_polyhedron
call in the system's norm, and an empty F_J(p) gives +inf.  Reports are
bit-reproducible for a fixed seed: sample i at radius index r draws from its
own stream, the one np.random.default_rng((seed, r, i)) gives, and the
chunk size depends only on the system's shape.  The streams' states are
computed for many samples at once (lipstab.streams) and set in turn on one
reused generator, which makes each sample's non-uniform draws (normal,
dirichlet, integers) and reads its uniforms as raw words; the chunk's x and
p are then built with array operations.
"""
from __future__ import annotations

from dataclasses import dataclass

import numpy as np

from .errors import OrderingViolationError
from .model import FEAS_TOL, BlockPartition, LinearSystem, block_assignment, validated
from .stability import REGIME_SSC_FAILS, lip_bound, _require_anchor
from .solvers.projection import project_polyhedron
from .streams import streams

_TINY = 1e-12
SLACK_FRACTION = 0.05  # partition_compare's slack, as a share of the exact bound
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


def _face_points(U, pinned, sign_u) -> np.ndarray:
    """Points of the sup-norm sphere, face-uniform: entries uniform(-1, 1),
    the pinned one set to +1 where its sign uniform is below 0.5, else -1."""
    V = -1.0 + 2.0 * U
    V[np.arange(len(V)), pinned] = np.where(sign_u < 0.5, 1.0, -1.0)
    return V


def _radial_factors(radius: float, U, dim: int) -> np.ndarray:
    """radius * u^(1/dim) per sample, as a column: uniform in the ball's volume.

    Python's float power, one sample at a time: np.power rounds some values
    differently, and the draws must stay those of the per-sample streams.
    """
    return np.array([radius * u ** (1.0 / dim) for u in U.tolist()])[:, None]


def empirical_lip(system: LinearSystem, partition: BlockPartition, anchor,
                  cfg: SamplingConfig = SamplingConfig(), notes=()) -> EstimateReport:
    """Sampled sup of the distance quotient at each ladder radius.

    The estimate is the maximum quotient at the smallest radius.  If
    lip_bound's regime at the anchor is SSCFails, the bound is +inf by the
    Lipschitz-like characterization and the report says so immediately.
    """
    validated(system, partition)
    anchor = _require_anchor(system, anchor, FEAS_TOL)
    if lip_bound(system, anchor).regime == REGIME_SSC_FAILS:
        stats = tuple(
            RadiusStats(r, np.inf, 0, 0, -1) for r in cfg.radii
        )
        return EstimateReport(stats, np.inf, tuple(notes) + ("ssc fails: bound is infinite",))

    A = system.coefficient_matrix()
    b = system.rhs_vector()
    assign = block_assignment(system, partition)
    n_blocks = len(partition.block_labels)
    n = system.dimension
    x_kind = system.norm.kind
    # rows sorted by block, so each block's residual sup is one reduceat segment
    order = np.argsort(assign, kind="stable")
    starts = np.searchsorted(assign[order], np.arange(n_blocks))
    # the chunk's (samples x rows) and (samples x blocks) arrays stay near
    # _CHUNK_BYTES; the size depends on the shape only, so reruns repeat
    chunk = max(1, _CHUNK_BYTES // (8 * (A.shape[0] + n_blocks)))

    # Each sample's stream, in order: the x direction (perturb_anchor only:
    # normal for euclid; dirichlet, then n sign uniforms for l1; n face
    # uniforms, the pinned index and its sign uniform for linf), x's radius
    # uniform, p's face uniforms, p's pinned index, sign and radius uniforms.
    # Every uniform is one raw 64-bit word, read in its place; normal,
    # dirichlet and integers are drawn by the generator.  nx counts the x
    # part's words.
    nx = {"euclid": 1, "l1": n + 1, "linf": n + 2}[x_kind] if cfg.perturb_anchor else 0
    ones = np.ones(n)

    def draw(draws, k, radius):
        words, G, pinned_x, pinned_p = [], [], [], []
        for _, rng in zip(range(k), draws):
            raw = rng.bit_generator.random_raw
            head = 0
            if nx:
                if x_kind == "euclid":
                    G.append(rng.normal(size=n))
                elif x_kind == "l1":
                    G.append(rng.dirichlet(ones))
                else:
                    words.append(raw(n))
                    pinned_x.append(rng.integers(n))
                    head = n
            words.append(raw(nx + n_blocks - head))
            pinned_p.append(rng.integers(n_blocks))
            words.append(raw(2))
        words = np.concatenate(words).reshape(k, nx + n_blocks + 2)
        U = (words >> np.uint64(11)) * 2.0 ** -53  # numpy's uniform(0, 1) of each word
        P = _radial_factors(radius, U[:, -1], n_blocks) * _face_points(
            U[:, nx:nx + n_blocks], pinned_p, U[:, nx + n_blocks])
        if not nx:
            return np.repeat(anchor[None, :], k, axis=0), P
        if x_kind == "euclid":
            # row-wise dot products: np.linalg.norm's own sum on every row
            G = np.array(G)
            nrm = np.sqrt((G[:, None, :] @ G[:, :, None])[:, 0, 0])
            big = nrm > 1e-12
            dx = G / np.where(big, nrm, 1.0)[:, None]
            dx[~big] = np.eye(n)[0]
        elif x_kind == "l1":
            dx = np.array(G) * np.where(U[:, :n] < 0.5, -1.0, 1.0)
        else:
            dx = _face_points(U[:, :n], pinned_x, U[:, n])
        return anchor + _radial_factors(radius, U[:, nx - 1], n) * dx, P

    stats = []
    for r_idx, radius in enumerate(cfg.radii):
        quotients = np.empty(cfg.samples_per_radius)
        zoz = 0
        draws = streams((cfg.seed, r_idx), range(cfg.samples_per_radius))
        for lo in range(0, cfg.samples_per_radius, chunk):
            X, P = draw(draws, min(chunk, cfg.samples_per_radius - lo), radius)
            sup = np.maximum.reduceat((X @ A.T - b)[:, order], starts, axis=1)
            den = np.maximum((sup - P).max(axis=1), 0.0)
            num, _ = project_polyhedron(X, A, b + P[:, assign], system.norm)
            flat = den <= _TINY
            q = num / np.where(flat, 1.0, den)
            q[flat] = np.where(num[flat] <= 1e-9, 0.0, np.inf)
            zoz += int((flat & (num <= 1e-9)).sum())
            quotients[lo:lo + len(q)] = q
        best = int(np.argmax(quotients)) if len(quotients) else -1
        stats.append(RadiusStats(radius, float(quotients.max(initial=0.0)),
                                 len(quotients), zoz, best))
    estimate = stats[-1].max_quotient
    return EstimateReport(tuple(stats), estimate, tuple(notes))


def partition_compare(system: LinearSystem, partitions, anchor,
                      cfg: SamplingConfig = SamplingConfig()) -> PartitionCompareReport:
    """Empirical estimates for min/user/max partitions against the exact bound.

    Asserts the sampled estimates respect min <= J <= max up to the
    statistical slack (SLACK_FRACTION of the exact bound, plus 1e-9) and that
    every partition's smallest-radius estimate lands within the slack of the
    exact bound (they all share it: the computation is partition-independent
    in R^n).
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

    slack = SLACK_FRACTION * lip + 1e-9
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
