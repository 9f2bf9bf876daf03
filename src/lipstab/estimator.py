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
chunk size depends only on the system's shape.

The draws are decoded from raw words (lipstab.streams).  `_sample_draws`
fixes one sample's draws in stream order.  For a chunk, the streams' states
are seeded together, the first words of every stream are computed as one
array, and each draw is read at the word position `_Layout` gives it: the
uniforms, p's and a linf x's pinned index (integers, by Lemire's method),
and a Euclidean x's normal direction (the ziggurat's one-word path).  A
sample that leaves those paths, through a slow-path normal or a Lemire
rejection, is redrawn by numpy on a generator in its state: 1.5% of
normals leave the one-word path, so 2.9% of Euclidean samples in R^2 and
7.2% in R^5; Lemire rejections are below k/2^32.  Every l1
sample is drawn that way: its dirichlet direction takes one gamma draw per
coordinate, whose word count varies.
"""
from __future__ import annotations

from dataclasses import dataclass

import numpy as np

from .errors import OrderingViolationError
from .model import FEAS_TOL, BlockPartition, LinearSystem, block_assignment, validated
from .stability import REGIME_SSC_FAILS, lip_bound, _require_anchor
from .solvers.projection import project_polyhedron
from .streams import generators, lemire, normals, raw_words, seeded

_TINY = 1e-12
SLACK_FRACTION = 0.05  # partition_compare's slack, as a share of the exact bound
_CHUNK_BYTES = 128 * 1024
_SEEDED = 1024  # samples of a radius whose stream states are computed at once


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


class _Stream:
    """A sample's draws, made by a numpy generator in its stream's state."""

    def __init__(self, rng):
        self.rng = rng

    def raw(self, count):
        return self.rng.bit_generator.random_raw(count)

    def integers(self, k):
        return self.rng.integers(k)

    def normal(self, size):
        return self.rng.normal(size=size)

    def dirichlet(self, size):
        return self.rng.dirichlet(np.ones(size))


class _Layout:
    """The word positions a sample's draws read on their one-word paths.

    raw(c) and normal(c) read c words in turn.  integers(k) (k is a
    dimension or a block count, so below 2^32) reads nothing for k = 1;
    otherwise it takes the low 32 bits of a fresh word, and the next
    integers the same word's high half, whatever words were read between.
    """

    def __init__(self):
        self.width, self.half = 0, None  # words read; a word whose high half is unread

    def raw(self, count):
        self.width += count
        return np.arange(self.width - count, self.width)

    normal = raw

    def integers(self, k):
        """(column, shift) of integers(k)'s 32-bit draw, or None."""
        if k == 1:
            return None
        if self.half is not None:
            col, self.half = self.half, None
            return col, 32
        self.half = self.width
        self.width += 1
        return self.half, 0


def _sample_draws(src, x_kind, n: int, n_blocks: int):
    """One sample's draws from ``src``, in stream order.

    Returns (x direction, x's pinned index, uniform words, p's pinned
    index).  The direction is normal (euclid) or dirichlet (l1), and the
    pinned index is linf's; x_kind None keeps x at the anchor.  The uniform
    words are x's (l1: n signs; linf: n face uniforms and the pinned sign),
    x's radius, then p's n_blocks face uniforms, pinned sign and radius.
    """
    direction = pinned_x = None
    words = []
    if x_kind == "euclid":
        direction = src.normal(n)
    elif x_kind == "l1":
        direction = src.dirichlet(n)
    elif x_kind == "linf":
        words.append(src.raw(n))
        pinned_x = src.integers(n)
    words.append(src.raw({None: 0, "euclid": 1, "l1": n + 1, "linf": 2}[x_kind] + n_blocks))
    pinned_p = src.integers(n_blocks)
    words.append(src.raw(2))
    return direction, pinned_x, np.concatenate(words), pinned_p


def _pinned(W, spec, k: int):
    """integers(k) of every row of raw words W at a layout position, and its acceptance."""
    if spec is None:
        return np.zeros(len(W), dtype=np.intp), True
    col, shift = spec
    return lemire(W[:, col] >> np.uint64(shift), k)


def _chunk_draws(keys, x_kind, n: int, n_blocks: int):
    """``_sample_draws`` of every stream state in ``keys`` (lipstab.streams.seeded), as arrays.

    Decoded from each stream's raw words at the positions `_Layout` gives;
    a sample with a slow-path normal or a Lemire rejection is redrawn on a
    generator, as is every l1 sample (dirichlet reads a varying number of
    words).
    """
    k = keys.shape[1]
    if x_kind == "l1":
        redraw = np.arange(k)
        directions, pinned_x = np.empty((k, n)), None
        # n signs, x's radius, p's face, pinned sign and radius
        words = np.empty((k, n + n_blocks + 3), dtype=np.uint64)
        pinned_p = np.empty(k, dtype=np.intp)
    else:
        layout = _Layout()
        normal_cols, x_spec, word_cols, p_spec = _sample_draws(layout, x_kind, n, n_blocks)
        W = raw_words(keys, layout.width)
        words = W[:, word_cols]
        directions = pinned_x = None
        ok = np.ones(k, dtype=bool)
        if normal_cols is not None:
            directions, fast = normals(W[:, normal_cols])
            ok &= fast.all(axis=1)
        if x_kind == "linf":
            pinned_x, accepted = _pinned(W, x_spec, n)
            ok &= accepted
        pinned_p, accepted = _pinned(W, p_spec, n_blocks)
        redraw = np.flatnonzero(~(ok & accepted))
    for row, rng in zip(redraw, generators(keys[:, redraw])):
        direction, px, words[row], pinned_p[row] = _sample_draws(_Stream(rng), x_kind, n, n_blocks)
        if direction is not None:
            directions[row] = direction
        if px is not None:
            pinned_x[row] = px
    return directions, pinned_x, words, pinned_p


def _chunk_points(keys, radius: float, anchor: np.ndarray, x_kind, n_blocks: int):
    """The (x, p) samples of every stream state in ``keys``, as the rows of (X, P)."""
    n = len(anchor)
    directions, pinned_x, words, pinned_p = _chunk_draws(keys, x_kind, n, n_blocks)
    nx = words.shape[1] - n_blocks - 2  # x's uniform words
    U = (words >> np.uint64(11)) * 2.0 ** -53  # numpy's uniform(0, 1) of each word
    P = _radial_factors(radius, U[:, -1], n_blocks) * _face_points(
        U[:, nx:nx + n_blocks], pinned_p, U[:, nx + n_blocks])
    if x_kind is None:
        return np.repeat(anchor[None, :], len(words), axis=0), P
    if x_kind == "euclid":
        # row-wise dot products: np.linalg.norm's own sum on every row
        G = directions
        nrm = np.sqrt((G[:, None, :] @ G[:, :, None])[:, 0, 0])
        big = nrm > 1e-12
        dx = G / np.where(big, nrm, 1.0)[:, None]
        dx[~big] = np.eye(n)[0]
    elif x_kind == "l1":
        dx = directions * np.where(U[:, :n] < 0.5, -1.0, 1.0)
    else:
        dx = _face_points(U[:, :n], pinned_x, U[:, n])
    return anchor + _radial_factors(radius, U[:, nx - 1], n) * dx, P


def empirical_lip(system: LinearSystem, partition: BlockPartition, anchor,
                  cfg: SamplingConfig = SamplingConfig(), notes=()) -> EstimateReport:
    """Sampled sup of the distance quotient at each ladder radius.

    The estimate is the maximum quotient at the smallest radius.  If
    lip_bound's regime at the anchor is SSCFails, the bound is +inf by the
    Lipschitz-like characterization and the report says so immediately.
    """
    validated(system, partition)
    anchor = _require_anchor(system, anchor, FEAS_TOL)
    return _sampled(system, partition, anchor, cfg, lip_bound(system, anchor).regime, notes)


def _sampled(system: LinearSystem, partition: BlockPartition, anchor: np.ndarray,
             cfg: SamplingConfig, regime: str, notes) -> EstimateReport:
    """empirical_lip's report, given lip_bound's regime at the checked anchor."""
    if regime == REGIME_SSC_FAILS:
        stats = tuple(
            RadiusStats(r, np.inf, 0, 0, -1) for r in cfg.radii
        )
        return EstimateReport(stats, np.inf, tuple(notes) + ("ssc fails: bound is infinite",))

    A = system.coefficient_matrix()
    b = system.rhs_vector()
    assign = block_assignment(system, partition)
    n_blocks = len(partition.block_labels)
    x_kind = system.norm.kind if cfg.perturb_anchor else None
    # rows sorted by block, so each block's residual sup is one reduceat segment
    order = np.argsort(assign, kind="stable")
    starts = np.searchsorted(assign[order], np.arange(n_blocks))
    # the chunk's (samples x rows) and (samples x blocks) arrays stay near
    # _CHUNK_BYTES; the size depends on the shape only, so reruns repeat
    chunk = max(1, _CHUNK_BYTES // (8 * (A.shape[0] + n_blocks)))
    span = chunk * max(1, _SEEDED // chunk)  # samples whose states are seeded together

    stats = []
    for r_idx, radius in enumerate(cfg.radii):
        quotients = np.empty(cfg.samples_per_radius)
        zoz = 0
        for lo in range(0, cfg.samples_per_radius, chunk):
            if lo % span == 0:
                keys = seeded((cfg.seed, r_idx), range(lo, min(lo + span, cfg.samples_per_radius)))
            X, P = _chunk_points(keys[:, lo % span:lo % span + chunk], radius, anchor,
                                 x_kind, n_blocks)
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
    # one lip_bound decides the regime for every partition: it reads C(0) only
    report = lip_bound(system, anchor)
    anchor = _require_anchor(system, anchor, FEAS_TOL)
    lip = report.bound
    for name, part in named:
        validated(system, part)
        entries.append((name, _sampled(system, part, anchor, cfg, report.regime, ())))
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
