"""Data model for block-perturbed linear inequality systems.

A system is a finite family of inequalities <a_t, x> <= b_t indexed by string
labels.  A partition groups the labels into blocks; a perturbation adds one
scalar per block to the right-hand sides.  All objects are immutable after
construction.

A system is stored as three columns: its labels, one read-only (m, n) float
coefficient matrix and the read-only rhs vector.  Documents are parsed
straight into these columns, and the helpers here work on them; the row
triples, and the maximum partition's one-label blocks, are derived only
when something reads them.  Construction is permissive: rows of the wrong
length leave a system without a matrix, and only `validate` reports them,
along with every other structural violation, instead of repairing anything.
`validated` remembers an accepted verdict on the objects themselves, so each
system and partition is walked once.
"""
from __future__ import annotations

from collections import Counter
from dataclasses import dataclass
from functools import cached_property
from itertools import chain, compress, repeat

import numpy as np

from .errors import ValidationError
from .norms import NormSpec

#: Absolute tolerance for feasibility comparisons (shared across modules).
FEAS_TOL = 1e-9


class Immutable:
    """Attributes are set once, through __dict__, and never assigned again."""

    def __setattr__(self, name, value):
        raise AttributeError(f"{type(self).__name__} is immutable")

    def __delattr__(self, name):
        raise AttributeError(f"{type(self).__name__} is immutable")


def read_only(arr: np.ndarray) -> np.ndarray:
    arr.setflags(write=False)
    return arr


def coefficient_column(coeffs, dimension: int):
    """The coefficient vectors as one read-only (m, dimension) float matrix.

    One np.array call builds it when the vectors are rectangular.  When they
    do not form such a matrix (rows of other lengths, or dimension < 1),
    each becomes its own read-only float array instead, for `validate` to
    report.
    """
    if dimension >= 1 and len(coeffs):
        try:
            matrix = np.array(coeffs, dtype=float)
        except (TypeError, ValueError):
            matrix = None
        if matrix is not None and matrix.shape == (len(coeffs), dimension):
            return read_only(matrix)
    arrays = [np.array(a, dtype=float, ndmin=1) for a in coeffs]
    if not (dimension >= 1 and all(a.shape == (dimension,) for a in arrays)):
        return tuple(map(read_only, arrays))
    return read_only(np.array(arrays) if arrays else np.zeros((0, dimension)))


def row_columns(rows, dimension: int) -> tuple:
    """(labels, coefficients, rhs) columns of (label, vector, rhs) triples.

    Labels become strings, the coefficients `coefficient_column`'s matrix (or
    arrays) and the rhs one read-only float vector.
    """
    triples = tuple(rows)
    labels, coeffs, rhs = zip(*triples, strict=True) if triples else ((), (), ())
    return (tuple(map(str, labels)), coefficient_column(coeffs, dimension),
            read_only(np.array(list(map(float, rhs)))))


class LinearSystem(Immutable):
    """Nominal system {<a_t, x> <= b_t, t in T} over R^dimension.

    Stored as columns: ``labels``, the read-only (m, n) coefficient matrix
    and the read-only rhs vector.  ``rows``, the ordered (label, coefficient
    vector, rhs) triples, is derived from them when first read; each vector
    is a read-only view of the matrix and each rhs a float.  The constructor
    copies the caller's triples into the columns once, and `from_columns`
    takes columns as they are.  Zero coefficient rows are kept; they encode
    0 <= b_t + p_j.  Rows whose length is not ``dimension`` leave the system
    without a matrix: the coefficients are then one read-only array per row,
    ``rows`` holds those, and only `validate` reports them.
    """

    def __init__(self, dimension: int, rows, norm: NormSpec = NormSpec()):
        self._store(dimension, *row_columns(rows, dimension), norm)

    @classmethod
    def from_columns(cls, dimension: int, labels: tuple, coefficients, rhs: np.ndarray,
                     norm: NormSpec = NormSpec()) -> "LinearSystem":
        """A system over columns in stored form (see `row_columns`), shared, not copied."""
        system = object.__new__(cls)
        system._store(dimension, labels, coefficients, read_only(rhs), norm)
        return system

    def _store(self, dimension, labels, coefficients, rhs, norm):
        matrix = coefficients if isinstance(coefficients, np.ndarray) else None
        self.__dict__.update(dimension=dimension, norm=norm, _labels=labels,
                             _coefficients=coefficients, _matrix=matrix, _rhs=rhs,
                             _accepted=False)

    @cached_property
    def rows(self) -> tuple:
        # rows iterated from the read-only matrix are read-only views of it
        return tuple(zip(self._labels, self._coefficients, self._rhs.tolist()))

    @property
    def labels(self) -> tuple:
        return self._labels

    def coefficient_matrix(self) -> np.ndarray:
        """The system's own read-only (m, n) matrix; ValidationError if ragged."""
        if self._matrix is None:
            raise ValidationError(f"rows do not all have {self.dimension} entries")
        return self._matrix

    def rhs_vector(self) -> np.ndarray:
        return self._rhs

    def residuals(self, x) -> np.ndarray:
        """<a_t, x> - b_t for every row, in row order."""
        return self.coefficient_matrix() @ np.asarray(x, dtype=float) - self._rhs

    def subsystem(self, labels) -> "LinearSystem":
        """The rows whose labels are given, in row order, indexed from the columns."""
        keep = set(labels)
        mask = np.fromiter(map(keep.__contains__, self._labels), bool, len(self._labels))
        if self._matrix is not None:
            coeffs = read_only(self._matrix[mask])
        else:
            coeffs = tuple(compress(self._coefficients, mask))
        return LinearSystem.from_columns(self.dimension, tuple(compress(self._labels, mask)),
                                         coeffs, self._rhs[mask], self.norm)


class BlockPartition(Immutable):
    """Partition of the label set into named blocks T_j.

    ``blocks`` is the tuple of (block label, tuple of row labels) pairs.  It
    is stored as given, except by `maximum`, which stores the block labels
    alone (each block is the one row it is named after) and derives
    ``blocks`` when it is first read.
    """

    def __init__(self, blocks):
        blocks = tuple(blocks)
        names, members = zip(*blocks, strict=True) if blocks else ((), ())
        if not (set(map(type, blocks)) <= {tuple} and set(map(type, members)) <= {tuple}
                and set(map(type, chain(names, *members))) <= {str}):
            names = tuple(map(str, names))
            members = tuple(map(tuple, map(map, repeat(str), members)))
            blocks = tuple(zip(names, members))
        self.__dict__.update(blocks=blocks, _names=names, _members=members,
                             _accepted_for=None)

    @cached_property
    def blocks(self) -> tuple:
        return tuple(zip(self._names, zip(self._names)))

    @property
    def block_labels(self) -> tuple:
        return self._names

    def block_of(self) -> dict:
        """Maps each row label to the index of its block."""
        if self._members is None:
            return dict(zip(self._names, range(len(self._names))))
        return {t: idx for idx, members in enumerate(self._members) for t in members}

    @staticmethod
    def minimum(labels) -> "BlockPartition":
        """One block holding every label (constant perturbations)."""
        return BlockPartition((("all", tuple(labels)),))

    @staticmethod
    def maximum(labels) -> "BlockPartition":
        """Singleton blocks (independent per-row perturbations), one per label."""
        labels = tuple(labels)
        if not set(map(type, labels)) <= {str}:
            labels = tuple(map(str, labels))
        partition = object.__new__(BlockPartition)
        partition.__dict__.update(_names=labels, _members=None, _accepted_for=None)
        return partition


@dataclass(frozen=True)
class Perturbation:
    """One scalar per block, measured in the sup-norm."""

    values: tuple

    def __post_init__(self):
        object.__setattr__(self, "values", tuple(map(float, self.values)))

    @staticmethod
    def zero(partition: BlockPartition) -> "Perturbation":
        return Perturbation((0.0,) * len(partition.block_labels))


@dataclass(frozen=True)
class CharacteristicSet:
    """Generators (a_t, b_t + p_j) whose convex hull is C_J(p)."""

    coefficients: np.ndarray  # (m, n)
    offsets: np.ndarray  # (m,)
    labels: tuple

    def __post_init__(self):
        coeff = np.array(self.coefficients, dtype=float)
        offs = np.array(self.offsets, dtype=float)
        coeff.setflags(write=False)
        offs.setflags(write=False)
        object.__setattr__(self, "coefficients", coeff)
        object.__setattr__(self, "offsets", offs)
        object.__setattr__(self, "labels", tuple(map(str, self.labels)))

    def __len__(self) -> int:
        return len(self.labels)


@dataclass(frozen=True)
class ValidationReport:
    """Outcome of structural validation; accepted iff no issues."""

    issues: tuple

    @property
    def accepted(self) -> bool:
        return not self.issues

    def raise_if_rejected(self):
        if self.issues:
            raise ValidationError(self.issues)


def validate(system: LinearSystem, partition: BlockPartition | None = None) -> ValidationReport:
    """Checks every structural invariant of a system and optional partition.

    Violations are reported, never silently repaired.  The checks run on the
    columns; only a reported row or block is looked at on its own.
    """
    issues = []
    dim, labels, A = system.dimension, system.labels, system._matrix
    if dim < 1:
        issues.append(f"dimension must be positive, got {dim}")
    m = len(labels)
    known = set(labels)
    repeated = np.zeros(m, dtype=bool)
    if len(known) < m:  # every row but the first of each label repeats one
        first = dict(zip(labels[::-1], range(m - 1, -1, -1)))
        repeated[:] = True
        repeated[list(first.values())] = False
    coeffs = system._coefficients
    if A is not None:
        wrong_length, finite = np.zeros(m, dtype=bool), np.isfinite(A).all(axis=1)
    else:  # no matrix: some row's length is wrong, so check each row's array
        wrong_length = np.array([a.shape != (dim,) for a in coeffs], dtype=bool)
        finite = np.array([np.isfinite(a).all() for a in coeffs], dtype=bool)
    bad_rhs = ~np.isfinite(system.rhs_vector())
    for i in np.flatnonzero(repeated | wrong_length | ~finite | bad_rhs):
        label, a = labels[i], coeffs[i]
        if repeated[i]:
            issues.append(f"duplicate row label {label!r}")
        if wrong_length[i]:
            issues.append(f"row {label!r} has {a.shape[0] if a.ndim == 1 else a.shape} "
                          f"entries in a {dim}-dimensional system")
        elif not finite[i]:
            issues.append(f"row {label!r} has non-finite coefficients")
        if bad_rhs[i]:
            issues.append(f"row {label!r} has non-finite rhs")
    if not m:
        issues.append("system has no rows")

    if partition is not None:
        names, blocks = partition.block_labels, partition._members
        # every block's row labels, block after block; None is the maximum
        # partition, which may share the system's labels tuple
        members = names if blocks is None else tuple(chain.from_iterable(blocks))
        named = known if names is labels else set(names)
        empty = blocks is not None and not all(blocks)
        if len(named) < len(names) or empty:
            block_seen = set()
            for j, block in partition.blocks:
                if j in block_seen:
                    issues.append(f"duplicate block label {j!r}")
                block_seen.add(j)
                if not block:
                    issues.append(f"block {j!r} is empty")
        covered = known if members is labels else set(members)
        if len(covered) < len(members):
            counts = Counter(members)
            issues.append("labels appear in more than one block: "
                          f"{sorted(t for t, c in counts.items() if c > 1)}")
        if covered is not known and covered != known:
            missing = sorted(known - covered)
            if missing:
                issues.append(f"partition does not cover index set (missing {missing})")
            extra = sorted(covered - known)
            if extra:
                issues.append(f"partition references unknown labels {extra}")
    return ValidationReport(tuple(issues))


def validated(system: LinearSystem, partition: BlockPartition | None = None):
    """Raises ValidationError unless `validate` accepts the system and partition.

    An accepted verdict is remembered on the immutable objects: the system
    once, and the partition with the labels tuple of the system it was
    accepted with (held, so the identity test cannot meet a reused tuple).
    A later call on them walks nothing.
    """
    if system._accepted and (partition is None
                             or partition._accepted_for is system.labels):
        return
    validate(system, partition).raise_if_rejected()
    system.__dict__["_accepted"] = True
    if partition is not None:
        partition.__dict__["_accepted_for"] = system.labels


def check_perturbation(partition: BlockPartition, p: Perturbation):
    if len(p.values) != len(partition.block_labels):
        raise ValidationError(
            f"perturbation has {len(p.values)} values for {len(partition.block_labels)} blocks"
        )


def block_assignment(system: LinearSystem, partition: BlockPartition) -> np.ndarray:
    """Block index of each row, in row order."""
    block_idx = partition.block_of()
    return np.fromiter(map(block_idx.__getitem__, system.labels), int, len(system.labels))


def block_residual_sup(res: np.ndarray, assign: np.ndarray, n_blocks: int) -> np.ndarray:
    """Per-block suprema sup_{t in T_j} res_t for a residual vector."""
    out = np.full(n_blocks, -np.inf)
    np.maximum.at(out, assign, res)
    return out


def residual_inverse_distance(
    system: LinearSystem, partition: BlockPartition, p: Perturbation, x
) -> float:
    """Sup-norm distance from p to the set of parameters making x feasible.

    dist(p; F_J^{-1}(x)) = sup_j [ (sup_{t in T_j} <a_t, x> - b_t) - p_j ]_+.
    Always finite for finite systems.
    """
    validated(system, partition)
    check_perturbation(partition, p)
    res = system.residuals(x)
    assign = block_assignment(system, partition)
    sup = block_residual_sup(res, assign, len(partition.block_labels))
    return max(float((sup - np.array(p.values)).max()), 0.0)


def _perturbed_rhs(system: LinearSystem, partition: BlockPartition,
                   p: Perturbation) -> np.ndarray:
    """b_t + p_j for every row t, j its block."""
    validated(system, partition)
    check_perturbation(partition, p)
    return system.rhs_vector() + np.array(p.values)[block_assignment(system, partition)]


def characteristic_generators(
    system: LinearSystem, partition: BlockPartition, p: Perturbation
) -> CharacteristicSet:
    """One generator (a_t, b_t + p_j) per row, in row order."""
    offsets = _perturbed_rhs(system, partition, p)
    return CharacteristicSet(system.coefficient_matrix(), offsets, system.labels)


def perturbed_system(
    system: LinearSystem, partition: BlockPartition, p: Perturbation
) -> LinearSystem:
    """The system sigma_J(p): rhs shifted by the block value of each row.

    It shares the system's labels and read-only matrix.
    """
    return LinearSystem.from_columns(system.dimension, system.labels,
                                     system.coefficient_matrix(),
                                     _perturbed_rhs(system, partition, p), system.norm)
