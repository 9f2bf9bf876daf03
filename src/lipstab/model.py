"""Data model for block-perturbed linear inequality systems.

A system is a finite family of inequalities <a_t, x> <= b_t indexed by string
labels.  A partition groups the labels into blocks; a perturbation adds one
scalar per block to the right-hand sides.  All objects are immutable after
construction.  A system owns one read-only (m, n) coefficient matrix (its
rows are views of it), b and the labels, and the helpers here use those
arrays.  Construction is permissive: rows of the wrong length leave a system
without a matrix, and only `validate` reports them, along with every other
structural violation, instead of repairing anything.
"""
from __future__ import annotations

from collections import Counter
from dataclasses import dataclass, field
from itertools import chain, compress, repeat

import numpy as np

from .errors import ValidationError
from .norms import NormSpec

#: Absolute tolerance for feasibility comparisons (shared across modules).
FEAS_TOL = 1e-9


@dataclass(frozen=True)
class LinearSystem:
    """Nominal system {<a_t, x> <= b_t, t in T} over R^dimension.

    ``rows`` is an ordered tuple of (label, coefficient vector, rhs) triples.
    Zero coefficient rows are kept; they encode 0 <= b_t + p_j.  The
    coefficients are copied once into a read-only matrix that the system
    owns, and each row's vector is a view of it.  A row whose length is not
    ``dimension`` leaves the system without a matrix: its rows keep
    read-only copies, and only `validate` reports them.
    """

    dimension: int
    rows: tuple
    norm: NormSpec = field(default_factory=NormSpec)

    def __post_init__(self):
        dim = self.dimension
        triples = tuple(self.rows)
        labels, coeffs, rhs = zip(*triples, strict=True) if triples else ((), (), ())
        labels = tuple(map(str, labels))
        rhs = np.array(list(map(float, rhs)))
        matrix = _rectangular(coeffs, dim)
        if matrix is not None:
            coeffs = matrix
        else:  # ragged or odd rows: one array each, as validate expects
            coeffs = [np.array(a, dtype=float, ndmin=1) for a in coeffs]
            if dim >= 1 and all(a.shape == (dim,) for a in coeffs):
                matrix = coeffs = np.array(coeffs) if coeffs else np.zeros((0, dim))
        for arr in (rhs, *coeffs) if matrix is None else (rhs, matrix):
            arr.setflags(write=False)
        # rows iterated from the read-only matrix are read-only views of it
        self.__dict__.update(rows=tuple(zip(labels, coeffs, rhs.tolist())),
                             _labels=labels, _matrix=matrix, _rhs=rhs)

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
        keep = set(labels)
        return LinearSystem(
            self.dimension,
            tuple(compress(self.rows, map(keep.__contains__, self._labels))),
            self.norm,
        )


def _rectangular(coeffs, dim):
    """The coefficients as one new (m, dim) float array, or None if they are not."""
    if dim < 1 or not coeffs:
        return None
    try:
        matrix = np.array(coeffs, dtype=float)
    except (TypeError, ValueError):
        return None
    return matrix if matrix.shape == (len(coeffs), dim) else None


@dataclass(frozen=True)
class BlockPartition:
    """Partition of the label set into named blocks T_j."""

    blocks: tuple  # of (block_label, tuple-of-row-labels)

    def __post_init__(self):
        blocks = tuple(self.blocks)
        names, members = zip(*blocks, strict=True) if blocks else ((), ())
        if not (set(map(type, blocks)) <= {tuple} and set(map(type, members)) <= {tuple}
                and set(map(type, chain(names, *members))) <= {str}):
            names = tuple(map(str, names))
            members = tuple(map(tuple, map(map, repeat(str), members)))
            blocks = tuple(zip(names, members))
        # the two columns are stored beside the blocks for validate
        self.__dict__.update(blocks=blocks, _names=names, _members=members)

    @property
    def block_labels(self) -> tuple:
        return self._names

    def block_of(self) -> dict:
        """Maps each row label to the index of its block."""
        return {t: idx for idx, (_, members) in enumerate(self.blocks) for t in members}

    @staticmethod
    def minimum(labels) -> "BlockPartition":
        """One block holding every label (constant perturbations)."""
        return BlockPartition((("all", tuple(labels)),))

    @staticmethod
    def maximum(labels) -> "BlockPartition":
        """Singleton blocks (independent per-row perturbations)."""
        labels = tuple(labels)
        return BlockPartition(tuple(zip(labels, zip(labels))))


@dataclass(frozen=True)
class Perturbation:
    """One scalar per block, measured in the sup-norm."""

    values: tuple

    def __post_init__(self):
        object.__setattr__(self, "values", tuple(map(float, self.values)))

    @staticmethod
    def zero(partition: BlockPartition) -> "Perturbation":
        return Perturbation((0.0,) * len(partition.blocks))


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

    Violations are reported, never silently repaired.
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
    if A is not None:
        wrong_length, finite = np.zeros(m, dtype=bool), np.isfinite(A).all(axis=1)
    else:  # no matrix: some row's length is wrong, so check each row's array
        wrong_length = np.array([a.shape != (dim,) for _, a, _ in system.rows], dtype=bool)
        finite = np.array([np.isfinite(a).all() for _, a, _ in system.rows], dtype=bool)
    bad_rhs = ~np.isfinite(system.rhs_vector())
    for i in np.flatnonzero(repeated | wrong_length | ~finite | bad_rhs):
        label, a, _ = system.rows[i]
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
        names, members = partition._names, partition._members
        if len(set(names)) < len(names) or not all(members):
            block_seen = set()
            for j, block in partition.blocks:
                if j in block_seen:
                    issues.append(f"duplicate block label {j!r}")
                block_seen.add(j)
                if not block:
                    issues.append(f"block {j!r} is empty")
        covered = set(chain.from_iterable(members))
        if len(covered) < sum(map(len, members)):
            counts = Counter(chain.from_iterable(members))
            issues.append("labels appear in more than one block: "
                          f"{sorted(t for t, c in counts.items() if c > 1)}")
        if covered != known:
            missing = sorted(known - covered)
            if missing:
                issues.append(f"partition does not cover index set (missing {missing})")
            extra = sorted(covered - known)
            if extra:
                issues.append(f"partition references unknown labels {extra}")
    return ValidationReport(tuple(issues))


def validated(system: LinearSystem, partition: BlockPartition | None = None):
    validate(system, partition).raise_if_rejected()


def check_perturbation(partition: BlockPartition, p: Perturbation):
    if len(p.values) != len(partition.blocks):
        raise ValidationError(
            f"perturbation has {len(p.values)} values for {len(partition.blocks)} blocks"
        )


def block_assignment(system: LinearSystem, partition: BlockPartition) -> np.ndarray:
    """Block index of each row, in row order."""
    block_idx = partition.block_of()
    return np.array([block_idx[label] for label in system.labels], dtype=int)


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
    sup = block_residual_sup(res, assign, len(partition.blocks))
    return max(float((sup - np.array(p.values)).max()), 0.0)


def characteristic_generators(
    system: LinearSystem, partition: BlockPartition, p: Perturbation
) -> CharacteristicSet:
    """One generator (a_t, b_t + p_j) per row, in row order."""
    validated(system, partition)
    check_perturbation(partition, p)
    offsets = system.rhs_vector() + np.array(p.values)[block_assignment(system, partition)]
    return CharacteristicSet(system.coefficient_matrix(), offsets, system.labels)


def perturbed_system(
    system: LinearSystem, partition: BlockPartition, p: Perturbation
) -> LinearSystem:
    """The system sigma_J(p): rhs shifted by the block value of each row."""
    gens = characteristic_generators(system, partition, p)
    rows = tuple(zip(system.labels, gens.coefficients, gens.offsets.tolist()))
    return LinearSystem(system.dimension, rows, system.norm)
