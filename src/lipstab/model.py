"""Data model for block-perturbed linear inequality systems.

A system is a finite family of inequalities <a_t, x> <= b_t indexed by string
labels.  A partition groups the labels into blocks; a perturbation adds one
scalar per block to the right-hand sides.  All objects are immutable after
construction; construction is permissive and `validate` reports every
structural violation instead of repairing anything.
"""
from __future__ import annotations

from dataclasses import dataclass, field

import numpy as np

from .errors import ValidationError
from .norms import NormSpec

#: Absolute tolerance for feasibility comparisons (shared across modules).
FEAS_TOL = 1e-9


@dataclass(frozen=True)
class LinearSystem:
    """Nominal system {<a_t, x> <= b_t, t in T} over R^dimension.

    ``rows`` is an ordered tuple of (label, coefficient vector, rhs) triples.
    Zero coefficient rows are kept; they encode 0 <= b_t + p_j.
    """

    dimension: int
    rows: tuple
    norm: NormSpec = field(default_factory=NormSpec)

    def __post_init__(self):
        frozen = []
        for label, a, b in self.rows:
            arr = np.atleast_1d(np.asarray(a, dtype=float))
            arr.setflags(write=False)
            frozen.append((str(label), arr, float(b)))
        object.__setattr__(self, "rows", tuple(frozen))

    @property
    def labels(self) -> tuple:
        return tuple(label for label, _, _ in self.rows)

    def coefficient_matrix(self) -> np.ndarray:
        """Stacked coefficient rows; requires a validated (rectangular) system."""
        if not self.rows:
            return np.zeros((0, self.dimension))
        return np.vstack([a for _, a, _ in self.rows])

    def rhs_vector(self) -> np.ndarray:
        return np.array([b for _, _, b in self.rows], dtype=float)

    def residuals(self, x) -> np.ndarray:
        """<a_t, x> - b_t for every row, in row order."""
        x = np.asarray(x, dtype=float)
        return self.coefficient_matrix() @ x - self.rhs_vector()

    def is_feasible(self, x, tol: float = FEAS_TOL) -> bool:
        if not self.rows:
            return True
        return bool(self.residuals(x).max() <= tol)

    def subsystem(self, labels) -> "LinearSystem":
        keep = set(labels)
        return LinearSystem(
            self.dimension,
            tuple(r for r in self.rows if r[0] in keep),
            self.norm,
        )


@dataclass(frozen=True)
class BlockPartition:
    """Partition of the label set into named blocks T_j."""

    blocks: tuple  # of (block_label, tuple-of-row-labels)

    def __post_init__(self):
        frozen = tuple(
            (str(j), tuple(str(t) for t in members)) for j, members in self.blocks
        )
        object.__setattr__(self, "blocks", frozen)

    @property
    def block_labels(self) -> tuple:
        return tuple(j for j, _ in self.blocks)

    def block_of(self) -> dict:
        """Maps each row label to the index of its block."""
        out = {}
        for idx, (_, members) in enumerate(self.blocks):
            for t in members:
                out[t] = idx
        return out

    @staticmethod
    def minimum(labels) -> "BlockPartition":
        """One block holding every label (constant perturbations)."""
        return BlockPartition((("all", tuple(labels)),))

    @staticmethod
    def maximum(labels) -> "BlockPartition":
        """Singleton blocks (independent per-row perturbations)."""
        return BlockPartition(tuple((t, (t,)) for t in labels))


@dataclass(frozen=True)
class Perturbation:
    """One scalar per block, measured in the sup-norm."""

    values: tuple

    def __post_init__(self):
        object.__setattr__(self, "values", tuple(float(v) for v in self.values))

    @property
    def sup_norm(self) -> float:
        return max((abs(v) for v in self.values), default=0.0)

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
        coeff = np.asarray(self.coefficients, dtype=float)
        offs = np.asarray(self.offsets, dtype=float)
        coeff.setflags(write=False)
        offs.setflags(write=False)
        object.__setattr__(self, "coefficients", coeff)
        object.__setattr__(self, "offsets", offs)
        object.__setattr__(self, "labels", tuple(str(t) for t in self.labels))

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
    if system.dimension < 1:
        issues.append(f"dimension must be positive, got {system.dimension}")
    seen = set()
    for label, a, b in system.rows:
        if label in seen:
            issues.append(f"duplicate row label {label!r}")
        seen.add(label)
        if a.ndim != 1 or a.shape[0] != system.dimension:
            issues.append(
                f"row {label!r} has {a.shape[0] if a.ndim == 1 else a.shape} entries "
                f"in a {system.dimension}-dimensional system"
            )
        elif not np.all(np.isfinite(a)):
            issues.append(f"row {label!r} has non-finite coefficients")
        if not np.isfinite(b):
            issues.append(f"row {label!r} has non-finite rhs")
    if not system.rows:
        issues.append("system has no rows")

    if partition is not None:
        labels = set(seen)
        covered = []
        block_seen = set()
        for j, members in partition.blocks:
            if j in block_seen:
                issues.append(f"duplicate block label {j!r}")
            block_seen.add(j)
            if not members:
                issues.append(f"block {j!r} is empty")
            covered.extend(members)
        counts = {}
        for t in covered:
            counts[t] = counts.get(t, 0) + 1
        overlaps = sorted(t for t, c in counts.items() if c > 1)
        if overlaps:
            issues.append(f"labels appear in more than one block: {overlaps}")
        missing = sorted(labels - set(covered))
        if missing:
            issues.append(f"partition does not cover index set (missing {missing})")
        extra = sorted(set(covered) - labels)
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
    block_idx = partition.block_of()
    offsets = np.array(
        [b + p.values[block_idx[label]] for label, _, b in system.rows], dtype=float
    )
    return CharacteristicSet(system.coefficient_matrix(), offsets, system.labels)


def perturbed_system(
    system: LinearSystem, partition: BlockPartition, p: Perturbation
) -> LinearSystem:
    """The system sigma_J(p): rhs shifted by the block value of each row."""
    gens = characteristic_generators(system, partition, p)
    rows = tuple(
        (label, a, float(off))
        for (label, a, _), off in zip(system.rows, gens.offsets)
    )
    return LinearSystem(system.dimension, rows, system.norm)
