"""Convex inequality systems f_j(x) <= p_j and their cut linearization.

Each supported function class is full-domain with a closed-form (or
LP-computable) Fenchel-Legendre conjugate, so every subgradient cut
(u, f*(u)) generated at a point lies exactly on the conjugate graph by
Fenchel-Young equality.  The linearized rows <u, x> <= f*(u) + p_j form
one block per convex inequality, which is where block perturbations come
from: one right-hand-side scalar moves a whole block at once.

The exact bound (`lip_bound_convex`) takes one cut per vertex of each
active function's subdifferential at the anchor and samples nothing.  The
`linearize` verb samples cuts around the anchor instead; a sampled cut is
dropped when its u lies within 1e-12 in max-norm of a cut kept earlier in
its block, so the first is kept.
"""
from __future__ import annotations

from dataclasses import dataclass

import numpy as np

from .errors import InfeasibleAnchorError, InfeasibleRegionError, NonConvergentError
from .model import BlockPartition, LinearSystem
from .norms import NormSpec, norm_value
from .solvers.projection import project_polyhedron
from .solvers.simplex import lp_solve_nonneg
from .stability import REGIME_SLATER, _anchor_vector, lip_bound
from .streams import normal_rows

FY_TOL = 1e-9
_MAX_KINK_COORDS = 16  # an l1 kink's subdifferential has 2^k vertices; k is capped here
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

    def subdifferential(self, x, tol):
        return self.c[None, :].copy()

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

    def subdifferential(self, x, tol):
        return self.subgradient(x)[None, :]

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
        return self.subdifferential(x, 0.0)[0]

    def subdifferential(self, x, tol):
        """The pieces within tol of the max at x, in piece order, repeats kept."""
        vals = self.pieces_c @ np.asarray(x, dtype=float) + self.pieces_d
        return self.pieces_c[vals >= vals.max() - tol]

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

    def subdifferential(self, x, tol):
        """Vertices of the subdifferential at x, z = x - shift, one per row.

        Values within tol tie: an l1 coordinate with 2 kappa |z_k| <= tol
        takes both signs, and every linf coordinate within tol of the max
        gives its signed unit vector.  At kappa ||z|| <= tol the dual ball,
        which holds 0, is stood for by the vertex 0, so SSC fails there.
        """
        z = np.asarray(x, dtype=float) - self.shift
        if self.kappa * norm_value(self.kind, z) <= tol:
            return np.zeros((1, z.shape[0]))
        if self.kind == "euclid":
            return (self.kappa * z / np.linalg.norm(z))[None, :]
        if self.kind == "l1":
            free = np.flatnonzero(2.0 * self.kappa * np.abs(z) <= tol)
            if len(free) > _MAX_KINK_COORDS:
                raise NonConvergentError(
                    f"l1 kink has 2^{len(free)} subgradient vertices, "
                    f"over the cap of 2^{_MAX_KINK_COORDS}")
            U = np.tile(self.kappa * np.sign(z), (2 ** len(free), 1))
            bits = (np.arange(2 ** len(free))[:, None] >> np.arange(len(free))) & 1
            U[:, free] = self.kappa * (1.0 - 2.0 * bits)
            return U
        a = np.abs(z)
        tied = np.flatnonzero(self.kappa * (a.max() - a) <= tol)
        U = np.zeros((len(tied), z.shape[0]))
        U[np.arange(len(tied)), tied] = self.kappa * np.sign(z[tied])
        return U

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


@dataclass(frozen=True)
class LinearizedSystem:
    system: LinearSystem
    partition: BlockPartition


@dataclass(frozen=True)
class ConvexLipReport:
    bound: float
    regime: str
    history: tuple


def _cut_points(anchor, cfg: CutConfig, block_idx: int, dimension: int,
                budget: int) -> np.ndarray:
    """Deterministic sample points, one per row: the anchor, then radius-ladder rings."""
    anchor = np.asarray(anchor, dtype=float)
    radii = np.asarray(cfg.radii, dtype=float)
    pts, count, i = [anchor[None, :]], 1, 0
    while count < budget + 1:
        stop = i + budget + 1 - count
        # point i draws from the stream default_rng((seed, 0, block, i))
        D = normal_rows((cfg.seed, 0, block_idx), range(i, stop), dimension)
        # row-wise dot products: np.linalg.norm's own sum on every row
        nrm = np.sqrt((D[:, None, :] @ D[:, :, None])[:, 0, 0])
        ok = nrm > 1e-12
        idx = np.arange(i, stop)[ok]
        pts.append(anchor + radii[idx % len(radii)][:, None] * D[ok] / nrm[ok, None])
        count, i = count + len(idx), stop
    return np.concatenate(pts)


def _kept(U) -> np.ndarray:
    """Mask of the cuts U (rows, in sample order) not within 1e-12 of a kept earlier one."""
    step = max(1, _NEAR_ENTRIES // (len(U) * U.shape[1]))
    first = np.ones(len(U), dtype=bool)
    for lo in range(0, len(U), step):
        near = np.abs(U[lo:lo + step, None, :] - U[None, :lo + step, :]).max(
            axis=2, initial=0.0) <= 1e-12
        earlier = np.tril(near, lo - 1)
        for i in lo + np.flatnonzero(earlier.any(axis=1)):
            first[i] = not (earlier[i - lo, :i] & first[:i]).any()
    return first


def linearize(fs, cfg: CutConfig, anchor, norm: NormSpec = NormSpec(),
              block_labels=None) -> LinearizedSystem:
    """Subgradient-cut linearization of {f_j(x) <= p_j} around the anchor.

    Every cut is exact on the conjugate graph: f*(u) is evaluated through
    Fenchel-Young equality at the sample point, never numerically
    conjugated.  A cut within 1e-12 in max-norm of one kept earlier in its
    block is dropped, so the first is kept.  Rows run block by block, then
    by sample index i (the anchor is 0), labelled (j=<block>, sample 0.<i>).
    Blocks are per function, so right-hand-side perturbations of the convex
    system are block perturbations of the linearization.
    """
    anchor = _anchor_vector(anchor, fs[0].dimension)
    names = list(map(str, range(len(fs))) if block_labels is None else block_labels)
    rows, members = [], []
    for j, f in enumerate(fs):
        pts = _cut_points(anchor, cfg, j, f.dimension, cfg.budget)
        cuts = [eval_sub(f, x) for x in pts]
        keep = np.flatnonzero(_kept(np.array([u for _, u in cuts])))
        labels = [f"(j={names[j]}, sample 0.{i})" for i in keep]
        rows += [(label, cuts[i][1], float(cuts[i][1] @ pts[i] - cuts[i][0]))
                 for label, i in zip(labels, keep)]
        members.append((names[j], tuple(labels)))
    return LinearizedSystem(LinearSystem(anchor.shape[0], tuple(rows), norm),
                            BlockPartition(tuple(members)))


def lip_bound_convex(fs, anchor, norm: NormSpec = NormSpec(),
                     tol: float = FY_TOL) -> ConvexLipReport:
    """Exact Lipschitzian bound of the convex system at a feasible anchor.

    By Fenchel-Young, <u, anchor> - f_j*(u) <= f_j(anchor) <= 0, with
    equality exactly on the subdifferential of an active f_j, so the slice
    of the characteristic set of the conjugate graphs is the hull of the
    active subdifferentials.  Each active f_j (f_j(anchor) >= -tol) gives a
    row <u, x> <= <u, anchor> - f_j(anchor) = f_j*(u) per vertex u, and the
    bound is `lip_bound` of those rows (history = (bound,)); no active
    function gives SlaterPoint with bound 0.  Closure adds no slice point:
    the conjugate domains of affine, max_affine and scaled_norm are compact,
    so their graphs' hull is closed, and a quadratic's f* grows
    quadratically, so on the slice every lambda u with lambda -> 0 goes to 0.
    """
    anchor = _anchor_vector(anchor, fs[0].dimension)
    values = [f.value(anchor) for f in fs]
    for j, v in enumerate(values):
        if v > tol:
            raise InfeasibleAnchorError(
                f"anchor violates convex inequality {j} by {v:g}")
    rows = []
    for j, (f, v) in enumerate(zip(fs, values)):
        if v < -tol:
            continue
        try:
            U = f.subdifferential(anchor, tol)
        except NonConvergentError as exc:
            raise NonConvergentError(f"convex inequality {j}: {exc}") from exc
        rows += [(f"(j={j}, vertex {k})", u, float(u @ anchor - v)) for k, u in enumerate(U)]
    if not rows:
        return ConvexLipReport(0.0, REGIME_SLATER, (0.0,))
    rep = lip_bound(LinearSystem(anchor.shape[0], tuple(rows), norm), anchor, tol)
    return ConvexLipReport(rep.bound, rep.regime, (rep.bound,))


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
