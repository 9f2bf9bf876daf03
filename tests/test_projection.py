import ast
from pathlib import Path

import numpy as np
import pytest
from scipy.optimize import minimize

from conftest import random_ssc_system
from lipstab.errors import InfeasibleRegionError, InternalCheckError
from lipstab.norms import NormSpec
from lipstab.solvers import projection
from lipstab.solvers.projection import project_polyhedron
from lipstab.solvers.simplex import StatusKind, lp_solve

BOX_A = np.array([[1.0, 0.0], [-1.0, 0.0], [0.0, 1.0], [0.0, -1.0]])
BOX_B = np.ones(4)


def grid_refine_distance(x, A, b, lo=-3.0, hi=3.0, rounds=10, pts=41):
    """Brute-force oracle: shrinking-grid search of the nearest feasible point."""
    center = np.full(len(x), (lo + hi) / 2.0)
    width = hi - lo
    best = None
    for _ in range(rounds):
        axes = [np.linspace(c - width / 2, c + width / 2, pts) for c in center]
        grid = np.stack(np.meshgrid(*axes, indexing="ij"), axis=-1).reshape(-1, len(x))
        feas = (grid @ A.T <= b + 1e-12).all(axis=1)
        cand = grid[feas]
        d = np.linalg.norm(cand - x, axis=1)
        k = int(np.argmin(d))
        best = d[k]
        center = cand[k]
        width /= pts / 4.0
    return float(best)


def test_halfspace():
    d, y = project_polyhedron(np.array([2.0, 0.0]), np.array([[1.0, 0.0]]), np.array([1.0]))
    assert d == pytest.approx(1.0, abs=1e-12)
    assert np.allclose(y, [1.0, 0.0])


def test_box_corner_distance_matches_grid_oracle():
    x = np.array([2.0, 2.0])
    oracle = grid_refine_distance(x, BOX_A, BOX_B)
    assert oracle == pytest.approx(np.sqrt(2.0), abs=1e-6)  # frozen from the oracle
    d, y = project_polyhedron(x, BOX_A, BOX_B)
    assert d == pytest.approx(np.sqrt(2.0), abs=1e-10)
    assert np.allclose(y, [1.0, 1.0], atol=1e-9)


def test_feasible_point_is_identity():
    x = np.array([0.25, -0.75])
    d, y = project_polyhedron(x, BOX_A, BOX_B)
    assert d == 0.0
    assert np.array_equal(y, x)


def test_empty_region_raises():
    with pytest.raises(InfeasibleRegionError):
        project_polyhedron(np.array([5.0]), np.array([[1.0], [-1.0]]), np.array([0.0, -1.0]))


def test_zero_row_vacuous_and_empty():
    d, _ = project_polyhedron(np.array([2.0]), np.array([[0.0], [1.0]]), np.array([1.0, 1.0]))
    assert d == pytest.approx(1.0)
    with pytest.raises(InfeasibleRegionError):
        project_polyhedron(np.array([2.0]), np.array([[0.0]]), np.array([-1.0]))
    # entries whose squares underflow count as zero; 1e-150 is a real row
    with pytest.raises(InfeasibleRegionError):
        project_polyhedron(np.array([2.0]), np.array([[1e-200]]), np.array([-1.0]))
    d, y = project_polyhedron(np.array([2.0]), np.array([[1e-150]]), np.array([1e-150]))
    assert d == pytest.approx(1.0, abs=1e-12) and y == pytest.approx([1.0], abs=1e-12)


def test_empty_system_is_the_whole_space():
    x = np.array([2.0, -3.0])
    d, y = project_polyhedron(x, np.zeros((0, 2)), np.zeros(0))
    assert d == 0.0
    assert np.array_equal(y, x)


def test_shapes_are_checked():
    x = np.array([2.0, 0.0])
    with pytest.raises(ValueError):
        project_polyhedron(x, BOX_A, BOX_B[:, None])  # b must be 1-D
    with pytest.raises(ValueError):
        project_polyhedron(x, BOX_A, BOX_B[:3])  # one rhs per row
    with pytest.raises(ValueError):
        project_polyhedron(np.zeros(3), BOX_A, BOX_B)  # x has A's column count
    with pytest.raises(ValueError):
        project_polyhedron(x, BOX_A[0], BOX_B[:1])  # A must be 2-D


def test_entering_row_has_the_largest_normalized_residual(monkeypatch):
    # At x = (3, 3) rows 0, 1 and 2 have residual / ||a_t|| = 2 and row 3 has
    # the largest plain residual, 4.5, but only 1.5 after the division.  Row 0
    # enters first (lowest index among the ties), then row 1 at y = (3, 1);
    # the last working set is the one the KKT check recomputes the point from.
    A = np.array([[0.0, 1.0], [2.0, 0.0], [1.0, 0.0], [3.0, 0.0]])
    b = np.array([1.0, 2.0, 1.0, 4.5])
    sets = []
    real = projection._working_rows

    def spy(Ap, W):
        sets.append(sorted(int(t) for t in W[0] if t < len(Ap) - 1))
        return real(Ap, W)
    monkeypatch.setattr(projection, "_working_rows", spy)
    d, y = project_polyhedron(np.array([3.0, 3.0]), A, b)
    assert sets == [[], [0], [0, 1]]
    assert d == pytest.approx(np.sqrt(8.0), abs=1e-12)
    assert np.allclose(y, [1.0, 1.0], atol=1e-12)


# x <= -1 with -x <= -1; a zero row with negative rhs; a row twice and its
# negation, with conflicting right-hand sides
EMPTY = [
    (np.array([[1.0], [-1.0]]), np.array([-1.0, -1.0])),
    (np.array([[0.0, 0.0], [1.0, 0.0]]), np.array([-1.0, 1.0])),
    (np.array([[1.0, 2.0], [1.0, 2.0], [-1.0, -2.0]]), np.array([0.0, 0.0, -1.0])),
]


@pytest.mark.parametrize("case", range(len(EMPTY)))
def test_empty_regions_single_and_batch(rng, case):
    A, b = EMPTY[case]
    X = rng.normal(size=(6, A.shape[1])) * 3.0
    # every other point gets a consistent rhs, so the batch mixes both outcomes
    B = np.where(np.arange(6)[:, None] % 2, b, np.abs(b))
    D, Y = project_polyhedron(X, A, B)
    for s in range(6):
        empty = lp_solve(np.zeros(A.shape[1]), A, B[s])[0].kind is StatusKind.INFEASIBLE
        assert empty == bool(s % 2)
        assert np.isinf(D[s]) == empty
        assert np.isnan(Y[s]).all() == empty
        if empty:
            with pytest.raises(InfeasibleRegionError):
                project_polyhedron(X[s], A, B[s])
        else:
            d, y = project_polyhedron(X[s], A, B[s])
            assert d == pytest.approx(D[s], rel=1e-12, abs=1e-15)
            assert (A @ y - B[s]).max() <= 1e-12


def test_emptiness_needs_a_checked_certificate(monkeypatch):
    # Rows x1 <= 1, x2 <= 1 are independent; if the second were taken for a
    # dependent row, u = (0, 1) would claim emptiness with A^T u = (0, 1).
    monkeypatch.setattr(projection, "_DEPENDENT", 10.0)
    with pytest.raises(InternalCheckError, match="certificate"):
        project_polyhedron(np.array([2.0, 2.0]), np.eye(2), np.ones(2))


def test_farkas_check_rejects_non_certificates():
    x_pair = np.array([[1.0], [-1.0]]), np.array([-1.0, -1.0])  # x <= -1, -x <= -1
    projection._check_farkas(np.array([1.0, 1.0]), *x_pair)
    # a rounding-level negative entry counts as 0
    projection._check_farkas(np.array([1.0, 1.0, -1e-17]), np.array([[1.0], [-1.0], [1.0]]),
                             np.array([-1.0, -1.0, 5.0]))
    for u, A, b in (
            (np.array([1.0, 1.0]), x_pair[0], np.array([1.0, 1.0])),  # b . u >= 0
            (np.array([1.0, 0.5]), *x_pair),  # A^T u != 0
            # u < 0, although its positive part alone would be a certificate
            (np.array([1.0, 1.0, -0.5]), np.array([[1.0], [-1.0], [1.0]]),
             np.array([-1.0, -1.0, 5.0]))):
        with pytest.raises(InternalCheckError, match="certificate"):
            projection._check_farkas(u, A, b)


@pytest.mark.parametrize("x, rows, shift, miss", [
    ([0.5, 2.0], [2, 0], 0.0, "multiplier"),  # x1 <= 1 is not binding at (0.5, 1)
    ([2.0, 2.0], [0], 0.0, "row"),  # x2 <= 1 is left out of the working set
    ([2.0, 2.0], [0, 2], -1e-6, "tightness"),  # the Gram solve overshoots
])
def test_kkt_check_catches_each_violation(monkeypatch, x, rows, shift, miss):
    real = projection._working_rows

    def shifted(Ap, W):
        AW, G = real(Ap, W)
        return AW, G + shift * np.eye(W.shape[1])
    monkeypatch.setattr(projection, "_working_rows", shifted)
    X = np.array([x])
    W = np.array([rows + [len(BOX_B)] * (2 - len(rows))])  # free slots hold row m
    with pytest.raises(InternalCheckError, match="KKT"):
        projection._checked_points(X, BOX_A, BOX_B[None], W, np.zeros(1, dtype=bool))
    monkeypatch.setattr(projection, "_working_rows", real)
    if miss == "tightness":  # the same working set passes without the shift
        d, _ = projection._checked_points(X, BOX_A, BOX_B[None], W, np.zeros(1, dtype=bool))
        assert d[0] == pytest.approx(np.sqrt(2.0), abs=1e-12)


def test_kkt_check_rejects_perturbed_points(monkeypatch):
    real = projection._working_rows

    def perturbed(An, W):
        AW, G = real(An, W)
        return AW, G + 1e-6 * np.eye(W.shape[1])
    monkeypatch.setattr(projection, "_working_rows", perturbed)
    with pytest.raises(InternalCheckError, match="KKT"):
        project_polyhedron(np.array([2.0, 2.0]), BOX_A, BOX_B)


def test_kkt_check_judges_each_row_at_its_own_scale():
    # 0 projected onto {v : A v >= 1} for 8 rows in R^20 scaled by 10^U(-3, 3):
    # a tightness residual of 3e-11 on a row of norm 1e3 is rounding there;
    # an absolute test failed 17 of these 200
    for seed in range(200):
        rng = np.random.default_rng(seed)
        A = rng.normal(size=(8, 20)) * 10.0 ** rng.uniform(-3.0, 3.0, size=(8, 1))
        d, v = project_polyhedron(np.zeros(20), -A, -np.ones(8))
        assert np.isfinite(d) and (A @ v >= 1.0 - 1e-9 * np.abs(A) @ np.abs(v)).all()


@pytest.mark.parametrize("kind", ["l1", "linf"])
def test_polyhedral_norms_solve_one_lp(monkeypatch, kind):
    calls = []
    real = projection.lp_solve

    def spy(*args, **kwargs):
        calls.append(args)
        return real(*args, **kwargs)
    monkeypatch.setattr(projection, "lp_solve", spy)
    d, _ = project_polyhedron(np.array([2.0, 2.0]), BOX_A, BOX_B, NormSpec(kind))
    assert d == pytest.approx(2.0 if kind == "l1" else 1.0, abs=1e-9)
    assert len(calls) == 1
    A, b = EMPTY[0]
    with pytest.raises(InfeasibleRegionError):
        project_polyhedron(np.array([5.0]), A, b, NormSpec(kind))
    assert len(calls) == 2


def test_projection_is_independent_of_the_ratio_routes():
    # criterion 3 compares the ratio formula with this projection, so the
    # projection must not reach the min-norm or ratio solvers
    tree = ast.parse(Path(projection.__file__).read_text(encoding="utf-8"))
    names = set()
    for node in ast.walk(tree):
        if isinstance(node, ast.Import):
            names.update(alias.name for alias in node.names)
        elif isinstance(node, ast.ImportFrom):
            names.add(node.module or "")
            names.update(alias.name for alias in node.names)
    assert not {part for name in names for part in name.split(".")} & {"minnorm", "ratio"}


def test_l1_linf_box_distances():
    x = np.array([2.0, 2.0])
    d1, _ = project_polyhedron(x, BOX_A, BOX_B, NormSpec("l1"))
    assert d1 == pytest.approx(2.0, abs=1e-9)  # |2-1| + |2-1|
    dinf, _ = project_polyhedron(x, BOX_A, BOX_B, NormSpec("linf"))
    assert dinf == pytest.approx(1.0, abs=1e-9)  # max(|2-1|, |2-1|)


def test_random_instances_match_slsqp(rng):
    for _ in range(60):
        system, xhat = random_ssc_system(rng, n=int(rng.integers(2, 5)),
                                         m=int(rng.integers(3, 20)))
        A = system.coefficient_matrix()
        b = system.rhs_vector()
        x = xhat + rng.normal(size=system.dimension) * 2.0
        d, y = project_polyhedron(x, A, b)
        assert (A @ y - b).max() <= 1e-7
        ref = minimize(
            lambda z: ((z - x) ** 2).sum(), xhat, jac=lambda z: 2 * (z - x),
            constraints=[{"type": "ineq", "fun": lambda z, i=i: b[i] - A[i] @ z,
                          "jac": lambda z, i=i: -A[i]} for i in range(len(b))],
            method="SLSQP", options={"maxiter": 500, "ftol": 1e-16})
        oracle = float(np.sqrt(max(ref.fun, 0.0)))
        assert d == pytest.approx(oracle, rel=1e-6, abs=1e-7)
