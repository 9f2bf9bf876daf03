import numpy as np
import pytest
from scipy.optimize import minimize

from conftest import random_ssc_system
from lipstab.errors import InfeasibleRegionError
from lipstab.norms import NormSpec
from lipstab.solvers import projection
from lipstab.solvers.projection import project_polyhedron

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


def test_tied_blocking_rows_add_the_lowest_index(monkeypatch):
    # From y = 0 toward x = (3, 0), rows 1 and 2 block at the same step 1/3.
    # Row 1 must join the working set first; row 2 joins at the next step.
    A = np.array([[0.0, 1.0], [1.0, 1.0], [1.0, -1.0]])
    b = np.array([5.0, 1.0, 1.0])
    sets = []
    real = projection._eqp_step

    def spy(x, A, b, work):
        sets.append([int(i) for i in work])
        return real(x, A, b, work)
    monkeypatch.setattr(projection, "_eqp_step", spy)
    d, y = project_polyhedron(np.array([3.0, 0.0]), A, b, start=np.zeros(2))
    assert sets == [[], [1], [1, 2]]
    assert d == pytest.approx(2.0, abs=1e-12)
    assert np.allclose(y, [1.0, 0.0], atol=1e-12)


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
        d, y = project_polyhedron(x, A, b, start=xhat)
        assert (A @ y - b).max() <= 1e-7
        ref = minimize(
            lambda z: ((z - x) ** 2).sum(), xhat, jac=lambda z: 2 * (z - x),
            constraints=[{"type": "ineq", "fun": lambda z, i=i: b[i] - A[i] @ z,
                          "jac": lambda z, i=i: -A[i]} for i in range(len(b))],
            method="SLSQP", options={"maxiter": 500, "ftol": 1e-16})
        oracle = float(np.sqrt(max(ref.fun, 0.0)))
        assert d == pytest.approx(oracle, rel=1e-6, abs=1e-7)
