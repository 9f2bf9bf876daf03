import numpy as np
import pytest
from scipy.optimize import linprog

from lipstab.solvers.simplex import StatusKind, lp_solve, lp_solve_nonneg


class TestContract:
    def test_min_x_above_one(self):
        status, x = lp_solve([1.0], [[-1.0]], [-1.0])
        assert status.kind is StatusKind.OPTIMAL
        assert x[0] == pytest.approx(1.0, abs=1e-9)

    def test_infeasible_pair(self):
        status, x = lp_solve([1.0], [[-1.0], [1.0]], [-1.0, 0.0])
        assert status.kind is StatusKind.INFEASIBLE
        assert x is None
        # Farkas certificate for the <= rows
        y = status.certificate
        assert y is not None and (y >= -1e-9).all()

    def test_unbounded_ray(self):
        status, x = lp_solve([-1.0], [[-1.0]], [0.0])
        assert status.kind is StatusKind.UNBOUNDED
        ray = status.certificate
        assert ray is not None and ray[0] > 0  # objective -x decreases along it

    def test_iteration_cap(self):
        status, _ = lp_solve([1.0, 1.0], [[-1.0, -2.0], [-2.0, -1.0]], [-1.0, -1.0],
                             maxiter=1)
        assert status.kind is StatusKind.ITER_LIMIT

    @pytest.mark.parametrize("c", [1e6, 1e7])
    def test_scaled_free_pair_is_optimal(self, c):
        # the mirror column of a basic split free variable prices at the
        # rounding level of pi @ A, which grows with c
        status, x = lp_solve([0.0, 0.0, 1.0],
                             [[-19.0 * c, 0.0, -1.0], [20.0 * c, 0.0, -1.0]], [c, c])
        assert status.kind is StatusKind.OPTIMAL
        assert x[2] == pytest.approx(-c, rel=1e-12)

    def test_equality_constraints(self):
        status, x = lp_solve([1.0, 0.0], [[0.0, 1.0]], [1.5], [[1.0, 1.0]], [2.0])
        assert status.kind is StatusKind.OPTIMAL
        assert x[0] + x[1] == pytest.approx(2.0, abs=1e-9)
        assert x[0] == pytest.approx(0.5, abs=1e-9)


def _split_rows(A, b, rels):
    """<=, >= and == rows as (A_ub, b_ub, A_eq, b_eq), None for an empty block."""
    rels = np.asarray(rels)
    sign = np.where(rels == ">=", -1.0, 1.0)
    ub, eq = rels != "==", rels == "=="
    A_ub, b_ub = (sign[:, None] * A)[ub], (sign * b)[ub]
    A_eq, b_eq = A[eq], b[eq]
    return (A_ub if ub.any() else None, b_ub if ub.any() else None,
            A_eq if eq.any() else None, b_eq if eq.any() else None)


def test_random_instances_match_scipy(rng):
    for _ in range(250):
        n = int(rng.integers(1, 6))
        m = int(rng.integers(1, 12))
        A = rng.normal(size=(m, n))
        b = rng.normal(size=m)
        c = rng.normal(size=n)
        rels = list(rng.choice(["<=", ">=", "=="], size=m, p=[0.6, 0.3, 0.1]))
        A_ub, b_ub, A_eq, b_eq = _split_rows(A, b, rels)
        status, x = lp_solve(c, A_ub, b_ub, A_eq, b_eq)
        ref = linprog(c, A_ub=A_ub, b_ub=b_ub, A_eq=A_eq, b_eq=b_eq,
                      bounds=[(None, None)] * len(c), method="highs")
        if ref.status == 0:
            assert status.kind is StatusKind.OPTIMAL
            assert c @ x == pytest.approx(ref.fun, rel=1e-7, abs=1e-7)
        elif ref.status == 2:
            assert status.kind is StatusKind.INFEASIBLE
        elif ref.status == 3:
            assert status.kind is StatusKind.UNBOUNDED


def test_random_nonneg_instances_match_scipy(rng):
    for _ in range(150):
        n = int(rng.integers(1, 7))
        mu = int(rng.integers(0, 6))
        me = int(rng.integers(0, 4))
        Aub = rng.normal(size=(mu, n))
        bub = rng.normal(size=mu)
        Aeq = rng.normal(size=(me, n))
        beq = rng.normal(size=me)
        c = rng.normal(size=n)
        status, w = lp_solve_nonneg(c, Aub if mu else None, bub if mu else None,
                                    Aeq if me else None, beq if me else None)
        ref = linprog(c, A_ub=Aub if mu else None, b_ub=bub if mu else None,
                      A_eq=Aeq if me else None, b_eq=beq if me else None,
                      bounds=[(0, None)] * n, method="highs")
        if ref.status == 0:
            assert status.kind is StatusKind.OPTIMAL
            assert w.min() > -1e-9
            assert c @ w == pytest.approx(ref.fun, rel=1e-7, abs=1e-7)
            # the duals are feasible and close the gap
            y = status.certificate
            A = np.vstack([Aub, Aeq])
            assert y.shape == (mu + me,) and (y[:mu] <= 1e-9).all()
            assert (c - y @ A >= -1e-9).all()
            assert y @ np.concatenate([bub, beq]) == pytest.approx(ref.fun, rel=1e-7, abs=1e-7)
        elif ref.status == 2:
            assert status.kind is StatusKind.INFEASIBLE
        elif ref.status == 3:
            assert status.kind is StatusKind.UNBOUNDED


def _assert_farkas(y, A_ub, b_ub, A_eq, b_eq, free):
    """y >= 0 on the <= rows, y^T A = 0 (free x) or >= 0 (x >= 0), y.b < 0."""
    A = np.vstack([A_ub, A_eq])
    b = np.concatenate([b_ub, b_eq])
    tol = 1e-7 * (1 + np.abs(y).sum())
    assert y.shape == b.shape
    assert (y[:len(b_ub)] >= -1e-8).all()
    if free:
        assert np.abs(y @ A).max() == pytest.approx(0.0, abs=tol)
    else:
        assert (y @ A >= -tol).all()
    assert y @ b < 0.0


def test_farkas_certificate_properties(rng):
    seen = 0
    for _ in range(300):
        n = int(rng.integers(1, 5))
        m = int(rng.integers(2, 10))
        A = rng.normal(size=(m, n))
        b = rng.normal(size=m) - 1.0
        status, _ = lp_solve(np.zeros(n), A, b)
        if status.kind is not StatusKind.INFEASIBLE:
            continue
        seen += 1
        y = status.certificate
        assert (y >= -1e-8).all()
        assert np.abs(y @ A).max() == pytest.approx(0.0, abs=1e-7 * (1 + np.abs(y).sum()))
        assert y @ b < 1e-9
    assert seen > 5

    # w <= 0.5 and w = 1 over w >= 0: y = (1, -1) has y.b = -0.5
    status, _ = lp_solve_nonneg([0.0], [[1.0]], [0.5], [[1.0]], [1.0])
    assert status.kind is StatusKind.INFEASIBLE
    _assert_farkas(status.certificate, [[1.0]], [0.5], [[1.0]], [1.0], free=False)

    # rows with equalities, for free and for nonnegative variables
    for solve, free in ((lp_solve, True), (lp_solve_nonneg, False)):
        seen = 0
        for _ in range(300):
            n = int(rng.integers(1, 5))
            m_ub = int(rng.integers(1, 8))
            m_eq = int(rng.integers(1, 4))
            A_ub = rng.normal(size=(m_ub, n))
            b_ub = rng.normal(size=m_ub) - 1.0
            A_eq = rng.normal(size=(m_eq, n))
            b_eq = rng.normal(size=m_eq)
            status, _ = solve(np.zeros(n), A_ub, b_ub, A_eq, b_eq)
            if status.kind is not StatusKind.INFEASIBLE:
                continue
            seen += 1
            _assert_farkas(status.certificate, A_ub, b_ub, A_eq, b_eq, free)
        assert seen > 5
