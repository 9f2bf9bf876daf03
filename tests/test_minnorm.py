import os

import numpy as np
import pytest

from conftest import demo_truncation
from lipstab.model import CharacteristicSet, LinearSystem
from lipstab.norms import NormSpec
from lipstab.solvers.minnorm import min_norm_point, min_norm_sliced_hull
from lipstab.solvers.simplex import StatusKind
from lipstab.stability import lip_bound

CYCLE_HULL = os.path.join(os.path.dirname(__file__), "data", "wolfe_cycle_hull.txt")


def gens(coeffs, offsets):
    coeffs = np.atleast_2d(np.asarray(coeffs, dtype=float))
    return CharacteristicSet(coeffs, np.asarray(offsets, dtype=float),
                             tuple(str(i) for i in range(coeffs.shape[0])))


class TestMinNormPoint:
    def test_single_point(self):
        value, u, w, kkt, _ = min_norm_point([[3.0, 4.0]])
        assert value == pytest.approx(5.0)
        assert np.allclose(w, [1.0])

    def test_segment_midpoint(self):
        value, u, w, kkt, _ = min_norm_point([[1.0, 0.0], [0.0, 1.0]])
        assert value == pytest.approx(np.sqrt(0.5), abs=1e-12)
        assert np.allclose(w, [0.5, 0.5])

    def test_origin_inside(self):
        value, *_ = min_norm_point([[1.0, 0.0], [-1.0, 0.0], [0.0, 1.0], [0.0, -1.0]])
        assert value <= 1e-7

    def test_matches_slsqp_oracle(self, rng):
        from scipy.optimize import minimize
        for _ in range(40):
            m, d = int(rng.integers(1, 9)), int(rng.integers(1, 5))
            Q = rng.normal(size=(m, d))
            value, _, w, kkt, _ = min_norm_point(Q)
            assert abs(w.sum() - 1.0) < 1e-9 and w.min() >= -1e-12
            best = np.inf
            for _ in range(4):
                lam0 = rng.dirichlet(np.ones(m))
                r = minimize(lambda l: ((Q.T @ l) ** 2).sum(), lam0,
                             jac=lambda l: 2 * Q @ (Q.T @ l),
                             constraints=[{"type": "eq",
                                           "fun": lambda l: l.sum() - 1,
                                           "jac": lambda l: np.ones(m)}],
                             bounds=[(0, None)] * m, method="SLSQP",
                             options={"maxiter": 300, "ftol": 1e-14})
                best = min(best, float(np.sqrt(max(r.fun, 0.0))))
            assert value <= best + 1e-7


    def test_hull_needing_full_support(self):
        # 22 points in R^21 whose min-norm point has 21 support points: the
        # corral-based active-set loop alternated between a 21-point and a
        # singular 22-point corral here and never stopped
        Q = np.loadtxt(CYCLE_HULL)
        value, u, w, kkt, _ = min_norm_point(Q)
        assert value == pytest.approx(0.17345942664447356, rel=1e-12)
        assert kkt <= 1e-12
        assert np.count_nonzero(w) == 21
        assert np.allclose(u, Q.T @ w, rtol=0, atol=1e-15)

    @pytest.mark.parametrize("c", [1e-6, 1e6])
    def test_value_scales_with_the_points(self, rng, c):
        # hulls away from the origin, where the value is more than rounding noise
        hulls = [np.loadtxt(CYCLE_HULL)] + [rng.normal(size=(int(rng.integers(2, 40)), 5)) + 1.5
                                             for _ in range(10)]
        for Q in hulls:
            value = min_norm_point(Q)[0]
            assert min_norm_point(c * Q)[0] == pytest.approx(c * value, rel=1e-12)
        rows = tuple((label, c * np.asarray(a), c * r) for label, a, r in demo_truncation(20).rows)
        bound = lip_bound(LinearSystem(2, rows), [0.0, 0.0]).bound
        assert bound == pytest.approx(1.0 / (c * np.sqrt(2.0)), rel=1e-12)

    def test_matches_scipy_nnls(self, rng):
        scipy_nnls = pytest.importorskip("scipy.optimize").nnls
        hulls = [rng.normal(size=(m, d)) for m, d in [(3, 2), (12, 4), (50, 10), (200, 21),
                                                     (1000, 21), (1000, 3)]]
        base = rng.normal(size=(15, 6)) + 1.0
        hulls.append(np.vstack([base, base[:5], base[:2]]))            # duplicated rows
        hulls.append(np.vstack([base, base[:6] * rng.uniform(0.5, 2.0, size=(6, 1))]))
        hulls.append(rng.normal(size=(40, 3)) @ rng.normal(size=(3, 8)) + 0.5)  # rank 3 + shift
        hulls.append(rng.normal(size=(40, 2)) @ rng.normal(size=(2, 8)))        # rank 2
        zero = base.copy()
        zero[[2, 7]] = 0.0
        hulls.append(zero)
        for Q in hulls:
            m, d = Q.shape
            scale = np.abs(Q).max()
            M = np.vstack([Q.T / scale, np.ones(m)])
            nu, _ = scipy_nnls(M, np.eye(d + 1)[d], maxiter=50 * m)
            ref = np.linalg.norm(Q.T @ nu) / nu.sum()
            value, u, w, _, _ = min_norm_point(Q)
            assert abs(value - ref) <= 1e-12 * scale
            assert w.min() >= 0.0 and abs(w.sum() - 1.0) <= 1e-12
            assert value == pytest.approx(np.linalg.norm(Q.T @ w), rel=1e-12, abs=1e-300)


class TestSlicedHull:
    def test_single_generator_on_slice(self):
        r = min_norm_sliced_hull(gens([[3.0]], [0.0]), np.zeros(1))
        assert r.status is StatusKind.OPTIMAL
        assert r.value == pytest.approx(3.0)
        assert np.allclose(r.weights, [1.0])

    def test_demo_truncation_two(self):
        g = gens([[-1.0, 0.0], [2.0, 0.0], [1.0, 1.0]], [1.0, 1.0, 0.0])
        r = min_norm_sliced_hull(g, np.zeros(2))
        assert r.value == pytest.approx(np.sqrt(2.0), abs=1e-12)
        assert np.allclose(r.weights, [0.0, 0.0, 1.0])

    def test_empty_slice_by_sign(self):
        g = gens([[1.0, 0.0], [0.0, 1.0]], [5.0, 3.0])
        r = min_norm_sliced_hull(g, np.zeros(2))
        assert r.status is StatusKind.NO_INTERSECTION
        assert r.value == np.inf and r.weights is None

    def test_permutation_invariance(self, rng):
        coeffs = rng.normal(size=(6, 3))
        offs = coeffs @ np.array([0.2, -0.1, 0.4])  # all active at that anchor
        anchor = np.array([0.2, -0.1, 0.4])
        base = min_norm_sliced_hull(gens(coeffs, offs), anchor)
        for _ in range(5):
            perm = rng.permutation(6)
            r = min_norm_sliced_hull(gens(coeffs[perm], offs[perm]), anchor)
            assert r.value == pytest.approx(base.value, rel=1e-9)

    def test_duplication_invariance(self, rng):
        coeffs = rng.normal(size=(4, 2))
        anchor = rng.normal(size=2) * 0.3
        offs = coeffs @ anchor
        base = min_norm_sliced_hull(gens(coeffs, offs), anchor)
        dup = np.vstack([coeffs, coeffs[1]])
        r = min_norm_sliced_hull(gens(dup, np.append(offs, offs[1])), anchor)
        assert r.value == pytest.approx(base.value, rel=1e-9)

    def test_kkt_residual_small(self, rng):
        for _ in range(30):
            m, n = int(rng.integers(2, 10)), int(rng.integers(2, 5))
            coeffs = rng.normal(size=(m, n))
            anchor = rng.normal(size=n) * 0.5
            offs = coeffs @ anchor + np.where(rng.uniform(size=m) < 0.5, 0.0,
                                              rng.uniform(0.2, 1.0, size=m))
            r = min_norm_sliced_hull(gens(coeffs, offs), anchor)
            if r.status is StatusKind.OPTIMAL:
                assert r.kkt_residual <= 1e-8

    def test_infeasible_anchor_is_rejected(self):
        # generators (1, 0) and (1, 2) in R^1 at x = 1: g = (+1, -1); the
        # anchor violates the first generator, so no slice is defined
        g = gens([[1.0], [1.0]], [0.0, 2.0])
        with pytest.raises(ValueError, match="generator 0"):
            min_norm_sliced_hull(g, np.array([1.0]))
        # within feas_tol the generator counts as active
        r = min_norm_sliced_hull(g, np.array([1e-10]))
        assert r.status is StatusKind.OPTIMAL
        assert np.allclose(r.weights, [1.0, 0.0])

    def test_polyhedral_norm_path(self):
        # active square generators; dual of linf is l1
        coeffs = np.array([[1.0, 1.0], [1.0, -1.0]])
        offs = np.zeros(2)
        r = min_norm_sliced_hull(gens(coeffs, offs), np.zeros(2), NormSpec("linf"))
        assert r.status is StatusKind.OPTIMAL
        # ||lam (1,1) + (1-lam)(1,-1)||_1 = 1 + |2 lam - 1| minimized at lam = 1/2
        assert r.value == pytest.approx(1.0, abs=1e-9)
        r2 = min_norm_sliced_hull(gens(coeffs, offs), np.zeros(2), NormSpec("l1"))
        # dual linf: max(1, |2 lam - 1|) = 1 for any lam in [0, 1]
        assert r2.value == pytest.approx(1.0, abs=1e-9)
