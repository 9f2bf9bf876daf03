import numpy as np
import pytest

from lipstab.convex import (
    AffineFn,
    CutConfig,
    MaxAffineFn,
    QuadraticFn,
    ScaledNormFn,
    _cut_points,
    conjugate_value,
    distance_convex,
    eval_sub,
    linearize,
    lip_bound_convex,
)
from lipstab.errors import InfeasibleAnchorError

SQUARE = QuadraticFn([[2.0]], [0.0], 0.0)          # x^2
SQUARE_SHIFTED = QuadraticFn([[2.0]], [0.0], -1.0)  # x^2 - 1
ABS = MaxAffineFn([[1.0], [-1.0]], [0.0, 0.0])      # |x|


def numeric_conjugate(f, u, lo=-60.0, hi=60.0):
    """Brute-force sup_x <u, x> - f(x): coarse grid to bracket, fine to finish."""
    coarse = np.linspace(lo, hi, 2001)
    k = int(np.argmax(u * coarse - np.array([f.value([x]) for x in coarse])))
    lo2 = coarse[max(k - 1, 0)]
    hi2 = coarse[min(k + 1, len(coarse) - 1)]
    fine = np.linspace(lo2, hi2, 20001)
    return float(np.max(u * fine - np.array([f.value([x]) for x in fine])))


class TestEvalSub:
    def test_square_calculus(self):
        value, grad = eval_sub(SQUARE, [3.0])
        assert value == 9.0 and grad[0] == 6.0

    def test_abs_tie_first_max(self):
        value, grad = eval_sub(ABS, [0.0])
        assert value == 0.0 and grad[0] == 1.0

    def test_affine(self):
        value, grad = eval_sub(AffineFn([2.0], 1.0), [3.0])
        assert value == 7.0 and grad[0] == 2.0

    def test_scaled_norm_at_center(self):
        f = ScaledNormFn(2.0, [1.0, -1.0], 0.5)
        value, grad = eval_sub(f, [1.0, -1.0])
        assert value == 0.5
        assert np.allclose(grad, 0.0)


class TestConjugate:
    def test_square_quarter_rule(self):
        # the linearization of x^2 <= p reads u x <= u^2/4 + p
        assert conjugate_value(SQUARE, [2.0]) == pytest.approx(1.0)
        for u in (-3.0, -0.5, 0.0, 1.7):
            assert conjugate_value(SQUARE, [u]) == pytest.approx(u * u / 4.0)

    def test_abs_unit_interval_indicator(self):
        assert conjugate_value(ABS, [0.5]) == 0.0
        assert conjugate_value(ABS, [2.0]) == np.inf

    def test_affine_point_mass(self):
        f = AffineFn([1.0, -2.0], 3.0)
        assert conjugate_value(f, [1.0, -2.0]) == -3.0
        assert conjugate_value(f, [1.0, -1.9]) == np.inf

    def test_brute_force_grid_agrees(self):
        for u in (-2.0, -0.3, 0.0, 1.1, 2.5):
            assert conjugate_value(SQUARE_SHIFTED, [u]) == pytest.approx(
                numeric_conjugate(SQUARE_SHIFTED, u), abs=1e-4)

    def test_fenchel_young_with_analytic_maximizer(self, rng):
        # f*(u) >= <u,x> - f(x) everywhere; equality at x* = Q^{-1}(u - c)
        Q = np.array([[3.0, 1.0], [1.0, 2.0]])
        f = QuadraticFn(Q, [0.5, -1.0], 0.7)
        for _ in range(200):
            u = rng.normal(size=2) * 3
            fs = conjugate_value(f, u)
            for _ in range(5):
                x = rng.normal(size=2) * 3
                assert fs >= u @ x - f.value(x) - 1e-9
            xstar = np.linalg.solve(Q, u - np.array([0.5, -1.0]))
            assert fs == pytest.approx(u @ xstar - f.value(xstar), abs=1e-7)


class TestLinearize:
    def test_square_cuts_at_prescribed_samples(self):
        # cuts at x in {-1, 0, 1}: u in {-2, 0, 2}, f*(u) = u^2 / 4
        lin = linearize([SQUARE], CutConfig(budget=0), [0.0])
        rows = {tuple(a): b for _, a, b in lin.system.rows}
        assert rows == {(0.0,): 0.0}
        cfg = CutConfig(budget=4, radii=(1.0,), seed=1)
        lin = linearize([SQUARE], cfg, [0.0])
        for _, a, b in lin.system.rows:
            assert b == pytest.approx(a[0] ** 2 / 4.0, abs=1e-12)

    def test_affine_single_distinct_cut(self):
        lin = linearize([AffineFn([1.0, 1.0], -1.0)], CutConfig(budget=32), [0.0, 0.0])
        assert len(lin.system.rows) == 1

    def test_two_blocks(self):
        lin = linearize([SQUARE, ABS], CutConfig(budget=4), [0.0])
        assert len(lin.partition.blocks) == 2

    def test_cut_validity(self, rng):
        fs = [SQUARE_SHIFTED, ABS, ScaledNormFn(1.5, [0.2], -0.3)]
        lin = linearize(fs, CutConfig(budget=16, seed=3), [0.0])
        by_block = {j: members for j, members in lin.partition.blocks}
        for j, f in zip(by_block, fs):
            members = set(by_block[j])
            for label, u, fstar in lin.system.rows:
                if label not in members:
                    continue
                for _ in range(50):
                    y = rng.normal() * 3
                    assert u[0] * y - fstar <= f.value([y]) + 1e-9

    def test_cut_points_are_the_per_point_streams(self):
        # point i of block j in round r is drawn by default_rng((seed, r, j, i))
        cfg = CutConfig(seed=2**32 + 1)
        anchor = np.array([0.3, -0.2, 0.1])
        centers = [anchor, anchor + 1.0]
        for round_idx, block_idx in ((0, 0), (2, 1)):
            ref = [anchor]
            for i in range(40):
                d = np.random.default_rng((cfg.seed, round_idx, block_idx, i)).normal(size=3)
                ref.append(centers[i % 2] + cfg.radii[i % len(cfg.radii)] * d / np.linalg.norm(d))
            pts = _cut_points(anchor, cfg, block_idx, 3, 40, round_idx, centers)
            assert np.array_equal(pts, ref)

    def test_anchor_cut_always_tight(self, rng):
        anchor = [0.7]
        lin = linearize([SQUARE_SHIFTED], CutConfig(budget=8), anchor)
        label, u, fstar = lin.system.rows[0]
        assert u[0] * anchor[0] - fstar == pytest.approx(
            SQUARE_SHIFTED.value(anchor), abs=1e-12)


class TestLipBoundConvex:
    def test_shifted_square_half(self):
        rep = lip_bound_convex([SQUARE_SHIFTED], [1.0])
        assert rep.bound == pytest.approx(0.5, abs=1e-3)
        finite = [h for h in rep.history if np.isfinite(h)]
        assert all(b >= a - 1e-12 for a, b in zip(finite, finite[1:]))

    def test_square_ssc_failure(self):
        # the conjugate-graph point (0, 0) sits in the sampled hull
        rep = lip_bound_convex([SQUARE], [0.0])
        assert rep.bound == np.inf and rep.regime == "SSCFails"

    def test_affine_degenerates_to_halfspace(self):
        f = AffineFn([3.0, 4.0], -5.0)
        rep = lip_bound_convex([f], [0.6, 0.8])
        assert rep.bound == pytest.approx(0.2, abs=1e-9)

    def test_interior_anchor_zero(self):
        rep = lip_bound_convex([SQUARE_SHIFTED], [0.0])
        assert rep.bound == 0.0 and rep.regime == "SlaterPoint"

    def test_infeasible_anchor_raises(self):
        with pytest.raises(InfeasibleAnchorError):
            lip_bound_convex([SQUARE_SHIFTED], [2.0])

    def test_budget_monotone_with_nested_samples(self):
        bounds = []
        for budget in (4, 8, 16, 32):
            cfg = CutConfig(budget=budget, seed=9, refine_rounds=0)
            bounds.append(lip_bound_convex([SQUARE_SHIFTED], [1.0], cfg).bound)
        for small, large in zip(bounds, bounds[1:]):
            assert large >= small - 1e-12


class TestDistanceConvex:
    def test_interval_endpoint(self):
        d = distance_convex([SQUARE_SHIFTED], [0.0], [2.0])
        assert d == pytest.approx(1.0, abs=1e-6)

    def test_feasible_zero(self):
        assert distance_convex([SQUARE_SHIFTED], [0.0], [0.4]) == 0.0

    def test_affine_matches_halfspace_projection(self):
        f = AffineFn([3.0, 4.0], -5.0)
        d = distance_convex([f], [0.0], [2.0, 2.0])
        assert d == pytest.approx((3 * 2 + 4 * 2 - 5) / 5.0, abs=1e-9)

    def test_perturbed_interval(self):
        # x^2 - 1 <= p: feasible set [-sqrt(1+p), sqrt(1+p)]
        d = distance_convex([SQUARE_SHIFTED], [0.21], [2.0])
        assert d == pytest.approx(2.0 - 1.1, abs=1e-6)

    def test_two_inequalities(self):
        d = distance_convex([SQUARE_SHIFTED, ABS], [0.0, 0.5], [2.0])
        assert d == pytest.approx(1.5, abs=1e-6)
