import numpy as np
import pytest

from conftest import (
    box_system,
    demo_truncation,
    random_boundary_instance,
    random_partition,
    random_ssc_system,
    ssc_failing_feasible,
)
from lipstab import cli, stability
from lipstab.convex import AffineFn, lip_bound_convex
from lipstab.errors import (
    InfeasibleAnchorError,
    InfeasibleRegionError,
    InternalCheckError,
    SSCViolatedError,
)
from lipstab.estimator import SamplingConfig, empirical_lip, partition_compare
from lipstab.model import BlockPartition, LinearSystem, Perturbation
from lipstab.norms import NormSpec
from lipstab.solvers import ratio
from lipstab.solvers.projection import project_polyhedron
from lipstab.solvers.ratio import zero_face_floor
from lipstab.solvers.simplex import SolveStatus, StatusKind
from lipstab.stability import (
    check_ssc,
    coderivative_member,
    coderivative_norm,
    distance_formula,
    eps_active,
    lip_bound,
)

INV_SQRT2 = 1.0 / np.sqrt(2.0)


class TestCheckSSC:
    def test_halfspace_holds(self):
        rep = check_ssc(LinearSystem(1, (("t", [1.0], 1.0),)))
        assert rep.holds and rep.margin < 0
        assert rep.slater_point is not None

    def test_symmetric_pair_fails(self):
        rep = check_ssc(LinearSystem(1, (("a", [1.0], 0.0), ("b", [-1.0], 0.0))))
        assert not rep.holds
        assert rep.hull_gap == pytest.approx(0.0, abs=1e-9)

    def test_demo_truncation_holds_with_witness(self):
        # evaluating all residuals at (0, -1) gives margin -1
        system = demo_truncation(4)
        assert max(system.residuals([0.0, -1.0])) == pytest.approx(-1.0)
        rep = check_ssc(system)
        assert rep.holds

    def test_routes_agree_on_random_instances(self, rng):
        for trial in range(120):
            if trial % 3 == 0:
                system, _ = ssc_failing_feasible(rng)
            else:
                system, _ = random_ssc_system(rng, n=3, m=10)
            rep = check_ssc(system)
            assert rep.lp_holds == rep.hull_holds


def _system(A, b):
    return LinearSystem(A.shape[1], tuple((f"t{i}", A[i], float(b[i])) for i in range(len(b))))


def _assert_witness(A, b, margin, witness):
    assert (A @ witness - b).max() <= margin + 1e-9 * (1.0 + np.abs(b).max())


def _margin_cases(rng):
    """(A, b) with duplicated, parallel and zero rows, rank-deficient A,
    failing SSC, and sizes up to n=20, m=1000."""
    for trial in range(48):
        n, m = int(rng.integers(1, 8)), int(rng.integers(2, 40))
        A, b = rng.normal(size=(m, n)), rng.normal(size=m)
        kind = trial % 6
        if kind == 0:
            k = int(rng.integers(1, m + 1))
            A, b = np.vstack([A, A[:k]]), np.concatenate([b, b[:k]])
        elif kind == 1:
            f = rng.uniform(0.1, 10.0, size=m)
            A = np.vstack([A, f[:, None] * A])
            b = np.concatenate([b, f * b + rng.uniform(0.0, 1.0, size=m)])
        elif kind == 2:
            A[:1 + m // 4] = 0.0
            b[:1 + m // 4] = np.abs(b[:1 + m // 4])
        elif kind == 3:
            r = max(1, n - 2)
            A = rng.normal(size=(m, r)) @ rng.normal(size=(r, n))
        elif kind == 4:
            system, _ = ssc_failing_feasible(rng, n=max(n, 2), m=max(m, 3))
            A, b = system.coefficient_matrix(), system.rhs_vector()
        yield A, b
    for n, m in ((20, 1000), (20, 200), (5, 500)):
        system, _ = random_ssc_system(rng, n=n, m=m)
        yield system.coefficient_matrix(), system.rhs_vector()


class TestSSCMarginLP:
    @pytest.mark.parametrize("bad", ["point_misses_a_row", "weights_off_the_face",
                                     "farkas_keeps_s", "direction_misses_a_row"])
    def test_lp_route_checks_its_certificates(self, monkeypatch, bad):
        # the box |x_k| <= 1: margin -1 at x = 0, duals (0, 0, 1), weights (1/2, 1/2, 0, 0)
        duals, lam, kind = np.array([0.0, 0.0, 1.0]), np.array([0.5, 0.5, 0.0, 0.0]), "OPTIMAL"
        if bad == "point_misses_a_row":
            duals[0] = 0.5
        elif bad == "weights_off_the_face":
            lam = np.array([1.0, 0.0, 0.0, 0.0])
        elif bad == "farkas_keeps_s":
            duals, lam, kind = np.array([1.0, 0.0, 0.5]), None, "INFEASIBLE"
        else:  # d = (-1, 0) leaves A d <= -1 on the first row only
            duals, lam, kind = np.array([1.0, 0.0, -1.0]), None, "INFEASIBLE"
        status = SolveStatus(StatusKind[kind], 1, duals)
        monkeypatch.setattr(stability, "zero_face_floor", lambda A, b: (1.0, lam, status))
        with pytest.raises(InternalCheckError):
            check_ssc(box_system())

    def test_verdict_and_values_scale_with_the_system(self, rng):
        for A, b in _margin_cases(rng):
            rep = check_ssc(_system(A, b))
            s = max(np.abs(A).max(), np.abs(b).max())
            # the floor's absolute phase-1 test misjudges boundedness at 1e6
            bounded = zero_face_floor(A, b)[1] is not None
            for c in (1e-6, 1e6):
                rep_c = check_ssc(_system(c * A, c * b))
                assert rep_c.holds == rep.holds
                # the hull gap belongs to the rows divided by their sizes
                assert rep_c.hull_gap == pytest.approx(rep.hull_gap, rel=1e-9, abs=1e-12)
                if bounded:
                    assert abs(rep_c.margin - c * rep.margin) <= 1e-9 * c * s
                else:
                    # the witness's step along the ray does not scale with c
                    assert rep_c.margin < 0
                    _assert_witness(c * A, c * b, rep_c.margin, rep_c.slater_point)

    def test_verdict_and_hull_gap_do_not_depend_on_row_sizes(self, rng):
        for A, b in _margin_cases(rng):
            rep = check_ssc(_system(A, b))
            # wider spreads reach the accuracy limits of the margin LP itself
            f = 10.0 ** rng.uniform(-3.0, 3.0, size=len(b))
            rep_f = check_ssc(_system(f[:, None] * A, f * b))
            assert rep_f.holds == rep.holds
            assert rep_f.hull_gap == pytest.approx(rep.hull_gap, rel=1e-9, abs=1e-12)
            if rep.holds:
                # each residual at the Slater point is below -tol times its row's norm
                size = f * np.linalg.norm(np.column_stack([A, b]), axis=1)
                res = f * (A @ rep_f.slater_point - b)
                assert (res < -1e-9 * size).all()

    def test_far_slack_row_with_a_large_rhs_keeps_the_verdict(self):
        box = (("lo", [-1.0], 1.0), ("hi", [1.0], 1.0))
        system = LinearSystem(1, box)
        far = LinearSystem(1, box + (("far", [1.0], 1e10),))
        for anchor in ([1.0], [0.0]):
            lip, lip_far = lip_bound(system, anchor), lip_bound(far, anchor)
            assert (lip_far.bound, lip_far.regime) == (lip.bound, lip.regime)
        rep, rep_far = check_ssc(system), check_ssc(far)
        assert rep_far.holds and rep.holds
        assert rep_far.margin == pytest.approx(-1.0) and rep.margin == pytest.approx(-1.0)
        assert rep_far.hull_gap == pytest.approx(rep.hull_gap, rel=1e-12)

    def test_large_row_with_a_small_slack_holds(self):
        # 1e10 x1 <= 1 leaves slack 1 at x1 = 0, only 1e-10 of the row's norm;
        # points with x1 = 1 - sqrt(2) can leave each row sqrt(2) - 1 of its norm
        system = LinearSystem(2, (("a", [1e10, 0.0], 1.0), ("b", [-1.0, 0.0], 1.0),
                                  ("c", [1.0, 1.0], 0.0)))
        rep = check_ssc(system)
        assert rep.holds and rep.margin == pytest.approx(-1.0, rel=1e-12)
        assert max(system.residuals(rep.slater_point)) < 0.0

    @pytest.mark.parametrize("e", [4, 5, 6])
    def test_row_scaled_copies_keep_the_verdict(self, rng, e):
        # rows scaled by 10^U(-e, e): the floor LP's column scaling keeps its
        # checks passing, and the verdict is the unscaled one
        draws = np.random.default_rng(e)
        for A, b in _margin_cases(rng):
            holds = check_ssc(_system(A, b)).holds
            for _ in range(3):
                f = 10.0 ** draws.uniform(-e, e, size=len(b))
                assert check_ssc(_system(f[:, None] * A, f * b)).holds == holds

    def test_rows_of_sizes_1e6_and_1e_6_hold(self):
        for seed in range(200):
            rng = np.random.default_rng(seed)
            system, _ = random_ssc_system(rng, n=2, m=15)
            f = np.where(rng.random(15) < 0.5, 1e6, 1e-6)
            A, b = system.coefficient_matrix(), system.rhs_vector()
            assert check_ssc(_system(f[:, None] * A, f * b)).holds, seed

    def test_margin_point_attains_the_margin(self, rng):
        for A, b in _margin_cases(rng):
            bounded = zero_face_floor(A, b)[1] is not None
            for c in (1.0, 1e-6, 1e6):
                margin, witness = stability._margin(c * A, c * b)
                _assert_witness(c * A, c * b, margin, witness)
                # unbounded LP: the margin is that of the witness, and negative
                assert bounded or margin < -1e-9 * c

    def test_margin_matches_highs(self, rng):
        linprog = pytest.importorskip("scipy.optimize").linprog

        def highs(A, b):
            m, n = A.shape
            ref = linprog(np.eye(n + 1)[n], A_ub=np.hstack([A, -np.ones((m, 1))]), b_ub=b,
                          bounds=[(None, None)] * (n + 1), method="highs")
            assert ref.status in (0, 3)
            return ref.fun if ref.status == 0 else -np.inf

        for A, b in _margin_cases(rng):
            ref = highs(A, b)
            runs = [(c * A, c * b, c * ref, check_ssc(_system(c * A, c * b)))
                    for c in (1.0, 1e-6, 1e6)]
            # HiGHS's absolute tolerances do not fit rows of norm 1e-6, so
            # mixed-scale rows are only compared on moderate spreads
            f = 10.0 ** rng.uniform(-2.0, 2.0, size=len(b))
            A2, b2 = f[:, None] * A, f * b
            runs.append((A2, b2, highs(A2, b2), check_ssc(_system(A2, b2))))
            for A2, b2, ref2, rep in runs:
                if ref2 == -np.inf:
                    assert rep.margin < -1e-9
                    _assert_witness(A2, b2, rep.margin, rep.slater_point)
                else:
                    assert abs(rep.margin - ref2) <= 1e-9 * (1.0 + np.abs(b2).max())

    def test_margin_is_invariant_and_scales(self, rng):
        for _ in range(20):
            system, _ = random_ssc_system(rng, n=int(rng.integers(2, 6)),
                                          m=int(rng.integers(12, 40)))
            A, b = system.coefficient_matrix(), system.rhs_vector()
            rep = check_ssc(system)
            assert np.isfinite(zero_face_floor(A, b)[0])
            m = len(b)
            perm = rng.permutation(m)
            dup = rng.integers(0, m, size=5)
            far = rng.normal(size=(6, A.shape[1]))
            far_b = far @ rep.slater_point - rep.margin + 10.0 * (1.0 + abs(rep.margin))
            variants = [
                (A[perm], b[perm], 1.0),
                (np.vstack([A, A[dup]]), np.concatenate([b, b[dup]]), 1.0),
                (np.vstack([A, far]), np.concatenate([b, far_b]), 1.0),
            ] + [(c * A, c * b, c) for c in (1e-3, 7.0, 1e6)]
            for A2, b2, c in variants:
                margin = check_ssc(_system(A2, b2)).margin
                assert margin == pytest.approx(c * rep.margin, rel=1e-12)

    @pytest.mark.parametrize("N,n,m", [(5000, None, None), (None, 20, 1000)])
    def test_lp_rows_stay_small(self, monkeypatch, rng, N, n, m):
        # one floor LP on the caller's rows, one more on the normalized rows
        # at most, each with n + 1 equality rows
        shapes = []
        solve = ratio.lp_solve_nonneg

        def counting_solve(objective, A_ub, b_ub, A_eq, b_eq):
            shapes.append((A_ub, A_eq.shape))
            return solve(objective, A_ub, b_ub, A_eq, b_eq)

        monkeypatch.setattr(ratio, "lp_solve_nonneg", counting_solve)
        system = demo_truncation(N) if N else random_ssc_system(rng, n=n, m=m)[0]
        assert check_ssc(system).holds
        eq_shape = (system.dimension + 1, len(system.labels))
        assert 1 <= len(shapes) <= 2 and set(shapes) == {(None, eq_shape)}


class TestDistanceFormula:
    def test_halfspace(self):
        system = LinearSystem(2, (("t", [1.0, 0.0], 1.0),))
        part = BlockPartition.maximum(system.labels)
        d = distance_formula(system, part, Perturbation((0.0,)), [2.0, 0.0])
        assert d == pytest.approx(1.0)

    def test_box_corner(self):
        system = box_system()
        part = BlockPartition.maximum(system.labels)
        d = distance_formula(system, part, Perturbation((0.0,) * 4), [2.0, 2.0])
        assert d == pytest.approx(np.sqrt(2.0), abs=1e-8)

    def test_feasible_point_zero(self):
        system = box_system()
        part = BlockPartition.minimum(system.labels)
        assert distance_formula(system, part, Perturbation((0.0,)), [0.1, 0.2]) == 0.0

    def test_ssc_violated_raises(self):
        system = LinearSystem(1, (("a", [1.0], 0.0), ("b", [-1.0], 0.0)))
        part = BlockPartition.maximum(system.labels)
        with pytest.raises(SSCViolatedError):
            distance_formula(system, part, Perturbation((0.0, 0.0)), [1.0])

    def test_matches_projection_with_perturbation(self, rng):
        for _ in range(25):
            system, xhat = random_ssc_system(rng, n=3, m=12)
            part = random_partition(rng, system.labels, 3)
            p = Perturbation(tuple(rng.uniform(-0.1, 0.1, size=3)))
            x = xhat + rng.normal(size=3) * 1.5
            d = distance_formula(system, part, p, x)
            from lipstab.model import perturbed_system
            pert = perturbed_system(system, part, p)
            dist, _ = project_polyhedron(
                x, pert.coefficient_matrix(), pert.rhs_vector())
            assert d == pytest.approx(dist, rel=1e-7, abs=1e-9)


class TestLipBound:
    def test_halfspace_boundary(self):
        system = LinearSystem(2, (("t", [3.0, 4.0], 5.0),))
        rep = lip_bound(system, [0.6, 0.8])
        assert rep.regime == "Regular"
        assert rep.bound == pytest.approx(0.2, abs=1e-12)

    @pytest.mark.parametrize("N", [2, 5, 10, 100])
    def test_demo_truncation_value(self, N):
        rep = lip_bound(demo_truncation(N), [0.0, 0.0])
        assert rep.bound == pytest.approx(INV_SQRT2, abs=1e-12)
        assert rep.regime == "Regular"

    def test_slater_anchor_zero(self):
        rep = lip_bound(demo_truncation(3), [0.0, -0.5])
        assert rep.bound == 0.0 and rep.regime == "SlaterPoint"

    def test_ssc_failure_infinite(self):
        system = LinearSystem(1, (("a", [1.0], 0.0), ("b", [-1.0], 0.0)))
        rep = lip_bound(system, [0.0])
        assert rep.bound == np.inf and rep.regime == "SSCFails"

    def test_infeasible_anchor_raises(self):
        with pytest.raises(InfeasibleAnchorError):
            lip_bound(box_system(), [3.0, 0.0])

    def test_partition_independent_bitwise(self, rng):
        # the computation consumes only C(0); partitions never enter
        for _ in range(10):
            system, xbar = random_boundary_instance(rng)
            a = lip_bound(system, xbar)
            b = lip_bound(system, xbar)
            assert a.bound == b.bound

    def test_scaling_covariance(self, rng):
        for _ in range(15):
            system, xbar = random_boundary_instance(rng)
            gamma = float(rng.uniform(0.3, 4.0))
            scaled = LinearSystem(
                system.dimension,
                tuple((l, gamma * a, gamma * b) for l, a, b in system.rows),
                system.norm)
            base = lip_bound(system, xbar).bound
            assert lip_bound(scaled, xbar).bound == pytest.approx(base / gamma, rel=1e-9)

    def test_translation_invariance(self, rng):
        for _ in range(15):
            system, xbar = random_boundary_instance(rng)
            d = rng.normal(size=system.dimension)
            moved = LinearSystem(
                system.dimension,
                tuple((l, a, b + float(a @ d)) for l, a, b in system.rows),
                system.norm)
            assert lip_bound(moved, xbar + d).bound == pytest.approx(
                lip_bound(system, xbar).bound, rel=1e-9)


class TestAnchorRegime:
    """lip_bound's regime comes from two routes on the active rows alone."""

    @pytest.mark.parametrize("rhs, bound, regime", [(1e-10, 1.0, "Regular"),
                                                   (0.0, np.inf, "SSCFails")])
    def test_zero_row(self, rhs, bound, regime):
        # 0 x <= 1e-10 is never tight (x = -1 is a strict point), while
        # 0 x <= 0 is tight everywhere and puts 0 in the active hull
        system = LinearSystem(1, (("a", [0.0], rhs), ("b", [1.0], 0.0)))
        rep = lip_bound(system, [0.0])
        assert (rep.bound, rep.regime, rep.projection_value) == (bound, regime, bound)
        part = BlockPartition.maximum(system.labels)
        assert coderivative_norm(system, part, [0.0]).value == bound

    @pytest.mark.parametrize("scale", 10.0 ** np.arange(-12, 13))
    def test_far_row_of_any_scale_is_not_active(self, scale):
        # scale x <= scale is {x <= 1}: slack 1 at 0 in its own units
        system = LinearSystem(1, (("far", [scale], scale), ("tight", [-1.0], 0.0)))
        rep = lip_bound(system, [0.0])
        assert (rep.bound, rep.regime) == (1.0, "Regular")
        assert rep.slice_weights.tolist() == [0.0, 1.0]
        part = BlockPartition.maximum(system.labels)
        assert coderivative_norm(system, part, [0.0]).value == 1.0
        # x = 0.5 is a strict point at every scale
        assert check_ssc(system).holds

    def test_estimate_samples_the_far_row_document(self, tmp_path, capsys):
        # the far row is tiny, not active: estimate samples instead of
        # returning the SSCFails inf, and compare-partitions prints bound 1
        path = tmp_path / "far.json"
        path.write_text('{"version": "lipstab-v1", "dimension": 1, "norm": "euclid", "rows": '
                        '[{"label": "far", "a": [1e-10], "b": 1e-10}, '
                        '{"label": "tight", "a": [-1.0], "b": 0.0}]}')
        common = ["--system", str(path), "--anchor=0", "--samples", "50",
                  "--radius-ladder", "1e-12"]
        assert cli.run_cli(["estimate", *common]) == 0
        out = capsys.readouterr().out
        assert "ssc fails" not in out and "estimate=1\n" in out
        assert cli.run_cli(["compare-partitions", *common]) == 0
        assert capsys.readouterr().out.splitlines()[-1].endswith(" lip=1")

    @pytest.mark.parametrize("projected", [np.inf, 0.25, 0.2 + 2e-6])
    def test_routes_that_part_raise(self, monkeypatch, projected):
        system = LinearSystem(2, (("t", [3.0, 4.0], 5.0),))  # bound 0.2
        monkeypatch.setattr(stability, "_min_norm_above_one", lambda A, norm: projected)
        with pytest.raises(InternalCheckError, match="lip routes disagree"):
            lip_bound(system, [0.6, 0.8])

    def test_projection_route_value_is_reported(self):
        system = demo_truncation(4)
        rep = lip_bound(system, [0.0, 0.0])
        assert rep.projection_value == pytest.approx(rep.bound, rel=1e-6)
        codnorm = coderivative_norm(system, BlockPartition.maximum(system.labels), [0.0, 0.0])
        assert codnorm.value == rep.projection_value and codnorm.lip_cross == rep.bound

    def test_no_whole_system_ssc_check(self, monkeypatch, rng, tmp_path, capsys):
        def refuse(*args, **kwargs):
            raise AssertionError("check_ssc called")

        real = stability.check_ssc
        monkeypatch.setattr(stability, "check_ssc", refuse)
        cfg = SamplingConfig(radii=(0.1,), samples_per_radius=20)
        for system, anchor in ((demo_truncation(4), np.zeros(2)), ssc_failing_feasible(rng)):
            part = BlockPartition.maximum(system.labels)
            lip_bound(system, anchor)
            eps_active(system, anchor, 0.5)
            coderivative_norm(system, part, anchor)
            empirical_lip(system, part, anchor, cfg)
            partition_compare(system, (), anchor, cfg)
        assert lip_bound_convex([AffineFn([1.0], -1.0)], [1.0]).bound == 1.0
        # the ssc verb still certifies the whole system
        calls = []
        monkeypatch.setattr(cli, "check_ssc", lambda *a: calls.append(a) or real(*a))
        path = tmp_path / "half.json"
        path.write_text('{"version": "lipstab-v1", "dimension": 1, "norm": "euclid", '
                        '"rows": [{"label": "t", "a": [1.0], "b": 1.0}]}')
        assert cli.run_cli(["ssc", "--system", str(path)]) == 0 and len(calls) == 1
        assert capsys.readouterr().out.splitlines()[-1].startswith("ssc=true ")


def _anchor_families(rng):
    """(family, A, b): the margin cases, boundary, SSC-failing and paper systems."""
    for A, b in _margin_cases(rng):
        yield "margin", A, b
    for make in (random_boundary_instance, ssc_failing_feasible):
        for _ in range(20):
            system, _ = make(rng)
            yield make.__name__, system.coefficient_matrix(), system.rhs_vector()
    for N in (2, 5, 10, 100, 1000):
        system = demo_truncation(N)
        yield "paper", system.coefficient_matrix(), system.rhs_vector()


def test_anchor_regime_matches_check_ssc(rng):
    # anchors are random points projected onto F, so they sit on faces of it;
    # each family runs as drawn and with rows scaled by 10^U(-3, 3)
    compared, parted = 0, set()
    for family, A, b in list(_anchor_families(rng)):
        for scaled in (False, True):
            f = 10.0 ** rng.uniform(-3.0, 3.0, size=len(b)) if scaled else np.ones(len(b))
            system = _system(f[:, None] * A, f * b)
            holds = check_ssc(system).holds
            for _ in range(3):
                try:
                    _, y = project_polyhedron(2.0 * rng.normal(size=A.shape[1]),
                                              system.coefficient_matrix(), system.rhs_vector())
                except InfeasibleRegionError:
                    break
                try:
                    regime = lip_bound(system, y).regime
                except InternalCheckError:
                    parted.add((family, scaled))
                    continue
                assert (regime == "SSCFails") == (not holds), (family, scaled, y)
                compared += 1
    assert compared >= 350
    # The routes may part (exit 4) only on row-scaled margin cases, whose
    # active rows mix sizes of 1e+-3 beyond the slice NNLS's accuracy
    assert parted <= {("margin", True)}, parted


def test_lip_exits_4_or_equals_codnorm_on_mixed_scale_hulls():
    # rows q_t x <= 0 in R^8 at anchor 0, q_t = (N(0, 1) + 3 e_1) 10^U(-3, 3):
    # when the slice NNLS misses the bound, lip must exit 4, not print it
    exits = 0
    for seed in range(30):
        rng = np.random.default_rng(seed)
        Q = rng.normal(size=(60, 8))
        Q[:, 0] += 3.0
        Q *= 10.0 ** rng.uniform(-3.0, 3.0, size=(60, 1))
        system = _system(Q, np.zeros(60))
        try:
            bound = lip_bound(system, np.zeros(8)).bound
        except InternalCheckError:
            exits += 1
            continue
        codnorm = coderivative_norm(system, BlockPartition.maximum(system.labels), np.zeros(8))
        assert codnorm.value == pytest.approx(bound, rel=1e-6)
    assert exits < 30


class TestCoderivativeMember:
    def halfspace(self):
        system = LinearSystem(2, (("t", [3.0, 4.0], 5.0),))
        return system, BlockPartition.maximum(system.labels), np.array([0.6, 0.8])

    def test_cone_ray_members(self):
        system, part, xbar = self.halfspace()
        for lam in (0.0, 0.4, 2.5):
            ok, cert = coderivative_member(
                system, part, xbar, [-lam], -lam * np.array([3.0, 4.0]))
            assert ok
            assert cert.cone_weights[0] == pytest.approx(lam, abs=1e-8)
            assert cert.anchor_residual <= 1e-8

    def test_positive_p_star_rejected(self):
        system, part, xbar = self.halfspace()
        ok, cert = coderivative_member(system, part, xbar, [1.0], [0.0, 0.0])
        assert not ok and cert is None

    def test_apex(self):
        system, part, xbar = self.halfspace()
        ok, cert = coderivative_member(system, part, xbar, [0.0], [0.0, 0.0])
        assert ok
        assert np.abs(cert.cone_weights).max() <= 1e-9

    def test_certificate_reconstructs_triple(self, rng):
        for _ in range(10):
            system, xbar = random_boundary_instance(rng, n=3, m=8)
            part = random_partition(rng, system.labels, 3)
            # construct a genuine member from random cone weights on active rows
            res = system.residuals(xbar)
            mu = np.where(np.abs(res) <= 1e-9, rng.uniform(0.1, 1.0, len(res)), 0.0)
            A = system.coefficient_matrix()
            assign = np.array([part.block_of()[t] for t in system.labels])
            p_star = [-float(mu[assign == j].sum()) for j in range(len(part.blocks))]
            x_star = -A.T @ mu
            ok, cert = coderivative_member(system, part, xbar, p_star, x_star)
            assert ok
            assert np.allclose(cert.x_star, x_star, atol=1e-7)
            assert np.allclose(cert.p_star, p_star, atol=1e-7)


class TestCoderivativeNorm:
    def test_halfspace_matches(self):
        system = LinearSystem(2, (("t", [3.0, 4.0], 5.0),))
        part = BlockPartition.maximum(system.labels)
        rep = coderivative_norm(system, part, [0.6, 0.8])
        assert rep.value == pytest.approx(0.2, rel=1e-8)

    def test_demo_truncation(self):
        system = demo_truncation(2)
        part = BlockPartition.maximum(system.labels)
        rep = coderivative_norm(system, part, [0.0, 0.0])
        assert rep.value == pytest.approx(INV_SQRT2, rel=1e-8)

    def test_slater_anchor_zero(self):
        system = demo_truncation(3)
        rep = coderivative_norm(system, BlockPartition.minimum(system.labels),
                                [0.0, -0.5])
        assert rep.value == 0.0

    def test_ssc_failure_infinite(self, rng):
        system, xbar = ssc_failing_feasible(rng)
        rep = coderivative_norm(system, BlockPartition.maximum(system.labels), xbar)
        assert rep.value == np.inf and rep.lip_cross == np.inf

    def test_partition_has_no_effect_on_value(self, rng):
        system, xbar = random_boundary_instance(rng, n=3, m=9)
        values = []
        for part in (BlockPartition.minimum(system.labels),
                     BlockPartition.maximum(system.labels),
                     random_partition(rng, system.labels, 3)):
            values.append(coderivative_norm(system, part, xbar).value)
        assert values[0] == pytest.approx(values[1], rel=1e-9)
        assert values[0] == pytest.approx(values[2], rel=1e-9)

    def test_certificate_p_star_mass(self, rng):
        system, xbar = random_boundary_instance(rng, n=3, m=8)
        part = random_partition(rng, system.labels, 3)
        rep = coderivative_norm(system, part, xbar)
        cert = rep.certificate
        assert -sum(cert.p_star) == pytest.approx(rep.value, rel=1e-7)
        assert np.linalg.norm(cert.x_star) <= 1.0 + 1e-7

    @pytest.mark.parametrize("kind", ["l1", "linf", "euclid"])
    def test_linf_dual_ball_with_tied_ratio_rows(self, kind):
        # n = 20, m = 300 boundary system, third draw of this generator.  Its
        # linf dual-ball LP had tied leaving rows, one with pivot entry
        # ~1e-11; pivoting on that one made the basis singular.
        rng = np.random.default_rng((21, 0, 1))
        for m in (500, 1000, 300):
            A = rng.normal(size=(m, 20))
            x0 = rng.normal(size=20) * 0.5
            slack = np.concatenate([np.zeros(8), rng.uniform(0.3, 2.0, size=m - 8)])
        b = A @ x0 + slack
        rows = tuple((f"t{i}", A[i], float(b[i])) for i in range(m))
        system = LinearSystem(20, rows, NormSpec(kind))
        rep = coderivative_norm(system, BlockPartition.maximum(system.labels), x0)
        assert rep.value == pytest.approx(lip_bound(system, x0).bound, rel=1e-12)

    def test_point_missing_an_active_row_is_a_failed_check(self, monkeypatch):
        system = LinearSystem(2, (("t", [3.0, 4.0], 5.0),))

        def short(x, A, b, norm):
            return 0.0, np.array([0.1, 0.1])  # 3 * 0.1 + 4 * 0.1 < 1

        monkeypatch.setattr(stability, "project_polyhedron", short)
        with pytest.raises(InternalCheckError, match="misses an active row"):
            coderivative_norm(system, BlockPartition.maximum(system.labels), [0.6, 0.8])


# Active rows at the anchor 0 (rhs 0) with 0 outside their hull, plus slack
# rows; each set is degenerate in a different way.
_DEGENERATE_ACTIVE = {
    "duplicated": [[1.0, 0.5, 0.0], [1.0, 0.5, 0.0], [1.0, -0.3, 0.2]],
    "parallel": [[1.0, 0.5, 0.0], [2.0, 1.0, 0.0], [0.5, 0.25, 0.0], [1.0, -0.3, 0.2]],
    "rank_deficient": [[1.0, 0.0, 0.0], [1.0, 1.0, 0.0], [1.0, -1.0, 0.0],
                       [2.0, 0.5, 0.0]],
}


def _scipy_coderivative_norm(A_act, kind):
    """max 1^T mu over mu >= 0 with ||A_act^T mu||_dual <= 1, by scipy."""
    from scipy.optimize import linprog, nnls

    k, n = A_act.shape
    if kind == "euclid":
        # nu / 1^T nu are the min-norm weights of co{a_t}; the value is 1/||u||
        nu, _ = nnls(np.vstack([A_act.T, np.ones(k)]), np.eye(n + 1)[n])
        return 1.0 / np.linalg.norm(A_act.T @ (nu / nu.sum()))
    if kind == "l1":  # dual linf: -1 <= A^T mu <= 1
        res = linprog(-np.ones(k), A_ub=np.vstack([A_act.T, -A_act.T]),
                      b_ub=np.ones(2 * n), method="highs")
    else:  # dual l1: -s <= A^T mu <= s, sum s <= 1, over (mu, s)
        eye = np.eye(n)
        A_ub = np.vstack([np.hstack([A_act.T, -eye]), np.hstack([-A_act.T, -eye]),
                          np.concatenate([np.zeros(k), np.ones(n)])[None, :]])
        b_ub = np.concatenate([np.zeros(2 * n), [1.0]])
        res = linprog(-np.concatenate([np.ones(k), np.zeros(n)]), A_ub=A_ub,
                      b_ub=b_ub, method="highs")
    assert res.status == 0
    return -res.fun


@pytest.mark.parametrize("kind", ["l1", "linf", "euclid"])
@pytest.mark.parametrize("case", sorted(_DEGENERATE_ACTIVE))
def test_coderivative_norm_matches_scipy_on_degenerate_active_rows(case, kind):
    pytest.importorskip("scipy")
    A_act = np.array(_DEGENERATE_ACTIVE[case])
    rows = [(f"a{i}", a, 0.0) for i, a in enumerate(A_act)]
    rows += [("s0", [0.0, 0.0, 1.0], 1.0), ("s1", [0.0, 0.0, -1.0], 1.0),
             ("s2", [-1.0, 0.0, 0.0], 2.0)]
    system = LinearSystem(3, tuple(rows), NormSpec(kind))
    rep = coderivative_norm(system, BlockPartition.maximum(system.labels), [0.0, 0.0, 0.0])
    assert rep.value == pytest.approx(_scipy_coderivative_norm(A_act, kind), rel=1e-9)


class TestEpsActive:
    def test_demo_truncation_half(self):
        res = eps_active(demo_truncation(5), [0.0, 0.0], 0.5)
        assert res.indices == ("0",)
        assert res.report.bound == pytest.approx(INV_SQRT2, abs=1e-12)
        assert res.matches_full

    def test_halfspace_any_eps(self):
        system = LinearSystem(2, (("t", [3.0, 4.0], 5.0),))
        for eps in (0.0, 0.1, 10.0):
            res = eps_active(system, [0.6, 0.8], eps)
            assert res.indices == ("t",)
            assert res.report.bound == pytest.approx(0.2)

    def test_box_interior_empty(self):
        res = eps_active(box_system(), [0.0, 0.0], 0.5)
        assert res.indices == ()
        assert res.report.bound == 0.0 and res.report.regime == "SlaterPoint"
        assert res.matches_full  # interior anchor: full bound is 0 as well

    def test_monotone_in_eps(self, rng):
        for _ in range(10):
            system, xbar = random_boundary_instance(rng)
            bounds = []
            for eps in (0.0, 0.1, 0.5, 2.0, 10.0):
                bounds.append(eps_active(system, xbar, eps).report.bound)
            for small, large in zip(bounds, bounds[1:]):
                assert large >= small - 1e-9
            full = lip_bound(system, xbar).bound
            assert bounds[-1] == pytest.approx(full, rel=1e-9)

    def test_negative_eps_rejected(self):
        with pytest.raises(ValueError):
            eps_active(box_system(), [0.0, 0.0], -0.1)


def test_equality_chain_on_random_boundary_instances(rng):
    # coderivative_norm cross-asserts against lip_bound internally
    for _ in range(40):
        system, xbar = random_boundary_instance(rng)
        part = random_partition(rng, system.labels, 2)
        rep = coderivative_norm(system, part, xbar)
        assert np.isfinite(rep.value)
        assert rep.value == pytest.approx(rep.lip_cross, rel=1e-6)
