from collections import namedtuple

import numpy as np
import pytest
from hypothesis import given, settings, strategies as st

from lipstab.convex import (
    AffineFn,
    CutConfig,
    MaxAffineFn,
    QuadraticFn,
    ScaledNormFn,
    _cut_points,
    _extend,
    conjugate_value,
    distance_convex,
    eval_sub,
    linearize,
    lip_bound_convex,
)
from lipstab.errors import InfeasibleAnchorError, InfeasibleRegionError, NonConvergentError
from lipstab.model import BlockPartition, LinearSystem
from lipstab.norms import NormSpec, norm_value
from lipstab.solvers.projection import project_polyhedron
from lipstab.stability import REGIME_SSC_FAILS, lip_bound

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


# Frozen oracle: the cut pipeline as it stood before the cuts were kept as
# arrays.  Each new cut is tested in Python against every cut kept so far in
# its round and block, a refinement round is merged by a second such scan
# against the block's older cuts, and the Kelley loop re-stacks Python lists.
# The array code must reproduce it bit for bit.

_OracleLin = namedtuple("_OracleLin", "system partition samples")  # sample: (block, u, f*, x)


def _oracle_cut_points(anchor, cfg, block_idx, dimension, budget, round_idx=0, centers=None):
    pts = [np.asarray(anchor, dtype=float)]
    if centers is None:
        centers = [np.asarray(anchor, dtype=float)]
    i = 0
    while len(pts) < budget + 1:
        for i in range(i, i + budget + 1 - len(pts)):
            d = np.random.default_rng((cfg.seed, round_idx, block_idx, i)).normal(size=dimension)
            nrm = np.linalg.norm(d)
            if nrm > 1e-12:
                pts.append(centers[i % len(centers)] + cfg.radii[i % len(cfg.radii)] * d / nrm)
        i += 1
    return pts


def _oracle_linearize(fs, cfg, anchor, norm=NormSpec(), block_labels=None, round_idx=0,
                      centers_per_block=None, extra_budget=None):
    anchor = np.asarray(anchor, dtype=float)
    if block_labels is None:
        block_labels = [str(j) for j in range(len(fs))]
    rows, blocks, samples = [], [], []
    budget = extra_budget if extra_budget is not None else cfg.budget
    for j, f in enumerate(fs):
        centers = None if centers_per_block is None else centers_per_block[j]
        pts = _oracle_cut_points(anchor, cfg, j, f.dimension, budget, round_idx, centers)
        seen, members = [], []
        for i, xs in enumerate(pts):
            val, u = eval_sub(f, xs)
            if any(np.abs(u - prev).max(initial=0.0) <= 1e-12 for prev in seen):
                continue
            seen.append(u)
            fstar = float(u @ xs - val)
            label = f"(j={block_labels[j]}, sample {round_idx}.{i})"
            rows.append((label, u, fstar))
            members.append(label)
            samples.append((block_labels[j], u, fstar, xs))
        blocks.append((block_labels[j], tuple(members)))
    system = LinearSystem(anchor.shape[0], tuple(rows), norm)
    return _OracleLin(system, BlockPartition(tuple(blocks)), tuple(samples))


def _oracle_merge(lin, extra):
    rows, samples = list(lin.system.rows), list(lin.samples)
    blocks = {j: list(members) for j, members in lin.partition.blocks}
    existing = {j: [r[1] for r in lin.system.rows if r[0] in set(members)]
                for j, members in lin.partition.blocks}
    for (label, u, fstar), sample in zip(extra.system.rows, extra.samples):
        us = existing.setdefault(sample[0], [])
        if any(np.abs(u - prev).max(initial=0.0) <= 1e-12 for prev in us):
            continue
        us.append(u)
        rows.append((label, u, fstar))
        samples.append(sample)
        blocks[sample[0]].append(label)
    return _OracleLin(LinearSystem(lin.system.dimension, tuple(rows), lin.system.norm),
                      BlockPartition(tuple((j, tuple(m)) for j, m in blocks.items())),
                      tuple(samples))


def _oracle_lip_bound_convex(fs, anchor, cfg=CutConfig(), norm=NormSpec(), tol=1e-9):
    anchor = np.asarray(anchor, dtype=float)
    lin = _oracle_linearize(fs, cfg, anchor, norm)
    report = lip_bound(lin.system, anchor, tol)
    history = [report.bound]
    if report.regime == REGIME_SSC_FAILS:
        return np.inf, REGIME_SSC_FAILS, tuple(history), True, lin, None
    converged = False
    for round_idx in range(1, cfg.refine_rounds + 1):
        by_block = {j: [anchor] for j, _ in lin.partition.blocks}
        if report.slice_weights is not None:
            for w, sample in zip(report.slice_weights, lin.samples):
                if w > 1e-10:
                    by_block[sample[0]].append(sample[3])
        centers = [by_block[j] for j, _ in lin.partition.blocks]
        extra = _oracle_linearize(fs, cfg, anchor, norm, round_idx=round_idx,
                                  centers_per_block=centers, extra_budget=cfg.refine_budget)
        lin = _oracle_merge(lin, extra)
        report = lip_bound(lin.system, anchor, tol)
        history.append(report.bound)
        if report.regime == REGIME_SSC_FAILS:
            return np.inf, REGIME_SSC_FAILS, tuple(history), True, lin, None
        prev, cur = history[-2], history[-1]
        if np.isfinite(cur) and abs(cur - prev) < cfg.rel_tol * max(1.0, abs(cur)):
            converged = True
            break
    if len(history) < 2:
        converged = True
    return report.bound, report.regime, tuple(history), converged, lin, report.slice_weights


def _oracle_distance_convex(fs, p, x, norm=NormSpec(), tol=1e-8):
    x = np.asarray(x, dtype=float)
    p = np.asarray(p, dtype=float)
    cuts, rhs = [], []
    for j, f in enumerate(fs):
        val, u = eval_sub(f, x)
        cuts.append(u)
        rhs.append(float(u @ x - val) + p[j])
    y = x
    for _ in range(500):
        viols = np.array([f.value(y) - p[j] for j, f in enumerate(fs)])
        if float(viols.max()) <= tol:
            return norm_value(norm.kind, y - x)
        for j in np.where(viols > tol)[0]:
            val, u = eval_sub(fs[j], y)
            cuts.append(u)
            rhs.append(float(u @ y - val) + p[j])
        try:
            _, y = project_polyhedron(x, np.array(cuts), np.array(rhs), norm)
        except InfeasibleRegionError:
            raise InfeasibleRegionError("empty")
    raise NonConvergentError("cap", partial=y)


def _same_bytes(a, b):
    a, b = np.asarray(a), np.asarray(b)
    return a.shape == b.shape and a.dtype == b.dtype and a.tobytes() == b.tobytes()


def _assert_same_linearization(lin, oracle):
    """Labels and their order, u and f* bytes, partition, blocks and sample points."""
    assert lin.system.labels == oracle.system.labels
    assert _same_bytes(lin.system.coefficient_matrix(), oracle.system.coefficient_matrix())
    assert _same_bytes(lin.system.rhs_vector(), oracle.system.rhs_vector())
    assert lin.partition.blocks == oracle.partition.blocks
    names = [j for j, _ in oracle.partition.blocks]
    assert lin.block.tolist() == [names.index(s[0]) for s in oracle.samples]
    n = lin.system.dimension
    assert _same_bytes(lin.provenance, np.reshape([s[3] for s in oracle.samples], (-1, n)))


class _Scripted:
    """A stand-in convex function whose subgradients are read from a script, one per call."""

    dimension = 2

    def __init__(self, us):
        self._us = iter(us)

    def value(self, x):
        return 0.5 * float(x @ x)

    def subgradient(self, x):
        return np.array(next(self._us), dtype=float)


def _scripted_rounds(scripts, budget, refine_budget, rounds, oracle):
    """Round 0 at budget, then rounds - 1 refinement rounds of refine_budget, centered on the anchor."""
    fs = [_Scripted(s) for s in scripts]
    cfg = CutConfig(budget=budget, seed=5)
    anchor = np.array([0.25, -0.5])
    if oracle:
        lin = _oracle_linearize(fs, cfg, anchor)
        for r in range(1, rounds):
            lin = _oracle_merge(lin, _oracle_linearize(fs, cfg, anchor, round_idx=r,
                                                       extra_budget=refine_budget))
        return lin
    lin = linearize(fs, cfg, anchor)
    for r in range(1, rounds):
        lin = _extend(lin, fs, cfg, anchor, r, refine_budget, [None] * len(fs))
    return lin


_JUST_ABOVE = float(np.nextafter(1e-12, 1.0))
# coordinates that repeat exactly, sit 1e-12 apart, or just over it
_COORD = st.builds(lambda base, off: base + off,
                   st.sampled_from([0.0, 1.0, -0.75]),
                   st.sampled_from([0.0, 5e-13, 1e-12, -1e-12, _JUST_ABOVE, -_JUST_ABOVE,
                                    2e-12, 3e-12, 1e-6]))
_U = st.lists(_COORD, min_size=2, max_size=2)


class TestDuplicateRuleAgainstOracle:
    @settings(max_examples=300, deadline=None)
    @given(st.data())
    def test_kept_cuts_match_the_frozen_oracle(self, data):
        n_blocks = data.draw(st.integers(1, 3), label="blocks")
        rounds = data.draw(st.integers(1, 4), label="rounds")
        budget = data.draw(st.integers(0, 6), label="budget")
        refine_budget = data.draw(st.integers(0, 5), label="refine_budget")
        calls = budget + 1 + (rounds - 1) * (refine_budget + 1)
        scripts = [data.draw(st.lists(_U, min_size=calls, max_size=calls), label=f"block {j}")
                   for j in range(n_blocks)]
        args = (scripts, budget, refine_budget, rounds)
        _assert_same_linearization(_scripted_rounds(*args, oracle=False),
                                   _scripted_rounds(*args, oracle=True))

    def test_nontransitive_chain_drops_both(self):
        # a is within 1e-12 of the older e, b within 1e-12 of a but not of e:
        # both go, because b is tested against a before a meets e
        e, a, b = [0.0, 0.0], [1e-12, 0.0], [2e-12, 0.0]
        assert np.abs(np.subtract(b, a)).max() <= 1e-12 < np.abs(np.subtract(b, e)).max()
        scripts = [[e, [1.0, 1.0], a, b, [2.0, 1.0]]]
        lin = _scripted_rounds(scripts, 1, 2, 2, oracle=False)
        assert lin.system.labels == ("(j=0, sample 0.0)", "(j=0, sample 0.1)",
                                     "(j=0, sample 1.2)")
        _assert_same_linearization(lin, _scripted_rounds(scripts, 1, 2, 2, oracle=True))


def _pin_systems():
    """Seeded (functions, anchor, norm) of every class, most active at the anchor.

    The max_affine and the l1 and linf scaled norms have a kink at the
    anchor, so cuts sampled away from it support the slice minimizer and
    steer the refinement.
    """
    rng = np.random.default_rng(20260415)
    out = []
    for case in range(8):
        n = 2 if case < 4 else 3
        anchor = rng.normal(size=n) * 0.5
        M = rng.normal(size=(n, n))
        Q = M @ M.T + np.eye(n)
        c = rng.normal(size=n)
        quad = QuadraticFn(Q, c, -(0.5 * anchor @ Q @ anchor + c @ anchor))
        C = rng.normal(size=(3, n))
        D = -(C @ anchor) - [0.0, 0.0, 0.5]  # pieces 0 and 1 tie at the anchor
        maxaff = MaxAffineFn(C[[0, 0, 1, 1, 2]], D[[0, 0, 1, 1, 2]])  # repeated pieces
        z = rng.normal(size=(3, n))
        z[1, 0] = 0.0          # l1 kink
        z[2, 1] = -z[2, 0]     # linf tie
        kinds = ("euclid", "l1", "linf")
        norms = [ScaledNormFn(k, anchor - zk, -k * norm_value(kind, zk), kind)
                 for k, zk, kind in zip(rng.uniform(0.5, 2.0, size=3), z, kinds)]
        affine = AffineFn(c, -float(c @ anchor))
        fs = [[quad], [maxaff], [norms[0], quad], [norms[1], quad], [norms[2], affine],
              [affine], [QuadraticFn(Q, c, quad.r - 0.3), maxaff], [norms[1], maxaff]][case]
        out.append((fs, anchor, NormSpec(kinds[case % 3])))
    out.append(([SQUARE], np.zeros(1), NormSpec()))  # the strong Slater condition fails
    return out


def _outcome(fn, *args):
    try:
        return fn(*args)
    except (InfeasibleRegionError, NonConvergentError) as exc:
        return type(exc).__name__


class TestConvexRoutesAgainstOracle:
    @pytest.mark.parametrize("case", range(9))
    # the default plan; every refinement round run (rel_tol 0); no refinement
    @pytest.mark.parametrize("plan", [{}, {"budget": 8, "rel_tol": 0.0}, {"refine_rounds": 0}])
    def test_lip_bound_convex_bit_equal(self, case, plan):
        fs, anchor, norm = _pin_systems()[case]
        cfg = CutConfig(seed=case, **plan)
        rep = lip_bound_convex(fs, anchor, cfg, norm)
        bound, regime, history, converged, lin, weights = _oracle_lip_bound_convex(
            fs, anchor, cfg, norm)
        assert _same_bytes(rep.history, history) and _same_bytes(rep.bound, bound)
        assert (rep.regime, rep.converged) == (regime, converged)
        assert (rep.slice_weights is None) == (weights is None)
        if weights is not None:
            assert _same_bytes(rep.slice_weights, weights)
        _assert_same_linearization(rep.linearization, lin)

    @pytest.mark.parametrize("case", range(9))
    @pytest.mark.parametrize("budget", [0, 4, 64])
    def test_linearize_bit_equal(self, case, budget):
        fs, anchor, norm = _pin_systems()[case]
        cfg = CutConfig(budget=budget, seed=3)
        _assert_same_linearization(linearize(fs, cfg, anchor, norm),
                                   _oracle_linearize(fs, cfg, anchor, norm))

    @pytest.mark.parametrize("case", range(9))
    def test_distance_convex_bit_equal(self, case):
        fs, anchor, norm = _pin_systems()[case]
        rng = np.random.default_rng(case)
        u = rng.normal(size=anchor.shape[0])
        x = anchor + 1.5 * u / np.linalg.norm(u)
        p = rng.uniform(0.0, 0.2, size=len(fs))
        got = _outcome(distance_convex, fs, p, x, norm)
        want = _outcome(_oracle_distance_convex, fs, p, x, norm)
        assert _same_bytes(got, want)

    def test_affine_gives_a_single_cut(self):
        fs, anchor, norm = _pin_systems()[5]
        assert len(linearize(fs, CutConfig(budget=64), anchor, norm).system.rows) == 1
