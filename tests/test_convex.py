import json
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
    conjugate_value,
    distance_convex,
    eval_sub,
    linearize,
    lip_bound_convex,
)
from lipstab.cli import run_cli
from lipstab.errors import InfeasibleAnchorError, InfeasibleRegionError, NonConvergentError
from lipstab.model import BlockPartition, LinearSystem
from lipstab.norms import NormSpec, norm_value
from lipstab.solvers.projection import project_polyhedron
from lipstab.stability import REGIME_SLATER, lip_bound

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
        # point i of block j is drawn by default_rng((seed, 0, j, i))
        cfg = CutConfig(seed=2**32 + 1)
        anchor = np.array([0.3, -0.2, 0.1])
        for block_idx in (0, 1):
            ref = [anchor]
            for i in range(40):
                d = np.random.default_rng((cfg.seed, 0, block_idx, i)).normal(size=3)
                ref.append(anchor + cfg.radii[i % len(cfg.radii)] * d / np.linalg.norm(d))
            pts = _cut_points(anchor, cfg, block_idx, 3, 40)
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
        # the sampled route: a larger budget draws a superset of the cut points
        bounds = []
        for budget in (4, 8, 16, 32):
            lin = linearize([SQUARE_SHIFTED], CutConfig(budget=budget, seed=9), [1.0])
            bounds.append(lip_bound(lin.system, [1.0]).bound)
        for small, large in zip(bounds, bounds[1:]):
            assert large >= small - 1e-12
        assert bounds[-1] <= lip_bound_convex([SQUARE_SHIFTED], [1.0]).bound + 1e-12


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
# its block, and the Kelley loop re-stacks Python lists.  The exact route's
# subdifferential vertices are enumerated per class in Python loops.  The
# array code must reproduce it bit for bit.

_OracleLin = namedtuple("_OracleLin", "system partition")


def _oracle_cut_points(anchor, cfg, block_idx, dimension, budget):
    pts = [np.asarray(anchor, dtype=float)]
    i = 0
    while len(pts) < budget + 1:
        for i in range(i, i + budget + 1 - len(pts)):
            d = np.random.default_rng((cfg.seed, 0, block_idx, i)).normal(size=dimension)
            nrm = np.linalg.norm(d)
            if nrm > 1e-12:
                pts.append(pts[0] + cfg.radii[i % len(cfg.radii)] * d / nrm)
        i += 1
    return pts


def _oracle_linearize(fs, cfg, anchor, norm=NormSpec(), block_labels=None):
    anchor = np.asarray(anchor, dtype=float)
    if block_labels is None:
        block_labels = [str(j) for j in range(len(fs))]
    rows, blocks = [], []
    for j, f in enumerate(fs):
        pts = _oracle_cut_points(anchor, cfg, j, f.dimension, cfg.budget)
        seen, members = [], []
        for i, xs in enumerate(pts):
            val, u = eval_sub(f, xs)
            if any(np.abs(u - prev).max(initial=0.0) <= 1e-12 for prev in seen):
                continue
            seen.append(u)
            fstar = float(u @ xs - val)
            label = f"(j={block_labels[j]}, sample 0.{i})"
            rows.append((label, u, fstar))
            members.append(label)
        blocks.append((block_labels[j], tuple(members)))
    system = LinearSystem(anchor.shape[0], tuple(rows), norm)
    return _OracleLin(system, BlockPartition(tuple(blocks)))


def _oracle_vertices(f, x, tol):
    """Subdifferential vertices of f at x, one class at a time, in plain Python loops."""
    if isinstance(f, AffineFn):
        return [f.c]
    if isinstance(f, QuadraticFn):
        return [f.Q @ x + f.c]
    if isinstance(f, MaxAffineFn):
        vals = f.pieces_c @ x + f.pieces_d
        top = max(vals)
        return [f.pieces_c[i] for i in range(len(vals)) if vals[i] >= top - tol]
    z = x - f.shift
    n = z.shape[0]
    if f.kappa * norm_value(f.kind, z) <= tol:
        return [np.zeros(n)]
    if f.kind == "euclid":
        return [f.kappa * z / np.linalg.norm(z)]
    if f.kind == "l1":
        free = [k for k in range(n) if 2.0 * f.kappa * abs(z[k]) <= tol]
        out = []
        for r in range(2 ** len(free)):  # bit t of r flips free coordinate t to minus
            u = f.kappa * np.sign(z)
            for t, k in enumerate(free):
                u[k] = f.kappa * (1.0 - 2.0 * ((r >> t) & 1))
            out.append(u)
        return out
    a = np.abs(z)
    out = []
    for k in range(n):
        if f.kappa * (a.max() - a[k]) <= tol:
            u = np.zeros(n)
            u[k] = f.kappa * np.sign(z[k])
            out.append(u)
    return out


def _oracle_lip_bound_convex(fs, anchor, norm=NormSpec(), tol=1e-9):
    """(bound, regime, history) from one row per vertex of every active function."""
    anchor = np.asarray(anchor, dtype=float)
    rows = []
    for j, f in enumerate(fs):
        v = f.value(anchor)
        if v > tol:
            raise InfeasibleAnchorError("anchor")
        if v < -tol:
            continue
        for k, u in enumerate(_oracle_vertices(f, anchor, tol)):
            rows.append((f"(j={j}, vertex {k})", u, float(u @ anchor - v)))
    if not rows:
        return 0.0, REGIME_SLATER, (0.0,)
    rep = lip_bound(LinearSystem(anchor.shape[0], tuple(rows), norm), anchor, tol)
    return rep.bound, rep.regime, (rep.bound,)


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
    """Labels and their order, u and f* bytes, and the partition."""
    assert lin.system.labels == oracle.system.labels
    assert _same_bytes(lin.system.coefficient_matrix(), oracle.system.coefficient_matrix())
    assert _same_bytes(lin.system.rhs_vector(), oracle.system.rhs_vector())
    assert lin.partition.blocks == oracle.partition.blocks


class _Scripted:
    """A stand-in convex function whose subgradients are read from a script, one per call."""

    dimension = 2

    def __init__(self, us):
        self._us = iter(us)

    def value(self, x):
        return 0.5 * float(x @ x)

    def subgradient(self, x):
        return np.array(next(self._us), dtype=float)


def _scripted_linearization(scripts, budget, oracle):
    """One linearization at budget, centered on the anchor, by the array code or the oracle."""
    fs = [_Scripted(sc) for sc in scripts]
    build = _oracle_linearize if oracle else linearize
    return build(fs, CutConfig(budget=budget, seed=5), np.array([0.25, -0.5]))


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
        budget = data.draw(st.integers(0, 20), label="budget")
        scripts = [data.draw(st.lists(_U, min_size=budget + 1, max_size=budget + 1),
                             label=f"block {j}")
                   for j in range(n_blocks)]
        _assert_same_linearization(_scripted_linearization(scripts, budget, oracle=False),
                                   _scripted_linearization(scripts, budget, oracle=True))

    def test_nontransitive_chain_keeps_the_far_end(self):
        # a is within 1e-12 of the kept e and goes; b is within 1e-12 of a but
        # not of e, and only kept cuts drop later ones, so b stays
        e, a, b = [0.0, 0.0], [1e-12, 0.0], [2e-12, 0.0]
        assert np.abs(np.subtract(b, a)).max() <= 1e-12 < np.abs(np.subtract(b, e)).max()
        scripts = [[e, [1.0, 1.0], a, b, [2.0, 1.0]]]
        lin = _scripted_linearization(scripts, 4, oracle=False)
        assert lin.system.labels == ("(j=0, sample 0.0)", "(j=0, sample 0.1)",
                                     "(j=0, sample 0.3)", "(j=0, sample 0.4)")
        _assert_same_linearization(lin, _scripted_linearization(scripts, 4, oracle=True))


def _pin_draws():
    """Seeded functions of every class with their anchor, most active there.

    The max_affine and the l1 and linf scaled norms have a kink at the
    anchor, so the exact route needs every vertex of their subdifferentials.
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
        out.append((dict(quad=quad, maxaff=maxaff, norms=norms, affine=affine,
                         quad_inactive=QuadraticFn(Q, c, quad.r - 0.3)), anchor))
    return out


def _pin_systems():
    """Seeded (functions, anchor, norm) of every class, most active at the anchor."""
    out = []
    for case, (d, anchor) in enumerate(_pin_draws()):
        fs = [[d["quad"]], [d["maxaff"]], [d["norms"][0], d["quad"]],
              [d["norms"][1], d["quad"]], [d["norms"][2], d["affine"]], [d["affine"]],
              [d["quad_inactive"], d["maxaff"]], [d["norms"][1], d["maxaff"]]][case]
        out.append((fs, anchor, NormSpec(("euclid", "l1", "linf")[case % 3])))
    out.append(([SQUARE], np.zeros(1), NormSpec()))  # the strong Slater condition fails
    return out


def _outcome(fn, *args):
    try:
        return fn(*args)
    except (InfeasibleRegionError, NonConvergentError) as exc:
        return type(exc).__name__


class TestConvexRoutesAgainstOracle:
    @pytest.mark.parametrize("case", range(9))
    # the default tolerance; a looser one; a tighter one
    @pytest.mark.parametrize("plan", [{}, {"tol": 1e-6}, {"tol": 1e-12}])
    def test_lip_bound_convex_bit_equal(self, case, plan):
        fs, anchor, norm = _pin_systems()[case]
        rep = lip_bound_convex(fs, anchor, norm, **plan)
        bound, regime, history = _oracle_lip_bound_convex(fs, anchor, norm, **plan)
        assert _same_bytes(rep.bound, bound) and _same_bytes(rep.history, history)
        assert rep.regime == regime

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


def _convex_doc_family(rng):
    """A quadratic, a max_affine and a Euclidean scaled norm in R^3, and the anchor.

    The quadratic and the top affine piece are tight at the anchor; the
    scaled norm sits 0.5 below zero there.
    """
    n = 3
    anchor = rng.normal(size=n) * 0.5
    M = rng.normal(size=(n, n))
    Q = M @ M.T + np.eye(n)
    c = rng.normal(size=n)
    quad = QuadraticFn(Q, c, -(0.5 * anchor @ Q @ anchor + c @ anchor))
    C = rng.normal(size=(3, n))
    maxaff = MaxAffineFn(C, np.array([0.0, -0.5, -1.0]) - C @ anchor)
    kappa, shift = rng.uniform(0.5, 2.0), rng.normal(size=n)
    norm_fn = ScaledNormFn(kappa, shift, -0.5 - kappa * np.linalg.norm(anchor - shift))
    return [quad, maxaff, norm_fn], anchor


def _assert_sampled_route_agrees(fs, anchor, norm, seed):
    """The sampled cuts' bound meets the exact one at budget 64 and never passes it below."""
    exact = lip_bound_convex(fs, anchor, norm)
    assert exact.history == (exact.bound,)
    for budget in (4, 8, 16, 32, 64):
        lin = linearize(fs, CutConfig(budget=budget, seed=seed), anchor, norm)
        sampled = lip_bound(lin.system, anchor)
        assert sampled.bound <= exact.bound * (1.0 + 1e-12)
    assert sampled.regime == exact.regime
    assert sampled.bound == pytest.approx(exact.bound, rel=1e-12)


class TestExactRoute:
    """lip_bound_convex from the anchor's subgradient vertices, against the sampled route."""

    @pytest.mark.parametrize("case", range(9))
    def test_sampled_route_agrees_on_pin_systems(self, case):
        fs, anchor, norm = _pin_systems()[case]
        _assert_sampled_route_agrees(fs, anchor, norm, case)

    def test_sampled_route_agrees_on_convex_doc_draws(self):
        for seed in range(40):
            fs, anchor = _convex_doc_family(np.random.default_rng(seed))
            _assert_sampled_route_agrees(fs, anchor, NormSpec(), seed)

    @pytest.mark.parametrize("case", range(9))
    def test_vertices_sit_on_the_conjugate_graph(self, case):
        # Fenchel-Young equality f*(u) = <u, anchor> - f(anchor), with f*
        # computed by each class's own conjugate (an LP for max_affine)
        fs, anchor, _ = _pin_systems()[case]
        for f in fs:
            for u in f.subdifferential(anchor, 1e-9):
                assert conjugate_value(f, u) == pytest.approx(
                    u @ anchor - f.value(anchor), abs=1e-9)

    def test_l1_box_vertices(self):
        # |x1| + |x2| - 1 and x2 at (1, 0): cuts (1, 1), (1, -1) and (0, 1),
        # whose hull is 1/sqrt(5) from the origin; sign(0) alone gives sqrt(2)
        fs = [ScaledNormFn(1.0, [0.0, 0.0], -1.0, "l1"), AffineFn([0.0, 1.0], 0.0)]
        assert fs[0].subdifferential([1.0, 0.0], 1e-9).tolist() == [[1.0, 1.0], [1.0, -1.0]]
        rep = lip_bound_convex(fs, [1.0, 0.0])
        assert (rep.regime, rep.history) == ("Regular", (rep.bound,))
        assert rep.bound == pytest.approx(np.sqrt(5.0), rel=1e-12)

    def test_linf_ties(self):
        # 2 max(|x1|, |x2|, |x3|) - 2 at (1, -1, 0.5): cuts (2, 0, 0) and (0, -2, 0),
        # whose hull is sqrt(2) from the origin; the first tie alone gives 2
        f = ScaledNormFn(2.0, [0.0, 0.0, 0.0], -2.0, "linf")
        anchor = [1.0, -1.0, 0.5]
        assert f.subdifferential(anchor, 1e-9).tolist() == [[2.0, 0, 0], [0, -2.0, 0]]
        assert lip_bound_convex([f], anchor).bound == pytest.approx(1 / np.sqrt(2.0), rel=1e-12)

    def test_max_affine_ties_with_repeated_pieces(self):
        # max(x1, x1, x2, -x1 - x2 - 5) at 0: the pieces x1 (twice) and x2 tie,
        # whose hull is 1/sqrt(2) from the origin; the first max alone gives 1
        f = MaxAffineFn([[1.0, 0.0], [1.0, 0.0], [0.0, 1.0], [-1.0, -1.0]],
                        [0.0, 0.0, 0.0, -5.0])
        assert f.subdifferential([0.0, 0.0], 1e-9).tolist() == [[1, 0], [1, 0], [0, 1]]
        assert lip_bound_convex([f], [0.0, 0.0]).bound == pytest.approx(np.sqrt(2.0), rel=1e-12)

    @pytest.mark.parametrize("kind", ["euclid", "l1", "linf"])
    def test_scaled_norm_at_its_shift_fails_ssc(self, kind):
        f = ScaledNormFn(1.5, [0.3, -0.7], 0.0, kind)
        assert f.subdifferential([0.3, -0.7], 1e-9).tolist() == [[0.0, 0.0]]
        rep = lip_bound_convex([f], [0.3, -0.7], NormSpec(kind))
        assert (rep.bound, rep.regime, rep.history) == (np.inf, "SSCFails", (np.inf,))

    def test_scaled_norm_within_tol_of_its_shift_is_a_slater_point(self):
        # f(0) = -1e-10 is within tol, but the function's one vertex, 0, gives
        # the row 0 x <= 1e-10, which is never tight: 0 is a Slater point
        rep = lip_bound_convex([ScaledNormFn(1.0, [0.0, 0.0], -1e-10)], [0.0, 0.0])
        assert (rep.bound, rep.regime) == (0.0, "SlaterPoint")

    @pytest.mark.parametrize("case", range(9))
    @pytest.mark.parametrize("tol", [0.05, 0.5])
    def test_loose_tol_keeps_the_routes_together(self, case, tol):
        # the regime and bound stay lip_bound's two routes at any tol; a
        # whole-system SSC check at this tol parted from the hull route
        fs, anchor, norm = _pin_systems()[case]
        rep = lip_bound_convex(fs, anchor, norm, tol)
        assert (rep.regime == "SSCFails") == np.isinf(rep.bound)
        if (case, tol) == (1, 0.05):
            assert (rep.bound, rep.regime) == (pytest.approx(51.34064245167125, rel=1e-9),
                                               "Regular")

    def test_no_active_function_is_a_slater_point(self):
        rep = lip_bound_convex([SQUARE_SHIFTED, AffineFn([1.0], -5.0)], [0.0])
        assert (rep.bound, rep.regime, rep.history) == (0.0, "SlaterPoint", (0.0,))

    def test_vertex_cap_raises(self):
        # an l1 kink in k zero coordinates has 2^k vertices: 2^16 are built, 2^17 raise
        at_cap = ScaledNormFn(1.0, np.zeros(17), -1.0, "l1").subdifferential(np.eye(17)[0], 1e-9)
        assert len(np.unique(at_cap, axis=0)) == 2**16
        f = ScaledNormFn(1.0, np.zeros(18), -1.0, "l1")
        with pytest.raises(NonConvergentError, match="convex inequality 1: .*2\\^17"):
            lip_bound_convex([AffineFn(np.ones(18), -1.0), f], np.eye(18)[0])

    def test_tied_pieces_with_a_quadratic_fail_ssc_through_the_cli(self, tmp_path, capsys):
        # the draw of pin case 3 with the functions [maxaff, quad]: the sampled
        # cuts once gave an SSC disagreement (exit 4) at --seed 3
        d, anchor = _pin_draws()[3]
        maxaff, quad = d["maxaff"], d["quad"]
        doc = {"version": "lipstab-v1", "dimension": 2, "norm": "euclid", "convex": [
            {"block": "ma", "class": "max_affine",
             "pieces": [{"c": c.tolist(), "d": float(dd)}
                        for c, dd in zip(maxaff.pieces_c, maxaff.pieces_d)]},
            {"block": "q", "class": "quadratic", "Q": quad.Q.tolist(), "c": quad.c.tolist(),
             "r": quad.r}]}
        path = tmp_path / "tied.json"
        path.write_text(json.dumps(doc))
        for seed in ("0", "3"):
            code = run_cli(["lip", "--system", str(path), "--seed", seed,
                            "--anchor=" + ",".join(repr(float(v)) for v in anchor)])
            assert code == 0
            verdict = capsys.readouterr().out.splitlines()[-1]
            assert verdict == "lip=inf regime=SSCFails converged=true"
