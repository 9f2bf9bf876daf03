import tracemalloc

import numpy as np
import pytest
from scipy.optimize import minimize

from conftest import (
    box_system,
    demo_truncation,
    random_boundary_instance,
    random_partition,
    ssc_failing_feasible,
)
from lipstab import estimator
from lipstab.errors import InfeasibleRegionError
from lipstab.estimator import SamplingConfig, empirical_lip, partition_compare
from lipstab.model import BlockPartition, LinearSystem, block_assignment, block_residual_sup
from lipstab.norms import NormSpec
from lipstab.solvers import projection
from lipstab.solvers.projection import project_polyhedron
from lipstab.solvers.simplex import StatusKind, lp_solve
from lipstab.stability import lip_bound


def test_config_validation():
    with pytest.raises(ValueError):
        SamplingConfig(radii=(1e-3, 1e-2))
    with pytest.raises(ValueError):
        SamplingConfig(radii=())
    with pytest.raises(ValueError):
        SamplingConfig(samples_per_radius=0)


def test_halfspace_quotient_constant():
    system = LinearSystem(2, (("t", [3.0, 4.0], 5.0),))
    part = BlockPartition.maximum(system.labels)
    cfg = SamplingConfig(radii=(1e-1, 1e-2), samples_per_radius=200, seed=4)
    rep = empirical_lip(system, part, [0.6, 0.8], cfg)
    for stats in rep.per_radius:
        assert stats.max_quotient == pytest.approx(0.2, abs=1e-9)
    assert rep.estimate == pytest.approx(0.2, abs=1e-9)


def test_interior_anchor_all_zero_over_zero():
    system = LinearSystem(2, (("t", [1.0, 0.0], 1.0),))
    part = BlockPartition.maximum(system.labels)
    cfg = SamplingConfig(radii=(0.25,), samples_per_radius=64, seed=1)
    rep = empirical_lip(system, part, [0.0, 0.0], cfg)
    assert rep.estimate == 0.0
    assert rep.per_radius[0].zero_over_zero == 64


def test_ssc_failure_reports_infinity(rng):
    system, xbar = ssc_failing_feasible(rng)
    part = BlockPartition.maximum(system.labels)
    rep = empirical_lip(system, part, xbar,
                        SamplingConfig(radii=(0.1,), samples_per_radius=1, seed=0))
    assert rep.estimate == np.inf
    assert any("ssc" in n for n in rep.notes)


def test_bit_reproducible_for_fixed_seed(rng):
    system, xbar = random_boundary_instance(rng, n=3, m=8)
    part = random_partition(rng, system.labels, 3)
    cfg = SamplingConfig(radii=(1e-2,), samples_per_radius=150, seed=99)
    a = empirical_lip(system, part, xbar, cfg)
    b = empirical_lip(system, part, xbar, cfg)
    assert a == b


def test_zero_over_zero_never_changes_maximum():
    # 0/0 samples contribute exactly 0; the reported max comes from the rest
    system = LinearSystem(2, (("t", [1.0, 0.0], 1.0),))
    part = BlockPartition.maximum(system.labels)
    cfg = SamplingConfig(radii=(0.5,), samples_per_radius=400, seed=2)
    rep = empirical_lip(system, part, [0.9, 0.0], cfg)
    stats = rep.per_radius[0]
    assert 0 < stats.zero_over_zero < stats.samples
    assert stats.max_quotient == pytest.approx(1.0, abs=1e-9)


def test_quotients_dominated_by_exact_bound(rng):
    for _ in range(8):
        system, xbar = random_boundary_instance(rng, n=3, m=8)
        part = random_partition(rng, system.labels, 2)
        lip = lip_bound(system, xbar).bound
        cfg = SamplingConfig(radii=(1e-3,), samples_per_radius=400, seed=11)
        rep = empirical_lip(system, part, xbar, cfg)
        assert rep.estimate <= lip * 1.05 + 1e-9
        assert rep.estimate >= 0.9 * lip


def test_fixed_anchor_mode():
    system = demo_truncation(4)
    part = BlockPartition.maximum(system.labels)
    cfg = SamplingConfig(radii=(1e-2,), samples_per_radius=100, seed=3,
                         perturb_anchor=False)
    rep = empirical_lip(system, part, [0.0, 0.0], cfg)
    assert 0.0 <= rep.estimate <= 1.0 / np.sqrt(2) * 1.05 + 1e-9


def test_partition_compare_box_corner(rng):
    system = box_system()
    part = random_partition(rng, system.labels, 2)
    cfg = SamplingConfig(radii=(1e-2, 1e-3), samples_per_radius=800, seed=21)
    rep = partition_compare(system, [part], [1.0, 1.0], cfg)
    assert rep.ordered and rep.converged
    assert rep.lip == pytest.approx(np.sqrt(2.0), rel=1e-9)
    names = [name for name, _ in rep.entries]
    assert names == ["min", "J0", "max"]


def test_partition_compare_ssc_failure(rng):
    system, xbar = ssc_failing_feasible(rng)
    part = random_partition(rng, system.labels, 2)
    cfg = SamplingConfig(radii=(1e-2,), samples_per_radius=2, seed=0)
    rep = partition_compare(system, [part], xbar, cfg)
    assert np.isinf(rep.lip) and rep.ordered


# --- batched numerators against single-point projections and SLSQP ---

def _sphere_direction(rng, kind: str, dim: int) -> np.ndarray:
    """One sample's direction, drawn call by call from its own generator."""
    if kind == "euclid":
        g = rng.normal(size=dim)
        n = np.linalg.norm(g)
        return g / n if n > 1e-12 else np.eye(dim)[0]
    if kind == "linf":
        # face-uniform: pin one coordinate to +-1, rest uniform in the face
        v = rng.uniform(-1.0, 1.0, size=dim)
        k = int(rng.integers(dim))
        v[k] = 1.0 if rng.uniform() < 0.5 else -1.0
        return v
    # l1: Dirichlet weights per orthant face (face-uniform)
    w = rng.dirichlet(np.ones(dim))
    signs = np.where(rng.uniform(size=dim) < 0.5, -1.0, 1.0)
    return w * signs


def _reference_samples(system, partition, anchor, cfg, r_idx, radius):
    """(x, p) of each sample, from np.random.default_rng((seed, r_idx, i))."""
    n, k = system.dimension, len(partition.blocks)
    for i in range(cfg.samples_per_radius):
        rng = np.random.default_rng((cfg.seed, r_idx, i))
        x = np.asarray(anchor, dtype=float)
        if cfg.perturb_anchor:
            dx = _sphere_direction(rng, system.norm.kind, n)
            x = x + (radius * rng.uniform() ** (1.0 / n)) * dx
        dp = _sphere_direction(rng, "linf", k)
        yield x, (radius * rng.uniform() ** (1.0 / k)) * dp


def _reference_report(system, partition, anchor, cfg):
    """The per-sample loop: same RNG streams, every numerator from project_polyhedron."""
    A, b = system.coefficient_matrix(), system.rhs_vector()
    assign = block_assignment(system, partition)
    k = len(partition.blocks)
    stats = []
    for r_idx, radius in enumerate(cfg.radii):
        q = np.empty(cfg.samples_per_radius)
        zoz = 0
        samples = _reference_samples(system, partition, anchor, cfg, r_idx, radius)
        for i, (x, p) in enumerate(samples):
            res = A @ x - b
            den = max(float((block_residual_sup(res, assign, k) - p).max()), 0.0)
            try:
                num, _ = project_polyhedron(x, A, b + p[assign], system.norm)
            except InfeasibleRegionError:
                q[i] = np.inf
                continue
            if den <= 1e-12:
                q[i] = 0.0 if num <= 1e-9 else np.inf
                zoz += num <= 1e-9
            else:
                q[i] = num / den
        stats.append((float(q.max()), zoz))
    return stats


def _assert_matches_reference(rep, ref):
    for stats, (best, zoz) in zip(rep.per_radius, ref):
        # Quotients at radius 1e-3 divide distances near 1e-5 computed from
        # inputs rounded near 1e-16, so two exact routes agree to about 1e-11.
        # argmax_index is not compared: many samples tie within that rounding.
        assert stats.max_quotient == pytest.approx(best, rel=1e-10)
        assert stats.zero_over_zero == zoz


def _spy_batches(monkeypatch):
    """Records (X, A, RHS, norm, D) of every projection the estimator asks for."""
    calls = []
    real = estimator.project_polyhedron

    def spy(X, A, RHS, norm):
        D, Y = real(X, A, RHS, norm)
        calls.append((X, A, RHS, norm, D))
        return D, Y
    monkeypatch.setattr(estimator, "project_polyhedron", spy)
    return calls


def _duplicated_active_rows():
    # the first row twice: A_W A_W^T is singular at the anchor's active set
    return LinearSystem(2, (("a", [1.0, 2.0], 0.0), ("a2", [1.0, 2.0], 0.0),
                            ("b", [2.0, -1.0], 0.0), ("c", [-1.0, -1.0], 3.0)))


def _rank_deficient_active_set():
    # three active rows in R^2, the third the sum of the first two
    return LinearSystem(2, (("a", [1.0, 0.0], 0.0), ("b", [0.0, 1.0], 0.0),
                            ("c", [1.0, 1.0], 0.0), ("d", [-1.0, -1.0], 5.0)))


def _cases(rng):
    cases = []
    for _ in range(4):
        system, xbar = random_boundary_instance(rng, n=int(rng.integers(2, 5)),
                                                m=int(rng.integers(6, 20)))
        part = random_partition(rng, system.labels, int(rng.integers(1, 4)))
        cases.append(("random", system, part, xbar, {}))
    system, xbar = random_boundary_instance(rng, n=3, m=12)
    cases.append(("max-partition", system, BlockPartition.maximum(system.labels), xbar, {}))
    cases.append(("fixed-anchor", system, BlockPartition.maximum(system.labels), xbar,
                  {"perturb_anchor": False}))
    for name, build in (("duplicated", _duplicated_active_rows),
                        ("rank-deficient", _rank_deficient_active_set)):
        system = build()
        cases.append((name, system, BlockPartition.maximum(system.labels), [0.0, 0.0], {}))
    system = demo_truncation(40)
    cases.append(("paper-40", system, BlockPartition.maximum(system.labels), [0.0, 0.0], {}))
    for kind in ("l1", "linf"):
        system = demo_truncation(6, NormSpec(kind))
        cases.append((kind, system, BlockPartition.maximum(system.labels), [0.0, 0.0], {}))
    # rows (a_t, b_t) scaled by 10^U(-3, 3): the same regions, badly scaled
    system, xbar = random_boundary_instance(rng, n=3, m=12)
    scaled = LinearSystem(3, tuple((label, a * f, rhs * f) for (label, a, rhs), f
                                   in zip(system.rows, 10.0 ** rng.uniform(-3, 3, 12))))
    cases.append(("scaled", scaled, BlockPartition.maximum(scaled.labels), xbar, {}))
    return cases


def test_samples_are_the_per_sample_streams(rng, monkeypatch):
    # every x and right-hand side the estimator projects is, bit for bit, the
    # draw of that sample's own np.random.default_rng((seed, r, i))
    calls = _spy_batches(monkeypatch)
    base, xbar = random_boundary_instance(rng, n=3, m=10)
    cases = []
    for kind in ("euclid", "l1", "linf"):
        system = LinearSystem(3, base.rows, NormSpec(kind))
        for part in (BlockPartition.minimum(system.labels), BlockPartition.maximum(system.labels)):
            cases.append((system, part, xbar, {}))
    cases.append((base, random_partition(rng, base.labels, 3), xbar, {"perturb_anchor": False}))
    # 201 rows in singleton blocks: chunks of 40, so each radius spans three
    paper = demo_truncation(200)
    cases.append((paper, BlockPartition.maximum(paper.labels), [0.0, 0.0], {}))
    for system, part, anchor, extra in cases:
        cfg = SamplingConfig(radii=(1e-1, 1e-3), samples_per_radius=100, seed=2**32 + 3, **extra)
        calls.clear()
        empirical_lip(system, part, anchor, cfg)
        b, assign = system.rhs_vector(), block_assignment(system, part)
        ref = [(x, b + p[assign]) for r_idx, radius in enumerate(cfg.radii)
               for x, p in _reference_samples(system, part, anchor, cfg, r_idx, radius)]
        assert np.array_equal(np.concatenate([c[0] for c in calls]), [x for x, _ in ref])
        assert np.array_equal(np.concatenate([c[2] for c in calls]), [rhs for _, rhs in ref])
    assert len(calls) == 6  # the last case: three chunks at each of two radii


def test_batched_numerators_match_single_point_calls(rng, monkeypatch):
    calls = _spy_batches(monkeypatch)
    compared = 0
    for name, system, part, anchor, extra in _cases(rng):
        cfg = SamplingConfig(radii=(1e-1, 1e-3), samples_per_radius=150, seed=7, **extra)
        calls.clear()
        rep = empirical_lip(system, part, anchor, cfg)
        _assert_matches_reference(rep, _reference_report(system, part, anchor, cfg))
        # one batched call per chunk, for every norm
        rows = len(system.rows) + len(part.blocks)
        chunk = max(1, estimator._CHUNK_BYTES // (8 * rows))
        assert len(calls) == 2 * -(-150 // chunk)
        for X, A, RHS, norm, D in calls:
            assert norm == system.norm and X.shape == (len(D), system.dimension)
            for s in range(len(X)):
                try:
                    d, _ = project_polyhedron(X[s], A, RHS[s], norm)
                except InfeasibleRegionError:
                    d = np.inf
                # relative 1e-12, down to the rounding of x itself for tiny distances
                floor = 1e-15 * (1.0 + np.abs(X[s]).max())
                assert D[s] == pytest.approx(d, rel=1e-12, abs=floor)
                compared += d > 0.0
    assert compared > 500


def test_numerators_match_slsqp(rng, monkeypatch):
    calls = _spy_batches(monkeypatch)
    checked = empty = 0
    for name, system, part, anchor, extra in _cases(rng):
        if name not in ("duplicated", "rank-deficient", "paper-40", "scaled"):
            continue
        cfg = SamplingConfig(radii=(1e-1,), samples_per_radius=60, seed=11)
        calls.clear()
        empirical_lip(system, part, anchor, cfg)
        for X, A, RHS, _, D in calls:
            # the oracle sees each row divided by its norm: the same region
            norms = np.linalg.norm(A, axis=1)
            An = A / norms[:, None]
            for s in np.flatnonzero(np.isinf(D)):
                assert lp_solve(np.zeros(A.shape[1]), A, RHS[s])[0].kind is StatusKind.INFEASIBLE
                empty += 1
            for s in np.flatnonzero(np.isfinite(D) & (D > 0.0)):
                x, bn = X[s], RHS[s] / norms
                ref = minimize(
                    lambda z: ((z - x) ** 2).sum(), x, jac=lambda z: 2 * (z - x),
                    constraints=[{"type": "ineq", "fun": lambda z: bn - An @ z,
                                  "jac": lambda z: -An}],
                    method="SLSQP", options={"maxiter": 500, "ftol": 1e-16})
                assert (An @ ref.x - bn).max() <= 1e-9, name
                oracle = float(np.sqrt(max(ref.fun, 0.0)))
                assert D[s] == pytest.approx(oracle, rel=1e-6, abs=1e-7), name
                checked += 1
    assert checked > 100 and empty > 10


def test_euclidean_estimate_solves_no_projection_lp(rng, monkeypatch):
    cases = [c for c in _cases(rng) if c[1].norm.kind == "euclid"]
    cfg = SamplingConfig(radii=(1e-1, 1e-2), samples_per_radius=200, seed=5)
    reports = [empirical_lip(system, part, anchor, cfg) for _, system, part, anchor, _ in cases]

    def no_lp(*args, **kwargs):
        raise AssertionError("the Euclidean projection solved an LP")
    monkeypatch.setattr(projection, "lp_solve", no_lp)
    for (_, system, part, anchor, _), rep in zip(cases, reports):
        assert empirical_lip(system, part, anchor, cfg) == rep


def test_chunked_memory_stays_small():
    # maximum partition of the N = 5000 family: p has 5001 entries per sample
    system = demo_truncation(5000)
    part = BlockPartition.maximum(system.labels)
    cfg = SamplingConfig(radii=(1e-1,), samples_per_radius=500, seed=0)
    tracemalloc.start()
    try:
        empirical_lip(system, part, [0.0, 0.0], cfg)
        peak = tracemalloc.get_traced_memory()[1]
    finally:
        tracemalloc.stop()
    assert peak <= 8 * 2**20
