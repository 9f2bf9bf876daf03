"""Acceptance suite: one test per criterion, each printing a verdict line.

Run with `pytest tests/test_acceptance.py -v -s` to see the per-criterion
lines.  Tolerances are pinned here, not configurable.
"""
import io
import sys
import time

import numpy as np
import pytest

from conftest import (
    demo_truncation,
    random_boundary_instance,
    random_partition,
    random_ssc_system,
    ssc_failing_feasible,
)
from lipstab.cli import run_cli
from lipstab.convex import (
    AffineFn,
    CutConfig,
    MaxAffineFn,
    QuadraticFn,
    ScaledNormFn,
    eval_sub,
    conjugate_value,
    lip_bound_convex,
)
from lipstab.documents import demo_generate, serialize_document
from lipstab.estimator import SamplingConfig, empirical_lip, partition_compare
from lipstab.model import BlockPartition, LinearSystem, Perturbation
from lipstab.solvers.projection import project_polyhedron
from lipstab.stability import (
    check_ssc,
    coderivative_norm,
    distance_formula,
    eps_active,
    lip_bound,
)

INV_SQRT2 = 1.0 / np.sqrt(2.0)


def _verdict(num, ok, detail):
    print(f"criterion {num}: {'PASS' if ok else 'FAIL'} - {detail}")
    assert ok, f"criterion {num} failed: {detail}"


def _cli(argv, stdin_text=None, capsys=None):
    if stdin_text is not None:
        old = sys.stdin
        sys.stdin = io.StringIO(stdin_text)
        try:
            code = run_cli(argv)
        finally:
            sys.stdin = old
    else:
        code = run_cli(argv)
    out = capsys.readouterr().out if capsys else ""
    return code, out


def test_criterion_1_paper_example_exact_bound(tmp_path, capsys):
    """lip = 1/sqrt(2) to 1e-9 for N in {2,5,10,100}; eps-active picks {0}."""
    t0 = time.monotonic()
    for N in (2, 5, 10, 100):
        path = tmp_path / f"p{N}.json"
        path.write_text(serialize_document(demo_generate("paper-example", N=N)))
        code, out = _cli(["lip", "--system", str(path), "--anchor", "0,0"],
                         capsys=capsys)
        assert code == 0
        line = out.strip().splitlines()[-1]
        value = float(line.split()[0].split("=")[1])
        assert abs(value - INV_SQRT2) <= 1e-9, (N, value)

        code, out = _cli(["eps-active", "--system", str(path), "--anchor", "0,0",
                          "--eps", "0.5"], capsys=capsys)
        assert code == 0
        line = out.strip().splitlines()[-1]
        fields = dict(kv.split("=") for kv in line.split())
        assert fields["eps_active"] == "0"
        assert abs(float(fields["bound"]) - INV_SQRT2) <= 1e-9
        assert fields["matches_full"] == "true"

        # the eps-active hull collapses to the single generator ((1,1), 0)
        res = eps_active(demo_truncation(N), [0.0, 0.0], 0.5)
        assert res.indices == ("0",)
        assert res.report.min_norm_value == pytest.approx(np.sqrt(2.0), abs=1e-12)
    elapsed = time.monotonic() - t0
    _verdict(1, elapsed < 1.0,
             f"lip = 1/sqrt(2) +- 1e-9 and T_eps = {{0}} for N in 2,5,10,100 "
             f"in {elapsed:.2f} s (< 1 s)")


def test_criterion_2_closure_gap(tmp_path, capsys):
    """N = 1000 truncation: the sampled quotient approaches 1, not 1/sqrt(2)."""
    t0 = time.monotonic()
    path = tmp_path / "p1000.json"
    path.write_text(serialize_document(demo_generate("paper-example", N=1000)))
    out_csv = tmp_path / "estimate.csv"
    code, out = _cli(["estimate", "--system", str(path), "--anchor", "0,0",
                      "--radius-ladder", "0.1", "--samples", "2000", "--seed", "0",
                      "--out", str(out_csv)], capsys=capsys)
    assert code == 0
    estimate = float(out.strip().splitlines()[-1].split("=")[1])
    csv_text = out_csv.read_text()
    elapsed = time.monotonic() - t0
    ok = (estimate >= 0.95 and "truncation" in csv_text and elapsed < 30.0)
    _verdict(2, ok,
             f"estimate {estimate:.4f} >= 0.95 (exact finite bound stays "
             f"{INV_SQRT2:.4f}), truncation note present, {elapsed:.1f} s (< 30 s)")


def test_criterion_3_distance_formula_vs_projection():
    """200 seeded SSC systems, 5 (p, x) each, 1e-6 relative agreement."""
    t0 = time.monotonic()
    rng = np.random.default_rng(303)
    worst = 0.0
    for _ in range(200):
        n = int(rng.integers(2, 6))
        m = int(rng.integers(3, 31))
        system, xhat = random_ssc_system(rng, n=n, m=m)
        partition = random_partition(rng, system.labels, int(rng.integers(1, 5)))
        k = len(partition.blocks)
        for _ in range(5):
            p = Perturbation(tuple(rng.uniform(-0.25, 0.25, size=k)))
            x = xhat + rng.normal(size=n) * rng.uniform(0.3, 3.0)
            d_formula = distance_formula(system, partition, p, x)
            from lipstab.model import perturbed_system
            pert = perturbed_system(system, partition, p)
            d_proj, _ = project_polyhedron(
                x, pert.coefficient_matrix(), pert.rhs_vector())
            err = abs(d_formula - d_proj) / max(1.0, d_proj)
            worst = max(worst, err)
    elapsed = time.monotonic() - t0
    ok = worst <= 1e-6 and elapsed < 60.0
    _verdict(3, ok, f"1000 comparisons, worst relative gap {worst:.2e} <= 1e-6, "
                    f"{elapsed:.1f} s (< 60 s)")


def test_criterion_4_equality_chain():
    """coderivative_norm == lip_bound (1e-6 rel); inf and 0 cases agree too."""
    rng = np.random.default_rng(404)
    worst = 0.0
    for _ in range(100):
        system, xbar = random_boundary_instance(rng)
        partition = random_partition(rng, system.labels, int(rng.integers(1, 4)))
        rep = coderivative_norm(system, partition, xbar)  # cross-asserts inside
        lip = lip_bound(system, xbar).bound
        assert np.isfinite(rep.value) == np.isfinite(lip)
        if np.isfinite(lip):
            worst = max(worst, abs(rep.value - lip) / max(1.0, lip))
    infinite_ok = 0
    for _ in range(15):
        system, xbar = ssc_failing_feasible(rng)
        partition = BlockPartition.maximum(system.labels)
        rep = coderivative_norm(system, partition, xbar)
        infinite_ok += np.isinf(rep.value) and np.isinf(rep.lip_cross)
    zero_ok = 0
    for _ in range(15):
        system, xhat = random_ssc_system(rng, n=3, m=8)
        partition = BlockPartition.maximum(system.labels)
        rep = coderivative_norm(system, partition, xhat)  # interior anchor
        zero_ok += rep.value == 0.0 and rep.lip_cross == 0.0
    ok = worst <= 1e-6 and infinite_ok == 15 and zero_ok == 15
    _verdict(4, ok, f"100 boundary instances agree to {worst:.2e} (<= 1e-6); "
                    f"15/15 SSC-failing both inf; 15/15 interior anchors both 0")


def test_criterion_5_partition_ordering_and_convergence():
    """min <= J <= max within 5% slack; all within 5% of the exact bound."""
    rng = np.random.default_rng(505)
    t0 = time.monotonic()
    cfg = SamplingConfig(radii=(1e-3,), samples_per_radius=2000, seed=55)
    all_ok = True
    worst_rel = 0.0
    for _ in range(50):
        system, xbar = random_boundary_instance(rng, n=int(rng.integers(2, 5)),
                                                m=int(rng.integers(4, 11)))
        part = random_partition(rng, system.labels, 2)
        rep = partition_compare(system, [part], xbar, cfg)  # raises on ordering breach
        all_ok &= rep.ordered and rep.converged
        for _, entry in rep.entries:
            worst_rel = max(worst_rel, abs(entry.estimate - rep.lip) / rep.lip)
    elapsed = time.monotonic() - t0
    _verdict(5, all_ok, f"50 instances x (min, random, max): ordered and all "
                        f"estimates within 5% of lip (worst {worst_rel:.2%}), "
                        f"{elapsed:.1f} s")


def test_criterion_6_ssc_route_agreement():
    """LP margin route and hull-gap route never disagree on 500 systems."""
    rng = np.random.default_rng(606)
    count = 0
    for trial in range(500):
        kind = trial % 4
        if kind == 0:
            system, _ = random_ssc_system(rng, n=int(rng.integers(2, 6)),
                                          m=int(rng.integers(3, 20)))
        elif kind == 1:
            system, _ = ssc_failing_feasible(rng)
        elif kind == 2:
            n, m = int(rng.integers(1, 5)), int(rng.integers(2, 15))
            rows = tuple((f"g{i}", rng.normal(size=n), float(rng.normal()))
                         for i in range(m))
            system = LinearSystem(n, rows)
        else:
            system, _ = random_boundary_instance(rng)
        rep = check_ssc(system)  # raises InternalCheckError on disagreement
        assert rep.lp_holds == rep.hull_holds
        count += 1
    _verdict(6, count == 500, "500 systems: LP and hull verdicts agree on all")


def test_criterion_7_convex_bound():
    """x^2 - 1 at 1 converges to 0.5 monotonically; x^2 reports SSC failure."""
    rep = lip_bound_convex([QuadraticFn([[2.0]], [0.0], -1.0)], [1.0])
    finite = [h for h in rep.history if np.isfinite(h)]
    monotone = all(b >= a - 1e-12 for a, b in zip(finite, finite[1:]))
    ok_half = abs(rep.bound - 0.5) <= 1e-3 and monotone
    rep_sq = lip_bound_convex([QuadraticFn([[2.0]], [0.0], 0.0)], [0.0])
    ok_inf = rep_sq.bound == np.inf and rep_sq.regime == "SSCFails"
    _verdict(7, ok_half and ok_inf,
             f"x^2-1 at 1: bound {rep.bound:.6f} (target 0.5 +- 1e-3, monotone "
             f"history); x^2 at 0: {rep_sq.regime} with bound inf")


def test_criterion_8_conjugate_correctness():
    """Per class, 1000 seeded Fenchel-Young samples; cut pairs tight to 1e-9."""
    rng = np.random.default_rng(808)
    classes = [
        ("affine", AffineFn([1.5, -0.5], 0.7), 2),
        ("quadratic", QuadraticFn([[3.0, 1.0], [1.0, 2.0]], [0.5, -1.0], 0.7), 2),
        ("max_affine", MaxAffineFn([[1.0, 2.0], [-1.0, 0.5], [0.0, -1.0]],
                                   [0.3, -0.2, 0.0]), 2),
        ("scaled_norm", ScaledNormFn(2.0, [1.0, 0.0], -0.5), 2),
    ]
    worst_eq = 0.0
    for name, f, dim in classes:
        for _ in range(1000):
            x_cut = rng.normal(size=dim) * 2.0
            val, u = eval_sub(f, x_cut)
            fstar = conjugate_value(f, u)
            x_other = rng.normal(size=dim) * 2.0
            # global inequality at an unrelated point
            assert f.value(x_other) + fstar >= float(u @ x_other) - 1e-9
            # equality at the cut-generated pair
            gap = abs(val + fstar - float(u @ x_cut))
            worst_eq = max(worst_eq, gap)
    ok = worst_eq <= 1e-9
    _verdict(8, ok, f"4 classes x 1000 samples: inequality everywhere, "
                    f"cut-pair equality gap {worst_eq:.2e} <= 1e-9")


def test_criterion_9_determinism(tmp_path, capsys):
    """Identical argv + seed produce byte-identical CSV reports."""
    doc_path = tmp_path / "p200.json"
    doc_path.write_text(serialize_document(demo_generate("paper-example", N=200)))
    pairs = []
    for tag in ("a", "b"):
        est = tmp_path / f"est_{tag}.csv"
        code, _ = _cli(["estimate", "--system", str(doc_path), "--anchor", "0,0",
                        "--radius-ladder", "0.1,0.01", "--samples", "300",
                        "--seed", "17", "--out", str(est)], capsys=capsys)
        assert code == 0
        cmp_csv = tmp_path / f"cmp_{tag}.csv"
        code, _ = _cli(["compare-partitions", "--system", str(doc_path), "--anchor",
                        "0,0", "--samples", "150", "--radius-ladder", "1e-2,1e-3",
                        "--seed", "23", "--out", str(cmp_csv)], capsys=capsys)
        assert code == 0
        lip_csv = tmp_path / f"lip_{tag}.csv"
        code, _ = _cli(["lip", "--system", str(doc_path), "--anchor", "0,0",
                        "--out", str(lip_csv)], capsys=capsys)
        assert code == 0
        pairs.append((est.read_bytes(), cmp_csv.read_bytes(), lip_csv.read_bytes()))
    ok = pairs[0] == pairs[1]
    _verdict(9, ok, "estimate, compare-partitions and lip reruns with the same "
                    "seed are byte-identical")
