import numpy as np
import pytest

from conftest import (
    box_system,
    demo_truncation,
    random_boundary_instance,
    random_partition,
    ssc_failing_feasible,
)
from lipstab.estimator import SamplingConfig, empirical_lip, partition_compare
from lipstab.model import BlockPartition, LinearSystem
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
