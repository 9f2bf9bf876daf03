import numpy as np
import pytest

from conftest import random_ssc_system
from lipstab.errors import NonConvergentError
from lipstab.model import CharacteristicSet
from lipstab.norms import NormSpec
from lipstab.solvers.minnorm import nnls
from lipstab.solvers.projection import project_polyhedron
from lipstab.solvers.ratio import max_ratio_over_hull


def gens(coeffs, offsets):
    coeffs = np.atleast_2d(np.asarray(coeffs, dtype=float))
    return CharacteristicSet(coeffs, np.asarray(offsets, dtype=float),
                             tuple(str(i) for i in range(coeffs.shape[0])))


BOX = gens([[1.0, 0.0], [-1.0, 0.0], [0.0, 1.0], [0.0, -1.0]], [1.0, 1.0, 1.0, 1.0])


def test_single_generator_ratio():
    assert max_ratio_over_hull(gens([[1.0, 0.0]], [1.0]), [2.0, 0.0]) == pytest.approx(1.0)


def test_box_interior_hull_point_beats_vertices():
    # best single generator gives (2-1)/1 = 1; the hull point ((1/2,1/2), 1)
    # gives (2 - 1) / ||(1/2,1/2)|| = sqrt(2); cross-checked by projection
    x = np.array([2.0, 2.0])
    val = max_ratio_over_hull(BOX, x)
    dist, _ = project_polyhedron(x, BOX.coefficients, BOX.offsets)
    assert val == pytest.approx(np.sqrt(2.0), abs=1e-8)
    assert val == pytest.approx(dist, rel=1e-8)
    assert val > 1.0 + 0.4


def test_feasible_point_clips_to_zero():
    assert max_ratio_over_hull(BOX, [0.3, -0.4]) == 0.0


# each case runs in every norm: the Euclidean NNLS and the l1/linf LP must
# both reach the conventions without a zero-row special case
NORMS = [NormSpec(kind) for kind in ("euclid", "l1", "linf")]


def test_zero_generator_negative_offset_is_infinite():
    g = gens([[0.0, 0.0], [1.0, 0.0]], [-1.0, 1.0])
    for norm in NORMS:
        assert max_ratio_over_hull(g, [0.0, 0.0], norm) == np.inf


def test_all_zero_generators_with_a_negative_offset_are_infinite():
    g = gens([[0.0, 0.0], [0.0, 0.0]], [2.0, -1.0])
    for norm in NORMS:
        assert max_ratio_over_hull(g, [5.0, 5.0], norm) == np.inf


def test_cancelling_generators_negative_offset_is_infinite():
    # x <= -1 and -x <= -1: the hull point (0, -1) is a mix of two nonzero
    # generators, so A^T nu vanishes only up to rounding
    tri = gens([[1.0, 0.0], [-1.0, 1.0], [0.0, -1.0]], [-0.5, 0.2, 0.1])
    for norm in NORMS:
        assert max_ratio_over_hull(gens([[1.0], [-1.0]], [-1.0, -1.0]), [0.0], norm) == np.inf
        assert max_ratio_over_hull(tri, [0.3, 0.7], norm) == np.inf


def test_zero_generator_nonnegative_offset_is_ignored():
    g = gens([[0.0, 0.0], [1.0, 0.0]], [0.5, 1.0])
    for norm in NORMS:
        assert max_ratio_over_hull(g, [2.0, 0.0], norm) == pytest.approx(1.0, abs=1e-9)


def test_all_zero_generators_use_zero_over_zero_convention():
    g = gens([[0.0, 0.0], [0.0, 0.0]], [0.0, 2.0])
    for norm in NORMS:
        assert max_ratio_over_hull(g, [5.0, 5.0], norm) == 0.0


def test_monotone_under_added_generators(rng):
    for _ in range(25):
        system, xhat = random_ssc_system(rng, n=int(rng.integers(2, 4)),
                                         m=int(rng.integers(3, 9)))
        coeffs = system.coefficient_matrix()
        offs = system.rhs_vector()
        x = xhat + rng.normal(size=system.dimension) * 2
        small = max_ratio_over_hull(gens(coeffs[:-1], offs[:-1]), x)
        big = max_ratio_over_hull(gens(coeffs, offs), x)
        assert big >= small - 1e-7 * max(1.0, small)
        extra = np.vstack([coeffs, rng.normal(size=(1, system.dimension))])
        extra_off = np.append(offs, rng.normal())
        bigger = max_ratio_over_hull(gens(extra, extra_off), x)
        assert bigger >= big - 1e-7 * max(1.0, big)


def test_matches_projection_on_random_ssc_instances(rng):
    for _ in range(40):
        system, xhat = random_ssc_system(rng)
        A = system.coefficient_matrix()
        b = system.rhs_vector()
        x = xhat + rng.normal(size=system.dimension) * rng.uniform(0.5, 3.0)
        val = max_ratio_over_hull(gens(A, b), x)
        dist, _ = project_polyhedron(x, A, b)
        assert val == pytest.approx(dist, rel=1e-7, abs=1e-9)


def _kkt_tolerance(M, y, nu):
    scale = np.linalg.norm(y) + np.linalg.norm(np.abs(M) @ nu)
    return 10.0 * max(M.shape) * np.finfo(float).eps * np.abs(M).sum(axis=0).max() * scale


def test_nnls_returns_checked_certificate(rng, monkeypatch):
    rows, cols = 6, 30
    full = rng.normal(size=(rows, cols))
    # y inside the cone of the first `rows` columns: zero residual, `rows` supports
    y_full = full[:, :rows] @ rng.uniform(0.5, 1.5, size=rows)
    duplicated = np.hstack([full, full[:, :10]])
    zero_col = full.copy()
    zero_col[:, 3] = 0.0
    cases = [(full, y_full), (duplicated, rng.normal(size=rows)),
             (zero_col, rng.normal(size=rows))]
    cases += [(rng.normal(size=(rows, cols)), rng.normal(size=rows)) for _ in range(20)]
    for M, y in cases:
        nu, _ = nnls(M, y)
        w = M.T @ (y - M @ nu)
        tol = _kkt_tolerance(M, y, nu)
        assert nu.min() >= 0.0
        assert w.max() <= tol
        assert np.abs(w[nu > 0]).max(initial=0.0) <= tol
    nu, iterations = nnls(full, y_full)
    assert np.count_nonzero(nu) == rows
    assert iterations >= rows
    assert np.linalg.norm(full @ nu - y_full) <= 1e-12 * np.linalg.norm(y_full)
    assert nnls(zero_col, rng.normal(size=rows))[0][3] == 0.0
    # a least-squares step that misses its optimum is caught, never returned;
    # on the square system every column ends passive, so the loop exits
    # normally and only the KKT check can reject the result
    lstsq = np.linalg.lstsq
    monkeypatch.setattr(np.linalg, "lstsq",
                        lambda *a, **k: (lstsq(*a, **k)[0] * (1 + 1e-6),))
    with pytest.raises(NonConvergentError, match="KKT"):
        nnls(full[:, :rows], y_full)


def test_nnls_and_ratio_match_scipy(rng):
    scipy_nnls = pytest.importorskip("scipy.optimize").nnls
    for _ in range(20):
        M = rng.normal(size=(int(rng.integers(3, 12)), int(rng.integers(5, 60))))
        y = rng.normal(size=M.shape[0])
        ref, _ = scipy_nnls(M, y, maxiter=50 * M.shape[1])
        assert np.linalg.norm(nnls(M, y)[0] - ref) <= 1e-10 * max(np.linalg.norm(ref), 1e-300)
    for n, m in [(3, 12)] * 15 + [(20, 200)] * 2:
        system, xhat = random_ssc_system(rng, n=n, m=m)
        A = system.coefficient_matrix()
        b = system.rhs_vector()
        x = xhat + rng.normal(size=n) * 2
        c = A @ x - b
        y = np.zeros(n + 1)
        y[-1] = 1.0
        nu, _ = scipy_nnls(np.vstack([A.T, c]), y, maxiter=50 * m)
        ref = float(c @ nu) / np.linalg.norm(A.T @ nu) if c.max() > 0 else 0.0
        assert max_ratio_over_hull(gens(A, b), x) == pytest.approx(ref, rel=1e-10, abs=0)


@pytest.mark.parametrize("kind", ["l1", "linf"])
def test_polyhedral_norms_match_lp_projection(rng, kind):
    norm = NormSpec(kind)
    for _ in range(20):
        system, xhat = random_ssc_system(rng, n=3, m=10)
        A = system.coefficient_matrix()
        b = system.rhs_vector()
        x = xhat + rng.normal(size=3) * 2.0
        val = max_ratio_over_hull(gens(A, b), x, norm)
        dist, _ = project_polyhedron(x, A, b, norm)
        assert val == pytest.approx(dist, rel=1e-7, abs=1e-9)
