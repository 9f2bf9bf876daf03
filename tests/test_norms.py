import numpy as np
import pytest
from hypothesis import example, given, strategies as st

from lipstab.norms import KINDS, NormSpec, norm_value

finite = st.floats(min_value=-1e6, max_value=1e6, allow_nan=False)


@pytest.mark.parametrize("kind", KINDS)
def test_dual_of_dual_is_identity(kind):
    assert NormSpec(kind).dual().dual() == NormSpec(kind)


def test_dual_pairing():
    assert NormSpec("euclid").dual().kind == "euclid"
    assert NormSpec("l1").dual().kind == "linf"
    assert NormSpec("linf").dual().kind == "l1"


@pytest.mark.parametrize("kind", KINDS)
def test_norm_of_zero(kind):
    assert norm_value(kind, np.zeros(4)) == 0.0


@given(
    st.sampled_from(KINDS),
    st.lists(finite, min_size=1, max_size=6),
    st.floats(min_value=-100, max_value=100, allow_nan=False),
)
def test_absolute_homogeneity(kind, vec, lam):
    x = np.array(vec)
    left = norm_value(kind, lam * x)
    right = abs(lam) * norm_value(kind, x)
    assert left == pytest.approx(right, rel=1e-12, abs=1e-9)


@given(st.sampled_from(KINDS), st.lists(finite, min_size=1, max_size=6),
       st.lists(finite, min_size=1, max_size=6))
# numpy's pairwise sum broke the inequality here by two ulps (1.9e-9)
@example(
    kind="l1",
    u=[0.0, 625050.0, 999999.9504241007, -365392.7533940092, 0.0, 1.491493019508198],
    v=[0.0, 749946.0, 999999.4914930195, -453916.0, 0.0, 1.491493019508198],
)
def test_triangle_inequality(kind, u, v):
    k = min(len(u), len(v))
    a, b = np.array(u[:k]), np.array(v[:k])
    assert norm_value(kind, a + b) <= norm_value(kind, a) + norm_value(kind, b) + 1e-9


def test_unknown_kind_rejected():
    with pytest.raises(ValueError):
        NormSpec("l2ish")
