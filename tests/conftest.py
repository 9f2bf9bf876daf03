"""Shared instance generators for the test suite."""
import numpy as np
import pytest

from lipstab.model import BlockPartition, LinearSystem


def demo_truncation(N, norm=None):
    """Rows (-1)^t t x1 <= 1 for t = 1..N plus x1 + x2 <= 0 labeled '0'."""
    rows = [(str(t), [(-1.0) ** t * t, 0.0], 1.0) for t in range(1, N + 1)]
    rows.append(("0", [1.0, 1.0], 0.0))
    if norm is None:
        return LinearSystem(2, tuple(rows))
    return LinearSystem(2, tuple(rows), norm)


def box_system():
    return LinearSystem(2, (
        ("r", [1.0, 0.0], 1.0),
        ("l", [-1.0, 0.0], 1.0),
        ("u", [0.0, 1.0], 1.0),
        ("d", [0.0, -1.0], 1.0),
    ))


def random_ssc_system(rng, n=None, m=None):
    """SSC holds by construction: rhs = A xhat + positive slack."""
    n = n or int(rng.integers(2, 6))
    m = m or int(rng.integers(3, 31))
    A = rng.normal(size=(m, n))
    xhat = rng.normal(size=n) * 0.5
    slack = rng.uniform(0.3, 2.0, size=m)
    b = A @ xhat + slack
    rows = tuple((f"t{i}", A[i], float(b[i])) for i in range(m))
    return LinearSystem(n, rows), xhat


def random_boundary_instance(rng, n=None, m=None):
    """SSC system with an anchor lying on 1..3 facets exactly."""
    n = n or int(rng.integers(2, 6))
    m = m or int(rng.integers(4, 16))
    d = rng.normal(size=n)
    d /= np.linalg.norm(d)
    xbar = rng.normal(size=n) * 0.5
    k = int(rng.integers(1, min(n, 3) + 1))
    rows = []
    for i in range(k):
        while True:
            a = rng.normal(size=n)
            if a @ d >= 0.3 * np.linalg.norm(a):
                break
        rows.append((f"act{i}", a, float(a @ xbar)))
    for i in range(m - k):
        a = rng.normal(size=n)
        rows.append((f"in{i}", a, float(a @ xbar) + rng.uniform(0.3, 2.0)))
    return LinearSystem(n, tuple(rows)), xbar


def ssc_failing_feasible(rng, n=None, m=None):
    """SSC fails but F(0) is nonempty: a hyperplane pair plus slack rows."""
    n = n or int(rng.integers(2, 5))
    m = m or int(rng.integers(2, 10))
    a = rng.normal(size=n)
    xbar = rng.normal(size=n) * 0.5
    rows = [("h+", a, float(a @ xbar)), ("h-", -a, float(-a @ xbar))]
    for i in range(m - 2):
        c = rng.normal(size=n)
        rows.append((f"s{i}", c, float(c @ xbar) + rng.uniform(0.2, 1.5)))
    return LinearSystem(n, tuple(rows)), xbar


def random_partition(rng, labels, k):
    labels = list(labels)
    rng.shuffle(labels)
    k = max(1, min(k, len(labels)))
    size = len(labels) // k
    blocks = []
    for i in range(k):
        chunk = labels[i * size:] if i == k - 1 else labels[i * size:(i + 1) * size]
        blocks.append((f"B{i}", tuple(chunk)))
    return BlockPartition(tuple(blocks))


# PCG64 probe states: a stream whose raw word at a chosen position is chosen
M = 0x2360ED051FC65DA44385DF649FCCF645  # PCG64's multiplier
M_INV = pow(M, -1, 1 << 128)
MASK64, MASK128 = (1 << 64) - 1, (1 << 128) - 1
INC = 2 * 0x5DEECE66D + 1


def probe_key(word: int, position: int = 0, inc: int = INC) -> np.ndarray:
    """A (4, 1) key whose stream's raw word at ``position`` is ``word``.

    After position + 1 steps the state is the word itself: its high half is
    0, so XSL-RR outputs it unrotated.  Each step back is (s - inc)·M^-1.
    """
    state = word
    for _ in range(position + 1):
        state = (state - inc) * M_INV & MASK128
    return np.array([[state >> 64], [state & MASK64], [inc >> 64], [inc & MASK64]],
                    dtype=np.uint64)


def generator(key) -> np.random.Generator:
    """A fresh generator in the state of a (4, 1) key."""
    s_hi, s_lo, i_hi, i_lo = key[:, 0].tolist()
    rng = np.random.Generator(np.random.PCG64())
    rng.bit_generator.state = {"bit_generator": "PCG64",
                               "state": {"state": s_hi << 64 | s_lo, "inc": i_hi << 64 | i_lo},
                               "has_uint32": 0, "uinteger": 0}
    return rng


@pytest.fixture
def rng():
    return np.random.default_rng(20240817)
