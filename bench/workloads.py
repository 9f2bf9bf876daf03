"""Seeded input documents and op lists for the benchmark workloads.

Everything here depends on numpy only, so the timed worker process can
import it without pulling in the scipy oracles.  Documents are written in
the lipstab-v1 JSON schema by this module, never by lipstab itself, so the
program receives only the generated files and its arguments.

An op is a dict:

    {"cmd": "lip", "argv": [...], "doc": path, "out": path, "check": {...}}

``argv`` is passed verbatim to ``lipstab.cli.run_cli``.  Vector arguments
use the ``--flag=value`` form: argparse reads ``--anchor -0.3,...`` as a
second flag, so a negative first coordinate would otherwise be rejected
(a CLI defect recorded in bench/NOTES.md).  ``check`` names the
correctness check that bench/oracles.py applies after the timed run.
"""
from __future__ import annotations

import json
import os

import numpy as np

WORKLOADS = ("exact-bound", "sampling", "distance")

TRUNCATION_NOTE = "truncation: finite section of an infinite family"


def _vec(x) -> str:
    return ",".join(repr(float(v)) for v in x)


def _write(path, doc) -> str:
    with open(path, "w", encoding="utf-8", newline="\n") as fh:
        json.dump(doc, fh)
    return path


def _linear_doc(A, b, norm="euclid", partition=None) -> dict:
    doc = {
        "version": "lipstab-v1",
        "dimension": int(A.shape[1]),
        "norm": norm,
        "rows": [{"label": f"t{i}", "a": [float(v) for v in A[i]], "b": float(b[i])}
                 for i in range(A.shape[0])],
    }
    if partition is not None:
        doc["partition"] = [{"block": f"B{j}", "labels": [f"t{i}" for i in members]}
                            for j, members in enumerate(partition)]
    return doc


def paper_family(N: int) -> dict:
    """Rows ((-1)^t t, 0) <= 1 for t = 1..N plus the row (1, 1) <= 0."""
    rows = [{"label": str(t), "a": [float((-1) ** t * t), 0.0], "b": 1.0}
            for t in range(1, N + 1)]
    rows.append({"label": "0", "a": [1.0, 1.0], "b": 0.0})
    return {"version": "lipstab-v1", "dimension": 2, "norm": "euclid",
            "rows": rows, "truncation_note": TRUNCATION_NOTE}


def random_boundary(rng, n: int, m: int, k: int):
    """A ~ N(0,1), x0 ~ N(0, 0.25), b = A x0 + s with s = 0 on the first k rows.

    The remaining slacks are U(0.3, 2), so x0 is feasible with exactly k
    active rows and, for k < n, the strong Slater condition holds.
    """
    A = rng.normal(size=(m, n))
    x0 = rng.normal(size=n) * 0.5
    s = np.concatenate([np.zeros(k), rng.uniform(0.3, 2.0, size=m - k)])
    return A, A @ x0 + s, x0


def margin_banded(rng, n: int, m: int, k: int):
    """Boundary system whose strong Slater margin lies in [-0.2, -0.08].

    The sampling workload's estimate uses the ladder 0.3,0.05: the estimator
    starts each projection from its Slater witness only when the radius is
    below the margin, so this band makes every 0.3 sample run a phase-1 LP
    and no 0.05 sample run one, on every seed.  The k tight rows all fall
    at rate 2 along a direction d; the last row is the first tight row
    reversed with slack 0.4, which keeps the margin >= -0.2.  Draws whose
    margin cannot be shown <= -0.08 along d are redrawn.
    """
    while True:
        d = rng.normal(size=n)
        d /= np.linalg.norm(d)
        A = rng.normal(size=(m, n))
        A[:k] -= np.outer(A[:k] @ d + 2.0, d)
        A[m - 1] = -A[0]
        x0 = rng.normal(size=n) * 0.5
        s = np.concatenate([np.zeros(k), rng.uniform(0.3, 2.0, size=m - k - 1), [0.4]])
        b = A @ x0 + s
        steps = np.linspace(0.005, 0.2, 40)
        best = min(float((A @ (x0 + t * d) - b).max()) for t in steps)
        if best <= -0.08:
            return A, b, x0


def random_partition(rng, m: int, blocks: int):
    order = rng.permutation(m)
    return [sorted(int(i) for i in chunk) for chunk in np.array_split(order, blocks)]


def outside_point(rng, A, rhs, x0, radius: float):
    """x0 plus a random step of the given length that violates some row."""
    while True:
        u = rng.normal(size=x0.shape[0])
        x = x0 + radius * u / np.linalg.norm(u)
        if float((A @ x - rhs).max()) > 1e-3:
            return x


def convex_doc(rng):
    """quadratic, max_affine and scaled_norm in R^3; the first two are active.

    Returns (document, anchor).  The quadratic and the top affine piece are
    tight at the anchor; the scaled norm sits 0.5 below zero.
    """
    n = 3
    xbar = rng.normal(size=n) * 0.5
    M = rng.normal(size=(n, n))
    Q = M @ M.T + np.eye(n)
    c = rng.normal(size=n)
    r = -(0.5 * xbar @ Q @ xbar + c @ xbar)
    pieces = []
    for level in (0.0, -0.5, -1.0):
        cp = rng.normal(size=n)
        pieces.append({"c": [float(v) for v in cp], "d": float(level - cp @ xbar)})
    kappa = float(rng.uniform(0.5, 2.0))
    shift = rng.normal(size=n)
    offset = -0.5 - kappa * float(np.linalg.norm(xbar - shift))
    doc = {
        "version": "lipstab-v1", "dimension": n, "norm": "euclid",
        "convex": [
            {"block": "q", "class": "quadratic", "Q": Q.tolist(),
             "c": [float(v) for v in c], "r": float(r)},
            {"block": "ma", "class": "max_affine", "pieces": pieces},
            {"block": "sn", "class": "scaled_norm", "kappa": kappa,
             "shift": [float(v) for v in shift], "offset": offset},
        ],
    }
    return doc, xbar


SQUARE_DOC = {"version": "lipstab-v1", "dimension": 1, "norm": "euclid",
              "convex": [{"block": "f0", "class": "quadratic", "Q": [[2.0]],
                          "c": [0.0], "r": -1.0}]}


def _seed(rng) -> str:
    return str(int(rng.integers(2**31)))


class OpFactory:
    """Writes documents into ``workdir`` and builds op dicts for one run."""

    def __init__(self, workdir: str):
        self.workdir = workdir
        self._fixed = {}
        self._count = 0

    def fixed_doc(self, name: str, build) -> str:
        """Seed-independent documents are written once per run."""
        if name not in self._fixed:
            self._fixed[name] = _write(os.path.join(self.workdir, f"{name}.json"), build())
        return self._fixed[name]

    def doc(self, tag: str, doc: dict) -> str:
        return _write(os.path.join(self.workdir, f"{tag}.json"), doc)

    def op(self, cmd: str, doc: str, args, check: dict) -> dict:
        self._count += 1
        out = os.path.join(self.workdir, f"op{self._count}.csv")
        argv = [cmd, "--system", doc, "--out", out] + list(args)
        return {"cmd": cmd, "argv": argv, "doc": doc, "out": out, "check": check}


def _exact_bound(f: OpFactory, rng, tag: str):
    ops = []
    for N in (1000, 2000, 5000):
        doc = f.fixed_doc(f"paper{N}", lambda N=N: paper_family(N))
        ops.append(f.op("lip", doc, ["--anchor=0,0"], {"kind": "paper_lip"}))
        ops.append(f.op("ssc", doc, [], {"kind": "ssc_true"}))
        ops.append(f.op("eps-active", doc, ["--anchor=0,0", "--eps", "0.5"],
                        {"kind": "paper_eps"}))
    for m in (500, 1000):
        A, b, x0 = random_boundary(rng, 20, m, 8)
        doc = f.doc(f"{tag}_rand{m}", _linear_doc(A, b))
        anchor = f"--anchor={_vec(x0)}"
        ops.append(f.op("lip", doc, [anchor], {"kind": "minnorm_lip"}))
        ops.append(f.op("ssc", doc, [], {"kind": "ssc_true"}))
        ops.append(f.op("codnorm", doc, [anchor], {"kind": "minnorm_codnorm"}))
    # ssc stands in for codnorm on this system: on some seeds codnorm fails
    # its own cross-check against lip (see NOTES.md, "Known defects").
    A, b, x0 = random_boundary(rng, 20, 300, 8)
    doc = f.doc(f"{tag}_linf", _linear_doc(A, b, norm="linf"))
    ops.append(f.op("lip", doc, [f"--anchor={_vec(x0)}"], {"kind": "minnorm_lip"}))
    ops.append(f.op("ssc", doc, [], {"kind": "ssc_true"}))
    return ops


def _sampling(f: OpFactory, rng, tag: str):
    ops = []
    doc = f.fixed_doc("paper8", lambda: paper_family(8))
    for _ in range(2):
        ops.append(f.op("estimate", doc, ["--anchor=0,0", "--samples", "500",
                                          "--seed", _seed(rng)],
                        {"kind": "paper8_estimate"}))
    for i in range(4):
        A, b, x0 = margin_banded(rng, 5, 30, 3)
        part = random_partition(rng, 30, 3)
        doc = f.doc(f"{tag}_small{i}", _linear_doc(A, b, partition=part))
        anchor = f"--anchor={_vec(x0)}"
        if i < 3:
            ops.append(f.op("compare-partitions", doc, [anchor, "--seed", _seed(rng)],
                            {"kind": "partition_compare"}))
        ops.append(f.op("estimate", doc, [anchor, "--radius-ladder", "0.3,0.05",
                                          "--samples", "200", "--seed", _seed(rng)],
                        {"kind": "estimate_finite", "radii": 2, "samples": 200}))
    doc = f.fixed_doc("paper1000", lambda: paper_family(1000))
    ops.append(f.op("estimate", doc, ["--anchor=0,0", "--radius-ladder", "0.1",
                                      "--samples", "2000", "--seed", _seed(rng)],
                    {"kind": "closure_gap"}))
    return ops


def _block_queries(f: OpFactory, rng, doc, A, b, x0, part, radius, count):
    """dist queries at per-block p in [-0.1, 0.2], from points outside F(p)."""
    assign = np.empty(A.shape[0], dtype=int)
    for j, members in enumerate(part):
        assign[members] = j
    ops = []
    for _ in range(count):
        p = rng.uniform(-0.1, 0.2, size=len(part))
        x = outside_point(rng, A, b + p[assign], x0, radius)
        ops.append(f.op("dist", doc, [f"--anchor={_vec(x)}", f"--p={_vec(p)}"],
                        {"kind": "dist_oracle"}))
    return ops


def _distance(f: OpFactory, rng, tag: str):
    A, b, x0 = random_boundary(rng, 20, 200, 8)
    part = random_partition(rng, 200, 10)
    doc = f.doc(f"{tag}_dist", _linear_doc(A, b, partition=part))
    ops = _block_queries(f, rng, doc, A, b, x0, part, 1.0, 2)

    A, b, x0 = random_boundary(rng, 10, 100, 4)
    part = random_partition(rng, 100, 4)
    doc = f.doc(f"{tag}_l1", _linear_doc(A, b, norm="l1", partition=part))
    ops += _block_queries(f, rng, doc, A, b, x0, part, 2.0, 1)

    cdoc, xbar = convex_doc(rng)
    doc = f.doc(f"{tag}_convex", cdoc)
    anchor = f"--anchor={_vec(xbar)}"
    ops.append(f.op("lip", doc, [anchor], {"kind": "convex_lip"}))
    ops.append(f.op("linearize", doc, [anchor], {"kind": "linearize_cuts"}))
    u = rng.normal(size=3)
    x = xbar + 1.5 * u / np.linalg.norm(u)
    p = rng.uniform(0.0, 0.2, size=3)
    ops.append(f.op("dist", doc, [f"--anchor={_vec(x)}", f"--p={_vec(p)}"],
                    {"kind": "convex_dist"}))
    doc = f.fixed_doc("square", lambda: SQUARE_DOC)
    ops.append(f.op("lip", doc, ["--anchor=1"], {"kind": "square_lip"}))
    return ops


_BUILDERS = {"exact-bound": _exact_bound, "sampling": _sampling, "distance": _distance}


def cycle_ops(factory: OpFactory, workload: str, seed: int, cycle: int):
    """The ops of one pass over a workload's mix; inputs depend on (seed, cycle)."""
    rng = np.random.default_rng((seed, WORKLOADS.index(workload), cycle))
    return _BUILDERS[workload](factory, rng, f"c{cycle}")
