"""Correctness checks for each op, run after the timed loop.

The checks read the generated input document and the op's arguments and
recompute the answer with scipy (``nnls``, ``linprog``, ``minimize``) or
from closed forms, never through lipstab.  ``check(record)`` returns None
when the op's output is right and a one-line reason otherwise.
"""
from __future__ import annotations

import json
import math

import numpy as np
from scipy.optimize import linprog, minimize, nnls

INV_SQRT2 = 1.0 / math.sqrt(2.0)


def _verdict(line: str) -> dict:
    return dict(part.split("=", 1) for part in line.split() if "=" in part)


def _vector_arg(argv, flag):
    """The vector passed as ``flag=v1,v2,...`` (the form workloads.py uses)."""
    for a in argv:
        if a.startswith(flag + "="):
            return np.array([float(v) for v in a.split("=", 1)[1].split(",")])
    raise ValueError(f"{flag} missing from {argv}")


def _load(path):
    with open(path, encoding="utf-8") as fh:
        return json.load(fh)


def _linear(doc):
    A = np.array([row["a"] for row in doc["rows"]], dtype=float)
    b = np.array([row["b"] for row in doc["rows"]], dtype=float)
    return A, b


def _rel_close(value, expected, rel):
    return abs(value - expected) <= rel * max(abs(expected), 1e-300)


def min_dual_norm(P, norm):
    """min ||P^T lam||_dual over the simplex; the dual of the document norm."""
    k, n = P.shape
    if norm == "euclid":
        # nnls on [P^T; w 1^T] lam ~ [0; w]: the weight w enforces sum lam = 1
        w = 1e3 * (1.0 + float(np.abs(P).max()))
        E = np.vstack([P.T, w * np.ones((1, k))])
        f = np.concatenate([np.zeros(n), [w]])
        lam, _ = nnls(E, f, maxiter=50 * (k + n))
        lam /= lam.sum()
        return float(np.linalg.norm(P.T @ lam))
    # l1 decision norm has the linf dual and vice versa; both are LPs
    if norm == "l1":      # min t with -t <= (P^T lam)_i <= t
        c = np.concatenate([np.zeros(k), [1.0]])
        ub = np.vstack([np.hstack([P.T, -np.ones((n, 1))]),
                        np.hstack([-P.T, -np.ones((n, 1))])])
        bounds = [(0, None)] * k + [(None, None)]
    else:                 # min sum s with -s <= P^T lam <= s
        c = np.concatenate([np.zeros(k), np.ones(n)])
        ub = np.vstack([np.hstack([P.T, -np.eye(n)]), np.hstack([-P.T, -np.eye(n)])])
        bounds = [(0, None)] * (k + n)
    eq = np.concatenate([np.ones(k), np.zeros(c.size - k)])[None, :]
    res = linprog(c, A_ub=ub, b_ub=np.zeros(2 * n), A_eq=eq, b_eq=[1.0],
                  bounds=bounds, method="highs")
    if res.status != 0:
        raise ValueError(f"oracle LP ended with status {res.status}")
    return float(res.fun)


def exact_bound(A, b, x0, norm):
    """1 / min dual norm over the hull of the rows active at x0 (SSC assumed)."""
    active = np.abs(A @ x0 - b) <= 1e-9
    if not active.any():
        return 0.0
    return 1.0 / min_dual_norm(A[active], norm)


def polyhedron_distance(x, A, rhs, norm):
    """dist(x; {y : A y <= rhs}) in the document norm."""
    m, n = A.shape
    if norm == "euclid":
        # Lawson-Hanson least-distance programming: min ||z|| s.t. G z >= h
        # with z = y - x, G = -A, h = A x - rhs, solved through one nnls.
        G, h = -A, A @ x - rhs
        E = np.vstack([G.T, h[None, :]])
        f = np.concatenate([np.zeros(n), [1.0]])
        u, _ = nnls(E, f, maxiter=50 * (m + n))
        r = E @ u - f
        if np.linalg.norm(r) < 1e-12:
            raise ValueError("oracle: the polyhedron is empty")
        z = -r[:n] / r[n]
        return float(np.linalg.norm(z))
    # y = x + z, z = zp - zm; l1: min sum(zp + zm); linf: min t, zp + zm <= t
    if norm == "l1":
        c = np.ones(2 * n)
        ub = np.hstack([A, -A])
        b_ub = rhs - A @ x
        bounds = [(0, None)] * (2 * n)
    else:
        c = np.concatenate([np.zeros(2 * n), [1.0]])
        ub = np.vstack([np.hstack([A, -A, np.zeros((m, 1))]),
                        np.hstack([np.eye(n), np.zeros((n, n)), -np.ones((n, 1))]),
                        np.hstack([np.zeros((n, n)), np.eye(n), -np.ones((n, 1))])])
        b_ub = np.concatenate([rhs - A @ x, np.zeros(2 * n)])
        bounds = [(0, None)] * (2 * n + 1)
    res = linprog(c, A_ub=ub, b_ub=b_ub, bounds=bounds, method="highs")
    if res.status != 0:
        raise ValueError(f"oracle LP ended with status {res.status}")
    return float(res.fun)


def _convex_parts(doc):
    """Per-block callables: value f(y) (max_affine as a list of pieces)."""
    parts = []
    for e in doc["convex"]:
        if e["class"] == "quadratic":
            Q, c, r = np.array(e["Q"]), np.array(e["c"]), e["r"]
            parts.append([lambda y, Q=Q, c=c, r=r: 0.5 * y @ Q @ y + c @ y + r])
        elif e["class"] == "max_affine":
            parts.append([lambda y, c=np.array(p["c"]), d=p["d"]: c @ y + d
                          for p in e["pieces"]])
        elif e["class"] == "scaled_norm":
            s = np.array(e["shift"])
            parts.append([lambda y, k=e["kappa"], s=s, o=e["offset"]:
                          k * np.linalg.norm(y - s) + o])
        else:
            raise ValueError(f"no oracle for convex class {e['class']!r}")
    return parts


def convex_distance(doc, x, p):
    """Euclidean distance to {y : f_j(y) <= p_j} by SLSQP from two starts."""
    cons = [{"type": "ineq", "fun": lambda y, g=g, pj=pj: pj - g(y)}
            for parts, pj in zip(_convex_parts(doc), p) for g in parts]
    best = None
    for start in (x, np.zeros_like(x)):
        res = minimize(lambda y: float((y - x) @ (y - x)), start, jac=lambda y: 2 * (y - x),
                       constraints=cons, method="SLSQP",
                       options={"ftol": 1e-15, "maxiter": 500})
        viol = max(-c["fun"](res.x) for c in cons)
        if viol <= 1e-9:
            d = float(np.linalg.norm(res.x - x))
            best = d if best is None else min(best, d)
    if best is None:
        raise ValueError("convex distance oracle found no feasible point")
    return best


def conjugate(entry, u):
    """f*(u) in closed form (quadratic, scaled norm) or by LP (max_affine)."""
    if entry["class"] == "quadratic":
        Q, c = np.array(entry["Q"]), np.array(entry["c"])
        v = u - c
        return 0.5 * v @ np.linalg.solve(Q, v) - entry["r"]
    if entry["class"] == "scaled_norm":
        if np.linalg.norm(u) > entry["kappa"] * (1 + 1e-9):
            return math.inf
        return float(u @ np.array(entry["shift"])) - entry["offset"]
    C = np.array([p["c"] for p in entry["pieces"]]).T
    d = np.array([p["d"] for p in entry["pieces"]])
    k = d.size
    res = linprog(-d, A_eq=np.vstack([C, np.ones((1, k))]),
                  b_eq=np.concatenate([u, [1.0]]), bounds=[(0, None)] * k,
                  method="highs")
    return float(res.fun) if res.status == 0 else math.inf


def _history(csv_text):
    header, row = csv_text.strip().splitlines()[:2]
    col = header.split(",").index("history")
    return [float(h) for h in row.split(",")[col].split(" -> ")]


def _monotone(values):
    return all(b >= a - 1e-12 * max(1.0, abs(a)) for a, b in zip(values, values[1:]))


def check(rec) -> str | None:
    """None if the op succeeded and its output is right, else the reason."""
    if rec["exc"] is not None:
        return "raised " + rec["exc"].strip().splitlines()[-1]
    if rec["code"] != 0:
        return f"exit code {rec['code']}: {rec['stderr'].strip()[-200:]}"
    kind = rec["check"]["kind"]
    v = _verdict(rec["verdict"])
    argv = rec["argv"]
    try:
        return _CHECKS[kind](rec, v, argv)
    except (KeyError, ValueError, IndexError) as exc:
        return f"{kind}: could not check ({exc!r})"


def _paper_lip(rec, v, argv):
    if not abs(float(v["lip"]) - INV_SQRT2) <= 1e-9:
        return f"lip {v['lip']} is not 1/sqrt(2)"
    return None


def _ssc_true(rec, v, argv):
    return None if v["ssc"] == "true" else "ssc is not true"


def _paper_eps(rec, v, argv):
    if v["eps_active"] != "0" or v["matches_full"] != "true":
        return f"eps-active rows {v['eps_active']} / matches_full {v['matches_full']}"
    return _paper_lip(rec, {"lip": v["bound"]}, argv)


def _oracle_bound(rec, argv):
    doc = _load(rec["doc"])
    A, b = _linear(doc)
    return exact_bound(A, b, _vector_arg(argv, "--anchor"), doc["norm"])


def _minnorm_lip(rec, v, argv):
    want = _oracle_bound(rec, argv)
    if not _rel_close(float(v["lip"]), want, 1e-6):
        return f"lip {v['lip']} vs oracle {want!r}"
    return None


def _minnorm_codnorm(rec, v, argv):
    want = _oracle_bound(rec, argv)
    for key in ("codnorm", "lip"):
        if not _rel_close(float(v[key]), want, 1e-6):
            return f"{key} {v[key]} vs oracle bound {want!r}"
    return None


def _dist_oracle(rec, v, argv):
    doc = _load(rec["doc"])
    A, b = _linear(doc)
    index = {f"t{i}": i for i in range(A.shape[0])}
    assign = np.empty(A.shape[0], dtype=int)
    for j, blk in enumerate(doc["partition"]):
        assign[[index[t] for t in blk["labels"]]] = j
    rhs = b + _vector_arg(argv, "--p")[assign]
    want = polyhedron_distance(_vector_arg(argv, "--anchor"), A, rhs, doc["norm"])
    if not _rel_close(float(v["dist"]), want, 1e-6):
        return f"dist {v['dist']} vs oracle {want!r}"
    return None


def _csv(rec):
    with open(rec["out"], encoding="utf-8") as fh:
        return fh.read()


def _closure_gap(rec, v, argv):
    if float(v["estimate"]) < 0.95:
        return f"closure-gap estimate {v['estimate']} < 0.95"
    if "truncation" not in _csv(rec):
        return "truncation note missing from the report"
    return None


def _paper8_estimate(rec, v, argv):
    if not abs(float(v["estimate"]) - INV_SQRT2) <= 0.05 * INV_SQRT2:
        return f"estimate {v['estimate']} not within 5% of 1/sqrt(2)"
    return None


def _estimate_finite(rec, v, argv):
    est = float(v["estimate"])
    if not 0.0 < est < math.inf:
        return f"estimate {v['estimate']} is not finite and positive"
    rows = _csv(rec).strip().splitlines()[1:]
    samples = {int(r.split(",")[2]) for r in rows}
    if len(rows) != rec["check"]["radii"] or samples != {rec["check"]["samples"]}:
        return f"report has {len(rows)} radii with sample counts {samples}"
    return None


def _partition_compare(rec, v, argv):
    if v["ordered"] != "true":
        return "partition estimates are not ordered"
    return _minnorm_lip(rec, v, argv)


def _convex_lip(rec, v, argv):
    if v["regime"] != "Regular" or not 0.0 < float(v["lip"]) < math.inf:
        return f"convex bound {v['lip']} in regime {v['regime']}"
    hist = _history(_csv(rec))
    if not _monotone(hist) or hist[-1] != float(v["lip"]):
        return f"refinement history {hist} is not monotone up to the bound"
    return None


def _square_lip(rec, v, argv):
    if not abs(float(v["lip"]) - 0.5) <= 1e-3:
        return f"lip {v['lip']} of x^2-1 at 1 is not 0.5"
    return _convex_lip(rec, v, argv)


def _linearize_cuts(rec, v, argv):
    """Every cut (u, f*) must sit on the conjugate graph of its block."""
    src = {e["block"]: e for e in _load(rec["doc"])["convex"]}
    out = _load(rec["out"])
    by_label = {row["label"]: row for row in out["rows"]}
    if {blk["block"] for blk in out["partition"]} != set(src):
        return "linearization blocks differ from the functions"
    for blk in out["partition"]:
        for label in blk["labels"]:
            row = by_label[label]
            want = conjugate(src[blk["block"]], np.array(row["a"]))
            if not abs(row["b"] - want) <= 1e-6 * (1.0 + abs(want)):
                return f"cut {label}: f* {row['b']!r} vs conjugate {want!r}"
    return None


def _convex_dist(rec, v, argv):
    doc = _load(rec["doc"])
    want = convex_distance(doc, _vector_arg(argv, "--anchor"), _vector_arg(argv, "--p"))
    if not _rel_close(float(v["dist"]), want, 1e-6):
        return f"dist {v['dist']} vs oracle {want!r}"
    return None


_CHECKS = {
    "paper_lip": _paper_lip,
    "ssc_true": _ssc_true,
    "paper_eps": _paper_eps,
    "minnorm_lip": _minnorm_lip,
    "minnorm_codnorm": _minnorm_codnorm,
    "dist_oracle": _dist_oracle,
    "closure_gap": _closure_gap,
    "paper8_estimate": _paper8_estimate,
    "estimate_finite": _estimate_finite,
    "partition_compare": _partition_compare,
    "convex_lip": _convex_lip,
    "square_lip": _square_lip,
    "linearize_cuts": _linearize_cuts,
    "convex_dist": _convex_dist,
}
