"""Out-of-program tracing: spans around the public functions of each layer.

``Tracer.install`` replaces every module-level binding of each traced
function inside the ``lipstab`` package with a wrapper, so names imported
with ``from .x import f`` are covered at every call site.  Spans record
name, start, end, parent span and op index; they stay in memory until the
run ends.  Counts are read from arguments and return values only, never
from inside the program.
"""
from __future__ import annotations

import functools
import json
import os
import sys
import time

# (module, function) pairs traced; the layer of a function is its module.
TARGETS = (
    ("lipstab.solvers.simplex", "solve_standard"),
    ("lipstab.solvers.simplex", "lp_solve"),
    ("lipstab.solvers.simplex", "lp_solve_nonneg"),
    ("lipstab.stability", "check_ssc"),
    ("lipstab.stability", "lip_bound"),
    ("lipstab.stability", "eps_active"),
    ("lipstab.stability", "coderivative_norm"),
    ("lipstab.stability", "distance_formula"),
    ("lipstab.solvers.minnorm", "min_norm_point"),
    ("lipstab.solvers.minnorm", "min_norm_sliced_hull"),
    ("lipstab.documents", "parse_system"),
    ("lipstab.documents", "build_models"),
    ("lipstab.documents", "write_csv"),
    ("lipstab.model", "validate"),
    ("lipstab.solvers.projection", "project_polyhedron"),
    ("lipstab.estimator", "empirical_lip"),
    ("lipstab.estimator", "partition_compare"),
    ("lipstab.solvers.ratio", "max_ratio_over_hull"),
    ("lipstab.convex", "linearize"),
    ("lipstab.convex", "lip_bound_convex"),
    ("lipstab.convex", "distance_convex"),
    ("lipstab.cli", "run_cli"),
)

LAYERS = tuple(dict.fromkeys(mod.removeprefix("lipstab.") for mod, _ in TARGETS))


def _key(module: str, name: str) -> str:
    return f"{module.removeprefix('lipstab.')}.{name}"


def _counts(key, args, result, raised):
    """Work counts of one call, from its arguments and outcome only."""
    if raised is not None:
        if key == "solvers.projection.project_polyhedron" and \
                type(raised).__name__ == "InfeasibleRegionError":
            return {"infeasible": 1}
        return {}
    if key == "documents.parse_system":
        path = args[0] if args else None
        return {"bytes": os.path.getsize(path) if path not in (None, "-") else 0}
    if key == "solvers.simplex.solve_standard":
        m, n_cols = args[1].shape
        # _Tableau holds [A | I] (m x (N + m)) and the m x m basis inverse
        mb = 8.0 * (m * (n_cols + m) + m * m) / 2**20
        return {"pivots": result[0].iterations, "max_rows": m, "max_tableau_mb_computed": mb}
    if key == "solvers.minnorm.min_norm_point":
        return {"iterations": result[4]}
    if key == "solvers.minnorm.min_norm_sliced_hull":
        return {"iterations": result.iterations}
    if key == "estimator.empirical_lip":
        return {"samples": sum(s.samples for s in result.per_radius)}
    if key == "convex.linearize":
        return {"rows": len(result.system.rows)}
    if key == "convex.lip_bound_convex":
        return {"rounds": len(result.history) - 1}
    return {}


class Tracer:
    """Collects spans; ``install``/``uninstall`` patch the package in place."""

    def __init__(self):
        self.spans = []     # [key, start, end, parent, op, child_time, counts]
        self._stack = []
        self.op = -1
        self._patched = []  # (module object, attribute, original)

    def _wrap(self, key, fn):
        @functools.wraps(fn)
        def wrapper(*args, **kwargs):
            parent = self._stack[-1] if self._stack else -1
            idx = len(self.spans)
            span = [key, time.perf_counter(), 0.0, parent, self.op, 0.0, None]
            self.spans.append(span)
            self._stack.append(idx)
            raised = None
            result = None
            try:
                result = fn(*args, **kwargs)
                return result
            except BaseException as exc:
                raised = exc
                raise
            finally:
                span[2] = time.perf_counter()
                self._stack.pop()
                if parent >= 0:
                    self.spans[parent][5] += span[2] - span[1]
                span[6] = _counts(key, args, result, raised)
        return wrapper

    def install(self):
        """Wrap every binding of every target; returns the sites per target."""
        sites = {}
        originals = {}
        for mod, name in TARGETS:
            originals[id(getattr(sys.modules[mod], name))] = _key(mod, name)
        wrappers = {}
        for mod_name, module in sorted(sys.modules.items()):
            if not (mod_name == "lipstab" or mod_name.startswith("lipstab.")):
                continue
            for attr, value in list(vars(module).items()):
                key = originals.get(id(value))
                if key is None:
                    continue
                if key not in wrappers:
                    wrappers[key] = self._wrap(key, value)
                setattr(module, attr, wrappers[key])
                self._patched.append((module, attr, value))
                sites.setdefault(key, []).append(mod_name)
        return sites

    def uninstall(self):
        for module, attr, value in reversed(self._patched):
            setattr(module, attr, value)
        self._patched.clear()

    def summary(self):
        """Per-function totals: calls, busy s, self s and summed counts."""
        out = {_key(m, n): {"calls": 0, "s": 0.0, "self_s": 0.0} for m, n in TARGETS}
        for key, start, end, _, _, child, counts in self.spans:
            entry = out[key]
            entry["calls"] += 1
            entry["s"] += end - start
            entry["self_s"] += end - start - child
            for name, value in counts.items():
                if name.startswith("max_"):
                    entry[name] = max(entry.get(name, 0), value)
                else:
                    entry[name] = entry.get(name, 0) + value
        return out

    def dump(self, path):
        """Write the spans as JSON lines: name, start, end, parent, op."""
        with open(path, "w", encoding="utf-8") as fh:
            for key, start, end, parent, op, _, _ in self.spans:
                fh.write(json.dumps({"name": key, "start": start, "end": end,
                                     "parent": parent, "op": op}) + "\n")
