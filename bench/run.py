"""lipstab benchmark: CLI workloads end to end, and per-layer timing.

    python3 bench/run.py --workload exact-bound --seed 1 --seconds 30 --trace 0

Run from the repository root (any directory works; paths are resolved from
this file).  ``--trace 0`` prints the end-to-end metrics, ``--trace 1`` the
per-layer metrics of a separate traced run.  Human-readable lines come
first; the last stdout line is one JSON object with the keys ``correct``,
``attempted``, ``failed`` and ``metrics``.  See bench/NOTES.md for the
workloads, the metric definitions and the checks.
"""
from __future__ import annotations

import argparse
import json
import os
import platform
import shutil
import statistics
import subprocess
import sys
import time
from pathlib import Path

import numpy as np

BENCH = Path(__file__).resolve().parent
ROOT = BENCH.parent
SRC = ROOT / "src"
sys.path.insert(0, str(BENCH))

import oracles  # noqa: E402
import workloads  # noqa: E402
from tracer import LAYERS  # noqa: E402

SETUP_RUNS = 4           # before the worker, and as many again after it
RUN_LIMIT_S = 170.0
TAIL_LADDER = (50.0, 75.0, 90.0, 95.0, 99.0, 99.9)
IMPORT_SNIPPET = ("import time\nt = time.perf_counter()\nimport lipstab.cli\n"
                  "print(repr(time.perf_counter() - t))\n")

# Functions that must be called at least once in the traced run of the
# workload that exercises their layer; a zero means a binding was missed.
REQUIRED = {
    "exact-bound": (
        "solvers.simplex.solve_standard", "solvers.simplex.lp_solve",
        "solvers.simplex.lp_solve_nonneg", "stability.check_ssc", "stability.lip_bound",
        "stability.eps_active", "stability.coderivative_norm",
        "solvers.minnorm.min_norm_point", "solvers.minnorm.min_norm_sliced_hull",
        "documents.parse_system", "documents.build_models", "documents.write_csv",
        "model.validate", "cli.run_cli"),
    "sampling": (
        "solvers.projection.project_polyhedron", "estimator.empirical_lip",
        "estimator.partition_compare", "cli.run_cli"),
    "distance": (
        "solvers.ratio.max_ratio_over_hull", "stability.distance_formula",
        "convex.linearize", "convex.lip_bound_convex", "convex.distance_convex",
        "cli.run_cli"),
}

# Per-layer metrics: every traced function gets calls, s (busy time) and
# self_s (busy time minus child spans), plus the counts below.  The metric
# name is the function key without "solvers." and then the field.
COUNTS = {
    "solvers.simplex.solve_standard": ("pivots", "max_rows", "max_tableau_mb_computed"),
    "solvers.minnorm.min_norm_point": ("iterations",),
    "solvers.minnorm.min_norm_sliced_hull": ("iterations",),
    "documents.parse_system": ("bytes",),
    "solvers.projection.project_polyhedron": ("infeasible",),
    "estimator.empirical_lip": ("samples", "samples_per_s"),
    "convex.linearize": ("rows",),
    "convex.lip_bound_convex": ("rounds",),
}
UNITS = {"s": "s", "self_s": "s", "bytes": "bytes", "samples_per_s": "1/s",
         "max_tableau_mb_computed": "MB"}
TIME_FIELDS = ("s", "self_s")


def die(message):
    print(f"bench: {message}", file=sys.stderr)
    sys.exit(2)


def child_env():
    env = dict(os.environ)
    env.pop("LIPSTAB_THREADS", None)      # left unset: the estimator runs 1 thread
    env["PYTHONPATH"] = str(SRC)
    return env


def setup_times(runs):
    """Import time of lipstab.cli, each in a fresh interpreter."""
    times = []
    for _ in range(runs):
        out = subprocess.run([sys.executable, "-c", IMPORT_SNIPPET], env=child_env(),
                             cwd=ROOT, capture_output=True, text=True, timeout=60)
        if out.returncode != 0:
            die(f"importing lipstab.cli failed:\n{out.stderr}")
        times.append(float(out.stdout.strip()))
    return times


def environment(seed, worker):
    def first(path, prefix):
        try:
            with open(path, encoding="utf-8") as fh:
                for line in fh:
                    if line.startswith(prefix):
                        return line.split(":", 1)[1].strip()
        except OSError:
            pass
        return None

    commit, dirty = None, None
    try:
        rev = subprocess.run(["git", "-C", str(ROOT), "rev-parse", "HEAD"],
                             capture_output=True, text=True, timeout=30)
        if rev.returncode == 0:
            commit = rev.stdout.strip()
            st = subprocess.run(["git", "-C", str(ROOT), "status", "--porcelain"],
                                capture_output=True, text=True, timeout=30)
            dirty = bool(st.stdout.strip())
    except (OSError, subprocess.TimeoutExpired):
        pass
    blas = np.show_config(mode="dicts")["Build Dependencies"]["blas"]
    return {
        "nproc": os.cpu_count(),
        "cpu": first("/proc/cpuinfo", "model name") or platform.processor(),
        "ram_gb": round(int(first("/proc/meminfo", "MemTotal").split()[0]) / 2**20, 2),
        "python": platform.python_version(),
        "numpy": np.__version__,
        "blas": f"{blas.get('name')} {blas.get('version')}",
        "blas_threads": worker["blas_threads"],
        "LIPSTAB_THREADS": worker["lipstab_threads"],
        "workload_seed": seed,
        "git_commit": commit,
        "git_dirty": dirty,
        "clients": 1,
    }


def tail(latencies):
    """Highest ladder percentile with at least ten ops beyond it."""
    lat = np.asarray(latencies)
    best = None
    for q in TAIL_LADDER:
        value = float(np.percentile(lat, q))
        beyond = int((lat > value).sum())
        if beyond >= 10 or best is None:
            best = (q, value, beyond)
    return best


def end_to_end(records, setup, peak_rss, failed):
    lat = [r["latency"] for r in records]
    q, value, beyond = tail(lat)
    metrics = {
        "ops_per_s": (len(lat) / sum(lat), "1/s"),
        "op_p50_s": (float(np.percentile(lat, 50)), "s"),
        "op_tail_s": (value, "s"),
        "peak_rss_mb": (peak_rss, "MB"),
        "setup_s": (statistics.median(setup), "s"),
    }
    print(f"ops: {len(lat)} in {sum(lat):.3f} s busy; tail is p{q:g} "
          f"with {beyond} ops beyond it")
    print(f"failed_op_share: {failed / len(lat):.6g} (failed {failed} of {len(lat)})")
    return metrics


def _strip_times(layers):
    return {k: {f: v for f, v in e.items() if f not in TIME_FIELDS}
            for k, e in layers.items()}


def per_layer(workload, passes, problems):
    plain, first, second = passes
    layers = first["layers"]
    for key in REQUIRED[workload]:
        if layers[key]["calls"] == 0:
            problems.append(f"traced run never called {key} "
                            f"(bound at {first['sites'].get(key, [])})")
    if _strip_times(first["layers"]) != _strip_times(second["layers"]):
        diff = [k for k in layers if _strip_times(first["layers"])[k]
                != _strip_times(second["layers"])[k]]
        problems.append(f"work counts differ between two traced runs: {diff}")
    for a, b, c in zip(plain["records"], first["records"], second["records"]):
        if not a["digest"] == b["digest"] == c["digest"]:
            problems.append(f"traced output differs from untraced: {a['argv'][:3]}")
            break

    emp = layers["estimator.empirical_lip"]
    emp["samples_per_s"] = emp.get("samples", 0) / emp["s"] if emp["s"] > 0 else 0.0
    metrics = {}
    for key in layers:
        for field in ("calls", "s", "self_s") + COUNTS.get(key, ()):
            name = f"{key.removeprefix('solvers.')}.{field}"
            metrics[name] = (float(layers[key].get(field, 0)), UNITS.get(field, "count"))
    total_self = {layer: 0.0 for layer in LAYERS}
    for key, entry in layers.items():
        total_self[key.rsplit(".", 1)[0]] += entry["self_s"]
    for layer in LAYERS:
        metrics[f"layer.{layer}.self_s"] = (total_self[layer], "s")
    busy = [sum(r["latency"] for r in p["records"]) for p in passes]
    n = len(plain["records"])
    metrics["trace.overhead_share"] = ((n / busy[0] - n / busy[1]) / (n / busy[0]), "share")

    ranked = sorted(total_self.items(), key=lambda kv: -kv[1])
    print("layer self time (first traced run):")
    for layer, s in ranked:
        print(f"  {layer:22s} {s:10.4f} s  {100 * s / busy[1]:5.1f}%")
    print(f"untraced {n / busy[0]:.4g} ops/s, traced {n / busy[1]:.4g} ops/s")
    return metrics


def main():
    ap = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    ap.add_argument("--workload", required=True, choices=workloads.WORKLOADS)
    ap.add_argument("--seed", type=int, required=True)
    ap.add_argument("--seconds", type=float, required=True)
    ap.add_argument("--trace", type=int, choices=(0, 1), required=True)
    args = ap.parse_args()
    start = time.perf_counter()
    if not (SRC / "lipstab" / "cli.py").is_file():
        die(f"no lipstab sources under {SRC}")

    setup = [] if args.trace else setup_times(SETUP_RUNS)
    out_dir = ROOT / ".bench_work"
    tag = f"{args.workload}-s{args.seed}-t{args.trace}"
    workdir = out_dir / f"{tag}-{os.getpid()}"
    workdir.mkdir(parents=True, exist_ok=True)
    result_path = workdir / "worker.json"
    try:
        cmd = [sys.executable, str(BENCH / "worker.py"), "--workload", args.workload,
               "--seed", str(args.seed), "--seconds", str(args.seconds),
               "--trace", str(args.trace), "--workdir", str(workdir),
               "--result", str(result_path),
               "--spans", str(out_dir / f"spans-{tag}.jsonl")]
        budget = RUN_LIMIT_S - (time.perf_counter() - start)
        try:
            proc = subprocess.run(cmd, env=child_env(), cwd=ROOT, timeout=budget,
                                  capture_output=True, text=True)
        except subprocess.TimeoutExpired:
            die(f"worker exceeded {budget:.0f} s")
        if proc.returncode != 0:
            die(f"worker failed with code {proc.returncode}:\n{proc.stderr[-3000:]}")
        if not args.trace:
            setup += setup_times(SETUP_RUNS)
        with open(result_path, encoding="utf-8") as fh:
            res = json.load(fh)
        if not Path(res["lipstab_file"]).resolve().is_relative_to(SRC.resolve()):
            die(f"worker imported lipstab from {res['lipstab_file']}, not {SRC}")

        env = environment(args.seed, res)
        print("environment: " + json.dumps(env))
        records = (res["records"] if not args.trace
                   else [r for p in res["passes"] for r in p["records"]])
        failures = []
        for r in records:
            reason = oracles.check(r)
            if reason is not None:
                failures.append(f"{r['cmd']} [{r['check']['kind']}]: {reason}")
        for line in failures[:20]:
            print("FAILED " + line)
        problems = []
        if args.trace:
            metrics = per_layer(args.workload, res["passes"], problems)
        else:
            metrics = end_to_end(records, setup, res["peak_rss_mb"], len(failures))
        for line in problems:
            print("TRACE CHECK FAILED " + line)
        for name, (value, unit) in metrics.items():
            print(f"{name:44s} {value:.6g} {unit}")
        summary = {"environment": env, "metrics": metrics, "failures": failures,
                   "problems": problems, "setup_runs_s": setup}
        with open(out_dir / f"result-{tag}.json", "w", encoding="utf-8") as fh:
            json.dump(summary, fh, indent=1)
    finally:
        shutil.rmtree(workdir, ignore_errors=True)

    print(json.dumps({
        "correct": not failures and not problems,
        "attempted": len(records),
        "failed": len(failures),
        "metrics": {k: {"value": v, "unit": u} for k, (v, u) in metrics.items()},
    }))


if __name__ == "__main__":
    main()
