"""Timed side of the benchmark: one fresh process, one client, closed loop.

Started by bench/run.py.  It imports ``lipstab.cli``, warms up, then calls
``run_cli`` in-process on one op after another, each op sent only after the
previous one returned.  It writes one JSON result file and prints nothing.

Untraced mode runs a fixed number of whole passes over the workload's op
mix, so every run has the same op count and its percentiles mean the same
thing.  ``--seconds`` sets that number through ``PASS_S``, the length of one
pass on the seed code (2 vCPU, Python 3.11, numpy 2.4 on OpenBLAS).  Traced
mode runs a fixed list of passes (``TRACE_CYCLES``) three times: once
untraced, then twice traced.  That gives the tracing overhead, a
byte-for-byte comparison of the outputs and a check that the work counts
repeat exactly.
"""
from __future__ import annotations

import argparse
import contextlib
import hashlib
import io
import json
import os
import time
import traceback

import lipstab.cli
import workloads
from tracer import Tracer

WARMUP_CYCLE = 10**6        # input stream of the warm-up ops, never measured
WARMUP_S = 1.0
WALL_CAP_S = 140.0          # stop early rather than miss the 180 s limit
TRACE_CYCLES = {"exact-bound": 1, "sampling": 1, "distance": 15}
PASS_S = {"exact-bound": 12.5, "sampling": 7.5, "distance": 0.33}
# Fewest passes per run: enough ops that the tail percentile has ten ops
# beyond it and falls inside one op class (p75 among the N = 5000 ssc and
# eps-active ops on exact-bound, among compare-partitions on sampling).
MIN_CYCLES = {"exact-bound": 3, "sampling": 4, "distance": 30}


def run_op(op, call):
    """One closed-loop step.  The digest covers stdout and the --out file."""
    out, err = io.StringIO(), io.StringIO()
    exc = None
    t = time.perf_counter()
    with contextlib.redirect_stdout(out), contextlib.redirect_stderr(err):
        try:
            code = call(op["argv"])
        except SystemExit as e:          # argparse rejected the argv
            code, exc = e.code, f"SystemExit({e.code!r})"
        except Exception:                # the loop must go on; the op is failed
            code, exc = None, traceback.format_exc(limit=3)
    latency = time.perf_counter() - t
    text = out.getvalue()
    lines = text.strip().splitlines()
    record = dict(op, code=code, exc=exc, latency=latency,
                  verdict=lines[-1] if lines else "", stderr=err.getvalue()[-500:])
    try:
        with open(op["out"], "rb") as fh:
            report = fh.read()
    except FileNotFoundError:
        report = b""
    record["digest"] = hashlib.sha256(text.encode() + b"\0" + report).hexdigest()
    return record


def warm_up(factory, workload, seed):
    busy = 0.0
    for op in workloads.cycle_ops(factory, workload, seed, WARMUP_CYCLE):
        busy += run_op(op, lipstab.cli.run_cli)["latency"]
        if busy >= WARMUP_S:
            break


def timed_loop(factory, workload, seed, seconds, start_wall):
    passes = max(MIN_CYCLES[workload], round(seconds / PASS_S[workload]))
    records = []
    for cycle in range(passes):
        if time.perf_counter() - start_wall > WALL_CAP_S:
            break
        for op in workloads.cycle_ops(factory, workload, seed, cycle):
            records.append(run_op(op, lipstab.cli.run_cli))
    return records


def traced_passes(factory, workload, seed, trace_path):
    ops = [op for c in range(TRACE_CYCLES[workload])
           for op in workloads.cycle_ops(factory, workload, seed, c)]
    passes = []
    for k in range(3):
        tracer = Tracer() if k else None
        sites = tracer.install() if tracer else {}
        call = lipstab.cli.run_cli  # the wrapper while the tracer is installed
        records = []
        try:
            for i, op in enumerate(ops):
                if tracer is not None:
                    tracer.op = i
                records.append(run_op(op, call))
        finally:
            if tracer is not None:
                tracer.uninstall()
        passes.append({"records": records, "sites": sites,
                       "layers": tracer.summary() if tracer else None})
        if k == 1:
            tracer.dump(trace_path)
    return passes


def peak_rss_mb():
    """High-water RSS of this process image.

    ru_maxrss is not used: Linux keeps it across execve, so it would report
    the parent's size at fork time when that is larger.
    """
    with open("/proc/self/status", encoding="ascii") as fh:
        for line in fh:
            if line.startswith("VmHWM:"):
                return int(line.split()[1]) / 1024.0
    raise OSError("VmHWM missing from /proc/self/status")


def blas_threads():
    """OpenBLAS thread count as numpy's bundled library reports it."""
    import ctypes
    import glob

    import numpy as np

    libdir = os.path.join(os.path.dirname(os.path.dirname(np.__file__)), "numpy.libs")
    for path in glob.glob(os.path.join(libdir, "libscipy_openblas*.so")):
        lib = ctypes.CDLL(path)
        for sym in ("scipy_openblas_get_num_threads64_", "openblas_get_num_threads64_",
                    "openblas_get_num_threads"):
            fn = getattr(lib, sym, None)
            if fn is not None:
                fn.restype = ctypes.c_int
                fn.argtypes = []
                return int(fn())
    return None


def main():
    start_wall = time.perf_counter()
    ap = argparse.ArgumentParser()
    ap.add_argument("--workload", required=True, choices=workloads.WORKLOADS)
    ap.add_argument("--seed", type=int, required=True)
    ap.add_argument("--seconds", type=float, required=True)
    ap.add_argument("--trace", type=int, choices=(0, 1), required=True)
    ap.add_argument("--workdir", required=True)
    ap.add_argument("--result", required=True)
    ap.add_argument("--spans", required=True)
    args = ap.parse_args()

    factory = workloads.OpFactory(args.workdir)
    warm_up(factory, args.workload, args.seed)
    result = {"lipstab_file": lipstab.cli.__file__,
              "blas_threads": blas_threads(),
              "lipstab_threads": os.environ.get("LIPSTAB_THREADS", "unset (1)")}
    if args.trace:
        result["passes"] = traced_passes(factory, args.workload, args.seed, args.spans)
    else:
        result["records"] = timed_loop(factory, args.workload, args.seed,
                                       args.seconds, start_wall)
    result["peak_rss_mb"] = peak_rss_mb()
    with open(args.result, "w", encoding="utf-8") as fh:
        json.dump(result, fh)


if __name__ == "__main__":
    main()
