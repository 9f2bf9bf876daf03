"""Command-line interface.

Every analysis command prints a short human-readable summary followed by a
single machine-parsable verdict line; CSV reports go to --out.  Exit codes:
0 success, 2 validation/schema errors (a document of a kind the verb does
not take among them), 3 solver or sampling non-convergence, 4 a cross-check
failed (no result reported).
Document-producing commands (demo, linearize) print clean JSON for piping.
"""
from __future__ import annotations

import argparse
import functools
import re
import sys

import numpy as np

from .convex import CutConfig, distance_convex, lip_bound_convex, linearize
from .documents import (
    SystemDocument,
    build_models,
    demo_generate,
    fmt,
    parse_system,
    serialize_document,
    write_csv,
)
from .errors import (
    InfeasibleAnchorError,
    InfeasibleRegionError,
    InternalCheckError,
    NonConvergentError,
    OrderingViolationError,
    RetryExhaustedError,
    SchemaError,
    SSCViolatedError,
    ValidationError,
)
from .estimator import SLACK_FRACTION, SamplingConfig, empirical_lip, partition_compare
from .model import BlockPartition, Perturbation
from .norms import NormSpec
from .stability import (
    check_ssc,
    coderivative_norm,
    distance_formula,
    eps_active,
    lip_bound,
)

_VALIDATION_ERRORS = (SchemaError, ValidationError, InfeasibleAnchorError,
                      SSCViolatedError, InfeasibleRegionError, ValueError)
_CONVERGENCE_ERRORS = (NonConvergentError, OrderingViolationError, RetryExhaustedError)


def _parse_vector(text, name):
    if text is None:
        raise ValueError(f"--{name} is required for this command")
    try:
        return np.array([float(v) for v in text.split(",") if v.strip() != ""])
    except ValueError as exc:
        raise ValueError(f"--{name} must be a comma-separated number list") from exc


def _load(args):
    """(document, models, partition, block labels, anchor) for the verb in args.

    A document of a kind the verb does not take is a validation error.  Any
    document error comes before an --anchor error; verbs without --anchor get None.
    """
    doc = parse_system(args.system)
    if ("convex" if doc.is_convex else "linear") not in args.kinds:
        raise ValidationError(f"{args.command} expects a {' or '.join(args.kinds)} document")
    model, partition, labels = build_models(doc)
    anchor = _parse_vector(args.anchor, "anchor") if "anchor" in args else None
    return doc, model, partition, labels, anchor


def _doc_notes(doc: SystemDocument):
    return (doc.truncation_note,) if doc.truncation_note else ()


def _emit(args, header, rows, human_lines, verdict):
    for line in human_lines:
        print(line)
    if args.out:
        write_csv(args.out, header, rows)
    print(verdict)
    return 0


def _emit_document(args, doc: SystemDocument):
    text = serialize_document(doc)
    if args.out:
        with open(args.out, "w", encoding="utf-8", newline="\n") as fh:
            fh.write(text)
    sys.stdout.write(text)
    return 0


def _sampling(args, **extra) -> SamplingConfig:
    return SamplingConfig(radii=tuple(float(r) for r in args.radius_ladder.split(",")),
                          samples_per_radius=args.samples, seed=args.seed, **extra)


def _cmd_ssc(args):
    _, system, _, _, _ = _load(args)
    rep = check_ssc(system, args.tol)
    human = [f"strong Slater condition: {'holds' if rep.holds else 'fails'}"]
    if rep.slater_point is not None:
        human.append("slater point: " + ",".join(fmt(v) for v in rep.slater_point))
    rows = [(rep.holds, rep.margin, rep.hull_gap)]
    verdict = f"ssc={fmt(rep.holds)} margin={fmt(rep.margin)} hull_gap={fmt(rep.hull_gap)}"
    return _emit(args, ["holds", "margin", "hull_gap"], rows, human, verdict)


def _cmd_dist(args):
    doc, model, partition, labels, x = _load(args)
    k = len(labels) if doc.is_convex else len(partition.block_labels)
    p = _parse_vector(args.p, "p") if args.p else np.zeros(k)
    if doc.is_convex:
        d = distance_convex(model, p, x, NormSpec(doc.norm))
    else:
        d = distance_formula(model, partition, Perturbation(tuple(p)), x, args.tol)
    rows = [(d, ";".join(fmt(v) for v in x), ";".join(fmt(v) for v in p))]
    human = [f"distance to the feasible set: {fmt(d)}"]
    return _emit(args, ["distance", "point", "p"], rows, human, f"dist={fmt(d)}")


def _cmd_lip(args):
    doc, model, _, _, anchor = _load(args)
    notes = _doc_notes(doc)
    if doc.is_convex:
        rep = lip_bound_convex(model, anchor, NormSpec(doc.norm), args.tol)
        history = " -> ".join(fmt(h) for h in rep.history)
        rows = [(rep.bound, rep.regime, history, "; ".join(notes))]
        human = [f"regime: {rep.regime}", f"history: {history}"]
        verdict = f"lip={fmt(rep.bound)} regime={rep.regime} converged=true"
        return _emit(args, ["bound", "regime", "history", "note"], rows, human, verdict)
    rep = lip_bound(model, anchor, args.tol)
    support = ""
    if rep.slice_weights is not None:
        support = ";".join(
            l for l, w in zip(model.labels, rep.slice_weights) if w > 1e-10
        )
    rows = [(rep.bound, rep.regime,
             rep.min_norm_value if rep.min_norm_value is not None else "",
             support, "; ".join(notes))]
    human = [f"regime: {rep.regime}"]
    if support:
        human.append(f"slice support: {support}")
    for note in notes:
        human.append(f"note: {note}")
    return _emit(args, ["bound", "regime", "min_norm_value", "support", "note"],
                 rows, human, f"lip={fmt(rep.bound)} regime={rep.regime}")


def _cmd_codnorm(args):
    _, system, partition, _, anchor = _load(args)
    rep = coderivative_norm(system, partition, anchor, args.tol)
    support = ""
    if rep.certificate is not None:
        support = ";".join(
            l for l, w in zip(system.labels, rep.certificate.cone_weights)
            if w > 1e-10
        )
    rows = [(rep.value, rep.lip_cross, support)]
    human = [f"coderivative norm matches the exact bound to {fmt(rep.lip_cross)}"]
    return _emit(args, ["value", "lip", "support"], rows, human,
                 f"codnorm={fmt(rep.value)} lip={fmt(rep.lip_cross)}")


def _cmd_eps_active(args):
    _, system, _, _, anchor = _load(args)
    res = eps_active(system, anchor, args.eps, args.tol)
    ids = ",".join(res.indices)
    rows = [(args.eps, ids, res.report.bound, res.report.regime, res.full_bound,
             res.matches_full)]
    human = [f"eps-active rows: {ids or '(none)'}",
             f"reduced bound {fmt(res.report.bound)} vs full {fmt(res.full_bound)}"]
    verdict = (f"eps_active={ids} bound={fmt(res.report.bound)} "
               f"matches_full={fmt(res.matches_full)}")
    return _emit(args, ["eps", "indices", "bound", "regime", "full_bound",
                        "matches_full"], rows, human, verdict)


def _cmd_linearize(args):
    doc, model, _, labels, anchor = _load(args)
    cfg = CutConfig(seed=args.seed, budget=args.budget)
    lin = linearize(model, cfg, anchor, NormSpec(doc.norm), block_labels=list(labels))
    return _emit_document(args, SystemDocument(doc.dimension, doc.norm, lin.system.rows,
                                               lin.partition.blocks, None,
                                               doc.truncation_note))


def _cmd_estimate(args):
    doc, system, partition, _, anchor = _load(args)
    cfg = _sampling(args, perturb_anchor=not args.fix_anchor)
    rep = empirical_lip(system, partition, anchor, cfg, notes=_doc_notes(doc))
    note = "; ".join(rep.notes)
    rows = [
        (s.radius, s.max_quotient, s.samples, s.zero_over_zero, rep.estimate, note)
        for s in sorted(rep.per_radius, key=lambda s: s.radius)
    ]
    human = [
        f"radius {fmt(s.radius)}: max quotient {fmt(s.max_quotient)} "
        f"({s.zero_over_zero} of {s.samples} samples were 0/0)"
        for s in rep.per_radius
    ] + [f"note: {n}" for n in rep.notes]
    return _emit(args, ["radius", "max_quotient", "samples", "zero_over_zero",
                        "estimate", "note"], rows, human,
                 f"estimate={fmt(rep.estimate)}")


def _cmd_compare(args):
    doc, system, partition, _, anchor = _load(args)
    user_partitions = [partition] if doc.partition is not None else [
        _random_partition(system.labels, args.blocks, args.seed)
    ]
    try:
        rep = partition_compare(system, user_partitions, anchor, _sampling(args))
    except OrderingViolationError as exc:
        if args.out:
            write_csv(args.out, ["partition", "bound_vs", "estimate", "other"],
                      [(n, other, e1, e2) for n, other, e1, e2 in exc.offending])
        raise
    rows = []
    for name, entry in rep.entries:
        for s in sorted(entry.per_radius, key=lambda s: s.radius):
            rows.append((name, s.radius, s.max_quotient, entry.estimate, rep.lip,
                         abs(entry.estimate - rep.lip) <= SLACK_FRACTION * rep.lip + 1e-9
                         if np.isfinite(rep.lip) else True))
    human = [f"{name}: estimate {fmt(entry.estimate)} (exact bound {fmt(rep.lip)})"
             for name, entry in rep.entries]
    verdict = (f"ordered={fmt(rep.ordered)} converged={fmt(rep.converged)} "
               f"lip={fmt(rep.lip)}")
    return _emit(args, ["partition", "radius", "max_quotient", "estimate", "lip",
                        "within_slack"], rows, human, verdict)


def _random_partition(labels, k, seed):
    rng = np.random.default_rng((seed, len(labels)))
    order = list(labels)
    rng.shuffle(order)
    k = max(1, min(k, len(order)))
    blocks = []
    size = len(order) // k
    for i in range(k):
        chunk = order[i * size:] if i == k - 1 else order[i * size:(i + 1) * size]
        blocks.append((f"B{i}", tuple(chunk)))
    return BlockPartition(tuple(blocks))


def _cmd_demo(args):
    params = {}
    if args.N is not None:
        params["N"] = args.N
    if args.n is not None:
        params["n"] = args.n
    if args.m is not None:
        params["m"] = args.m
    params["seed"] = args.seed
    return _emit_document(args, demo_generate(args.name, **params))


def _add_common(sub, anchor=True):
    sub.add_argument("--system", default=None, help="system document path ('-' = stdin)")
    if anchor:
        sub.add_argument("--anchor", default=None, help='nominal point "x1,...,xn"')
    sub.add_argument("--out", default=None, help="CSV report path")
    sub.add_argument("--seed", type=int, default=0,
                     help="read by estimate, compare-partitions and linearize only")
    sub.add_argument("--tol", type=float, default=1e-9,
                     help="relative to each row's norm for ssc, linear dist and "
                          "active rows; absolute for anchor feasibility")


@functools.cache
def build_parser():
    """The command-line parser, built on first use and shared by every run_cli call.

    parse_args leaves a parser unchanged, so reusing it keeps each call's
    result and errors as they were; importing the module builds nothing.
    """
    parser = argparse.ArgumentParser(
        prog="lipstab",
        description="Exact Lipschitzian stability bounds for block-perturbed "
                    "linear and convex inequality systems.",
    )
    subs = parser.add_subparsers(dest="command", required=True)

    p = subs.add_parser("ssc", help="certify the strong Slater condition")
    _add_common(p, anchor=False)
    p.set_defaults(func=_cmd_ssc, kinds=("linear",))

    p = subs.add_parser("dist", help="distance to the perturbed feasible set")
    _add_common(p)
    p.add_argument("--p", default=None, help='per-block perturbation "p1,...,pk"')
    p.set_defaults(func=_cmd_dist, kinds=("linear", "convex"))

    p = subs.add_parser("lip", help="exact Lipschitzian bound at the anchor")
    _add_common(p)
    p.set_defaults(func=_cmd_lip, kinds=("linear", "convex"))

    p = subs.add_parser("codnorm", help="coderivative norm (cross-checked)")
    _add_common(p)
    p.set_defaults(func=_cmd_codnorm, kinds=("linear",))

    p = subs.add_parser("eps-active", help="eps-active rows and reduced bound")
    _add_common(p)
    p.add_argument("--eps", type=float, required=True)
    p.set_defaults(func=_cmd_eps_active, kinds=("linear",))

    p = subs.add_parser("linearize", help="conjugate-cut linearization document")
    _add_common(p)
    p.add_argument("--budget", type=int, default=64, help="sampled cuts per function")
    p.set_defaults(func=_cmd_linearize, kinds=("convex",))

    p = subs.add_parser("estimate", help="empirical quotient estimate")
    _add_common(p)
    p.add_argument("--radius-ladder", default="1e-1,1e-2,1e-3")
    p.add_argument("--samples", type=int, default=2000)
    p.add_argument("--fix-anchor", action="store_true",
                   help="perturb p only, keeping x at the anchor")
    p.set_defaults(func=_cmd_estimate, kinds=("linear",))

    p = subs.add_parser("compare-partitions",
                        help="min/user/max partition estimates vs the exact bound")
    _add_common(p)
    p.add_argument("--radius-ladder", default="1e-2,1e-3")
    p.add_argument("--samples", type=int, default=1000)
    p.add_argument("--blocks", type=int, default=2,
                   help="random middle partition block count")
    p.set_defaults(func=_cmd_compare, kinds=("linear",))

    p = subs.add_parser("demo", help="emit a built-in demo document")
    p.add_argument("name", choices=["paper-example", "convex-square",
                                    "convex-square-shifted", "random"])
    p.add_argument("--N", type=int, default=None)
    p.add_argument("--n", type=int, default=None)
    p.add_argument("--m", type=int, default=None)
    p.add_argument("--seed", type=int, default=0)
    p.add_argument("--out", default=None)
    p.set_defaults(func=_cmd_demo)
    return parser


def run_cli(argv) -> int:
    # argparse reads "--anchor -0.3,0.1" as two flags: attach such values
    argv = list(argv)
    for i in range(len(argv) - 1, 0, -1):
        if argv[i - 1] in ("--anchor", "--p") and re.match(r"-\.?\d", argv[i]):
            argv[i - 1:i + 1] = [f"{argv[i - 1]}={argv[i]}"]
    args = build_parser().parse_args(argv)
    try:
        return args.func(args)
    except _VALIDATION_ERRORS as exc:
        print(f"error: {exc}", file=sys.stderr)
        return 2
    except _CONVERGENCE_ERRORS as exc:
        print(f"error: {exc}", file=sys.stderr)
        return 3
    except InternalCheckError as exc:
        print(f"error: {exc}", file=sys.stderr)
        return 4


def main():
    sys.exit(run_cli(sys.argv[1:]))


if __name__ == "__main__":
    main()
