"""Command-line front end: compute, generate, bound, verify, audit.

Exit statuses: 0 success / no violation, 1 usage error, 2 input error,
3 verification violation found. All numeric output is exact-fraction
first, decimal second; JSON output carries numerator/denominator fields.
"""

from __future__ import annotations

import argparse
import json
import os
import sys
from fractions import Fraction

from . import bounds as bounds_mod
from . import connectivity as conn_mod
from . import core
from . import io as io_mod
from . import verifier
from .constructions import (
    LambdaPCParams,
    PathCompleteParams,
    dpk_select,
    kappa_pc_digraph,
    lambda_pc_graph,
    pc_graph,
    pk_lambda_select,
    pk_select,
    profile_digraph,
)

EXIT_OK = 0
EXIT_USAGE = 1
EXIT_INPUT = 2
EXIT_VIOLATION = 3

# generate builds all of a digraph's arcs, up to n(n - 1); `generate
# complete --n 700` peaks at about 135 MB. compute refuses a loaded digraph
# above it too, as its invariants take memory that grows with the order.
GENERATE_MAX_ORDER = 700
_EXHAUSTIVE_ONLY_CHECKS = ("eulerian_size_theorem", "extremal_uniqueness", "lemma_monotonicity")
_KAPPA_MAX_DEFAULT = 3
# check-specific verify flags, by argparse dest
_CHECK_FLAGS = {
    "class_filter": "--class",
    "m": "--m",
    "kappa": "--kappa",
    "lam": "--lambda",
    "kappa_max": "--kappa-max",
}


class UsageError(Exception):
    pass


class _Parser(argparse.ArgumentParser):
    def error(self, message: str):  # argparse defaults to exit code 2
        raise UsageError(message)


def _fraction_text(value: Fraction) -> str:
    return f"{value} (= {float(value):g})"


def _fraction_json(value: Fraction) -> dict:
    return {"num": value.numerator, "den": value.denominator, "decimal": float(value)}


def _emit(doc: str, output: str | None) -> int:
    """Write the document; an ``--output`` file that cannot be written is an input error."""
    if output:
        try:
            with open(output, "w", encoding="utf-8") as f:
                f.write(doc)
        except OSError as exc:
            print(f"input error: {exc}", file=sys.stderr)
            return EXIT_INPUT
    else:
        sys.stdout.write(doc)
    return EXIT_OK


def _build_parser() -> _Parser:
    parser = _Parser(prog="dgr", description=__doc__)
    sub = parser.add_subparsers(dest="command", required=True)

    p_compute = sub.add_parser("compute", help="invariants of an input digraph")
    p_compute.add_argument("--input", required=True, help="edge-list file")
    p_compute.add_argument(
        "--invariant",
        required=True,
        choices=[
            "remoteness", "rho", "transmission", "sigma", "avg",
            "ecc", "diam", "profile", "kappa", "lambda", "eulerian",
        ],
    )
    p_compute.add_argument("--vertex", type=int, default=None)
    p_compute.add_argument("--undirected", action="store_true",
                           help="read the file as a graph and bidirect it")
    p_compute.add_argument("--format", choices=["text", "json"], default="text")
    p_compute.add_argument("--output", default=None)

    p_gen = sub.add_parser("generate", help="emit a construction as edge list or DOT")
    p_gen.add_argument(
        "family",
        choices=["dpk", "pk", "pklambda", "cycle", "complete", "profile"],
    )
    p_gen.add_argument("--n", type=int, default=None)
    p_gen.add_argument("--m", type=int, default=None)
    p_gen.add_argument("--kappa", type=int, default=None)
    p_gen.add_argument("--ell", type=int, default=None)
    p_gen.add_argument("--a", type=int, default=None)
    p_gen.add_argument("--b", type=int, default=None)
    p_gen.add_argument("--lambda", dest="lam", type=int, default=None)
    p_gen.add_argument("--variant", choices=["A", "B", "C"], default=None)
    p_gen.add_argument("--k", type=int, default=None)
    p_gen.add_argument("--blocks", default=None, help="comma-separated block sizes")
    p_gen.add_argument("--format", choices=["edges", "dot"], default="edges")
    p_gen.add_argument("--output", default=None)

    p_bound = sub.add_parser("bound", help="evaluate a closed-form bound")
    p_bound.add_argument("--bound", required=True, choices=list(bounds_mod.BOUND_IDS))
    p_bound.add_argument("--n", type=int, required=True)
    p_bound.add_argument("--m", type=int, default=None)
    p_bound.add_argument("--kappa", type=int, default=None)
    p_bound.add_argument("--lambda", dest="lam", type=int, default=None)
    p_bound.add_argument("--format", choices=["text", "json"], default="text")
    p_bound.add_argument("--output", default=None)

    p_verify = sub.add_parser("verify", help="run a verification sweep")
    p_verify.add_argument(
        "--check",
        required=True,
        choices=verifier._SWEEP_BOUNDS + _EXHAUSTIVE_ONLY_CHECKS,
    )
    p_verify.add_argument("--order", type=int, default=None)
    p_verify.add_argument("--class", dest="class_filter", default=None,
                          choices=list(verifier._FILTERS))
    p_verify.add_argument("--m", type=int, default=None)
    p_verify.add_argument("--kappa", type=int, default=None)
    p_verify.add_argument("--lambda", dest="lam", type=int, default=None)
    p_verify.add_argument("--kappa-max", type=int, default=None,
                          help=f"lemma_monotonicity only (default {_KAPPA_MAX_DEFAULT})")
    p_verify.add_argument("--seed", type=int, default=None)
    p_verify.add_argument("--samples", type=int, default=None)
    p_verify.add_argument("--workers", type=int, default=None)
    p_verify.add_argument("--format", choices=["text", "json", "csv"], default="text")
    p_verify.add_argument("--output", default=None)

    p_audit = sub.add_parser("audit", help="size-formula audit of the digraph family")
    p_audit.add_argument("--n", type=int, required=True)
    p_audit.add_argument("--kappa", type=int, required=True)
    p_audit.add_argument("--format", choices=["text", "json"], default="text")
    p_audit.add_argument("--output", default=None)

    return parser


def _cmd_compute(args) -> int:
    try:
        if args.undirected:
            D = core.bidirect(io_mod.load_graph(args.input))
        else:
            D = io_mod.load_digraph(args.input)
        _capped(D.order)
    except (OSError, ValueError) as exc:
        print(f"input error: {exc}", file=sys.stderr)
        return EXIT_INPUT

    name = {"rho": "remoteness", "sigma": "transmission"}.get(args.invariant, args.invariant)
    needs_vertex = name in ("transmission", "avg", "ecc", "profile")
    if needs_vertex and args.vertex is None:
        raise UsageError(f"--vertex is required for {name}")
    v = args.vertex

    try:
        if name == "remoteness":
            value, witness = core.remoteness(D)
            text = f"{_fraction_text(value)} at vertex {witness}"
            payload = {"invariant": "remoteness", **_fraction_json(value), "witness": witness}
        elif name == "transmission":
            sigma = core.transmission(D, v)
            text = str(sigma)
            payload = {"invariant": "transmission", "vertex": v, "value": sigma}
        elif name == "avg":
            value = core.avg_distance(D, v)
            text = _fraction_text(value)
            payload = {"invariant": "avg_distance", "vertex": v, **_fraction_json(value)}
        elif name == "ecc":
            ecc = core.eccentricity(D, v)
            text = str(ecc)
            payload = {"invariant": "eccentricity", "vertex": v, "value": ecc}
        elif name == "diam":
            diam = core.diameter(D)
            text = str(diam)
            payload = {"invariant": "diameter", "value": diam}
        elif name == "profile":
            profile = core.distance_profile(D, v)
            text = "(" + ", ".join(map(str, profile.counts)) + ")"
            payload = {"invariant": "profile", "vertex": v, "counts": list(profile.counts)}
        elif name == "kappa":
            result = conn_mod.vertex_connectivity(D)
            text = f"{result.value} (witness cut: {sorted(result.witness_cut)})"
            payload = {"invariant": "kappa", "value": result.value,
                       "witness_cut": sorted(result.witness_cut)}
        elif name == "lambda":
            result = conn_mod.edge_connectivity(D)
            text = f"{result.value} (witness cut: {sorted(result.witness_cut)})"
            payload = {"invariant": "lambda", "value": result.value,
                       "witness_cut": [list(a) for a in sorted(result.witness_cut)]}
        else:
            flag = conn_mod.is_eulerian(D)
            text = "true" if flag else "false"
            payload = {"invariant": "eulerian", "value": flag}
    except (core.NotStrongError, core.UnreachableVertexError, ValueError) as exc:
        print(f"input error: {exc}", file=sys.stderr)
        return EXIT_INPUT

    doc = json.dumps(payload, sort_keys=True) + "\n" if args.format == "json" else text + "\n"
    return _emit(doc, args.output)


def _require(args, names) -> None:
    missing = [f"--{n}" for n in names if getattr(args, n if n != "lambda" else "lam") is None]
    if missing:
        raise UsageError(f"missing flags: {', '.join(missing)}")


def _capped(order: int) -> int:
    """The order of a digraph to generate or compute on, refused above GENERATE_MAX_ORDER."""
    if order > GENERATE_MAX_ORDER:
        raise ValueError(f"order {order} is above the order cap {GENERATE_MAX_ORDER}")
    return order


def _cmd_generate(args) -> int:
    try:
        if args.family == "cycle":
            _require(args, ["n"])
            obj = core.directed_cycle(_capped(args.n))
        elif args.family == "complete":
            _require(args, ["n"])
            obj = core.complete_digraph(_capped(args.n))
        elif args.family == "profile":
            if not args.blocks:
                raise UsageError("--blocks is required for profile")
            blocks = [int(x) for x in args.blocks.split(",") if x.strip()]
            _capped(sum(blocks))
            obj = profile_digraph(blocks)
        elif args.family == "dpk":
            if args.ell is not None:
                _require(args, ["kappa", "a", "b"])
                p = PathCompleteParams(args.kappa, args.ell, args.a, args.b)
                _capped(p.order)
                obj = kappa_pc_digraph(p)
            else:
                _require(args, ["n", "m", "kappa"])
                obj, _params = dpk_select(_capped(args.n), args.m, args.kappa)
        elif args.family == "pk":
            if args.ell is not None:
                _require(args, ["kappa", "a", "b"])
                p = PathCompleteParams(args.kappa, args.ell, args.a, args.b)
                _capped(p.order)
                obj = pc_graph(p)
            else:
                _require(args, ["n", "m", "kappa"])
                obj, _params = pk_select(_capped(args.n), args.m, args.kappa)
        else:  # pklambda
            if args.variant is not None:
                _require(args, ["lambda", "k", "a", "b"])
                p = LambdaPCParams(args.lam, args.k, args.a, args.b, args.variant)
                _capped(p.order)
                obj = lambda_pc_graph(p)
            else:
                _require(args, ["n", "m", "lambda"])
                obj, _params = pk_lambda_select(_capped(args.n), args.m, args.lam)
    except UsageError:
        raise
    except (ValueError, AssertionError) as exc:
        print(f"input error: {exc}", file=sys.stderr)
        return EXIT_INPUT

    if isinstance(obj, core.Digraph):
        doc = io_mod.digraph_to_edge_list(obj) if args.format == "edges" else io_mod.digraph_to_dot(obj)
    else:
        doc = io_mod.graph_to_edge_list(obj) if args.format == "edges" else io_mod.graph_to_dot(obj)
    return _emit(doc, args.output)


def _cmd_bound(args) -> int:
    try:
        result = bounds_mod.evaluate_bound(
            args.bound, args.n, args.m, kappa=args.kappa, lam=args.lam
        )
    except ValueError as exc:
        raise UsageError(str(exc))
    payload = {
        "bound": args.bound,
        "n": args.n,
        "m": args.m,
        "kappa": args.kappa,
        "lambda": args.lam,
        "applicable": result.applicable,
        "sharpness_conditions_met": result.sharpness_conditions_met,
        "m_star": result.m_star,
        "notes": list(result.notes),
        "value": _fraction_json(result.value) if result.value is not None else None,
    }
    if args.format == "json":
        doc = json.dumps(payload, sort_keys=True) + "\n"
    elif result.applicable:
        extra = f" [m* = {result.m_star}]" if result.m_star is not None else ""
        doc = f"{_fraction_text(result.value)}{extra}\n"
        if result.notes:
            doc += "".join(f"note: {note}\n" for note in result.notes)
    else:
        doc = "not applicable: " + "; ".join(result.notes) + "\n"
    return _emit(doc, args.output)


def _report_csv(reports) -> str:
    """One row per (n, m, bound) cell; counterexamples stay in JSON/text."""
    lines = ["check_id,n,m,class,instances,skipped,violations,equality_instances"]
    for r in reports:
        n = r.spec.get("order", "")
        cls = r.spec.get("class", "")
        rows = r.meta.get("by_m")
        if rows:
            for m, examined, skipped, violations, equality in rows:
                lines.append(
                    f"{r.check_id},{n},{m},{cls},{examined},{skipped},{violations},{equality}"
                )
        else:
            lines.append(
                f"{r.check_id},{n},,{cls},{r.instances_examined},"
                f"{r.skipped_inapplicable},{len(r.violations)},{len(r.equality_witnesses)}"
            )
    return "\n".join(lines) + "\n"


def _default_class(check: str) -> str:
    return "eulerian" if check.startswith("eulerian") else "strong"


def _unread_flags(args) -> list[str]:
    """Check-specific flags given on the command line that the check ignores."""
    if args.check == "extremal_uniqueness":
        reads = {"m", "kappa"}
    elif args.check == "lemma_monotonicity":
        reads = {"kappa_max"}
    elif args.check == "eulerian_size_theorem":
        reads = set()
    else:
        class_filter = args.class_filter or ""
        reads = {"class_filter"}
        if class_filter.endswith("_kappa"):
            reads.add("kappa")
        if class_filter.endswith("_lambda"):
            reads.add("lam")
    return [
        flag
        for dest, flag in _CHECK_FLAGS.items()
        if dest not in reads and getattr(args, dest) is not None
    ]


def _cmd_verify(args) -> int:
    workers = args.workers
    if workers is None:
        env = os.environ.get("DGR_WORKERS", "1")
        try:
            workers = int(env)
        except ValueError:
            raise UsageError(f"DGR_WORKERS must be an integer, got {env!r}")
    if workers < 1:
        raise UsageError(f"worker count must be at least 1, got {workers}")
    if args.samples is not None and args.samples < 1:
        raise UsageError(f"--samples must be at least 1, got {args.samples}")
    sampling_flags = args.samples is not None or args.seed is not None
    if sampling_flags and args.check in _EXHAUSTIVE_ONLY_CHECKS:
        raise UsageError(f"{args.check} is exhaustive only; --samples and --seed do not apply")
    if args.seed is not None and args.samples is None:
        raise UsageError("--seed applies only to a sampled sweep; add --samples")
    if args.samples is not None and args.seed is None:
        raise UsageError("a sampled sweep needs an explicit --seed")
    unread = _unread_flags(args)
    if unread:
        scope = args.check
        if args.check not in _EXHAUSTIVE_ONLY_CHECKS:
            scope += f" with class {args.class_filter or _default_class(args.check)}"
        raise UsageError(f"{scope} does not read {', '.join(unread)}")
    try:
        if args.check == "eulerian_size_theorem":
            _require(args, ["order"])
            reports = [verifier.check_eulerian_size_theorem(args.order, workers=workers)]
        elif args.check == "extremal_uniqueness":
            _require(args, ["order", "m", "kappa"])
            reports = [
                verifier.check_extremal_uniqueness(args.order, args.m, args.kappa, workers=workers)
            ]
        elif args.check == "lemma_monotonicity":
            _require(args, ["order"])
            kappa_max = _KAPPA_MAX_DEFAULT if args.kappa_max is None else args.kappa_max
            reports = [verifier.check_lemma_monotonicity(args.order, kappa_max)]
        else:
            _require(args, ["order"])
            class_filter = args.class_filter or _default_class(args.check)
            param = None
            if class_filter.endswith("_kappa"):
                _require(args, ["kappa"])
                param = args.kappa
            elif class_filter.endswith("_lambda"):
                _require(args, ["lambda"])
                param = args.lam
            mode = "sampled" if args.samples else "exhaustive"
            reports = verifier.check_universal_bounds(
                args.order,
                class_filter,
                (args.check,),
                param=param,
                mode=mode,
                samples=args.samples,
                seed=args.seed,
                workers=workers,
            )
    except UsageError:
        raise
    except ValueError as exc:
        print(f"input error: {exc}", file=sys.stderr)
        return EXIT_INPUT

    if args.format == "json":
        doc = "".join(r.to_json() for r in reports)
    elif args.format == "csv":
        doc = _report_csv(reports)
    else:
        doc = "".join(r.render_text(include_elapsed=True) for r in reports)
    status = EXIT_OK if all(r.ok for r in reports) else EXIT_VIOLATION
    return _emit(doc, args.output) or status


def _cmd_audit(args) -> int:
    try:
        report = verifier.audit_size_formulas(args.n, args.kappa)
    except ValueError as exc:
        raise UsageError(str(exc))
    doc = report.to_json() if args.format == "json" else report.render_text()
    return _emit(doc, args.output)


def run(argv: list[str]) -> int:
    """Parse and execute one invocation; returns the exit status."""
    parser = _build_parser()
    try:
        args = parser.parse_args(argv)
        handler = {
            "compute": _cmd_compute,
            "generate": _cmd_generate,
            "bound": _cmd_bound,
            "verify": _cmd_verify,
            "audit": _cmd_audit,
        }[args.command]
        return handler(args)
    except UsageError as exc:
        print(f"usage error: {exc}", file=sys.stderr)
        return EXIT_USAGE


def main(argv: list[str] | None = None) -> int:
    return run(sys.argv[1:] if argv is None else argv)


if __name__ == "__main__":
    sys.exit(main())
