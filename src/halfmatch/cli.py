"""Command-line front end.

Subcommands: solve-max-srti, solve-gamma, solve-max-pri, solve-pop-crit,
solve-pop-maxw, verify, bench, generate. Exit codes: 0 on success, 1 on
any verification failure, 2 on input errors. Identical inputs and flags
always produce byte-identical output files.
"""

from __future__ import annotations

import argparse
import functools
import sys

from .core import InstanceError, MatchingError, matching_size
from .engine import BoundExceeded, brute_force_max_stable
from .generate import GAMMA_PRESETS, generate_random
from .io import (
    MODES,
    SOLVER_CLAIMS,
    _market_fault,
    build_result,
    check_result,
    format_rational,
    instance_digest,
    load_instance,
    load_result,
    result_weights,
    serialize_instance,
    serialize_result,
)
from .popularity import SCOPES, is_popular
from .solvers import (
    InfeasibleCritical,
    VerificationFailed,
    _pop_maxw,
    solve_max_gamma,
    solve_max_pri,
    solve_max_srti,
    solve_pop_crit,
)


def main(argv: list[str] | None = None) -> int:
    args = _build_parser().parse_args(argv)
    try:
        return args.handler(args)
    except (InstanceError, MatchingError, InfeasibleCritical, BoundExceeded, OSError) as exc:
        print(f"error: {exc}", file=sys.stderr)
        return 2
    except VerificationFailed as exc:
        print(f"self-verification failed: {exc}", file=sys.stderr)
        return 1


@functools.cache  # built once per process; parsing leaves it unchanged
def _build_parser() -> argparse.ArgumentParser:
    parser = argparse.ArgumentParser(
        prog="halfmatch",
        description="stable and popular half-integral matchings on general graphs",
    )
    sub = parser.add_subparsers(dest="command", required=True)

    for tag in SOLVER_CLAIMS:
        p = sub.add_parser(tag, help=f"run {tag} and write a self-verified result")
        p.add_argument("--input", required=True, help="instance file")
        p.add_argument("--output", help="result file (stdout when omitted)")
        p.add_argument("--seed", type=int, default=None,
                       help="generator seed to record in the result file")
        if tag == "solve-max-pri":
            p.add_argument("--oracle-bound", type=int, default=0,
                           help="when positive and the instance is small enough, "
                           "also record a popularity check")
            p.add_argument("--scope", choices=list(SCOPES), default="half")
        elif tag == "solve-pop-crit":
            p.add_argument("--critical", help="comma-separated critical vertices "
                           "(defaults to the instance's set; an empty value names none)")
        elif tag == "solve-pop-maxw":
            p.add_argument("--weights", choices=["instance", "unit"],
                           default="instance", help="weight source")
        p.set_defaults(handler=_cmd_solve, tag=tag)

    p = sub.add_parser("verify", help="re-check a result file from scratch")
    p.add_argument("--input", required=True, help="instance file")
    p.add_argument("--result", required=True, help="result file to re-check")
    p.add_argument("--oracle-bound", type=int, default=0,
                   help="re-run popularity checks when the instance fits")
    p.set_defaults(handler=_cmd_verify)

    p = sub.add_parser("bench", help="sweep seeds, compare against brute force, emit CSV")
    p.add_argument("--seeds", type=_count, required=True, help="number of seeds (0..k-1)")
    p.add_argument("--n", type=_count, required=True, help="vertices per instance")
    p.add_argument("--oracle-bound", type=int, default=8,
                   help="run the brute-force oracle when |E| is at most this")
    p.add_argument("--output", help="CSV path (stdout when omitted)")
    _market_flags(p, 0.2, 0.4, "with a preset, bench solve-gamma instead of solve-max-srti")
    p.set_defaults(handler=_cmd_bench)

    p = sub.add_parser("generate", help="write a seeded random instance file")
    p.add_argument("--seed", type=int, required=True)
    p.add_argument("--n", type=_count, required=True)
    p.add_argument("--output", help="instance path (stdout when omitted)")
    _market_flags(p, 0.0, 0.0)
    p.add_argument("--weight-min", type=int, default=None)
    p.add_argument("--weight-max", type=int, default=None)
    p.add_argument("--critical-count", type=_count, default=0)
    p.set_defaults(handler=_cmd_generate)
    return parser


def _market_flags(p: argparse.ArgumentParser, parallel: float, tie: float,
                  gamma_help: str | None = None) -> None:
    """The generator flags generate and bench share, with their own defaults."""
    p.add_argument("--edge-density", type=_probability, default=0.5)
    p.add_argument("--parallel-prob", type=_probability, default=parallel)
    p.add_argument("--tie-prob", type=_probability, default=tie)
    p.add_argument("--gamma-preset", choices=list(GAMMA_PRESETS), default="none",
                   help=gamma_help)
    p.add_argument("--bipartite", action="store_true")


def _market(args, seed: int, **more):
    """The market of ``seed`` drawn with the shared flags in ``args`` and ``more``."""
    return generate_random(seed, args.n, edge_density=args.edge_density,
                           parallel_prob=args.parallel_prob, tie_prob=args.tie_prob,
                           gamma_preset=args.gamma_preset, bipartite=args.bipartite, **more)


def _count(text: str) -> int:
    """argparse type of a nonnegative integer flag."""
    value = int(text)
    if value < 0:
        raise argparse.ArgumentTypeError(f"must be nonnegative, got {value}")
    return value


def _probability(text: str) -> float:
    """argparse type of a probability flag."""
    value = float(text)
    if not 0 <= value <= 1:
        raise argparse.ArgumentTypeError(f"must lie in [0, 1], got {text}")
    return value


def _emit(text: str, path: str | None) -> None:
    if path:
        with open(path, "w", encoding="utf-8") as fh:
            fh.write(text)
    else:
        sys.stdout.write(text)


def _cmd_solve(args) -> int:
    inst = load_instance(args.input)
    tag = args.tag
    if fault := _market_fault(inst, tag):
        raise InstanceError(fault)

    # each solver certifies every claim recorded below before it returns;
    # `verify` re-derives them all from the file, independently
    if tag in MODES:
        mode = MODES[tag]
        m = solve_max_srti(inst) if mode == "weak" else solve_max_gamma(inst)
        verification = {"mode": mode, "blocking_edges": [], "stable": True}
    elif tag == "solve-max-pri":
        m = solve_max_pri(inst)
        verification = {"derived_stable": True}
        if 0 < len(inst.edges) <= args.oracle_bound:
            verdict = is_popular(inst, m, bound=args.oracle_bound, scope=args.scope)
            if not verdict.popular:
                raise VerificationFailed("solve-max-pri output is not popular: a rival has "
                                         f"delta {format_rational(verdict.worst_value)}")
            verification.update(popular=True, popular_scope=verdict.scope)
    elif tag == "solve-pop-crit":
        crit = (
            frozenset(x for x in args.critical.split(",") if x)
            if args.critical is not None
            else inst.critical
        )
        m = solve_pop_crit(inst, crit)
        verification = {"derived_stable": True, "critical": sorted(crit),
                        "critical_ok": True}
    else:  # solve-pop-maxw
        # _pop_maxw certifies weight(m) == dual.objective
        m, dual = _pop_maxw(inst, result_weights(inst, args.weights))
        verification = {
            "derived_stable": True,
            "weights_source": args.weights,
            "weight": format_rational(dual.objective),
            "dual_objective": format_rational(dual.objective),
            "critical": sorted(dual.critical),
        }

    digest = instance_digest(inst)
    result = build_result(tag, inst, m, verification, digest, seed=args.seed)
    _emit(serialize_result(result), args.output)
    return 0


def _cmd_verify(args) -> int:
    inst = load_instance(args.input)
    result = load_result(args.result)
    problems = check_result(inst, result, instance_digest(inst), args.oracle_bound)
    if problems:
        for msg in problems:
            print(f"verification failure: {msg}", file=sys.stderr)
        return 1
    print("ok")
    return 0


def _cmd_bench(args) -> int:
    mode = "gamma" if args.gamma_preset != "none" else "weak"
    rows = []
    for seed in range(args.seeds):
        inst = _market(args, seed)
        out = solve_max_gamma(inst) if mode == "gamma" else solve_max_srti(inst)
        size = matching_size(out)
        oracle = ratio = ""
        if len(inst.edges) <= args.oracle_bound:
            best, _ = brute_force_max_stable(inst, mode, bound=args.oracle_bound)
            oracle = format_rational(best)
            ratio = format_rational(best / size) if size else "1"
        rows.append(
            (seed, args.n, len(inst.edges), mode, format_rational(size), oracle, ratio)
        )
    lines = ["seed,n,edges,mode,size,oracle,ratio"]
    lines += [",".join(str(x) for x in row) for row in rows]
    _emit("\n".join(lines) + "\n", args.output)
    return 0


def _cmd_generate(args) -> int:
    weight_range = None
    if args.weight_min is not None or args.weight_max is not None:
        lo = args.weight_min if args.weight_min is not None else 0
        hi = args.weight_max if args.weight_max is not None else max(lo, 1)
        weight_range = (lo, hi)
    inst = _market(args, args.seed, weight_range=weight_range,
                   critical_count=args.critical_count)
    _emit(serialize_instance(inst), args.output)
    return 0


if __name__ == "__main__":
    sys.exit(main())
