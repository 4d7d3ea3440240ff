"""Command-line harness.

Subcommands: build, partition, autos, normalize, propagate, verify.
Exit codes: 0 success, 1 theorem mismatch on a connected instance,
2 invalid input, 3 a resource limit hit or a failed check in a sweep.
"""

from __future__ import annotations

import argparse
import sys
from pathlib import Path

from .circulant import (
    DIRECTED,
    UNDIRECTED,
    InvalidInstanceError,
    ResourceLimitError,
    arc_partition,
    instance_key,
    is_connected,
    parse_instance,
)
from .harness import SweepSpec, export_report, verify_theorem
from .perm import format_perm, parse_perm
from .solver import (
    brute_oracle,
    enumerate_respecting,
    normalize_to_multiplier,
    propagation_certifier,
)

EXIT_OK = 0
EXIT_MISMATCH = 1
EXIT_INVALID = 2
EXIT_RESOURCE = 3


def _cmd_build(args) -> int:
    graph = parse_instance(args.instance)
    print(f"instance: {instance_key(graph)}")
    print(f"mode: {graph.mode}")
    print(f"vertices: {graph.n}")
    print(f"arcs: {len(graph.arcs)}" if graph.directed else f"edges: {len(graph.arcs) // 2}")
    print(f"generators: {', '.join(str(s) for s in graph.elements)}")
    print(f"connected: {str(is_connected(graph)).lower()}")
    return EXIT_OK


def _cmd_partition(args) -> int:
    graph = parse_instance(args.instance)
    partition = arc_partition(graph, args.kind)
    print(f"instance: {instance_key(graph)}")
    print(f"kind: {partition.kind}")
    parts = partition.parts()
    print(f"parts: {len(parts)}")
    for i, (arcs, generators, coset) in enumerate(parts):
        # An undirected edge is stored as its two arcs and shown once, as (min,max).
        shown = " ".join(f"({u},{v})" for u, v in arcs if graph.directed or u < v)
        meta = f"s={','.join(str(s) for s in generators)}" + ("" if coset is None else f" coset={coset}")
        print(f"part {i} {meta}: {shown}")
    return EXIT_OK


def _cmd_autos(args) -> int:
    graph = parse_instance(args.instance)
    partition = arc_partition(graph, args.kind)
    if args.oracle:
        [sols] = brute_oracle(graph, [partition], fix_zero=args.fix_zero)
    else:
        sols = enumerate_respecting(graph, partition, fix_zero=args.fix_zero)
    for p in sols:
        print(format_perm(p))
    print(f"count: {len(sols)}")
    return EXIT_OK


def _cmd_normalize(args) -> int:
    graph = parse_instance(args.instance)
    p = parse_perm(args.perm)
    witness = normalize_to_multiplier(graph, p)
    if witness is None:
        print("failure: permutation is not normalizable to a multiplier "
              "(it does not respect the cycle partition)")
        return EXIT_OK
    pieces = ", ".join(f"j = {r} (mod {q})" for q, r in witness.residues)
    print(f"residues: {pieces}")
    print(f"combined: j = {witness.combined} (mod {witness.modulus})")
    return EXIT_OK


def _cmd_propagate(args) -> int:
    graph = parse_instance(args.instance)
    order = None
    if args.order is not None:
        try:
            order = tuple(int(tok) for tok in args.order.split(",") if tok.strip())
        except ValueError as exc:
            raise InvalidInstanceError(f"malformed --order {args.order!r}: {exc}") from None
    trace = propagation_certifier(graph, order)
    print(f"instance: {instance_key(graph)}")
    print(f"generator order: {', '.join(str(s) for s in trace.generator_order)}")
    for stage in trace.stages:
        print(
            f"stage k={stage.k}: adjoin s={stage.s_next} "
            f"(subgroup order {stage.subgroup_order}, generator order {stage.next_order}, d={stage.d})"
        )
        print(f"  start: {{{', '.join(str(x) for x in stage.start)}}}")
        for m, added in enumerate(stage.rounds, start=1):
            print(f"  round {m} adds: {{{', '.join(str(x) for x in added)}}}")
        print(f"  closed: {str(stage.closed).lower()}  coset-union invariant: {str(stage.coset_union_ok).lower()}")
    print(f"final fixed set: {{{', '.join(str(x) for x in trace.final_fixed)}}}")
    print(f"covered: {str(trace.covered).lower()}")
    return EXIT_OK


def _cmd_verify(args) -> int:
    out = args.out
    if out.endswith(".json"):
        fmt = "json"
    elif out.endswith(".csv"):
        fmt = "csv"
    else:
        raise InvalidInstanceError(f"--out must end with .json or .csv, got {out!r}")
    if not Path(out).parent.is_dir():
        raise InvalidInstanceError(f"--out directory {str(Path(out).parent)!r} does not exist")
    if Path(out).is_dir():
        raise InvalidInstanceError(f"--out {out!r} is a directory")
    modes = {"d": (DIRECTED,), "u": (UNDIRECTED,), "both": (DIRECTED, UNDIRECTED)}[args.mode]
    kinds = {"B": ("B",), "C": ("C",), "both": ("B", "C")}[args.kind]
    spec = SweepSpec(
        n_min=args.n_min,
        n_max=args.n_max,
        modes=modes,
        connectivity="connected" if args.connected_only else "all",
        kinds=kinds,
        enumerator="both" if args.oracle_check else "backtracking",
        jobs=args.jobs,
    )
    report = verify_theorem(spec)
    export_report(report, fmt, out)
    agg = report.aggregates
    print(
        f"instances: {agg['instances']}  match: {agg['match']}  "
        f"expected-mismatch: {agg['expected_mismatch']}  mismatch: {agg['mismatch']}  "
        f"errors: {agg['error']}  failures: {agg['failures']}"
    )
    print(f"report written to {out}")
    if any(row.verdict == "mismatch" for row in report.instances):
        return EXIT_MISMATCH
    if agg["failures"]:
        return EXIT_RESOURCE
    return EXIT_OK


def _build_parser() -> argparse.ArgumentParser:
    parser = argparse.ArgumentParser(
        prog="circpart",
        description="Circulant (di)graph partitions and the automorphisms that respect them",
    )
    sub = parser.add_subparsers(dest="command", required=True)

    def add_instance(p):
        p.add_argument("--instance", required=True, help="instance as 'n:s1,s2,...[:d|:u]'")

    p_build = sub.add_parser("build", help="build a circulant instance and print a summary")
    add_instance(p_build)
    p_build.set_defaults(func=_cmd_build)

    p_part = sub.add_parser("partition", help="print the parts of an arc partition")
    add_instance(p_part)
    p_part.add_argument("--kind", required=True, choices=("B", "C"))
    p_part.set_defaults(func=_cmd_partition)

    p_autos = sub.add_parser("autos", help="enumerate automorphisms respecting a partition")
    add_instance(p_autos)
    p_autos.add_argument("--kind", required=True, choices=("B", "C"))
    p_autos.add_argument("--fix-zero", action="store_true", help="only automorphisms fixing vertex 0")
    p_autos.add_argument("--oracle", action="store_true", help="use the brute-force filter instead of backtracking")
    p_autos.set_defaults(func=_cmd_autos)

    p_norm = sub.add_parser("normalize", help="recover the multiplier behind an automorphism")
    add_instance(p_norm)
    p_norm.add_argument("--perm", required=True, help="permutation as '[p(0), p(1), ...]'")
    p_norm.set_defaults(func=_cmd_normalize)

    p_prop = sub.add_parser("propagate", help="run the fixed-set propagation certifier")
    add_instance(p_prop)
    p_prop.add_argument("--order", default=None, help="generator order, e.g. '4,3' (default ascending)")
    p_prop.set_defaults(func=_cmd_propagate)

    p_verify = sub.add_parser("verify", help="sweep instances and verify the multiplier characterization")
    p_verify.add_argument("--n-min", type=int, required=True)
    p_verify.add_argument("--n-max", type=int, required=True)
    p_verify.add_argument("--mode", choices=("d", "u", "both"), default="both")
    p_verify.add_argument("--kind", choices=("B", "C", "both"), default="both")
    p_verify.add_argument("--connected-only", action="store_true")
    p_verify.add_argument("--oracle-check", action="store_true", help="cross-check with the brute oracle")
    p_verify.add_argument("--jobs", type=int, default=1)
    p_verify.add_argument("--out", required=True, help="report path ending in .json or .csv")
    p_verify.set_defaults(func=_cmd_verify)

    return parser


def main(argv=None) -> int:
    parser = _build_parser()
    args = parser.parse_args(argv)
    try:
        return args.func(args)
    except ResourceLimitError as exc:
        print(f"resource limit: {exc}", file=sys.stderr)
        return EXIT_RESOURCE
    except (ValueError, OSError) as exc:
        print(f"error: {exc}", file=sys.stderr)
        return EXIT_INVALID
