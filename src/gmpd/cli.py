"""Command-line frontend.

Each subcommand returns (exit code, fields); `main` prints the fields as "key
value" lines, or as one JSON object with --json. Exit code 0 is success/yes,
1 a decision "no" (a walk answer then prints only `status no`), 2 an error.
`gen` and `npc build1/2` print an instance file instead of fields."""

import argparse
import json
import sys
from typing import Optional

from . import construct, extended, factor, irreducible, npc, search, tsp
from .digraph import validate
from .fileformat import InstanceFile, emit_instance, parse_instance
from .generators import generate
from .npc import parse_dimacs
from .walks import render_walk, walk_length

EXIT_OK = 0
EXIT_NO = 1
EXIT_ERROR = 2


def _read_text(path: str) -> str:
    if path == "-":
        return sys.stdin.read()
    with open(path, "r", encoding="ascii") as fh:
        return fh.read()


def _load(path: str) -> InstanceFile:
    return parse_instance(_read_text(path))


def _load_zotsp(path: str) -> tsp.ZOTSPInstance:
    inst = _load(path)
    d = inst.digraph
    ones = inst.weights if inst.weights is not None else frozenset()
    return tsp.ZOTSPInstance(n=d.n, arcs=d.arcs, ones=frozenset(ones))


def _walk_answer(d, walk, **fields):
    """The answer of a command whose result is a walk: a "no" without one, or
    "status ok", the given fields and the rendered walk as `witness`."""
    if walk is None:
        return EXIT_NO, {"status": "no"}
    return EXIT_OK, {"status": "ok", **fields, "witness": render_walk(d, walk)}


def _cmd_validate(args):
    inst = _load(args.instance)
    report = validate(inst.digraph)
    fields = {
        "status": "ok",
        "n": inst.digraph.n,
        "c": inst.digraph.c,
        "is_smd": str(report.is_smd).lower(),
        "is_extended": str(report.is_extended).lower(),
        "is_strong": str(report.is_strong).lower(),
    }
    for key in ("internal_arc", "missing_pair", "extended_witness"):
        if getattr(report, key):
            fields[key] = "%d %d" % getattr(report, key)
    return (EXIT_OK if report.is_smd else EXIT_NO), fields


def _cmd_factor(args):
    d = _load(args.instance).digraph
    f = factor.max_arc_gcycle_factor(d)
    fields = {"status": "ok", "arc_count": f.arc_count(d), "cycles": len(f.cycles)}
    for i, c in enumerate(f.cycles, 1):
        fields[f"cycle{i}"] = render_walk(d, c)
    return EXIT_OK, fields


def _cmd_longest_gpath(args):
    d = _load(args.instance).digraph
    walk = construct.longest_gpath(d)
    return _walk_answer(d, walk, length=walk_length(d, walk))


def _cmd_spanning_gcycle(args):
    d = _load(args.instance).digraph
    if args.ext or args.atleast is not None:
        cyc = (extended.spanning_gcycle_extsd(d) if args.ext
               else search.spanning_gcycle_at_least(d, args.atleast))
        return _walk_answer(d, cyc, length=None if cyc is None else walk_length(d, cyc))
    cyc, cert = irreducible.spanning_gcycle_strong(d)
    return _walk_answer(d, cyc, length=cert["length"], c_f=cert["c_f"],
                        c_prime=cert["c_prime"], lower_bound=cert["lower_bound"])


def _cmd_xy_gpath(args):
    d = _load(args.instance).digraph
    return _walk_answer(d, search.exact_xy_spanning_gpath(d, args.x, args.y))


def _cmd_bound(args):
    metrics = search.jump_metrics(_load(args.instance).digraph)
    fields = {
        "status": "ok",
        "N": metrics.N,
        "c_f": metrics.c_f if metrics.c_f is not None else "none",
        "bound": metrics.bound if metrics.bound is not None else "none",
    }
    if metrics.unreachable:
        fields["unreachable_pairs"] = len(metrics.unreachable)
    return EXIT_OK, fields


def _cmd_tsp(args):
    inst = _load_zotsp(args.instance)
    if args.what == "path":
        seq, cost = tsp.min_cost_ham_path(inst)
        return EXIT_OK, {"status": "ok", "cost": cost, "witness": "->".join(map(str, seq))}
    out = tsp.tour_cost(inst, args.mode, k=args.k)
    fields = {"status": out.get("status", "ok")}
    for key in ("cost", "k", "low", "high", "achieved"):
        if key in out:
            fields[key] = out[key]
    if "tour" in out:
        fields["witness"] = "->".join(map(str, out["tour"]))
    return (EXIT_NO if fields["status"] == "no" else EXIT_OK), fields


def _cmd_npc(args):
    if args.what in ("build1", "build2"):
        cnf = parse_dimacs(_read_text(args.cnf))
        build = npc.build_np1 if args.what == "build1" else npc.build_np2
        d, legend = build(cnf)
        sys.stdout.write(emit_instance(InstanceFile(digraph=d, legend=legend)))
        return EXIT_OK, {}  # the instance text is the whole output
    d = _load(args.instance).digraph
    searcher = npc.witness_np1 if args.what == "witness1" else npc.witness_np2
    return _walk_answer(d, searcher(d))


def _cmd_oracle(args):
    d = _load(args.instance).digraph
    oracle = (search.oracle_longest_spanning_gcycle if args.what == "gcycle"
              else search.oracle_longest_gpath)
    arcs, walk = oracle(d) or (None, None)   # the cycle oracle answers None for "no"
    return _walk_answer(d, walk, length=arcs)


def _cmd_gen(args):
    cnf = parse_dimacs(_read_text(args.cnf)) if args.cnf else None
    inst = generate(args.name, args.params, seed=args.seed, cnf=cnf)
    sys.stdout.write(emit_instance(inst))
    return EXIT_OK, {}


def build_parser() -> argparse.ArgumentParser:
    parser = argparse.ArgumentParser(
        prog="gmpd",
        description="Generalized paths and cycles in semicomplete multipartite digraphs",
    )
    parser.add_argument("--json", action="store_true", help="emit a JSON object")
    sub = parser.add_subparsers(dest="command", required=True)

    p = sub.add_parser("validate", help="classify an instance")
    p.add_argument("instance")
    p.set_defaults(func=_cmd_validate)

    p = sub.add_parser("factor", help="maximum-arc generalized cycle factor")
    p.add_argument("instance")
    p.set_defaults(func=_cmd_factor)

    p = sub.add_parser("longest-gpath", help="longest generalized path")
    p.add_argument("instance")
    p.set_defaults(func=_cmd_longest_gpath)

    p = sub.add_parser("spanning-gcycle", help="spanning generalized cycles")
    p.add_argument("instance")
    group = p.add_mutually_exclusive_group()
    group.add_argument("--ext", action="store_true", help="extended-semicomplete exact")
    group.add_argument("--atleast", type=int, metavar="K", help="decision: length >= n-K")
    p.set_defaults(func=_cmd_spanning_gcycle)

    p = sub.add_parser("xy-gpath", help="spanning generalized path between endpoints")
    p.add_argument("x", type=int)
    p.add_argument("y", type=int)
    p.add_argument("instance")
    p.set_defaults(func=_cmd_xy_gpath)

    p = sub.add_parser("bound", help="jump metrics and the spanning-cycle bound")
    p.add_argument("instance")
    p.set_defaults(func=_cmd_bound)

    p = sub.add_parser("tsp", help="{0,1}-weighted tour and path optimization")
    tsp_sub = p.add_subparsers(dest="what", required=True)
    tp = tsp_sub.add_parser("path")
    tp.add_argument("instance")
    tp.set_defaults(func=_cmd_tsp, what="path")
    tt = tsp_sub.add_parser("tour")
    tt.add_argument("instance")
    tt.add_argument(
        "--mode",
        required=True,
        choices=[tsp.MODE_EXTENDED_EXACT, tsp.MODE_AT_MOST_K, tsp.MODE_STRONG_BOUND],
    )
    tt.add_argument("--k", type=int, default=None)
    tt.set_defaults(func=_cmd_tsp, what="tour")

    p = sub.add_parser("npc", help="SAT reduction builders and witness searches")
    npc_sub = p.add_subparsers(dest="what", required=True)
    for name in ("build1", "build2"):
        bp = npc_sub.add_parser(name)
        bp.add_argument("cnf", help="DIMACS CNF file")
        bp.set_defaults(func=_cmd_npc, what=name)
    for name in ("witness1", "witness2"):
        wp = npc_sub.add_parser(name)
        wp.add_argument("instance")
        wp.set_defaults(func=_cmd_npc, what=name)

    p = sub.add_parser("oracle", help="exact subset-search reference values")
    oracle_sub = p.add_subparsers(dest="what", required=True)
    for name in ("gcycle", "gpath"):
        op = oracle_sub.add_parser(name)
        op.add_argument("instance")
        op.set_defaults(func=_cmd_oracle, what=name)

    p = sub.add_parser("gen", help="write a named instance to stdout")
    p.add_argument("name")
    p.add_argument("params", nargs="*")
    p.add_argument("--seed", type=int, default=None)
    p.add_argument("--cnf", default=None, help="DIMACS input for sat1/sat2")
    p.set_defaults(func=_cmd_gen)

    return parser


def main(argv: Optional[list] = None) -> int:
    parser = build_parser()
    args = parser.parse_args(argv)
    try:
        code, fields = args.func(args)
    except Exception as exc:  # any failure is an error, never a decision "no"
        sys.stderr.write(f"error {type(exc).__name__}: {exc}\n")
        return EXIT_ERROR
    if args.json and fields:
        print(json.dumps(fields, sort_keys=True))
    else:
        for key, value in fields.items():
            print(f"{key} {value}")
    return code


if __name__ == "__main__":
    sys.exit(main())
