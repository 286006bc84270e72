"""Command-line frontend.

Every subcommand prints a machine-readable block of "key value" lines (or a
JSON object with --json) and exits 0 for success/yes, 1 for a decision "no",
2 for errors."""

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


class _Result:
    def __init__(self):
        self.fields = {}
        self.code = EXIT_OK

    def set(self, key, value):
        self.fields[key] = value
        return self


def _emit(res: _Result, as_json: bool):
    if as_json:
        print(json.dumps(res.fields, sort_keys=True))
    else:
        for key, value in res.fields.items():
            print(f"{key} {value}")
    return res.code


def _cmd_validate(args) -> _Result:
    inst = _load(args.instance)
    report = validate(inst.digraph)
    res = _Result()
    res.set("status", "ok")
    res.set("n", inst.digraph.n)
    res.set("c", inst.digraph.c)
    res.set("is_smd", str(report.is_smd).lower())
    res.set("is_extended", str(report.is_extended).lower())
    res.set("is_strong", str(report.is_strong).lower())
    if report.internal_arc:
        res.set("internal_arc", "%d %d" % report.internal_arc)
    if report.missing_pair:
        res.set("missing_pair", "%d %d" % report.missing_pair)
    if report.extended_witness:
        res.set("extended_witness", "%d %d" % report.extended_witness)
    if not report.is_smd:
        res.code = EXIT_NO
    return res


def _cmd_factor(args) -> _Result:
    inst = _load(args.instance)
    d = inst.digraph
    f = factor.max_arc_gcycle_factor(d)
    res = _Result()
    res.set("status", "ok")
    res.set("arc_count", f.arc_count(d))
    res.set("cycles", len(f.cycles))
    for i, c in enumerate(f.cycles, 1):
        res.set(f"cycle{i}", render_walk(d, c))
    return res


def _cmd_longest_gpath(args) -> _Result:
    inst = _load(args.instance)
    d = inst.digraph
    walk = construct.longest_gpath(d)
    res = _Result()
    res.set("status", "ok")
    res.set("length", walk_length(d, walk))
    res.set("witness", render_walk(d, walk))
    return res


def _cmd_spanning_gcycle(args) -> _Result:
    inst = _load(args.instance)
    d = inst.digraph
    res = _Result()
    if args.ext:
        cyc = extended.spanning_gcycle_extsd(d)
        if cyc is None:
            res.set("status", "no")
            res.code = EXIT_NO
            return res
        res.set("status", "ok")
        res.set("length", walk_length(d, cyc))
        res.set("witness", render_walk(d, cyc))
        return res
    if args.atleast is not None:
        cyc = search.spanning_gcycle_at_least(d, args.atleast)
        if cyc is None:
            res.set("status", "no")
            res.code = EXIT_NO
            return res
        res.set("status", "ok")
        res.set("length", walk_length(d, cyc))
        res.set("witness", render_walk(d, cyc))
        return res
    cyc, cert = irreducible.spanning_gcycle_strong(d)
    res.set("status", "ok")
    res.set("length", cert["length"])
    res.set("c_f", cert["c_f"])
    res.set("c_prime", cert["c_prime"])
    res.set("lower_bound", cert["lower_bound"])
    res.set("witness", render_walk(d, cyc))
    return res


def _cmd_xy_gpath(args) -> _Result:
    inst = _load(args.instance)
    d = inst.digraph
    walk = search.exact_xy_spanning_gpath(d, args.x, args.y)
    res = _Result()
    if walk is None:
        res.set("status", "no")
        res.code = EXIT_NO
        return res
    res.set("status", "ok")
    res.set("witness", render_walk(d, walk))
    return res


def _cmd_bound(args) -> _Result:
    inst = _load(args.instance)
    metrics = search.jump_metrics(inst.digraph)
    res = _Result()
    res.set("status", "ok")
    res.set("N", metrics.N)
    res.set("c_f", metrics.c_f if metrics.c_f is not None else "none")
    res.set("bound", metrics.bound if metrics.bound is not None else "none")
    if metrics.unreachable:
        res.set("unreachable_pairs", len(metrics.unreachable))
    return res


def _cmd_tsp(args) -> _Result:
    inst = _load_zotsp(args.instance)
    res = _Result()
    if args.what == "path":
        seq, cost = tsp.min_cost_ham_path(inst)
        res.set("status", "ok")
        res.set("cost", cost)
        res.set("witness", "->".join(str(v) for v in seq))
        return res
    mode = args.mode
    out = tsp.tour_cost(inst, mode, k=args.k)
    status = out.get("status", "ok")
    res.set("status", status)
    for key in ("cost", "k", "low", "high", "achieved"):
        if key in out:
            res.set(key, out[key])
    if "tour" in out:
        res.set("witness", "->".join(str(v) for v in out["tour"]))
    if status == "no":
        res.code = EXIT_NO
    return res


def _cmd_npc(args) -> _Result:
    res = _Result()
    if args.what in ("build1", "build2"):
        cnf = parse_dimacs(_read_text(args.cnf))
        build = npc.build_np1 if args.what == "build1" else npc.build_np2
        d, legend = build(cnf)
        sys.stdout.write(emit_instance(InstanceFile(digraph=d, legend=legend)))
        return res  # the instance text is the whole output
    inst = _load(args.instance)
    searcher = npc.witness_np1 if args.what == "witness1" else npc.witness_np2
    walk = searcher(inst.digraph)
    if walk is None:
        res.set("status", "no")
        res.code = EXIT_NO
        return res
    res.set("status", "ok")
    res.set("witness", render_walk(inst.digraph, walk))
    return res


def _cmd_oracle(args) -> _Result:
    inst = _load(args.instance)
    d = inst.digraph
    res = _Result()
    if args.what == "gcycle":
        out = search.oracle_longest_spanning_gcycle(d)
        if out is None:
            res.set("status", "no")
            res.code = EXIT_NO
            return res
        arcs, walk = out
    else:
        arcs, walk = search.oracle_longest_gpath(d)
    res.set("status", "ok")
    res.set("length", arcs)
    res.set("witness", render_walk(d, walk))
    return res


def _cmd_gen(args) -> _Result:
    cnf = None
    if args.cnf:
        cnf = parse_dimacs(_read_text(args.cnf))
    inst = generate(args.name, args.params, seed=args.seed, cnf=cnf)
    sys.stdout.write(emit_instance(inst))
    return _Result()


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
        res = args.func(args)
    except Exception as exc:  # any failure is an error, never a decision "no"
        sys.stderr.write(f"error {type(exc).__name__}: {exc}\n")
        return EXIT_ERROR
    if res.fields:
        return _emit(res, args.json)
    return res.code


if __name__ == "__main__":
    sys.exit(main())
