"""Spans around gmpd's public functions, installed from outside the package.

Every public function of every gmpd module is wrapped, and every name bound
to it is rebound: the defining module, each ``from .x import y`` alias in
another module, and the package namespace.  A span records its name, start,
end, parent span, the exception type that ended it (if any) and, for a few
functions, the problem size.  Spans stay in memory until the run ends.
"""

import functools
import inspect
import time

# functions whose span also records a size: rows solved, or DP vertex count
SIZE_OF = {
    "factor.solve_assignment": lambda args: len(args[0]),
    "search.oracle_longest_spanning_gcycle": lambda args: args[0].n,
    "search.oracle_longest_gpath": lambda args: args[0].n,
    "search.exact_ham_cycle": lambda args: args[0].n,
    "search.exact_xy_spanning_gpath": lambda args: args[0].n,
    "search.spanning_gcycle_at_least": lambda args: args[0].n,
}
DP_CALLS = ("search.oracle_longest_spanning_gcycle", "search.oracle_longest_gpath",
            "search.exact_ham_cycle", "search.exact_xy_spanning_gpath")
MERGES = ("merging.certified_merge_cycles", "merging.certified_multi_merge")

# (name, unit) of every per-layer metric, in report order
PER_LAYER = [
    ("factor.solve_assignment.calls", "count"),
    ("factor.solve_assignment.rows", "count"),
    ("factor.solve_assignment.s", "s"),
    ("factor.lexmin_assignment.s", "s"),
    ("factor.lexmin_assignment.self_s", "s"),
    ("factor.solves_per_lexmin", "ratio"),
    ("search.jump_metrics.self_s", "s"),
    ("search.oracle_longest_spanning_gcycle.calls", "count"),
    ("search.oracle_longest_spanning_gcycle.s", "s"),
    ("search.oracle_longest_gpath.calls", "count"),
    ("search.oracle_longest_gpath.s", "s"),
    ("search.exact_ham_cycle.calls", "count"),
    ("search.exact_ham_cycle.s", "s"),
    ("search.atleast.terminal_sets", "count"),
    ("search.spanning_gcycle_at_least.self_s", "s"),
    ("search.exact_xy_spanning_gpath.s", "s"),
    ("search.dp_table_bytes_max", "bytes"),
    ("merging.certified_merge_cycles.calls", "count"),
    ("merging.certified_merge_cycles.s", "s"),
    ("merging.certified_merge_cycles.self_s", "s"),
    ("merging.certified_multi_merge.calls", "count"),
    ("merging.certified_multi_merge.s", "s"),
    ("merging.exact_fallbacks", "count"),
    ("merging.fallback_n_max", "count"),
    ("merging.fallback_ratio", "ratio"),
    ("merging.too_large", "count"),
    ("irreducible.make_irreducible.calls", "count"),
    ("irreducible.make_irreducible.self_s", "s"),
    ("irreducible.relation.calls", "count"),
    ("irreducible.relation.s", "s"),
    ("irreducible.spanning_gcycle_strong.self_s", "s"),
    ("construct.merge_path_cycle.calls", "count"),
    ("construct.merge_path_cycle.self_s", "s"),
    ("construct.merge_fallbacks", "count"),
    ("construct.longest_gpath.self_s", "s"),
    ("extended.spanning_gcycle_extsd.self_s", "s"),
    ("walks.validate_walk.calls", "count"),
    ("walks.validate_walk.s", "s"),
    ("walks.walk_length.calls", "count"),
    ("walks.walk_length.s", "s"),
    ("walks.validate_factor.s", "s"),
    ("walks.insert_by_partners.calls", "count"),
    ("walks.insert_by_partners.failed", "count"),
    ("digraph.validate.calls", "count"),
    ("digraph.validate.s", "s"),
    ("digraph.is_strong.calls", "count"),
    ("digraph.is_strong.s", "s"),
    ("digraph.induce.calls", "count"),
    ("digraph.augment_terminals.calls", "count"),
    ("digraph.augment_terminals.s", "s"),
    ("fileformat.parse_instance.calls", "count"),
    ("fileformat.parse_instance.s", "s"),
    ("fileformat.emit_instance.calls", "count"),
    ("fileformat.emit_instance.s", "s"),
    ("cli.main.calls", "count"),
    ("cli.main.self_s", "s"),
    ("tsp.tour_cost.self_s", "s"),
    ("tsp.min_cost_ham_path.self_s", "s"),
    ("npc.witness_np1.s", "s"),
    ("npc.witness_np2.s", "s"),
    ("npc.build_np1.s", "s"),
    ("npc.build_np2.s", "s"),
    ("generators.generate.s", "s"),
    ("trace.overhead_s", "s"),
    ("trace.spans", "count"),
]


class Tracer:
    """Collects spans; one object per traced run."""

    def __init__(self):
        self.spans = []      # [name, start, end, parent index, error type, size]
        self._stack = []

    def wrap(self, name, fn):
        spans, stack, clock = self.spans, self._stack, time.perf_counter
        size_of = SIZE_OF.get(name)

        @functools.wraps(fn)
        def traced(*args, **kwargs):
            span = [name, 0.0, 0.0, stack[-1] if stack else -1, None,
                    size_of(args) if size_of else None]
            stack.append(len(spans))
            spans.append(span)
            span[1] = clock()
            try:
                return fn(*args, **kwargs)
            except BaseException as exc:
                span[4] = type(exc).__name__
                raise
            finally:
                span[2] = clock()
                stack.pop()
        return traced

    def install(self, package, modules):
        """Wrap the public functions of `modules` ({short name: module}) and
        rebind every alias in them and in `package`; returns an undo function."""
        wrapped = {}
        for short, mod in modules.items():
            for name, obj in vars(mod).items():
                if (inspect.isfunction(obj) and obj.__module__ == mod.__name__
                        and not name.startswith("_")):
                    wrapped[id(obj)] = (obj, self.wrap(f"{short}.{name}", obj))
        undo = []
        for mod in [package, *modules.values()]:
            for name, obj in list(vars(mod).items()):
                hit = wrapped.get(id(obj))
                if hit is not None and hit[0] is obj:
                    setattr(mod, name, hit[1])
                    undo.append((mod, name, obj))

        def uninstall():
            for mod, name, obj in undo:
                setattr(mod, name, obj)
        return uninstall


def layer_metrics(spans, start):
    """Per-layer metrics over spans[start:], plus the bases of every ratio and
    the per-call terminal-set counts of spanning_gcycle_at_least."""
    child = [0.0] * len(spans)
    for s in spans[start:]:
        if s[3] >= 0:
            child[s[3]] += s[2] - s[1]

    def ancestors(k):
        p = spans[k][3]
        while p >= 0:
            yield spans[p][0]
            p = spans[p][3]

    calls, incl, self_s, failed = {}, {}, {}, {}
    for k in range(start, len(spans)):
        name, t0, t1, _, err, _ = spans[k]
        calls[name] = calls.get(name, 0) + 1
        self_s[name] = self_s.get(name, 0.0) + (t1 - t0) - child[k]
        if name not in ancestors(k):
            incl[name] = incl.get(name, 0.0) + (t1 - t0)
        if err is not None:
            failed[name] = failed.get(name, 0) + 1

    def get(metric):
        fn, stat = metric.rsplit(".", 1)
        table = {"calls": calls, "s": incl, "self_s": self_s, "failed": failed}[stat]
        return table.get(fn, 0)

    out = {name: get(name) for name, _ in PER_LAYER
           if name.rsplit(".", 1)[1] in ("calls", "s", "self_s", "failed")
           and not name.startswith("trace.")}
    pass_spans = [(k, spans[k]) for k in range(start, len(spans))]
    out["factor.solve_assignment.rows"] = sum(
        s[5] for _, s in pass_spans if s[0] == "factor.solve_assignment")
    lexmins = calls.get("factor.lexmin_assignment", 0)
    out["factor.solves_per_lexmin"] = out["factor.solve_assignment.calls"] / lexmins if lexmins else 0.0
    dp_n = [s[5] for _, s in pass_spans if s[0] in DP_CALLS]
    out["search.dp_table_bytes_max"] = max((2 ** n * n * 4 for n in dp_n), default=0)
    per_atleast = {}
    for k, s in pass_spans:
        if s[0] == "search.exact_ham_cycle":
            p = s[3]
            while p >= 0 and spans[p][0] != "search.spanning_gcycle_at_least":
                p = spans[p][3]
            if p >= 0:
                per_atleast[p] = per_atleast.get(p, 0) + 1
    out["search.atleast.terminal_sets"] = sum(per_atleast.values())
    fallbacks = [s[5] for _, s in pass_spans if s[0] == "search.oracle_longest_spanning_gcycle"
                 and s[3] >= 0 and spans[s[3]][0] in MERGES]
    merges = sum(calls.get(m, 0) for m in MERGES)
    out["merging.exact_fallbacks"] = len(fallbacks)
    out["merging.fallback_n_max"] = max(fallbacks, default=0)
    out["merging.fallback_ratio"] = len(fallbacks) / merges if merges else 0.0
    out["merging.too_large"] = sum(
        1 for k, s in pass_spans if s[0] in MERGES and s[4] == "TooLarge"
        and not any(a in MERGES for a in ancestors(k)))
    out["construct.merge_fallbacks"] = sum(
        1 for _, s in pass_spans if s[0] == "search.oracle_longest_gpath"
        and s[3] >= 0 and spans[s[3]][0] == "construct.merge_path_cycle")
    bases = {
        "factor.solves_per_lexmin": f"{out['factor.solve_assignment.calls']} solves"
                                    f" / {lexmins} lexmin calls",
        "merging.fallback_ratio": f"{len(fallbacks)} fallbacks / {merges} merge calls",
    }
    atleast = [(spans[p][5], count) for p, count in sorted(per_atleast.items())]
    return out, bases, atleast
