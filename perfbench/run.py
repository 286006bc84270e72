"""gmpd benchmark: seeded workloads through the public API, answers checked
against independent references, end-to-end or per-layer metrics.

    python3 perfbench/run.py --workload assign-large --seed 1 --seconds 20 --trace 0

Run it from the repository root.  One process runs one workload on one
thread.  With ``--trace 0`` it sets the workload up three times (the median
is ``setup_s``), then repeats timed passes over the workload's ops until
``--seconds`` have gone by, and reports the medians.  With ``--trace 1`` it
sets up once, times untraced passes the same way, then runs one more pass
with every public gmpd function wrapped and reports the per-layer split and
the tracing overhead.  ``--smoke`` runs one pass at reduced sizes.  The last
line of standard output is a JSON object with the run's result.
"""

import argparse
import collections
import importlib
import json
import os
import platform
import resource
import statistics
import sys
import time
import types
from pathlib import Path

HERE = Path(__file__).resolve().parent
ROOT = HERE.parent
sys.path.insert(0, str(HERE))

import desk  # noqa: E402
import refs  # noqa: E402
import tracer  # noqa: E402
import workloads  # noqa: E402

MODULES = ["digraph", "walks", "factor", "search", "merging", "irreducible", "construct",
           "extended", "tsp", "npc", "fileformat", "generators", "cli"]
END_TO_END = [("setup_s", "s"), ("wall_s", "s"), ("peak_rss_mb", "MB")]
WORKLOADS = {
    "assign-large": workloads.assign_large,
    "chain-strong": workloads.chain_strong,
    "exact-dp": workloads.exact_dp,
    "desk-cli": lambda gm, seed, smoke: desk.desk_cli(gm, seed, smoke, ROOT),
}
CLASSES = ("ok", "wrong", "TooLarge", "AssertionError", "other")
SETUPS = 3
NOTE = "no CPU pinning, cache dropping, frequency change or cgroup change was made"


def import_gmpd():
    """Fresh import of the package from the checkout's src/ directory."""
    for name in [m for m in sys.modules if m == "gmpd" or m.startswith("gmpd.")]:
        del sys.modules[name]
    pkg = importlib.import_module("gmpd")
    mods = {m: importlib.import_module(f"gmpd.{m}") for m in MODULES + ["errors"]}
    return pkg, types.SimpleNamespace(**mods)


def fresh(gm, wl):
    """New instance objects for every spec an op reads."""
    used = {op.inst for op in wl.ops if op.inst is not None}
    return {i: gm.digraph.PartitionedDigraph(*wl.specs[i][:2]) for i in used}


def setup(name, seed, smoke):
    """Import gmpd, build every instance and warm up once per op kind."""
    t0 = time.perf_counter()
    pkg, gm = import_gmpd()
    wl = WORKLOADS[name](gm, seed, smoke)
    objs = fresh(gm, wl)
    kinds = set()
    for op in wl.ops:
        if op.kind not in kinds:
            kinds.add(op.kind)
            try:
                op.run(gm, objs.get(op.inst))
            except Exception:  # the same op fails again in the pass, where it is counted
                pass
    return time.perf_counter() - t0, pkg, gm, wl


def run_pass(gm, wl):
    """One timed pass: (wall seconds, per-metric seconds, [(op, class, answer)])."""
    objs = fresh(gm, wl)
    per_metric = dict.fromkeys(wl.metrics, 0.0)
    results = []
    start = time.perf_counter()
    for op in wl.ops:
        t0 = time.perf_counter()
        try:
            answer, cls = op.run(gm, objs.get(op.inst)), "ok"
        except gm.errors.TooLarge as exc:
            answer, cls = exc, "TooLarge"
        except AssertionError as exc:
            answer, cls = exc, "AssertionError"
        except Exception as exc:  # any other escape is a failed op, reported below
            answer, cls = exc, "other"
        if op.metric:
            per_metric[op.metric] += time.perf_counter() - t0
        results.append([op, cls, answer])
    return time.perf_counter() - start, per_metric, results


def timed_passes(gm, wl, seconds, smoke):
    """Passes until another one would end after `seconds`; at least one."""
    passes = [run_pass(gm, wl)]
    start = time.perf_counter() - passes[0][0]
    while not smoke and time.perf_counter() - start + max(p[0] for p in passes) <= seconds:
        passes.append(run_pass(gm, wl))
    return passes


def check_all(wl, passes, log):
    """Check every ok answer outside the timed region; mismatches become 'wrong'."""
    ref = workloads.Ref(wl.specs, log)
    problems = []
    for _, _, results in passes:
        for row in results:
            op, cls, answer = row
            if cls != "ok":
                if cls != "TooLarge":
                    problems.append(f"{cls}: {type(answer).__name__}: {answer}")
                continue
            try:
                op.check(answer, ref)
            except (refs.Wrong, KeyError, ValueError, IndexError, AttributeError, TypeError) as exc:
                row[1] = "wrong"
                problems.append(f"wrong: {type(exc).__name__}: {exc}")
    return problems


def loadavg():
    try:
        return Path("/proc/loadavg").read_text().strip()
    except OSError:
        return "unavailable"


def env_lines(args):
    import numpy
    import scipy

    return [
        ("python", platform.python_version()),
        ("numpy", numpy.__version__),
        ("scipy", scipy.__version__),
        ("nproc", os.cpu_count()),
        ("workload", args.workload),
        ("seed", args.seed),
        ("threads", "1, one process per workload"),
        ("note", NOTE),
    ]


def main(argv=None):
    parser = argparse.ArgumentParser(description=__doc__.split("\n\n")[0])
    parser.add_argument("--workload", required=True, choices=sorted(WORKLOADS))
    parser.add_argument("--seed", type=int, required=True)
    parser.add_argument("--seconds", type=float, required=True)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    parser.add_argument("--smoke", action="store_true", help="one pass at reduced sizes")
    args = parser.parse_args(argv)
    if not (ROOT / "src" / "gmpd" / "__init__.py").is_file():
        sys.stderr.write(f"error: no gmpd sources under {ROOT / 'src'}; run from a checkout\n")
        return 2
    sys.path.insert(0, str(ROOT / "src"))
    load_start = loadavg()

    setups, wl = [], None
    for _ in range(1 if args.smoke or args.trace else SETUPS):
        if wl is not None:
            wl.cleanup()
        dt, pkg, gm, wl = setup(args.workload, args.seed, args.smoke)
        setups.append(dt)
    try:
        passes = timed_passes(gm, wl, args.seconds, args.smoke)
        peak_rss_mb = resource.getrusage(resource.RUSAGE_SELF).ru_maxrss / 1024
        traced = None
        if args.trace:
            trc = tracer.Tracer()
            undo = trc.install(pkg, {m: getattr(gm, m) for m in MODULES})
            try:
                wl_traced = WORKLOADS[args.workload](gm, args.seed, args.smoke)
                start = len(trc.spans)
                traced = run_pass(gm, wl_traced)
            finally:
                undo()
        log = collections.Counter()  # check kind -> times it ran
        problems = check_all(wl, passes, log)
        if traced is not None:
            problems += check_all(wl_traced, [traced], log)
    finally:
        wl.cleanup()

    counted = passes + ([traced] if traced else [])
    classes = dict.fromkeys(CLASSES, 0)
    for _, _, results in counted:
        for _, cls, _ in results:
            classes[cls] += 1
    attempted = sum(classes.values())
    failed = attempted - classes["ok"]
    missing = sorted(wl.checks - set(log))
    correct = classes["wrong"] == classes["AssertionError"] == classes["other"] == 0 and not missing

    walls = [p[0] for p in passes]
    values = {"setup_s": statistics.median(setups), "wall_s": statistics.median(walls),
              "peak_rss_mb": peak_rss_mb}
    out = [f"env {k} {v}" for k, v in env_lines(args)]
    out.append(f"env loadavg_start {load_start}")
    out.append(f"env loadavg_end {loadavg()}")
    out.append(f"run passes {len(passes)} setups {len(setups)} ops_per_pass {len(wl.ops)}")
    out.append(f"metric setup_s {values['setup_s']:.6f} s (median of {len(setups)} set-ups)")
    out.append(f"metric wall_s {values['wall_s']:.6f} s (median of {len(passes)} passes)")
    out.append(f"metric peak_rss_mb {peak_rss_mb:.3f} MB (ru_maxrss after the timed passes)")
    for m in wl.metrics:
        total = statistics.median([p[1][m] for p in passes])
        out.append(f"metric {m} {total:.6f} s (median per-pass total)")
    out.append(f"metric failed_frac {failed / attempted:.6f} ratio"
               f" (failed {failed} / attempted {attempted})")
    out.append("failures " + " ".join(f"{k}={v}" for k, v in classes.items()))
    out.append("checks " + " ".join(f"{k}={v}" for k, v in sorted(log.items())))
    out.append("checks_missing " + (" ".join(missing) or "none"))
    out += [f"problem {p}" for p in dict.fromkeys(problems)][:20]

    if args.trace:
        layers, bases, atleast = tracer.layer_metrics(trc.spans, start)
        layers["generators.generate.s"] = tracer.layer_metrics(trc.spans, 0)[0]["generators.generate.s"]
        layers["trace.overhead_s"] = traced[0] - values["wall_s"]
        layers["trace.spans"] = len(trc.spans) - start
        bases["trace.overhead_s"] = f"traced wall_s {traced[0]:.6f} - untraced wall_s {values['wall_s']:.6f}"
        bases["generators.generate.s"] = "instance build plus the traced pass"
        for n, count in atleast:
            out.append(f"atleast_call n={n} terminal_sets={count}")
        for name, unit in tracer.PER_LAYER:
            if unit == "s" and layers[name] and not name.startswith("trace.") and name not in bases:
                bases[name] = f"{layers[name] / traced[0]:.3f} of traced wall_s {traced[0]:.6f}"
            base = f" ({bases[name]})" if name in bases else ""
            out.append(f"layer {name} {layers[name]} {unit}{base}")
        metrics = {name: {"value": layers[name], "unit": unit} for name, unit in tracer.PER_LAYER}
    else:
        metrics = {name: {"value": values[name], "unit": unit} for name, unit in END_TO_END}
    print("\n".join(out))
    print(json.dumps({"correct": correct, "attempted": attempted, "failed": failed,
                      "metrics": metrics}))
    return 0


if __name__ == "__main__":
    sys.exit(main())
