"""The desk-cli workload: every subcommand through ``gmpd.cli.main`` in-process.

Inputs are the committed golden files plus seeded instances with n <= 12
that this file writes.  Each call's exit code and output are checked against
a reference computed here; calls on golden files are also checked against
digests recorded from the seed commit (``golden_digests.json``).

Run this file directly to print the digests of the golden calls for the
checked-out code: ``python3 perfbench/desk.py``.
"""

import contextlib
import hashlib
import io
import json
import os
import shutil
import sys
from pathlib import Path

import refs
from refs import expect
from workloads import Op, Workload, rng_for

HERE = Path(__file__).resolve().parent
DIGESTS = HERE / "golden_digests.json"
GOLDEN = "tests/golden"

# op metric of each subcommand family; other calls count in wall_s only
METRIC = {"tsp": "tsp_s", "npc": "npc_s"}


def read_instance(text):
    """(part, arcs, weights) of a gmpd 1 instance file, parsed here."""
    lines = [ln.strip() for ln in text.splitlines()]
    expect(lines[0] == "gmpd 1", "missing gmpd 1 header")
    n, _ = map(int, lines[1].split())
    part = tuple(int(x) for x in lines[2].split())
    expect(len(part) == n, "partite line length differs from n")
    m = int(lines[3])
    arcs = frozenset(tuple(map(int, ln.split())) for ln in lines[4:4 + m])
    weights = frozenset()
    pos = 4 + m
    while pos < len(lines):
        head = lines[pos].split()
        if not head:
            pos += 1
            continue
        count = int(head[1])
        if head[0] == "weights":
            weights = frozenset(tuple(map(int, ln.split())) for ln in lines[pos + 1:pos + 1 + count])
        pos += 1 + count
    return part, arcs, weights


def call_cli(gm, argv):
    """(exit code, stdout, stderr) of one in-process CLI call."""
    out, err = io.StringIO(), io.StringIO()
    with contextlib.redirect_stdout(out), contextlib.redirect_stderr(err):
        code = gm.cli.main(argv)
    return code, out.getvalue(), err.getvalue()


def digest(answer):
    code, out, err = answer
    return hashlib.sha256(f"{code}\n{out}\n--\n{err}".encode()).hexdigest()


def fields(out):
    return dict(line.split(" ", 1) for line in out.splitlines() if line)


# -- semantic checks: each takes the answer, the Ref and the instance index --------


def _ok(answer, code=0):
    expect(answer[0] == code, f"exit code {answer[0]}, expected {code}: {answer[2].strip()}")
    return fields(answer[1]) if code != 0 or not answer[1].startswith("gmpd 1") else {}


def c_validate(a, ref, i):
    part, arcs = ref.specs[i][:2]
    smd = refs.is_smd(part, arcs)
    f = _ok(a, 0 if smd else 1)
    expect(f["is_smd"] == str(smd).lower(), "is_smd differs")
    expect(f["is_strong"] == str(refs.is_strong(part, arcs)).lower(), "is_strong differs")
    expect(f["is_extended"] == str(smd and refs.is_extended(part, arcs)).lower(), "is_extended differs")
    expect((int(f["n"]), int(f["c"])) == (len(part), max(part)), "n or c differs")


def c_factor(a, ref, i):
    part, arcs = ref.specs[i][:2]
    f = _ok(a)
    covered, total = set(), 0
    for k in range(1, int(f["cycles"]) + 1):
        seq, got = refs.check_rendered(part, arcs, f[f"cycle{k}"], "cycle", spanning=False)
        expect(not covered & set(seq), "factor cycles overlap")
        covered |= set(seq)
        total += got
    expect(len(covered) == len(part), "factor is not spanning")
    expect(int(f["arc_count"]) == total == ref.get(refs.factor_max, i), "arc_count differs from scipy")


def c_longest_gpath(a, ref, i):
    part, arcs = ref.specs[i][:2]
    f = _ok(a)
    _, got = refs.check_rendered(part, arcs, f["witness"], "path", spanning=True)
    expect(int(f["length"]) == got == ref.get(refs.path_max, i), "length differs from scipy")


def c_strong(a, ref, i):
    part, arcs = ref.specs[i][:2]
    if not refs.is_strong(part, arcs):
        expect(a[0] == 2 and "NotStrong" in a[2], "non-strong input not refused")
        return
    f = _ok(a)
    cf = ref.get(refs.factor_max, i)
    cprime = refs.nontrivial_parts(part)
    lower = cf - 1 if cprime <= 1 else cf - 2 * cprime
    _, got = refs.check_rendered(part, arcs, f["witness"], "cycle", spanning=True)
    expect((int(f["c_f"]), int(f["c_prime"]), int(f["lower_bound"])) == (cf, cprime, lower),
           "certificate fields differ")
    expect(int(f["length"]) == got >= lower,
           f"length {f['length']}, witness has {got} arcs, floor {lower}")


def c_ext(a, ref, i):
    part, arcs = ref.specs[i][:2]
    if not refs.is_strong(part, arcs):
        expect(_ok(a, 1)["status"] == "no", "expected status no")
        return
    f = _ok(a)
    _, got = refs.check_rendered(part, arcs, f["witness"], "cycle", spanning=True)
    expect(int(f["length"]) == got == ref.get(refs.factor_max, i), "ext length differs from scipy")


def c_atleast(a, ref, i, k):
    part, arcs = ref.specs[i][:2]
    n = len(part)
    best = ref.get(refs.cycle_max, i)
    if best is None or best < n - k:
        expect(_ok(a, 1)["status"] == "no", "expected status no")
        return
    f = _ok(a)
    _, got = refs.check_rendered(part, arcs, f["witness"], "cycle", spanning=True)
    expect(int(f["length"]) == got >= n - k, "witness below n - k")


def c_xy(a, ref, i, x, y):
    part, arcs = ref.specs[i][:2]
    if not ref.get(refs.xy_reachable, i, x, y):
        expect(_ok(a, 1)["status"] == "no", "expected status no")
        return
    seq, _ = refs.check_rendered(part, arcs, _ok(a)["witness"], "path", spanning=True)
    expect(seq[0] == x and seq[-1] == y, "wrong ends")


def c_bound(a, ref, i):
    part, arcs = ref.specs[i][:2]
    n = len(part)
    dist = ref.get(refs.jump_distances, i)
    finite = [int(dist[x, y]) for x in range(n) for y in range(n)
              if x != y and dist[x, y] != float("inf")]
    big_n = max(finite, default=0)
    cf = ref.get(refs.factor_max, i)
    f = _ok(a)
    expect(int(f["N"]) == big_n, "N differs")
    want = ("none", "none") if cf is None else (str(cf), str(min(n - big_n, cf)))
    expect((f["c_f"], f["bound"]) == want, "c_f or bound differs")
    expect(int(f.get("unreachable_pairs", 0)) == n * (n - 1) - len(finite), "unreachable differs")


def c_oracle_gcycle(a, ref, i):
    part, arcs = ref.specs[i][:2]
    best = ref.get(refs.cycle_max, i)
    if best is None:
        expect(_ok(a, 1)["status"] == "no", "expected status no")
        return
    f = _ok(a)
    _, got = refs.check_rendered(part, arcs, f["witness"], "cycle", spanning=True)
    expect(int(f["length"]) == got == best, "cycle oracle differs from reference")


def c_oracle_gpath(a, ref, i):
    part, arcs = ref.specs[i][:2]
    f = _ok(a)
    _, got = refs.check_rendered(part, arcs, f["witness"], "path", spanning=False)
    expect(int(f["length"]) == got == ref.get(refs.path_max, i), "path oracle differs from scipy")


def _tour_weight(ref, w, text, closed):
    n = len(ref.specs[w][0])
    arcs, ones = ref.specs[w][1], ref.specs[w][2]
    seq = [int(v) for v in text.split("->")]
    expect(sorted(seq) == list(range(1, n + 1)), "tour is not a permutation")
    steps = list(zip(seq, seq[1:])) + ([(seq[-1], seq[0])] if closed else [])
    expect(all(s in arcs for s in steps), "tour leaves the weighted digraph")
    return sum(s in ones for s in steps)


def c_tsp_path(a, ref, i, w):
    n = len(ref.specs[i][0])
    f = _ok(a)
    cost = (n - 1) - ref.get(refs.path_max, i)
    expect(int(f["cost"]) == cost == _tour_weight(ref, w, f["witness"], False), "path cost differs")


def c_tsp_strong(a, ref, i, w):
    part, arcs = ref.specs[i][:2]
    if not refs.is_strong(part, arcs):
        expect(a[0] == 2 and "NotStrong" in a[2], "non-strong input not refused")
        return
    n = len(part)
    dist = ref.get(refs.jump_distances, i)
    big_n = int(max(dist[x, y] for x in range(n) for y in range(n) if x != y))
    cf = ref.get(refs.factor_max, i)
    cprime = refs.nontrivial_parts(part)
    lower = cf - 1 if cprime <= 1 else cf - 2 * cprime
    f = _ok(a)
    achieved = _tour_weight(ref, w, f["witness"], True)
    expect(int(f["low"]) == n - min(n - big_n, cf) and int(f["high"]) == n - lower, "interval differs")
    expect(int(f["achieved"]) == achieved and int(f["low"]) <= achieved <= int(f["high"]),
           "achieved weight outside the interval")


def c_tsp_atmost(a, ref, i, w, k):
    n = len(ref.specs[i][0])
    best = ref.get(refs.cycle_max, i)
    if best is None or n - best > k:
        expect(_ok(a, 1)["status"] == "no", "expected status no")
        return
    f = _ok(a)
    expect(int(f["cost"]) == _tour_weight(ref, w, f["witness"], True) <= k, "tour cost above k")


def c_tsp_ext(a, ref, i, w):
    part, arcs = ref.specs[i][:2]
    f = _ok(a)
    if not refs.is_strong(part, arcs):
        expect(f["status"] == "no-tour", "expected no-tour")
        return
    cost = len(part) - ref.get(refs.factor_max, i)
    expect(int(f["cost"]) == cost == _tour_weight(ref, w, f["witness"], True), "tour cost differs")


def c_witness(a, ref, i, once):
    part, arcs = ref.specs[i][:2]
    _, seq, conns = refs.parse_rendered(_ok(a)["witness"])
    expect(all(c == "->" for c in conns), "witness uses a jump")
    refs.check_walk(part, arcs, "cycle", seq, spanning=False)
    counts = {p: sum(part[v - 1] == p for v in seq) for p in set(part)}
    if once:
        expect(all(k == 1 for k in counts.values()), "a partite set is not met exactly once")
    else:
        expect(all(1 <= counts[p] < part.count(p) for p in counts), "a partite set is missed or used up")


def c_instance_text(a, ref, i):
    _ok(a)
    part, arcs, _ = read_instance(a[1])
    expect(len(part) > 0 and len(arcs) > 0, "empty instance")


def c_gen_same(a, ref, i, text):
    _ok(a)
    expect(a[1] == text, "gen output differs from the instance written at set-up")


# golden calls: argv with paths relative to the repository root, the check
# and its extra arguments after the instance index
GOLDEN_CALLS = [
    (["validate", f"{GOLDEN}/fig1.gmpd"], c_validate),
    (["validate", f"{GOLDEN}/np1_fig5.gmpd"], c_validate),
    (["factor", f"{GOLDEN}/fig2.gmpd"], c_factor),
    (["longest-gpath", f"{GOLDEN}/fig2.gmpd"], c_longest_gpath),
    (["spanning-gcycle", f"{GOLDEN}/fig1.gmpd"], c_strong),
    (["spanning-gcycle", f"{GOLDEN}/fig2.gmpd"], c_strong),
    (["spanning-gcycle", "--atleast", "1", f"{GOLDEN}/noclose_1_3.gmpd"], c_atleast, 1),
    (["bound", f"{GOLDEN}/fig2.gmpd"], c_bound),
    (["oracle", "gcycle", f"{GOLDEN}/fig2.gmpd"], c_oracle_gcycle),
    (["npc", "build1", f"{GOLDEN}/fig56.cnf"], c_instance_text),
    (["npc", "build2", f"{GOLDEN}/fig56.cnf"], c_instance_text),
    (["npc", "witness1", f"{GOLDEN}/np1_fig5.gmpd"], c_witness, False),
    (["npc", "witness2", f"{GOLDEN}/np2_fig6.gmpd"], c_witness, True),
    (["gen", "fig2"], c_instance_text),
    (["gen", "sat2", "--cnf", f"{GOLDEN}/fig56.cnf"], c_instance_text),
]


# -- the workload ------------------------------------------------------------------


def _op(argv, check, *extra, recorded=None, key=None):
    """A CLI call whose answer passes `check`, and, for a golden call, also
    matches the digest recorded under `key`."""
    def verify(a, ref):
        if key is not None:
            expect(recorded.get(key) == digest(a), f"output of {key!r} differs from the seed commit")
            ref.log["desk_digest"] += 1
        check(a, ref, *extra)
        ref.log["desk_semantic"] += 1
    return Op("cli:" + " ".join(argv[:2]), METRIC.get(argv[0]), None,
              lambda g, d: call_cli(g, argv), verify)


def golden_ops(root, specs):
    recorded = json.loads(DIGESTS.read_text())
    ops = []
    for argv, check, *extra in GOLDEN_CALLS:
        src = next((p for p in argv if p.endswith(".gmpd")), None)
        specs.append(read_instance((root / src).read_text(encoding="ascii")) if src else None)
        full = [str(root / p) if p.startswith(GOLDEN) else p for p in argv]
        ops.append(_op(full, check, len(specs) - 1, *extra, recorded=recorded, key=" ".join(argv)))
    return ops


def desk_cli(gm, seed, smoke, root):
    """Desk-scale calls, where fixed per-call costs dominate."""
    rng = rng_for("desk-cli", seed)
    work = root / ".bench_work" / f"desk-{os.getpid()}"
    work.mkdir(parents=True, exist_ok=True)
    specs = []
    ops = golden_ops(root, specs)

    def write(name, inst):
        text = gm.fileformat.emit_instance(inst)
        (work / name).write_text(text, encoding="ascii")
        specs.append(read_instance(text))
        return str(work / name), len(specs) - 1, text

    def weighted(d):
        ones = frozenset((u, v) for u in d.vertices() for v in d.vertices()
                         if u != v and d.part(u) == d.part(v))
        whole = gm.digraph.PartitionedDigraph(range(1, d.n + 1), d.arcs | ones)
        return gm.fileformat.InstanceFile(digraph=whole, weights=ones)

    n = 8 if smoke else 12
    r_args = ["random", str(n), "4", "0.3"]
    r_seed = rng.randrange(10 ** 6)
    r_inst = gm.generators.generate(r_args[0], r_args[1:], seed=r_seed)
    e_inst = gm.generators.generate("extended", ["4", "3"], seed=rng.randrange(10 ** 6))
    r_path, r, r_text = write("r.gmpd", r_inst)
    e_path, e, _ = write("e.gmpd", e_inst)
    wr_path, wr, _ = write("wr.gmpd", weighted(r_inst.digraph))
    we_path, we, _ = write("we.gmpd", weighted(e_inst.digraph))
    x, y = rng.sample(range(1, n + 1), 2)
    k = rng.randint(1, 3)

    ops += [
        _op(["validate", r_path], c_validate, r),
        _op(["validate", e_path], c_validate, e),
        _op(["factor", r_path], c_factor, r),
        _op(["longest-gpath", r_path], c_longest_gpath, r),
        _op(["spanning-gcycle", r_path], c_strong, r),
        _op(["spanning-gcycle", "--ext", e_path], c_ext, e),
        _op(["spanning-gcycle", "--atleast", "2", r_path], c_atleast, r, 2),
        _op(["xy-gpath", str(x), str(y), r_path], c_xy, r, x, y),
        _op(["bound", r_path], c_bound, r),
        _op(["oracle", "gcycle", r_path], c_oracle_gcycle, r),
        _op(["oracle", "gpath", r_path], c_oracle_gpath, r),
        _op(["tsp", "path", wr_path], c_tsp_path, r, wr),
        _op(["tsp", "tour", wr_path, "--mode", "strong-bound"], c_tsp_strong, r, wr),
        _op(["tsp", "tour", wr_path, "--mode", "at-most-k", "--k", str(k)],
            c_tsp_atmost, r, wr, k),
        _op(["tsp", "tour", we_path, "--mode", "extended-exact"], c_tsp_ext, e, we),
        _op(["gen", *r_args, "--seed", str(r_seed)], c_gen_same, r, r_text),
    ]
    def cleanup():
        shutil.rmtree(work, ignore_errors=True)
        with contextlib.suppress(OSError):  # another run may still use it
            work.parent.rmdir()

    return Workload(specs, ops, {"desk_digest", "desk_semantic"}, cleanup=cleanup)


if __name__ == "__main__":
    root = HERE.parent
    sys.path.insert(0, str(root / "src"))
    import types

    import gmpd.cli

    gm = types.SimpleNamespace(cli=gmpd.cli)
    table = {}
    for argv, *_ in GOLDEN_CALLS:
        full = [str(root / p) if p.startswith(GOLDEN) else p for p in argv]
        table[" ".join(argv)] = digest(call_cli(gm, full))
    print(json.dumps(table, indent=1, sort_keys=True))
