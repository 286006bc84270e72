"""3-SAT reduction builders and exact witness searches for the two
cycle-through-partite-sets decision problems.

Both constructions chain one two-path variable gadget per variable and then
complete the digraph so that a qualifying cycle forces one gadget path per
variable, encoding a truth assignment.
"""

from dataclasses import dataclass
from typing import Dict, List, Optional, Tuple

from .digraph import PartitionedDigraph
from .errors import CertificateError, ParseError, TooLarge
from .walks import GWalk, arc_count, canonical_cycle

DEFAULT_WITNESS_CAP = 34


@dataclass(frozen=True)
class CNF3:
    """Exactly-3-literal clauses; literals are signed variable indices and a
    clause may repeat a literal."""

    nvars: int
    clauses: Tuple[Tuple[int, int, int], ...]

    def __post_init__(self):
        if self.nvars < 1:
            raise ValueError("at least one variable required")
        for cl in self.clauses:
            if len(cl) != 3:
                raise ValueError(f"clause {cl} must have exactly 3 literals")
            for lit in cl:
                if lit == 0 or abs(lit) > self.nvars:
                    raise ValueError(f"literal {lit} out of range")
        if not self.clauses:
            raise ValueError("at least one clause required")


def parse_dimacs(text: str) -> CNF3:
    nvars = None
    clauses = []
    for lineno, raw in enumerate(text.splitlines(), 1):
        line = raw.strip()
        if not line or line.startswith("c"):
            continue
        if line.startswith("p"):
            parts = line.split()
            if len(parts) != 4 or parts[1] != "cnf":
                raise ParseError(lineno, "expected 'p cnf <vars> <clauses>'")
            nvars = int(parts[2])
            continue
        if nvars is None:
            raise ParseError(lineno, "clause before the problem line")
        lits = [int(t) for t in line.split()]
        if not lits or lits[-1] != 0:
            raise ParseError(lineno, "clause line must end with 0")
        lits = lits[:-1]
        if len(lits) != 3:
            raise ParseError(lineno, "exactly three literals per clause")
        clauses.append(tuple(lits))
    if nvars is None or not clauses:
        raise ParseError(0, "missing problem line or clauses")
    return CNF3(nvars, tuple(clauses))


def dpll_satisfiable(f: CNF3) -> bool:
    """Plain unit-propagating DPLL decision."""

    def solve(clauses, assignment):
        while True:
            unit = None
            for cl in clauses:
                live = [l for l in cl if -l not in assignment]
                if not live:
                    return False
                if all(l in assignment for l in live):
                    continue
                undecided = [l for l in live if l not in assignment]
                if not undecided:
                    continue
                if len(set(undecided)) == 1 and not any(l in assignment for l in live):
                    unit = undecided[0]
                    break
            if unit is None:
                break
            assignment = assignment | {unit}
        remaining = [
            cl for cl in clauses if not any(l in assignment for l in cl)
        ]
        remaining = [
            tuple(l for l in cl if -l not in assignment) for cl in remaining
        ]
        if any(not cl for cl in remaining):
            return False
        if not remaining:
            return True
        branch = remaining[0][0]
        return solve(remaining, assignment | {branch}) or solve(
            remaining, assignment | {-branch}
        )

    return solve(list(f.clauses), frozenset())


@dataclass
class _Gadgets:
    """Shared chained-gadget layout: vertex names, ids, arcs, and the clause
    and boundary vertex groups.

    When a clause repeats a literal, its occurrence vertices would sit next
    to each other on a gadget path inside one partite set; a spacer vertex is
    interposed there and paired with a twin on the variable's other path, the
    pair forming its own two-vertex partite set, so that each route carries
    exactly one of the two."""

    ids: Dict[str, int]
    names: List[str]
    arcs: List[Tuple[int, int]]
    u_chain: List[int]               # u_1 .. u_n, v_n
    y_path: Dict[int, List[int]]     # interior of the positive route, in order
    z_path: Dict[int, List[int]]     # interior of the negative route, in order
    clause_sets: List[List[int]]     # occurrence vertices per clause
    star_sets: List[List[int]]       # {y_0^i, z_{q_i+1}^i} per variable
    spacer_pairs: List[Tuple[int, int]]


def _build_chain(f: CNF3) -> _Gadgets:
    n = f.nvars
    occ_pos = {i: 0 for i in range(1, n + 1)}
    occ_neg = {i: 0 for i in range(1, n + 1)}
    occurrence: Dict[Tuple[int, int], str] = {}
    clause_of: Dict[str, int] = {}
    for j, clause in enumerate(f.clauses, 1):
        for slot, lit in enumerate(clause):
            var = abs(lit)
            if lit > 0:
                occ_pos[var] += 1
                name = f"y{var}_{occ_pos[var]}"
            else:
                occ_neg[var] += 1
                name = f"z{var}_{occ_neg[var]}"
            occurrence[(j, slot)] = name
            clause_of[name] = j
    ids: Dict[str, int] = {}
    names: List[str] = []

    def add(name: str) -> int:
        ids[name] = len(names) + 1
        names.append(name)
        return ids[name]

    u_chain = []
    y_path: Dict[int, List[int]] = {}
    z_path: Dict[int, List[int]] = {}
    spacer_pairs: List[Tuple[int, int]] = []
    star_sets: List[List[int]] = []
    for i in range(1, n + 1):
        u_chain.append(add(f"u{i}"))
        p, q = occ_pos[i], occ_neg[i]
        y_names = [f"y{i}_{k}" for k in range(0, p + 1)]
        z_names = [f"z{i}_{k}" for k in range(1, q + 2)]

        def conflicts(seq):
            out = []
            for k in range(len(seq) - 1):
                a, b = seq[k], seq[k + 1]
                if clause_of.get(a) is not None and clause_of.get(a) == clause_of.get(b):
                    out.append(k)
            return out

        y_gaps = conflicts(y_names)
        z_gaps = conflicts(z_names)
        pairs_needed = max(len(y_gaps), len(z_gaps))
        ys: List[int] = []
        for k, nm in enumerate(y_names):
            ys.append(add(nm))
            if k in y_gaps:
                ys.append(add(f"a{i}_{len([g for g in y_gaps if g <= k])}"))
        zs: List[int] = []
        for k, nm in enumerate(z_names):
            zs.append(add(nm))
            if k in z_gaps:
                zs.append(add(f"b{i}_{len([g for g in z_gaps if g <= k])}"))
        # twins beyond the other path's own needs ride at the route's end
        for extra in range(len(z_gaps) + 1, pairs_needed + 1):
            zs.append(add(f"b{i}_{extra}"))
        for extra in range(len(y_gaps) + 1, pairs_needed + 1):
            ys.append(add(f"a{i}_{extra}"))
        for k in range(1, pairs_needed + 1):
            spacer_pairs.append((ids[f"a{i}_{k}"], ids[f"b{i}_{k}"]))
        y_path[i] = ys
        z_path[i] = zs
        star_sets.append([ids[f"y{i}_0"], ids[f"z{i}_{q + 1}"]])
    u_chain.append(add(f"v{n}"))
    arcs: List[Tuple[int, int]] = []
    for i in range(1, n + 1):
        u, v = u_chain[i - 1], u_chain[i]
        for chain in ([u] + y_path[i] + [v], [u] + z_path[i] + [v]):
            for a, b in zip(chain, chain[1:]):
                arcs.append((a, b))
    clause_sets = []
    for j, clause in enumerate(f.clauses, 1):
        clause_sets.append([ids[occurrence[(j, slot)]] for slot in range(3)])
    return _Gadgets(
        ids, names, arcs, u_chain, y_path, z_path, clause_sets, star_sets, spacer_pairs
    )


def _gadget_vertex_sets(g: _Gadgets, n: int) -> List[List[int]]:
    """W_i as vertex lists, boundary vertices included in both neighbours."""
    out = []
    for i in range(1, n + 1):
        out.append(
            [g.u_chain[i - 1]] + g.y_path[i] + g.z_path[i] + [g.u_chain[i]]
        )
    return out


def build_np1(f: CNF3) -> Tuple[PartitionedDigraph, Dict[str, int]]:
    """Instance for the some-but-not-all-of-each-partite-set cycle problem."""
    g = _build_chain(f)
    n, m = f.nvars, len(f.clauses)
    ids, names = dict(g.ids), list(g.names)

    def add(name: str) -> int:
        ids[name] = len(names) + 1
        names.append(name)
        return ids[name]

    s1, s2 = add("s1"), add("s2")
    t1, t2 = add("t1"), add("t2")
    ustar = add("ustar")
    total = len(names)
    arcs = set(g.arcs)
    u1 = g.u_chain[0]
    vn = g.u_chain[-1]
    for s in (s1, s2):
        arcs.add((s, u1))
    arcs.add((ustar, s1))
    arcs.add((ustar, s2))
    for t in (t1, t2):
        arcs.add((vn, t))
        for s in (s1, s2, ustar):
            arcs.add((t, s))
    # partite indices
    part = [0] * total
    START, END = 1, m + n + 3
    U_PART = m + n + 2
    for k, members in enumerate(g.clause_sets, start=2):
        for v in members:
            part[v - 1] = k
    for k, members in enumerate(g.star_sets, start=m + 2):
        for v in members:
            part[v - 1] = k
    for v in g.u_chain:
        part[v - 1] = U_PART
    part[ustar - 1] = U_PART
    part[s1 - 1] = part[s2 - 1] = START
    part[t1 - 1] = part[t2 - 1] = END
    for k, (a, b) in enumerate(g.spacer_pairs, start=m + n + 4):
        part[a - 1] = part[b - 1] = k
    gadgets = _gadget_vertex_sets(g, n)
    # later gadgets dominate earlier ones
    for k in range(n):
        for j in range(k):
            for a in gadgets[k]:
                for b in gadgets[j]:
                    if a != b and part[a - 1] != part[b - 1]:
                        arcs.add((a, b))
    for i in range(n):
        for w in gadgets[i]:
            for t in (t1, t2):
                if part[w - 1] != END:
                    arcs.add((t, w))
            for s in (s1, s2, ustar):
                if part[w - 1] != part[s - 1]:
                    arcs.add((w, s))
    # the y-side plus the exit dominates the entry plus the z-side
    for i in range(1, n + 1):
        u, v = g.u_chain[i - 1], g.u_chain[i]
        for a in g.y_path[i] + [v]:
            for b in [u] + g.z_path[i]:
                if part[a - 1] != part[b - 1]:
                    arcs.add((a, b))
    # backward arcs along each gadget path between still non-adjacent pairs
    for i in range(1, n + 1):
        u, v = g.u_chain[i - 1], g.u_chain[i]
        for chain in ([u] + g.y_path[i] + [v], [u] + g.z_path[i] + [v]):
            for x in range(len(chain)):
                for ypos in range(x + 1, len(chain)):
                    a, b = chain[x], chain[ypos]
                    if part[a - 1] == part[b - 1]:
                        continue
                    if (a, b) in arcs or (b, a) in arcs:
                        continue
                    arcs.add((b, a))
    d = PartitionedDigraph(part, arcs)
    return d, dict(sorted(ids.items(), key=lambda kv: kv[1]))


def build_np2(f: CNF3) -> Tuple[PartitionedDigraph, Dict[str, int]]:
    """Instance for the exactly-one-of-each-partite-set cycle problem."""
    g = _build_chain(f)
    n, m = f.nvars, len(f.clauses)
    ids, names = dict(g.ids), list(g.names)

    def add(name: str) -> int:
        ids[name] = len(names) + 1
        names.append(name)
        return ids[name]

    q_sets: List[List[int]] = []
    for j in range(1, m + 1):
        q_sets.append([add(f"q{i}_{j}") for i in (1, 2, 3)])
    x = add("x")
    total = len(names)
    arcs = set(g.arcs)
    u1 = g.u_chain[0]
    vn = g.u_chain[-1]
    for q in q_sets[0]:
        arcs.add((vn, q))
    for j in range(m - 1):
        for a in q_sets[j]:
            for b in q_sets[j + 1]:
                arcs.add((a, b))
    for q in q_sets[-1]:
        arcs.add((q, x))
    arcs.add((x, u1))
    for trio in q_sets:
        arcs.add((trio[0], trio[1]))
        arcs.add((trio[1], trio[2]))
        arcs.add((trio[2], trio[0]))
    # partite sets: the chain singletons, the per-variable boundary pairs,
    # then one pair per clause literal pairing occurrence with its q-twin
    part = [0] * total
    for k, v in enumerate(g.u_chain, start=1):
        part[v - 1] = k
    for k, members in enumerate(g.star_sets, start=n + 2):
        for v in members:
            part[v - 1] = k
    next_part = 2 * n + 2
    for j in range(m):
        for slot in range(3):
            part[g.clause_sets[j][slot] - 1] = next_part
            part[q_sets[j][slot] - 1] = next_part
            next_part += 1
    part[x - 1] = next_part
    for a, b in g.spacer_pairs:
        next_part += 1
        part[a - 1] = part[b - 1] = next_part
    gadgets = _gadget_vertex_sets(g, n)
    for i in range(1, n + 1):
        u, v = g.u_chain[i - 1], g.u_chain[i]
        for a in g.y_path[i] + [v]:
            for b in [u] + g.z_path[i]:
                if part[a - 1] != part[b - 1]:
                    arcs.add((a, b))
        for chain in ([u] + g.y_path[i] + [v], [u] + g.z_path[i] + [v]):
            for xi in range(len(chain)):
                for yi in range(xi + 1, len(chain)):
                    a, b = chain[xi], chain[yi]
                    if part[a - 1] != part[b - 1]:
                        arcs.add((b, a))
    order_sets = gadgets + q_sets + [[x]]
    for later in range(len(order_sets)):
        for earlier in range(later):
            for a in order_sets[later]:
                for b in order_sets[earlier]:
                    if a != b and part[a - 1] != part[b - 1]:
                        arcs.add((a, b))
    d = PartitionedDigraph(part, arcs)
    return d, dict(sorted(ids.items(), key=lambda kv: kv[1]))


def _dfs_witness(
    d: PartitionedDigraph,
    roots: List[int],
    init_state,
    can_extend,
    done,
) -> Optional[GWalk]:
    """Iterative DFS over simple real cycles with failure memoization.

    States must capture everything the continuation depends on besides the
    current vertex; dead (state, vertex) pairs are never re-expanded."""
    for root in roots:
        failed = set()
        frames = [(root, init_state(root), iter(sorted(d.out(root))))]
        path = [root]
        while frames:
            v, st, children = frames[-1]
            advanced = False
            for w in children:
                if w == root:
                    if done(st, v, root):
                        walk = canonical_cycle(GWalk("cycle", tuple(path)))
                        if arc_count(d, walk.seq, closed=True) != len(walk.seq):
                            raise CertificateError("the witness cycle uses a non-arc")
                        return walk
                    continue
                if w in path:
                    continue
                nst = can_extend(st, w)
                if nst is None or (nst, w) in failed:
                    continue
                frames.append((w, nst, iter(sorted(d.out(w)))))
                path.append(w)
                advanced = True
                break
            if not advanced:
                failed.add((st, v))
                frames.pop()
                path.pop()
    return None


def witness_np1(
    d: PartitionedDigraph, cap: Optional[int] = None
) -> Optional[GWalk]:
    """Real cycle using at least one but not all vertices of every partite
    set; exact decision by memoized DFS."""
    d.require_smd()
    limit = cap if cap is not None else DEFAULT_WITNESS_CAP
    if d.n > limit:
        raise TooLarge(d.n, limit)
    sizes = [len(s) for s in d.partite_sets()]
    if any(s < 2 for s in sizes):
        return None
    set_masks = [0] * (d.c + 1)
    for v in d.vertices():
        set_masks[d.part(v)] |= 1 << v
    full_sets = range(1, d.c + 1)
    min_size = min(sizes)
    root_part = next(i + 1 for i, s in enumerate(sizes) if s == min_size)
    roots = sorted(v for v in d.vertices() if d.part(v) == root_part)

    def init_state(v):
        return 1 << v

    def can_extend(mask, w):
        new = mask | (1 << w)
        sm = set_masks[d.part(w)]
        if (new & sm) == sm:
            return None          # would exhaust a partite set
        return new

    def done(mask, last, root):
        if (last, root) not in d.arcs:
            return False
        return all(mask & set_masks[i] for i in full_sets)

    walk = _dfs_witness(d, roots, init_state, can_extend, done)
    if walk is not None:
        counts = {i: 0 for i in full_sets}
        for v in walk.seq:
            counts[d.part(v)] += 1
        if not all(1 <= counts[i] < sizes[i - 1] for i in full_sets):
            raise CertificateError("the witness misses or exhausts a partite set")
    return walk


def witness_np2(
    d: PartitionedDigraph, cap: Optional[int] = None
) -> Optional[GWalk]:
    """Real cycle meeting every partite set exactly once; exact decision."""
    d.require_smd()
    limit = cap if cap is not None else DEFAULT_WITNESS_CAP
    if d.n > limit:
        raise TooLarge(d.n, limit)
    sizes = [len(s) for s in d.partite_sets()]
    min_size = min(sizes)
    root_part = next(i + 1 for i, s in enumerate(sizes) if s == min_size)
    roots = sorted(v for v in d.vertices() if d.part(v) == root_part)
    full = (1 << (d.c + 1)) - 2

    def init_state(v):
        return 1 << d.part(v)

    def can_extend(mask, w):
        bit = 1 << d.part(w)
        if mask & bit:
            return None
        return mask | bit

    def done(mask, last, root):
        return mask == full and (last, root) in d.arcs

    walk = _dfs_witness(d, roots, init_state, can_extend, done)
    if walk is not None and (len(walk.seq) != d.c or len({d.part(v) for v in walk.seq}) != d.c):
        raise CertificateError("the witness does not meet every partite set exactly once")
    return walk
