"""Shared helpers: naive reference oracles, instance builders and the
hypothesis settings profile.

The brute-force routines here enumerate permutations and subsets directly,
and the re-solve lex-min, the 0-1 BFS, the per-source jump matrix, the
unpruned terminal-set enumeration, the per-pair completion grid and its
row-by-row dummy padding, the row-scan greedy assignment start, the fully
built splice candidates, the int32 max-arc subset table, the mask-by-mask
reachability table and the pairwise instance and 0/1-TSP checks are the
plain algorithms the packaged engines replaced; they exist to validate the
packaged engines and must stay independent of them."""

from collections import deque
from itertools import combinations, permutations

import numpy as np
import pytest
from hypothesis import settings
from scipy.optimize import linear_sum_assignment

from gmpd.digraph import PartitionedDigraph, ValidationReport, augment_terminals, is_strong
from gmpd.generators import random_extended, random_smd
from gmpd.search import exact_ham_cycle
from gmpd.tsp import ZOTSPReport
from gmpd.walks import GWalk, arc_count, canonical_cycle

# every property test replays the same examples, with a bounded count, so the
# suite stays deterministic and its run time fixed
settings.register_profile("gmpd", derandomize=True, database=None, max_examples=20,
                          deadline=None)
settings.load_profile("gmpd")

FORBIDDEN = 10 ** 8   # assignment costs at or above this mark forbidden pairs


def step_ok(d, u, v):
    return (u, v) in d.arcs or d.part(u) == d.part(v)


def brute_longest_spanning_gcycle(d):
    """Max arcs over spanning cyclic sequences, or None; O(n!) reference."""
    verts = list(d.vertices())
    n = d.n
    if n < 2:
        return None
    best = None
    for perm in permutations(verts[1:]):
        seq = (verts[0],) + perm
        arcs = 0
        ok = True
        for i in range(n):
            u, v = seq[i], seq[(i + 1) % n]
            if (u, v) in d.arcs:
                arcs += 1
            elif d.part(u) != d.part(v):
                ok = False
                break
        if ok and (best is None or arcs > best):
            best = arcs
    return best


def brute_longest_gpath(d):
    """Max arcs over all generalized paths; O(Σ k!·C(n,k)) reference."""
    verts = list(d.vertices())
    best = 0
    for r in range(1, d.n + 1):
        for sub in combinations(verts, r):
            for perm in permutations(sub):
                arcs = 0
                ok = True
                for i in range(r - 1):
                    u, v = perm[i], perm[i + 1]
                    if (u, v) in d.arcs:
                        arcs += 1
                    elif d.part(u) != d.part(v):
                        ok = False
                        break
                if ok:
                    best = max(best, arcs)
    return best


def brute_min_assignment(cost):
    """Exhaustive min-cost perfect assignment for tiny square grids."""
    n = len(cost)
    best = None
    best_map = None
    for perm in permutations(range(n)):
        total = 0
        ok = True
        for i, j in enumerate(perm):
            c = cost[i][j]
            if c >= 10 ** 8:
                ok = False
                break
            total += c
        if ok and (best is None or total < best or (total == best and list(perm) < best_map)):
            best = total
            best_map = list(perm)
    return (best, best_map) if best is not None else None


def scipy_min_assignment(cost):
    """Min-cost perfect assignment total by scipy, or None if infeasible."""
    if not len(cost):
        return 0
    grid = np.asarray(cost, dtype=np.float64)
    rows, cols = linear_sum_assignment(grid)
    total = int(grid[rows, cols].sum())
    return total if total < FORBIDDEN else None


def reference_lexmin_assignment(cost):
    """Lexicographically smallest optimal assignment by re-solving.

    Fixes rows in ascending order to the smallest column that keeps the total
    optimal; each candidate is certified by solving the residual problem.
    """
    total = scipy_min_assignment(cost)
    if total is None:
        return None
    n = len(cost)
    fixed_cols = [None] * n
    used = [False] * n
    spent = 0
    for i in range(n):
        free_rows = list(range(i + 1, n))
        for j in range(n):
            if used[j] or cost[i][j] >= FORBIDDEN:
                continue
            free_cols = [c for c in range(n) if not used[c] and c != j]
            rest = scipy_min_assignment([[cost[r][c] for c in free_cols] for r in free_rows])
            if rest is not None and spent + cost[i][j] + rest == total:
                fixed_cols[i] = j
                used[j] = True
                spent += cost[i][j]
                break
        assert fixed_cols[i] is not None, "lexicographic fixing lost feasibility"
    return total, fixed_cols


def reference_jump_distances(d, source):
    """Shortest jump counts from source by a 0-1 BFS: arcs cost 0, jumps 1."""
    dist = {source: 0}
    dq = deque([source])
    part = d.part_vector
    while dq:
        u = dq.popleft()
        du = dist[u]
        for v in sorted(d.out(u)):
            if dist.get(v, FORBIDDEN) > du:
                dist[v] = du
                dq.appendleft(v)
        for v in d.vertices():
            if v != u and part[v - 1] == part[u - 1] and dist.get(v, FORBIDDEN) > du + 1:
                dist[v] = du + 1
                dq.append(v)
    return dist


def reference_completion_costs(d):
    """Completion cost grid pair by pair: 0 for an arc, 1 for a same-partite
    jump, 10**9 for a forbidden pair and on the diagonal."""
    grid = []
    for u in range(1, d.n + 1):
        row = []
        for v in range(1, d.n + 1):
            if u == v:
                row.append(10 ** 9)
            elif (u, v) in d.arcs:
                row.append(0)
            elif d.part(u) == d.part(v):
                row.append(1)
            else:
                row.append(10 ** 9)
        grid.append(row)
    return grid


def reference_path_grid(grid):
    """A cost grid padded row by row with a dummy vertex joined both ways to
    every vertex at cost 0 (10**9 on its diagonal)."""
    n = len(grid)
    return [row + [0] for row in grid] + [[0] * n + [10 ** 9]]


def reference_greedy_start(cost):
    """For each row in order, the first cost-0 column that no earlier row
    took, or -1, found with one numpy scan per row."""
    c = np.asarray(cost)
    owner = np.full(len(c), -1)
    succ = [-1] * len(c)
    for i in range(len(c)):
        free = np.flatnonzero((c[i] == 0) & (owner < 0))
        if free.size:
            succ[i] = int(free[0])
            owner[free[0]] = i
    return succ


def reference_jump_matrix(d):
    """dist[x][y] = fewest jumps on a generalized (x, y)-path (0-based), -1
    if none: from every source a layered BFS that takes the arc closure, one
    jump into every partite set already reached, then the arc closure
    again."""
    n, part = d.n, d.part_vector

    def closure(sources):
        seen, todo = set(sources), list(sources)
        while todo:
            for w in d.out(todo.pop() + 1):
                if w - 1 not in seen:
                    seen.add(w - 1)
                    todo.append(w - 1)
        return seen

    dist = []
    for x in range(n):
        row = [-1] * n
        seen = layer = closure([x])
        hops = 0
        while layer:
            for v in layer:
                row[v] = hops
            reached = {part[v] for v in seen}
            jumped = [v for v in range(n) if part[v] in reached and v not in seen]
            layer = closure(jumped) - seen
            seen = seen | layer
            hops += 1
        dist.append(row)
    return dist


def _splice_two(a, b):
    for i in range(len(a)):
        ra = a[i:] + a[:i]
        for j in range(len(b)):
            yield ra + b[j:] + b[:j]


def _splice_four(a, b):
    p, q = len(a), len(b)
    for i1 in range(p):
        for i2 in range(i1 + 1, p):
            a1 = a[i1:i2]
            a2 = a[i2:] + a[:i1]
            for j1 in range(q):
                for j2 in range(j1 + 1, q):
                    b1 = b[j1:j2]
                    b2 = b[j2:] + b[:j1]
                    yield a1 + b1 + a2 + b2
                    yield a1 + b2 + a2 + b1


def _splice_candidates(p_seq: tuple, c_seq: tuple):
    """Merge shapes from easiest to most entangled: concatenations with the
    cycle opened anywhere, single crossovers, then the double-crossover shape
    that pulls one cycle vertex in front of a path vertex."""
    t = len(c_seq)
    openings = [c_seq[i:] + c_seq[:i] for i in range(t)]
    for op in openings:
        yield op + p_seq
    for op in openings:
        yield p_seq + op
    s = len(p_seq)
    for a in range(1, s):
        for op in openings:
            yield p_seq[:a] + op + p_seq[a:]
    for i in range(1, s):
        for j in range(t):
            moved = (c_seq[(j + 1) % t], p_seq[i])
            rest = tuple(c_seq[(j + 1 + k) % t] for k in range(1, t))
            yield p_seq[:i] + moved + rest + p_seq[i + 1:]


def _first_fit(d, candidates, floor, closed):
    """The first candidate sequence legal with at least `floor` arcs, or None;
    each candidate is built in full and counted by walks.arc_count."""
    for cand in candidates:
        length = arc_count(d, cand, closed)
        if length is not None and length >= floor:
            return cand
    return None


def reference_merge_scan(d, a, b, floor, junctions):
    """The first splice candidate of two cycles' sequences with 2 or 4
    junctions that is legal with at least `floor` arcs, or None, in
    generator order."""
    splices = _splice_two if junctions == 2 else _splice_four
    return _first_fit(d, splices(a, b), floor, closed=True)


def reference_fold_path_cycle(d, p_seq, c_seq, floor):
    """The first of _splice_candidates(p_seq, c_seq) that is a legal path with
    at least `floor` arcs, or None."""
    return _first_fit(d, _splice_candidates(p_seq, c_seq), floor, closed=False)


def random_legal_order(d, vertices, rng, closed):
    """An order of the vertices whose every pair (with the wrap pair when
    closed) is an arc or a jump inside one partite set, grown greedily from
    random choices, or None."""
    for _ in range(30):
        order = [rng.choice(vertices)]
        left = sorted(set(vertices) - {order[0]})
        while left:
            steps = [v for v in left if (order[-1], v) in d.arcs or d.same_part(order[-1], v)]
            if not steps:
                break
            order.append(rng.choice(steps))
            left.remove(order[-1])
        u, v = order[-1], order[0]
        if not left and (not closed or (u, v) in d.arcs or d.same_part(u, v)):
            return tuple(order)
    return None


def reference_spanning_gcycle_at_least(d, k):
    """First spanning generalized cycle with at least n-k arcs, or None.

    Every terminal set X with |X| = 0..k, in ascending lexicographic order,
    runs the Hamiltonian engine on the augmented instance, with no bound
    deciding any set beforehand and no size cap on n or k.
    """
    verts = sorted(d.vertices())
    for size in range(k + 1):
        for x_set in combinations(verts, size):
            cyc = exact_ham_cycle(augment_terminals(d, x_set), threshold=d.n)
            if cyc is not None:
                return canonical_cycle(GWalk("cycle", cyc.seq))
    return None


def reference_max_arc_walk(d, starts, close):
    """(max arcs, witness) over spanning legal sequences from one of `starts`
    (0-based), or None; with `close` a cycle through starts[0].

    The int32 table the jump levels replaced: dp[mask, v] is the most arcs
    on a legal sequence from `starts` over exactly `mask` ending at v, one
    n-way max per cell.  Ties go to the smallest last vertex, then the
    smallest predecessor."""
    n, dead = d.n, -10 ** 6
    cost = np.array(reference_completion_costs(d))
    gain = np.where(cost >= 10 ** 9, dead, 1 - cost).astype(np.int32)
    popcount = np.array([bin(m).count("1") for m in range(1 << n)])
    dp = np.full((1 << n, n), dead, dtype=np.int32)
    for v in starts:
        dp[1 << v, v] = 0
    for p in range(1, n):
        layer = np.flatnonzero(popcount == p)
        alive = layer[(dp[layer] >= 0).any(axis=1)]
        for w in range(n):
            free = alive[(alive & (1 << w)) == 0]
            if free.size:
                best = (dp[free] + gain[:, w][None, :]).max(axis=1)
                ok = best >= 0
                targets = free[ok] | (1 << w)
                dp[targets, w] = np.maximum(dp[targets, w], best[ok])
    full = (1 << n) - 1
    totals = dp[full] + gain[:, starts[0]] if close else dp[full]
    arcs = int(totals.max())
    if arcs < 0:
        return None
    cur = int(totals.argmax())
    seq, mask = [cur], full
    while mask & (mask - 1):
        pmask = mask ^ (1 << cur)
        cur = int(np.flatnonzero(dp[pmask] + gain[:, cur] == dp[mask, cur])[0])
        mask = pmask
        seq.append(cur)
    seq = tuple(v + 1 for v in reversed(seq))
    return arcs, canonical_cycle(GWalk("cycle", seq)) if close else GWalk("path", seq)


def reference_xy_spanning_gpath(d, x, y):
    """The spanning (x,y)-walk of the full reachability table, mask by mask
    in ascending order, rebuilt from y backwards with the smallest
    predecessor first; None when y ends no spanning walk from x."""
    n = d.n
    pred = [[u for u in range(n) if u != w and step_ok(d, u + 1, w + 1)] for w in range(n)]
    dp = [0] * (1 << n)
    dp[1 << (x - 1)] = 1 << (x - 1)
    for mask in range(1 << n):
        for w in range(n):
            if not mask >> w & 1 and any(dp[mask] >> u & 1 for u in pred[w]):
                dp[mask | 1 << w] |= 1 << w
    mask, cur = (1 << n) - 1, y - 1
    if not dp[mask] >> cur & 1:
        return None
    seq = [cur]
    while mask != 1 << (x - 1):
        mask ^= 1 << cur
        cur = min(u for u in pred[cur] if dp[mask] >> u & 1)
        seq.append(cur)
    return GWalk("path", tuple(v + 1 for v in reversed(seq)))


def reference_validate(d):
    """The instance report pair by pair: the first internal arc of the sorted
    arcs, the first cross-partite pair in `combinations` order with no arc,
    and the first pair of partite sets that is neither one-way nor complete."""
    internal = next(((u, v) for u, v in sorted(d.arcs) if d.same_part(u, v)), None)
    missing = next(((u, v) for u, v in combinations(d.vertices(), 2)
                    if not d.same_part(u, v) and (u, v) not in d.arcs and (v, u) not in d.arcs),
                   None)
    smd = internal is None and missing is None
    witness = None
    if smd:
        sets = d.partite_sets()
        for i, j in combinations(range(d.c), 2):
            fwd = any((u, v) in d.arcs for u in sets[i] for v in sets[j])
            bwd = any((v, u) in d.arcs for u in sets[i] for v in sets[j])
            complete = all((u, v) in d.arcs and (v, u) in d.arcs for u in sets[i] for v in sets[j])
            if not ((fwd and not bwd) or (bwd and not fwd) or complete):
                witness = (i + 1, j + 1)
                break
    return ValidationReport(is_smd=smd, is_extended=smd and witness is None, is_strong=is_strong(d),
                            internal_arc=internal, missing_pair=missing, extended_witness=witness)


def reference_validate_zotsp(inst):
    """The 0/1-TSP report pair by pair: the first pair in `combinations` order
    with no arc, the least weight-1 arc that is no arc, then the groups of a
    union-find over the weight-1 arcs, in the order their first arc comes,
    each checked pair by pair for arcs both ways."""
    for u, v in combinations(range(1, inst.n + 1), 2):
        if (u, v) not in inst.arcs and (v, u) not in inst.arcs:
            return ZOTSPReport(ok=False, witness=(u, v))
    if not inst.ones <= inst.arcs:
        return ZOTSPReport(ok=False, witness=min(inst.ones - inst.arcs))
    parent = {}

    def find(x):
        while parent.get(x, x) != x:
            x = parent[x]
        return x

    for u, v in inst.ones:
        ru, rv = find(u), find(v)
        if ru != rv:
            parent[max(ru, rv)] = min(ru, rv)
    groups = {}
    for u, v in inst.ones:
        groups.setdefault(find(u), set()).update((u, v))
    for members in groups.values():
        for a, b in combinations(sorted(members), 2):
            if (a, b) not in inst.ones or (b, a) not in inst.ones:
                return ZOTSPReport(ok=False, witness=(a, b))
    return ZOTSPReport(ok=True, cliques=sorted((frozenset(g) for g in groups.values()), key=min))


def fig1_digraph():
    return PartitionedDigraph(
        [1, 2, 3, 4, 4],
        [(1, 2), (2, 3), (1, 3), (4, 1), (4, 3), (2, 4), (1, 5), (3, 5), (5, 2)],
    )


def random_smd_digraph(n, c, density, seed):
    return random_smd(n, min(c, n), density, seed).digraph


def random_extended_digraph(n_sets, max_size, seed):
    return random_extended(n_sets, max_size, seed).digraph


@pytest.fixture
def fig1():
    return fig1_digraph()
