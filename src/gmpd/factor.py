"""Maximum-arc cycle factors via an exact min-cost assignment.

The completion of the instance gives an assignment problem whose {0,1}
costs charge 1 per same-partite step and 0 per arc; missing cross-partite
pairs are forbidden.  A minimum-cost successor permutation decodes to a
factor with the maximum number of arcs: arcs = n - cost.

One shortest-augmenting-path solve gives the optimum together with optimal
duals u and v.  The optimal assignments are exactly the perfect matchings
of the tight pairs (c - u - v = 0), so the lexicographically smallest one
is read off that subgraph with no further solve.  Each result carries an
explicit certificate: a permutation of tight pairs under feasible duals
whose total is the solve's optimum; otherwise CertificateError is raised.
"""

from itertools import chain
from typing import List, NamedTuple, Optional, Tuple

import numpy as np

from .digraph import PartitionedDigraph
from .errors import CertificateError, Degenerate, NoFactor
from .walks import GFactor, GWalk, canonical_cycle, validate_factor

INF = 10 ** 9
_INF_CUT = 10 ** 8
_SCANNED = np.iinfo(np.int64).max


class Assignment(NamedTuple):
    total: int
    succ: List[int]      # succ[i] = column of row i
    u: np.ndarray        # row duals
    v: np.ndarray        # column duals


def solve_assignment(cost: List[List[int]]) -> Optional[Assignment]:
    """Exact min-cost perfect assignment with optimal duals.

    Costs are nonnegative; entries >= 10**8 are forbidden.  A greedy
    matching on cost-0 pairs with zero duals starts it (feasible, since no
    cost is negative).  Each row left unmatched then runs one shortest
    augmenting path (Dijkstra on reduced costs, columns scanned with numpy)
    and the duals are updated so that c - u - v stays >= 0 everywhere and 0
    on matched pairs.  Returns None when no feasible assignment exists.
    0-based indices.
    """
    c = np.asarray(cost, dtype=np.int64)
    if (c < 0).any():
        raise ValueError("assignment costs must be nonnegative")
    n = len(c)
    u = np.zeros(n, dtype=np.int64)
    v = np.zeros(n, dtype=np.int64)
    owner = np.full(n, -1, dtype=np.int64)   # owner[j] = row matched to column j
    succ = [-1] * n
    for i in range(n):
        free = np.flatnonzero((c[i] == 0) & (owner < 0))
        if free.size:
            succ[i] = int(free[0])
            owner[free[0]] = i
    for root in range(n):
        if succ[root] >= 0:
            continue
        dist = c[root] - u[root] - v       # shortest reduced length to each column
        pred = np.full(n, root)            # row the shortest path enters column j from
        final = np.zeros(n, dtype=np.int64)
        done = np.zeros(n, dtype=bool)
        scanned = []
        while True:
            j = int(dist.argmin())
            mu = int(dist[j])
            if mu >= _INF_CUT:
                return None
            final[j] = mu
            dist[j] = _SCANNED
            done[j] = True
            i = int(owner[j])
            if i < 0:
                break
            scanned.append(j)
            step = mu + c[i] - u[i] - v
            better = (step < dist) & ~done
            dist[better] = step[better]
            pred[better] = i
        cols = np.array(scanned, dtype=np.int64)
        u[owner[cols]] += mu - final[cols]
        v[cols] += final[cols] - mu
        u[root] += mu
        while True:
            i = int(pred[j])
            owner[j] = i
            succ[i], j = j, succ[i]
            if i == root:
                break
    total = int(c[np.arange(n), succ].sum())
    if total >= _INF_CUT:
        return None
    return Assignment(total, succ, u, v)


def _bitmasks(rows: np.ndarray) -> List[int]:
    """Each row of a boolean matrix as a Python int, bit j = column j."""
    packed = np.packbits(rows, axis=1, bitorder="little")
    return [int.from_bytes(r.tobytes(), "little") for r in packed]


def lexmin_assignment(cost: List[List[int]]) -> Optional[Tuple[int, List[int]]]:
    """Optimal assignment whose successor map is lexicographically smallest.

    One solve gives the optimum and its duals.  Rows are then fixed in
    order.  For row i, a reverse alternating search from its current column
    through the later rows' tight pairs finds every column that row i can
    take while the rest stays a tight perfect matching; row i takes the
    smallest tight one and the matching is re-routed along the search's
    parents.
    """
    c = np.asarray(cost, dtype=np.int64)
    solved = solve_assignment(c)
    if solved is None:
        return None
    total, succ, u, v = solved
    n = len(c)
    reduced = c - u[:, None] - v[None, :]
    tight = (reduced == 0) & (c < _INF_CUT)
    row_tight = _bitmasks(tight)      # columns tight with each row
    col_tight = _bitmasks(tight.T)    # rows tight with each column
    succ = list(succ)
    owner = [0] * n
    for r, j in enumerate(succ):
        owner[j] = r
    fixed = 0
    for i in range(n):
        cand = row_tight[i] & ~fixed
        best = cand & -cand
        j0 = succ[i]
        if best != 1 << j0:
            later = -(2 << i)             # rows after i
            parent = {}                   # row -> column it can move to
            seen = 0
            reach = 1 << j0
            queue = [j0]
            for col in queue:
                new = col_tight[col] & later & ~seen
                seen |= new
                while new:
                    b = new & -new
                    new ^= b
                    r = b.bit_length() - 1
                    parent[r] = col
                    reach |= 1 << succ[r]
                    queue.append(succ[r])
                if reach & best:
                    break
            hit = reach & cand
            if not hit:
                raise CertificateError("lexicographic fixing lost feasibility")
            j = (hit & -hit).bit_length() - 1
            if j != j0:
                r = owner[j]
                succ[i], owner[j] = j, i
                while True:
                    col = parent[r]
                    nxt = owner[col]
                    succ[r], owner[col] = col, r
                    if col == j0:
                        break
                    r = nxt
        fixed |= 1 << succ[i]
    _certify(c, reduced, succ, total)
    return total, succ


def _certify(c: np.ndarray, reduced: np.ndarray, succ: List[int], total: int):
    """A permutation of tight pairs under feasible duals, totalling the optimum."""
    n = len(succ)
    if sorted(succ) != list(range(n)):
        raise CertificateError("the assignment is not a permutation")
    if (reduced[c < _INF_CUT] < 0).any():
        raise CertificateError("the duals are infeasible")
    rows = np.arange(n)
    if (reduced[rows, succ] != 0).any():
        raise CertificateError("a chosen pair is not tight")
    if int(c[rows, succ].sum()) != total:
        raise CertificateError("the total differs from the solve's optimum")


def _succ_cycles(succ: List[int]) -> List[List[int]]:
    seen = [False] * len(succ)
    cycles = []
    for s in range(len(succ)):
        if seen[s]:
            continue
        cyc = []
        v = s
        while not seen[v]:
            seen[v] = True
            cyc.append(v)
            v = succ[v]
        cycles.append(cyc)
    return cycles


def completion_costs(d: PartitionedDigraph) -> List[List[int]]:
    """Square cost grid of the completion; INF marks forbidden pairs (the
    diagonal always)."""
    part = np.asarray(d.part_vector)
    grid = np.where(part[:, None] == part[None, :], 1, INF)
    ends = np.fromiter(chain.from_iterable(d.arcs), dtype=np.int64, count=2 * len(d.arcs)) - 1
    grid[ends[0::2], ends[1::2]] = 0
    np.fill_diagonal(grid, INF)
    return grid.tolist()


def max_arc_gcycle_factor(d: PartitionedDigraph) -> GFactor:
    """A spanning factor of generalized cycles with the maximum arc count."""
    d.require_smd()
    if d.n < 2:
        raise Degenerate("a cycle factor needs at least two vertices")
    solved = lexmin_assignment(completion_costs(d))
    if solved is None:
        raise NoFactor("no spanning set of generalized cycles exists")
    _, succ = solved
    cycles = []
    for cyc in _succ_cycles(succ):
        cycles.append(canonical_cycle(GWalk("cycle", tuple(v + 1 for v in cyc))))
    cycles.sort(key=lambda c: c.seq[0])
    factor = GFactor(tuple(cycles))
    validate_factor(d, factor)
    return factor


def c_f(d: PartitionedDigraph) -> int:
    """Maximum number of arcs in a generalized cycle factor."""
    f = max_arc_gcycle_factor(d)
    return f.arc_count(d)


def max_arc_path_cycle_subdigraph(d: PartitionedDigraph) -> Tuple[GWalk, GFactor]:
    """Spanning subdigraph of one path plus cycles, maximizing total arcs.

    Solved on the completion plus one dummy vertex wired to and from every
    vertex at cost 0; the dummy's successor cycle, opened, is the path.
    """
    d.require_smd()
    if d.n == 1:
        return GWalk("path", (1,)), GFactor(())
    n = d.n
    grid = [row + [0] for row in completion_costs(d)]
    grid.append([0] * n + [INF])
    solved = lexmin_assignment(grid)
    if solved is None:
        raise NoFactor("no spanning path-plus-cycles cover exists")
    _, succ = solved
    path_seq = None
    cycles = []
    for cyc in _succ_cycles(succ):
        if n in cyc:  # dummy id (0-based n)
            k = cyc.index(n)
            opened = cyc[k + 1:] + cyc[:k]
            path_seq = tuple(v + 1 for v in opened)
        else:
            cycles.append(canonical_cycle(GWalk("cycle", tuple(v + 1 for v in cyc))))
    if not path_seq:
        raise CertificateError("the dummy vertex has no successor cycle")
    cycles.sort(key=lambda c: c.seq[0])
    path = GWalk("path", path_seq)
    remainder = GFactor(tuple(cycles))
    if set(path.seq) | remainder.vertex_set() != set(d.vertices()):
        raise CertificateError("the path and cycles do not cover every vertex")
    return path, remainder
