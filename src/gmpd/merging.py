"""Certified cycle-merge search shared by the extended-digraph and
irreducible-factor engines, and the scored fold of a cycle into a path
behind `construct.merge_path_cycle`.  `_merge_legal` merges any number of
disjoint cycles already known to be legal; `certified_merge_cycles`
validates two cycles first.  Three or more go to the exact search on their
union.  For two, a no-loss merge (floor at least the union's size) is a
Hamiltonian cycle of real arcs on the strong induced union, so a larger
floor or a union that is not strong is answered "no" before any scan.
Otherwise candidates are splice shapes: the cycles interleaved as one
segment each (two junctions) or two each (four junctions), each scored in
O(1) from the cycles' arc counts and the gains of the cut pairs and the
junctions; the first with at least the floor's arcs is built and certified.
When no shape fits, the exact search settles small unions; a strong no-loss
union past its cap whose cycles are both within it is searched block by
block: one Hamiltonian path of each cycle's vertices, joined by two arcs.
An extended instance's merges keep the two cycles' summed arcs, which a
two-junction splice always reaches."""

from typing import Optional, Tuple

from .digraph import PartitionedDigraph, induce, is_strong_within
from .errors import CertificateError, HypothesisUnmet, TooLarge
from .walks import (GWalk, _cut_gains, _gain, canonical_cycle, insert_by_partners, open_cycle,
                    validate_walk, walk_length)

DP_FALLBACK_CAP = 18


def _interleave_two(d: PartitionedDigraph, a: tuple, b: tuple, floor: int) -> Optional[tuple]:
    """The first candidate a[i:] + a[:i] + b[j:] + b[:j], in (i, j) order,
    that is legal with at least `floor` arcs, or None.  It cuts the pairs
    entering a[i] and b[j] and adds the junctions (a[i-1], b[j]) and
    (b[j-1], a[i])."""
    arcs, part = d.arcs, d.part_vector
    ga, gb = _cut_gains(arcs, a), _cut_gains(arcs, b)
    total = sum(ga) + sum(gb)
    for i in range(len(a)):
        u, x = a[i - 1], a[i]
        kept = total - ga[i]
        for j in range(len(b)):
            if kept - gb[j] + _gain(arcs, part, u, b[j]) + _gain(arcs, part, b[j - 1], x) >= floor:
                return a[i:] + a[:i] + b[j:] + b[:j]
    return None


def _fold_path_cycle(d: PartitionedDigraph, p: tuple, c: tuple, floor: int) -> Optional[tuple]:
    """The first fold of the cycle c into the path p that is legal with at
    least `floor` arcs, or None.  With c opened as c[i:] + c[:i], i inner,
    the shapes run in this order: opened c before p, after p, then in front
    of p[a] for a = 1, ..., len(p) - 1; then c[j+1] moved in front of p[i]
    and the rest of c after p[i], i outer.  Each candidate is scored in O(1)
    from the pairs it cuts (gp[k] enters p[k]; gp[0] is no path pair) and
    the junctions it adds."""
    arcs, part = d.arcs, d.part_vector
    s, t = len(p), len(c)
    gp, gc = _cut_gains(arcs, p), _cut_gains(arcs, c)
    total = sum(gp) - gp[0] + sum(gc)
    for a in [0, s, *range(1, s)]:
        kept = total - (gp[a] if 0 < a < s else 0)
        for i in range(t):
            if (kept - gc[i] + (_gain(arcs, part, p[a - 1], c[i]) if a else 0)
                    + (_gain(arcs, part, c[i - 1], p[a]) if a < s else 0)) >= floor:
                return p[:a] + c[i:] + c[:i] + p[a:]
    for i in range(1, s):
        u, x = p[i - 1], p[i]
        kept = total - gp[i] - (gp[i + 1] if i + 1 < s else 0)
        for j in range(t):
            m, k = (j + 1) % t, (j + 2) % t   # c[m] goes in front of x, c[k] ... c[j] after it
            if (kept - gc[m] - gc[k] + _gain(arcs, part, u, c[m]) + _gain(arcs, part, c[m], x)
                    + _gain(arcs, part, x, c[k])
                    + (_gain(arcs, part, c[j], p[i + 1]) if i + 1 < s else 0)) >= floor:
                return p[:i] + (c[m], x) + (c[k:] + c[:k])[:-1] + p[i + 1:]
    return None


def _interleave_four(d: PartitionedDigraph, a: tuple, b: tuple, floor: int) -> Optional[tuple]:
    """The first candidate a1 + b1 + a2 + b2 or a1 + b2 + a2 + b1, in
    (i1, i2, j1, j2) order with i1 < i2 and j1 < j2, that is legal with at
    least `floor` arcs, or None.  Here a1 = a[i1:i2], a2 = a[i2:] + a[:i1],
    b1 = b[j1:j2] and b2 = b[j2:] + b[:j1]; the cuts are the pairs entering
    a[i1], a[i2], b[j1] and b[j2]."""
    arcs, part = d.arcs, d.part_vector
    p, q = len(a), len(b)
    ga, gb = _cut_gains(arcs, a), _cut_gains(arcs, b)
    total = sum(ga) + sum(gb)
    # out_of[x][y] is the gain of the junction (a[x], b[y]), into[x][y] that of (b[y], a[x])
    out_of = [[_gain(arcs, part, u, v) for v in b] for u in a]
    into = [[_gain(arcs, part, v, u) for v in b] for u in a]
    for i1 in range(p):
        from1, to1 = out_of[i1 - 1], into[i1]
        for i2 in range(i1 + 1, p):
            from2, to2 = out_of[i2 - 1], into[i2]
            kept_a = total - ga[i1] - ga[i2]
            for j1 in range(q):
                kept_ab = kept_a - gb[j1]
                for j2 in range(j1 + 1, q):
                    kept = kept_ab - gb[j2]
                    if kept + from2[j1] + to2[j2 - 1] + from1[j2] + to1[j1 - 1] >= floor:
                        return a[i1:i2] + b[j1:j2] + a[i2:] + a[:i1] + b[j2:] + b[:j1]
                    if kept + from2[j2] + to2[j1 - 1] + from1[j1] + to1[j2 - 1] >= floor:
                        return a[i1:i2] + b[j2:] + b[:j1] + a[i2:] + a[:i1] + b[j1:j2]
    return None


def _no_loss_impossible(d: PartitionedDigraph, vertices, floor: int) -> bool:
    """A cycle through all n vertices of the union U has at most n arcs, all
    of them real only on a Hamiltonian cycle of D[U], which must then be
    strong: a floor above n, or a floor of n on a union that is not strong,
    admits no merge."""
    n = len(vertices)
    return floor >= n and (
        floor > n or not is_strong_within(d, sum(1 << (v - 1) for v in vertices)))


def _local(mask: int, verts) -> int:
    """The vertex bitmask `mask` restricted to `verts`, bit k for verts[k]."""
    return sum(1 << k for k, u in enumerate(verts) if mask >> (u - 1) & 1)


def _two_block(d: PartitionedDigraph, c1: tuple, c2: tuple) -> Optional[tuple]:
    """A Hamiltonian cycle of real arcs on the union made of one Hamiltonian
    path of each cycle's block, or None: for a closing arc (b, a), a path of
    D[V(A)] from a, an arc from its end to the start of a path of D[V(B)]
    that ends at b, with (A, B) = (c1, c2).  The other order finds nothing
    more: such a cycle's arc from A's block into B's closes it there.  Reach
    tables run one at a time, only from closing-arc ends: on A's in-masks
    from a, on B's out-masks (the reversed digraph) from b.  The winners'
    tables are recomputed to rebuild the two paths."""
    from .search import _reach_dp_fast, _reconstruct_path

    av, bv = sorted(c1), sorted(c2)
    p, q = len(av), len(bv)
    a_in = [_local(d.in_masks[v - 1], av) for v in av]
    b_out = [_local(d.out_masks[v - 1], bv) for v in bv]
    into_b = [_local(d.out_masks[v - 1], bv) for v in av]
    # ends[i]: the possible ends of a path of A from av[i], for av[i] entered from B
    ends = {i: int(_reach_dp_fast(p, a_in, i)[-1])
            for i, a in enumerate(av) if any((b, a) in d.arcs for b in bv)}
    # starts[j]: the possible starts of a path of B into bv[j], for bv[j] closing
    # onto an av[i] with an end
    starts = {j: int(_reach_dp_fast(q, b_out, j)[-1])
              for j, b in enumerate(bv) if any(ends[i] and (b, av[i]) in d.arcs for i in ends)}
    for i in ends:
        for j in starts:
            if (bv[j], av[i]) not in d.arcs:
                continue
            for x in range(p):
                ys = into_b[x] & starts[j]
                if ends[i] >> x & 1 and ys:
                    y = (ys & -ys).bit_length() - 1
                    pa = _reconstruct_path([_reach_dp_fast(p, a_in, i)], a_in, (1 << p) - 1, x)
                    pb = _reconstruct_path([_reach_dp_fast(q, b_out, j)], b_out, (1 << q) - 1, y)
                    return tuple(av[k] for k in pa) + tuple(bv[k] for k in reversed(pb))
    return None


def certified_merge_cycles(
    d: PartitionedDigraph, c1: GWalk, c2: GWalk, floor: int
) -> Optional[GWalk]:
    """A cycle on the union of the two disjoint cycles with at least `floor`
    arcs, or None when provably none exists (exact for small unions).

    Both cycles must be legal generalized cycles of the plain instance `d`:
    each is validated first, and an illegal one raises (``IllegalPair``,
    ``DuplicateVertex``, ``AugmentedInput``) whatever the floor."""
    if c1.kind != "cycle" or c2.kind != "cycle":
        raise ValueError("certified_merge_cycles merges two cycles")
    if set(c1.seq) & set(c2.seq):
        raise ValueError("cycles must be vertex-disjoint")
    validate_walk(d, c1)
    validate_walk(d, c2)
    found = _merge_legal(d, (c1, c2), floor)
    return None if found is None else found[0]


def _merge_legal(d: PartitionedDigraph, cycles, floor: int) -> Optional[Tuple[GWalk, int]]:
    """A cycle on the union of disjoint cycles already known to be legal with
    at least `floor` arcs, with its certified arc count, or None when
    provably none exists.  Two cycles take the no-loss reject and the splice
    ladder before the exact search; three or more go to the exact search on
    their union."""
    union = {v for c in cycles for v in c.seq}
    best = None
    if len(cycles) == 2:
        if _no_loss_impossible(d, union, floor):
            return None
        c1, c2 = cycles
        best = _interleave_two(d, c1.seq, c2.seq, floor)
        for host, piece_cycle in ((c1, c2), (c2, c1)):
            if best is not None:
                break
            for i in range(len(piece_cycle.seq)):
                try:
                    merged = insert_by_partners(d, open_cycle(piece_cycle, i), host)
                except HypothesisUnmet:
                    continue
                if walk_length(d, merged) >= floor:
                    best = merged.seq
                    break
        if best is None:
            best = _interleave_four(d, c1.seq, c2.seq, floor)
        if best is None and floor >= len(union) > DP_FALLBACK_CAP >= max(len(c1.seq), len(c2.seq)):
            best = _two_block(d, c1.seq, c2.seq)
    if best is None:
        merged = _dp_merge(d, union, floor)
        return None if merged is None else (merged, walk_length(d, merged))
    return _certified(d, best, floor)


def _certified(d: PartitionedDigraph, seq: tuple, floor: int) -> Tuple[GWalk, int]:
    walk = canonical_cycle(GWalk("cycle", seq))
    length = walk_length(d, walk)
    if length < floor:
        raise CertificateError(f"merged cycle has {length} arcs, below the floor {floor}")
    return walk, length


def _dp_merge(d: PartitionedDigraph, vertices, floor: int) -> Optional[GWalk]:
    from .search import _max_arc_walk, exact_ham_cycle

    if _no_loss_impossible(d, vertices, floor):
        return None
    n = len(vertices)
    if n > DP_FALLBACK_CAP:
        raise TooLarge(n, DP_FALLBACK_CAP)
    sub, old = induce(d, vertices)
    if floor >= n:
        found = exact_ham_cycle(sub, threshold=DP_FALLBACK_CAP)
    else:
        # at least `floor` arcs on n vertices is at most n - floor jumps
        sub.require_smd()
        res = _max_arc_walk(sub, [0], True, n - floor)
        found = None if res is None else res[1]
    if found is None:
        return None
    return _certified(d, tuple(old[v - 1] for v in found.seq), floor)[0]

