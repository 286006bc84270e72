"""Constructive existence results: short good walks, longest generalized
paths, vertex absorption into cycles, and factor growth."""

from itertools import combinations
from typing import List, Optional, Tuple

from .digraph import PartitionedDigraph, contract_partite, induce, is_strong, strong_components
from .errors import CertificateError, NotSemicomplete, NotStrong
from .factor import max_arc_gcycle_factor, max_arc_path_cycle_subdigraph
from .merging import _fold_path_cycle
from .walks import (
    GFactor,
    GWalk,
    _gain,
    canonical_cycle,
    insert_piece,
    is_good,
    is_spanning,
    validate_factor,
    walk_length,
)


def _require_semicomplete(s: PartitionedDigraph):
    for u, v in combinations(s.vertices(), 2):
        if (u, v) not in s.arcs and (v, u) not in s.arcs:
            raise NotSemicomplete(f"pair ({u},{v}) is non-adjacent")


def tournament_ham_path(s: PartitionedDigraph) -> GWalk:
    """Spanning real path of a semicomplete digraph, by insertion."""
    _require_semicomplete(s)
    seq: List[int] = [1]
    for v in range(2, s.n + 1):
        if (v, seq[0]) in s.arcs:
            seq.insert(0, v)
            continue
        placed = False
        for i in range(len(seq) - 1):
            if (seq[i], v) in s.arcs and (v, seq[i + 1]) in s.arcs:
                seq.insert(i + 1, v)
                placed = True
                break
        if not placed:
            seq.append(v)
    walk = GWalk("path", tuple(seq))
    if not all((u, w) in s.arcs for u, w in walk.pairs()):
        raise CertificateError("the inserted path uses a non-arc")
    return walk


def _first_three_cycle(s: PartitionedDigraph) -> Optional[Tuple[int, int, int]]:
    for a in s.vertices():
        for b in sorted(s.out(a)):
            for c in sorted(s.out(b)):
                if c != a and (c, a) in s.arcs:
                    return a, b, c
    return None


def tournament_ham_cycle(s: PartitionedDigraph) -> GWalk:
    """Spanning real cycle of a strong semicomplete digraph.

    Grows a short cycle by single-vertex insertion; when no outside vertex
    is insertable the outside splits into a dominating side and a dominated
    side, and strongness supplies an arc between them that lets two vertices
    enter at once.
    """
    _require_semicomplete(s)
    if not is_strong(s):
        raise NotStrong("Hamiltonian cycle needs a strong semicomplete digraph")
    if s.n == 1:
        raise NotStrong("a cycle needs at least two vertices")
    if s.n == 2:
        return canonical_cycle(GWalk("cycle", (1, 2)))
    tri = _first_three_cycle(s)
    if tri is None:
        # strong semicomplete digraphs on >= 3 vertices contain a 3-cycle
        raise CertificateError("no 3-cycle found in a strong semicomplete digraph")
    seq = list(tri)
    while len(seq) < s.n:
        outside = [v for v in s.vertices() if v not in seq]
        inserted = False
        for v in outside:
            pos = None
            for i in range(len(seq)):
                a, b = seq[i], seq[(i + 1) % len(seq)]
                if (a, v) in s.arcs and (v, b) in s.arcs:
                    pos = i
                    break
            if pos is not None:
                seq.insert(pos + 1, v)
                inserted = True
                break
        if inserted:
            continue
        dominated = [v for v in outside if all((c, v) in s.arcs for c in seq)]
        pair = None
        for w in dominated:
            for z in sorted(s.out(w)):
                if z in outside and z not in dominated:
                    pair = (w, z)
                    break
            if pair:
                break
        if pair is None:
            raise CertificateError("strongness guarantees an escape arc")
        w, z = pair
        # every cycle vertex dominates w; z dominates every cycle vertex
        seq[1:1] = [w, z]
    walk = canonical_cycle(GWalk("cycle", tuple(seq)))
    if not all((u, v) in s.arcs for u, v in walk.pairs()):
        raise CertificateError("the grown cycle uses a non-arc")
    return walk


def _decode_contracted_arcs(d: PartitionedDigraph, set_order: List[int], closed: bool):
    """Pick one base arc per contracted step and lay out the walk.

    Each partite set contributes the head of its incoming chosen arc and the
    tail of its outgoing one; when those differ they form a jump pair.
    """
    k = len(set_order)
    chosen = []
    steps = k if closed else k - 1
    for idx in range(steps):
        i = set_order[idx]
        j = set_order[(idx + 1) % k]
        arc = min(
            (u, v) for (u, v) in d.arcs if d.part(u) == i and d.part(v) == j
        )
        chosen.append(arc)
    seq: List[int] = []
    for idx in range(k):
        incoming = chosen[idx - 1][1] if (closed or idx > 0) else None
        outgoing = chosen[idx][0] if (closed or idx < k - 1) else None
        if incoming is None:
            seq.append(outgoing)
        elif outgoing is None or incoming == outgoing:
            seq.append(incoming)
        else:
            seq.extend([incoming, outgoing])
    return seq


def good_gcycle_length_c(d: PartitionedDigraph) -> GWalk:
    """Good generalized cycle with exactly c arcs, one partite set per step."""
    d.require_smd()
    if not is_strong(d):
        raise NotStrong("needs a strong instance")
    if d.c == 1:
        raise NotStrong("a single partite set is never strong")
    dc = contract_partite(d)
    ham = tournament_ham_cycle(dc)
    seq = _decode_contracted_arcs(d, list(ham.seq), closed=True)
    walk = canonical_cycle(GWalk("cycle", tuple(seq)))
    if walk_length(d, walk) != d.c or not is_good(d, walk):
        raise CertificateError(f"the decoded cycle is not a good cycle with {d.c} arcs")
    return walk


def good_gpath_length_c_minus_1(d: PartitionedDigraph) -> GWalk:
    """Good generalized path with exactly c-1 arcs."""
    d.require_smd()
    if d.c == 1:
        return GWalk("path", (1,))
    dc = contract_partite(d)
    ham = tournament_ham_path(dc)
    seq = _decode_contracted_arcs(d, list(ham.seq), closed=False)
    walk = GWalk("path", tuple(seq))
    if walk_length(d, walk) != d.c - 1 or not is_good(d, walk):
        raise CertificateError(f"the decoded path is not a good path with {d.c - 1} arcs")
    return walk


def merge_path_cycle(d: PartitionedDigraph, p: GWalk, c: GWalk) -> GWalk:
    """Fold a disjoint cycle into a path without losing arcs.

    Scores the finitely many splice shapes the existence argument uses, in
    O(1) each, and certifies the first that keeps every arc of the two
    walks; when none does, it raises `CertificateError`.
    """
    if p.kind != "path" or c.kind != "cycle":
        raise ValueError("merge_path_cycle takes a path and a cycle")
    if set(p.seq) & set(c.seq):
        raise ValueError("walks must be vertex-disjoint")
    target = walk_length(d, p) + walk_length(d, c)
    cand = _fold_path_cycle(d, p.seq, c.seq, target)
    if cand is None:
        raise CertificateError(f"no splice shape keeps the {target} arcs of both walks")
    out = GWalk("path", cand)
    got = walk_length(d, out)
    if got < target:
        raise CertificateError(f"the folded path has {got} arcs, below {target}")
    return out


def longest_gpath(d: PartitionedDigraph) -> GWalk:
    """Spanning generalized path attaining the maximum arc count.

    Builds the maximum-arc spanning path-plus-cycles cover, then folds each
    cycle into the path; the fold never loses arcs, and the cover total is an
    upper bound for every generalized path, so the result is certified.
    """
    d.require_smd()
    path, remainder = max_arc_path_cycle_subdigraph(d)
    seq, total = path.seq, walk_length(d, path)
    for cyc in remainder.cycles:   # in order of their first vertex
        total += walk_length(d, cyc)
        seq = _fold_path_cycle(d, seq, cyc.seq, total)
        if seq is None:
            raise CertificateError(f"no splice shape keeps the {total} arcs of both walks")
    path = GWalk("path", seq)
    got = walk_length(d, path)
    if got != total or not is_spanning(d, path):
        raise CertificateError(f"the folded path is not spanning with {total} arcs")
    return path


def _insert_vertex_no_loss(d: PartitionedDigraph, c: GWalk, v: int) -> Optional[GWalk]:
    """Insert v into the cycle without dropping below its arc count."""
    seq = c.seq
    n = len(seq)
    arcs, part = d.arcs, d.part_vector
    for i in range(n):
        a, b = seq[i], seq[(i + 1) % n]
        if _gain(arcs, part, a, v) + _gain(arcs, part, v, b) - _gain(arcs, part, a, b) >= 0:
            return insert_piece(c, i, (v,))
    return None


def _bfs_path(neighbours, source: int, is_target) -> Optional[List[int]]:
    """The first path [source, ..., u, t] in breadth-first order whose last
    step u -> t hits a target t, or None; neighbours(u) gives the scan order
    and the source itself may be a target."""
    parent = {source: None}
    frontier = [source]
    while frontier:
        nxt = []
        for u in frontier:
            for w in neighbours(u):
                if is_target(w):
                    path = [w]
                    while u is not None:
                        path.append(u)
                        u = parent[u]
                    return path[::-1]
                if w not in parent:
                    parent[w] = u
                    nxt.append(w)
        frontier = nxt
    return None


def _attach_by_path(d: PartitionedDigraph, c: GWalk, v: int) -> Optional[GWalk]:
    """Absorb v (and the connecting interior) via a shortest path to or from
    the cycle, used when v sees the cycle in one direction only."""
    cset = set(c.seq)
    outs = any((v, x) in d.arcs for x in cset)
    ins = any((x, v) in d.arcs for x in cset)
    if outs and ins:
        return None
    # without outs: a path from v into the cycle, put before its entry point;
    # otherwise, searching backwards, a path from the cycle out to v, put
    # after its exit point
    into = not outs
    path = _bfs_path(d.out if into else d.inn, v, cset.__contains__)
    if path is None:
        return None
    k = c.seq.index(path[-1]) + (0 if into else 1)
    chain = path[:-1] if into else path[-2::-1]
    return GWalk("cycle", c.seq[k:] + c.seq[:k] + tuple(chain))


def absorb_to_spanning(d: PartitionedDigraph, c: GWalk) -> GWalk:
    """Grow a cycle to a spanning one without decreasing its arc count."""
    d.require_smd()
    if not is_strong(d):
        raise NotStrong("absorption needs a strong instance")
    current = c
    length = walk_length(d, current)
    while not is_spanning(d, current):
        missing = sorted(set(d.vertices()) - set(current.seq))
        progressed = False
        for v in missing:
            grown = _insert_vertex_no_loss(d, current, v)
            if grown is None:
                grown = _attach_by_path(d, current, v)
            if grown is not None:
                new_length = walk_length(d, grown)
                if new_length < length or len(grown.seq) <= len(current.seq):
                    raise CertificateError("an absorption step lost an arc or no vertex")
                current, length = grown, new_length
                progressed = True
                break
        if not progressed:
            raise CertificateError("a strong instance always admits an absorption step")
    return canonical_cycle(current)


def _trivial_cycles_of(d: PartitionedDigraph, uncovered) -> List[GWalk]:
    by_part = {}
    for v in sorted(uncovered):
        by_part.setdefault(d.part(v), []).append(v)
    return [
        GWalk("cycle", tuple(group)) for group in by_part.values() if len(group) >= 2
    ]


def _real_cycle_among(d: PartitionedDigraph, uncovered) -> Optional[GWalk]:
    sub, old = induce(d, uncovered)
    for comp in strong_components(sub):
        if len(comp) < 2:
            continue
        start = comp[0]
        allowed = set(comp)
        path = _bfs_path(lambda u: [w for w in sub.out(u) if w in allowed], start,
                         lambda w: w == start)
        if path is not None:
            return canonical_cycle(GWalk("cycle", tuple(old[x - 1] for x in path[:-1])))
    return None


def grow_factor(d: PartitionedDigraph, f0: GFactor) -> GFactor:
    """Extend disjoint cycles to a spanning factor with at least as many arcs."""
    d.require_smd()
    if not is_strong(d):
        raise NotStrong("factor growth needs a strong instance")
    if not f0.cycles:
        return max_arc_gcycle_factor(d)
    validate_factor(d, f0, spanning=False)
    cycles = [canonical_cycle(c) for c in f0.cycles]
    base_arcs = f0.arc_count(d)
    while True:
        covered = {v for c in cycles for v in c.seq}
        uncovered = sorted(set(d.vertices()) - covered)
        if not uncovered:
            out = GFactor(tuple(sorted((canonical_cycle(c) for c in cycles),
                                       key=lambda c: c.seq[0])))
            break
        progressed = False
        for v in uncovered:
            for i, c in enumerate(cycles):
                grown = _insert_vertex_no_loss(d, c, v)
                if grown is not None:
                    if walk_length(d, grown) < walk_length(d, c):
                        raise CertificateError(f"inserting vertex {v} lost an arc")
                    cycles[i] = grown
                    progressed = True
                    break
            if progressed:
                break
        if progressed:
            continue
        new_real = _real_cycle_among(d, uncovered)
        if new_real is not None:
            cycles.append(new_real)
            continue
        trivials = _trivial_cycles_of(d, uncovered)
        if trivials:
            cycles.extend(trivials)
            continue
        # growth can stall on a strong instance: nothing inserts, and the rest
        # holds no real cycle and no two vertices of one partite set
        out = max_arc_gcycle_factor(d)
        break
    validate_factor(d, out)
    if out.arc_count(d) < base_arcs:
        raise CertificateError(f"the factor has fewer arcs than the seed's {base_arcs}")
    return out
