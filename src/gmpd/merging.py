"""Certified cycle-merge search shared by the extended-digraph and
irreducible-factor engines.

Candidates are splice shapes: the two cycles interleaved as one segment each
(two junctions) or two segments each (four junctions).  The first candidate
legal with at least the floor's arcs (``walks.first_fit``) is certified by
the walk validator.  When no shape fits, a no-loss merge (floor at least the
union's size) needs a Hamiltonian cycle of the induced union: a union that is
not strong has none at any size, and a strong one small enough is settled by
the exact Hamiltonian search.  A merge that may lose arcs falls back to the
exact longest-cycle search on small unions."""

from typing import Iterator, Optional

from .digraph import PartitionedDigraph, induce, is_strong
from .errors import CertificateError, HypothesisUnmet, TooLarge
from .walks import GWalk, canonical_cycle, first_fit, insert_by_partners, open_cycle, walk_length

DP_FALLBACK_CAP = 18


def _interleave_two(a: tuple, b: tuple) -> Iterator[tuple]:
    for i in range(len(a)):
        ra = a[i:] + a[:i]
        for j in range(len(b)):
            yield ra + b[j:] + b[:j]


def _interleave_four(a: tuple, b: tuple) -> Iterator[tuple]:
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


def certified_merge_cycles(
    d: PartitionedDigraph, c1: GWalk, c2: GWalk, floor: int
) -> Optional[GWalk]:
    """A cycle on the union of the two disjoint cycles with at least `floor`
    arcs, or None when provably none exists (exact for small unions)."""
    if set(c1.seq) & set(c2.seq):
        raise ValueError("cycles must be vertex-disjoint")
    best = first_fit(d, _interleave_two(c1.seq, c2.seq), floor, closed=True)
    if best is None:
        for host, piece_cycle in ((c1, c2), (c2, c1)):
            for i in range(len(piece_cycle.seq)):
                piece = open_cycle(piece_cycle, i)
                try:
                    merged = insert_by_partners(d, piece, host)
                except HypothesisUnmet:
                    continue
                if walk_length(d, merged) >= floor:
                    best = merged.seq
                    break
            if best is not None:
                break
    if best is None:
        best = first_fit(d, _interleave_four(c1.seq, c2.seq), floor, closed=True)
    if best is None:
        return _dp_merge(d, set(c1.seq) | set(c2.seq), floor)
    return _certified(d, best, floor)


def _certified(d: PartitionedDigraph, seq: tuple, floor: int) -> GWalk:
    walk = canonical_cycle(GWalk("cycle", seq))
    length = walk_length(d, walk)
    if length < floor:
        raise CertificateError(f"merged cycle has {length} arcs, below the floor {floor}")
    return walk


def _dp_merge(d: PartitionedDigraph, vertices, floor: int) -> Optional[GWalk]:
    from .search import exact_ham_cycle, oracle_longest_spanning_gcycle

    n = len(vertices)
    sub, old = induce(d, vertices)
    no_loss = floor >= n
    # a cycle through all n vertices has at most n arcs, all of them real only
    # on a Hamiltonian cycle of the induced union, which must then be strong
    if no_loss and (floor > n or not is_strong(sub)):
        return None
    if n > DP_FALLBACK_CAP:
        raise TooLarge(n, DP_FALLBACK_CAP)
    if no_loss:
        found = exact_ham_cycle(sub, threshold=DP_FALLBACK_CAP)
    else:
        res = oracle_longest_spanning_gcycle(sub, threshold=DP_FALLBACK_CAP)
        found = res[1] if res is not None and res[0] >= floor else None
    if found is None:
        return None
    return _certified(d, tuple(old[v - 1] for v in found.seq), floor)


def certified_multi_merge(
    d: PartitionedDigraph, cycles, floor: int
) -> Optional[GWalk]:
    """Spanning cycle over the union of several disjoint cycles with at least
    `floor` arcs, found by exact subset search on the union."""
    vertices = set()
    for c in cycles:
        vertices |= set(c.seq)
    return _dp_merge(d, vertices, floor)
