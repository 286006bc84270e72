"""Cycle merging and maximum-arc spanning cycles in extended semicomplete
digraphs, where same-partite vertices share all in- and out-neighbours."""

from typing import List, Optional, Tuple

from .digraph import PartitionedDigraph, is_strong, validate
from .errors import CertificateError, NoSharedPartite, NotExtended, OneDirectional
from .factor import max_arc_gcycle_factor
from .merging import certified_merge_cycles
from .walks import GWalk, canonical_cycle, validate_walk, walk_length


def require_extended(d: PartitionedDigraph):
    report = validate(d)
    if not (report.is_smd and report.is_extended):
        raise NotExtended(f"instance is not an extended semicomplete digraph: {report}")


def _rotate_to(seq: tuple, idx: int) -> tuple:
    return seq[idx:] + seq[:idx]


def merge_same_partite(d: PartitionedDigraph, c1: GWalk, c2: GWalk) -> GWalk:
    """Merge two disjoint cycles that meet a common partite set; the result
    keeps exactly the sum of their arc counts."""
    require_extended(d)
    validate_walk(d, c1)
    validate_walk(d, c2)
    if set(c1.seq) & set(c2.seq):
        raise ValueError("cycles must be vertex-disjoint")
    shared = sorted(
        {d.part(u) for u in c1.seq} & {d.part(v) for v in c2.seq}
    )
    if not shared:
        raise NoSharedPartite("cycles meet no common partite set")
    target = walk_length(d, c1) + walk_length(d, c2)
    # a cycle without arcs sits inside one partite set: splice it next to any
    # vertex of that set on the other cycle
    for trivial, other in ((c1, c2), (c2, c1)):
        if walk_length(d, trivial) == 0:
            v_part = d.part(trivial.seq[0])
            k = next(i for i, v in enumerate(other.seq) if d.part(v) == v_part)
            merged = GWalk("cycle", other.seq[: k + 1] + trivial.seq + other.seq[k + 1:])
            break
    else:
        part = shared[0]
        r = next(
            i
            for i, v in enumerate(c1.seq)
            if d.part(v) == part and (c1.seq[i - 1], v) in d.arcs
        )
        s = next(
            j
            for j, v in enumerate(c2.seq)
            if d.part(v) == part and (c2.seq[j - 1], v) in d.arcs
        )
        # swap entry points of the two similar vertices
        merged = GWalk("cycle", _rotate_to(c1.seq, r) + _rotate_to(c2.seq, s))
    if walk_length(d, merged) != target:
        raise CertificateError(f"the same-partite merge does not keep {target} arcs")
    return canonical_cycle(merged)


def merge_bidirectional(d: PartitionedDigraph, c1: GWalk, c2: GWalk) -> GWalk:
    """Merge two disjoint cycles linked by arcs in both directions without
    losing arcs."""
    require_extended(d)
    validate_walk(d, c1)
    validate_walk(d, c2)
    if set(c1.seq) & set(c2.seq):
        raise ValueError("cycles must be vertex-disjoint")
    fwd = any((u, v) in d.arcs for u in c1.seq for v in c2.seq)
    bwd = any((v, u) in d.arcs for u in c1.seq for v in c2.seq)
    if not (fwd and bwd):
        raise OneDirectional("need arcs in both directions between the cycles")
    shared = {d.part(u) for u in c1.seq} & {d.part(v) for v in c2.seq}
    if shared:
        return merge_same_partite(d, c1, c2)
    target = walk_length(d, c1) + walk_length(d, c2)

    def dominating_splice(a: GWalk, b: GWalk) -> Optional[GWalk]:
        p = len(a.seq)
        for i, u in enumerate(a.seq):
            if not all((u, v) in d.arcs for v in b.seq):
                continue
            nxt = a.seq[(i + 1) % p]
            for j, v in enumerate(b.seq):
                if (v, nxt) in d.arcs:
                    seq = (u,) + _rotate_to(b.seq, (j + 1) % len(b.seq)) + _rotate_to(
                        a.seq, (i + 1) % p
                    )[:-1]
                    return GWalk("cycle", seq)
        return None

    for a, b in ((c1, c2), (c2, c1)):
        merged = dominating_splice(a, b)
        if merged is not None:
            if walk_length(d, merged) < target:
                raise CertificateError(f"the dominating splice keeps fewer than {target} arcs")
            return canonical_cycle(merged)
    # both directions everywhere: every vertex of one cycle has a partner on
    # the other, so partner insertion (or a wider splice search) applies
    merged = certified_merge_cycles(d, c1, c2, target)
    if merged is None:
        raise CertificateError("bidirectionally linked cycles always merge")
    return merged


def _all_pairs_one_directional(d, cycles: List[GWalk]) -> bool:
    for i in range(len(cycles)):
        for j in range(i + 1, len(cycles)):
            a, b = cycles[i], cycles[j]
            fwd = any((u, v) in d.arcs for u in a.seq for v in b.seq)
            bwd = any((v, u) in d.arcs for u in a.seq for v in b.seq)
            if fwd and bwd:
                return False
            if {d.part(u) for u in a.seq} & {d.part(v) for v in b.seq}:
                return False
    return True


def spanning_gcycle_extsd(d: PartitionedDigraph) -> Optional[GWalk]:
    """Spanning cycle with the maximum arc count, or None when none exists.

    Merges a maximum-arc factor until the remaining cycles relate one way
    only, orders them along a Hamiltonian cycle of the contracted tournament,
    and concatenates; the result is certified equal to the factor maximum.
    """
    require_extended(d)
    if d.n < 2 or not is_strong(d):
        return None
    factor = max_arc_gcycle_factor(d)
    cf = factor.arc_count(d)
    cycles = list(factor.cycles)
    merged_any = True
    while merged_any and len(cycles) > 1:
        merged_any = False
        for i in range(len(cycles)):
            for j in range(i + 1, len(cycles)):
                a, b = cycles[i], cycles[j]
                try:
                    m = merge_same_partite(d, a, b)
                except NoSharedPartite:
                    try:
                        m = merge_bidirectional(d, a, b)
                    except OneDirectional:
                        continue
                cycles[i] = m
                del cycles[j]
                merged_any = True
                break
            if merged_any:
                break
    if len(cycles) == 1:
        result = canonical_cycle(cycles[0])
    else:
        if not _all_pairs_one_directional(d, cycles):
            raise CertificateError("the unmerged cycles are not pairwise one-directional")
        k = len(cycles)
        arcs = set()
        for i in range(k):
            for j in range(k):
                if i != j and any(
                    (u, v) in d.arcs for u in cycles[i].seq for v in cycles[j].seq
                ):
                    arcs.add((i + 1, j + 1))
        tour = PartitionedDigraph(list(range(1, k + 1)), arcs)
        from .construct import tournament_ham_cycle

        order = tournament_ham_cycle(tour)
        seq: Tuple[int, ...] = ()
        for idx in order.seq:
            seq = seq + cycles[idx - 1].seq
        result = canonical_cycle(GWalk("cycle", seq))
    got = walk_length(d, result)
    if got != cf or len(result.seq) != d.n:
        raise CertificateError(f"the spanning cycle has {got} arcs, not the factor's {cf}")
    return result
