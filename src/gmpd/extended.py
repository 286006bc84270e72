"""Cycle merging and maximum-arc spanning cycles in extended semicomplete
digraphs, where same-partite vertices share all in- and out-neighbours.

In such a digraph two disjoint cycles that meet a common partite set, or
that have arcs both ways between them, always merge without losing an arc
by a splice with two junctions, so every merge here is `merging`'s certified
scan at the floor of their summed arcs.  The spanning-cycle route validates
its instance once and its merges validate nothing again."""

from itertools import combinations, permutations
from typing import Optional

from .construct import tournament_ham_cycle
from .digraph import PartitionedDigraph, ValidationReport, validate
from .errors import CertificateError, NoSharedPartite, NotExtended, OneDirectional
from .factor import max_arc_gcycle_factor
from .merging import _merge_legal
from .walks import GFactor, GWalk, arc_count, canonical_cycle, validate_walk, walk_length


def require_extended(d: PartitionedDigraph) -> ValidationReport:
    report = validate(d)
    if not (report.is_smd and report.is_extended):
        raise NotExtended(f"instance is not an extended semicomplete digraph: {report}")
    return report


def _shares_part(d: PartitionedDigraph, a: GWalk, b: GWalk) -> bool:
    return not {d.part(u) for u in a.seq}.isdisjoint({d.part(v) for v in b.seq})


def _both_ways(d: PartitionedDigraph, a: GWalk, b: GWalk) -> bool:
    """Whether some arc leads from a into b and some arc from b into a."""
    mask = sum(1 << (v - 1) for v in b.seq)
    return (any(d.out_masks[u - 1] & mask for u in a.seq)
            and any(d.in_masks[u - 1] & mask for u in a.seq))


def _linked(d: PartitionedDigraph, a: GWalk, b: GWalk) -> bool:
    return _shares_part(d, a, b) or _both_ways(d, a, b)


def _merge(d: PartitionedDigraph, c1: GWalk, c2: GWalk) -> GWalk:
    """The no-loss merge of two disjoint legal cycles of an extended instance
    that share a partite set or are linked both ways."""
    floor = arc_count(d, c1.seq, True) + arc_count(d, c2.seq, True)
    found = _merge_legal(d, (c1, c2), floor)
    if found is None:
        raise CertificateError(f"the linked cycles have no merge keeping {floor} arcs")
    return found[0]


def _checked_pair(d: PartitionedDigraph, c1: GWalk, c2: GWalk):
    require_extended(d)
    validate_walk(d, c1)
    validate_walk(d, c2)
    if set(c1.seq) & set(c2.seq):
        raise ValueError("cycles must be vertex-disjoint")


def merge_same_partite(d: PartitionedDigraph, c1: GWalk, c2: GWalk) -> GWalk:
    """Merge two disjoint cycles that meet a common partite set; the result
    keeps at least the sum of their arc counts."""
    _checked_pair(d, c1, c2)
    if not _shares_part(d, c1, c2):
        raise NoSharedPartite("cycles meet no common partite set")
    return _merge(d, c1, c2)


def merge_bidirectional(d: PartitionedDigraph, c1: GWalk, c2: GWalk) -> GWalk:
    """Merge two disjoint cycles linked by arcs in both directions without
    losing arcs."""
    _checked_pair(d, c1, c2)
    if not _both_ways(d, c1, c2):
        raise OneDirectional("need arcs in both directions between the cycles")
    return _merge(d, c1, c2)


def spanning_gcycle_extsd(d: PartitionedDigraph) -> Optional[GWalk]:
    """Spanning cycle with the maximum arc count, or None when none exists.

    Merges a maximum-arc factor until the remaining cycles relate one way
    only, orders them along a Hamiltonian cycle of the contracted tournament,
    and concatenates; the result is certified equal to the factor maximum.
    """
    if d.n < 2 or not require_extended(d).is_strong:
        return None
    return _spanning_gcycle_extsd(d, max_arc_gcycle_factor(d))


def _spanning_gcycle_extsd(d: PartitionedDigraph, factor: GFactor) -> GWalk:
    """spanning_gcycle_extsd for a strong instance with n >= 2, already
    validated as extended, from its maximum-arc factor."""
    cf = factor.arc_count(d)
    cycles = list(factor.cycles)
    while len(cycles) > 1:
        pair = next(((i, j) for i, j in combinations(range(len(cycles)), 2)
                     if _linked(d, cycles[i], cycles[j])), None)
        if pair is None:
            break
        i, j = pair
        cycles[i] = _merge(d, cycles[i], cycles[j])
        del cycles[j]
    if len(cycles) > 1:
        # no two cycles left share a partite set or are linked both ways: they
        # contract to a tournament, whose Hamiltonian cycle orders them
        masks = [sum(1 << (v - 1) for v in c.seq) for c in cycles]
        arcs = [(i + 1, j + 1) for i, j in permutations(range(len(cycles)), 2)
                if any(d.out_masks[u - 1] & masks[j] for u in cycles[i].seq)]
        order = tournament_ham_cycle(PartitionedDigraph(list(range(1, len(cycles) + 1)), arcs))
        cycles = [GWalk("cycle", tuple(v for i in order.seq for v in cycles[i - 1].seq))]
    result = canonical_cycle(cycles[0])
    got = walk_length(d, result)
    if got != cf or len(result.seq) != d.n:
        raise CertificateError(f"the spanning cycle has {got} arcs, not the factor's {cf}")
    return result
