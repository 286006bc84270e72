"""Partitioned digraph model and structural predicates.

Vertices are dense integer ids 1..n.  Partite sets are derived from the
per-vertex partite index, never stored as separate lists.  Instances are
immutable after construction, but for the `validate` report, which is kept
on the instance once computed; all operations below are pure functions.
"""

from dataclasses import dataclass
from itertools import combinations
from typing import Iterable, Optional

from .errors import AugmentedInput, NotSemicomplete


def _vertices_of(mask: int) -> tuple:
    """Vertex ids (bit v-1 for vertex v) of a bitmask, ascending."""
    out = []
    while mask:
        low = mask & -mask
        out.append(low.bit_length())
        mask ^= low
    return tuple(out)


class PartitionedDigraph:
    """A digraph whose vertices carry partite indices.

    Construction accepts any loop-free arc set, including arcs inside a
    partite set; whether the instance is a valid semicomplete multipartite
    digraph is reported by :func:`validate`, not enforced here.
    """

    __slots__ = ("n", "c", "_part", "arcs", "augmented", "out_masks", "in_masks", "_report")

    def __init__(self, part: Iterable[int], arcs: Iterable[tuple], augmented: bool = False):
        part = tuple(part)
        if not part:
            raise ValueError("at least one vertex required")
        self.n = len(part)
        self.c = max(part)
        if min(part) < 1 or set(part) != set(range(1, self.c + 1)):
            raise ValueError("partite indices must cover 1..c with every index used")
        self._part = part
        # a frozenset of plain int pairs is immutable and is kept, not copied
        if not isinstance(arcs, frozenset):
            arcs = frozenset((int(u), int(v)) for u, v in arcs)
        plain = True
        out = [0] * self.n
        inn = [0] * self.n
        for u, v in arcs:
            if type(u) is not int or type(v) is not int:
                plain, u, v = False, int(u), int(v)
            if u == v:
                raise ValueError(f"loop at vertex {u}")
            if not (1 <= u <= self.n and 1 <= v <= self.n):
                raise ValueError(f"arc ({u},{v}) out of range")
            out[u - 1] |= 1 << (v - 1)
            inn[v - 1] |= 1 << (u - 1)
        if not plain:
            arcs = frozenset((int(u), int(v)) for u, v in arcs)
        self.arcs = arcs
        self.augmented = augmented
        # bit w-1 of out_masks[v-1] (in_masks[v-1]) is set for an arc (v,w) ((w,v))
        self.out_masks = tuple(out)
        self.in_masks = tuple(inn)
        self._report = None

    # -- basic accessors -------------------------------------------------

    def vertices(self):
        return range(1, self.n + 1)

    def part(self, v: int) -> int:
        return self._part[v - 1]

    @property
    def part_vector(self) -> tuple:
        return self._part

    def partite_set(self, i: int) -> frozenset:
        return frozenset(v for v in self.vertices() if self._part[v - 1] == i)

    def partite_sets(self):
        sets = [set() for _ in range(self.c)]
        for v in self.vertices():
            sets[self._part[v - 1] - 1].add(v)
        return [frozenset(s) for s in sets]

    def out(self, v: int) -> tuple:
        """Out-neighbours of v in ascending order."""
        return _vertices_of(self.out_masks[v - 1])

    def inn(self, v: int) -> tuple:
        """In-neighbours of v in ascending order."""
        return _vertices_of(self.in_masks[v - 1])

    def same_part(self, u: int, v: int) -> bool:
        return self._part[u - 1] == self._part[v - 1]

    def is_smd(self) -> bool:
        return validate(self).is_smd

    def require_smd(self):
        if self.augmented:
            raise AugmentedInput("operation requires a plain (non-augmented) instance")
        if not self.is_smd():
            raise NotSemicomplete("instance is not a semicomplete multipartite digraph")

    def __eq__(self, other):
        return (
            isinstance(other, PartitionedDigraph)
            and self._part == other._part
            and self.arcs == other.arcs
            and self.augmented == other.augmented
        )

    def __hash__(self):
        return hash((self._part, self.arcs, self.augmented))

    def __repr__(self):
        return f"PartitionedDigraph(n={self.n}, c={self.c}, m={len(self.arcs)})"


@dataclass(frozen=True)
class ValidationReport:
    is_smd: bool
    is_extended: bool
    is_strong: bool
    internal_arc: Optional[tuple] = None        # arc inside a partite set
    missing_pair: Optional[tuple] = None        # cross-partite pair with no arc
    extended_witness: Optional[tuple] = None    # partite-set index pair breaking extension


def validate(d: PartitionedDigraph) -> ValidationReport:
    """Classify an instance; violations are reported, never raised.  The
    report is computed once and kept on the instance."""
    if d._report is None:
        d._report = _classify(d)
    return d._report


def _classify(d: PartitionedDigraph) -> ValidationReport:
    """The report from the adjacency masks and one mask per partite set.

    Each witness is the first in the pairwise order: the lowest internal arc,
    the lowest cross-partite pair (u < v) with no arc, and the first pair of
    partite sets, in `combinations` order, that is neither one-way nor
    complete both ways."""
    full = (1 << d.n) - 1
    part_masks = [0] * d.c
    for v, p in enumerate(d._part):
        part_masks[p - 1] |= 1 << v
    own = [part_masks[p - 1] for p in d._part]
    internal = missing = None
    for u, (out, inn, same) in enumerate(zip(d.out_masks, d.in_masks, own)):
        hit = out & same
        if internal is None and hit:
            internal = (u + 1, (hit & -hit).bit_length())
        gap = full & ~(out | inn | same)
        if missing is None and gap:
            missing = (u + 1, (gap & -gap).bit_length())
    smd = internal is None and missing is None
    ext_witness = None
    if smd:
        any_out, any_in = [0] * d.c, [0] * d.c
        all_out, all_in = [full] * d.c, [full] * d.c
        for p, out, inn in zip(d._part, d.out_masks, d.in_masks):
            any_out[p - 1] |= out
            any_in[p - 1] |= inn
            all_out[p - 1] &= out
            all_in[p - 1] &= inn
        for i, j in combinations(range(d.c), 2):
            mj = part_masks[j]
            fwd, bwd = bool(any_out[i] & mj), bool(any_in[i] & mj)
            complete = all_out[i] & mj == mj and all_in[i] & mj == mj
            if fwd == bwd and not complete:
                ext_witness = (i + 1, j + 1)
                break
    return ValidationReport(smd, smd and ext_witness is None, is_strong(d),
                            internal, missing, ext_witness)


def strong_components(d: PartitionedDigraph) -> list:
    """Strongly connected components, listed in condensation topological order."""
    n = d.n
    order = []
    seen = [False] * (n + 1)
    for root in d.vertices():
        if seen[root]:
            continue
        stack = [(root, iter(sorted(d.out(root))))]
        seen[root] = True
        while stack:
            v, it = stack[-1]
            advanced = False
            for w in it:
                if not seen[w]:
                    seen[w] = True
                    stack.append((w, iter(sorted(d.out(w)))))
                    advanced = True
                    break
            if not advanced:
                order.append(v)
                stack.pop()
    comp = [0] * (n + 1)
    comp_count = 0
    assigned = [False] * (n + 1)
    components = []
    for root in reversed(order):
        if assigned[root]:
            continue
        comp_count += 1
        members = []
        stack = [root]
        assigned[root] = True
        while stack:
            v = stack.pop()
            members.append(v)
            comp[v] = comp_count
            for w in sorted(d.inn(v)):
                if not assigned[w]:
                    assigned[w] = True
                    stack.append(w)
        components.append(sorted(members))
    # Kosaraju emits components in reverse topological order of the
    # condensation when scanning the reversed graph; the loop above walks
    # finish times backwards, which yields topological order directly.
    return components


def _closure(masks, start: int, within: int = -1) -> int:
    """Bitmask of the vertices reachable from bit `start` along `masks`,
    stepping only onto vertices whose bit is set in `within`."""
    seen = frontier = 1 << start
    while frontier:
        step = 0
        while frontier:
            low = frontier & -frontier
            step |= masks[low.bit_length() - 1]
            frontier ^= low
        frontier = step & within & ~seen
        seen |= frontier
    return seen


def is_strong_within(d: PartitionedDigraph, mask: int) -> bool:
    """Whether D[S] is strong, for a non-empty vertex set S given as a
    bitmask (bit v-1 for vertex v): its lowest vertex reaches every vertex
    of S, and is reached from each, without leaving S."""
    start = (mask & -mask).bit_length() - 1
    return (_closure(d.out_masks, start, mask) == mask
            and _closure(d.in_masks, start, mask) == mask)


def is_strong(d: PartitionedDigraph) -> bool:
    """Every vertex reaches vertex 1 and is reached from it."""
    return is_strong_within(d, (1 << d.n) - 1)


def is_k_strong(d: PartitionedDigraph, k: int) -> bool:
    """Exhaustive check: n >= k+1 and every deletion of < k vertices stays strong."""
    if k < 0:
        raise ValueError("k must be nonnegative")
    if k == 0:
        return True
    if d.n < k + 1:
        return False
    verts = list(d.vertices())
    for size in range(k):
        for removed in combinations(verts, size):
            if not is_strong(induce(d, [v for v in verts if v not in removed])[0]):
                return False
    return True


def induce(d: PartitionedDigraph, vertices) -> tuple:
    """Induced subdigraph on the given vertices, relabelled 1..|S|.

    Returns (subdigraph, old_of_new) where old_of_new[i-1] is the original id
    of new vertex i.  Partite indices are compacted so every index is used.
    """
    old = sorted(set(vertices))
    if not old:
        raise ValueError("induced subdigraph needs at least one vertex")
    new_of_old = {v: i + 1 for i, v in enumerate(old)}
    used_parts = sorted({d.part(v) for v in old})
    part_map = {p: i + 1 for i, p in enumerate(used_parts)}
    part = [part_map[d.part(v)] for v in old]
    arcs = [
        (new_of_old[u], new_of_old[v])
        for (u, v) in d.arcs
        if u in new_of_old and v in new_of_old
    ]
    return PartitionedDigraph(part, arcs, augmented=d.augmented), old


def contract_partite(d: PartitionedDigraph) -> PartitionedDigraph:
    """Contract each partite set to one vertex; the result is semicomplete."""
    d.require_smd()
    arcs = set()
    for u, v in d.arcs:
        i, j = d.part(u), d.part(v)
        if i != j:
            arcs.add((i, j))
    return PartitionedDigraph(list(range(1, d.c + 1)), arcs)


@dataclass(frozen=True)
class WeightedCompletion:
    """The base digraph plus all same-partite arcs at weight 1.

    The completed arc set is semicomplete: original arcs keep weight 0 and
    every ordered same-partite pair is added at weight 1.  Cross-partite
    pairs keep exactly the arcs of the base.
    """

    base: PartitionedDigraph
    added: frozenset

    @property
    def arcs(self) -> frozenset:
        return self.base.arcs | self.added

    def weight(self, arc: tuple) -> int:
        if arc in self.base.arcs:
            return 0
        if arc in self.added:
            return 1
        raise KeyError(f"{arc} is not an arc of the completion")


def weighted_completion(d: PartitionedDigraph) -> WeightedCompletion:
    d.require_smd()
    added = set()
    for u in d.vertices():
        for v in d.vertices():
            if u != v and d.same_part(u, v):
                added.add((u, v))
    return WeightedCompletion(base=d, added=frozenset(added))


def augment_terminals(d: PartitionedDigraph, terminals) -> PartitionedDigraph:
    """Add all arcs from each terminal to the rest of its partite set.

    The result may carry arcs inside partite sets; it is flagged as augmented
    so that operations requiring a plain instance reject it.
    """
    d.require_smd()
    x = set(terminals)
    for v in x:
        if not 1 <= v <= d.n:
            raise ValueError(f"terminal {v} out of range")
    new_arcs = set()
    for v in x:
        for w in d.vertices():
            if w != v and d.same_part(v, w) and (v, w) not in d.arcs:
                new_arcs.add((v, w))
    if not new_arcs:
        return d
    return PartitionedDigraph(d.part_vector, d.arcs | new_arcs, augmented=True)
