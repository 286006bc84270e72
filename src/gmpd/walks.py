"""Generalized walks: paths and cycles whose steps are arcs or same-partite jumps."""

from dataclasses import dataclass
from typing import List, Optional, Tuple

from .digraph import PartitionedDigraph
from .errors import AugmentedInput, CertificateError, DuplicateVertex, HypothesisUnmet, IllegalPair

REAL = "real"
JUMP = "jump"


@dataclass(frozen=True)
class GWalk:
    kind: str                 # "path" or "cycle"
    seq: Tuple[int, ...]

    def __post_init__(self):
        if self.kind not in ("path", "cycle"):
            raise ValueError(f"unknown walk kind {self.kind!r}")
        object.__setattr__(self, "seq", tuple(self.seq))
        if self.kind == "path" and len(self.seq) < 1:
            raise ValueError("a path needs at least one vertex")
        if self.kind == "cycle" and len(self.seq) < 2:
            raise ValueError("a cycle needs at least two vertices")

    def pairs(self):
        """Consecutive pairs, including the wrap pair for cycles."""
        s = self.seq
        for i in range(len(s) - 1):
            yield s[i], s[i + 1]
        if self.kind == "cycle":
            yield s[-1], s[0]

    def __len__(self):
        return len(self.seq)


def path(*vertices) -> GWalk:
    return GWalk("path", tuple(vertices))


def cycle(*vertices) -> GWalk:
    return GWalk("cycle", tuple(vertices))


_ILLEGAL = float("-inf")   # the gain of an illegal pair: no sequence holding it reaches a floor


def _gain(arcs, part, u: int, v: int):
    """The pair rule: 1 for an arc (u, v), 0 for a jump inside one partite
    set, else _ILLEGAL."""
    if (u, v) in arcs:
        return 1
    return 0 if part[u - 1] == part[v - 1] else _ILLEGAL


def _cut_gains(arcs, seq: tuple) -> list:
    """gains[k] is 1 when the legal pair (seq[k-1], seq[k]) of the cycle is an arc."""
    return [1 if (seq[k - 1], seq[k]) in arcs else 0 for k in range(len(seq))]


def validate_walk(d: PartitionedDigraph, w: GWalk) -> List[str]:
    """Tag every consecutive pair REAL or JUMP; raise on the first illegal one."""
    if d.augmented:
        raise AugmentedInput("walks are defined on plain instances only")
    seen = set()
    for v in w.seq:
        if not 1 <= v <= d.n:
            raise ValueError(f"vertex {v} out of range")
        if v in seen:
            raise DuplicateVertex(v)
        seen.add(v)
    arcs, part = d.arcs, d.part_vector
    tags = []
    for i, (u, v) in enumerate(w.pairs()):
        gain = _gain(arcs, part, u, v)
        if gain < 0:
            raise IllegalPair(i, u, v)
        tags.append(REAL if gain else JUMP)
    return tags


def walk_length(d: PartitionedDigraph, w: GWalk) -> int:
    """Number of REAL pairs (for cycles, including the wrap pair)."""
    return sum(1 for t in validate_walk(d, w) if t == REAL)


def arc_count(d: PartitionedDigraph, seq, closed: bool) -> Optional[int]:
    """Number of arcs among the consecutive pairs of seq (with the wrap pair
    when closed), or None at the first pair that is neither an arc nor a
    jump inside one partite set.  Unlike validate_walk it checks no vertex
    range or repeat, and it stops at the first illegal pair."""
    arcs, part = d.arcs, d.part_vector
    length = 0
    m = len(seq)
    for i in range(m if closed else m - 1):
        gain = _gain(arcs, part, seq[i], seq[(i + 1) % m])
        if gain < 0:
            return None
        length += gain
    return length


def is_good(d: PartitionedDigraph, w: GWalk) -> bool:
    parts = {d.part(v) for v in w.seq}
    return parts == set(range(1, d.c + 1))


def is_spanning(d: PartitionedDigraph, w: GWalk) -> bool:
    return len(w.seq) == d.n


def canonical_cycle(w: GWalk) -> GWalk:
    """Rotate a cycle so the smallest vertex id comes first."""
    if w.kind != "cycle":
        return w
    i = w.seq.index(min(w.seq))
    return GWalk("cycle", w.seq[i:] + w.seq[:i])


def open_cycle(w: GWalk, start_index: int) -> GWalk:
    """The path obtained by breaking the pair entering seq[start_index]."""
    return GWalk("path", w.seq[start_index:] + w.seq[:start_index])


@dataclass(frozen=True)
class GFactor:
    """Vertex-disjoint cycles covering all of V(D)."""

    cycles: Tuple[GWalk, ...]

    def __post_init__(self):
        object.__setattr__(self, "cycles", tuple(self.cycles))
        for c in self.cycles:
            if c.kind != "cycle":
                raise ValueError("a factor consists of cycles only")

    def vertex_set(self) -> frozenset:
        return frozenset(v for c in self.cycles for v in c.seq)

    def arc_count(self, d: PartitionedDigraph) -> int:
        return sum(walk_length(d, c) for c in self.cycles)


def validate_factor(d: PartitionedDigraph, f: GFactor, spanning: bool = True):
    covered = set()
    for c in f.cycles:
        validate_walk(d, c)
        if covered & set(c.seq):
            raise DuplicateVertex(min(covered & set(c.seq)))
        covered |= set(c.seq)
    if spanning and covered != set(d.vertices()):
        missing = min(set(d.vertices()) - covered)
        raise ValueError(f"factor does not cover vertex {missing}")


@dataclass(frozen=True)
class Partner:
    """Host pair position i: host[i] dominates the piece's start and the
    piece's end dominates host[i+1] (indices cyclic for cycle hosts)."""

    index: int


def find_partner(d: PartitionedDigraph, piece: GWalk, host: GWalk) -> Optional[Partner]:
    """Smallest host pair position that can absorb the piece, if any."""
    if set(piece.seq) & set(host.seq):
        raise ValueError("piece and host must be vertex-disjoint")
    start, end = piece.seq[0], piece.seq[-1]
    for i, (u, v) in enumerate(host.pairs()):
        if (u, start) in d.arcs and (end, v) in d.arcs:
            return Partner(i)
    return None


def insert_piece(host: GWalk, i: int, segment: tuple) -> GWalk:
    """Splice the segment in after position i (cyclic wrap allowed for cycles)."""
    s = host.seq
    if host.kind == "cycle" and i == len(s) - 1:
        return GWalk("cycle", s + tuple(segment))
    return GWalk(host.kind, s[: i + 1] + tuple(segment) + s[i + 1:])


def insert_by_partners(d: PartitionedDigraph, piece: GWalk, host: GWalk) -> GWalk:
    """Absorb a disjoint path into a cycle using partner pairs.

    Requires: for every position i before the last, the single vertex or the
    arc-pair starting there has a partner on the host; the last vertex has a
    partner.  The result gains at least one arc over the two inputs combined.
    Greedy rule per step: after locating a partner (x, y), push the longest
    prefix u_1..u_i with an arc u_i -> y.
    """
    if piece.kind != "path" or host.kind != "cycle":
        raise ValueError("insert_by_partners takes a path piece and a cycle host")
    base_total = walk_length(d, piece) + walk_length(d, host)
    _check_partner_hypothesis(d, piece, host)
    remaining = list(piece.seq)
    current = host
    while remaining:
        u1 = remaining[0]
        p = find_partner(d, GWalk("path", (u1,)), current)
        if p is None and len(remaining) >= 2 and (u1, remaining[1]) in d.arcs:
            p = find_partner(d, GWalk("path", (u1, remaining[1])), current)
        if p is None:
            raise HypothesisUnmet(piece.seq.index(u1))
        pair = list(current.pairs())[p.index]
        y = pair[1]
        take = 1
        for i in range(len(remaining)):
            if (remaining[i], y) in d.arcs:
                take = i + 1
        current = insert_piece(current, p.index, tuple(remaining[:take]))
        remaining = remaining[take:]
    out_len = walk_length(d, current)
    if out_len < base_total + 1:
        raise CertificateError("partner insertion must gain an arc")
    return current


def _check_partner_hypothesis(d, piece, host):
    seq = piece.seq
    for i in range(len(seq)):
        single = find_partner(d, GWalk("path", (seq[i],)), host) is not None
        if i < len(seq) - 1:
            pair_ok = (seq[i], seq[i + 1]) in d.arcs and find_partner(
                d, GWalk("path", (seq[i], seq[i + 1])), host
            ) is not None
            if not (single or pair_ok):
                raise HypothesisUnmet(i)
        elif not single:
            raise HypothesisUnmet(i)


def decompose_segments(d: PartitionedDigraph, w: GWalk) -> List[List[int]]:
    """Maximal runs of REAL pairs; junctions between segments are the JUMPs."""
    if w.kind == "cycle":
        w = canonical_cycle(w)
    tags = validate_walk(d, w)
    seq = list(w.seq)
    segments = [[seq[0]]]
    for i in range(len(seq) - 1):
        if tags[i] == REAL:
            segments[-1].append(seq[i + 1])
        else:
            segments.append([seq[i + 1]])
    if w.kind == "cycle" and tags[-1] == REAL and len(segments) > 1:
        segments[0] = segments.pop() + segments[0]
    return segments


def render_walk(d: PartitionedDigraph, w: GWalk) -> str:
    """Text form: vertices joined by ``->`` (arc) and ``~`` (jump); cycles
    close with the wrap connector and the first vertex in parentheses."""
    tags = validate_walk(d, w)
    conn = {REAL: "->", JUMP: "~"}
    out = []
    seq = w.seq
    for i, v in enumerate(seq):
        out.append(str(v))
        if i < len(seq) - 1:
            out.append(conn[tags[i]])
    if w.kind == "cycle":
        out.append(conn[tags[-1]])
        out.append(f"({seq[0]})")
    return "".join(out)


def parse_walk(text: str) -> GWalk:
    """Inverse of render_walk (connector tags are rederived on validation)."""
    text = text.strip()
    tokens = []
    cur = ""
    i = 0
    while i < len(text):
        if text.startswith("->", i):
            tokens.append(cur)
            cur = ""
            i += 2
        elif text[i] == "~":
            tokens.append(cur)
            cur = ""
            i += 1
        else:
            cur += text[i]
            i += 1
    tokens.append(cur)
    last = tokens[-1]
    if last.startswith("(") and last.endswith(")"):
        seq = tuple(int(t) for t in tokens[:-1])
        if not seq or int(last[1:-1]) != seq[0]:
            raise ValueError(f"cycle text must wrap to its first vertex: {text!r}")
        return GWalk("cycle", seq)
    return GWalk("path", tuple(int(t) for t in tokens))
