"""Bridge between {0,1}-weighted semicomplete digraph tours and generalized
walks of the 0-weight instance obtained by dropping the weight-1 cliques."""

from dataclasses import dataclass, field
from itertools import combinations
from typing import List, Optional, Tuple

from .construct import longest_gpath
from .digraph import PartitionedDigraph, _closure, _vertices_of
from .errors import CertificateError, CliqueViolation, NotSemicomplete
from .extended import spanning_gcycle_extsd
from .irreducible import spanning_gcycle_strong
from .search import spanning_gcycle_at_least
from .walks import GWalk, walk_length

MODE_EXTENDED_EXACT = "extended-exact"
MODE_AT_MOST_K = "at-most-k"
MODE_STRONG_BOUND = "strong-bound"


@dataclass(frozen=True)
class ZOTSPInstance:
    """Semicomplete digraph with {0,1} arc weights; the weight-1 arcs must
    induce vertex-disjoint complete subdigraphs."""

    n: int
    arcs: frozenset
    ones: frozenset

    def weight(self, arc) -> int:
        if arc not in self.arcs:
            raise KeyError(f"{arc} is not an arc")
        return 1 if arc in self.ones else 0


@dataclass
class ZOTSPReport:
    ok: bool
    cliques: List[frozenset] = field(default_factory=list)
    witness: Optional[tuple] = None


def validate_zotsp(inst: ZOTSPInstance) -> ZOTSPReport:
    """Check semicompleteness and the disjoint-clique shape of weight-1 arcs.

    The weight-1 groups are closures over weight-1 masks, taken in the order
    their first weight-1 arc comes; the first pair of a group without
    weight-1 arcs both ways is the witness."""
    for u, v in combinations(range(1, inst.n + 1), 2):
        if (u, v) not in inst.arcs and (v, u) not in inst.arcs:
            return ZOTSPReport(ok=False, witness=(u, v))
    if not inst.ones <= inst.arcs:
        stray = min(inst.ones - inst.arcs)
        return ZOTSPReport(ok=False, witness=stray)
    out1, in1 = [0] * inst.n, [0] * inst.n
    for u, v in inst.ones:
        out1[u - 1] |= 1 << (v - 1)
        in1[v - 1] |= 1 << (u - 1)
    near = [o | i for o, i in zip(out1, in1)]
    cliques, done = [], 0
    for u in dict.fromkeys(u for u, _ in inst.ones):
        if done >> (u - 1) & 1:
            continue
        group = _closure(near, u - 1)
        done |= group
        for a in _vertices_of(group):
            bad = group & ~(out1[a - 1] & in1[a - 1]) & ~(1 << (a - 1))
            if bad:
                return ZOTSPReport(ok=False, witness=(a, (bad & -bad).bit_length()))
        cliques.append(frozenset(_vertices_of(group)))
    cliques.sort(key=min)
    return ZOTSPReport(ok=True, cliques=cliques)


def to_smd(inst: ZOTSPInstance) -> PartitionedDigraph:
    """Delete the weight-1 arcs; partite sets are the cliques plus singletons."""
    report = validate_zotsp(inst)
    if not report.ok:
        raise CliqueViolation(report.witness)
    part = [0] * inst.n
    next_part = 0
    for clique in report.cliques:
        next_part += 1
        for v in clique:
            part[v - 1] = next_part
    for v in range(1, inst.n + 1):
        if part[v - 1] == 0:
            next_part += 1
            part[v - 1] = next_part
    d = PartitionedDigraph(part, inst.arcs - inst.ones)
    if not d.is_smd():
        raise NotSemicomplete("weight-0 subgraph is not semicomplete multipartite")
    return d


def _reinsert_ones(inst: ZOTSPInstance, d: PartitionedDigraph, walk: GWalk):
    """Translate a generalized walk of the 0-weight instance back into a real
    walk of the weighted digraph, paying 1 per jump."""
    seq = walk.seq
    cost = 0
    pairs = list(walk.pairs())
    for u, v in pairs:
        if (u, v) in d.arcs:
            continue
        if (u, v) not in inst.ones:
            raise CertificateError(f"the jump ({u},{v}) is not a weight-1 clique arc")
        cost += 1
    return seq, cost


def min_cost_ham_path(inst: ZOTSPInstance) -> Tuple[tuple, int]:
    """Minimum-weight Hamiltonian path; cost is n-1 minus the longest
    generalized path of the 0-weight instance."""
    d = to_smd(inst)
    walk = longest_gpath(d)
    seq, cost = _reinsert_ones(inst, d, walk)
    if cost != (inst.n - 1) - walk_length(d, walk):
        raise CertificateError(f"the path costs {cost}, not n-1 less its arcs")
    return seq, cost


def tour_cost(inst: ZOTSPInstance, mode: str, k: Optional[int] = None) -> dict:
    """Tour-weight results in one of three modes.

    extended-exact: exact optimum when the 0-weight instance is extended
    semicomplete (absent when no tour exists).
    at-most-k: decision for a tour of weight at most k.
    strong-bound: certified interval for the optimum on strong instances.
    """
    d = to_smd(inst)
    n = inst.n
    if mode == MODE_EXTENDED_EXACT:
        cyc = spanning_gcycle_extsd(d)
        if cyc is None:
            return {"mode": mode, "status": "no-tour"}
        seq, cost = _reinsert_ones(inst, d, cyc)
        if cost != n - walk_length(d, cyc):
            raise CertificateError(f"the tour costs {cost}, not n less its arcs")
        return {"mode": mode, "status": "ok", "cost": cost, "tour": seq}
    if mode == MODE_AT_MOST_K:
        if k is None or k < 0:
            raise ValueError("at-most-k mode needs a nonnegative k")
        cyc = spanning_gcycle_at_least(d, k)
        if cyc is None:
            return {"mode": mode, "status": "no", "k": k}
        seq, cost = _reinsert_ones(inst, d, cyc)
        if cost > k:
            raise CertificateError(f"the tour costs {cost}, more than {k}")
        return {"mode": mode, "status": "yes", "k": k, "cost": cost, "tour": seq}
    if mode == MODE_STRONG_BOUND:
        cyc, cert = spanning_gcycle_strong(d)
        # a real path joins every ordered pair of a strong instance, so N = 0
        # and min{n-N, c_f} is the c_f that the route has certified
        lo = n - cert["c_f"]
        hi = n - cert["lower_bound"]
        seq, achieved = _reinsert_ones(inst, d, cyc)
        if not lo <= achieved <= hi:
            raise CertificateError(f"tour weight {achieved} lies outside [{lo}, {hi}]")
        return {
            "mode": mode,
            "status": "ok",
            "low": lo,
            "high": hi,
            "achieved": achieved,
            "tour": seq,
        }
    raise ValueError(f"unknown mode {mode!r}")
