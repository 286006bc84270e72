"""Singular vertices, the one-way dominance relation between disjoint
cycles, no-loss pair merging, irreducible factor ordering, and the spanning
cycle bound for strong instances."""

from dataclasses import dataclass, field
from typing import List, Optional, Tuple

from .digraph import PartitionedDigraph, validate
from .errors import CertificateError, NotBipartite, NotStrong, PreconditionUnmet, TooLarge
from .factor import max_arc_gcycle_factor
from .merging import _merge_legal, certified_merge_cycles
from .walks import (
    GFactor,
    GWalk,
    arc_count,
    canonical_cycle,
    validate_factor,
    walk_length,
)

OUT_SINGULAR = "out"
IN_SINGULAR = "in"
NON_SINGULAR = "none"
ISOLATED = "isolated"

LEFT_OVER = "left"      # first cycle dominates per the singular-vertex rule
RIGHT_OVER = "right"
FEASIBLE = "feasible"
MERGEABLE = "mergeable"


def singular_status(d: PartitionedDigraph, v: int, c: GWalk) -> str:
    if v in c.seq:
        raise ValueError("vertex lies on the cycle")
    outs = sum(1 for x in c.seq if (v, x) in d.arcs)
    ins = sum(1 for x in c.seq if (x, v) in d.arcs)
    if outs and ins:
        return NON_SINGULAR
    if outs:
        return OUT_SINGULAR
    if ins:
        return IN_SINGULAR
    return ISOLATED


def _singular_profile(d, a: GWalk, b: GWalk):
    outs = ins = 0
    for v in a.seq:
        st = singular_status(d, v, b)
        if st == OUT_SINGULAR:
            outs += 1
        elif st == IN_SINGULAR:
            ins += 1
    return outs, ins


def relation(d: PartitionedDigraph, c1: GWalk, c2: GWalk) -> str:
    """Classify a disjoint cycle pair by its singular vertices."""
    if set(c1.seq) & set(c2.seq):
        raise ValueError("cycles must be vertex-disjoint")
    o1, i1 = _singular_profile(d, c1, c2)
    o2, i2 = _singular_profile(d, c2, c1)
    if o1 and not i1 and i2 and not o2:
        return LEFT_OVER
    if o2 and not i2 and i1 and not o1:
        return RIGHT_OVER
    if (o1 or i1) and (o2 or i2):
        return FEASIBLE
    return MERGEABLE


def merge_pair_no_loss(
    d: PartitionedDigraph, c1: GWalk, c2: GWalk
) -> Optional[GWalk]:
    """Cycle on the union with at least the summed arc count, if one exists.

    Pairs without one-way dominance always admit such a merge; dominated
    pairs usually do not, and the certified search settles them exactly."""
    d.require_smd()
    target = walk_length(d, c1) + walk_length(d, c2)
    merged = certified_merge_cycles(d, c1, c2, target)
    rel = relation(d, c1, c2)
    if merged is None and rel in (MERGEABLE, FEASIBLE):
        raise CertificateError(f"a {rel} pair found no no-loss merge")
    return merged


@dataclass(frozen=True)
class IrreducibleFactor:
    """Cycles ordered so every earlier one dominates every later one.

    The certificate is the verified chain ordering; whether the factor also
    minimizes the cycle count over all refinements is not decided here."""

    cycles: Tuple[GWalk, ...]
    arc_count: int

    def as_factor(self) -> GFactor:
        return GFactor(self.cycles)


def verify_chain_certificate(d: PartitionedDigraph, cycles) -> bool:
    """Raw-scan check of the one-way dominance chain ordering."""
    for i in range(len(cycles)):
        for j in range(i + 1, len(cycles)):
            if relation(d, cycles[i], cycles[j]) != LEFT_OVER:
                return False
    return True


def make_irreducible(d: PartitionedDigraph, f: GFactor) -> IrreducibleFactor:
    """Merge pairs (and dominance triangles) without losing arcs until the
    cycles admit a one-way dominance chain; certificate re-verified by scans.

    A one-way dominated pair too large for the exact search to decide counts
    as not mergeable: the chain certificate does not need its merge."""
    d.require_smd()
    validate_factor(d, f)
    return _make_irreducible(d, f)


def _make_irreducible(d: PartitionedDigraph, f: GFactor) -> IrreducibleFactor:
    """make_irreducible for a factor already validated on the SMD `d`."""
    cycles: List[GWalk] = sorted(
        (canonical_cycle(c) for c in f.cycles), key=lambda c: c.seq[0]
    )
    length = {c.seq: arc_count(d, c.seq, True) for c in cycles}
    base_arcs = sum(length.values())
    failed = set()   # (seq, seq) pairs with no no-loss merge; a merge never revives one
    while True:
        merged = False
        for i in range(len(cycles)):
            for j in range(i + 1, len(cycles)):
                a, b = cycles[i], cycles[j]
                if (a.seq, b.seq) in failed:
                    continue
                try:
                    m = _merge_legal(d, (a, b), length[a.seq] + length[b.seq])
                except TooLarge:
                    if relation(d, a, b) not in (LEFT_OVER, RIGHT_OVER):
                        raise
                    m = None
                if m is None:
                    failed.add((a.seq, b.seq))
                    continue
                cycles[i] = m[0]
                length[m[0].seq] = m[1]
                del cycles[j]
                cycles.sort(key=lambda c: c.seq[0])
                merged = True
                break
            if merged:
                break
        if merged:
            continue
        # every remaining pair is one-way dominated; resolve any triangle by
        # a no-loss three-way merge, then the dominance order is transitive
        k = len(cycles)
        beats = [[False] * k for _ in range(k)]
        for i in range(k):
            for j in range(k):
                if i != j:
                    beats[i][j] = relation(d, cycles[i], cycles[j]) == LEFT_OVER
        triangle = next(((i, j, l) for i in range(k) for j in range(k) for l in range(k)
                         if len({i, j, l}) == 3 and beats[i][j] and beats[j][l] and beats[l][i]),
                        None)
        if triangle is None:
            order = sorted(range(k), key=lambda i: (-sum(beats[i]), cycles[i].seq[0]))
            ordered = [cycles[i] for i in order]
            if not verify_chain_certificate(d, ordered):
                raise CertificateError("merged cycles do not form a one-way dominance chain")
            total = sum(length[c.seq] for c in ordered)
            if total < base_arcs:
                raise CertificateError(f"merging lost arcs: {total} < {base_arcs}")
            out = IrreducibleFactor(tuple(ordered), total)
            validate_factor(d, out.as_factor())
            return out
        i, j, l = triangle
        group = [cycles[x] for x in (i, j, l)]
        floor = sum(length[c.seq] for c in group)
        found = _merge_legal(d, group, floor)
        if found is None:
            raise CertificateError(f"dominance triangle {triangle} did not collapse")
        length[found[0].seq] = found[1]
        cycles = [c for x, c in enumerate(cycles) if x not in (i, j, l)]
        cycles.append(found[0])
        cycles.sort(key=lambda c: c.seq[0])


@dataclass
class BackarcReport:
    checked_arcs: int
    violations: List[str] = field(default_factory=list)

    @property
    def ok(self) -> bool:
        return not self.violations


def check_backarc_structure(
    d: PartitionedDigraph, c1: GWalk, c2: GWalk
) -> BackarcReport:
    """Consistency audit of a dominated pair that admits no no-loss merge.

    For every arc from the second cycle back into the first, the neighbours
    around its ends must pair up inside a single partite set, ride real arcs,
    and close the two bypass arcs; jump pairs exclude the other cycle from
    their partite set."""
    d.require_smd()
    if relation(d, c1, c2) != LEFT_OVER:
        raise PreconditionUnmet("pair is not one-way dominated in this order")
    back_arcs = [(u, v) for u in c2.seq for v in c1.seq if (u, v) in d.arcs]
    if not back_arcs:
        raise PreconditionUnmet("first cycle fully dominates the second")
    target = walk_length(d, c1) + walk_length(d, c2)
    if certified_merge_cycles(d, c1, c2, target) is not None:
        raise PreconditionUnmet("pair admits a no-loss merge")
    report = BackarcReport(checked_arcs=len(back_arcs))
    succ1 = {c1.seq[i]: c1.seq[(i + 1) % len(c1.seq)] for i in range(len(c1.seq))}
    pred1 = {v: u for u, v in succ1.items()}
    succ2 = {c2.seq[i]: c2.seq[(i + 1) % len(c2.seq)] for i in range(len(c2.seq))}
    expected_part = None
    for u, v in sorted(back_arcs):
        up, vm = succ2[u], pred1[v]
        if d.part(up) != d.part(vm):
            report.violations.append(f"arc ({u},{v}): neighbours {up},{vm} split partite sets")
            continue
        if expected_part is None:
            expected_part = d.part(up)
        elif d.part(up) != expected_part:
            report.violations.append(f"arc ({u},{v}): second partite set {d.part(up)}")
        if (vm, v) not in d.arcs:
            report.violations.append(f"arc ({u},{v}): pair ({vm},{v}) is not an arc")
        if (u, up) not in d.arcs:
            report.violations.append(f"arc ({u},{v}): pair ({u},{up}) is not an arc")
        if (vm, u) not in d.arcs:
            report.violations.append(f"arc ({u},{v}): bypass ({vm},{u}) missing")
        if (v, up) not in d.arcs:
            report.violations.append(f"arc ({u},{v}): bypass ({v},{up}) missing")
    for a, b in ((c1, c2), (c2, c1)):
        for i in range(len(a.seq)):
            u, w = a.seq[i], a.seq[(i + 1) % len(a.seq)]
            if d.part(u) == d.part(w):
                bad = [x for x in b.seq if d.part(x) == d.part(u)]
                if bad:
                    report.violations.append(
                        f"jump pair ({u},{w}) shares partite set with {bad[0]}"
                    )
    return report


def count_nontrivial_parts(d: PartitionedDigraph) -> int:
    return sum(1 for s in d.partite_sets() if len(s) >= 2)


def spanning_gcycle_strong(
    d: PartitionedDigraph,
) -> Tuple[GWalk, dict]:
    """Spanning cycle of a strong instance losing at most two arcs per
    non-trivial partite set against the factor maximum.

    Route: maximum-arc factor, irreducible chain ordering, then repeated
    merging of the longest prefix group that shares a partite set with the
    chain head, each group merge certified within its loss budget."""
    report = validate(d)
    d.require_smd()
    if not report.is_strong:
        raise NotStrong("needs a strong instance")
    factor = max_arc_gcycle_factor(d)   # validated there, so not checked again here
    cf = sum(arc_count(d, c.seq, True) for c in factor.cycles)
    cprime = count_nontrivial_parts(d)
    per_group_loss = 1 if cprime <= 1 else 2
    lower = cf - 1 if cprime <= 1 else cf - 2 * cprime
    cert = {"c_f": cf, "c_prime": cprime, "lower_bound": lower}
    if report.is_extended:
        from .extended import _spanning_gcycle_extsd

        cyc = _spanning_gcycle_extsd(d, factor)
        return cyc, {**cert, "length": walk_length(d, cyc), "route": "extended"}
    irr = _make_irreducible(d, factor)
    cycles = list(irr.cycles)
    while len(cycles) > 1:
        head_parts = {d.part(v) for v in cycles[0].seq}
        j = None
        for idx in range(len(cycles) - 1, 0, -1):
            if head_parts & {d.part(v) for v in cycles[idx].seq}:
                j = idx
                break
        if j is None:
            raise CertificateError("no cycle shares a partite set with the chain head")
        group = cycles[: j + 1]
        floor = sum(walk_length(d, c) for c in group) - per_group_loss
        found = _merge_legal(d, group, floor)
        if found is None:
            raise CertificateError(f"no group merge within the loss budget of {per_group_loss}")
        # the merged cycle is certified and the rest come from a validated
        # irreducible factor; the refold still validates the spanning factor
        merged, rest = found[0], cycles[j + 1:]
        cycles = list(_make_irreducible(d, GFactor((merged, *rest))).cycles) if rest else [merged]
    result = canonical_cycle(cycles[0])
    length = walk_length(d, result)
    if length < lower:
        # reached only with three or more irreducible cycles (with two, the
        # one group merge keeps c_f - per_group_loss >= lower arcs), so
        # `_merge_legal` answers it by the exact search on their union
        found = _merge_legal(d, irr.cycles, lower)
        if found is None:
            raise CertificateError(f"no spanning cycle reaches the bound {lower}")
        result, length = found
    if len(result.seq) != d.n or length < lower:
        raise CertificateError(f"result spans {len(result.seq)} of {d.n} vertices with"
                               f" {length} arcs, bound {lower}")
    return result, {**cert, "length": length, "route": "irreducible"}


@dataclass
class BipartiteFactorReport:
    alternative: int                 # 1: the two partite sets; 2: real cycles
    spanning_cycle: Optional[GWalk]  # present for alternative 2
    violations: List[str] = field(default_factory=list)


def bipartite_factor_structure(
    d: PartitionedDigraph, f: IrreducibleFactor
) -> BipartiteFactorReport:
    """Audit the two-alternative structure of an ordered factor in a
    semicomplete bipartite digraph; in the real-cycle alternative a spanning
    cycle losing exactly two arcs is constructed."""
    d.require_smd()
    if d.c != 2:
        raise NotBipartite("needs exactly two partite sets")
    cycles = list(f.cycles)
    if len(cycles) < 2:
        raise PreconditionUnmet("need at least two cycles")
    if not verify_chain_certificate(d, cycles):
        raise PreconditionUnmet("cycles are not chain-ordered")
    violations = []
    for i in range(len(cycles)):
        for j in range(i + 1, len(cycles)):
            if any((u, v) in d.arcs for u in cycles[j].seq for v in cycles[i].seq):
                violations.append(f"arc from cycle {j + 1} back to cycle {i + 1}")
    trivial_split = (
        len(cycles) == 2
        and len({d.part(v) for v in cycles[0].seq}) == 1
        and len({d.part(v) for v in cycles[1].seq}) == 1
        and set(cycles[0].seq) == d.partite_set(d.part(cycles[0].seq[0]))
        and set(cycles[1].seq) == d.partite_set(d.part(cycles[1].seq[0]))
    )
    if trivial_split:
        return BipartiteFactorReport(1, None, violations)
    all_real = all(
        all((u, v) in d.arcs for u, v in c.pairs()) for c in cycles
    )
    if not all_real:
        violations.append("neither alternative matches: jump pair outside the split case")
        return BipartiteFactorReport(0, None, violations)
    # open every cycle and chain them; heads sit in one partite set so the
    # wrap junction and one interior junction become jumps
    k = len(cycles)
    part_one = d.part(cycles[0].seq[0])
    seq: Tuple[int, ...] = ()
    heads = []
    for idx, c in enumerate(cycles):
        want = part_one if idx < k - 1 else (3 - part_one)
        start = next(i for i, v in enumerate(c.seq) if d.part(v) == want)
        rotated = c.seq[start:] + c.seq[:start]
        heads.append(rotated[0])
        seq = seq + rotated
    cyc = canonical_cycle(GWalk("cycle", seq))
    got = walk_length(d, cyc)
    total = sum(walk_length(d, c) for c in cycles)
    if got < total - 2:
        violations.append(f"constructed cycle lost {total - got} arcs")
    return BipartiteFactorReport(2, cyc, violations)
