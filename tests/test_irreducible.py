import hashlib
import random
import sys
from pathlib import Path

import pytest

from gmpd import digraph, irreducible, merging, walks
from gmpd.digraph import PartitionedDigraph, augment_terminals, is_strong
from gmpd.errors import (
    AugmentedInput,
    CertificateError,
    HypothesisUnmet,
    IllegalPair,
    NotBipartite,
    NotSemicomplete,
    NotStrong,
    PreconditionUnmet,
    TooLarge,
)
from gmpd.factor import c_f, max_arc_gcycle_factor
from gmpd.generators import fig2, random_smd
from gmpd.irreducible import (
    FEASIBLE,
    IN_SINGULAR,
    ISOLATED,
    LEFT_OVER,
    MERGEABLE,
    NON_SINGULAR,
    OUT_SINGULAR,
    RIGHT_OVER,
    bipartite_factor_structure,
    check_backarc_structure,
    count_nontrivial_parts,
    make_irreducible,
    merge_pair_no_loss,
    relation,
    singular_status,
    spanning_gcycle_strong,
    verify_chain_certificate,
)
from gmpd.search import oracle_longest_spanning_gcycle
from gmpd.walks import GFactor, GWalk, cycle, is_spanning, validate_walk, walk_length

from conftest import fig1_digraph, random_smd_digraph

PERFBENCH = Path(__file__).resolve().parent.parent / "perfbench"


def test_singular_status_cases():
    # v=5 against cycle on {1,2}: arcs 1->5? fig1: (1,5) yes, (5,2) yes -> both
    d = fig1_digraph()
    assert singular_status(d, 5, cycle(1, 2)) == NON_SINGULAR
    # all of the cycle inside v's partite set
    d2 = PartitionedDigraph([1, 1, 2], [(1, 3), (3, 1), (2, 3), (3, 2)])
    assert singular_status(d2, 2, cycle(1, 3)) == NON_SINGULAR
    d3 = PartitionedDigraph([1, 1, 1, 2], [(1, 4), (4, 1), (2, 4), (4, 2), (3, 4), (4, 3)])
    assert singular_status(d3, 2, cycle(1, 3)) == ISOLATED


def test_singular_out_and_in():
    part = [1, 2, 3]
    d = PartitionedDigraph(part, [(3, 1), (3, 2), (1, 2), (2, 1)])
    assert singular_status(d, 3, cycle(1, 2)) == OUT_SINGULAR
    d2 = PartitionedDigraph(part, [(1, 3), (2, 3), (1, 2), (2, 1)])
    assert singular_status(d2, 3, cycle(1, 2)) == IN_SINGULAR


def test_relation_left_over_full_dominance():
    part = [1, 2, 1, 2]
    arcs = [(1, 2), (2, 1), (3, 4), (4, 3), (1, 4), (2, 3)]
    d = PartitionedDigraph(part, arcs)
    assert relation(d, cycle(1, 2), cycle(3, 4)) == LEFT_OVER
    assert relation(d, cycle(3, 4), cycle(1, 2)) == RIGHT_OVER


def test_relation_mergeable_no_singulars():
    part = [1, 2, 1, 2]
    arcs = [(1, 2), (2, 1), (3, 4), (4, 3), (1, 4), (4, 1), (2, 3), (3, 2)]
    d = PartitionedDigraph(part, arcs)
    assert relation(d, cycle(1, 2), cycle(3, 4)) == MERGEABLE


def test_merge_pair_no_loss_mergeable_pairs():
    checked = 0
    for seed in range(150):
        d = random_smd_digraph(8, 3, 0.45, seed + 1100)
        verts = sorted(d.vertices())
        try:
            c1 = GWalk("cycle", tuple(verts[:3]))
            c2 = GWalk("cycle", tuple(verts[3:6]))
            validate_walk(d, c1)
            validate_walk(d, c2)
        except Exception:
            continue
        rel = relation(d, c1, c2)
        merged = merge_pair_no_loss(d, c1, c2)
        if rel in (MERGEABLE, FEASIBLE):
            checked += 1
            assert merged is not None
            assert walk_length(d, merged) >= walk_length(d, c1) + walk_length(d, c2)
            assert set(merged.seq) == set(verts[:6])
    assert checked >= 15


def test_merge_pair_absent_on_dominated_pair():
    part = [1, 2, 1, 2]
    arcs = [(1, 2), (2, 1), (3, 4), (4, 3), (1, 4), (2, 3)]
    d = PartitionedDigraph(part, arcs)
    assert merge_pair_no_loss(d, cycle(1, 2), cycle(3, 4)) is None


def test_make_irreducible_single_cycle(fig1):
    f = max_arc_gcycle_factor(fig1)
    irr = make_irreducible(fig1, f)
    assert len(irr.cycles) == 1 and irr.arc_count == 5


def test_make_irreducible_random_certificates():
    for seed in range(120):
        d = random_smd_digraph(6 + seed % 5, 2 + seed % 3, 0.35, seed + 1200)
        if not is_strong(d):
            continue
        f = max_arc_gcycle_factor(d)
        irr = make_irreducible(d, f)
        assert irr.arc_count >= f.arc_count(d)
        assert verify_chain_certificate(d, irr.cycles)
        if f.arc_count(d) == c_f(d):
            assert irr.arc_count == c_f(d)


def test_check_backarc_preconditions():
    part = [1, 2, 1, 2]
    arcs = [(1, 2), (2, 1), (3, 4), (4, 3), (1, 4), (4, 1), (2, 3), (3, 2)]
    d = PartitionedDigraph(part, arcs)
    with pytest.raises(PreconditionUnmet):
        check_backarc_structure(d, cycle(1, 2), cycle(3, 4))


def test_check_backarc_fully_dominating_pair_rejected():
    part = [1, 2, 1, 2]
    arcs = [(1, 2), (2, 1), (3, 4), (4, 3), (1, 4), (2, 3)]
    d = PartitionedDigraph(part, arcs)
    with pytest.raises(PreconditionUnmet):
        check_backarc_structure(d, cycle(1, 2), cycle(3, 4))


def _find_backarc_witness(max_seeds=4000):
    """Random search for a dominated pair with a back arc and no merge."""
    from gmpd.merging import certified_merge_cycles

    for seed in range(max_seeds):
        d = random_smd_digraph(8 + seed % 5, 2 + seed % 4, 0.3, seed + 5000)
        try:
            f = max_arc_gcycle_factor(d)
        except Exception:
            continue
        cycles = list(f.cycles)
        for i in range(len(cycles)):
            for j in range(len(cycles)):
                if i == j:
                    continue
                c1, c2 = cycles[i], cycles[j]
                if relation(d, c1, c2) != LEFT_OVER:
                    continue
                if not any((u, v) in d.arcs for u in c2.seq for v in c1.seq):
                    continue
                floor = walk_length(d, c1) + walk_length(d, c2)
                if certified_merge_cycles(d, c1, c2, floor) is None:
                    return d, c1, c2
    return None


def test_backarc_structure_on_found_witnesses():
    found = _find_backarc_witness()
    assert found is not None, "random search should uncover a dominated pair"
    d, c1, c2 = found
    report = check_backarc_structure(d, c1, c2)
    assert report.ok, report.violations
    assert report.checked_arcs >= 1


def test_spanning_gcycle_strong_bound_random():
    for seed in range(120):
        d = random_smd_digraph(6 + seed % 5, 2 + seed % 4, 0.35, seed + 1500)
        if not is_strong(d):
            continue
        w, cert = spanning_gcycle_strong(d)
        assert is_spanning(d, w)
        assert cert["length"] >= cert["c_f"] - 2 * cert["c_prime"]
        if cert["c_prime"] <= 1:
            assert cert["length"] >= cert["c_f"] - 1
        res = oracle_longest_spanning_gcycle(d)
        assert res is not None and cert["length"] <= res[0]


def _random_split_digraph(n, independent, seed):
    import random

    rng = random.Random(f"split:{n}:{independent}:{seed}")
    part = [1] * independent + list(range(2, n - independent + 2))
    arcs = []
    for u in range(1, n + 1):
        for v in range(u + 1, n + 1):
            if part[u - 1] == part[v - 1]:
                continue
            r = rng.random()
            if r < 0.3:
                arcs += [(u, v), (v, u)]
            elif r < 0.65:
                arcs.append((u, v))
            else:
                arcs.append((v, u))
    return PartitionedDigraph(part, arcs)


def test_strong_route_attains_oracle_at_desk_scale():
    # not promised in general, but the merge route lands on the optimum for
    # these seeds; keep as a regression property
    seen = 0
    seed = 0
    while seen < 120 and seed < 1500:
        d = random_smd_digraph(6 + seed % 5, 2 + seed % 4, 0.3, seed + 31000)
        seed += 1
        if not is_strong(d):
            continue
        seen += 1
        _, cert = spanning_gcycle_strong(d)
        res = oracle_longest_spanning_gcycle(d)
        assert res is not None and cert["length"] == res[0]
    assert seen == 120


def test_split_digraph_long_cycle():
    # strong split instances with a real cycle factor keep >= n-1 arcs
    built = 0
    for seed in range(300):
        d = _random_split_digraph(7, 3, seed)
        assert count_nontrivial_parts(d) == 1
        if not is_strong(d):
            continue
        try:
            if c_f(d) != d.n:
                continue
        except Exception:
            continue
        built += 1
        w, cert = spanning_gcycle_strong(d)
        assert cert["length"] >= d.n - 1
        if built >= 10:
            break
    assert built >= 3


def test_bipartite_structure_trivial_split():
    d = PartitionedDigraph([1, 1, 2, 2], [(1, 3), (1, 4), (2, 3), (2, 4)])
    f = max_arc_gcycle_factor(d)
    irr = make_irreducible(d, f)
    assert len(irr.cycles) == 2
    report = bipartite_factor_structure(d, irr)
    assert report.alternative == 1 and not report.violations


def test_bipartite_structure_real_cycles():
    # two dominated 2-cycles alternating between the sides
    part = [1, 2, 1, 2]
    arcs = [(1, 2), (2, 1), (3, 4), (4, 3), (1, 4), (2, 3)]
    d = PartitionedDigraph(part, arcs)
    f = GFactor((cycle(1, 2), cycle(3, 4)))
    irr = make_irreducible(d, f)
    if len(irr.cycles) >= 2:
        report = bipartite_factor_structure(d, irr)
        assert report.alternative == 2
        assert report.spanning_cycle is not None
        got = walk_length(d, report.spanning_cycle)
        assert got == irr.arc_count - 2
        assert not report.violations


def test_bipartite_structure_rejects_nonbipartite(fig1):
    f = max_arc_gcycle_factor(fig1)
    irr = make_irreducible(fig1, f)
    with pytest.raises(NotBipartite):
        bipartite_factor_structure(fig1, irr)


def undecided_dominated_pair():
    """A 19-cycle 1..19 of a transitive tournament dominating the 2-cycle
    (20, 21) but for the arc (20, 1); 19 and 21 share a partite set.  The
    union is strong, yet its only Hamiltonian path from 1 inside the 19-cycle
    ends at 19, which has no arc to 21: no cycle keeps all 21 arcs, and the
    union is past the exact search's cap."""
    part = list(range(1, 20)) + [20, 19]
    arcs = {(i, j) for i in range(1, 20) for j in range(i + 1, 20)} - {(1, 19)} | {(19, 1)}
    arcs |= {(i, 20) for i in range(2, 20)} | {(20, 1), (20, 21), (21, 20)}
    arcs |= {(i, 21) for i in range(1, 19)}
    return PartitionedDigraph(part, arcs), cycle(*range(1, 20)), cycle(20, 21)


def test_undecided_dominated_pair_counts_as_no_merge():
    d, big, small = undecided_dominated_pair()
    assert d.is_smd() and is_strong(d) and relation(d, big, small) == LEFT_OVER
    with pytest.raises(TooLarge):
        merge_pair_no_loss(d, big, small)
    irr = make_irreducible(d, GFactor((small, big)))
    assert irr.cycles == (big, small) and irr.arc_count == 21
    assert verify_chain_certificate(d, irr.cycles)
    walk, cert = spanning_gcycle_strong(d)
    assert is_spanning(d, walk) and cert["length"] == walk_length(d, walk) == 20
    assert cert["lower_bound"] == 20


def test_strong_route_validates_once(monkeypatch):
    """The strong route computes one report for its instance, which every
    check on the way reads."""
    calls = []

    def counting(d, _fn=digraph._classify):
        calls.append(d)
        return _fn(d)

    monkeypatch.setattr(digraph, "_classify", counting)
    for d in (undecided_dominated_pair()[0], random_smd_digraph(12, 3, 0.4, 7)):
        assert is_strong(d)
        calls.clear()
        spanning_gcycle_strong(d)
        assert len(calls) == 1


def test_strong_route_validates_the_factor_once(monkeypatch):
    """max_arc_gcycle_factor validates its cycles; the strong route reads the
    arc count and orders the factor without checking them again, while the
    public make_irreducible keeps its check."""
    factors, checked = [], []

    def spy_factor(d, _fn=irreducible.max_arc_gcycle_factor):
        factors.append(_fn(d))
        return factors[-1]

    def spy_walk(d, w, _fn=walks.validate_walk):
        checked.append(w)
        return _fn(d, w)

    monkeypatch.setattr(irreducible, "max_arc_gcycle_factor", spy_factor)
    monkeypatch.setattr(walks, "validate_walk", spy_walk)
    d = random_smd_digraph(12, 3, 0.4, 7)
    spanning_gcycle_strong(d)
    assert len(factors[0].cycles) == 4
    assert [sum(w is c for w in checked) for c in factors[0].cycles] == [1] * 4
    # (7, 9) joins two partite sets without an arc
    cycles = list(factors[0].cycles)
    cycles[2] = GWalk("cycle", (4, 7, 9, 6))
    with pytest.raises(IllegalPair):
        make_irreducible(d, GFactor(tuple(cycles)))


def test_strong_route_errors_keep_their_order():
    d = random_smd_digraph(8, 2, 0.4, 3)
    assert d.is_smd() and is_strong(d)
    # an augmented instance has arcs inside a partite set, so it is not an SMD either
    augmented = augment_terminals(d, [1])
    assert augmented.augmented and not digraph.validate(augmented).is_smd
    with pytest.raises(AugmentedInput):
        spanning_gcycle_strong(augmented)
    # a missing cross pair and no way back to 1: neither an SMD nor strong
    with pytest.raises(NotSemicomplete):
        spanning_gcycle_strong(PartitionedDigraph([1, 2, 3], [(1, 2), (2, 3)]))
    with pytest.raises(NotStrong):
        spanning_gcycle_strong(PartitionedDigraph([1, 2, 3], [(1, 2), (2, 3), (1, 3)]))


def group_loop_inputs():
    """Strong instances whose route reaches the group loop: (name, instance).
    The chain draws need `perfbench` on the import path."""
    import workloads

    yield "fig2", fig2().digraph
    yield "random 6 3 0.6 379", random_smd(6, 3, 0.6, 379).digraph
    for seed in (20, 27):
        rng = random.Random(seed)
        yield f"chain 6 20 5 {seed}", PartitionedDigraph(*workloads.chain(6, 20, 5, rng))


# sha256 of repr(spanning_gcycle_strong(d)), and the group sizes merged on the way
GROUP_LOOP_PINS = {
    "fig2": ("7ff0cd3fe78eed9a142c8fd565b35e9eaa194b18d9e54cac684dec04f5fe0204", [5, 2]),
    "random 6 3 0.6 379": ("f2b4e69ef26b9f39b7b7134411f9041c2f02e8c23ac8d63094191e68eb8006b2", [2]),
}


def test_group_loop_answers_are_pinned(monkeypatch):
    """Each group of the strong route is one merge call, and the answers keep
    their pinned digests; the six-cycle group of two 120-vertex chain draws
    is refused by the exact search."""
    groups = []

    def spy(d, cycles, floor, _fn=irreducible._merge_legal):
        if sys._getframe(1).f_code.co_name == "spanning_gcycle_strong":
            groups.append(len(cycles))
        return _fn(d, cycles, floor)

    monkeypatch.setattr(irreducible, "_merge_legal", spy)
    monkeypatch.syspath_prepend(str(PERFBENCH))
    for name, d in group_loop_inputs():
        groups.clear()
        if name in GROUP_LOOP_PINS:
            answer = repr(spanning_gcycle_strong(d))
            assert (hashlib.sha256(answer.encode()).hexdigest(), groups) == GROUP_LOOP_PINS[name]
        else:
            with pytest.raises(TooLarge) as err:
                spanning_gcycle_strong(d)
            assert str(err.value) == "instance size 120 exceeds exact-search threshold 18"
            assert groups == [6]


def test_failed_two_cycle_group_is_searched_once(monkeypatch):
    """A two-cycle group that no splice and no exact search merges raises
    after one exact search of its union at its floor, not two."""
    def unmet(*args):
        raise HypothesisUnmet("no partner insertion")

    searched = []

    def no_merge(d, vertices, floor):
        searched.append((frozenset(vertices), floor))
        return None

    for name in ("_interleave_two", "_interleave_four", "_two_block"):
        monkeypatch.setattr(merging, name, lambda *args: None)
    monkeypatch.setattr(merging, "insert_by_partners", unmet)
    monkeypatch.setattr(merging, "_dp_merge", no_merge)
    d = random_smd(6, 3, 0.6, 379).digraph
    with pytest.raises(CertificateError, match="loss budget"):
        spanning_gcycle_strong(d)
    # the irreducible ordering's no-loss search, then the group's at c_f - 2
    assert searched == [(frozenset(range(1, 7)), 6), (frozenset(range(1, 7)), 4)]
