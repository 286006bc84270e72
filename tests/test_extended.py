from itertools import permutations

import pytest
from hypothesis import assume, given, strategies as st

from gmpd import digraph, factor, merging
from gmpd.digraph import PartitionedDigraph, is_strong, validate
from gmpd.errors import IllegalPair, NoSharedPartite, NotExtended, OneDirectional
from gmpd.extended import merge_bidirectional, merge_same_partite, spanning_gcycle_extsd
from gmpd.factor import c_f, max_arc_gcycle_factor
from gmpd.generators import generate
from gmpd.irreducible import spanning_gcycle_strong
from gmpd.search import oracle_longest_spanning_gcycle
from gmpd.tsp import MODE_EXTENDED_EXACT, ZOTSPInstance, tour_cost
from gmpd.walks import GWalk, cycle, is_spanning, validate_walk, walk_length

from conftest import random_extended_digraph


def _five_vertex_extended():
    # partite sets {1,2}, {3}, {4}, {5}; relations: V1 <-> V2 complete,
    # V2 -> V3 -> V4 -> V2 one-way ring, V1 -> V3, V1 <- V4 one-way
    part = [1, 1, 2, 3, 4]
    arcs = set()
    for u in (1, 2):
        arcs |= {(u, 3), (3, u)}
    arcs |= {(3, 4), (4, 5), (5, 3)}
    for u in (1, 2):
        arcs |= {(u, 4), (5, u)}
    return PartitionedDigraph(part, sorted(arcs))


def test_fixture_is_extended():
    d = _five_vertex_extended()
    rep = validate(d)
    assert rep.is_smd and rep.is_extended and rep.is_strong


def test_merge_same_partite_trivial_cycle():
    d = _five_vertex_extended()
    c1 = cycle(3, 4, 5)
    c2 = cycle(1, 2)
    # no shared partite set between {3,4,5} and {1,2}
    with pytest.raises(NoSharedPartite):
        merge_same_partite(d, c1, c2)


def test_merge_same_partite_exact_sum():
    # two cycles through the same partite set in a larger extended instance
    part = [1, 1, 2, 3]
    arcs = {(1, 3), (3, 1), (2, 3), (3, 2), (1, 4), (4, 1), (2, 4), (4, 2), (3, 4), (4, 3)}
    d = PartitionedDigraph(part, sorted(arcs))
    assert validate(d).is_extended
    c1 = cycle(1, 3)
    c2 = cycle(2, 4)
    merged = merge_same_partite(d, c1, c2)
    assert set(merged.seq) == {1, 2, 3, 4}
    assert walk_length(d, merged) == walk_length(d, c1) + walk_length(d, c2)


def test_merge_bidirectional_requires_both_ways():
    d = _five_vertex_extended()
    c1 = cycle(1, 3)
    c2 = cycle(4, 5)   # 4->5 real, 5~4? different sets... (5,4) not arc
    with pytest.raises(Exception):
        validate_walk(d, c2)


def test_merge_bidirectional_one_directional_error():
    part = [1, 2, 3, 4]
    arcs = {(1, 2), (2, 1), (3, 4), (4, 3), (1, 3), (1, 4), (2, 3), (2, 4)}
    d = PartitionedDigraph(part, sorted(arcs))
    with pytest.raises(OneDirectional):
        merge_bidirectional(d, cycle(1, 2), cycle(3, 4))


def test_merge_bidirectional_sum_bound():
    checked = 0
    for seed in range(200):
        d = random_extended_digraph(4, 2, seed)
        if d.n < 5:
            continue
        verts = sorted(d.vertices())
        try:
            c1 = GWalk("cycle", tuple(verts[:2]))
            c2 = GWalk("cycle", tuple(verts[2:5]))
            validate_walk(d, c1)
            validate_walk(d, c2)
        except Exception:
            continue
        fwd = any((u, v) in d.arcs for u in c1.seq for v in c2.seq)
        bwd = any((v, u) in d.arcs for u in c1.seq for v in c2.seq)
        if not (fwd and bwd):
            continue
        merged = merge_bidirectional(d, c1, c2)
        checked += 1
        assert set(merged.seq) == set(verts[:5])
        assert walk_length(d, merged) >= walk_length(d, c1) + walk_length(d, c2)
    assert checked >= 10


def test_spanning_cycle_requires_extended(fig1=None):
    from conftest import fig1_digraph

    with pytest.raises(NotExtended):
        spanning_gcycle_extsd(fig1_digraph())


def test_spanning_cycle_absent_for_non_strong():
    part = [1, 2, 3]
    arcs = {(1, 2), (2, 3), (1, 3)}
    d = PartitionedDigraph(part, sorted(arcs))
    assert validate(d).is_extended
    assert spanning_gcycle_extsd(d) is None


def test_spanning_cycle_hamiltonian_case():
    d = PartitionedDigraph([1, 2, 3], [(1, 2), (2, 3), (3, 1)])
    w = spanning_gcycle_extsd(d)
    assert w is not None and walk_length(d, w) == 3


def test_merge_two_trivial_cycles_same_set():
    # four vertices of one set beside a hub joined both ways
    part = [1, 1, 1, 1, 2]
    arcs = []
    for v in (1, 2, 3, 4):
        arcs += [(v, 5), (5, v)]
    d = PartitionedDigraph(part, arcs)
    assert validate(d).is_extended
    merged = merge_same_partite(d, cycle(1, 2), cycle(3, 4))
    assert set(merged.seq) == {1, 2, 3, 4}
    assert walk_length(d, merged) == 0


def test_spanning_cycle_equals_factor_and_oracle():
    strong_seen = 0
    for seed in range(160):
        d = random_extended_digraph(2 + seed % 4, 3, seed)
        if d.n > 10:
            continue
        w = spanning_gcycle_extsd(d)
        if w is None:
            assert not is_strong(d) or d.n < 2
            continue
        strong_seen += 1
        want = c_f(d)
        assert walk_length(d, w) == want
        res = oracle_longest_spanning_gcycle(d)
        assert res is not None and res[0] == want
    assert strong_seen >= 40


def _legal_cycles(d, longest=3):
    """Every legal cycle of 2 to `longest` vertices, once each."""
    found = set()
    for size in range(2, longest + 1):
        for seq in permutations(d.vertices(), size):
            if seq[0] == min(seq):
                try:
                    validate_walk(d, GWalk("cycle", seq))
                except IllegalPair:
                    continue
                found.add(seq)
    return [GWalk("cycle", seq) for seq in sorted(found)]


def _linked(d, a, b):
    shared = {d.part(u) for u in a.seq} & {d.part(v) for v in b.seq}
    fwd = any((u, v) in d.arcs for u in a.seq for v in b.seq)
    bwd = any((v, u) in d.arcs for u in a.seq for v in b.seq)
    return bool(shared), fwd and bwd


@given(st.data())
def test_linked_cycles_merge_without_loss(data):
    """Disjoint legal cycles that share a partite set or are linked both ways
    merge into a legal cycle on their union with at least their summed arcs;
    each public merge refuses a pair that misses its own hypothesis."""
    d = data.draw(st.builds(random_extended_digraph, n_sets=st.integers(2, 5),
                            max_size=st.integers(1, 3), seed=st.integers(0, 10 ** 6)))
    cycles = _legal_cycles(d)
    pairs = [(a, b) for a in cycles for b in cycles
             if not set(a.seq) & set(b.seq) and any(_linked(d, a, b))]
    assume(pairs)
    for a, b in data.draw(st.lists(st.sampled_from(pairs), min_size=1, max_size=6)):
        shared, both_ways = _linked(d, a, b)
        floor = walk_length(d, a) + walk_length(d, b)
        for merge, applies, refusal in ((merge_same_partite, shared, NoSharedPartite),
                                        (merge_bidirectional, both_ways, OneDirectional)):
            if not applies:
                with pytest.raises(refusal):
                    merge(d, a, b)
                continue
            merged = merge(d, a, b)
            assert merged.kind == "cycle" and set(merged.seq) == set(a.seq) | set(b.seq)
            assert len(merged.seq) == len(a.seq) + len(b.seq)
            assert walk_length(d, merged) >= floor


def test_extended_route_merges_by_two_junction_splices(monkeypatch):
    """On seeded draws up to n = 120 every merge of the route is won by the
    two-junction scan: no later stage of the shared merge search runs."""
    def refuse(name):
        def stage(*args, **kwargs):
            raise AssertionError(f"{name} ran on the extended route")
        return stage

    for name in ("insert_by_partners", "_interleave_four", "_two_block", "_dp_merge"):
        monkeypatch.setattr(merging, name, refuse(name))
    calls = []

    def two_junction(*args, _fn=merging._interleave_two):
        calls.append(len(args[1]) + len(args[2]))
        return _fn(*args)

    monkeypatch.setattr(merging, "_interleave_two", two_junction)
    sizes = []
    for params, count in ((["4", "3"], 40), (["8", "4"], 20), (["16", "8"], 12), (["30", "6"], 6)):
        for seed in range(count):
            d = generate("extended", params, seed=seed).digraph
            if d.n > 120:
                continue
            sizes.append(d.n)
            w = spanning_gcycle_extsd(d)
            assert w is None or walk_length(d, w) == c_f(d)
    assert max(sizes) > 100 and len(calls) > 100


def test_large_extended_draw_reaches_the_factor_maximum():
    d = generate("extended", ["60", "10"], seed=4).digraph
    assert d.n == 294
    w = spanning_gcycle_extsd(d)
    assert is_spanning(d, w) and walk_length(d, w) == c_f(d)


def test_extended_entries_validate_once(monkeypatch):
    """The extended route, the strong route on an extended instance and the
    extended-exact tour each classify their instance once, and solve its
    maximum-arc factor once.  tour_cost's one report is to_smd's, on the
    weight-0 digraph it builds; the extended route reads it from there."""
    reports, solves = [], []

    def classify(d, _fn=digraph._classify):
        reports.append(d)
        return _fn(d)

    def solve(cost, _fn=factor.lexmin_assignment):
        solves.append(cost)
        return _fn(cost)

    monkeypatch.setattr(digraph, "_classify", classify)
    monkeypatch.setattr(factor, "lexmin_assignment", solve)
    d = generate("extended", ["8", "4"], seed=3).digraph
    assert len(max_arc_gcycle_factor(d).cycles) > 1
    ones = {(u, v) for u in d.vertices() for v in d.vertices() if u != v and d.same_part(u, v)}
    inst = ZOTSPInstance(d.n, frozenset(d.arcs | ones), frozenset(ones))
    for entry in (spanning_gcycle_extsd, spanning_gcycle_strong,
                  lambda _: tour_cost(inst, MODE_EXTENDED_EXACT)):
        reports.clear()
        solves.clear()
        entry(PartitionedDigraph(d.part_vector, d.arcs))
        assert (len(reports), len(solves)) == (1, 1)
