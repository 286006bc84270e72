import random

import pytest
from hypothesis import assume, given, settings, strategies as st

from gmpd import construct, walks
from gmpd.construct import (
    _attach_by_path,
    _real_cycle_among,
    absorb_to_spanning,
    good_gcycle_length_c,
    good_gpath_length_c_minus_1,
    grow_factor,
    longest_gpath,
    merge_path_cycle,
    tournament_ham_cycle,
    tournament_ham_path,
)
from gmpd.digraph import PartitionedDigraph, is_strong
from gmpd.errors import NotSemicomplete, NotStrong
from gmpd.factor import c_f, max_arc_gcycle_factor
from gmpd.merging import _fold_path_cycle
from gmpd.search import oracle_longest_gpath
from gmpd.walks import (
    GFactor,
    GWalk,
    cycle,
    is_good,
    is_spanning,
    path,
    validate_walk,
    walk_length,
)

from conftest import (
    _splice_candidates,
    brute_longest_gpath,
    random_legal_order,
    random_smd_digraph,
    reference_fold_path_cycle,
)


def _random_tournament(n, seed):
    import random

    rng = random.Random(seed)
    arcs = []
    for u in range(1, n + 1):
        for v in range(u + 1, n + 1):
            arcs.append((u, v) if rng.random() < 0.5 else (v, u))
    return PartitionedDigraph(list(range(1, n + 1)), arcs)


def test_ham_path_transitive():
    d = PartitionedDigraph([1, 2, 3], [(1, 2), (2, 3), (1, 3)])
    assert tournament_ham_path(d).seq == (1, 2, 3)


def test_ham_path_three_cycle():
    d = PartitionedDigraph([1, 2, 3], [(1, 2), (2, 3), (3, 1)])
    p = tournament_ham_path(d)
    assert len(p.seq) == 3
    assert all((u, v) in d.arcs for u, v in p.pairs())


def test_ham_path_random_tournaments():
    for seed in range(40):
        d = _random_tournament(4 + seed % 7, seed)
        p = tournament_ham_path(d)
        assert len(set(p.seq)) == d.n
        assert all((u, v) in d.arcs for u, v in p.pairs())


def test_ham_path_rejects_non_semicomplete(fig1):
    with pytest.raises(NotSemicomplete):
        tournament_ham_path(fig1)


def test_ham_cycle_three_cycle():
    d = PartitionedDigraph([1, 2, 3], [(1, 2), (2, 3), (3, 1)])
    assert tournament_ham_cycle(d).seq == (1, 2, 3)


def test_ham_cycle_random_strong_tournaments():
    hit = 0
    for seed in range(80):
        d = _random_tournament(5 + seed % 5, seed + 17)
        if not is_strong(d):
            continue
        hit += 1
        cyc = tournament_ham_cycle(d)
        assert len(set(cyc.seq)) == d.n
        assert all((u, v) in d.arcs for u, v in cyc.pairs())
    assert hit >= 20


def test_ham_cycle_not_strong():
    d = PartitionedDigraph([1, 2, 3], [(1, 2), (2, 3), (1, 3)])
    with pytest.raises(NotStrong):
        tournament_ham_cycle(d)


def test_good_gcycle_fig1(fig1):
    w = good_gcycle_length_c(fig1)
    assert walk_length(fig1, w) == 4 and is_good(fig1, w)


def test_good_gcycle_random_strong():
    for seed in range(60):
        d = random_smd_digraph(5 + seed % 5, 2 + seed % 3, 0.35, seed)
        if not is_strong(d):
            continue
        w = good_gcycle_length_c(d)
        assert walk_length(d, w) == d.c and is_good(d, w)


def test_good_gpath_fig1(fig1):
    w = good_gpath_length_c_minus_1(fig1)
    assert walk_length(fig1, w) == 3 and is_good(fig1, w)


def test_good_gpath_single_set():
    d = PartitionedDigraph([1, 1], [])
    w = good_gpath_length_c_minus_1(d)
    assert walk_length(d, w) == 0 and len(w.seq) == 1


def test_good_gpath_semicomplete_is_ham_path():
    d = PartitionedDigraph([1, 2, 3], [(1, 2), (2, 3), (1, 3)])
    w = good_gpath_length_c_minus_1(d)
    assert walk_length(d, w) == 2 and len(w.seq) == 3


def test_merge_path_cycle_random_property():
    checked = 0
    for seed in range(200):
        d = random_smd_digraph(8, 3, 0.4, seed + 900)
        verts = sorted(d.vertices())
        p_seq, c_seq = tuple(verts[:3]), tuple(verts[3:7])
        try:
            p = GWalk("path", p_seq)
            c = GWalk("cycle", c_seq)
            validate_walk(d, p)
            validate_walk(d, c)
        except Exception:
            continue
        checked += 1
        q = merge_path_cycle(d, p, c)
        assert set(q.seq) == set(p_seq) | set(c_seq)
        assert walk_length(d, q) >= walk_length(d, p) + walk_length(d, c)
    assert checked >= 10


def test_merge_path_cycle_trivial_cycle(fig1):
    p = path(1, 2, 3)
    c = cycle(4, 5)
    q = merge_path_cycle(fig1, p, c)
    assert set(q.seq) == {1, 2, 3, 4, 5}
    assert walk_length(fig1, q) >= 2


# one pair per shape family of the reference _splice_candidates, in scan
# order: the cycle opened then the path, the path then the cycle, the cycle
# inside the path, and one cycle vertex moved in front of a path vertex;
# witnesses recorded while every candidate was built and checked in full
@pytest.mark.parametrize("family, spec, p_seq, c_seq, witness", [
    (1, (6, 4, 0.3, 1), (2, 5, 6), (1, 4, 3), (4, 3, 1, 2, 5, 6)),
    (2, (5, 3, 0.3, 18), (1,), (2, 3, 4, 5), (1, 2, 3, 4, 5)),
    (3, (5, 3, 0.3, 45), (4, 3), (1, 2, 5), (4, 5, 1, 2, 3)),
    (4, (5, 3, 0.2, 3097), (4, 1, 5), (2, 3), (4, 2, 1, 3, 5)),
])
def test_merge_path_cycle_witness_pinned(family, spec, p_seq, c_seq, witness):
    d = random_smd_digraph(*spec)
    got = merge_path_cycle(d, GWalk("path", p_seq), GWalk("cycle", c_seq))
    assert got == GWalk("path", witness)
    s, t = len(p_seq), len(c_seq)
    starts = [0, t, 2 * t, 2 * t + (s - 1) * t]
    first = list(_splice_candidates(p_seq, c_seq)).index(witness)
    assert starts[family - 1] <= first < (starts + [float("inf")])[family]


@st.composite
def legal_path_cycle_pairs(draw):
    """A random SMD with n 3-14 and a random legal path and legal cycle on
    disjoint vertex sets of it, which need not cover it."""
    n = draw(st.integers(3, 14))
    d = random_smd_digraph(n, draw(st.integers(1, 5)), draw(st.sampled_from([0.0, 0.3, 0.7])),
                           draw(st.integers(0, 10 ** 6)))
    rng = random.Random(draw(st.integers(0, 10 ** 6)))
    vertices = list(d.vertices())
    rng.shuffle(vertices)
    s = draw(st.integers(1, n - 2))
    t = draw(st.integers(2, n - s))
    p = random_legal_order(d, vertices[:s], rng, False)
    c = random_legal_order(d, vertices[s:s + t], rng, True)
    assume(p is not None and c is not None)
    return d, p, c


@settings(max_examples=150)
@given(legal_path_cycle_pairs())
def test_fold_scorer_matches_the_reference(case):
    d, p, c = case
    target = walk_length(d, GWalk("path", p)) + walk_length(d, GWalk("cycle", c))
    for floor in (target - 1, target, target + 1, len(p) + len(c) - 1):
        assert _fold_path_cycle(d, p, c, floor) == reference_fold_path_cycle(d, p, c, floor)
    assert _fold_path_cycle(d, p, c, target) is not None


def test_longest_gpath_fig1(fig1):
    w = longest_gpath(fig1)
    assert walk_length(fig1, w) == 4 and is_spanning(fig1, w)


def test_longest_gpath_validates_each_walk_once(monkeypatch):
    """The route carries the cover's arc total through its folds: it checks
    the cover path, each cover cycle and the final path once each."""
    covers, checked = [], []

    def spy_cover(d, _fn=construct.max_arc_path_cycle_subdigraph):
        covers.append(_fn(d))
        return covers[-1]

    def spy_walk(d, w, _fn=walks.validate_walk):
        checked.append(w)
        return _fn(d, w)

    monkeypatch.setattr(construct, "max_arc_path_cycle_subdigraph", spy_cover)
    monkeypatch.setattr(walks, "validate_walk", spy_walk)
    d = random_smd_digraph(20, 3, 0.4, 1)
    got = longest_gpath(d)
    cover_path, remainder = covers[0]
    assert len(remainder.cycles) == 5
    assert checked[0] is cover_path and checked[-1] is got
    assert [sum(w is c for w in checked) for c in remainder.cycles] == [1] * 5
    assert len(checked) == 2 + len(remainder.cycles)


def test_longest_gpath_matches_oracle_and_brute():
    for seed in range(80):
        n = 5 + seed % 4
        d = random_smd_digraph(n, 2 + seed % 3, 0.35, seed + 60)
        w = longest_gpath(d)
        want, _ = oracle_longest_gpath(d)
        assert walk_length(d, w) == want
        if n <= 7:
            assert want == brute_longest_gpath(d)


def test_absorb_spanning_already(fig1):
    ham = cycle(3, 5, 2, 4, 1)
    assert absorb_to_spanning(fig1, ham).seq == (1, 3, 5, 2, 4)


def test_absorb_fig1_partial(fig1):
    c = cycle(4, 3, 5)  # x->c->y, wrap jump
    out = absorb_to_spanning(fig1, c)
    assert is_spanning(fig1, out)
    assert walk_length(fig1, out) >= walk_length(fig1, c)


def test_absorb_random_strong():
    for seed in range(80):
        d = random_smd_digraph(6 + seed % 5, 2 + seed % 3, 0.35, seed + 11)
        if not is_strong(d):
            continue
        start = good_gcycle_length_c(d)
        out = absorb_to_spanning(d, start)
        assert is_spanning(d, out)
        assert walk_length(d, out) >= walk_length(d, start)


def test_absorb_all_but_hub_in_one_set():
    # cycle [1, 5] with 5 the hub; the absorbed vertices share set with 1
    part = [1, 1, 1, 2]
    arcs = [(v, 4) for v in (1, 2, 3)] + [(4, v) for v in (1, 2, 3)]
    d = PartitionedDigraph(part, arcs)
    start = cycle(1, 4)
    out = absorb_to_spanning(d, start)
    assert is_spanning(d, out)
    assert walk_length(d, out) >= walk_length(d, start)


def test_single_vertex_instance_paths():
    d = PartitionedDigraph([1], [])
    assert longest_gpath(d).seq == (1,)
    assert good_gpath_length_c_minus_1(d).seq == (1,)


def test_grow_factor_spanning_identity(fig1):
    f = max_arc_gcycle_factor(fig1)
    assert grow_factor(fig1, f).cycles == f.cycles


def test_grow_factor_from_empty(fig1):
    f = grow_factor(fig1, GFactor(()))
    assert f.arc_count(fig1) == c_f(fig1)


def test_grow_factor_random_strong():
    for seed in range(80):
        d = random_smd_digraph(6 + seed % 5, 2 + seed % 3, 0.4, seed + 21)
        if not is_strong(d):
            continue
        seedling = good_gcycle_length_c(d)
        grown = grow_factor(d, GFactor((seedling,)))
        assert grown.vertex_set() == set(d.vertices())
        assert grown.arc_count(d) >= walk_length(d, seedling)
        assert grown.arc_count(d) <= c_f(d)


# exact outputs of the breadth-first searches behind absorption and factor
# growth, so the order in which they scan neighbours stays fixed
def test_attach_by_path_into_the_cycle():
    # vertex 5 has no arc into the 3-cycle: a path from 5 enters it at 4
    d = random_smd_digraph(8, 4, 0.4, 107)
    assert not any((5, x) in d.arcs for x in (1, 2, 4))
    out = _attach_by_path(d, GWalk("cycle", (1, 2, 4)), 5)
    assert out.seq == (4, 1, 2, 5, 3, 6)
    validate_walk(d, out)


def test_attach_by_path_out_of_the_cycle():
    # no arc from the 3-cycle reaches vertex 8: a path from 5 leads to it
    d = random_smd_digraph(8, 4, 0.4, 331)
    assert not any((x, 8) in d.arcs for x in (1, 2, 5))
    out = _attach_by_path(d, GWalk("cycle", (1, 2, 5)), 8)
    assert out.seq == (2, 5, 1, 3, 7, 8)
    validate_walk(d, out)


def test_attach_by_path_both_directions_declines():
    d = random_smd_digraph(8, 4, 0.4, 107)
    c = GWalk("cycle", (1, 2, 4))
    both = [v for v in (3, 5, 6, 7, 8)
            if any((v, x) in d.arcs for x in c.seq) and any((x, v) in d.arcs for x in c.seq)]
    assert both and all(_attach_by_path(d, c, v) is None for v in both)


def test_real_cycle_among_uncovered():
    d = random_smd_digraph(8, 4, 0.4, 233)
    out = _real_cycle_among(d, [1, 2, 3, 4, 5, 6])
    assert out.seq == (1, 2, 6, 5)
    assert all((u, v) in d.arcs for u, v in out.pairs())
    assert _real_cycle_among(d, [1]) is None


@pytest.mark.parametrize("part, arcs, seedling", [
    ([1, 2, 3, 4], [(1, 4), (2, 1), (2, 3), (3, 1), (3, 2), (4, 2), (4, 3)], (2, 3)),
    ([1, 2, 3, 3], [(1, 3), (1, 4), (2, 1), (3, 2), (4, 2)], (3, 4)),
])
def test_grow_factor_stalled_growth_falls_back_to_the_max_factor(part, arcs, seedling):
    # no uncovered vertex inserts into the seedling, and the uncovered rest
    # holds neither a real cycle nor two vertices of one partite set
    d = PartitionedDigraph(part, arcs)
    assert is_strong(d)
    f0 = GFactor((GWalk("cycle", seedling),))
    grown = grow_factor(d, f0)
    assert grown == max_arc_gcycle_factor(d)
    assert grown.arc_count(d) == c_f(d) >= f0.arc_count(d)
