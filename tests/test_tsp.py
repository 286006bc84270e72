from itertools import permutations

import pytest
from hypothesis import given, settings, strategies as st

import gmpd.factor
from gmpd.digraph import PartitionedDigraph, is_strong
from gmpd.errors import CliqueViolation, NotExtended
from gmpd.irreducible import spanning_gcycle_strong
from gmpd.search import jump_metrics
from gmpd.tsp import (
    MODE_AT_MOST_K,
    MODE_EXTENDED_EXACT,
    MODE_STRONG_BOUND,
    ZOTSPInstance,
    min_cost_ham_path,
    to_smd,
    tour_cost,
    validate_zotsp,
)
from gmpd.walks import walk_length

from conftest import random_extended_digraph, random_smd_digraph, reference_validate_zotsp


def _instance_from_smd(d):
    """Complete the instance back: every same-partite ordered pair becomes a
    weight-1 arc."""
    ones = set()
    for u in d.vertices():
        for v in d.vertices():
            if u != v and d.part(u) == d.part(v):
                ones.add((u, v))
    return ZOTSPInstance(n=d.n, arcs=d.arcs | frozenset(ones), ones=frozenset(ones))


def _brute_min_ham_path(inst):
    best = None
    for perm in permutations(range(1, inst.n + 1)):
        cost = 0
        ok = True
        for u, v in zip(perm, perm[1:]):
            if (u, v) not in inst.arcs:
                ok = False
                break
            cost += inst.weight((u, v))
        if ok and (best is None or cost < best):
            best = cost
    return best


def _brute_min_tour(inst):
    best = None
    verts = list(range(1, inst.n + 1))
    for perm in permutations(verts[1:]):
        seq = (verts[0],) + perm
        cost = 0
        ok = True
        for i in range(inst.n):
            u, v = seq[i], seq[(i + 1) % inst.n]
            if (u, v) not in inst.arcs:
                ok = False
                break
            cost += inst.weight((u, v))
        if ok and (best is None or cost < best):
            best = cost
    return best


def test_validate_all_zero_weights():
    d = PartitionedDigraph([1, 2, 3], [(1, 2), (2, 3), (3, 1)])
    inst = ZOTSPInstance(n=3, arcs=d.arcs, ones=frozenset())
    report = validate_zotsp(inst)
    assert report.ok and not report.cliques
    assert to_smd(inst).c == 3


def test_validate_detects_non_clique():
    arcs = {(1, 2), (2, 1), (2, 3), (1, 3), (3, 1), (3, 2)}
    inst = ZOTSPInstance(n=3, arcs=frozenset(arcs), ones=frozenset({(1, 2), (2, 1), (2, 3)}))
    report = validate_zotsp(inst)
    assert not report.ok
    with pytest.raises(CliqueViolation):
        to_smd(inst)


def test_round_trip_through_fig1(fig1):
    inst = _instance_from_smd(fig1)
    report = validate_zotsp(inst)
    assert report.ok and report.cliques == [frozenset({4, 5})]
    back = to_smd(inst)
    assert back.arcs == fig1.arcs
    assert {frozenset(back.partite_set(i)) for i in range(1, back.c + 1)} == {
        frozenset({1}),
        frozenset({2}),
        frozenset({3}),
        frozenset({4, 5}),
    }


def test_min_cost_path_all_zero():
    d = PartitionedDigraph([1, 2, 3], [(1, 2), (2, 3), (1, 3)])
    inst = ZOTSPInstance(n=3, arcs=d.arcs, ones=frozenset())
    seq, cost = min_cost_ham_path(inst)
    assert cost == 0 and len(seq) == 3


def test_min_cost_path_matches_brute_force():
    for seed in range(50):
        d = random_smd_digraph(5 + seed % 3, 2 + seed % 3, 0.35, seed + 2100)
        inst = _instance_from_smd(d)
        seq, cost = min_cost_ham_path(inst)
        assert cost == _brute_min_ham_path(inst)
        total = sum(inst.weight((u, v)) for u, v in zip(seq, seq[1:]))
        assert total == cost


def test_path_cost_plus_length_identity():
    from gmpd.construct import longest_gpath
    from gmpd.walks import walk_length

    for seed in range(40):
        d = random_smd_digraph(6 + seed % 3, 2 + seed % 3, 0.4, seed + 2200)
        inst = _instance_from_smd(d)
        _, cost = min_cost_ham_path(inst)
        assert cost + walk_length(d, longest_gpath(d)) == inst.n - 1


def test_tour_extended_exact_matches_brute_force():
    checked = 0
    for seed in range(150):
        d = random_extended_digraph(2 + seed % 4, 3, seed + 50)
        if d.n > 9:
            continue
        inst = _instance_from_smd(d)
        out = tour_cost(inst, MODE_EXTENDED_EXACT)
        want = _brute_min_tour(inst)
        if out["status"] == "no-tour":
            assert want is None
        else:
            checked += 1
            assert out["cost"] == want
    assert checked >= 30


def test_tour_extended_requires_extended(fig1):
    inst = _instance_from_smd(fig1)
    with pytest.raises(NotExtended):
        tour_cost(inst, MODE_EXTENDED_EXACT)


def test_tour_at_most_k_decision(fig1):
    inst = _instance_from_smd(fig1)
    out = tour_cost(inst, MODE_AT_MOST_K, k=0)
    assert out["status"] == "yes" and out["cost"] == 0


def test_tour_strong_bound_contains_optimum():
    for seed in range(40):
        d = random_smd_digraph(6 + seed % 3, 2 + seed % 3, 0.4, seed + 2400)
        if not is_strong(d):
            continue
        inst = _instance_from_smd(d)
        out = tour_cost(inst, MODE_STRONG_BOUND)
        want = _brute_min_tour(inst)
        assert want is not None
        assert out["low"] <= want <= out["high"]
        assert out["achieved"] >= want


def test_tour_strong_bound_solves_c_f_once(monkeypatch):
    # low is n minus the min{n-N, c_f} bound of jump_metrics, high and achieved
    # come from the strong route; the tour solves no assignment beyond the route's
    solves = []
    lexmin = gmpd.factor.lexmin_assignment
    monkeypatch.setattr(gmpd.factor, "lexmin_assignment",
                        lambda cost: solves.append(len(cost)) or lexmin(cost))
    checked = 0
    for seed in range(30):
        d = random_smd_digraph(7 + seed % 6, 2 + seed % 3, 0.3, seed + 900)
        if not is_strong(d):
            continue
        inst = _instance_from_smd(d)
        base = to_smd(inst)
        del solves[:]
        cyc, cert = spanning_gcycle_strong(base)
        route_solves = len(solves)
        del solves[:]
        out = tour_cost(inst, MODE_STRONG_BOUND)
        assert len(solves) == route_solves
        assert out["low"] == d.n - jump_metrics(base).bound
        assert out["high"] == d.n - cert["lower_bound"]
        assert out["achieved"] == d.n - walk_length(base, cyc)
        assert tuple(out["tour"]) == cyc.seq
        checked += 1
    assert checked >= 10


@st.composite
def weighted_instances(draw):
    """0/1-TSP instances from random SMDs (n 1-12) whose partite sets become
    weight-1 cliques, then changed by one of: up to three weight-1 arcs made
    weight 0, a weight-1 arc across two sets, a weight-1 pair with no arc,
    or one pair of vertices left with no arc."""
    d = random_smd_digraph(draw(st.sampled_from(range(1, 13))), draw(st.sampled_from(range(1, 6))),
                           draw(st.sampled_from([0.0, 0.3, 1.0])), draw(st.integers(0, 10 ** 6)))
    ones = {(u, v) for u in d.vertices() for v in d.vertices() if u != v and d.same_part(u, v)}
    arcs = set(d.arcs) | ones
    kind = draw(st.sampled_from(["cliques", "dropped", "bridged", "stray", "missing"]))
    pool = {"dropped": sorted(ones), "bridged": sorted(d.arcs),
            "stray": sorted((v, u) for u, v in d.arcs if (v, u) not in d.arcs),
            "missing": sorted(arcs)}.get(kind)
    if pool:
        picked = draw(st.lists(st.sampled_from(pool), min_size=1, max_size=3, unique=True))
        if kind == "dropped":
            ones -= set(picked)
        elif kind == "missing":
            (u, v), = picked[:1]
            arcs -= {(u, v), (v, u)}
            ones -= {(u, v), (v, u)}
        else:
            ones |= set(picked[:1])
    return ZOTSPInstance(d.n, frozenset(arcs), frozenset(ones))


@settings(max_examples=300)
@given(weighted_instances())
def test_mask_validate_zotsp_matches_pairwise(inst):
    assert validate_zotsp(inst) == reference_validate_zotsp(inst)
