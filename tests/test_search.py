import random
from itertools import combinations
from types import SimpleNamespace

import pytest
from hypothesis import given, settings, strategies as st

from gmpd import search
from gmpd.digraph import PartitionedDigraph, augment_terminals, is_k_strong, is_strong
from gmpd.errors import CertificateError, TooLarge
from gmpd.generators import fig1 as fig1_instance, fig2, noclose
from gmpd.search import (
    exact_ham_cycle,
    exact_xy_spanning_gpath,
    jump_metrics,
    oracle_longest_gpath,
    oracle_longest_spanning_gcycle,
    resolve_threshold,
    spanning_gcycle_at_least,
)
from gmpd.walks import is_spanning, validate_walk, walk_length

from conftest import (
    brute_longest_gpath,
    brute_longest_spanning_gcycle,
    random_smd_digraph,
    reference_jump_distances,
    reference_jump_matrix,
    reference_max_arc_walk,
    reference_spanning_gcycle_at_least,
    reference_xy_spanning_gpath,
)


def test_threshold_resolution_order(monkeypatch):
    monkeypatch.delenv("GMPD_EXACT_THRESHOLD", raising=False)
    assert resolve_threshold(16) == 16
    monkeypatch.setenv("GMPD_EXACT_THRESHOLD", "12")
    assert resolve_threshold(16) == 12
    assert resolve_threshold(16, override=20) == 20


def test_too_large_raised(fig1):
    with pytest.raises(TooLarge):
        exact_ham_cycle(fig1, threshold=3)


@pytest.mark.parametrize("explicit", [True, False])
def test_word_width_guard_refuses_before_allocating(monkeypatch, explicit):
    """A table keeps a subset's ends in one uint32 word, so a threshold past
    31 still refuses 32 vertices, before any table is built."""
    from gmpd import search

    def no_table(*args):
        raise AssertionError("a subset table was built")

    for name in ("_popcount_layers", "_push_layers", "_reach_dp_fast", "_fewest_jumps"):
        monkeypatch.setattr(search, name, no_table)
    monkeypatch.setenv("GMPD_EXACT_THRESHOLD", "40")
    threshold = 40 if explicit else None
    d = random_smd_digraph(32, 4, 0.5, 3)
    assert jump_metrics(d).bound == 32
    for call in (lambda: exact_ham_cycle(d, threshold),
                 lambda: exact_xy_spanning_gpath(d, 1, 2, threshold),
                 lambda: oracle_longest_spanning_gcycle(d, threshold),
                 lambda: oracle_longest_gpath(d, threshold),
                 lambda: spanning_gcycle_at_least(d, 1, threshold)):
        with pytest.raises(TooLarge) as err:
            call()
        assert (err.value.n, err.value.threshold) == (32, 31)


def test_fig1_ham_cycle_canonical(fig1):
    cyc = exact_ham_cycle(fig1)
    assert cyc is not None and cyc.seq == (1, 3, 5, 2, 4)


def test_transitive_tournament_no_ham():
    d = PartitionedDigraph([1, 2, 3], [(1, 2), (2, 3), (1, 3)])
    assert exact_ham_cycle(d) is None


def test_ham_cycle_accepts_augmented(fig1):
    dx = augment_terminals(fig1, {4})
    cyc = exact_ham_cycle(dx)
    assert cyc is not None


def test_oracles_match_brute_force():
    for seed in range(50):
        n = 5 + seed % 3
        d = random_smd_digraph(n, 2 + seed % 3, 0.35, seed + 5)
        oc = oracle_longest_spanning_gcycle(d)
        want_c = brute_longest_spanning_gcycle(d)
        assert (oc[0] if oc else None) == want_c
        op, _ = oracle_longest_gpath(d)
        assert op == brute_longest_gpath(d)


def test_oracle_witnesses_validate():
    for seed in range(30):
        d = random_smd_digraph(7, 3, 0.4, seed + 77)
        res = oracle_longest_spanning_gcycle(d)
        if res is not None:
            arcs, walk = res
            validate_walk(d, walk)
            assert is_spanning(d, walk) and walk_length(d, walk) == arcs
        arcs, walk = oracle_longest_gpath(d)
        validate_walk(d, walk)
        assert walk_length(d, walk) == arcs


# exact witnesses of both oracles on seeded instances: any change to the
# subset-DP kernel must keep breaking ties the same way
ORACLE_WITNESSES = {
    "fig1": (lambda: fig1_instance().digraph,
             (5, (1, 3, 5, 2, 4)), (4, (3, 5, 2, 4, 1))),
    "fig2": (lambda: fig2().digraph,
             (14, (1, 10, 3, 11, 9, 5, 15, 7, 6, 14, 13, 12, 4, 16, 8, 2)),
             (15, (9, 1, 10, 5, 15, 7, 6, 14, 13, 12, 11, 3, 2, 4, 16, 8))),
    "noclose_2_3": (lambda: noclose(2, 3).digraph,
                    (6, (1, 6, 5, 8, 3, 4, 7, 2)), (7, (3, 6, 8, 2, 5, 7, 1, 4))),
    "random_9_3": (lambda: random_smd_digraph(9, 3, 0.35, 7),
                   (8, (1, 9, 8, 7, 5, 4, 6, 3, 2)), (8, (7, 9, 4, 5, 6, 8, 3, 2, 1))),
    "random_8_2": (lambda: random_smd_digraph(8, 2, 0.4, 12),
                   (6, (1, 6, 8, 7, 4, 5, 3, 2)), (6, (7, 1, 6, 4, 5, 8, 3, 2))),
    "random_10_5": (lambda: random_smd_digraph(10, 5, 0.25, 41),
                    (10, (1, 9, 10, 7, 8, 6, 5, 2, 4, 3)),
                    (9, (9, 10, 7, 8, 6, 5, 2, 4, 3, 1))),
    "transitive_5": (lambda: PartitionedDigraph(
                         [1, 2, 3, 4, 5], [(u, v) for u in range(1, 6) for v in range(u + 1, 6)]),
                     None, (4, (1, 2, 3, 4, 5))),
    # seven jumps: the deepest jump levels of the benchmark's instances
    "noclose_1_8": (lambda: noclose(1, 8).digraph,
                    (8, (1, 4, 3, 6, 5, 8, 7, 10, 9, 12, 11, 14, 13, 15, 2)),
                    (14, (2, 4, 6, 8, 10, 12, 14, 15, 1, 3, 5, 7, 9, 11, 13))),
    "one_vertex": (lambda: PartitionedDigraph([1], []), None, (0, (1,))),
    "two_jumps": (lambda: PartitionedDigraph([1, 1], []), (0, (1, 2)), (0, (2, 1))),
    "one_arc": (lambda: PartitionedDigraph([1, 2], [(1, 2)]), None, (1, (1, 2))),
}


@pytest.mark.parametrize("name", sorted(ORACLE_WITNESSES))
def test_oracle_witnesses_pinned(name):
    build, want_cycle, want_path = ORACLE_WITNESSES[name]
    d = build()
    got = oracle_longest_spanning_gcycle(d)
    assert (None if got is None else (got[0], got[1].seq)) == want_cycle
    arcs, walk = oracle_longest_gpath(d)
    assert (arcs, walk.seq) == want_path


def test_complete_digraph_oracles():
    n = 4
    arcs = [(u, v) for u in range(1, n + 1) for v in range(1, n + 1) if u != v]
    d = PartitionedDigraph(list(range(1, n + 1)), arcs)
    assert oracle_longest_spanning_gcycle(d)[0] == 4
    assert oracle_longest_gpath(d)[0] == 3


def test_at_least_zero_on_hamiltonian(fig1):
    w = spanning_gcycle_at_least(fig1, 0)
    assert w is not None and walk_length(fig1, w) == 5


def test_at_least_matches_oracle():
    for seed in range(40):
        d = random_smd_digraph(6 + seed % 3, 2 + seed % 3, 0.3, seed + 33)
        res = oracle_longest_spanning_gcycle(d)
        best = res[0] if res else None
        for k in range(0, 4):
            got = spanning_gcycle_at_least(d, k)
            want = best is not None and best >= d.n - k
            assert (got is not None) == want
            if got is not None:
                assert walk_length(d, got) >= d.n - k


def random_smds(low, high):
    return st.builds(random_smd_digraph, n=st.integers(low, high), c=st.integers(1, 5),
                     density=st.sampled_from([0.0, 0.2, 0.5]), seed=st.integers(0, 10 ** 6))


@settings(max_examples=150)
@given(st.builds(random_smd_digraph, n=st.sampled_from(range(1, 11)),
                 c=st.sampled_from([2, 3, 4, 10]), density=st.sampled_from([0.0, 0.2, 0.35, 0.5]),
                 seed=st.integers(0, 10 ** 6)),
       st.integers(0, 3))
def test_jump_levels_match_the_int32_table(d, k):
    """Both oracles, the prescribed-end walks and the n-k decision give the
    verdicts and witnesses of the tables the jump levels replaced."""
    cycle = reference_max_arc_walk(d, [0], close=True)
    assert oracle_longest_spanning_gcycle(d, threshold=10) == cycle
    assert oracle_longest_gpath(d, threshold=10) == reference_max_arc_walk(d, range(d.n), False)
    if d.n > 1:
        for x, y in sorted({(1, d.n), (d.n, 1), (d.n // 2 + 1, d.n // 3 + 1)}):
            assert x == y or exact_xy_spanning_gpath(d, x, y) == reference_xy_spanning_gpath(d, x, y)
    got = spanning_gcycle_at_least(d, k)
    assert got == reference_spanning_gcycle_at_least(d, k)
    assert (got is not None) == (cycle is not None and cycle[0] >= d.n - k)


def shared_dominating_union(a, b):
    """a and b side by side on shared partite indices, with every arc between
    them from a to b: an SMD in which b reaches a only by jumps."""
    part = list(a.part_vector) + list(b.part_vector)
    arcs = set(a.arcs) | {(u + a.n, v + a.n) for u, v in b.arcs}
    arcs |= {(u, v) for u in a.vertices() for v in range(a.n + 1, len(part) + 1)
             if part[u - 1] != part[v - 1]}
    return PartitionedDigraph(part, arcs)


@settings(max_examples=60)
@given(st.one_of(random_smds(4, 12), st.builds(shared_dominating_union, random_smds(2, 6),
                                                random_smds(2, 6))),
       st.integers(0, 4))
def test_at_least_matches_reference_enumeration(d, k):
    assert spanning_gcycle_at_least(d, k) == reference_spanning_gcycle_at_least(d, k)


# no generalized cycle factor: vertex 3 has no out-arc and no partite mate
NO_FACTOR = PartitionedDigraph([1, 2, 3], [(1, 2), (2, 3), (1, 3)])
NAMED = {
    "noclose 1 3": (noclose(1, 3).digraph, 4),
    "noclose 2 3": (noclose(2, 3).digraph, 4),
    "noclose 1 5": (noclose(1, 5).digraph, 4),
    "noclose 2 4": (noclose(2, 4).digraph, 4),
    "fig1": (fig1_instance().digraph, 2),
    "fig2": (fig2().digraph, 2),
    "one vertex": (PartitionedDigraph([1], []), 2),
    "no factor": (NO_FACTOR, 2),
    # bound 3 leaves k = 1 open, and the enumeration answers "no"
    "dominated two-cycles": (PartitionedDigraph(
        [1, 2, 1, 2], [(1, 2), (2, 1), (3, 4), (4, 3), (3, 2), (4, 1)]), 2),
}


@pytest.mark.parametrize("name", NAMED)
def test_at_least_named_instances_match_reference(name):
    d, k_max = NAMED[name]
    for k in range(k_max + 1):
        assert spanning_gcycle_at_least(d, k) == reference_spanning_gcycle_at_least(d, k), k


@settings(max_examples=80)
@given(st.one_of(random_smds(1, 10), st.builds(shared_dominating_union, random_smds(1, 5),
                                                random_smds(1, 5))))
def test_tail_mask_is_the_union_of_the_working_sets(d):
    """The tail mask holds exactly the vertices of the terminal sets, at the
    first size where any works, whose augmented instance is Hamiltonian."""
    working = []
    for size in range(d.n + 1):
        working = [x_set for x_set in combinations(range(1, d.n + 1), size)
                   if exact_ham_cycle(augment_terminals(d, x_set), threshold=d.n) is not None]
        if working:
            break
    found = search._fewest_jumps(d, [0], True, d.n)
    assert (found is None) == (not working)
    if found:
        jumps, _, levels = found
        assert jumps == size and (levels is None or len(levels) - 1 == size)
        assert search._tail_mask(d, jumps, levels) == sum({1 << v - 1 for x in working for v in x})


def test_at_least_searches_one_terminal_set_on_fig2(monkeypatch):
    """fig2 needs two jumps; its tail mask is {7-12, 15, 16}, and the first
    pair it admits, (7, 8), is the one whose augmented instance answers."""
    d, calls = fig2().digraph, []

    def spy(dx, threshold=None):
        calls.append(sorted(dx.arcs - d.arcs))
        return exact_ham_cycle(dx, threshold)

    jumps, _, levels = search._fewest_jumps(d, [0], True, 2)
    assert search._tail_mask(d, jumps, levels) == sum(1 << v - 1 for v in (7, 8, 9, 10, 11, 12, 15, 16))
    monkeypatch.setattr(search, "exact_ham_cycle", spy)
    got = spanning_gcycle_at_least(d, 2)
    assert len(calls) == 1 and {u for u, _ in calls[0]} == {7, 8}
    assert got == reference_spanning_gcycle_at_least(d, 2)


def _witness_tails_dropped(d, jumps, levels, tail_mask=search._tail_mask):
    seq, part = search._fewest_jumps(d, [0], True, d.n)[1], d.part_vector
    own = sum(1 << u for u, v in zip(seq, seq[1:] + seq[:1]) if part[u] == part[v])
    return tail_mask(d, jumps, levels) & ~own


@pytest.mark.parametrize("name, value", [
    ("_tail_mask", _witness_tails_dropped),                       # a mask that misses a tail
    ("exact_ham_cycle", lambda dx, threshold=None: None),         # no set answers
    ("jump_metrics", lambda d: SimpleNamespace(bound=d.n - 3)),   # a bound below n - J
])
def test_at_least_raises_when_the_enumeration_contradicts_the_levels(monkeypatch, name, value):
    """A failed certificate raises; it never reads as a "no"."""
    monkeypatch.setattr(search, name, value)
    with pytest.raises(CertificateError):
        spanning_gcycle_at_least(fig2().digraph, 3)


def _undecided(*args):
    """A `_ham_search` that always gives up, so every engine builds its tables."""
    return False, None


def test_popcount_layers_keep_every_size(monkeypatch):
    """The layer cache holds one entry per size, so a second pass over more
    sizes than the old eight-entry cache held rebuilds nothing.  The search
    gives up, so the cycle oracle builds its jump levels at every size."""
    monkeypatch.setattr(search, "_ham_search", _undecided)
    search._popcount_layers.cache_clear()
    sizes = range(3, 13)
    for _ in range(2):
        for n in sizes:
            oracle_longest_spanning_gcycle(random_smd_digraph(n, 3, 0.3, n), threshold=n)
    assert search._popcount_layers.cache_info().misses == len(sizes)


def _both_engines(call):
    """call()'s answer from the backward search with no state budget, and
    from the subset tables alone."""
    unbounded = search._ham_search
    answers = []
    for stub in (lambda *args: unbounded(*args[:-1], float("inf")), _undecided):
        with pytest.MonkeyPatch.context() as mp:
            mp.setattr(search, "_ham_search", stub)
            answers.append(call())
    return answers


@settings(max_examples=150)
@given(random_smds(1, 12), st.data())
def test_backward_search_returns_the_table_witness(d, data):
    """With its budget lifted, the backward search gives every verdict and
    witness of the tables: for cycles, cycles of augmented instances,
    spanning (x,y)-walks, both longest-walk oracles, the n-k decision and
    the capped cycle search of the lossy merge."""
    n = d.n
    terminals = data.draw(st.sets(st.integers(1, n), max_size=3))
    dx = augment_terminals(d, terminals)
    found, table = _both_engines(lambda: exact_ham_cycle(dx, threshold=n))
    assert found == table
    for _ in range(3 if n > 1 else 0):
        x, y = data.draw(st.lists(st.integers(1, n), min_size=2, max_size=2, unique=True))
        found, table = _both_engines(lambda: exact_xy_spanning_gpath(d, x, y, threshold=n))
        assert found == table
    calls = [lambda: oracle_longest_spanning_gcycle(d, threshold=n),
             lambda: oracle_longest_gpath(d, threshold=n)]
    calls += [lambda k=k: spanning_gcycle_at_least(d, k, threshold=n) for k in (0, 1, 2)]
    floor = data.draw(st.integers(0, n - 1))   # `_dp_merge`: floor < n allows n - floor jumps
    calls.append(lambda: search._max_arc_walk(d, [0], True, n - floor))
    for call in calls:
        found, table = _both_engines(call)
        assert found == table


def test_search_past_its_budget_returns_the_table_witness(monkeypatch):
    """fig2 augmented at {7, 8} needs more than n·n backward states, so the
    table runs once, and it finds the cycle the unbounded search finds."""
    dx = augment_terminals(fig2().digraph, (7, 8))
    want = (1, 9, 4, 12, 11, 6, 14, 13, 5, 16, 8, 2, 10, 3, 15, 7)
    assert [w.seq for w in _both_engines(lambda: exact_ham_cycle(dx))] == [want, want]
    pushes = []
    monkeypatch.setattr(search, "_push_layers", lambda *args, _fn=search._push_layers:
                        pushes.append(args[0]) or _fn(*args))
    assert exact_ham_cycle(dx).seq == want and pushes == [dx.n]


def test_xy_gpath_yes_at_n20_builds_no_table(monkeypatch):
    """A random n = 20 "yes" is answered by the backward search alone."""
    monkeypatch.setattr(search, "_push_layers", lambda *args: pytest.fail("a table was built"))
    d = random_smd_digraph(20, 4, 0.5, 0)
    walk = exact_xy_spanning_gpath(d, 13, 14)
    assert walk.seq[0] == 13 and walk.seq[-1] == 14 and is_spanning(d, walk)


def test_zero_jump_oracles_at_n18_build_no_table(monkeypatch):
    """A random n = 18 instance with a Hamiltonian cycle: both oracles find
    their zero-jump witness by the backward search alone."""
    monkeypatch.setattr(search, "_push_layers", lambda *args: pytest.fail("a table was built"))
    d = random_smd_digraph(18, 4, 0.5, 0)
    arcs, cycle = oracle_longest_spanning_gcycle(d, threshold=d.n)
    assert arcs == 18 and is_spanning(d, cycle) and walk_length(d, cycle) == 18
    arcs, path = oracle_longest_gpath(d)
    assert arcs == 17 and is_spanning(d, path) and walk_length(d, path) == 17


def test_at_least_bound_decides_no_past_the_size_cap():
    d = noclose(4, 9).digraph
    assert d.n == 44 and jump_metrics(d).bound == 36
    assert spanning_gcycle_at_least(d, 2) is None
    assert spanning_gcycle_at_least(d, 6) is None
    # a transitive tournament on 25 vertices has no cycle factor, so no bound
    d = PartitionedDigraph(list(range(1, 26)), [(u, v) for u in range(1, 26)
                                                for v in range(u + 1, 26)])
    assert jump_metrics(d).bound is None
    assert spanning_gcycle_at_least(d, 2) is None


def test_at_least_open_past_the_size_cap_raises_too_large():
    d = random_smd_digraph(22, 4, 0.5, 7)
    assert jump_metrics(d).bound >= d.n - 2
    with pytest.raises(TooLarge):
        spanning_gcycle_at_least(d, 2)


def test_at_least_checks_k_before_the_bound():
    d = noclose(4, 9).digraph
    with pytest.raises(ValueError):
        spanning_gcycle_at_least(d, -1)
    with pytest.raises(TooLarge):
        spanning_gcycle_at_least(d, 7)


def test_xy_gpath_two_vertices():
    d = PartitionedDigraph([1, 2], [(1, 2)])
    assert exact_xy_spanning_gpath(d, 1, 2).seq == (1, 2)
    assert exact_xy_spanning_gpath(d, 2, 1) is None


def test_xy_gpath_matches_brute_force():
    from itertools import permutations

    for seed in range(25):
        n = 5 + seed % 2
        d = random_smd_digraph(n, 2 + seed % 3, 0.4, seed + 44)
        for x in d.vertices():
            for y in d.vertices():
                if x == y:
                    continue
                got = exact_xy_spanning_gpath(d, x, y)
                mids = [v for v in d.vertices() if v not in (x, y)]
                want = False
                for perm in permutations(mids):
                    seq = (x,) + perm + (y,)
                    if all(
                        (u, v) in d.arcs or d.part(u) == d.part(v)
                        for u, v in zip(seq, seq[1:])
                    ):
                        want = True
                        break
                assert (got is not None) == want
                if got is not None:
                    assert got.seq[0] == x and got.seq[-1] == y and len(got.seq) == d.n


def test_four_strong_instances_have_all_xy_paths():
    built = 0
    for seed in range(40):
        d = random_smd_digraph(8 + seed % 3, 4 + seed % 2, 0.75, seed + 3)
        if not is_k_strong(d, 4):
            continue
        built += 1
        for x in d.vertices():
            for y in d.vertices():
                if x != y:
                    assert exact_xy_spanning_gpath(d, x, y) is not None
        if built >= 3:
            break
    assert built >= 1


def test_jump_metrics_strong_gives_zero(fig1):
    jm = jump_metrics(fig1)
    assert jm.N == 0 and jm.bound == 5 and not jm.unreachable


def test_jump_metrics_single_vertex_has_no_bound():
    jm = jump_metrics(PartitionedDigraph([1], []))
    assert jm.N == 0 and jm.c_f is None and jm.bound is None
    assert dict(jm.n_xy) == {} and jm.unreachable == ()


def test_jump_metrics_bipartite_counterexample():
    # two disjoint two-cycles, second dominating the first: c_f=n, N=1,
    # bound n-1, but no spanning cycle reaches n-1 arcs
    d = PartitionedDigraph(
        [1, 2, 1, 2],
        [(1, 2), (2, 1), (3, 4), (4, 3), (3, 2), (4, 1)],
    )
    assert not is_strong(d)
    jm = jump_metrics(d)
    assert jm.N == 1 and jm.c_f == 4 and jm.bound == 3
    res = oracle_longest_spanning_gcycle(d)
    assert res is not None and res[0] < 3


def test_observation_bound_on_randoms():
    for seed in range(60):
        d = random_smd_digraph(6 + seed % 3, 2 + seed % 3, 0.3, seed + 70)
        jm = jump_metrics(d)
        res = oracle_longest_spanning_gcycle(d)
        if res is None:
            continue
        assert jm.bound is not None and res[0] <= jm.bound


def test_unreachable_pairs_reported():
    d = PartitionedDigraph([1, 2], [(1, 2)])
    jm = jump_metrics(d)
    assert (2, 1) in jm.unreachable
    assert jm.n_xy[(1, 2)] == 0


def test_fig2_not_hamiltonian():
    # the committed instance tops out below n, so no Hamiltonian cycle
    from gmpd.generators import fig2

    assert exact_ham_cycle(fig2().digraph) is None


def test_fig2_oracle_pinned():
    # regression pin for the committed sixteen-vertex instance: two jumps
    # suffice, so the spanning maximum sits at n-2
    from gmpd.generators import fig2

    d = fig2().digraph
    res = oracle_longest_spanning_gcycle(d)
    assert res is not None and res[0] == 14
    arcs, walk = res
    assert is_spanning(d, walk) and walk_length(d, walk) == 14


def test_fig2_has_hamiltonian_path():
    from gmpd.generators import fig2

    d = fig2().digraph
    assert oracle_longest_gpath(d, threshold=16)[0] == 15


def dominating_union(a, b):
    """a and b side by side on disjoint partite sets, every arc from a to b:
    a non-strong SMD in which no vertex of b reaches a at all."""
    part = list(a.part_vector) + [p + a.c for p in b.part_vector]
    arcs = set(a.arcs) | {(u + a.n, v + a.n) for u, v in b.arcs}
    arcs |= {(u, v + a.n) for u in a.vertices() for v in b.vertices()}
    return PartitionedDigraph(part, arcs)


smd = st.builds(
    random_smd_digraph,
    n=st.integers(2, 20),
    c=st.integers(1, 5),
    density=st.sampled_from([0.0, 0.1, 0.3]),
    seed=st.integers(0, 10 ** 6),
)


@given(smd, st.one_of(st.none(), smd))
def test_jump_metrics_match_zero_one_bfs(a, b):
    d = a if b is None else dominating_union(a, b)
    want, unreachable = {}, []
    for x in d.vertices():
        dist = reference_jump_distances(d, x)
        for y in d.vertices():
            if x == y:
                continue
            if y in dist:
                want[(x, y)] = dist[y]
            else:
                unreachable.append((x, y))
    jm = jump_metrics(d)
    assert jm.n_xy == want and want == jm.n_xy
    assert list(jm.n_xy.items()) == list(want.items())
    assert len(jm.n_xy) == len(want)
    assert jm.unreachable == tuple(unreachable)
    assert b is None or len(unreachable) >= a.n * b.n
    assert jm.N == max(want.values(), default=0)
    assert jm.bound == (None if jm.c_f is None else min(d.n - jm.N, jm.c_f))


def acyclic_smd(n, c, seed):
    """An SMD whose arcs all run forward in a shuffled vertex order, so every
    vertex is its own strong component; with c = n it is a transitive
    tournament."""
    rng = random.Random(seed)
    part = [i % c + 1 for i in range(n)]
    rng.shuffle(part)
    order = rng.sample(range(1, n + 1), n)
    arcs = [(u, v) for i, u in enumerate(order) for v in order[i + 1:] if part[u - 1] != part[v - 1]]
    return PartitionedDigraph(part, arcs)


acyclic = st.one_of(
    st.builds(lambda n, seed: acyclic_smd(n, n, seed), st.integers(1, 30), st.integers(0, 10 ** 6)),
    st.builds(acyclic_smd, st.integers(2, 30), st.integers(2, 5), st.integers(0, 10 ** 6)),
)


@settings(max_examples=60)
@given(st.one_of(acyclic, smd, st.builds(dominating_union, smd, smd)))
def test_jump_metrics_match_the_per_source_matrix(d):
    """One BFS per strong component gives the per-source matrix's items, in
    its order, its length, unreachable pairs and N, with one row per strong
    component."""
    dist = reference_jump_matrix(d)
    pairs = [(x, y) for x in range(d.n) for y in range(d.n) if x != y]
    want = {(x + 1, y + 1): dist[x][y] for x, y in pairs if dist[x][y] >= 0}
    jm = jump_metrics(d)
    assert list(jm.n_xy.items()) == list(want.items()) and len(jm.n_xy) == len(want)
    assert jm.unreachable == tuple((x + 1, y + 1) for x, y in pairs if dist[x][y] < 0)
    assert jm.N == max(map(max, dist))
    for key in ((1, 1), (0, 1), (1, d.n + 1), (d.n + 1, 1), *jm.unreachable):
        assert key not in jm.n_xy
    # vertices with the same reach lie in one strong component
    assert len(jm.n_xy._rows) == len({tuple(row) for row in dist})


def test_strong_instance_keeps_one_jump_row(monkeypatch):
    """On a strong instance every N(x, y) is 0: one row, from one forward and
    one backward closure."""
    d = random_smd_digraph(60, 4, 0.3, 1)
    assert is_strong(d)
    closures = []
    monkeypatch.setattr(search, "_closure", lambda *args, _fn=search._closure:
                        closures.append(args[1]) or _fn(*args))
    rows, comp = search._jump_rows(d)
    assert rows.shape == (1, d.n) and not rows.any() and not comp.any()
    assert len(closures) == 2
    monkeypatch.undo()
    jm = jump_metrics(d)
    assert jm.n_xy._rows.shape == (1, d.n) and len(jm.n_xy) == d.n * (d.n - 1)


def lopsided_bipartite(small, large, seed):
    """A semicomplete bipartite draw with partite sets of `small` and `large`
    vertices, every cross pair joined one or both ways."""
    rng = random.Random(seed)
    part = [1] * small + [2] * large
    arcs = []
    for u in range(1, small + 1):
        for v in range(small + 1, small + large + 1):
            r = rng.random()
            arcs += [(u, v), (v, u)] if r < 0.3 else [(u, v)] if r < 0.65 else [(v, u)]
    return PartitionedDigraph(part, arcs)


def test_oversized_partite_set_skips_the_zero_jump_search(monkeypatch):
    """With partite sets of 8 and 10 vertices no spanning cycle (at most 9
    of one set) or path (at most 9) has zero jumps, so neither oracle runs
    the backward search, and both answer as when it runs.  An augmented
    instance has arcs inside a partite set and still searches."""
    d = lopsided_bipartite(8, 10, 12)
    calls = []
    real = search._ham_search
    monkeypatch.setattr(search, "_ham_search", lambda *args: calls.append(args[2]) or real(*args))
    got = (oracle_longest_spanning_gcycle(d, threshold=18), oracle_longest_gpath(d))
    assert calls == [] and got[0][0] == got[1][0] == 16
    with pytest.MonkeyPatch.context() as mp:
        mp.setattr(search, "_parts_forbid_zero_jumps", lambda *args: False)
        assert (oracle_longest_spanning_gcycle(d, threshold=18), oracle_longest_gpath(d)) == got
    assert len(calls) == 2
    calls.clear()
    exact_ham_cycle(augment_terminals(d, [9]))
    assert calls == [1]


@pytest.mark.parametrize("small, large, searched", [(8, 9, ["path"]), (9, 9, ["cycle", "path"])])
def test_zero_jump_search_runs_at_the_size_limits(monkeypatch, small, large, searched):
    """A partite set of ceil(n/2) vertices leaves room for a spanning path
    with no jump, and one of n/2 vertices for a spanning cycle, so each
    oracle still searches there."""
    d = lopsided_bipartite(small, large, 12)
    calls = []
    real = search._ham_search
    monkeypatch.setattr(search, "_ham_search", lambda *args: calls.append(args[2]) or real(*args))
    oracle_longest_spanning_gcycle(d, threshold=d.n)
    oracle_longest_gpath(d)
    assert ["cycle" if starts == 1 else "path" for starts in calls] == searched


@settings(max_examples=80)
@given(random_smds(2, 11))
def test_at_least_zero_is_the_exact_hamiltonian_cycle(d):
    """With no jump to place, the fewest-jump cycle is exact_ham_cycle's."""
    assert spanning_gcycle_at_least(d, 0) == exact_ham_cycle(d)


def test_at_least_zero_builds_no_subset_table(monkeypatch):
    """k = 0 on a Hamiltonian instance is answered by the backward search
    alone: no subset table is built, and the empty terminal set is not
    searched again."""
    searches = []
    monkeypatch.setattr(search, "_push_layers", lambda *args: pytest.fail("a table was built"))
    monkeypatch.setattr(search, "_ham_search", lambda *args, _fn=search._ham_search:
                        searches.append(args[2]) or _fn(*args))
    d = fig1_instance().digraph
    w = spanning_gcycle_at_least(d, 0)
    assert searches == [1] and walk_length(d, w) == d.n
