import random

import numpy as np
import pytest
from hypothesis import example, given, settings, strategies as st

from gmpd import factor
from gmpd.cli import main
from gmpd.digraph import PartitionedDigraph
from gmpd.errors import CertificateError, Degenerate, NoFactor
from gmpd.factor import (
    INF,
    c_f,
    completion_costs,
    lexmin_assignment,
    max_arc_gcycle_factor,
    max_arc_path_cycle_subdigraph,
    solve_assignment,
)
from gmpd.fileformat import emit_instance
from gmpd.generators import fig1 as fig1_instance, fig2, noclose
from gmpd.walks import walk_length

from conftest import (
    brute_longest_gpath,
    brute_min_assignment,
    random_smd_digraph,
    reference_completion_costs,
    reference_greedy_start,
    reference_lexmin_assignment,
    reference_path_grid,
    scipy_min_assignment,
)


smd = st.builds(
    random_smd_digraph,
    n=st.integers(8, 40),
    c=st.integers(2, 4),
    density=st.sampled_from([0.1, 0.3, 0.5]),
    seed=st.integers(0, 10 ** 6),
)


def test_assignment_matches_brute_force():
    import random

    rng = random.Random(5)
    for _ in range(120):
        n = rng.randint(2, 6)
        cost = [[rng.choice([0, 0, 1, 1, INF]) for _ in range(n)] for _ in range(n)]
        for i in range(n):
            cost[i][i] = INF
        got = solve_assignment([row[:] for row in cost])
        want = brute_min_assignment(cost)
        if want is None:
            assert got is None
        else:
            assert got is not None and got[0] == want[0]


def test_lexmin_assignment_is_lexicographic_minimum():
    import random

    rng = random.Random(9)
    for _ in range(60):
        n = rng.randint(2, 5)
        cost = [[rng.choice([0, 1, 1, INF]) for _ in range(n)] for _ in range(n)]
        for i in range(n):
            cost[i][i] = INF
        got = lexmin_assignment([row[:] for row in cost])
        want = brute_min_assignment(cost)
        if want is None:
            assert got is None
        else:
            assert got is not None
            assert got[0] == want[0] and got[1] == want[1]


def test_fig1_factor_is_hamiltonian(fig1):
    f = max_arc_gcycle_factor(fig1)
    assert f.arc_count(fig1) == 5
    assert c_f(fig1) == 5


def test_complete_digraph_triangle():
    d = PartitionedDigraph([1, 2, 3], [(u, v) for u in (1, 2, 3) for v in (1, 2, 3) if u != v])
    assert c_f(d) == 3


def test_fig2_factor_value():
    assert c_f(fig2().digraph) == 16


def test_noclose_factor_value():
    assert c_f(noclose(1, 3).digraph) == 3


def test_degenerate_single_vertex():
    d = PartitionedDigraph([1], [])
    with pytest.raises(Degenerate):
        max_arc_gcycle_factor(d)


def test_factor_cycles_have_two_or_more_vertices():
    for seed in range(40):
        d = random_smd_digraph(6 + seed % 3, 2 + seed % 3, 0.35, seed)
        try:
            f = max_arc_gcycle_factor(d)
        except Exception:
            continue
        assert all(len(cyc.seq) >= 2 for cyc in f.cycles)


def test_c_f_equals_n_minus_mincost():
    for seed in range(40):
        d = random_smd_digraph(5 + seed % 4, 2 + seed % 3, 0.4, seed + 10)
        solved = solve_assignment(completion_costs(d))
        if solved is None:
            continue
        assert c_f(d) == d.n - solved[0]


def test_path_cycle_semicomplete_gives_ham_path():
    d = PartitionedDigraph([1, 2, 3, 4], [(1, 2), (2, 3), (3, 4), (1, 3), (2, 4), (1, 4)])
    p, rem = max_arc_path_cycle_subdigraph(d)
    assert walk_length(d, p) == 3 and not rem.cycles


def test_path_cycle_single_partite_set():
    d = PartitionedDigraph([1, 1, 1], [])
    p, rem = max_arc_path_cycle_subdigraph(d)
    total = walk_length(d, p) + rem.arc_count(d)
    assert total == 0
    covered = set(p.seq) | rem.vertex_set()
    assert covered == {1, 2, 3}


def test_path_cycle_total_matches_brute_force():
    for seed in range(60):
        n = 5 + seed % 3
        d = random_smd_digraph(n, 2 + seed % 3, 0.35, seed + 40)
        p, rem = max_arc_path_cycle_subdigraph(d)
        total = walk_length(d, p) + rem.arc_count(d)
        assert total == brute_longest_gpath(d)


@settings(max_examples=40)
@given(st.builds(random_smd_digraph, st.integers(1, 40), st.integers(1, 5),
                 st.sampled_from([0.0, 0.3, 0.7]), st.integers(0, 10 ** 6)))
@example(PartitionedDigraph([1], []))
@example(PartitionedDigraph([1, 2, 1], [(1, 2)]))   # (2, 1), (2, 3) and (3, 2) are forbidden
def test_completion_costs_match_the_pair_loop(d):
    got = completion_costs(d)
    assert got == reference_completion_costs(d)
    assert all(type(x) is int for row in got for x in row)


@settings(max_examples=40)
@given(st.builds(random_smd_digraph, st.integers(1, 40), st.integers(1, 5),
                 st.sampled_from([0.0, 0.3, 0.7]), st.integers(0, 10 ** 6)))
@example(PartitionedDigraph([1], []))
@example(PartitionedDigraph([1, 2, 1], [(1, 2)]))   # (2, 1), (2, 3) and (3, 2) are forbidden
@example(PartitionedDigraph([1, 1, 2], [(1, 2), (2, 1)]))   # (3, 1), (2, 3) and (3, 2)
def test_cost_grid_matches_the_list_grids(d):
    """The mask-built grid, plain and padded with the dummy vertex, equals the
    pair-by-pair grid and its row-by-row padding."""
    grid = reference_completion_costs(d)
    for pad, want in ((0, grid), (1, reference_path_grid(grid))):
        got = factor._cost_grid(d, pad)
        assert got.dtype == np.int64 and got.tolist() == want


def random_grid(n, seed):
    """A square grid of costs 0, 1 and forbidden, forbidden on the diagonal."""
    rng = random.Random(seed)
    grid = [[rng.choice([0, 0, 1, 1, INF]) for _ in range(n)] for _ in range(n)]
    for i in range(n):
        grid[i][i] = INF
    return grid


@settings(max_examples=60)
@given(st.one_of(
    st.builds(random_grid, st.integers(1, 30), st.integers(0, 10 ** 6)),
    st.builds(lambda d, pad: factor._cost_grid(d, pad), smd, st.integers(0, 1)),
))
def test_bitmask_greedy_start_matches_the_row_scan(grid):
    """The bitmask greedy start picks the row scan's columns, so the whole
    solve (total, succ and both duals) is the one the row scan starts."""
    c = np.asarray(grid, dtype=np.int64)
    assert factor._greedy_start(c) == reference_greedy_start(c)
    got = solve_assignment(grid)
    with pytest.MonkeyPatch.context() as mp:
        mp.setattr(factor, "_greedy_start", reference_greedy_start)
        want = solve_assignment(grid)
    if want is None:
        assert got is None
    else:
        assert (got.total, got.succ) == (want.total, want.succ)
        assert np.array_equal(got.u, want.u) and np.array_equal(got.v, want.v)


@given(smd)
def test_lexmin_matches_resolve_reference(d):
    grid = completion_costs(d)
    for g in (grid, reference_path_grid(grid)):
        assert lexmin_assignment(g) == reference_lexmin_assignment(g)


@settings(max_examples=12)
@given(st.integers(2, 200), st.integers(2, 4), st.integers(0, 10 ** 6))
def test_factor_totals_match_scipy(n, c, seed):
    d = random_smd_digraph(n, c, 0.3, seed)
    grid = completion_costs(d)
    cycle_cost = scipy_min_assignment(grid)
    if cycle_cost is None:
        with pytest.raises(NoFactor):
            max_arc_gcycle_factor(d)
    else:
        assert max_arc_gcycle_factor(d).arc_count(d) == n - cycle_cost
    p, rem = max_arc_path_cycle_subdigraph(d)
    assert walk_length(d, p) + rem.arc_count(d) == n - 1 - scipy_min_assignment(reference_path_grid(grid))


def test_c_f_validates_each_factor_cycle_once(monkeypatch):
    """max_arc_gcycle_factor validates each cycle; c_f then only counts
    arcs, so jump_metrics validates each factor cycle exactly once."""
    from gmpd import search, walks

    d = fig2().digraph
    cycles = max_arc_gcycle_factor(d).cycles
    seen = []
    monkeypatch.setattr(walks, "validate_walk", lambda d, w, _fn=walks.validate_walk:
                        seen.append(w) or _fn(d, w))
    assert search.jump_metrics(d).c_f == 16 and len(cycles) > 1
    assert seen == list(cycles)


def test_corrupt_duals_raise_certificate_error(monkeypatch, tmp_path):
    real = factor.solve_assignment

    def shifted_duals(cost):
        total, succ, u, v = real(cost)
        return factor.Assignment(total, succ, u + 1, v)

    monkeypatch.setattr(factor, "solve_assignment", shifted_duals)
    inst = fig1_instance()
    with pytest.raises(CertificateError):
        max_arc_gcycle_factor(inst.digraph)
    path = tmp_path / "fig1.gmpd"
    path.write_text(emit_instance(inst))
    assert main(["factor", str(path)]) == 2


def test_negative_costs_are_rejected():
    with pytest.raises(ValueError):
        solve_assignment([[INF, -1], [0, INF]])
