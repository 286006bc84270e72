import ast
from pathlib import Path

import numpy as np
import pytest
from hypothesis import example, given, settings, strategies as st

import gmpd
from gmpd import merging, search
from gmpd.cli import main
from gmpd.digraph import PartitionedDigraph, induce, is_strong, strong_components
from gmpd.errors import CertificateError, TooLarge
from gmpd.fileformat import emit_instance
from gmpd.generators import fig2
from gmpd.irreducible import spanning_gcycle_strong
from gmpd.search import oracle_longest_spanning_gcycle
from gmpd.walks import GWalk, canonical_cycle

from conftest import random_smd_digraph

smd = st.builds(
    random_smd_digraph,
    st.integers(1, 14),
    st.integers(1, 4),
    st.sampled_from([0.0, 0.3, 0.7]),
    st.integers(0, 10 ** 6),
)


def min_jump_merge(d, vertices, floor):
    """The merge as the min-jump oracle answers it: the longest spanning
    generalized cycle of the induced union, kept if it reaches the floor."""
    sub, old = induce(d, vertices)
    res = oracle_longest_spanning_gcycle(sub, threshold=sub.n)
    if res is None or res[0] < floor:
        return None
    return canonical_cycle(GWalk("cycle", tuple(old[v - 1] for v in res[1].seq)))


# two 2-cycles, the first dominating the second: the union is not strong
DOMINATED = PartitionedDigraph([1, 2, 1, 2], [(1, 2), (2, 1), (3, 4), (4, 3), (1, 4), (2, 3)])


unions = st.builds(
    random_smd_digraph,
    st.integers(2, 14),
    st.integers(2, 5),
    st.sampled_from([0.0, 0.5, 0.9]),
    st.integers(0, 10 ** 6),
)


@settings(max_examples=60)
@given(unions, st.integers(0, 15))
@example(DOMINATED, 0)
def test_no_loss_merge_matches_min_jump_oracle(d, drop):
    # the union is the instance less those of vertices 1..4 whose bit is set
    vertices = {v for v in d.vertices() if not drop >> (v - 1) & 1} or set(d.vertices())
    got = merging._dp_merge(d, vertices, len(vertices))
    assert got == min_jump_merge(d, vertices, len(vertices))
    if not is_strong(induce(d, vertices)[0]):
        assert got is None


def tournament_blocks(back_arc: bool) -> PartitionedDigraph:
    """Two 10-vertex strong tournaments, the first dominating the second,
    optionally closed by one arc back."""
    arcs = set()
    for off in (0, 10):
        for i in range(10):
            for j in range(i + 1, 10):
                # a rotational tournament: i beats the next four
                u, v = (i, j) if (j - i) % 10 <= 4 else (j, i)
                arcs.add((u + off + 1, v + off + 1))
    arcs |= {(u, v) for u in range(1, 11) for v in range(11, 21)}
    if back_arc:
        arcs.discard((1, 20))
        arcs.add((20, 1))
    return PartitionedDigraph(range(1, 21), arcs)


def test_non_strong_union_past_the_cap_is_decided():
    d = tournament_blocks(back_arc=False)
    assert d.is_smd() and not is_strong(d)
    assert merging._dp_merge(d, set(d.vertices()), d.n) is None


def test_strong_union_past_the_cap_raises_too_large():
    d = tournament_blocks(back_arc=True)
    assert d.is_smd() and is_strong(d)
    with pytest.raises(TooLarge):
        merging._dp_merge(d, set(d.vertices()), d.n)


@given(smd)
def test_out_and_inn_match_the_arc_set(d):
    for v in d.vertices():
        assert d.out(v) == tuple(sorted(w for u, w in d.arcs if u == v))
        assert d.inn(v) == tuple(sorted(u for u, w in d.arcs if w == v))


@given(smd)
@example(PartitionedDigraph([1], []))
@example(DOMINATED)
def test_is_strong_matches_strong_components(d):
    assert is_strong(d) == (len(strong_components(d)) == 1)


def test_arc_inputs_build_equal_instances():
    pairs = [(1, 2), (2, 3), (3, 1), (1, 4)]
    arcs = frozenset(pairs)
    kept = PartitionedDigraph([1, 2, 3, 1], arcs)
    assert kept.arcs is arcs
    as_numpy = PartitionedDigraph([1, 2, 3, 1], np.array(pairs, dtype=np.int64))
    as_list = PartitionedDigraph([1, 2, 3, 1], pairs)
    assert kept == as_list == as_numpy
    assert all(type(u) is int and type(v) is int for u, v in as_numpy.arcs)
    assert kept.out_masks == as_numpy.out_masks and kept.in_masks == as_list.in_masks
    numpy_set = frozenset((np.int64(u), np.int64(v)) for u, v in pairs)
    assert all(type(u) is int for u, _ in PartitionedDigraph([1, 2, 3, 1], numpy_set).arcs)
    with pytest.raises(ValueError):
        PartitionedDigraph([1, 2], frozenset({(1, 2), (2, 2)}))
    with pytest.raises(ValueError):
        PartitionedDigraph([1, 2], frozenset({(1, 2), (2, 3)}))


def test_corrupt_merge_raises_certificate_error(monkeypatch, tmp_path):
    def min_jump_instead(sub, threshold=None):
        # answers with the longest generalized cycle, jumps and all
        res = oracle_longest_spanning_gcycle(sub, threshold)
        return None if res is None else res[1]

    monkeypatch.setattr(search, "exact_ham_cycle", min_jump_instead)
    inst = fig2()
    d = inst.digraph
    # fig2 is strong and its longest spanning generalized cycle has 14 of 16 arcs
    with pytest.raises(CertificateError):
        merging._dp_merge(d, set(d.vertices()), d.n)
    with pytest.raises(CertificateError):
        spanning_gcycle_strong(d)
    path = tmp_path / "fig2.gmpd"
    path.write_text(emit_instance(inst))
    assert main(["spanning-gcycle", str(path)]) == 2


@pytest.mark.parametrize("module", ["factor", "merging", "irreducible", "search",
                                    "construct", "tsp", "walks", "extended", "npc"])
def test_certificates_are_not_asserts(module):
    # asserts vanish under python -O; certificates must raise a package error
    source = Path(gmpd.__file__).with_name(f"{module}.py")
    tree = ast.parse(source.read_text(), filename=str(source))
    lines = [node.lineno for node in ast.walk(tree) if isinstance(node, ast.Assert)]
    assert not lines, f"{source.name} has assert statements on lines {lines}"


# one pair won by each stage of certified_merge_cycles, and one with no merge;
# witnesses recorded before the splice scans moved onto walks.first_fit
@pytest.mark.parametrize("stage, spec, c1, c2, floor, witness", [
    ("two_junction", (8, 3, 0.7, 0), (4, 3), (6, 7, 2, 1, 8, 5), 4, (1, 8, 5, 4, 3, 6, 7, 2)),
    ("two_junction", (7, 2, 0.5, 0), (4, 2, 3), (7, 1, 5, 6), 4, (1, 4, 2, 3, 5, 6, 7)),
    ("partner", (7, 2, 0.5, 69), (3, 2), (4, 5, 1, 6, 7), 5, (1, 2, 6, 7, 3, 4, 5)),
    ("four_junction", (6, 2, 0.3, 185), (5, 2, 3), (4, 1, 6), 5, (1, 2, 6, 3, 5, 4)),
    ("exact", (8, 4, 0.3, 38), (7, 4, 8, 3), (2, 6, 5, 1), 7, (1, 2, 8, 7, 5, 6, 3, 4)),
    ("exact", (4, 2, 0.3, 44), (2, 3), (1, 4), 3, None),
])
def test_merge_cycles_witness_pinned(monkeypatch, stage, spec, c1, c2, floor, witness):
    reached = []
    for name, label in (("insert_by_partners", "partner"), ("_interleave_four", "four_junction"),
                        ("_dp_merge", "exact")):
        def spy(*args, _fn=getattr(merging, name), _label=label):
            reached.append(_label)
            return _fn(*args)
        monkeypatch.setattr(merging, name, spy)
    d = random_smd_digraph(*spec)
    got = merging.certified_merge_cycles(d, GWalk("cycle", c1), GWalk("cycle", c2), floor)
    assert got == (None if witness is None else GWalk("cycle", witness))
    assert (reached or ["two_junction"])[-1] == stage
