import numpy as np
import pytest
from hypothesis import given, settings, strategies as st

from gmpd.digraph import (
    PartitionedDigraph,
    augment_terminals,
    contract_partite,
    induce,
    is_k_strong,
    is_strong,
    strong_components,
    validate,
    weighted_completion,
)
from gmpd.errors import AugmentedInput

from conftest import random_extended_digraph, random_smd_digraph, reference_validate


def test_fig1_validates(fig1):
    report = validate(fig1)
    assert report.is_smd and report.is_strong and not report.is_extended
    assert report.extended_witness is not None


def test_single_vertex_is_smd_and_strong():
    d = PartitionedDigraph([1], [])
    report = validate(d)
    assert report.is_smd and report.is_strong


def test_internal_arc_flagged_with_witness():
    d = PartitionedDigraph([1, 1], [(1, 2)])
    report = validate(d)
    assert not report.is_smd
    assert report.internal_arc == (1, 2)


def test_missing_pair_flagged():
    d = PartitionedDigraph([1, 2, 3], [(1, 2), (2, 3)])
    report = validate(d)
    assert not report.is_smd
    assert report.missing_pair == (1, 3)


def test_strong_components_topological_order():
    # transitive tournament: acyclic, three singleton components
    d = PartitionedDigraph([1, 2, 3], [(1, 2), (2, 3), (1, 3)])
    comps = strong_components(d)
    assert comps == [[1], [2], [3]]
    assert not is_strong(d)


def test_two_cycle_strong():
    d = PartitionedDigraph([1, 2], [(1, 2), (2, 1)])
    assert is_strong(d)


def test_k_strong_transitive_tournament():
    d = PartitionedDigraph([1, 2, 3], [(1, 2), (2, 3), (1, 3)])
    assert not is_k_strong(d, 1)


def test_k_strong_complete_digraph():
    n = 5
    arcs = [(u, v) for u in range(1, n + 1) for v in range(1, n + 1) if u != v]
    d = PartitionedDigraph(list(range(1, n + 1)), arcs)
    assert is_k_strong(d, 4)
    assert not is_k_strong(d, 5)  # n >= k+1 fails


def test_k_strong_1_equals_strong_on_randoms():
    for seed in range(30):
        d = random_smd_digraph(4 + seed % 4, 2 + seed % 2, 0.35, seed)
        assert is_k_strong(d, 1) == is_strong(d)


def test_contract_fig1(fig1):
    dc = contract_partite(fig1)
    assert dc.n == 4 and dc.c == 4
    assert validate(dc).is_smd and is_strong(dc)


def test_contract_semicomplete_identity():
    d = PartitionedDigraph([1, 2, 3], [(1, 2), (2, 3), (3, 1)])
    dc = contract_partite(d)
    assert dc.part_vector == d.part_vector and dc.arcs == d.arcs


def test_contract_single_set():
    d = PartitionedDigraph([1, 1, 1], [])
    dc = contract_partite(d)
    assert dc.n == 1 and not dc.arcs


def test_contract_preserves_strongness():
    # strong instances contract to strong semicomplete digraphs; the converse
    # fails (set-level connectivity does not lift to every vertex)
    for seed in range(40):
        d = random_smd_digraph(5 + seed % 4, 2 + seed % 3, 0.3, seed + 100)
        if is_strong(d):
            assert is_strong(contract_partite(d))


def test_contract_converse_fails():
    d = PartitionedDigraph([1, 1, 2], [(1, 3), (3, 1), (2, 3)])
    assert not is_strong(d)
    assert is_strong(contract_partite(d))


def test_weighted_completion_fig1(fig1):
    wc = weighted_completion(fig1)
    assert wc.added == frozenset({(4, 5), (5, 4)})
    assert wc.weight((4, 5)) == 1 and wc.weight((1, 2)) == 0
    # round trip: weight-0 arcs are exactly the original arc set
    zero = {a for a in wc.arcs if wc.weight(a) == 0}
    assert zero == fig1.arcs


def test_weighted_completion_semicomplete_adds_nothing():
    d = PartitionedDigraph([1, 2, 3], [(1, 2), (2, 3), (3, 1)])
    assert weighted_completion(d).added == frozenset()


def test_augment_terminals_fig1(fig1):
    dx = augment_terminals(fig1, {4})
    assert (4, 5) in dx.arcs and dx.augmented
    with pytest.raises(AugmentedInput):
        dx.require_smd()


def test_augment_empty_and_singletons(fig1):
    assert augment_terminals(fig1, set()) is fig1
    assert augment_terminals(fig1, {1, 2, 3}) is fig1  # singleton partite sets


def test_induce_relabels_and_compacts(fig1):
    sub, old = induce(fig1, [3, 4, 5])
    assert old == [3, 4, 5]
    assert sub.n == 3 and sub.c == 2
    assert (2, 1) in sub.arcs  # x -> c survives relabelling


def test_arc_normalization_and_errors():
    pairs = [(1, 2), (2, 3), (3, 1), (1, 4)]
    plain = PartitionedDigraph([1, 2, 3, 1], frozenset(pairs))
    # numpy ints, floats and a mix of both with plain ints, in a frozenset or not
    for arcs in (frozenset((np.int64(u), np.int32(v)) for u, v in pairs),
                 frozenset((float(u), v) for u, v in pairs),
                 frozenset([(np.int64(1), 2)] + pairs[1:]),
                 [(np.int64(u), np.int64(v)) for u, v in pairs]):
        d = PartitionedDigraph([1, 2, 3, 1], arcs)
        assert d == plain and d.out_masks == plain.out_masks and d.in_masks == plain.in_masks
        assert all(type(u) is int and type(v) is int for u, v in d.arcs)
    with pytest.raises(ValueError, match=r"^loop at vertex 2$"):
        PartitionedDigraph([1, 2], frozenset({(1, 2), (np.int64(2), np.int64(2))}))
    with pytest.raises(ValueError, match=r"^loop at vertex 2$"):
        PartitionedDigraph([1, 2], [(1, 2), (2, 2)])
    with pytest.raises(ValueError, match=r"^arc \(2,3\) out of range$"):
        PartitionedDigraph([1, 2], frozenset({(1, 2), (np.int64(2), 3)}))
    with pytest.raises(ValueError, match=r"^arc \(0,1\) out of range$"):
        PartitionedDigraph([1, 2], [(0, 1)])


@st.composite
def classified_instances(draw):
    """Random SMDs (n 1-14, c 1-6), the same with one planted internal arc or
    one deleted cross-partite pair, augmented ones, and extended ones."""
    kind = draw(st.sampled_from(["smd", "internal", "deleted", "augmented", "extended"]))
    seed = draw(st.integers(0, 10 ** 6))
    if kind == "extended":
        return random_extended_digraph(draw(st.sampled_from(range(1, 7))),
                                       draw(st.sampled_from(range(1, 5))), seed)
    d = random_smd_digraph(draw(st.sampled_from(range(1, 15))), draw(st.sampled_from(range(1, 7))),
                           draw(st.sampled_from([0.0, 0.3, 0.7, 1.0])), seed)
    pairs = [(u, v) for u in d.vertices() for v in d.vertices()
             if u < v and d.same_part(u, v) == (kind == "internal")]
    if kind == "augmented":
        return augment_terminals(d, draw(st.sets(st.sampled_from(list(d.vertices())), max_size=3)))
    if kind == "smd" or not pairs:
        return d
    u, v = draw(st.sampled_from(pairs))
    if kind == "internal":
        return PartitionedDigraph(d.part_vector, d.arcs | {draw(st.sampled_from([(u, v), (v, u)]))})
    return PartitionedDigraph(d.part_vector, d.arcs - {(u, v), (v, u)})


@settings(max_examples=300)
@given(classified_instances())
def test_mask_validate_matches_pairwise(d):
    assert validate(d) == reference_validate(d)
