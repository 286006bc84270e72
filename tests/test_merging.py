import ast
import hashlib
import json
import random
from pathlib import Path

import numpy as np
import pytest
from hypothesis import assume, example, given, settings, strategies as st

import gmpd
from gmpd import merging, search
from gmpd.cli import main
from gmpd.digraph import PartitionedDigraph, induce, is_strong, is_strong_within, strong_components
from gmpd.errors import CertificateError, GmpdError, IllegalPair, NoFactor, TooLarge
from gmpd.factor import max_arc_gcycle_factor
from gmpd.fileformat import emit_instance
from gmpd.generators import fig2
from gmpd.irreducible import spanning_gcycle_strong
from gmpd.search import oracle_longest_spanning_gcycle
from gmpd.walks import GWalk, canonical_cycle, walk_length

from conftest import random_legal_order, random_smd_digraph, reference_merge_scan

PERFBENCH = Path(__file__).resolve().parent.parent / "perfbench"
GOLDEN = Path(__file__).resolve().parent / "golden"

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


@settings(max_examples=60)
@given(unions, st.integers(0, 15), st.integers(1, 3))
def test_lossy_merge_matches_min_jump_oracle(d, drop, loss):
    # below the union's size the exact search may use loss jumps, no more
    vertices = {v for v in d.vertices() if not drop >> (v - 1) & 1} or set(d.vertices())
    floor = len(vertices) - loss
    assert merging._dp_merge(d, vertices, floor) == min_jump_merge(d, vertices, floor)


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


@given(smd, st.integers(1, 2 ** 14 - 1))
@example(DOMINATED, 0b1111)
@example(DOMINATED, 0b0011)
def test_is_strong_within_matches_the_induced_subdigraph(d, bits):
    mask = bits & ((1 << d.n) - 1) or 1
    vertices = [v for v in d.vertices() if mask >> (v - 1) & 1]
    assert is_strong_within(d, mask) == is_strong(induce(d, vertices)[0])


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


@pytest.mark.parametrize("module", sorted(p.stem for p in Path(gmpd.__file__).parent.glob("*.py")))
def test_certificates_are_not_asserts(module):
    # asserts vanish under python -O; certificates must raise a package error,
    # so no module of the package holds one
    source = Path(gmpd.__file__).with_name(f"{module}.py")
    tree = ast.parse(source.read_text(), filename=str(source))
    lines = [node.lineno for node in ast.walk(tree) if isinstance(node, ast.Assert)]
    assert not lines, f"{source.name} has assert statements on lines {lines}"


# one pair won by each stage of certified_merge_cycles, and one with no merge;
# witnesses recorded before the splice scans were scored in O(1)
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


@st.composite
def legal_cycle_pairs(draw):
    """Two disjoint legal cycles of a random SMD with n 4-15: two cycles of
    its maximum-arc factor, or two random legal cycles on a random split."""
    n = draw(st.integers(4, 15))
    d = random_smd_digraph(n, draw(st.integers(1, 5)), draw(st.sampled_from([0.0, 0.3, 0.7])),
                           draw(st.integers(0, 10 ** 6)))
    if draw(st.booleans()):
        try:
            cycles = [c.seq for c in max_arc_gcycle_factor(d).cycles]
        except NoFactor:
            cycles = []
        assume(len(cycles) >= 2)
        i = draw(st.integers(0, len(cycles) - 2))
        return d, cycles[i], cycles[draw(st.integers(i + 1, len(cycles) - 1))]
    rng = random.Random(draw(st.integers(0, 10 ** 6)))
    vertices = list(d.vertices())
    rng.shuffle(vertices)
    cut = draw(st.integers(2, n - 2))
    a, b = (random_legal_order(d, vertices[:cut], rng, True),
            random_legal_order(d, vertices[cut:], rng, True))
    assume(a is not None and b is not None)
    return d, a, b


@settings(max_examples=120)
@given(legal_cycle_pairs())
# test_merge_cycles_witness_pinned's four-junction pair: only that scan merges it at floor 5
@example((random_smd_digraph(6, 2, 0.3, 185), (5, 2, 3), (4, 1, 6)))
def test_merge_scans_match_the_reference(pair):
    d, a, b = pair
    la, lb = walk_length(d, GWalk("cycle", a)), walk_length(d, GWalk("cycle", b))
    union = set(a) | set(b)
    for floor in (la + lb - 1, la + lb, la + lb + 1, len(union)):
        two = reference_merge_scan(d, a, b, floor, 2)
        assert merging._interleave_two(d, a, b, floor) == two
        assert merging._interleave_four(d, a, b, floor) == reference_merge_scan(d, a, b, floor, 4)
        got = merging.certified_merge_cycles(d, GWalk("cycle", a), GWalk("cycle", b), floor)
        if floor >= len(union) and (floor > len(union) or not is_strong(induce(d, union)[0])):
            assert got is None
        elif two is not None:
            assert got == canonical_cycle(GWalk("cycle", two))


def refuse(name):
    def fail(*args):
        pytest.fail(f"{name} was reached")
    return fail


def test_impossible_no_loss_union_is_rejected_before_any_scan(monkeypatch):
    for name in ("_interleave_two", "insert_by_partners", "_interleave_four", "induce",
                 "_dp_merge"):
        monkeypatch.setattr(merging, name, refuse(name))
    c1, c2 = GWalk("cycle", (1, 2)), GWalk("cycle", (3, 4))
    # both 2-cycles are all arcs, so floor 4 asks for no loss on a union that is not strong
    assert merging.certified_merge_cycles(DOMINATED, c1, c2, 4) is None
    strong = PartitionedDigraph([1, 2, 1, 2], [(1, 2), (2, 1), (3, 4), (4, 3), (1, 4), (3, 2)])
    assert is_strong(strong)
    assert merging.certified_merge_cycles(strong, c1, c2, 5) is None


def test_strong_union_past_the_cap_raises_too_large_before_induce(monkeypatch):
    # the two partite sets as jump cycles: no splice or partner insertion
    # reaches 19 arcs, and the union is strong
    d = random_smd_digraph(19, 2, 0.0, 0)
    assert is_strong(d)
    c1, c2 = (GWalk("cycle", tuple(sorted(s))) for s in d.partite_sets())
    monkeypatch.setattr(merging, "induce", refuse("induce"))
    with pytest.raises(TooLarge):
        merging.certified_merge_cycles(d, c1, c2, d.n)


def test_illegal_input_cycle_raises_whatever_the_floor():
    # the wrap pair (2, 1) of the first cycle is neither an arc nor a jump;
    # the first two-junction candidate 1 2 3 4 cuts it and has 4 arcs
    d = PartitionedDigraph([1, 2, 1, 2], [(1, 2), (2, 3), (3, 4), (4, 3), (4, 1)])
    for floor in (0, 3, 4, 5):
        with pytest.raises(IllegalPair):
            merging.certified_merge_cycles(d, GWalk("cycle", (1, 2)), GWalk("cycle", (3, 4)), floor)
    with pytest.raises(ValueError):
        merging.certified_merge_cycles(d, GWalk("path", (3, 4)), GWalk("cycle", (1, 2)), 0)


CHAIN_SEED = 1
CHAIN_CELLS = [(b, s, c) for b in (3, 4, 5, 6) for s in (10, 12) for c in (3, 4, 5)]


def chain_draws():
    """One seeded draw of every cell of the benchmark's chain family, in the
    benchmark's order: (cell name, instance)."""
    import workloads

    rng = workloads.rng_for("chain-strong", CHAIN_SEED)
    for b, s, c in CHAIN_CELLS:
        yield f"chain {b} {s} {c}", PartitionedDigraph(*workloads.chain(b, s, c, rng))


def chain_strong_digests():
    """sha256 of each answer of the strong route on one seeded draw of every
    cell of the benchmark's chain family: the answer's repr, or the error's
    type and text."""
    got = {}
    for cell, d in chain_draws():
        try:
            answer = repr(spanning_gcycle_strong(d))
        except GmpdError as exc:
            answer = f"{type(exc).__name__}: {exc}"
        got[cell] = hashlib.sha256(answer.encode()).hexdigest()
    return got


def test_chain_family_answers_match_recorded_digests(monkeypatch):
    # a changed witness, or a moved TooLarge, changes every later merge of the
    # strong route; the digests were recorded before the merge scans scored
    # candidates in O(1) and rejected impossible no-loss unions up front.
    # `chain 4 10 3` and `chain 4 12 4` were re-recorded when the route
    # stopped raising TooLarge on them: the first skips an undecided one-way
    # dominated pair, the second merges a pair past the cap block by block;
    # both now reach length c_f
    monkeypatch.syspath_prepend(str(PERFBENCH))
    recorded = json.loads((GOLDEN / "chain_strong_digests.json").read_text())
    assert chain_strong_digests() == recorded


def junctions(seq, side):
    """How many consecutive pairs of the cyclic sequence cross between
    `side` and the rest."""
    return sum((seq[k - 1] in side) != (seq[k] in side) for k in range(len(seq)))


@settings(max_examples=120)
@given(legal_cycle_pairs())
def test_two_block_search_is_sound_and_finds_two_junction_cycles(pair):
    # called directly, without the cap check that limits it to unions past
    # DP_FALLBACK_CAP in certified_merge_cycles
    d, a, b = pair
    union = set(a) | set(b)
    got = merging._two_block(d, a, b)
    sub, old = induce(d, union)
    witness = search.exact_ham_cycle(sub)
    if got is not None:
        assert sorted(got) == sorted(union)
        assert walk_length(d, GWalk("cycle", got)) == len(union)
        assert junctions(got, set(a)) == 2
    if witness is None:
        assert got is None
    elif junctions(tuple(old[v - 1] for v in witness.seq), set(a)) == 2:
        assert got is not None


def test_two_block_merges_a_chain_pair_past_the_cap(monkeypatch):
    # the no-loss pair of the strong route on `chain 4 12 4` (seed 1) that the
    # exact search refuses: a 19-vertex union of a 12-cycle and a 7-cycle,
    # both all arcs, whose only merges reorder each cycle's block
    monkeypatch.syspath_prepend(str(PERFBENCH))
    d = dict(chain_draws())["chain 4 12 4"]
    c1 = GWalk("cycle", (1, 2, 3, 4, 5, 6, 9, 10, 8, 11, 7, 12))
    c2 = GWalk("cycle", (42, 43, 46, 48, 47, 45, 44))
    union = set(c1.seq) | set(c2.seq)
    assert walk_length(d, c1) + walk_length(d, c2) == len(union) == merging.DP_FALLBACK_CAP + 1
    with pytest.raises(TooLarge):
        merging._dp_merge(d, union, len(union))
    assert merging._interleave_two(d, c1.seq, c2.seq, len(union)) is None
    assert merging._interleave_four(d, c1.seq, c2.seq, len(union)) is None
    got = merging.certified_merge_cycles(d, c1, c2, len(union))
    witness = (1, 42, 44, 46, 48, 47, 45, 43, 3, 12, 10, 8, 11, 7, 9, 2, 5, 6, 4)
    assert got == GWalk("cycle", witness)
    assert walk_length(d, got) == len(union)
