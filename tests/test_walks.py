import pytest
from hypothesis import example, given, settings, strategies as st

from gmpd.digraph import PartitionedDigraph
from gmpd.errors import DuplicateVertex, HypothesisUnmet, IllegalPair
from gmpd.walks import (
    GFactor,
    GWalk,
    arc_count,
    canonical_cycle,
    cycle,
    decompose_segments,
    find_partner,
    insert_by_partners,
    is_good,
    is_spanning,
    parse_walk,
    path,
    render_walk,
    validate_walk,
    walk_length,
)

from conftest import fig1_digraph, random_smd_digraph, step_ok


def test_fig1_hamiltonian_cycle_all_real(fig1):
    w = cycle(3, 5, 2, 4, 1)
    tags = validate_walk(fig1, w)
    assert tags == ["real"] * 5
    assert walk_length(fig1, w) == 5


def test_trivial_two_vertex_cycle_length_zero(fig1):
    w = cycle(4, 5)
    assert walk_length(fig1, w) == 0


def test_illegal_pair_reported(fig1):
    # only (2,3) exists, not (3,2)
    with pytest.raises(IllegalPair) as exc:
        validate_walk(fig1, path(3, 2))
    assert exc.value.index == 0


def test_duplicate_vertex_rejected(fig1):
    with pytest.raises(DuplicateVertex):
        validate_walk(fig1, path(1, 2, 1))


def test_good_and_spanning(fig1):
    ham = cycle(3, 5, 2, 4, 1)
    assert is_good(fig1, ham) and is_spanning(fig1, ham)
    p = path(1, 2, 3)
    assert not is_good(fig1, p)


def test_spanning_implies_good_on_randoms():
    for seed in range(20):
        d = random_smd_digraph(5 + seed % 3, 2 + seed % 2, 0.4, seed)
        seq = []
        remaining = set(d.vertices())
        cur = 1
        seq.append(cur)
        remaining.discard(cur)
        # grow any legal spanning sequence when one is easy to find
        while remaining:
            nxt = next((v for v in sorted(remaining) if step_ok(d, cur, v)), None)
            if nxt is None:
                break
            seq.append(nxt)
            remaining.discard(nxt)
            cur = nxt
        if not remaining:
            w = GWalk("path", tuple(seq))
            assert is_spanning(d, w) and is_good(d, w)


def test_length_plus_jumps_invariant():
    for seed in range(25):
        d = random_smd_digraph(6, 3, 0.4, seed + 50)
        w = path(*sorted(d.vertices()))
        try:
            tags = validate_walk(d, w)
        except IllegalPair:
            continue
        jumps = sum(1 for t in tags if t == "jump")
        assert walk_length(d, w) + jumps == len(w.seq) - 1


def test_canonical_cycle_rotation_invariants(fig1):
    w = cycle(3, 5, 2, 4, 1)
    for r in range(5):
        rot = GWalk("cycle", w.seq[r:] + w.seq[:r])
        assert canonical_cycle(rot) == canonical_cycle(w)
        assert walk_length(fig1, rot) == walk_length(fig1, w)
        assert is_good(fig1, rot) and is_spanning(fig1, rot)


def test_find_partner_single_vertex(fig1):
    # host pair (x, c): x dominates a and a dominates c? need (4,1),(1,3): yes
    host = cycle(4, 3)  # x -> c real? (4,3) yes; (3,4)? not an arc, not same set
    with pytest.raises(IllegalPair):
        validate_walk(fig1, host)


def test_find_partner_enumerates_smallest(fig1):
    host = cycle(4, 3, 5)  # x->c->y, wrap y~x jump
    validate_walk(fig1, host)
    p = find_partner(fig1, path(1), host)
    # pairs: (4,3), (3,5), (5,4); (4,1) and (1,3) arcs -> index 0 works
    assert p is not None and p.index == 0


def test_find_partner_absent(fig1):
    host = cycle(1, 2, 4)
    validate_walk(fig1, host)
    # piece [3] needs some host pair (u, w) with u->3 and 3->w; 3's only
    # out-arc inside the host's successors fails everywhere
    assert find_partner(fig1, path(3), host) is None


def test_insert_by_partners_gains_arc(fig1):
    host = cycle(4, 3, 5)
    merged = insert_by_partners(fig1, path(1), host)
    assert set(merged.seq) == {1, 3, 4, 5}
    assert walk_length(fig1, merged) >= walk_length(fig1, host) + 1


def test_insert_single_vertex_into_real_four_cycle(fig1):
    host = cycle(4, 3, 5, 2)      # a real 4-cycle missing vertex 1
    assert walk_length(fig1, host) == 4
    assert find_partner(fig1, path(1), host).index == 0
    merged = insert_by_partners(fig1, path(1), host)
    assert set(merged.seq) == {1, 2, 3, 4, 5}
    assert walk_length(fig1, merged) == 5


def test_insert_by_partners_hypothesis_unmet(fig1):
    host = cycle(1, 2, 4)
    with pytest.raises(HypothesisUnmet):
        insert_by_partners(fig1, path(3), host)


def test_insert_by_partners_random_property():
    checked = 0
    for seed in range(120):
        d = random_smd_digraph(7, 3, 0.45, seed + 300)
        verts = sorted(d.vertices())
        host_seq = tuple(verts[:4])
        piece_seq = tuple(verts[4:6])
        host = GWalk("cycle", host_seq)
        piece = GWalk("path", piece_seq)
        try:
            validate_walk(d, host)
            validate_walk(d, piece)
        except (IllegalPair, DuplicateVertex):
            continue
        try:
            merged = insert_by_partners(d, piece, host)
        except HypothesisUnmet:
            continue
        checked += 1
        assert set(merged.seq) == set(host_seq) | set(piece_seq)
        assert walk_length(d, merged) >= walk_length(d, piece) + walk_length(d, host) + 1
    assert checked >= 5


def test_decompose_segments(fig1):
    ham = cycle(3, 5, 2, 4, 1)
    segs = decompose_segments(fig1, ham)
    assert len(segs) == 1 and len(segs[0]) == 5
    trivial = cycle(4, 5)
    assert decompose_segments(fig1, trivial) == [[4], [5]]


def test_segment_count_matches_jumps():
    for seed in range(30):
        d = random_smd_digraph(6, 2, 0.5, seed + 700)
        w = GWalk("path", tuple(sorted(d.vertices())))
        try:
            tags = validate_walk(d, w)
        except IllegalPair:
            continue
        jumps = tags.count("jump")
        assert len(decompose_segments(d, w)) == jumps + 1


def test_render_and_parse_roundtrip(fig1):
    ham = cycle(3, 5, 2, 4, 1)
    text = render_walk(fig1, ham)
    assert text == "3->5->2->4->1->(3)"
    assert parse_walk(text) == ham
    trivial = cycle(4, 5)
    assert render_walk(fig1, trivial) == "4~5~(4)"
    assert parse_walk("4~5~(4)") == trivial
    p = path(4, 1, 2)
    assert parse_walk(render_walk(fig1, p)) == p


def test_factor_arc_count(fig1):
    single = GFactor((cycle(3, 5, 2, 4, 1),))
    assert single.arc_count(fig1) == 5
    d = PartitionedDigraph([1, 2, 1, 2], [(1, 2), (2, 1), (3, 4), (4, 3), (1, 4), (3, 2)])
    two = GFactor((cycle(1, 2), cycle(3, 4)))
    assert two.arc_count(d) == 4


@st.composite
def walks_on_smds(draw):
    """An instance and a walk on distinct vertices of it, legal or not."""
    d = draw(st.builds(random_smd_digraph, st.integers(2, 12), st.integers(1, 4),
                       st.sampled_from([0.0, 0.3, 0.7]), st.integers(0, 10 ** 6)))
    kind = draw(st.sampled_from(["path", "cycle"]))
    order = draw(st.permutations(list(d.vertices())))
    drop = draw(st.integers(0, d.n - (1 if kind == "path" else 2)))
    return d, GWalk(kind, tuple(order[drop:]))


@settings(max_examples=200)
@given(walks_on_smds())
@example((PartitionedDigraph([1], []), path(1)))
@example((fig1_digraph(), path(3)))
@example((fig1_digraph(), cycle(4, 5)))
@example((PartitionedDigraph([1, 2], [(1, 2), (2, 1)]), cycle(1, 2)))
@example((fig1_digraph(), path(1, 2, 3)))
@example((fig1_digraph(), cycle(1, 2, 3)))
def test_arc_count_matches_walk_length(case):
    d, w = case
    try:
        expected = walk_length(d, w)
    except IllegalPair:
        expected = None
    assert arc_count(d, w.seq, closed=w.kind == "cycle") == expected
