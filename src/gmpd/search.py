"""Exact desk-scale engines: Hamiltonicity, prescribed-end spanning walks,
longest-walk oracles, and the jump-count metrics.

The Hamiltonian, prescribed-end and longest-walk engines answer first by
one backward search over (vertex set, last vertex) states, smallest vertex
first, with unreachable sets cut and failed states kept; it returns the
witness the subset table rebuilds.  Every subset dynamic program runs on
one kernel over tables of one uint32 word per vertex subset (the possible
last vertices), vectorized over each popcount layer, so no engine takes
more than 31 vertices, whichever answers.  The longest-walk oracles and
the n-k decision count jumps, not arcs: a walk with J = 0 jumps is a
Hamiltonian path or cycle, which the search finds, and the
Hamiltonian-cycle engine is that case, unless a partite set is too large
for one; only when the search gives up after n·n states, or finds no J = 0
walk while more jumps are allowed, are jump levels built, level j holding
the ends reached with at most j jumps.  The n-k decision runs the
Hamiltonian engine only on terminal sets of J feasible jump tails, for the
fewest jumps J, read off those levels and the levels of the reversed
instance.  The jump metrics run one layered BFS per strong component,
whose vertices share every N(x, y), and keep one row per component.
Thresholds are configuration: an explicit argument wins, then the
GMPD_EXACT_THRESHOLD environment variable, then the per-engine default.
"""

import os
from collections import Counter
from collections.abc import Mapping
from dataclasses import dataclass
from functools import lru_cache
from itertools import combinations
from typing import Optional, Tuple

import numpy as np

from . import factor as factor_mod
from .digraph import PartitionedDigraph, _closure, augment_terminals
from .errors import CertificateError, Degenerate, NoFactor, TooLarge
from .walks import GWalk, canonical_cycle, validate_walk, walk_length

DEFAULT_HAM_THRESHOLD = 20
DEFAULT_CYCLE_ORACLE_THRESHOLD = 16
DEFAULT_PATH_ORACLE_THRESHOLD = 18
DEFAULT_ATLEAST_K_CAP = 6
_WORD_CAP = 31   # a table keeps a subset's ends in one uint32 word


def resolve_threshold(default: int, override: Optional[int] = None) -> int:
    if override is not None:
        return override
    env = os.environ.get("GMPD_EXACT_THRESHOLD")
    if env:
        return int(env)
    return default


def _check_size(n: int, default: int, override: Optional[int]):
    limit = min(resolve_threshold(default, override), _WORD_CAP)
    if n > limit:
        raise TooLarge(n, limit)


@lru_cache(maxsize=_WORD_CAP + 1)   # one entry per size an engine accepts
def _popcount_layers(n: int):
    """The subsets of n vertices (n < 32) as int32 masks, by popcount.

    int32 halves what the cache keeps alive (4 MiB at n = 20).  Callers widen
    one layer at a time to intp: numpy converts an int32 index array to intp
    on every indexing, which is slower than converting each layer once."""
    masks = np.arange(1 << n, dtype=np.int32)
    pc = np.bitwise_count(masks)
    return tuple(np.flatnonzero(pc == p).astype(np.int32) for p in range(n + 1))


# -- the jump-layered subset DP ---------------------------------------------


def _push_layers(n: int, dp: np.ndarray, arc_in, jump_in=None, prev=None, older=None):
    """Push the subset table dp forward in place, one popcount layer at a
    time: bit w of dp[mask | 1 << w] is set when a source end of mask steps
    into w (arc_in[w], jump_in[w]: w's predecessors as bitmasks).  Without
    `prev`, every end steps along arcs.  With it, dp is the next jump level,
    a copy of `prev`: the ends not in prev[mask] step along arcs, and the
    ends of prev[mask] not in older[mask] (all, when `older` is None) along
    jumps; all other steps land in `prev` already."""
    layers = _popcount_layers(n)
    arc_w = [np.uint32(x) for x in arc_in]
    jump_w = None if prev is None else [np.uint32(x) for x in jump_in]
    for p in range(1, n):
        layer = layers[p].astype(np.intp)
        if prev is None:
            sub = layer[dp[layer] != 0]
            ends = dp[sub]
        else:
            old = prev[layer]
            live = dp[layer] != old
            live |= old != (0 if older is None else older[layer])
            sub = layer[live]
            old = prev[sub]
            ends = dp[sub] & ~old
            jumps = old if older is None else old & ~older[sub]
        if sub.size == 0:
            continue
        # skip each w that no source steps into or every live mask holds
        by_arc = int(np.bitwise_or.reduce(ends))
        by_jump = 0 if prev is None else int(np.bitwise_or.reduce(jumps))
        held = int(np.bitwise_and.reduce(sub))
        for w in range(n):
            if held >> w & 1 or not (by_arc & arc_in[w] or by_jump and by_jump & jump_in[w]):
                continue
            bw = 1 << w
            hit = (ends & arc_w[w]) != 0
            if by_jump:
                hit |= (jumps & jump_w[w]) != 0
            ok = hit & ((sub & bw) == 0)
            if ok.any():
                dp[sub[ok] | bw] |= np.uint32(bw)


def _jump_in(d: PartitionedDigraph):
    """jump_in[v]: the other vertices of v's partite set, as a 0-based bitmask."""
    part = d.part_vector
    same = [0] * (d.c + 1)
    for v in range(d.n):
        same[part[v]] |= 1 << v
    return [same[part[v]] & ~(1 << v) for v in range(d.n)]


def _lowest_bit_index(x: int) -> int:
    return (x & -x).bit_length() - 1


def _predecessor(levels, j: int, pmask: int, w: int, arc_in, jump_in=None):
    """(u, jumps up to u) for the smallest u that steps into w after a
    sequence over pmask, with j jumps up to w, or None: an arc from an end of
    levels[j][pmask] or a jump from one of levels[j - 1][pmask]."""
    arc = int(levels[j][pmask]) & arc_in[w]
    steps = arc | (int(levels[j - 1][pmask]) & jump_in[w] if j else 0)
    if not steps:
        return None
    u = _lowest_bit_index(steps)
    return u, j - (not arc >> u & 1)


def _reconstruct_path(levels, arc_in, mask: int, last: int, j: int = 0, jump_in=None):
    """The sequence over `mask` that ends at `last` with j jumps, rebuilt
    backwards from the tables, smallest predecessor first."""
    seq = [last]
    while mask & (mask - 1):
        mask ^= 1 << seq[-1]
        step = _predecessor(levels, j, mask, seq[-1], arc_in, jump_in)
        if step is None:
            raise CertificateError(f"the subset table has no predecessor of vertex {seq[-1] + 1}")
        seq.append(step[0])
        j = step[1]
    return seq[::-1]


def _jump_levels(n: int, arc_in, jump_in, starts):
    """Yield the list of jump levels from `starts` (0-based) each time it
    grows by one.  Bit v of levels[j][mask] marks a legal sequence over
    `mask` from a start to v with at most j jumps; level j+1 pushes only the
    ends new at j+1 (along arcs) and at j (along jumps).  Once a level adds
    nothing, every later level is that same array."""
    level, ends = np.zeros(1 << n, dtype=np.uint32), 1 << np.array(starts)
    level[ends] = ends
    _push_layers(n, level, arc_in)
    levels, grew = [level], True
    while True:
        yield levels
        if grew:
            j = len(levels) - 1
            level = levels[j].copy()
            _push_layers(n, level, arc_in, jump_in, levels[j], levels[j - 1] if j else None)
            grew = not np.array_equal(level, levels[j])
        levels.append(level if grew else levels[-1])


def _parts_forbid_zero_jumps(d: PartitionedDigraph, close: bool) -> bool:
    """Whether a partite set is too large for a spanning sequence with no
    jump: with no arc inside a partite set, consecutive vertices of such a
    sequence lie in different sets, so a cycle holds at most n/2 vertices of
    each set and a path at most ceil(n/2).  Augmented instances have arcs
    inside a partite set, so this never holds for them."""
    return (max(Counter(d.part_vector).values()) > (d.n // 2 if close else (d.n + 1) // 2)
            and not any(out & mates for out, mates in zip(d.out_masks, _jump_in(d))))


def _fewest_jumps(d: PartitionedDigraph, starts, close: bool, cap: int):
    """(J, seq, levels) for the fewest jumps J of a spanning legal sequence
    from one of `starts` (0-based) that, with `close`, then steps into
    starts[0], or None past `cap` jumps.  seq has J jumps; ties go to the
    smallest last vertex, then the smallest predecessor.  J = 0 is a
    Hamiltonian path or cycle, so the backward search runs first, unless a
    partite set is too large for one; the jump levels are built only when it
    gives up, or finds none and cap > 0, and levels is None when it
    answered."""
    n, full, arc_in = d.n, (1 << d.n) - 1, d.in_masks
    lasts = arc_in[starts[0]] if close else full
    decided, seq = True, None
    if not _parts_forbid_zero_jumps(d, close):
        decided, seq = _ham_search(d.out_masks, arc_in, sum(1 << v for v in starts), full, lasts,
                                   n * n)
    if seq:
        return 0, seq, None
    if decided and not cap:
        return None
    jump_in = _jump_in(d)
    for levels in _jump_levels(n, arc_in, jump_in, starts):
        j = len(levels) - 1
        last = (_predecessor(levels, j, full, starts[0], arc_in, jump_in) if close
                else levels[j][full] and (_lowest_bit_index(int(levels[j][full])), j))
        if last:
            return j, _reconstruct_path(levels, arc_in, full, *last, jump_in), levels
        if j >= cap or j and levels[j] is levels[j - 1]:   # the levels stopped growing
            return None


def _tail_mask(d: PartitionedDigraph, jumps: int, levels) -> int:
    """The 0-based vertices x that jump on some spanning legal cycle with the
    fewest jumps J = `jumps`, from the cycle levels through 0, which it reads
    only when J > 0: a sequence from 0 over S to x with j jumps
    (levels[j][S]), a jump from x to a partite mate z outside S, and a
    sequence from z over the rest and 0 into 0 with J - 1 - j jumps (the
    levels from 0 along reversed arcs).  S = every vertex leaves z = 0: the
    jump closes the cycle.  No cycle of fewer jumps exists, so every such
    split has exactly J."""
    if not jumps:
        return 0
    jump_in = _jump_in(d)
    rev = next(r for r in _jump_levels(d.n, d.out_masks, jump_in, [0]) if len(r) >= jumps)
    parts = {mates | 1 << v for v, mates in enumerate(jump_in)}
    tails = 0
    for j in range(jumps):
        # the masks S that hold 0, ascending, pair with (full ^ S) | 1, descending
        ends, heads = levels[j][1::2], rev[jumps - 1 - j][::-2]
        for members in parts:
            tails |= int(np.bitwise_or.reduce(ends[(heads & members) != 0])) & members
    return tails


# -- Hamiltonian cycle / prescribed-end Hamiltonian path ------------------


def _reach_dp_fast(n: int, in_mask, start: int) -> np.ndarray:
    """dp[mask] = bitmask of vertices reachable as the last vertex of a path
    that starts at `start` and visits exactly `mask`; in_mask[w] holds the
    0-based predecessors of w."""
    dp = np.zeros(1 << n, dtype=np.uint32)
    dp[1 << start] = np.uint32(1 << start)
    _push_layers(n, dp, in_mask)
    return dp


def _ham_search(out_masks, in_masks, starts: int, mask: int, lasts: int, budget):
    """(decided, seq): seq is the path over `mask` from a vertex of `starts`
    to a vertex of `lasts` that the subset tables rebuild, or None when there
    is none; decided is False, and seq None, once more than `budget` states
    (S, v) have expanded.

    The search runs backwards from the last vertices in ascending order,
    smallest predecessor first, the order in which `_reconstruct_path` picks
    the smallest predecessor that has a completion, so the first path found
    is the table's.  A state is cut unless all of S reaches v inside S and,
    with a single start, the start reaches all of S; every failed state is
    kept."""
    expanded, failed = 0, set()
    start = None if starts & (starts - 1) else starts.bit_length() - 1

    def back(s: int, v: int):
        nonlocal expanded
        if s == 1 << v:
            return [v] if starts >> v & 1 else None
        if (s, v) in failed:
            return None
        expanded += 1
        if expanded > budget:
            return None
        if ((start is None or _closure(out_masks, start, s) == s)
                and _closure(in_masks, v, s) == s):
            rest = s ^ 1 << v
            preds = in_masks[v] & rest
            if start is not None and rest != starts:
                preds &= ~starts   # the one start is the first vertex, never an inner one
            for u in _bits(preds):
                seq = back(rest, u)
                if seq:
                    seq.append(v)
                    return seq
        failed.add((s, v))
        return None

    seq = None
    for last in _bits(lasts):
        seq = back(mask, last)
        if seq:
            break
    del back   # `back` refers to itself: free its failed states now, not at the next collection
    return (True, seq) if seq else (expanded <= budget, None)


def exact_ham_cycle(
    d: PartitionedDigraph, threshold: Optional[int] = None
) -> Optional[GWalk]:
    """Exact Hamiltonian-cycle search; accepts augmented instances.  The
    zero-jump case of `_fewest_jumps`: the backward search answers first,
    and the subset table runs only when it gives up."""
    _check_size(d.n, DEFAULT_HAM_THRESHOLD, threshold)
    found = d.n > 1 and _fewest_jumps(d, [0], True, 0)
    if not found:
        return None
    cyc = canonical_cycle(GWalk("cycle", tuple(v + 1 for v in found[1])))
    for u, v in cyc.pairs():
        if (u, v) not in d.arcs:
            raise CertificateError(f"Hamiltonian cycle uses the non-arc ({u},{v})")
    return cyc


def exact_xy_spanning_gpath(
    d: PartitionedDigraph, x: int, y: int, threshold: Optional[int] = None
) -> Optional[GWalk]:
    """Spanning (x,y)-walk decision on the same-partite completion.

    A step is legal along an arc or inside a partite set; legal spanning
    sequences from x to y are exactly the spanning (x,y)-G-paths.
    """
    d.require_smd()
    for name, v in (("x", x), ("y", y)):
        if not 1 <= v <= d.n:
            raise ValueError(f"endpoint {name} = {v} is not a vertex 1..{d.n}")
    if x == y:
        raise ValueError("endpoints must differ")
    _check_size(d.n, DEFAULT_HAM_THRESHOLD, threshold)
    n, jump_in = d.n, _jump_in(d)
    # a step along an arc or a jump inside the partite set
    in_mask = [arcs | jumps for arcs, jumps in zip(d.in_masks, jump_in)]
    out_mask = [arcs | jumps for arcs, jumps in zip(d.out_masks, jump_in)]
    rest = (1 << n) - 1 ^ 1 << (y - 1)
    decided, seq = _ham_search(out_mask, in_mask, 1 << x - 1, rest, in_mask[y - 1], n * n)
    if not decided:
        # y may only be the last step, so the table never enters it
        dp = _reach_dp_fast(n, [0 if v == y - 1 else m for v, m in enumerate(in_mask)], x - 1)
        ends = int(dp[rest]) & in_mask[y - 1]
        seq = _reconstruct_path([dp], in_mask, rest, _lowest_bit_index(ends)) if ends else None
    if seq is None:
        return None
    walk = GWalk("path", tuple(v + 1 for v in seq) + (y,))
    validate_walk(d, walk)
    if walk.seq[0] != x or walk.seq[-1] != y or len(walk.seq) != n:
        raise CertificateError(f"the reconstructed walk is not a spanning ({x},{y})-walk")
    return walk


# -- longest-walk oracles --------------------------------------------------


def _max_arc_walk(
    d: PartitionedDigraph, starts, close: bool, cap: Optional[int] = None
) -> Optional[Tuple[int, GWalk]]:
    """(max arcs, witness) over spanning legal sequences from one of `starts`
    (0-based), or None, also past `cap` jumps; with `close` the one start is
    also the last step's head, so the sequence is a cycle.  Every step is an
    arc or a jump, so the most arcs is n - J on a cycle and n - 1 - J on a
    path, for the fewest jumps J of `_fewest_jumps`: a zero-jump answer comes
    from the backward search, and jump levels are built only past it."""
    n = d.n
    found = _fewest_jumps(d, starts, close, n if cap is None else cap)
    if found is None:
        return None
    jumps, seq, levels = found
    arcs = (n if close else n - 1) - jumps
    # a longest generalized path can always be grown to a spanning one: no
    # level below J may hold a shorter path with more arcs
    for j in range(0 if close else jumps):
        if int(np.bitwise_count(np.flatnonzero(levels[j])).max()) - j > n - jumps:
            raise CertificateError("no spanning generalized path attains the maximum arc count")
    seq = tuple(v + 1 for v in seq)
    walk = canonical_cycle(GWalk("cycle", seq)) if close else GWalk("path", seq)
    if walk_length(d, walk) != arcs:
        raise CertificateError(f"the max-arc {walk.kind} does not have {arcs} arcs")
    return arcs, walk


def oracle_longest_spanning_gcycle(
    d: PartitionedDigraph, threshold: Optional[int] = None
) -> Optional[Tuple[int, GWalk]]:
    """(max arcs, witness) over spanning generalized cycles, or None."""
    d.require_smd()
    _check_size(d.n, DEFAULT_CYCLE_ORACLE_THRESHOLD, threshold)
    return _max_arc_walk(d, [0], close=True)


def oracle_longest_gpath(
    d: PartitionedDigraph, threshold: Optional[int] = None
) -> Tuple[int, GWalk]:
    """(max arcs, witness) over all generalized paths of the instance."""
    d.require_smd()
    _check_size(d.n, DEFAULT_PATH_ORACLE_THRESHOLD, threshold)
    return _max_arc_walk(d, range(d.n), close=False)


# -- spanning generalized cycles of length >= n-k --------------------------


def spanning_gcycle_at_least(
    d: PartitionedDigraph,
    k: int,
    threshold: Optional[int] = None,
) -> Optional[GWalk]:
    """Witness spanning generalized cycle with at least n-k arcs, or None.

    No spanning generalized cycle has more than min{n-N, c_f} arcs, and a
    Hamiltonian cycle of the instance augmented at a terminal set X decodes
    to one with at least n-|X| arcs.  So no bound, or a bound below n-k, is
    a "no" at any n; every other case meets the size cap.  A cycle with the
    fewest jumps J makes n-J arcs, so J > k is a "no"; otherwise the sets
    that yield a Hamiltonian cycle at the first size that can, J, are the
    jump-tail sets of J-jump cycles.  Only the size-J sets of feasible jump
    tails (`_tail_mask`) run, in ascending lexicographic order, each on the
    augmented instance with the exact Hamiltonian engine, and the first
    witness found is decoded back: arcs the base lacks become jumps.
    """
    d.require_smd()
    if k < 0:
        raise ValueError("k must be nonnegative")
    if k > DEFAULT_ATLEAST_K_CAP:
        raise TooLarge(k, DEFAULT_ATLEAST_K_CAP)
    bound = jump_metrics(d).bound
    if bound is None or d.n - bound > k:
        return None
    _check_size(d.n, DEFAULT_HAM_THRESHOLD, threshold)
    found = _fewest_jumps(d, [0], True, k)
    if found is None:
        return None
    jumps, seq, levels = found
    if d.n - bound > jumps:
        raise CertificateError(f"a cycle with {jumps} jumps beats the bound {bound}")
    tails, part = _tail_mask(d, jumps, levels), d.part_vector
    if any(part[u] == part[v] and not tails >> u & 1 for u, v in zip(seq, seq[1:] + seq[:1])):
        raise CertificateError("a fewest-jump cycle jumps from outside the tail mask")
    for x_set in combinations([v + 1 for v in _bits(tails)], jumps):
        # J = 0 leaves only the empty set, whose witness is the fewest-jump cycle
        cyc = (exact_ham_cycle(augment_terminals(d, x_set), threshold) if x_set
               else canonical_cycle(GWalk("cycle", tuple(v + 1 for v in seq))))
        if cyc is None:
            continue
        got = walk_length(d, cyc)
        if got < d.n - jumps:
            raise CertificateError(f"the decoded cycle has {got} arcs, fewer than {d.n - jumps}")
        return cyc
    raise CertificateError(f"no set of {jumps} jump tails yields a Hamiltonian cycle")


# -- jump metrics ----------------------------------------------------------


class JumpDistances(Mapping):
    """Read-only {(x, y): N(x, y)} view over one jump-count row per strong
    component: every vertex of a component reaches the same vertices, with
    the same jumps, so N(x, y) is rows[comp[x - 1], y - 1].

    -1 marks a pair with no generalized path.  Iteration is x-major and
    skips x == y and the unreachable pairs; the view compares equal to the
    dict with the same items.
    """

    def __init__(self, rows: np.ndarray, comp: np.ndarray):
        self._rows, self._comp = rows, comp

    def __getitem__(self, key) -> int:
        try:
            x, y = key
            if x != y and x >= 1 and y >= 1:
                hops = int(self._rows[self._comp[x - 1], y - 1])
                if hops >= 0:
                    return hops
        except (TypeError, ValueError, IndexError):
            pass
        raise KeyError(key)

    def __iter__(self):
        reached = _columns(self._rows >= 0)
        for x, k in enumerate(self._comp.tolist()):
            for y in reached[k]:
                if x != y:
                    yield x + 1, y + 1

    def __len__(self) -> int:
        per_row = np.count_nonzero(self._rows >= 0, axis=1)
        return int(per_row[self._comp].sum()) - len(self._comp)

    def __repr__(self) -> str:
        return f"{type(self).__name__}({dict(self)!r})"


@dataclass
class JumpMetrics:
    n_xy: JumpDistances
    unreachable: Tuple[Tuple[int, int], ...]
    N: int
    c_f: Optional[int]
    bound: Optional[int]


def _bits(mask: int):
    while mask:
        low = mask & -mask
        yield low.bit_length() - 1
        mask ^= low


def _columns(rows: np.ndarray):
    """The set columns of each row of a boolean matrix, as lists."""
    return [np.flatnonzero(row).tolist() for row in rows]


def _jump_rows(d: PartitionedDigraph):
    """(rows, comp): rows[comp[x], y] = fewest jumps on a generalized
    (x, y)-path, -1 if none, with one row per strong component.

    Arcs cost 0 and same-partite jumps cost 1.  The vertices of a strong
    component reach the same vertices along arcs, so one layered bitmask BFS
    serves the whole component: it takes their arc closure, then one jump
    into every partite set already reached, then the arc closure again;
    layer k holds the vertices first reached with k jumps.  A component is
    its lowest vertex's forward closure cut to the vertices that reach it
    back; the closures of jumped-to vertices are computed once, when first
    needed.
    """
    n, out_masks = d.n, d.out_masks
    closure = [None] * n
    parts = [0] * d.c
    for v, p in enumerate(d.part_vector):
        parts[p - 1] |= 1 << v
    rows, comp, left = [], [0] * n, (1 << n) - 1
    while left:
        x = _lowest_bit_index(left)
        seen = layer = closure[x] or _closure(out_masks, x)
        members = _closure(d.in_masks, x, seen)
        left &= ~members
        for v in _bits(members):
            closure[v], comp[v] = seen, len(rows)
        row = [-1] * n
        hops = 0
        while layer:
            for v in _bits(layer):
                row[v] = hops
            jumped = 0
            for block in parts:
                if block & seen:
                    jumped |= block
            layer = 0
            for v in _bits(jumped & ~seen):
                if closure[v] is None:
                    closure[v] = _closure(out_masks, v)
                layer |= closure[v]
            layer &= ~seen
            seen |= layer
            hops += 1
        rows.append(row)
    # every layer but the last reaches a new partite set, so no count exceeds
    # c; the smallest types that hold c and the row indices keep both compact
    return (np.array(rows, dtype=np.min_scalar_type(-d.c - 1)),
            np.array(comp, dtype=np.min_scalar_type(len(rows) - 1)))


def jump_metrics(d: PartitionedDigraph) -> JumpMetrics:
    """N(x,y) per ordered pair, the maximum N, and the min{n-N, c_f} bound."""
    d.require_smd()
    rows, comp = _jump_rows(d)
    missed = _columns(rows < 0)
    unreachable = tuple((x + 1, y + 1) for x, k in enumerate(comp.tolist()) for y in missed[k])
    big_n = int(rows.max())
    try:
        cf = factor_mod.c_f(d)
    except (NoFactor, Degenerate):
        cf = None
    bound = min(d.n - big_n, cf) if cf is not None else None
    return JumpMetrics(
        n_xy=JumpDistances(rows, comp),
        unreachable=unreachable,
        N=big_n,
        c_f=cf,
        bound=bound,
    )

