"""Exact desk-scale engines: Hamiltonicity, prescribed-end spanning walks,
longest-walk oracles, and the jump-count metrics.

The subset dynamic programs are vectorized over all vertex subsets of a
given popcount layer, which keeps n = 16..18 instances within seconds.
Thresholds are configuration: an explicit argument wins, then the
GMPD_EXACT_THRESHOLD environment variable, then the per-engine default.
"""

import os
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

_BIG = 10 ** 6


def resolve_threshold(default: int, override: Optional[int] = None) -> int:
    if override is not None:
        return override
    env = os.environ.get("GMPD_EXACT_THRESHOLD")
    if env:
        return int(env)
    return default


def _check_size(n: int, default: int, override: Optional[int]):
    limit = resolve_threshold(default, override)
    if n > limit:
        raise TooLarge(n, limit)


@lru_cache(maxsize=8)
def _popcount_layers(n: int):
    """The subsets of n vertices (n < 32) as int32 masks, by popcount.

    int32 halves what the cache keeps alive (4 MiB at n = 20).  Callers widen
    one layer at a time to intp: numpy converts an int32 index array to intp
    on every indexing, which is slower than converting each layer once."""
    masks = np.arange(1 << n, dtype=np.int32)
    pc = np.bitwise_count(masks)
    return tuple(np.flatnonzero(pc == p).astype(np.int32) for p in range(n + 1))


# -- Hamiltonian cycle / prescribed-end Hamiltonian path ------------------


def _reach_dp_fast(n: int, in_mask, start: int) -> np.ndarray:
    """dp[mask] = bitmask of vertices reachable as the last vertex of a path
    that starts at `start` and visits exactly `mask`; in_mask[w] holds the
    0-based predecessors of w."""
    dp = np.zeros(1 << n, dtype=np.uint32)
    dp[1 << start] = np.uint32(1 << start)
    layers = _popcount_layers(n)
    in_arr = [np.uint32(x & 0xFFFFFFFF) for x in in_mask]
    for p in range(1, n):
        layer = layers[p].astype(np.intp)
        sub = layer[dp[layer] != 0]
        if sub.size == 0:
            continue
        ends = dp[sub]
        for w in range(n):
            if w == start:
                continue
            bw = 1 << w
            free = (sub & bw) == 0
            if not free.any():
                continue
            ok = free & ((ends & in_arr[w]) != 0)
            if not ok.any():
                continue
            dp[sub[ok] | bw] |= np.uint32(bw)
    return dp


def _lowest_bit_index(x: int) -> int:
    return (x & -x).bit_length() - 1


def _reconstruct_path(dp: np.ndarray, in_mask, start: int, last: int, full: int):
    """Walk the reachability table backwards, smallest predecessor first."""
    seq = []
    mask, cur = full, last
    while cur != start or mask != (1 << start):
        seq.append(cur)
        pmask = mask ^ (1 << cur)
        cands = int(dp[pmask]) & in_mask[cur]
        if not cands:
            raise CertificateError(f"reachability table has no predecessor of vertex {cur + 1}")
        cur = _lowest_bit_index(cands)
        mask = pmask
    seq.append(start)
    seq.reverse()
    return seq


def exact_ham_cycle(
    d: PartitionedDigraph, threshold: Optional[int] = None
) -> Optional[GWalk]:
    """Exact Hamiltonian-cycle search; accepts augmented instances."""
    _check_size(d.n, DEFAULT_HAM_THRESHOLD, threshold)
    n = d.n
    if n < 2:
        return None
    dp = _reach_dp_fast(n, d.in_masks, 0)
    full = (1 << n) - 1
    closers = int(dp[full]) & d.in_masks[0]
    if closers == 0:
        return None
    last = _lowest_bit_index(closers)
    seq = _reconstruct_path(dp, d.in_masks, 0, last, full)
    cyc = canonical_cycle(GWalk("cycle", tuple(v + 1 for v in seq)))
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
    if x == y:
        raise ValueError("endpoints must differ")
    _check_size(d.n, DEFAULT_HAM_THRESHOLD, threshold)
    n = d.n
    part = d.part_vector
    same = [0] * (d.c + 1)
    for v in range(n):
        same[part[v]] |= 1 << v
    # predecessors along an arc or a jump inside the partite set
    in_mask = [(d.in_masks[v] | same[part[v]]) & ~(1 << v) for v in range(n)]
    dp = _reach_dp_fast(n, in_mask, x - 1)
    full = (1 << n) - 1
    if not int(dp[full]) >> (y - 1) & 1:
        return None
    seq = _reconstruct_path(dp, in_mask, x - 1, y - 1, full)
    walk = GWalk("path", tuple(v + 1 for v in seq))
    validate_walk(d, walk)
    if walk.seq[0] != x or walk.seq[-1] != y or len(walk.seq) != n:
        raise CertificateError(f"the reconstructed walk is not a spanning ({x},{y})-walk")
    return walk


# -- longest-walk oracles --------------------------------------------------


def _max_arc_walk(d: PartitionedDigraph, starts, close: bool) -> Optional[Tuple[int, GWalk]]:
    """(max arcs, witness) over spanning legal sequences from one of `starts`
    (0-based), or None; with `close` the one start is also the last step's
    head, so the sequence is a cycle.

    dp[mask, v] is the most arcs on a legal sequence that starts in `starts`,
    visits exactly `mask` and ends at v; a cell is alive when it is >= 0.
    Ties go to the smallest last vertex, then the smallest predecessor.
    """
    n = d.n
    # 1 for an arc, 0 for a same-partite jump, -_BIG for a forbidden pair
    cost = np.array(factor_mod.completion_costs(d))
    gain = np.where(cost >= factor_mod.INF, -_BIG, 1 - cost).astype(np.int32)
    layers = _popcount_layers(n)
    dp = np.full((1 << n, n), -_BIG, dtype=np.int32)
    for v in starts:
        dp[1 << v, v] = 0
    for p in range(1, n):
        layer = layers[p].astype(np.intp)
        alive = layer[(dp[layer] >= 0).any(axis=1)]
        if alive.size == 0:
            continue
        block = dp[alive]
        for w in range(n):
            bw = 1 << w
            free = (alive & bw) == 0
            if not free.any():
                continue
            best = (block[free] + gain[:, w][None, :]).max(axis=1)
            ok = best >= 0
            if not ok.any():
                continue
            targets = alive[free][ok] | bw
            dp[targets, w] = np.maximum(dp[targets, w], best[ok])
    full = (1 << n) - 1
    totals = dp[full] + gain[:, starts[0]] if close else dp[full]
    arcs = int(totals.max())
    if arcs < 0:
        return None
    # a longest generalized path can always be grown to a spanning one
    if not close and arcs != int(dp.max()):
        raise CertificateError("no spanning generalized path attains the maximum arc count")
    cur = int(totals.argmax())
    seq, mask = [cur], full
    while mask & (mask - 1):
        pmask = mask ^ (1 << cur)
        cand = np.flatnonzero(dp[pmask] + gain[:, cur] == dp[mask, cur])
        if not cand.size:
            raise CertificateError(f"max-arc table has no predecessor of vertex {cur + 1}")
        cur = int(cand[0])
        mask = pmask
        seq.append(cur)
    seq = tuple(v + 1 for v in reversed(seq))
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
    k_cap: int = DEFAULT_ATLEAST_K_CAP,
) -> Optional[GWalk]:
    """Witness spanning generalized cycle with at least n-k arcs, or None.

    No spanning generalized cycle has more than min{n-N, c_f} arcs, and a
    Hamiltonian cycle of the instance augmented at a terminal set X decodes
    to one with at least n-|X| arcs.  So no bound, or a bound below n-k, is
    a "no" at any n, and only the sizes k' = max(0, n - bound)..k meet the
    size cap: for each, every terminal set X of size k' in ascending
    lexicographic order, augmenting the instance and running the exact
    Hamiltonian engine.  The first witness found is decoded back: arcs the
    base lacks become jumps.
    """
    d.require_smd()
    if k < 0:
        raise ValueError("k must be nonnegative")
    if k > k_cap:
        raise TooLarge(k, k_cap)
    bound = jump_metrics(d).bound
    if bound is None:
        return None
    k_min = max(0, d.n - bound)
    if k_min > k:
        return None
    _check_size(d.n, DEFAULT_HAM_THRESHOLD, threshold)
    verts = sorted(d.vertices())
    for k2 in range(k_min, k + 1):
        for x_set in combinations(verts, k2):
            dx = augment_terminals(d, x_set)
            cyc = exact_ham_cycle(dx, threshold)
            if cyc is None:
                continue
            walk = canonical_cycle(GWalk("cycle", cyc.seq))
            got = walk_length(d, walk)
            if got < d.n - k2:
                raise CertificateError(f"the decoded cycle has {got} arcs, fewer than {d.n - k2}")
            return walk
    return None


# -- jump metrics ----------------------------------------------------------


class JumpDistances(Mapping):
    """Read-only {(x, y): N(x, y)} view over an n×n jump-count matrix.

    -1 marks a pair with no generalized path.  Iteration is x-major and
    skips x == y and the unreachable pairs; the view compares equal to the
    dict with the same items.
    """

    def __init__(self, dist: np.ndarray):
        self._dist = dist

    def __getitem__(self, key) -> int:
        try:
            x, y = key
            if x != y and x >= 1 and y >= 1:
                hops = int(self._dist[x - 1, y - 1])
                if hops >= 0:
                    return hops
        except (TypeError, ValueError, IndexError):
            pass
        raise KeyError(key)

    def __iter__(self):
        for x, y in zip(*np.nonzero(self._dist >= 0)):
            if x != y:
                yield int(x) + 1, int(y) + 1

    def __len__(self) -> int:
        return int(np.count_nonzero(self._dist >= 0)) - len(self._dist)

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


def _jump_matrix(d: PartitionedDigraph) -> np.ndarray:
    """dist[x, y] = fewest jumps on a generalized (x, y)-path, -1 if none.

    Arcs cost 0 and same-partite jumps cost 1.  From each source a layered
    bitmask BFS takes the arc closure, then one jump into every partite set
    already reached, then the arc closure again; layer k holds the vertices
    first reached with k jumps.
    """
    n = d.n
    closure = [_closure(d.out_masks, v) for v in range(n)]
    parts = [0] * d.c
    for v, p in enumerate(d.part_vector):
        parts[p - 1] |= 1 << v
    # every layer but the last reaches a new partite set, so no count exceeds
    # c; the smallest signed type that holds c keeps the matrix compact
    dist = np.full((n, n), -1, dtype=np.min_scalar_type(-d.c - 1))
    for x in range(n):
        row = [-1] * n
        seen = layer = closure[x]
        hops = 0
        while layer:
            for v in _bits(layer):
                row[v] = hops
            jumped = 0
            for members in parts:
                if members & seen:
                    jumped |= members
            layer = 0
            for v in _bits(jumped & ~seen):
                layer |= closure[v]
            layer &= ~seen
            seen |= layer
            hops += 1
        dist[x] = row
    return dist


def jump_metrics(d: PartitionedDigraph) -> JumpMetrics:
    """N(x,y) per ordered pair, the maximum N, and the min{n-N, c_f} bound."""
    d.require_smd()
    dist = _jump_matrix(d)
    unreachable = tuple((int(x) + 1, int(y) + 1) for x, y in zip(*np.nonzero(dist < 0)))
    big_n = int(dist.max())
    try:
        cf = factor_mod.c_f(d)
    except (NoFactor, Degenerate):
        cf = None
    bound = min(d.n - big_n, cf) if cf is not None else None
    return JumpMetrics(
        n_xy=JumpDistances(dist),
        unreachable=unreachable,
        N=big_n,
        c_f=cf,
        bound=bound,
    )

