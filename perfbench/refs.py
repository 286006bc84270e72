"""Reference answers and answer checks that do not use gmpd's own engines.

Instances are handled here as plain data: a tuple of partite indices
(vertex v has index part[v - 1]) and a frozenset of (u, v) arcs.  Optimal
factor totals come from scipy's assignment solver, subset answers from
small numpy dynamic programs written for this file, and every returned walk
is re-checked step by step.
"""

import numpy as np

BIG = 10 ** 6


class Wrong(Exception):
    """An answer that disagrees with its reference."""


def expect(cond, msg):
    if not cond:
        raise Wrong(msg)


# -- plain-data instance helpers -------------------------------------------


def spec_of(d):
    """(part, arcs) of a gmpd PartitionedDigraph, read from its public fields."""
    return tuple(d.part_vector), frozenset(d.arcs)


def is_smd(part, arcs):
    n = len(part)
    for u, v in arcs:
        if part[u - 1] == part[v - 1]:
            return False
    for u in range(1, n + 1):
        for v in range(u + 1, n + 1):
            if part[u - 1] != part[v - 1] and (u, v) not in arcs and (v, u) not in arcs:
                return False
    return True


def _reach(n, arcs, start, reverse):
    nbr = {v: [] for v in range(1, n + 1)}
    for u, v in arcs:
        if reverse:
            nbr[v].append(u)
        else:
            nbr[u].append(v)
    seen = {start}
    stack = [start]
    while stack:
        for w in nbr[stack.pop()]:
            if w not in seen:
                seen.add(w)
                stack.append(w)
    return seen


def is_strong(part, arcs):
    n = len(part)
    return len(_reach(n, arcs, 1, False)) == n and len(_reach(n, arcs, 1, True)) == n


def is_extended(part, arcs):
    """Every partite-set pair is joined one way only or completely."""
    c = max(part)
    members = [[v for v in range(1, len(part) + 1) if part[v - 1] == i] for i in range(1, c + 1)]
    for i in range(c):
        for j in range(i + 1, c):
            pairs = [(u, v) for u in members[i] for v in members[j]]
            fwd = sum((u, v) in arcs for u, v in pairs)
            bwd = sum((v, u) in arcs for u, v in pairs)
            full = fwd == bwd == len(pairs)
            if not (full or fwd == 0 or bwd == 0):
                return False
    return True


def nontrivial_parts(part):
    return sum(1 for i in set(part) if part.count(i) >= 2)


# -- walks -------------------------------------------------------------------


def check_walk(part, arcs, kind, seq, spanning):
    """Arc count of a generalized path or cycle, recomputed from the arc set;
    raises Wrong on a repeated vertex or a step that is neither an arc nor a
    same-partite jump."""
    n = len(part)
    seq = tuple(seq)
    expect(kind in ("path", "cycle"), f"unknown walk kind {kind!r}")
    expect(len(seq) == len(set(seq)), "walk repeats a vertex")
    expect(all(1 <= v <= n for v in seq), "walk leaves the vertex range")
    if spanning:
        expect(len(seq) == n, f"walk covers {len(seq)} of {n} vertices")
    steps = list(zip(seq, seq[1:]))
    if kind == "cycle":
        expect(len(seq) >= 2, "cycle shorter than two vertices")
        steps.append((seq[-1], seq[0]))
    count = 0
    for u, v in steps:
        if (u, v) in arcs:
            count += 1
        else:
            expect(part[u - 1] == part[v - 1], f"illegal step ({u},{v})")
    return count


def parse_rendered(text):
    """Vertex sequence, walk kind and connectors of a rendered walk such as
    ``1->2~3->(1)``."""
    tokens, conns = [], []
    cur = ""
    i = 0
    while i < len(text):
        if text.startswith("->", i):
            tokens.append(cur)
            conns.append("->")
            cur = ""
            i += 2
        elif text[i] == "~":
            tokens.append(cur)
            conns.append("~")
            cur = ""
            i += 1
        else:
            cur += text[i]
            i += 1
    tokens.append(cur)
    if tokens[-1].startswith("("):
        seq = tuple(int(t) for t in tokens[:-1])
        expect(tokens[-1] == f"({seq[0]})", f"cycle text does not wrap: {text!r}")
        return "cycle", seq, conns
    return "path", tuple(int(t) for t in tokens), conns


def check_rendered(part, arcs, text, kind, spanning):
    """Arc count of a rendered walk; each connector must match the step."""
    got_kind, seq, conns = parse_rendered(text)
    expect(got_kind == kind, f"expected a {kind}, got {text!r}")
    count = check_walk(part, arcs, kind, seq, spanning)
    steps = list(zip(seq, seq[1:])) + ([(seq[-1], seq[0])] if kind == "cycle" else [])
    for (u, v), conn in zip(steps, conns):
        expect((conn == "->") == ((u, v) in arcs), f"connector {conn} wrong at ({u},{v})")
    return seq, count


# -- assignment references (scipy) --------------------------------------------


def _completion(part, arcs):
    n = len(part)
    p = np.asarray(part)
    cost = np.where(p[:, None] == p[None, :], 1, BIG).astype(np.int64)
    for u, v in arcs:
        cost[u - 1, v - 1] = 0
    np.fill_diagonal(cost, BIG)
    return cost


def _assignment_total(cost):
    from scipy.optimize import linear_sum_assignment

    rows, cols = linear_sum_assignment(cost)
    total = int(cost[rows, cols].sum())
    return None if total >= BIG else total


def factor_max(part, arcs):
    """c_f: n minus the minimum jump count of a successor permutation."""
    total = _assignment_total(_completion(part, arcs))
    return None if total is None else len(part) - total


def path_max(part, arcs):
    """Longest generalized path: the completion plus a dummy vertex joined
    both ways at cost 0; the n - 1 real successor pairs lose one arc per jump."""
    n = len(part)
    cost = np.zeros((n + 1, n + 1), dtype=np.int64)
    cost[:n, :n] = _completion(part, arcs)
    cost[n, n] = BIG
    return n - 1 - _assignment_total(cost)


# -- jump distances ------------------------------------------------------------


def jump_distances(part, arcs):
    """All-pairs minimum jump counts (arcs 0, same-partite steps 1) by
    Floyd-Warshall; unreachable pairs stay infinite."""
    n = len(part)
    p = np.asarray(part)
    dist = np.where(p[:, None] == p[None, :], 1.0, np.inf)
    for u, v in arcs:
        dist[u - 1, v - 1] = 0.0
    np.fill_diagonal(dist, 0.0)
    for k in range(n):
        np.minimum(dist, dist[:, k, None] + dist[None, k, :], out=dist)
    return dist


# -- subset dynamic programs -------------------------------------------------


def _layers(n):
    masks = np.arange(1 << n, dtype=np.int64)
    counts = np.zeros(1 << n, dtype=np.int64)
    for b in range(n):
        counts += (masks >> b) & 1
    order = np.argsort(counts, kind="stable")
    bounds = np.searchsorted(counts[order], np.arange(n + 2))
    return [order[bounds[k]:bounds[k + 1]] for k in range(n + 1)]


def cycle_max(part, arcs):
    """Most arcs on a spanning generalized cycle, or None.

    Pull-form Held-Karp over subsets containing vertex 0: best[mask, v] is
    the fewest jumps of a sequence from 0 through mask ending at v."""
    n = len(part)
    if n < 2:
        return None
    step = _completion(part, arcs)
    step[step >= BIG] = BIG
    best = np.full((1 << n, n), BIG, dtype=np.int64)
    best[1, 0] = 0
    for layer in _layers(n)[2:]:
        layer = layer[(layer & 1) == 1]
        for v in range(1, n):
            masks = layer[((layer >> v) & 1) == 1]
            if masks.size == 0:
                continue
            prev = best[masks ^ (1 << v)] + step[:, v][None, :]
            best[masks, v] = np.minimum(prev.min(axis=1), BIG)
    full = (1 << n) - 1
    jumps = int((best[full] + step[:, 0]).min())
    return None if jumps >= BIG else n - jumps


def xy_reachable(part, arcs, x, y):
    """Whether a spanning sequence from x to y exists whose steps are arcs or
    same-partite jumps."""
    n = len(part)
    p = np.asarray(part)
    legal = p[:, None] == p[None, :]
    for u, v in arcs:
        legal[u - 1, v - 1] = True
    np.fill_diagonal(legal, False)
    ends = np.zeros(1 << n, dtype=np.int64)
    ends[1 << (x - 1)] = 1 << (x - 1)
    into = [sum(1 << u for u in range(n) if legal[u, v]) for v in range(n)]
    for layer in _layers(n)[2:]:
        for v in range(n):
            if v == x - 1:
                continue
            masks = layer[((layer >> v) & 1) == 1]
            hit = (ends[masks ^ (1 << v)] & into[v]) != 0
            ends[masks[hit]] |= 1 << v
    return bool(ends[(1 << n) - 1] >> (y - 1) & 1)
