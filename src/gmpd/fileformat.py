"""Plain-text instance files.

Grammar (LF line endings, ASCII):

    gmpd 1
    <n> <c>
    <p1> ... <pn>          one partite index per vertex
    <m>
    <u> <v>                m arc lines, lexicographically sorted on emit
    weights <K>            optional: K weight-1 arc lines follow
    <u> <v>
    legend <K>             optional: K "name id" lines follow
    <name> <id>

Parsing and validation are separate: a file whose arc list violates the
partite structure parses fine and is flagged by the validator."""

from dataclasses import dataclass, field
from typing import Dict, Optional

from .digraph import PartitionedDigraph
from .errors import ParseError

HEADER = "gmpd 1"


@dataclass
class InstanceFile:
    digraph: PartitionedDigraph
    weights: Optional[frozenset] = None          # weight-1 arcs
    legend: Dict[str, int] = field(default_factory=dict)


def emit_instance(inst: InstanceFile) -> str:
    d = inst.digraph
    lines = [HEADER, f"{d.n} {d.c}", " ".join(str(d.part(v)) for v in d.vertices())]
    arcs = sorted(d.arcs)
    lines.append(str(len(arcs)))
    lines.extend(f"{u} {v}" for u, v in arcs)
    if inst.weights is not None:
        ones = sorted(inst.weights)
        lines.append(f"weights {len(ones)}")
        lines.extend(f"{u} {v}" for u, v in ones)
    if inst.legend:
        items = sorted(inst.legend.items(), key=lambda kv: kv[1])
        lines.append(f"legend {len(items)}")
        lines.extend(f"{name} {vid}" for name, vid in items)
    return "\n".join(lines) + "\n"


def parse_instance(text: str) -> InstanceFile:
    lines = text.splitlines()
    pos = 0

    def take() -> str:
        nonlocal pos
        if pos >= len(lines):
            raise ParseError(pos + 1, "unexpected end of file")
        pos += 1
        return lines[pos - 1]

    if take().strip() != HEADER:
        raise ParseError(1, f"expected header {HEADER!r}")
    try:
        n, c = map(int, take().split())
    except ValueError as exc:
        raise ParseError(pos, f"bad size line: {exc}") from None
    parts = take().split()
    if len(parts) != n:
        raise ParseError(pos, f"expected {n} partite indices, got {len(parts)}")
    try:
        part = [int(p) for p in parts]
    except ValueError as exc:
        raise ParseError(pos, f"bad partite index: {exc}") from None
    if max(part, default=0) != c or sorted(set(part)) != list(range(1, c + 1)):
        raise ParseError(pos, "partite indices must use every value 1..c")
    try:
        m = int(take())
    except ValueError as exc:
        raise ParseError(pos, f"bad arc count: {exc}") from None
    seen = set()
    for _ in range(m):
        line = take()
        try:
            u, v = map(int, line.split())
        except ValueError as exc:
            raise ParseError(pos, f"bad arc line: {exc}") from None
        if not (1 <= u <= n and 1 <= v <= n) or u == v:
            raise ParseError(pos, f"illegal arc ({u},{v})")
        if (u, v) in seen:
            raise ParseError(pos, f"duplicate arc ({u},{v})")
        seen.add((u, v))
    arcs = frozenset(seen)
    weights = None
    legend: Dict[str, int] = {}
    while pos < len(lines):
        line = take().strip()
        if not line:
            continue
        if line.startswith("weights"):
            try:
                k = int(line.split()[1])
            except (IndexError, ValueError):
                raise ParseError(pos, "bad weights header") from None
            ones = set()
            for _ in range(k):
                wline = take()
                try:
                    u, v = map(int, wline.split())
                except ValueError as exc:
                    raise ParseError(pos, f"bad weight line: {exc}") from None
                if (u, v) not in seen:
                    raise ParseError(pos, f"weight on missing arc ({u},{v})")
                ones.add((u, v))
            weights = frozenset(ones)
        elif line.startswith("legend"):
            try:
                k = int(line.split()[1])
            except (IndexError, ValueError):
                raise ParseError(pos, "bad legend header") from None
            for _ in range(k):
                lline = take()
                try:
                    name, vid = lline.split()
                    legend[name] = int(vid)
                except ValueError as exc:
                    raise ParseError(pos, f"bad legend line: {exc}") from None
        else:
            raise ParseError(pos, f"unexpected trailer {line!r}")
    try:
        d = PartitionedDigraph(part, arcs)
    except ValueError as exc:
        raise ParseError(0, str(exc)) from None
    return InstanceFile(digraph=d, weights=weights, legend=legend)
