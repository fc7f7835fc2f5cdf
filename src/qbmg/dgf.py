"""Line-oriented text format for digraphs and undirected graphs.

    digraph            (or: ugraph)
    # comment
    v <name> <0|1>
    e <from> <to>

Vertex ids follow declaration order.  Parsing is strict: unknown directives,
re-declared vertices, undeclared edge endpoints, invalid colors, loops,
same-color edges and repeated edges are all errors carrying the line number;
text without a header line is ``empty input``, at no line.
Emitted text is byte-stable: vertices in id order, edges sorted by id pair.
It parses back to an identical graph, so ``format_dgf`` raises ``ValueError``
for a vertex name that is empty or holds whitespace or '#'.
"""

from __future__ import annotations

from .digraph import Digraph, UGraph, build_digraph, build_ugraph
from .errors import ParseError


def parse_dgf(text: str) -> Digraph | UGraph:
    header: str | None = None
    names: list[str] = []
    colors: list[int] = []
    index: dict[str, int] = {}
    edges: list[tuple[int, int]] = []
    edge_lines: list[int] = []

    for lineno, raw in enumerate(text.splitlines(), start=1):
        line = raw.split("#", 1)[0].strip()
        if not line:
            continue
        tokens = line.split()
        if header is None:
            if tokens != ["digraph"] and tokens != ["ugraph"]:
                raise ParseError(f"expected 'digraph' or 'ugraph', got {line!r}", lineno)
            header = tokens[0]
            continue
        directive = tokens[0]
        if directive == "v":
            if len(tokens) != 3:
                raise ParseError("vertex line must be 'v <name> <0|1>'", lineno)
            _, name, color_text = tokens
            if name in index:
                raise ParseError(f"vertex {name!r} re-declared", lineno)
            if color_text not in ("0", "1"):
                raise ParseError(f"invalid color {color_text!r}", lineno)
            index[name] = len(names)
            names.append(name)
            colors.append(int(color_text))
        elif directive == "e":
            if len(tokens) != 3:
                raise ParseError("edge line must be 'e <from> <to>'", lineno)
            _, a, b = tokens
            if a not in index:
                raise ParseError(f"undeclared vertex {a!r}", lineno)
            if b not in index:
                raise ParseError(f"undeclared vertex {b!r}", lineno)
            edges.append((index[a], index[b]))
            edge_lines.append(lineno)
        else:
            raise ParseError(f"unknown directive {directive!r}", lineno)

    if header is None:
        raise ParseError("empty input")

    build = build_digraph if header == "digraph" else build_ugraph
    seen: set[tuple[int, int]] = set()
    for (u, v), lineno in zip(edges, edge_lines):
        key = (u, v) if header == "digraph" else (min(u, v), max(u, v))
        if key in seen:
            raise ParseError(f"edge {names[u]} {names[v]} repeated", lineno)
        seen.add(key)
        if u == v:
            raise ParseError(f"loop at {names[u]}", lineno)
        if colors[u] == colors[v]:
            raise ParseError(f"edge {names[u]} {names[v]} joins equal colors", lineno)
    return build(len(names), colors, edges, names)


def format_dgf(g: Digraph | UGraph) -> str:
    lines = ["digraph" if isinstance(g, Digraph) else "ugraph"]
    for v in range(g.n):
        name = g.names[v]
        if name.split() != [name] or "#" in name:
            raise ValueError(f"vertex {v} has name {name!r}, which DGF cannot carry")
        lines.append(f"v {name} {g.colors[v]}")
    for u, v in g.sorted_edges():
        lines.append(f"e {g.names[u]} {g.names[v]}")
    return "\n".join(lines) + "\n"
