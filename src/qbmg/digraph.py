"""Core value types: two-colored bipartite digraphs and their undirected shadows.

Vertices are dense integer ids 0..n-1 with unique display names.  All values
are immutable after construction and all operations are pure functions, so
they are safe to share across concurrent workers.  A view derived from one
graph (its underlying graph, its maximal bicliques, its path-freeness) is
computed once and kept on the graph value it describes; a graph built from
the masks of a validated one reads its edge set off those masks on first use.
"""

from __future__ import annotations

from dataclasses import dataclass, field
from functools import cached_property
from itertools import product
from typing import Iterable, Iterator, Sequence, TypeVar

from .errors import DuplicateEdge, LoopEdge, MonochromaticEdge, TooLarge

CANONICAL_MAX_VERTICES = 10


def default_names(n: int) -> tuple[str, ...]:
    """Display names v1..vn."""
    return tuple(f"v{i + 1}" for i in range(n))


def iter_bits(mask: int) -> Iterator[int]:
    """Indices of set bits, ascending."""
    while mask:
        low = mask & -mask
        mask ^= low
        yield low.bit_length() - 1


def _validate_vertex_table(n: int, colors: tuple[int, ...], names: tuple[str, ...]) -> None:
    if n < 0:
        raise ValueError("vertex count must be non-negative")
    if len(colors) != n:
        raise ValueError(f"expected {n} colors, got {len(colors)}")
    if len(names) != n:
        raise ValueError(f"expected {n} names, got {len(names)}")
    for c in colors:
        if c not in (0, 1):
            raise ValueError(f"colors must be 0 or 1, got {c!r}")
    if len(set(names)) != n:
        raise ValueError("vertex names must be unique")


@dataclass(frozen=True)
class Digraph:
    """Bipartite two-colored digraph without loops or parallel edges.

    ``edges`` holds ordered pairs; the symmetric pair (u, v) and (v, u) may
    both be present.  Every edge joins vertices of different colors.
    """

    n: int
    colors: tuple[int, ...]
    edges: frozenset[tuple[int, int]]
    names: tuple[str, ...]
    # bit v of out_masks[u] (of in_masks[v] for bit u) is set iff u -> v is an edge
    out_masks: tuple[int, ...] = field(init=False, repr=False, compare=False)
    in_masks: tuple[int, ...] = field(init=False, repr=False, compare=False)

    def __post_init__(self) -> None:
        n, colors, names = self.n, self.colors, self.names
        _validate_vertex_table(n, colors, names)
        out = [0] * n
        inn = [0] * n
        for u, v in self.edges:
            if not (0 <= u < n and 0 <= v < n):
                raise ValueError(f"edge ({u}, {v}) out of range")
            if u == v:
                raise LoopEdge(f"loop at vertex {names[u]}")
            if colors[u] == colors[v]:
                raise MonochromaticEdge(
                    f"edge {names[u]} -> {names[v]} joins vertices of equal color"
                )
            out[u] |= 1 << v
            inn[v] |= 1 << u
        object.__setattr__(self, "out_masks", tuple(out))
        object.__setattr__(self, "in_masks", tuple(inn))

    @cached_property
    def adj_masks(self) -> tuple[int, ...]:
        return tuple(o | i for o, i in zip(self.out_masks, self.in_masks))

    @cached_property
    def symmetric_pairs(self) -> tuple[tuple[int, int], ...]:
        """Unordered pairs {u, v} (as u < v tuples) with both directions present."""
        pairs = []
        for u, (o, i) in enumerate(zip(self.out_masks, self.in_masks)):
            both = o & i & -(2 << u)  # partners v > u
            while both:
                low = both & -both
                both ^= low
                pairs.append((u, low.bit_length() - 1))
        return tuple(pairs)

    def sorted_edges(self) -> list[tuple[int, int]]:
        return sorted(self.edges)

    def named_edges(self) -> frozenset[tuple[str, str]]:
        return frozenset((self.names[u], self.names[v]) for u, v in self.edges)

    def id_of(self, name: str) -> int:
        return self._name_index[name]

    @cached_property
    def _name_index(self) -> dict[str, int]:
        return {name: i for i, name in enumerate(self.names)}


def _trusted_digraph(
    n: int,
    colors: tuple[int, ...],
    names: tuple[str, ...],
    out_masks: tuple[int, ...],
    in_masks: tuple[int, ...],
    oriented: bool = False,
) -> Digraph:
    """A ``Digraph`` from masks derived from a validated graph, without the
    range, loop and color checks of ``Digraph.__post_init__``; its edge set
    is read off ``out_masks`` on first use.  ``in_masks`` must be the
    transpose of ``out_masks``, and ``oriented`` (no symmetric pair) must
    hold when set."""
    g = object.__new__(Digraph)
    vars(g).update(n=n, colors=colors, names=names, out_masks=out_masks, in_masks=in_masks)
    if oriented:
        vars(g)["symmetric_pairs"] = ()
    return g


def _state_digraphs(colors: tuple[int, ...], names: tuple[str, ...], pairs: Sequence[tuple[int, int]],
                    states: Sequence[int], base: tuple[Sequence[int], Sequence[int]] | None = None,
                    oriented: bool = False) -> Iterator[Digraph]:
    """One digraph per assignment of a state to each pair (u, v), in
    ``product`` order (the last pair varies fastest): state 1 flips u -> v in
    the out- and in-masks ``base`` (no edges by default), 2 flips v -> u, 3
    both and 0 neither.  The pairs must be distinct and join opposite colors,
    and ``oriented`` must hold when set: ``_trusted_digraph`` checks nothing."""
    n = len(colors)
    out0, in0 = base or ((0,) * n, (0,) * n)
    arcs = [[[(u, v)] * (s & 1) + [(v, u)] * (s >> 1) for s in states] for u, v in pairs]
    for choice in product(*arcs):
        out, inn = list(out0), list(in0)
        for state_arcs in choice:
            for u, v in state_arcs:
                out[u] ^= 1 << v
                inn[v] ^= 1 << u
        yield _trusted_digraph(n, colors, names, tuple(out), tuple(inn), oriented)


@dataclass(frozen=True)
class UGraph:
    """Undirected bipartite graph; edges are normalized (u, v) pairs with u < v."""

    n: int
    colors: tuple[int, ...]
    edges: frozenset[tuple[int, int]]
    names: tuple[str, ...]

    def __post_init__(self) -> None:
        _validate_vertex_table(self.n, self.colors, self.names)
        for u, v in self.edges:
            if not (0 <= u < self.n and 0 <= v < self.n):
                raise ValueError(f"edge ({u}, {v}) out of range")
            if u == v:
                raise LoopEdge(f"loop at vertex {self.names[u]}")
            if u > v:
                raise ValueError(f"undirected edge ({u}, {v}) not normalized")
            if self.colors[u] == self.colors[v]:
                raise MonochromaticEdge(
                    f"edge {self.names[u]} -- {self.names[v]} joins vertices of equal color"
                )

    @cached_property
    def adj_masks(self) -> tuple[int, ...]:
        m = [0] * self.n
        for u, v in self.edges:
            m[u] |= 1 << v
            m[v] |= 1 << u
        return tuple(m)

    def has_edge(self, u: int, v: int) -> bool:
        return (min(u, v), max(u, v)) in self.edges

    def components(self) -> tuple[frozenset[int], ...]:
        """Connected components ordered by smallest member id."""
        return _mask_components(self.adj_masks)

    def is_connected(self) -> bool:
        return self.n <= 1 or len(self.components()) == 1

    def induced(self, vertices: Iterable[int]) -> tuple["UGraph", tuple[int, ...]]:
        """Induced subgraph re-indexed densely; also returns old ids per new id."""
        return induced_subdigraph(self, vertices)

    def sorted_edges(self) -> list[tuple[int, int]]:
        return sorted(self.edges)


def _trusted_ugraph(
    n: int, colors: tuple[int, ...], names: tuple[str, ...], adj_masks: tuple[int, ...]
) -> UGraph:
    """A ``UGraph`` from symmetric adjacency masks derived from a validated
    graph, without the checks of ``UGraph.__post_init__``; its edge set is
    read off the masks on first use."""
    u = object.__new__(UGraph)
    vars(u).update(n=n, colors=colors, names=names, adj_masks=adj_masks)
    return u


def _edge_set(g: "Digraph | UGraph") -> frozenset[tuple[int, int]]:
    """The ``edges`` field of both graph types.  A graph from a trusted
    build stores no edge set; it is read off the masks on first use: (u, v)
    for each bit v of ``out_masks[u]``, or of ``adj_masks[u]`` above u."""
    d = vars(g)
    if "_edges" not in d:
        upper = isinstance(g, UGraph)
        edges = []
        for u, m in enumerate(g.adj_masks if upper else g.out_masks):
            if upper:
                m &= -(2 << u)
            while m:
                low = m & -m
                m ^= low
                edges.append((u, low.bit_length() - 1))
        d["_edges"] = frozenset(edges)
    return d["_edges"]


def _store_edge_set(g: "Digraph | UGraph", edges: frozenset[tuple[int, int]]) -> None:
    vars(g)["_edges"] = edges


# The dataclass __init__ stores the edges field through this property, and a
# trusted build skips it.  A property on the class, unlike __getattr__, leaves
# the interpreter's fast path for every other attribute read in place.
Digraph.edges = UGraph.edges = property(_edge_set, _store_edge_set)  # type: ignore[assignment]


def _mask_components(adj: Sequence[int]) -> tuple[frozenset[int], ...]:
    """Connected components of the graph with adjacency masks ``adj``,
    ordered by smallest member id."""
    seen = 0
    out: list[frozenset[int]] = []
    for start in range(len(adj)):
        if seen >> start & 1:
            continue
        comp = 1 << start
        members = [start]
        frontier = [start]
        while frontier:
            new = adj[frontier.pop()] & ~comp
            comp |= new
            fresh = list(iter_bits(new))
            members += fresh
            frontier += fresh
        seen |= comp
        out.append(frozenset(members))
    return tuple(out)


def build_digraph(
    n: int,
    colors: Sequence[int],
    edges: Iterable[tuple[int, int]],
    names: Sequence[str] | None = None,
) -> Digraph:
    """Validated digraph constructor; rejects loops, same-color and repeated edges."""
    seen: set[tuple[int, int]] = set()
    for e in edges:
        pair = (e[0], e[1])
        if pair in seen:
            raise DuplicateEdge(f"edge ({pair[0]}, {pair[1]}) given twice")
        seen.add(pair)
    return Digraph(
        n=n,
        colors=tuple(colors),
        edges=frozenset(seen),
        names=tuple(names) if names is not None else default_names(n),
    )


def build_ugraph(
    n: int,
    colors: Sequence[int],
    edges: Iterable[tuple[int, int]],
    names: Sequence[str] | None = None,
) -> UGraph:
    """Validated undirected constructor; pairs are unordered and normalized."""
    seen: set[tuple[int, int]] = set()
    for u, v in edges:
        if u == v:
            # normalizing would hide the loop; let UGraph report it with its name
            pair = (u, v)
        else:
            pair = (min(u, v), max(u, v))
        if pair in seen:
            raise DuplicateEdge(f"edge {{{pair[0]}, {pair[1]}}} given twice")
        seen.add(pair)
    return UGraph(
        n=n,
        colors=tuple(colors),
        edges=frozenset(seen),
        names=tuple(names) if names is not None else default_names(n),
    )


def underlying(g: Digraph) -> UGraph:
    """Forget edge directions; symmetric pairs collapse to one undirected edge.
    Built once per graph from its adjacency masks, so every caller shares
    the views kept on it."""
    memo = vars(g)
    if "_underlying" not in memo:
        memo["_underlying"] = _trusted_ugraph(g.n, g.colors, g.names, g.adj_masks)
    return memo["_underlying"]


G = TypeVar("G", Digraph, UGraph)


def induced_subdigraph(g: G, vertices: Iterable[int]) -> tuple[G, tuple[int, ...]]:
    """Induced subgraph of a ``Digraph`` or ``UGraph``, of the same type and
    re-indexed densely; also returns old ids per new id.  Re-indexing keeps
    the vertex order, so normalized undirected edges stay normalized."""
    old = tuple(sorted(set(vertices)))
    keep = 0
    for v in old:
        if not 0 <= v < g.n:
            raise ValueError(f"vertex {v} out of range")
        keep |= 1 << v
    # new bit per old vertex; a dropped vertex maps to no bit
    bit = [0] * g.n
    for i, v in enumerate(old):
        bit[v] = 1 << i

    def squeeze(masks: tuple[int, ...]) -> tuple[int, ...]:
        out = []
        for v in old:
            m = masks[v] & keep
            r = 0
            while m:
                low = m & -m
                m ^= low
                r |= bit[low.bit_length() - 1]
            out.append(r)
        return tuple(out)

    colors = tuple(g.colors[v] for v in old)
    names = tuple(g.names[v] for v in old)
    if isinstance(g, Digraph):
        return _trusted_digraph(len(old), colors, names, squeeze(g.out_masks), squeeze(g.in_masks)), old
    return _trusted_ugraph(len(old), colors, names, squeeze(g.adj_masks)), old


def weak_components(g: Digraph) -> tuple[frozenset[int], ...]:
    """Connected components of the underlying graph, ordered by smallest member."""
    return _mask_components(g.adj_masks)


@dataclass(frozen=True)
class CanonicalForm:
    """Isomorphism certificate for small digraphs.

    ``code`` packs, over the best vertex ordering, the layered adjacency
    border bits (for each position k: bits to/from all earlier positions),
    minimized lexicographically over all orderings.  Two graphs share a code
    iff some edge-preserving vertex bijection maps one onto the other;
    colors are ignored.
    """

    code: bytes


def _swappable_matrix(n: int, rows: Sequence[int], cols: Sequence[int]) -> list[list[bool]]:
    # swap[u][v]: transposing u and v is an automorphism fixing everything else
    swap = [[False] * n for _ in range(n)]
    for u in range(n):
        for v in range(u + 1, n):
            mask = ~((1 << u) | (1 << v))
            if (rows[u] ^ rows[v]) & mask:
                continue
            if (cols[u] ^ cols[v]) & mask:
                continue
            if (rows[u] >> v & 1) != (rows[v] >> u & 1):
                continue
            swap[u][v] = swap[v][u] = True
    return swap


def canonical_order(
    n: int, rows: Sequence[int], cols: Sequence[int]
) -> tuple[list[int], list[int]]:
    """Lexicographically minimal layered border encoding over all vertex
    orderings, and an ordering that reaches it (``order[k]`` is the vertex
    placed at position k).  The graph relabeled by ``order`` has the
    minimal encoding as its own identity levels."""
    if n == 0:
        return [], []
    swap = _swappable_matrix(n, rows, cols)
    best: list[int] | None = None
    best_order: list[int] = []
    prefix: list[int] = []
    placed: list[int] = []
    used = 0

    def rec() -> None:
        nonlocal best, best_order, used
        k = len(placed)
        if k == n:
            if best is None or prefix < best:
                best = prefix.copy()
                best_order = placed.copy()
            return
        groups: dict[int, list[int]] = {}
        for v in range(n):
            if used >> v & 1:
                continue
            border = 0
            rv, cv = rows[v], cols[v]
            for p in placed:
                border = (border << 2) | ((rv >> p & 1) << 1) | (cv >> p & 1)
            groups.setdefault(border, []).append(v)
        for border in sorted(groups):
            prefix.append(border)
            if best is not None and prefix > best[: k + 1]:
                prefix.pop()
                break  # larger border prefix cannot improve; later borders only grow
            reps: list[int] = []
            for v in groups[border]:
                if any(swap[r][v] for r in reps):
                    continue
                reps.append(v)
            for v in reps:
                placed.append(v)
                used |= 1 << v
                rec()
                used &= ~(1 << v)
                placed.pop()
            prefix.pop()

    rec()
    assert best is not None
    return best, best_order


def _pack_levels(n: int, levels: Sequence[int]) -> bytes:
    acc = 0
    bits = 0
    for k, level in enumerate(levels):
        acc = (acc << (2 * k)) | level
        bits += 2 * k
    return bytes([n]) + acc.to_bytes((bits + 7) // 8 or 1, "big")


def identity_levels(g: Digraph) -> tuple[int, ...]:
    """Layered border encoding of the graph under its own vertex order; it
    determines the edge set, so distinct edge sets never tie."""
    out: list[int] = []
    for k in range(g.n):
        rk, ck = g.out_masks[k], g.in_masks[k]
        border = 0
        for p in range(k):
            border = (border << 2) | ((rk >> p & 1) << 1) | (ck >> p & 1)
        out.append(border)
    return tuple(out)


def canonical_form(g: Digraph) -> CanonicalForm:
    """Canonical certificate by pruned search over vertex orderings (n <= 10)."""
    if g.n > CANONICAL_MAX_VERTICES:
        raise TooLarge(f"canonical form supports at most {CANONICAL_MAX_VERTICES} vertices")
    levels, _ = canonical_order(g.n, g.out_masks, g.in_masks)
    return CanonicalForm(_pack_levels(g.n, levels))


def ugraph_canonical_form(u: UGraph) -> CanonicalForm:
    """The canonical form of the digraph with both directions of every edge."""
    return canonical_form(_trusted_digraph(u.n, u.colors, u.names, u.adj_masks, u.adj_masks))
