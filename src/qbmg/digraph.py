"""Core value types: two-colored bipartite digraphs and their undirected shadows.

Vertices are dense integer ids 0..n-1 with unique display names.  All values
are immutable after construction and all operations are pure functions, so
they are safe to share across concurrent workers.  A view derived from one
graph (its underlying graph, its components, its path-freeness) is computed
once and kept on the graph value it describes.  Adjacency masks are the only
stored form of both graph types, however built; the edge set is read off
them on first use.  Each type has one validated constructor, the class
itself, which ``build_digraph`` and ``build_ugraph`` also name; graphs
derived from a validated one are built from its masks without checks.  Connected components come from one core over vertex
masks, ``_component_masks``; a digraph's are kept on its underlying graph.
The generators' digraphs and the mask sweep's masks come from one odometer
over per-pair edge states, ``_edge_states``.

One core per job on masks serves every module: ``_reorder`` renumbers by a
vertex order, ``_inverse`` gives each vertex's place in one, ``_mask_pairs``
lists pairs in increasing order and ``_row_union`` ORs rows over a vertex
set.  The hot loops of ``axioms.is_qbmg_masks``, ``_edge_states`` and
``trees._build_tree`` keep fused copies, each marked where it stands: a
call per step measured slower.

A ``Digraph`` keeps its underlying graph, adjacency masks, symmetric pairs
and recognition verdict, which ``_keep_verdict`` alone stores.  A ``UGraph``
keeps its components, its false-twin representatives, the least k it is
known to be P_k-free for (see ``qbmg.paths``), and a mark when it is the
underlying graph of a recognized digraph: P6-free and C6-free by the paper's
theorem.  The mark is set whether the verdict is kept before or after that
graph is built.  Recognition is hereditary: N1-N3 forbid configurations on
at most four vertices, so ``induced_subdigraph`` passes a True verdict down
to the subgraph.  A False verdict says nothing about a subgraph.
"""

from __future__ import annotations

from dataclasses import dataclass, field
from typing import Any, Callable, Iterable, Iterator, Sequence, TypeVar

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


class _memo:
    """A property computed on first read and stored in the instance's
    ``__dict__``, which later reads find first.  Unlike
    ``functools.cached_property`` it takes no lock, and since it defines only
    ``__get__`` a value a build stored beforehand wins, such as the empty
    symmetric pairs of an orientation."""

    def __init__(self, func: Callable[[Any], Any]) -> None:
        self.func = func
        self.__doc__ = func.__doc__

    def __get__(self, obj: Any, owner: type | None = None) -> Any:
        if obj is None:
            return self
        value = obj.__dict__[self.func.__name__] = self.func(obj)
        return value


def _validate_vertex_table(n: int, colors: Sequence[int],
                           names: Sequence[str] | None) -> tuple[tuple[int, ...], tuple[str, ...]]:
    """The colors and names as tuples, names v1..vn when None; raises
    ``ValueError`` unless they describe n vertices."""
    if type(n) is not int:  # True would pass the checks below as 1, 2.0 fail in default_names
        raise ValueError(f"vertex count must be an int, got {n!r}")
    if n < 0:
        raise ValueError("vertex count must be non-negative")
    colors = tuple(colors)
    names = default_names(n) if names is None else tuple(names)
    if len(colors) != n:
        raise ValueError(f"expected {n} colors, got {len(colors)}")
    if len(names) != n:
        raise ValueError(f"expected {n} names, got {len(names)}")
    for c in colors:
        if type(c) is not int or c not in (0, 1):  # DGF would write a bool or float as 'False' or '1.0'
            raise ValueError(f"colors must be 0 or 1, got {c!r}")
    for name in names:
        if not isinstance(name, str):
            raise ValueError(f"vertex names must be strings, got {name!r}")
    if len(set(names)) != n:
        raise ValueError("vertex names must be unique")
    return colors, names


@dataclass(frozen=True, init=False)
class Digraph:
    """Bipartite two-colored digraph without loops or parallel edges.

    ``edges`` holds ordered pairs; the symmetric pair (u, v) and (v, u) may
    both be present.  Every edge joins vertices of different colors.  The
    constructor, also named ``build_digraph``, validates its input and
    takes any sequences of colors and names, names v1..vn by default.
    """

    n: int
    colors: tuple[int, ...]
    names: tuple[str, ...]
    # bit v of out_masks[u] (of in_masks[v] for bit u) is set iff u -> v is an edge
    out_masks: tuple[int, ...]
    in_masks: tuple[int, ...] = field(repr=False, compare=False)

    def __init__(self, n: int, colors: Sequence[int], edges: Iterable[tuple[int, int]],
                 names: Sequence[str] | None = None) -> None:
        colors, names = _validate_vertex_table(n, colors, names)
        out = [0] * n
        inn = [0] * n
        for u, v in edges:
            if not (0 <= u < n and 0 <= v < n):
                raise ValueError(f"edge ({u}, {v}) out of range")
            if u == v:
                raise LoopEdge(f"loop at vertex {names[u]}")
            if colors[u] == colors[v]:
                raise MonochromaticEdge(
                    f"edge {names[u]} -> {names[v]} joins vertices of equal color"
                )
            if out[u] >> v & 1:
                raise DuplicateEdge(f"edge ({u}, {v}) given twice")
            out[u] |= 1 << v
            inn[v] |= 1 << u
        vars(self).update(n=n, colors=colors, names=names, out_masks=tuple(out), in_masks=tuple(inn))

    @_memo
    def edges(self) -> frozenset[tuple[int, int]]:
        return frozenset(_mask_pairs(self.out_masks, False))

    @_memo
    def adj_masks(self) -> tuple[int, ...]:
        return tuple(o | i for o, i in zip(self.out_masks, self.in_masks))

    @_memo
    def symmetric_pairs(self) -> tuple[tuple[int, int], ...]:
        """Unordered pairs {u, v} (as u < v tuples) with both directions present."""
        return tuple(_mask_pairs(map(int.__and__, self.out_masks, self.in_masks), True))

    def sorted_edges(self) -> list[tuple[int, int]]:
        return _mask_pairs(self.out_masks, False)

    def named_edges(self) -> frozenset[tuple[str, str]]:
        return frozenset((self.names[u], self.names[v]) for u, v in self.edges)

    @_memo
    def _underlying(self) -> UGraph:
        u = _trusted_ugraph(self.n, self.colors, self.names, self.adj_masks)
        if vars(self).get("_is_qbmg"):
            vars(u)["_qbmg_shadow"] = True
        return u


def _keep_verdict(g: Digraph, verdict: bool) -> bool:
    """Keep g's recognition verdict and return it; a True one marks g's
    underlying graph if built, and ``_underlying`` marks one built later."""
    memo = vars(g)
    memo["_is_qbmg"] = verdict
    if verdict and "_underlying" in memo:
        vars(memo["_underlying"])["_qbmg_shadow"] = True
    return verdict


def _trusted_digraph(
    n: int,
    colors: tuple[int, ...],
    names: tuple[str, ...],
    out_masks: tuple[int, ...],
    in_masks: tuple[int, ...],
    oriented: bool = False,
) -> Digraph:
    """A ``Digraph`` from masks derived from a validated graph, without the
    range, loop and color checks of ``Digraph.__init__``.  ``in_masks`` must
    be the transpose of ``out_masks``, and ``oriented`` (no symmetric pair)
    must hold when set."""
    g = object.__new__(Digraph)
    vars(g).update(n=n, colors=colors, names=names, out_masks=out_masks, in_masks=in_masks)
    if oriented:
        vars(g)["symmetric_pairs"] = ()
    return g


def _edge_states(n: int, pairs: Sequence[tuple[int, int]], states: Sequence[int],
                 base: tuple[Sequence[int], Sequence[int]] | None = None) -> Iterator[tuple[list[int], list[int]]]:
    """The out- and in-masks of vertices 0..n-1 for each assignment of a
    state to each pair (u, v), in ``product`` order (the last pair varies
    fastest): state 1 flips u -> v in the masks ``base`` (no edges by
    default), 2 flips v -> u, 3 both and 0 neither.  The same two lists are
    yielded every time, changed in place between yields.

    The walk is an odometer.  Every pair starts at the first state; a step
    moves the last pair to its next state and, when it wraps back to the
    first, carries to the pair before it.  A move flips only the arcs in
    which the two states differ, so a step touches fewer than two pairs on
    average instead of reapplying all of them."""
    out, inn = (list(base[0]), list(base[1])) if base else ([0] * n, [0] * n)
    # the arcs each move of a pair's wheel flips: to the next state, and
    # from the last back to the first
    moves = [a ^ b for a, b in zip(states, [*states[1:], states[0]])]
    last = len(states) - 1
    for u, v in pairs:
        if states[0] & 1:
            out[u] ^= 1 << v
            inn[v] ^= 1 << u
        if states[0] & 2:
            out[v] ^= 1 << u
            inn[u] ^= 1 << v
    at = [0] * len(pairs)
    masks = (out, inn)
    # the flips stay inline: a step runs once per swept graph, 3.65 M times at n <= 6
    while True:
        yield masks
        i = len(pairs) - 1
        while i >= 0:
            u, v = pairs[i]
            j = at[i]
            move = moves[j]
            if move & 1:
                out[u] ^= 1 << v
                inn[v] ^= 1 << u
            if move & 2:
                out[v] ^= 1 << u
                inn[u] ^= 1 << v
            if j < last:
                at[i] = j + 1
                break
            at[i] = 0  # wrapped back to the first state: carry
            i -= 1
        else:
            return


def _state_digraphs(colors: tuple[int, ...], names: tuple[str, ...], pairs: Sequence[tuple[int, int]],
                    states: Sequence[int], base: tuple[Sequence[int], Sequence[int]] | None = None,
                    oriented: bool = False) -> Iterator[Digraph]:
    """One digraph per state assignment of ``_edge_states``, in its order.
    The pairs must be distinct and join opposite colors, and ``oriented``
    must hold when set: nothing here is checked."""
    # built inline: a ``_trusted_digraph`` call per state took about 25% longer
    fixed = {"n": len(colors), "colors": colors, "names": names}
    if oriented:
        fixed["symmetric_pairs"] = ()
    new = object.__new__
    for out, inn in _edge_states(len(colors), pairs, states, base):
        g = new(Digraph)
        memo = vars(g)
        memo.update(fixed)
        memo["out_masks"] = tuple(out)
        memo["in_masks"] = tuple(inn)
        yield g


@dataclass(frozen=True, init=False)
class UGraph:
    """Undirected bipartite graph; edges are normalized (u, v) pairs with u < v.
    The constructor, also named ``build_ugraph``, validates its input as
    ``Digraph``'s does and takes each pair in either order."""

    n: int
    colors: tuple[int, ...]
    names: tuple[str, ...]
    adj_masks: tuple[int, ...]

    def __init__(self, n: int, colors: Sequence[int], edges: Iterable[tuple[int, int]],
                 names: Sequence[str] | None = None) -> None:
        colors, names = _validate_vertex_table(n, colors, names)
        adj = [0] * n
        for u, v in edges:
            if u > v:
                u, v = v, u
            if not (0 <= u < n and 0 <= v < n):
                raise ValueError(f"edge ({u}, {v}) out of range")
            if u == v:
                raise LoopEdge(f"loop at vertex {names[u]}")
            if colors[u] == colors[v]:
                raise MonochromaticEdge(
                    f"edge {names[u]} -- {names[v]} joins vertices of equal color"
                )
            if adj[u] >> v & 1:
                raise DuplicateEdge(f"edge {{{u}, {v}}} given twice")
            adj[u] |= 1 << v
            adj[v] |= 1 << u
        vars(self).update(n=n, colors=colors, names=names, adj_masks=tuple(adj))

    @_memo
    def edges(self) -> frozenset[tuple[int, int]]:
        return frozenset(_mask_pairs(self.adj_masks, True))

    def has_edge(self, u: int, v: int) -> bool:
        return 0 <= u < self.n and 0 <= v < self.n and bool(self.adj_masks[u] >> v & 1)

    @_memo
    def _twin_reps(self) -> int:
        """The least vertex of each false-twin class, as a mask."""
        return _twin_representatives(self.adj_masks, (1 << self.n) - 1)

    def components(self) -> tuple[frozenset[int], ...]:
        """Connected components ordered by smallest member id; computed once
        and kept on the graph."""
        return self._components

    @_memo
    def _components(self) -> tuple[frozenset[int], ...]:
        return tuple(frozenset(iter_bits(c)) for c in _component_masks(self.adj_masks, (1 << self.n) - 1))

    def is_connected(self) -> bool:
        """Exactly one component: a single vertex is connected, the graph
        without vertices is not."""
        return len(self.components()) == 1

    def sorted_edges(self) -> list[tuple[int, int]]:
        return _mask_pairs(self.adj_masks, True)


def _trusted_ugraph(
    n: int, colors: tuple[int, ...], names: tuple[str, ...], adj_masks: tuple[int, ...]
) -> UGraph:
    """A ``UGraph`` from symmetric adjacency masks derived from a validated
    graph, without the checks of ``UGraph.__init__``."""
    u = object.__new__(UGraph)
    vars(u).update(n=n, colors=colors, names=names, adj_masks=adj_masks)
    return u


def _mask_pairs(masks: Iterable[int], upper: bool) -> list[tuple[int, int]]:
    """(u, v) for each bit v of ``masks[u]``, only those above u when
    ``upper``, in increasing (u, v) order."""
    pairs = []
    for u, m in enumerate(masks):
        if upper:
            m &= -(2 << u)
        while m:  # iter_bits unrolled: one generator per vertex cost more than the bits
            low = m & -m
            m ^= low
            pairs.append((u, low.bit_length() - 1))
    return pairs


def _row_union(rows: Sequence[int], mask: int) -> int:
    """The OR of ``rows[v]`` over the bits v of ``mask``."""
    union = 0
    while mask:
        low = mask & -mask
        mask ^= low
        union |= rows[low.bit_length() - 1]
    return union


def _reorder(masks: Sequence[int], order: Sequence[int]) -> tuple[int, ...]:
    """The masks of the vertices in ``order``, each vertex renamed by its
    place in ``order``; bits of vertices not in ``order`` are dropped."""
    bit = [0] * len(masks)  # new bit per old vertex
    for i, v in enumerate(order):
        bit[v] = 1 << i
    moved = []
    for v in order:
        m = masks[v]
        r = 0
        while m:  # iter_bits unrolled, as in _mask_pairs
            low = m & -m
            m ^= low
            r |= bit[low.bit_length() - 1]
        moved.append(r)
    return tuple(moved)


def _inverse(order: Sequence[int]) -> list[int]:
    """The position of each vertex in ``order``."""
    position = [0] * len(order)
    for k, v in enumerate(order):
        position[v] = k
    return position


def _color_classes(colors: Sequence[int]) -> list[int]:
    """The mask of the vertices of each color, color 0 first."""
    side = [0, 0]
    for v, c in enumerate(colors):
        side[c] |= 1 << v
    return side


def _component_masks(adj: Sequence[int], within: int) -> list[int]:
    """Connected components of the subgraph induced on the vertex mask
    ``within`` of the graph with adjacency masks ``adj``, as masks ordered
    by least member."""
    out = []
    while within:
        # grow the component of the least vertex not yet placed, one
        # frontier of newly reached vertices at a time
        comp = frontier = within & -within
        while frontier:
            frontier = _row_union(adj, frontier) & within & ~comp
            comp |= frontier
        within &= ~comp
        out.append(comp)
    return out


def _twin_representatives(adj: Sequence[int], within: int) -> int:
    """The least vertex of each group of vertices in the mask ``within``
    that have the same adjacency mask, as a mask.  Such false twins are
    interchangeable in any vertex set that holds at most one of them."""
    reps = 0
    masks: set[int] = set()
    while within:
        low = within & -within
        within ^= low
        mask = adj[low.bit_length() - 1]
        if mask not in masks:
            masks.add(mask)
            reps |= low
    return reps


build_digraph = Digraph
build_ugraph = UGraph


def underlying(g: Digraph) -> UGraph:
    """Forget edge directions; symmetric pairs collapse to one undirected edge.
    Built once per graph from its adjacency masks, so every caller shares
    the views kept on it."""
    return g._underlying


G = TypeVar("G", Digraph, UGraph)


def induced_subdigraph(g: G, vertices: Iterable[int]) -> tuple[G, tuple[int, ...]]:
    """Induced subgraph of a ``Digraph`` or ``UGraph``, of the same type and
    re-indexed densely; also returns old ids per new id.  Re-indexing keeps
    the vertex order, so normalized undirected edges stay normalized.  The
    subgraph of a digraph found recognized is recognized too."""
    old = tuple(sorted(set(vertices)))
    for v in old:
        if not 0 <= v < g.n:
            raise ValueError(f"vertex {v} out of range")
    colors = tuple(g.colors[v] for v in old)
    names = tuple(g.names[v] for v in old)
    if isinstance(g, Digraph):
        sub = _trusted_digraph(len(old), colors, names, _reorder(g.out_masks, old), _reorder(g.in_masks, old))
        if vars(g).get("_is_qbmg"):  # recognition is hereditary
            _keep_verdict(sub, True)
        return sub, old
    return _trusted_ugraph(len(old), colors, names, _reorder(g.adj_masks, old)), old


def weak_components(g: Digraph) -> tuple[frozenset[int], ...]:
    """Connected components of the underlying graph, ordered by smallest
    member; kept on that graph, so a digraph's components are computed once."""
    return underlying(g).components()


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


def _swappable_masks(n: int, rows: Sequence[int], cols: Sequence[int]) -> list[int]:
    # bit v of swap[u]: transposing u and v is an automorphism fixing everything else
    swap = [0] * n
    for u in range(n):
        for v in range(u + 1, n):
            mask = ~((1 << u) | (1 << v))
            if (rows[u] ^ rows[v]) & mask:
                continue
            if (cols[u] ^ cols[v]) & mask:
                continue
            if (rows[u] >> v & 1) != (rows[v] >> u & 1):
                continue
            swap[u] |= 1 << v
            swap[v] |= 1 << u
    return swap


def _place_least(free: list[int], codes: list[int], tight: bool, prefix: list[int], placed: list[int],
                 best: list[int], best_order: list[int], swap: Sequence[int],
                 toward: Sequence[list[int]]) -> None:
    """One level of ``canonical_order``'s search: ``prefix`` ends with the
    least of ``codes``, the code this level places, and ``placed`` holds the
    vertices placed so far.  A leaf better than ``best`` overwrites it and
    ``best_order`` in place."""
    k = len(prefix)
    if len(free) == 1:  # one vertex left: it takes the last position, whose code ends the prefix
        if not tight:
            best[:], best_order[:] = prefix, placed + free
        return
    border = prefix[-1]
    reps = 0
    for i, v in enumerate(free):
        if codes[i] != border or swap[v] & reps:
            continue
        reps |= 1 << v
        bits = toward[v]
        child = [(c << 2) | bits[w] for w, c in zip(free, codes)]
        del child[i]
        least = min(child)
        if tight and least > best[k]:
            continue
        placed.append(v)
        prefix.append(least)
        _place_least(free[:i] + free[i + 1:], child, tight and least == best[k], prefix, placed,
                     best, best_order, swap, toward)
        placed.pop()
        prefix.pop()
        tight = True


def canonical_order(
    n: int, rows: Sequence[int], cols: Sequence[int]
) -> tuple[list[int], list[int]]:
    """Lexicographically minimal layered border encoding over all vertex
    orderings, and an ordering that reaches it (``order[k]`` is the vertex
    placed at position k).  The graph relabeled by ``order`` has the
    minimal encoding as its own identity levels.

    Each search level carries the free vertices in increasing id order with
    their border codes against the vertices placed so far; placing v appends
    each free w's two bits toward v to its code.  A level places only the
    vertices with its least code, one per set that transpositions swap: the
    first leaf below that code leaves the best encoding equal to the prefix
    plus it, so a larger code never wins.  While ``tight`` (the prefix equals
    the best so far), a child whose least code exceeds the best's is skipped."""
    # toward[v][w]: w's two border bits toward v
    toward = [[(rows[w] >> v & 1) << 1 | (cols[w] >> v & 1) for w in range(n)] for v in range(n)]
    best: list[int] = []
    best_order: list[int] = []
    _place_least(list(range(n)), [0] * n, False, [0], [], best, best_order,
                 _swappable_masks(n, rows, cols), toward)
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

