"""Rooted phylogenetic trees, leaf colorings, truncation maps and the graphs
they explain.

A tree is phylogenetic when every internal node has at least two children.
For leaves x, y the order ``a <= b`` used below means "b is an ancestor of a
or a itself".  A leaf y of the opposite color is a *best match* of x when
lca(x, y) is deepest among lca(x, z) over all z of y's color; a truncation
map u assigns to every (leaf, color) a node on the root-to-leaf path (with
u(x, color-of-x) = x) and keeps a best-match edge x -> y only when
u(x, color-of-y) is an ancestor-or-equal of lca(x, y).

All best matches of x share one lca, the first ancestor of x holding a leaf
of the other color, so a truncation keeps x's whole bundle of best-match
edges or drops all of it.

Trees are addressed by preorder node ids with the root at 0.  Leaf colorings
and truncation maps are plain dicts keyed by leaf node id and by
(leaf node id, color).

``search_explanation`` decides a sink-free graph of any size in polynomial
time by one BUILD pass that checks best matches as it splits; only a graph
with sinks meets the leaf budget, the recognition gate and the exhaustive
topology search.
"""

from __future__ import annotations

import re
from dataclasses import dataclass
from itertools import product
from typing import Iterator, Mapping, Sequence

from .axioms import is_qbmg_masks
from .digraph import Digraph, _inverse, _memo, _trusted_digraph, _validate_vertex_table
from .errors import (
    InvalidTruncation,
    NotPhylogenetic,
    NotSurjective,
    ParseError,
    TooLarge,
)

LeafColoring = dict[int, int]
TruncationMap = dict[tuple[int, int], int]
_Explanation = tuple["PhyloTree", LeafColoring, TruncationMap]

Nested = str | tuple  # leaf name, or tuple of child Nested values

EXPLAIN_MAX_LEAVES = 6


@dataclass(frozen=True, init=False)
class PhyloTree:
    """Rooted phylogenetic tree in preorder; ``names`` holds leaf names
    (internal nodes carry None).  The parent array is the stored form.  Any
    sequences may be given; both are stored as tuples."""

    parent: tuple[int | None, ...]
    names: tuple[str | None, ...]

    def __init__(self, parent: Sequence[int | None], names: Sequence[str | None]) -> None:
        parent, names = tuple(parent), tuple(names)
        size = len(parent)
        if size != len(names):
            raise ValueError("parent and names must align")
        if size == 0:
            raise ValueError("empty tree")
        if parent[0] is not None:
            raise ValueError("node 0 must be the root")
        child_count = [0] * size
        for node in range(1, size):
            p = parent[node]
            # in preorder a node's parent is the previous node or one of its
            # ancestors; a walk passes only nodes whose subtrees end here,
            # so it passes each node at most once
            q = node - 1
            while q is not None and q != p:
                q = parent[q]
            if q is None:
                raise ValueError("nodes must be in preorder with parents before children")
            child_count[p] += 1
        for node, (k, name) in enumerate(zip(child_count, names)):
            if k == 1:
                raise NotPhylogenetic(f"internal node {node} has a single child")
            if not k and name is None:
                raise ValueError(f"leaf {node} has no name")
            if k and name is not None:
                raise ValueError(f"internal node {node} must not carry a name")
        vars(self).update(parent=parent, names=names)

    @property
    def size(self) -> int:
        return len(self.parent)

    @_memo
    def leaves(self) -> tuple[int, ...]:
        internal = set(self.parent)
        return tuple(v for v in range(self.size) if v not in internal)

    @_memo
    def _last(self) -> tuple[int, ...]:
        """The largest node id in each node's subtree; in preorder the
        subtree of a is the id range a.._last[a]."""
        last = list(range(self.size))
        for node in range(self.size - 1, 0, -1):  # descendants before ancestors
            p = self.parent[node]
            last[p] = max(last[p], last[node])  # type: ignore[index]
        return tuple(last)

    def root_path(self, x: int) -> tuple[int, ...]:
        """Nodes from the root down to x, inclusive."""
        path = []
        node: int | None = x
        while node is not None:
            path.append(node)
            node = self.parent[node]
        return tuple(reversed(path))


def tree_from_nested(nested: Nested) -> PhyloTree:
    """Build a tree from nested tuples of leaf names, e.g. (("a", "b"), "c")."""
    parent: list[int | None] = []
    names: list[str | None] = []
    # preorder with an explicit stack, so deep nests need no recursion
    stack: list[tuple[Nested, int | None]] = [(nested, None)]
    while stack:
        node, par = stack.pop()
        idx = len(parent)
        parent.append(par)
        if isinstance(node, str):
            names.append(node)
        else:
            names.append(None)
            stack.extend((child, idx) for child in reversed(node))
    return PhyloTree(parent, names)


_LEAF_TOKEN = re.compile(r"([A-Za-z0-9_.+-]+)=([A-Za-z0-9_.+-]*)")


def _skip_ws(text: str, pos: int) -> int:
    while pos < len(text) and text[pos].isspace():
        pos += 1
    return pos


def parse_tree(text: str) -> tuple[PhyloTree, LeafColoring]:
    """Parse the Newick subset ``((a=0,b=1),c=1);`` into a tree and coloring.

    Leaves are ``name=color``; internal nodes are parenthesized groups; the
    string ends with a semicolon.  Whitespace between tokens is ignored.
    """
    colors_by_name: dict[str, int] = {}
    # one list of parsed children per open '(', so deep nests need no recursion
    groups: list[list[Nested]] = []
    node: Nested | None = None  # a finished node not yet placed in its group
    pos = 0
    while True:
        pos = _skip_ws(text, pos)
        if node is None:
            if pos >= len(text):
                raise ParseError("unexpected end of input", line=1, column=pos + 1)
            if text[pos] == "(":
                pos += 1
                groups.append([])
                continue
            m = _LEAF_TOKEN.match(text, pos)
            if not m:
                raise ParseError(
                    f"expected a name=color leaf or '(' at {text[pos]!r}", line=1, column=pos + 1)
            name, color_text = m.groups()
            pos = m.end()
            if color_text not in ("0", "1"):
                raise ParseError(f"leaf color must be 0 or 1, got {color_text!r}", line=1, column=pos + 1)
            if name in colors_by_name:
                raise ParseError(f"leaf {name!r} declared twice", line=1, column=pos + 1)
            colors_by_name[name] = int(color_text)
            node = name
        elif not groups:
            break
        else:
            groups[-1].append(node)
            if text.startswith(",", pos):
                node = None
            elif text.startswith(")", pos):
                node = tuple(groups.pop())
            else:
                raise ParseError("expected ',' or ')'", line=1, column=pos + 1)
            pos += 1
    if not text.startswith(";", pos):
        raise ParseError("expected ';'", line=1, column=pos + 1)
    pos = _skip_ws(text, pos + 1)
    if pos != len(text):
        raise ParseError("trailing characters after ';'", line=1, column=pos + 1)

    tree = tree_from_nested(node)
    sigma = {leaf: colors_by_name[tree.names[leaf]] for leaf in tree.leaves}
    _check_coloring(tree, sigma)
    return tree, sigma


def _check_coloring(t: PhyloTree, sigma: Mapping[int, int]) -> None:
    if set(sigma) != set(t.leaves):
        raise ValueError("coloring must cover exactly the leaves")
    if set(sigma.values()) != {0, 1}:
        raise NotSurjective("leaf coloring must use both colors")


def best_match_graph(t: PhyloTree, sigma: Mapping[int, int]) -> Digraph:
    """Digraph on the leaves: x -> y iff y has the other color and lca(x, y)
    is deepest among all leaves of y's color."""
    _check_coloring(t, sigma)
    return qbmg_from_tree(t, sigma, root_truncation(t, sigma))


def root_truncation(t: PhyloTree, sigma: Mapping[int, int]) -> TruncationMap:
    """No truncation: the opposite color maps to the root for every leaf."""
    u: TruncationMap = {}
    for x in t.leaves:
        for s in (0, 1):
            u[(x, s)] = x if s == sigma[x] else 0
    return u


def validate_truncation(t: PhyloTree, sigma: Mapping[int, int], u: Mapping[tuple[int, int], int]) -> None:
    last = t._last
    for x in t.leaves:
        for s in (0, 1):
            if (x, s) not in u:
                raise InvalidTruncation(f"missing truncation entry for leaf {t.names[x]!r}, color {s}")
            node = u[(x, s)]
            # node is x or an ancestor of it iff x lies in node's preorder id range
            if not 0 <= node <= x <= last[node]:
                raise InvalidTruncation(
                    f"truncation node {node} is off the root path of leaf {t.names[x]!r}")
            if s == sigma[x] and node != x:
                raise InvalidTruncation(
                    f"truncation of leaf {t.names[x]!r} at its own color must be the leaf itself")


def _best_matches(
    t: PhyloTree, sigma: Mapping[int, int], bits: Sequence[int]
) -> list[tuple[int, int]]:
    """Per leaf x = t.leaves[i]: the lca of x and its best matches, and the
    mask of those matches, where leaf t.leaves[j] stands for bit bits[j]."""
    parent = t.parent
    # below[s][node]: mask of the color-s leaves under node
    below = ([0] * t.size, [0] * t.size)
    for x, bit in zip(t.leaves, bits):
        below[sigma[x]][x] = 1 << bit
    for node in range(t.size - 1, 0, -1):  # preorder: children after parents
        p = parent[node]
        below[0][p] |= below[0][node]
        below[1][p] |= below[1][node]
    found = []
    for x in t.leaves:
        theirs = below[1 - sigma[x]]
        node = x
        while not theirs[node]:
            node = parent[node]  # type: ignore[assignment]
        found.append((node, theirs[node]))
    return found


def qbmg_from_tree(
    t: PhyloTree, sigma: Mapping[int, int], u: Mapping[tuple[int, int], int]
) -> Digraph:
    """Best-match edges surviving the truncation gate: keep x -> y iff
    u(x, color-of-y) is an ancestor-or-equal of lca(x, y)."""
    _check_coloring(t, sigma)
    validate_truncation(t, sigma, u)
    leaves = t.leaves
    n = len(leaves)
    colors = tuple(sigma[leaf] for leaf in leaves)
    names = tuple(t.names[leaf] for leaf in leaves)
    # the trusted build below checks no names, and a tree may repeat a leaf name
    _validate_vertex_table(n, colors, names)
    found = _best_matches(t, sigma, range(n))
    out = [0] * n
    inn = [0] * n
    for i, (x, (top, matches)) in enumerate(zip(leaves, found)):
        # the gate and top both lie on x's root path, where preorder ids
        # grow with depth
        if u[(x, 1 - sigma[x])] > top:
            continue
        out[i] = matches
        while matches:  # iter_bits unrolled: a generator per leaf slowed this by ~15%
            low = matches & -matches
            matches ^= low
            inn[low.bit_length() - 1] |= 1 << i
    return _trusted_digraph(n, colors, names, tuple(out), tuple(inn))


def _set_partitions(items: tuple[str, ...]) -> Iterator[list[list[str]]]:
    # items arrive sorted; the first element is prepended, keeping blocks sorted
    if not items:
        yield []
        return
    first, rest = items[0], items[1:]
    for part in _set_partitions(rest):
        for i in range(len(part)):
            yield part[:i] + [[first] + part[i]] + part[i + 1 :]
        yield [[first]] + part


def phylogenetic_topologies(names: Sequence[str]) -> Iterator[Nested]:
    """All rooted phylogenetic trees on the given (labeled) leaf set,
    as nested tuples, in a deterministic order.  Raises ``TooLarge`` before
    the first tree for more than ``EXPLAIN_MAX_LEAVES`` leaves."""
    if len(names) > EXPLAIN_MAX_LEAVES:
        raise TooLarge(f"topology enumeration supports at most {EXPLAIN_MAX_LEAVES} leaves")
    yield from _topologies(tuple(sorted(names)))


def _topologies(leafset: tuple[str, ...]) -> Iterator[Nested]:
    if len(leafset) == 1:
        yield leafset[0]
        return
    for part in _set_partitions(leafset):
        if len(part) < 2:
            continue
        blocks = sorted((tuple(b) for b in part), key=lambda b: b[0])
        yield from product(*map(_topologies, blocks))


def _build_tree(g: Digraph) -> _Explanation | None:
    """BUILD (Aho, Sagiv, Szymanski & Ullman 1981) on the informative triples
    xy|y' of g: x -> y, x -/-> y' and y, y' both of the color x lacks.  The
    children of a leaf set L are the components, by least leaf name, of the
    Aho graph joining x and y for each triple xy|y' inside L; L fails when it
    is connected.  A best-match graph gets its least-resolved tree (Geiß et al.,
    *Best match graphs*, J. Math. Biol. 78, 2019), in preorder.

    g must be sink-free and two-colored, and BUILD checks its best matches as
    it splits.  A component C of L that lacks a color L holds, say 1 - c,
    holds only color-c leaves, and L's node is the lowest ancestor of each
    that holds color 1 - c: each leaf's best matches are exactly the color
    (1 - c) leaves of L, so its out-row must equal them.  The root holds both
    colors, so every leaf is checked exactly once.  The tree, g's coloring on
    it and the root truncation explain g when every check passes; None means
    BUILD failed or a check did."""
    n, names, colors, in_masks = g.n, g.names, g.colors, g.in_masks
    # bit r is vertex order[r], the r-th least name: components by least bit.
    # Renumbered in one pass: two ``_reorder`` calls made explain's op p50 5-13% slower
    order = sorted(range(n), key=names.__getitem__)
    position = _inverse(order)
    out = [0] * n  # out[r], inn[r]: the out- and in-neighbors of bit r as bits
    inn = [0] * n
    side = [0, 0]
    for r, v in enumerate(order):
        side[colors[v]] |= 1 << r
        m = in_masks[v]
        while m:
            low = m & -m
            m ^= low
            s = position[low.bit_length() - 1]
            out[s] |= 1 << r
            inn[r] |= 1 << s
    # x takes part in triples xy|y' over L iff some y' of spare[x] lies in L
    spare = [side[1 - colors[v]] & ~out[r] for r, v in enumerate(order)]
    parent: list[int | None] = []
    tree_names: list[str | None] = []
    leaves = []
    sigma: LeafColoring = {}
    stack: list[tuple[int, int | None]] = [((1 << n) - 1, None)]
    while stack:
        leafset, par = stack.pop()
        node = len(parent)
        parent.append(par)
        if not leafset & (leafset - 1):
            v = order[leafset.bit_length() - 1]
            tree_names.append(names[v])
            leaves.append(node)
            sigma[node] = colors[v]
            continue
        tree_names.append(None)
        # the members of L with a spare in L: the x of the triples inside L
        active = 0
        rest = leafset
        while rest:
            low = rest & -rest
            rest ^= low
            if spare[low.bit_length() - 1] & leafset:
                active |= low
        # the Aho graph's components by breadth-first search: x reaches its
        # out-neighbors when active, and its active in-neighbors
        # (its own loop: ``_component_masks`` steps through every member alike)
        comps = []
        rest = leafset
        while rest:
            comp = frontier = rest & -rest
            while frontier:
                reach = 0
                while frontier:
                    low = frontier & -frontier
                    frontier ^= low
                    x = low.bit_length() - 1
                    reach |= inn[x] & active
                    if low & active:
                        reach |= out[x]
                frontier = reach & rest & ~comp
                comp |= frontier
            rest &= ~comp
            comps.append(comp)
        if len(comps) == 1:
            return None
        for comp in comps:
            lacks = side[0] if comp & side[1] else side[1]
            theirs = leafset & lacks
            if theirs and not comp & lacks:
                while comp:
                    low = comp & -comp
                    comp ^= low
                    if out[low.bit_length() - 1] != theirs:
                        return None
        for comp in reversed(comps):
            stack.append((comp, node))
    # valid by construction, so built without the checks, as _trusted_digraph is
    tree = object.__new__(PhyloTree)
    vars(tree).update(parent=tuple(parent), names=tuple(tree_names), leaves=tuple(leaves))
    return tree, sigma, root_truncation(tree, sigma)


def search_explanation(g: Digraph, max_leaves: int) -> _Explanation | None:
    """A (tree, coloring, truncation) triple whose constructed graph equals g
    with matching vertex names, or None when there is none.

    A one-colored graph has none, since a leaf coloring uses both colors.  A
    sink-free graph is explained exactly when it is a best-match graph, by
    its least-resolved BUILD tree under root truncation (Geiß et al., 2019),
    so BUILD, checking best matches as it splits, decides it at any size
    with no recognition gate.
    Only a graph with sinks meets the exhaustive topology search: it raises
    ``TooLarge`` above ``min(max_leaves, EXPLAIN_MAX_LEAVES)`` vertices, and
    otherwise meets the recognition gate first, since every graph a tree
    explains satisfies N1-N3."""
    if set(g.colors) != {0, 1}:
        return None
    if all(g.out_masks):
        return _build_tree(g)
    budget = min(max_leaves, EXPLAIN_MAX_LEAVES)
    if g.n > budget:
        raise TooLarge(f"graph has {g.n} vertices, budget is {budget}")
    if not is_qbmg_masks(g.n, g.out_masks, g.in_masks):
        return None
    return _search_topologies(g)


def _explained_by(g: Digraph, tree: PhyloTree, ids: Sequence[int]) -> _Explanation | None:
    """``tree``, leaf ``tree.leaves[i]`` as vertex ``ids[i]`` colored as in g,
    with a truncation under which it explains g, or None: every out-neighborhood
    must be the best-match set (entry at the root) or empty (entry at the leaf)."""
    sigma = {x: g.colors[v] for x, v in zip(tree.leaves, ids)}
    trunc = root_truncation(tree, sigma)
    for x, v, (_, matches) in zip(tree.leaves, ids, _best_matches(tree, sigma, ids)):
        if not g.out_masks[v]:
            trunc[(x, 1 - sigma[x])] = x
        elif g.out_masks[v] != matches:
            return None
    return tree, sigma, trunc


def _search_topologies(g: Digraph) -> _Explanation | None:
    """Exhaustive search over every phylogenetic topology on g's names."""
    vertex = {name: v for v, name in enumerate(g.names)}
    for nested in phylogenetic_topologies(g.names):
        tree = tree_from_nested(nested)
        found = _explained_by(g, tree, [vertex[tree.names[x]] for x in tree.leaves])
        if found is not None:
            return found
    return None
