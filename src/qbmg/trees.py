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
"""

from __future__ import annotations

import re
from dataclasses import dataclass
from functools import cached_property
from itertools import product
from typing import Iterator, Mapping, Sequence

from .axioms import is_qbmg_masks
from .digraph import Digraph, _trusted_digraph, _validate_vertex_table, iter_bits
from .errors import (
    InvalidTruncation,
    NotPhylogenetic,
    NotSurjective,
    ParseError,
    TooLarge,
)

LeafColoring = dict[int, int]
TruncationMap = dict[tuple[int, int], int]

Nested = str | tuple  # leaf name, or tuple of child Nested values

EXPLAIN_MAX_LEAVES = 6


@dataclass(frozen=True)
class PhyloTree:
    """Rooted phylogenetic tree in preorder; ``names`` holds leaf names
    (internal nodes carry None)."""

    parent: tuple[int | None, ...]
    children: tuple[tuple[int, ...], ...]
    names: tuple[str | None, ...]

    def __post_init__(self) -> None:
        size = len(self.parent)
        if not (size == len(self.children) == len(self.names)):
            raise ValueError("parent, children and names must align")
        if size == 0:
            raise ValueError("empty tree")
        if self.parent[0] is not None:
            raise ValueError("node 0 must be the root")
        for node in range(1, size):
            p = self.parent[node]
            if p is None or not (0 <= p < node):
                raise ValueError("nodes must be in preorder with parents before children")
        for node in range(size):
            kids = self.children[node]
            if len(kids) == 1:
                raise NotPhylogenetic(f"internal node {node} has a single child")
            if not kids and self.names[node] is None:
                raise ValueError(f"leaf {node} has no name")
            if kids and self.names[node] is not None:
                raise ValueError(f"internal node {node} must not carry a name")

    @property
    def size(self) -> int:
        return len(self.parent)

    @cached_property
    def leaves(self) -> tuple[int, ...]:
        return tuple(v for v in range(self.size) if not self.children[v])

    @cached_property
    def depth(self) -> tuple[int, ...]:
        d = [0] * self.size
        for v in range(1, self.size):
            d[v] = d[self.parent[v]] + 1
        return tuple(d)

    def is_ancestor(self, a: int, b: int) -> bool:
        """True iff a is b or lies on the path from the root to b."""
        while b is not None and self.depth[b] >= self.depth[a]:
            if b == a:
                return True
            b = self.parent[b]  # type: ignore[assignment]
        return False

    def root_path(self, x: int) -> tuple[int, ...]:
        """Nodes from the root down to x, inclusive."""
        path = []
        node: int | None = x
        while node is not None:
            path.append(node)
            node = self.parent[node]
        return tuple(reversed(path))

    def leaf_by_name(self, name: str) -> int:
        for v in self.leaves:
            if self.names[v] == name:
                return v
        raise KeyError(name)


def tree_from_nested(nested: Nested) -> PhyloTree:
    """Build a tree from nested tuples of leaf names, e.g. (("a", "b"), "c")."""
    parent: list[int | None] = []
    children: list[list[int]] = []
    names: list[str | None] = []
    # preorder with an explicit stack, so deep nests need no recursion
    stack: list[tuple[Nested, int | None]] = [(nested, None)]
    while stack:
        node, par = stack.pop()
        idx = len(parent)
        parent.append(par)
        children.append([])
        if par is not None:
            children[par].append(idx)
        if isinstance(node, str):
            names.append(node)
        else:
            names.append(None)
            stack.extend((child, idx) for child in reversed(node))
    return PhyloTree(tuple(parent), tuple(tuple(c) for c in children), tuple(names))


def lca(t: PhyloTree, x: int, y: int) -> int:
    """Deepest common ancestor; lca(x, x) = x."""
    while x != y:
        if t.depth[x] < t.depth[y]:
            y = t.parent[y]  # type: ignore[assignment]
        else:
            x = t.parent[x]  # type: ignore[assignment]
    return x


_LEAF_TOKEN = re.compile(r"([A-Za-z0-9_.+-]+)=([A-Za-z0-9_.+-]*)")


def parse_tree(text: str) -> tuple[PhyloTree, LeafColoring]:
    """Parse the Newick subset ``((a=0,b=1),c=1);`` into a tree and coloring.

    Leaves are ``name=color``; internal nodes are parenthesized groups; the
    string ends with a semicolon.  Whitespace between tokens is ignored.
    """
    pos = 0

    def skip_ws() -> None:
        nonlocal pos
        while pos < len(text) and text[pos].isspace():
            pos += 1

    def fail(message: str) -> ParseError:
        return ParseError(message, line=1, column=pos + 1)

    colors_by_name: dict[str, int] = {}

    def parse_leaf() -> str:
        nonlocal pos
        m = _LEAF_TOKEN.match(text, pos)
        if not m:
            raise fail(f"expected a name=color leaf or '(' at {text[pos]!r}")
        name, color_text = m.group(1), m.group(2)
        pos = m.end()
        if color_text not in ("0", "1"):
            raise fail(f"leaf color must be 0 or 1, got {color_text!r}")
        if name in colors_by_name:
            raise fail(f"leaf {name!r} declared twice")
        colors_by_name[name] = int(color_text)
        return name

    def parse_node() -> Nested:
        # one list of parsed children per open '(', so deep nests need no recursion
        nonlocal pos
        groups: list[list[Nested]] = []
        while True:
            skip_ws()
            if pos >= len(text):
                raise fail("unexpected end of input")
            if text[pos] == "(":
                pos += 1
                groups.append([])
                continue
            node: Nested = parse_leaf()
            while groups:
                groups[-1].append(node)
                skip_ws()
                if pos < len(text) and text[pos] == ",":
                    pos += 1
                    break
                if pos >= len(text) or text[pos] != ")":
                    raise fail("expected ',' or ')'")
                pos += 1
                node = tuple(groups.pop())
            else:
                return node

    nested = parse_node()
    skip_ws()
    if pos >= len(text) or text[pos] != ";":
        raise fail("expected ';'")
    pos += 1
    skip_ws()
    if pos != len(text):
        raise fail("trailing characters after ';'")

    tree = tree_from_nested(nested)
    sigma = {leaf: colors_by_name[tree.names[leaf]] for leaf in tree.leaves}
    if set(sigma.values()) != {0, 1}:
        raise NotSurjective("leaf coloring must use both colors")
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
    for x in t.leaves:
        for s in (0, 1):
            if (x, s) not in u:
                raise InvalidTruncation(f"missing truncation entry for leaf {x}, color {s}")
            node = u[(x, s)]
            if not (0 <= node < t.size) or not t.is_ancestor(node, x):
                raise InvalidTruncation(
                    f"truncation node {node} is off the root path of leaf {x}")
            if s == sigma[x] and node != x:
                raise InvalidTruncation(
                    f"truncation of leaf {x} at its own color must be the leaf itself")


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
    leaves, depth = t.leaves, t.depth
    n = len(leaves)
    colors = tuple(sigma[leaf] for leaf in leaves)
    names = tuple(t.names[leaf] for leaf in leaves)
    # the trusted build below checks no names, and a tree may repeat a leaf name
    _validate_vertex_table(n, colors, names)
    found = _best_matches(t, sigma, range(n))
    out = [0] * n
    inn = [0] * n
    for i, (x, (top, matches)) in enumerate(zip(leaves, found)):
        # the gate and top both lie on x's root path, so depth orders them
        if depth[u[(x, 1 - sigma[x])]] > depth[top]:
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
    as nested tuples, in a deterministic order."""
    ordered = tuple(sorted(names))

    def gen(leafset: tuple[str, ...]) -> Iterator[Nested]:
        if len(leafset) == 1:
            yield leafset[0]
            return
        for part in _set_partitions(leafset):
            if len(part) < 2:
                continue
            blocks = sorted((tuple(b) for b in part), key=lambda b: b[0])
            yield from product(*map(gen, blocks))

    yield from gen(ordered)


def _build_informative(g: Digraph) -> Nested | None:
    """BUILD (Aho, Sagiv, Szymanski & Ullman 1981) on the informative triples
    xy|y' of g: x -> y, x -/-> y' and y, y' both of the color x lacks.

    For a leaf set L the Aho graph joins x and y for every triple xy|y' inside
    L; its components are the children of L's node, ordered by least leaf
    name, and L fails (None) when the graph is connected.  For the graph of
    a tree under root truncation this is its least-resolved tree (Geiß et
    al., *Best match graphs*, J. Math. Biol. 78, 2019).
    """
    n, out, names = g.n, g.out_masks, g.names
    side = [0, 0]
    for v in range(n):
        side[g.colors[v]] |= 1 << v
    # x takes part in triples xy|y' over L iff some y' of spare[x] lies in L
    spare = [side[1 - g.colors[x]] & ~out[x] for x in range(n)]

    def build(leafset: int) -> tuple[str, Nested] | None:
        if not leafset & (leafset - 1):
            name = names[leafset.bit_length() - 1]
            return name, name
        link = [0] * n
        for x in iter_bits(leafset):
            if spare[x] & leafset:
                ys = out[x] & leafset
                link[x] |= ys
                for y in iter_bits(ys):
                    link[y] |= 1 << x
        kids = []
        # components grown here: _mask_components raised explain's op_p50_ms by 40%
        rest = leafset
        while rest:
            comp = frontier = rest & -rest
            while frontier:
                reach = 0
                for v in iter_bits(frontier):
                    reach |= link[v]
                frontier = reach & ~comp
                comp |= frontier
            if comp == leafset:
                return None
            rest &= ~comp
            kid = build(comp)
            if kid is None:
                return None
            kids.append(kid)
        kids.sort()  # least leaf names are distinct, so subtrees are never compared
        return kids[0][0], tuple(nested for _, nested in kids)

    built = build((1 << n) - 1)
    return None if built is None else built[1]


def search_explanation(
    g: Digraph, max_leaves: int
) -> tuple[PhyloTree, LeafColoring, TruncationMap] | None:
    """A (tree, coloring, truncation) triple whose constructed graph equals g
    with matching vertex names, or None when there is none.

    Graphs failing recognition are rejected at once, since every graph a
    tree explains satisfies N1-N3.  A sink-free recognized graph is a
    best-match graph; its least-resolved tree is built from its informative
    triples and accepted by the same test as every searched topology, which
    then gives the root truncation.  Graphs with sinks, and any BUILD tree
    that fails the test, go to the exhaustive topology search.
    """
    if max_leaves > EXPLAIN_MAX_LEAVES:
        raise TooLarge(f"explanation search supports at most {EXPLAIN_MAX_LEAVES} leaves")
    if g.n > max_leaves:
        raise TooLarge(f"graph has {g.n} vertices, budget is {max_leaves}")
    if set(g.colors) != {0, 1}:
        return None  # a leaf coloring must use both colors
    if not is_qbmg_masks(g.n, g.out_masks, g.in_masks):
        return None
    if all(g.out_masks):
        nested = _build_informative(g)
        if nested is not None:
            found = _explained_by(g, nested)
            if found is not None:
                return found
    return _search_topologies(g)


def _explained_by(g: Digraph, nested: Nested) -> tuple[PhyloTree, LeafColoring, TruncationMap] | None:
    """The topology ``nested``, colored as g, with a truncation under which it
    explains g, or None: every out-neighborhood must be the leaf's best-match
    set (entry at the root) or empty (entry at the leaf)."""
    tree = tree_from_nested(nested)
    ids = [g.id_of(tree.names[x]) for x in tree.leaves]
    sigma = {x: g.colors[v] for x, v in zip(tree.leaves, ids)}
    trunc = root_truncation(tree, sigma)
    for x, v, (_, matches) in zip(tree.leaves, ids, _best_matches(tree, sigma, ids)):
        if not g.out_masks[v]:
            trunc[(x, 1 - sigma[x])] = x
        elif g.out_masks[v] != matches:
            return None
    return tree, sigma, trunc


def _search_topologies(g: Digraph) -> tuple[PhyloTree, LeafColoring, TruncationMap] | None:
    """Exhaustive search over every phylogenetic topology on g's names."""
    for nested in phylogenetic_topologies(g.names):
        found = _explained_by(g, nested)
        if found is not None:
            return found
    return None
