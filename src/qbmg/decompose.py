"""Biclique-plus-stable-set structure and the vertex decomposition of
connected recognized graphs into parts of that shape.

A graph is K+S when its vertex set splits into a biclique and a stable set,
or degenerately when it has an isolated vertex.  A connected recognized
digraph is *type A* when its underlying graph is K+S.

Lemma: every connected recognized digraph g is type A.  K_1 is degenerate;
on n >= 2 vertices g has a vertex x adjacent to the whole other color class,
which forms a biclique with x, and the rest of x's class is stable.  Proof:

- g has both colors, so it is G(T, sigma, u) for a tree T, a coloring sigma
  and a truncation map u: N1-N3 characterize 2-qBMGs (Korchmaros, Schaller,
  Hellmuth & Stadler, *Quasi-best match graphs*, 2023).
- A leaf under a two-colored child of T's root has all its best matches
  under that child.
- A leaf x under a one-colored child of color c has every leaf of color
  1 - c as a best match, since they meet at the root.  x keeps that bundle
  iff u(x, 1 - c) is the root, and has no out-edge otherwise.
- Suppose no such x keeps its bundle.  Then every edge lies under one child
  of the root, which has at least two: the leaves under one-colored children
  are isolated, and no edge joins two children.  So g is not connected.

The biclique of a K+S split of a connected graph dominates it, since each
vertex of the stable side has a neighbor, all in the biclique.  So every
connected recognized graph with at least two vertices has a dominating
biclique.

``decompose_type_a`` checks its one part against the lemma's own witness,
in O(n): some vertex whose adjacency mask equals the mask of the other
color class.  The recognition it asks for is a stored verdict when g was
cut from a recognized graph (see ``qbmg.digraph``).
"""

from __future__ import annotations

from dataclasses import dataclass

from .axioms import is_qbmg
from .bicliques import Biclique, maximal_bicliques
from .digraph import Digraph, UGraph, _color_classes, underlying
from .errors import Disconnected, NotQbmg


@dataclass(frozen=True)
class KosPartition:
    """Split into a biclique ``k`` and a stable set ``s``.

    ``degenerate`` is set exactly when the graph has an isolated vertex (in
    which case a k/s split may or may not also exist; ``k`` is None when no
    split was found).
    """

    k: Biclique | None
    s: frozenset[int]
    degenerate: bool


@dataclass(frozen=True)
class Decomposition:
    parts: tuple[frozenset[int], ...]


def _stable(g: UGraph, vertices: frozenset[int]) -> bool:
    mask = sum(1 << v for v in vertices)
    return not any(g.adj_masks[v] & mask for v in vertices)


def kos_partition(g: UGraph) -> KosPartition | None:
    """A biclique/stable-set split if one exists; degenerate flag for isolated
    vertices.  None when the graph is neither."""
    degenerate = 0 in g.adj_masks
    # a split using any biclique extends to one using a maximal biclique
    # (the stable remainder only shrinks), so maximal candidates suffice
    for b in maximal_bicliques(g):
        rest = frozenset(range(g.n)) - b.vertices()
        if _stable(g, rest):
            return KosPartition(b, rest, degenerate)
    if degenerate:
        return KosPartition(None, frozenset(), True)
    return None


def is_type_a(g: Digraph) -> bool:
    """Connected and recognized, so K+S by the lemma above."""
    return underlying(g).is_connected() and is_qbmg(g)


def decompose_type_a(g: Digraph) -> Decomposition:
    """Vertex decomposition of a connected recognized digraph into parts whose
    induced sub-digraphs are connected and type A: by the lemma above, one
    part of all of g's vertices, whose K+S split is checked, not assumed."""
    if not is_qbmg(g):
        raise NotQbmg("decomposition requires a recognized graph")
    if not underlying(g).is_connected():
        raise Disconnected("decomposition requires a connected graph")
    side = _color_classes(g.colors)
    # the lemma's witness; K_1's one vertex has the empty mask of its empty other class
    if not any(a == side[1 - c] for a, c in zip(g.adj_masks, g.colors)):
        raise AssertionError("connected recognized graph that is not K+S")  # cannot happen
    return Decomposition((frozenset(range(g.n)),))
