"""Bicliques and dominating-biclique search.

A biclique here always has both sides nonempty; the left side is the color-0
side (edges force each side monochromatic in a bipartite host).  Searches are
exact.  The maximal bicliques are the formal concepts of the biadjacency
relation between the two color classes, listed by Close-by-One (Kuznetsov
1993) on adjacency masks with polynomial delay.  A C6-free bipartite graph
has at most |L|^2 * |R|^2 of them (Prisner, *Bicliques in graphs I*,
Combinatorica 20, 2000), and the enumeration raises ``TooLarge`` once that
count is passed, so an input with exponentially many, such as a crown graph,
cannot run without bound.  ``maximal_bicliques`` sorts the masks into
``Biclique`` values; the dominating-biclique search tests the masks and
ranks the dominating ones by the same ``Biclique.sort_key``.

Right vertices with the same neighborhood lie in the same intents, and left
vertices with the same neighborhood in the same extents.  So Close-by-One
extends only by the least right vertex of each twin class, since any other
fails the canonicity test when its lower twin enters the closure, and
intersects a closure over the least left vertex of each class only.
"""

from __future__ import annotations

from dataclasses import dataclass
from typing import Sequence

from .digraph import UGraph, _color_classes, _row_union, _twin_representatives, iter_bits
from .errors import Disconnected, TooLarge

@dataclass(frozen=True)
class Biclique:
    left: frozenset[int]
    right: frozenset[int]

    def vertices(self) -> frozenset[int]:
        return self.left | self.right

    def sort_key(self) -> tuple:
        return (-(len(self.left) + len(self.right)), tuple(sorted(self.left)), tuple(sorted(self.right)))


def maximal_biclique_masks(adj: Sequence[int], left: int, right: int, reps: int) -> list[tuple[int, int]]:
    """(left mask, right mask) of every maximal biclique with both sides
    nonempty, in no particular order, of the bipartite graph with adjacency
    masks ``adj`` and color classes ``left`` and ``right``; ``reps`` holds
    the least vertex of each class of same-colored false twins.

    Close-by-One over the right vertices in increasing id: a concept is
    extended by a right vertex y outside its right side and adjacent to its
    left side only when the closure adds no right vertex below y, so each
    concept is reached once.
    Raises ``TooLarge`` once more than |L|^2 * |R|^2 are found."""
    bound = left.bit_count() ** 2 * right.bit_count() ** 2
    found: list[tuple[int, int]] = []
    if not left:
        return found
    left_reps = reps & left
    right_reps = reps & right
    top = right
    for x in iter_bits(left_reps):
        top &= adj[x]
    stack = [(left, top, 0)]
    while stack:
        ext, intent, lo = stack.pop()
        if intent:
            found.append((ext, intent))
            if len(found) > bound:
                raise TooLarge(
                    f"more than {bound} maximal bicliques, the |L|^2*|R|^2 bound "
                    "of a C6-free bipartite graph")
        near = _row_union(adj, ext & left_reps)
        for y in iter_bits(near & right_reps & ~intent & -(1 << lo)):
            sub = ext & adj[y]
            closed = right
            for x in iter_bits(sub & left_reps):
                closed &= adj[x]
            if (closed ^ intent) & ((1 << y) - 1):
                continue  # reached from the concept that adds that lower vertex
            stack.append((sub, closed, y + 1))
    return found


def maximal_bicliques(g: UGraph) -> tuple[Biclique, ...]:
    """All inclusion-maximal bicliques with both sides nonempty.

    Ordered by decreasing vertex count, then lexicographically by sides;
    see ``maximal_biclique_masks`` for the size bound.
    """
    adj, (left, right) = g.adj_masks, _color_classes(g.colors)
    # classes per side: isolated vertices of both colors share the empty mask
    reps = _twin_representatives(adj, left) | _twin_representatives(adj, right)
    found = [Biclique(frozenset(iter_bits(lmask)), frozenset(iter_bits(rmask)))
             for lmask, rmask in maximal_biclique_masks(adj, left, right, reps)]
    return tuple(sorted(found, key=Biclique.sort_key))


def find_dominating_biclique(g: UGraph) -> Biclique | None:
    """A biclique whose vertex set dominates the (connected) graph, or None;
    a connected recognized graph with at least two vertices always has one
    (see ``qbmg.decompose``).
    Any dominating biclique extends to a dominating maximal one, so the
    maximal ones are the candidates, and the answer is the first of them in
    ``maximal_bicliques`` order, the least ``Biclique.sort_key``.

    A vertex outside a biclique (L, R) has all its neighbors in the other
    color class, so the biclique dominates iff the neighborhoods of L cover
    the color-1 class and those of R the color-0 class."""
    if not g.is_connected():
        raise Disconnected("dominating-biclique search requires a connected graph")
    adj = g.adj_masks
    side = _color_classes(g.colors)
    best, size = None, 0
    # connected, so only a lone vertex is isolated: no twin class spans two colors
    for lmask, rmask in maximal_biclique_masks(adj, *side, g._twin_reps):
        # one smaller than the best so far ranks after it, so it is not tested
        if (lmask.bit_count() + rmask.bit_count() >= size
                and _row_union(adj, lmask) == side[1] and _row_union(adj, rmask) == side[0]):
            b = Biclique(frozenset(iter_bits(lmask)), frozenset(iter_bits(rmask)))
            if best is None or b.sort_key() < best.sort_key():
                best, size = b, len(b.vertices())
    return best
