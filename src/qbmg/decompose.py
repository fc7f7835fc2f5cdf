"""Biclique-plus-stable-set structure and the vertex decomposition of
connected recognized graphs into parts of that shape.

A graph is K+S when its vertex set splits into a biclique and a stable set,
or degenerately when it has an isolated vertex.  A connected recognized
digraph is *type A* when its underlying graph is K+S.  ``decompose_type_a``
peels a dominating biclique together with the vertices whose whole
neighborhood lies inside it, then peels each remaining component the same
way; every peeled part is connected and type A.
"""

from __future__ import annotations

from dataclasses import dataclass

from .axioms import is_qbmg
from .bicliques import Biclique, find_dominating_biclique, maximal_bicliques
from .digraph import (
    Digraph,
    UGraph,
    _component_masks,
    induced_subdigraph,
    iter_bits,
    underlying,
)
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
    """Connected, passes recognition, and underlying graph is K+S."""
    if not underlying(g).is_connected():
        return False
    if not is_qbmg(g):
        return False
    return kos_partition(underlying(g)) is not None


def decompose_type_a(g: Digraph) -> Decomposition:
    """Vertex decomposition of a connected recognized digraph into parts whose
    induced sub-digraphs are connected and type A.

    Each step takes a dominating biclique of the current underlying graph,
    absorbs the vertices whose neighborhoods are contained in it, emits that
    set as a part, and goes on with each connected component of the
    remainder, split on g's own adjacency masks, one component's parts
    before the next one's.
    The decomposition is canonical for this package's deterministic biclique
    preference but not unique in general.
    """
    if not is_qbmg(g):
        raise NotQbmg("decomposition requires a recognized graph")
    if not underlying(g).is_connected():
        raise Disconnected("decomposition requires a connected graph")

    parts: list[frozenset[int]] = []
    # (sub-digraph, its vertices' ids in g); each is connected and recognized:
    # g by the checks above, and each remainder component by construction and
    # by heredity; so it is type A exactly when its underlying graph is K+S
    work = [(g, tuple(range(g.n)))]
    while work:
        sub, old = work.pop()
        und = underlying(sub)
        if kos_partition(und) is not None:
            parts.append(frozenset(old))
            continue
        delta = find_dominating_biclique(und)
        if delta is None:  # cannot happen for recognized connected graphs
            raise AssertionError("connected recognized graph without dominating biclique")
        core = delta.vertices()
        outside = ~sum(1 << v for v in core)
        absorbed = frozenset(
            v for v in range(sub.n) if v not in core and not sub.adj_masks[v] & outside)
        sigma = core | absorbed
        assert _stable(und, absorbed), "absorbed set must be stable"
        first = frozenset(old[v] for v in sigma)
        part_graph, _ = induced_subdigraph(g, first)
        assert is_type_a(part_graph), "peeled part must be connected type A"
        parts.append(first)
        comps = _component_masks(g.adj_masks, sum(1 << v for v in old if v not in first))
        assert all(c & (c - 1) for c in comps), "remainder must have no isolated vertex"
        # the last pushed is peeled first, so parts keep their depth-first order
        work.extend(induced_subdigraph(g, iter_bits(comp)) for comp in reversed(comps))
    return Decomposition(tuple(parts))
