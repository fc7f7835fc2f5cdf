"""Symmetric-edge conditions, orientations, topological order and
bitournaments.

An *orientation* keeps exactly one direction of each symmetric edge pair; the
canonical rule here keeps the smaller-id -> larger-id direction.
``all_orientations`` sweeps every choice so universally quantified claims can
be tested honestly.
"""

from __future__ import annotations

from typing import Iterator, NamedTuple

from .axioms import find_n2_violation
from .bicliques import Biclique
from .digraph import Digraph, _color_classes, _state_digraphs, induced_subdigraph
from .errors import NotBiclique, NotOriented, TooLarge

ORIENT_MAX_PAIRS = 16


class StarConditions(NamedTuple):
    star: bool
    starstar: bool
    symmetric_pairs: tuple[tuple[int, int], ...]


class BitournamentReport(NamedTuple):
    is_bitournament: bool
    is_bitransitive: bool


def star_conditions(g: Digraph) -> StarConditions:
    """star: no vertex lies on two symmetric pairs; starstar: no two vertices
    share both neighborhoods."""
    out, inn = g.out_masks, g.in_masks
    star = all((o & i).bit_count() <= 1 for o, i in zip(out, inn))
    starstar = len(set(zip(out, inn))) == g.n
    return StarConditions(star, starstar, g.symmetric_pairs)


def orient(g: Digraph) -> Digraph:
    """Canonical orientation: of each symmetric pair keep small-id -> large-id.
    It is the one point of the orientation odometer that drops v -> u (state
    2) from every pair u < v, so the last one ``all_orientations`` yields."""
    base = (g.out_masks, g.in_masks)
    return next(_state_digraphs(g.colors, g.names, g.symmetric_pairs, (2,), base, oriented=True))


def all_orientations(g: Digraph) -> Iterator[Digraph]:
    """Every orientation (all 2^k keep-choices over the k symmetric pairs).

    Raises ``TooLarge`` before the first orientation when k exceeds
    ``ORIENT_MAX_PAIRS``."""
    pairs = g.symmetric_pairs
    if len(pairs) > ORIENT_MAX_PAIRS:
        raise TooLarge(
            f"orientation sweep supports at most {ORIENT_MAX_PAIRS} symmetric pairs, "
            f"got {len(pairs)}")
    # drop u -> v (state 1) or else v -> u; reversed, so the first pair varies fastest
    base = (g.out_masks, g.in_masks)
    yield from _state_digraphs(g.colors, g.names, pairs[::-1], (1, 2), base, oriented=True)


def topological_order(g: Digraph) -> tuple[int, ...] | None:
    """A vertex order with every edge pointing forward, or None on a cycle.

    Requires an oriented input; picks the smallest available id first.
    """
    if g.symmetric_pairs:
        raise NotOriented("topological order requires an orientation (no symmetric pairs)")
    out, inn = g.out_masks, g.in_masks
    left = rest = (1 << g.n) - 1
    order: list[int] = []
    while left:
        # place the least unplaced vertex with no unplaced in-neighbor; each
        # unplaced vertex outside rest has one
        while rest:
            low = rest & -rest
            v = low.bit_length() - 1
            if not inn[v] & left:
                break
            rest ^= low
        else:
            return None
        order.append(v)
        left ^= low
        # placing v frees only out-neighbors of v, so the scan goes on above
        # v with those added; a vertex enters rest once, then once per
        # in-edge, so all scans take at most n + m steps
        rest = rest ^ low | out[v] & left
    return tuple(order)


def bitournament_report(g: Digraph) -> BitournamentReport:
    """is_bitournament: oriented with exactly one edge per opposite-color pair;
    is_bitransitive: no bi-transitivity violation."""
    classes = _color_classes(g.colors)
    is_bt = not g.symmetric_pairs and all(
        a == classes[1 - c] for a, c in zip(g.adj_masks, g.colors))
    return BitournamentReport(is_bt, find_n2_violation(g) is None)


def oriented_biclique_subdigraph(g: Digraph, b: Biclique) -> Digraph:
    """Sub-digraph on the biclique's vertices with the edges of the canonical
    orientation of g (not the induced sub-digraph when a symmetric pair lies
    inside the biclique)."""
    for v in b.left | b.right:
        if not 0 <= v < g.n:
            raise ValueError(f"vertex {v} out of range")
    if not b.left or not b.right:
        raise NotBiclique("both biclique sides must be nonempty")
    if b.left & b.right:
        raise NotBiclique("biclique sides must be disjoint")
    for t in b.left:
        for z in b.right:
            if not g.adj_masks[t] >> z & 1:
                raise NotBiclique(
                    f"vertices {g.names[t]} and {g.names[z]} are not adjacent")
    return induced_subdigraph(orient(g), b.left | b.right)[0]
