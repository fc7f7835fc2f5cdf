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
from .digraph import Digraph, _state_digraphs, _trusted_digraph, induced_subdigraph
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
    """Canonical orientation: of each symmetric pair keep small-id -> large-id."""
    out, inn = list(g.out_masks), list(g.in_masks)
    for u, v in g.symmetric_pairs:
        out[v] ^= 1 << u
        inn[u] ^= 1 << v
    return _trusted_digraph(g.n, g.colors, g.names, tuple(out), tuple(inn), oriented=True)


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
    placed = 0
    ready = 0
    for v in range(g.n):
        if not inn[v]:
            ready |= 1 << v
    order: list[int] = []
    while ready:
        low = ready & -ready
        v = low.bit_length() - 1
        order.append(v)
        placed |= low
        ready ^= low
        # a successor becomes ready once all of its in-neighbors are placed
        succ = out[v]
        while succ:
            lw = succ & -succ
            succ ^= lw
            if not inn[lw.bit_length() - 1] & ~placed:
                ready |= lw
    return tuple(order) if len(order) == g.n else None


def bitournament_report(g: Digraph) -> BitournamentReport:
    """is_bitournament: oriented with exactly one edge per opposite-color pair;
    is_bitransitive: no bi-transitivity violation."""
    classes = [0, 0]
    for v, c in enumerate(g.colors):
        classes[c] |= 1 << v
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
