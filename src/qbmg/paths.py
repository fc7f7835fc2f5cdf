"""Induced chordless paths and cycles in undirected graphs.

Detection is one backtracking search for the least induced path, over
vertex sequences on adjacency bitmasks: the next vertex is a neighbor of the
last one outside the OR of the earlier path vertices' neighborhoods, so no
chord is ever placed.  Exact and exponential in the worst case, which is fine
at the sizes this package targets (n <= 16).  Returned witnesses are the
lexicographically least sequence (for cycles: least over all rotations and
reflections); a path ends above its first vertex, else its reverse would
sort first.

An induced C_k whose least vertex is s is s followed by an induced path on
k - 1 vertices above s whose two ends, and only they, are neighbors of s.  So
the cycle search walks s upward, which gives the least first vertex, and
asks for the least such path; the path's rule of ending above its first
vertex picks the smaller of the cycle's two neighbors of s to come second.

Freeness is hereditary in the length: an induced P_j with j >= k, and an
induced C_j with j > k, each contain an induced P_k.  So a graph remembers
the least k for which a search found no induced P_k, and answers longer
path and cycle queries with None without searching; only this module
writes that ``_path_free_from``.  A ``UGraph`` is bipartite, so an odd
cycle query gets None without a search as well.  The underlying graph of a
recognized digraph is marked P6-free and C6-free (see ``qbmg.digraph``), so
every P_k and C_k query with k >= 6 gets None from the mark alone.

False twins, vertices with the same neighborhood, never lie together on an
induced P_k with k >= 4 or an induced C_k with k >= 5.  Two twins on one
have the same neighbors on it: as the two ends of a path they make it a
P3, and otherwise they and their two common neighbors close a C4.  Putting
the least twin of its class in place of another vertex of a witness gives
an induced path or cycle again and a smaller sequence, so the least witness
holds least twins only.  From those lengths on, the searches therefore
start from and extend by the least vertex of each twin class only.
Underlying graphs of tree-built graphs are full of twins.  A graph's twin
classes never change, so ``find_induced_path`` and ``find_induced_cycle``
read them from the ``UGraph``, where they are found once.

Each search raises ``TooLarge`` before it starts when its tree of vertex
sequences may have more than 10,000,000 leaves, bounded as
n * d * (d - 1)^(k - 2) from the n vertices it starts from and the most
neighbors d any of them has among them.  That budget is the only bound on
k: a long path on a graph of small degree is found in linear time.
"""

from __future__ import annotations

from dataclasses import dataclass
from typing import Sequence

from .digraph import UGraph, _twin_representatives, iter_bits
from .errors import TooLarge

# leaves of the sequence tree: every 16-vertex graph at k = 6 stays within it
_SEARCH_BUDGET = 10_000_000


@dataclass(frozen=True)
class InducedPath:
    vertices: tuple[int, ...]


@dataclass(frozen=True)
class InducedCycle:
    vertices: tuple[int, ...]


def _search_vertices(adj: Sequence[int], k: int, within: int) -> int:
    """The vertices of the mask ``within`` that a search for k vertices
    starts from and extends by; none when fewer than k are left.  Raises
    ``TooLarge`` when the sequences it may walk exceed the budget."""
    count = within.bit_count()
    if count < k:
        return 0
    if count ** k > _SEARCH_BUDGET:  # else n * d * (d - 1)^(k - 2) is within it
        degree = max((adj[v] & within).bit_count() for v in iter_bits(within))
        if count * degree * (degree - 1) ** (k - 2) > _SEARCH_BUDGET:
            raise TooLarge(
                f"an induced {k}-vertex search over {count} vertices of degree up to "
                f"{degree} may walk more than {_SEARCH_BUDGET} sequences")
    return within


def _least_path(adj: Sequence[int], k: int, starts: int, inner: int, ends: int) -> tuple[int, ...] | None:
    """The least induced path on k >= 2 vertices that starts in ``starts``,
    ends in ``ends`` above its first vertex, and has every other vertex in
    ``inner``; None if there is none."""
    path = [0] * k
    # per depth d: the candidates for path[d] not yet tried, and for d >= 1
    # the OR of the neighborhoods of path[:d - 1] with path[0], so a
    # candidate (a neighbor of path[d - 1] outside it) is new and closes no chord
    untried = [0] * k
    near = [0] * k
    untried[0] = starts
    depth = 0
    while depth >= 0:
        cand = untried[depth]
        if not cand:
            depth -= 1
            continue
        low = cand & -cand
        untried[depth] = cand ^ low
        w = low.bit_length() - 1
        path[depth] = w
        if depth == k - 1:
            return tuple(path)
        blocked = near[depth] | adj[path[depth - 1]] if depth else low
        depth += 1
        near[depth] = blocked
        untried[depth] = adj[w] & ~blocked & (inner if depth < k - 1 else ends & -(2 << path[0]))
    return None


def _induced_path(adj: Sequence[int], n: int, k: int, twins: int) -> tuple[int, ...] | None:
    """The least induced path on k vertices, given the mask ``twins`` of
    the least vertex of each twin class."""
    if k > n or k < 1:
        return None
    if k == 1:
        return (0,)
    within = _search_vertices(adj, k, twins if k >= 4 else (1 << n) - 1)
    return _least_path(adj, k, within, within, within)


def _induced_cycle(adj: Sequence[int], n: int, k: int, twins: int) -> tuple[int, ...] | None:
    """The least induced cycle on k vertices, given ``twins`` as above."""
    if k > n or k < 3:
        return None
    within = _search_vertices(adj, k, twins if k >= 5 else (1 << n) - 1)
    for s in iter_bits(within):
        above = within & -(2 << s)
        if above.bit_count() < k - 1:
            return None
        ends = above & adj[s]
        if ends & (ends - 1):  # at least two neighbors above s
            path = _least_path(adj, k - 1, ends, above & ~ends, ends)
            if path is not None:
                return (s, *path)
    return None


def find_induced_path_masks(adj: Sequence[int], n: int, k: int) -> tuple[int, ...] | None:
    return _induced_path(adj, n, k, _twin_representatives(adj, (1 << n) - 1))


def find_induced_cycle_masks(adj: Sequence[int], n: int, k: int) -> tuple[int, ...] | None:
    return _induced_cycle(adj, n, k, _twin_representatives(adj, (1 << n) - 1))


def find_induced_path(g: UGraph, k: int) -> InducedPath | None:
    """Some induced path on k vertices, or None; g is Pk-free iff None."""
    if k < 2:
        raise ValueError("induced path needs at least 2 vertices")
    known = vars(g)
    # the least k g is known to be P_k-free for, and the theorem's mark
    if k >= known.get("_path_free_from", k + 1) or k >= 6 and known.get("_qbmg_shadow"):
        return None
    seq = _induced_path(g.adj_masks, g.n, k, g._twin_reps)
    if seq is None:
        known["_path_free_from"] = k
        return None
    return InducedPath(seq)


def find_induced_cycle(g: UGraph, k: int) -> InducedCycle | None:
    """Some induced chordless k-cycle, or None; odd k on bipartite input gives None."""
    if k < 3:
        raise ValueError("induced cycle needs at least 3 vertices")
    known = vars(g)
    if k % 2 or k > known.get("_path_free_from", k) or k >= 6 and known.get("_qbmg_shadow"):
        return None
    seq = _induced_cycle(g.adj_masks, g.n, k, g._twin_reps)
    return InducedCycle(seq) if seq is not None else None
