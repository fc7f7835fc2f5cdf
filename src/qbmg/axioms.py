"""Recognition of two-colored quasi-best-match graphs.

A bipartite two-colored digraph passes recognition when all three of the
following hold:

* (N1) no two non-adjacent vertices u, v admit w, t with edges u->t, v->w, t->w;
* (N2) bi-transitivity: edges u->v, v->w, w->t force the edge u->t;
* (N3) vertices with a common out-neighbor have nested out-neighborhoods.

Violation finders return the lexicographically first witness tuple so reports
are deterministic.  ``is_qbmg_masks`` is a boolean-only fast path over
adjacency bitmasks used by the exhaustive generators; the test suite checks
it against ``recognize`` and against a naive quantifier scan.
``_admissible_rows`` derives from N1-N3 every row a new vertex can take over
a recognized prefix, so ``classify_all_qbmgs`` grows only recognized graphs.

N1 and N2 are one condition on the end w of each 2-path u -> t -> w: w's
in-neighbors are adjacent to u (N1) and w's out-neighbors are u's (N2).
Both finders walk the 2-paths in ``_first_on_two_paths``, which leaves
u -> t at once unless the rows of t's out-neighbors, ORed, hold something u
does not allow; the N3 finder visits only the v above u that share an
out-neighbor with u.  On the 752-vertex spine tree graph each finder takes
10-13 ms, where a triple loop over u, t and w took 270-290 ms.  The kernel
names no witness.  One pass per u over its out-neighbors ORs their out-rows,
the ends of u's 2-paths, and their in-rows, the vertices sharing an
out-neighbor with u; it rejects on N3 against the sharers above u (a pair
sharing none passes N3), then tests each 2-path end once.  On 1,000
disjoint symmetric pairs it takes 4-5 ms, where a loop over all pairs took
240-280 ms.  On the 43,321 graphs of the n <= 5 sweep the finders take 2.4
times its time (0.26-0.30 against 0.10-0.12 s, best of 7, Python 3.11 on 2
vCPUs), so the sweeps keep it, and ``is_qbmg`` on one ``Digraph`` takes the
verdict of ``recognize``.

The rows replace a test of each state.  Before them, ``classify_all_qbmgs``
tested all 4^c states of a new vertex's c opposite-color pairs with a kernel
that checks only the tuples through that vertex (``is_qbmg_masks_delta``,
now the rows' test oracle in ``tests/helpers.py``).  At the last vertex it
rejected 2,934 of 4,353 states for n = 5 and 115,022 of 140,929 for n = 6.
Deriving the rows took ``classify_all_qbmgs(7)``, run with its vertex cap
raised, from 7.9 to 2.5-3.3 s (Python 3.11 on 2 vCPUs).
"""

from __future__ import annotations

from dataclasses import dataclass
from itertools import combinations
from typing import Sequence

from .digraph import Digraph, _keep_verdict, _row_union, induced_subdigraph
from .errors import NotQbmg, TooLarge

HEREDITARY_MAX_VERTICES = 10


@dataclass(frozen=True)
class AxiomWitness:
    """A concrete violation: which axiom failed and on which vertices.

    Vertex tuples read (u, t, w, v) for N1, (u, v, w, t) for N2 and
    (u, v, shared_out) for N3; replaying them against the graph confirms
    the violation.
    """

    axiom: str
    vertices: tuple[int, ...]


@dataclass(frozen=True)
class RecognitionReport:
    is_qbmg: bool
    is_bmg: bool
    is_reciprocal: bool
    witness: AxiomWitness | None
    sinks: frozenset[int]
    symmetric_edge_count: int


def _first_on_two_paths(g: Digraph, rows: Sequence[int],
                        allowed: Sequence[int]) -> tuple[int, int, int, int] | None:
    """First (u, t, w, x) with edges u->t, t->w and x in rows[w] but not in
    allowed[u]; u outermost, then t, w and x ascending."""
    out = g.out_masks
    # reach[t]: the rows of t's out-neighbors ORed, taken on t's first visit;
    # u -> t is walked on only when some w past t can name an x
    reach: list[int | None] = [None] * g.n
    for u in range(g.n):
        ou = out[u]
        banned = ~allowed[u]
        while ou:
            lt = ou & -ou
            ou ^= lt
            t = lt.bit_length() - 1
            r = reach[t]
            if r is None:
                r = reach[t] = _row_union(rows, out[t])
            if not r & banned:
                continue
            ot = out[t]
            while ot:
                lw = ot & -ot
                ot ^= lw
                w = lw.bit_length() - 1
                cand = rows[w] & banned
                if cand:
                    return u, t, w, (cand & -cand).bit_length() - 1
    return None


def find_n1_violation(g: Digraph) -> AxiomWitness | None:
    """First (u, t, w, v) with u, v non-adjacent and edges u->t, v->w, t->w.
    w has u's color, so u is never an in-neighbor of w."""
    hit = _first_on_two_paths(g, g.in_masks, g.adj_masks)
    return None if hit is None else AxiomWitness("N1", hit)


def find_n2_violation(g: Digraph) -> AxiomWitness | None:
    """First (u, v, w, t) with edges u->v, v->w, w->t but no edge u->t."""
    hit = _first_on_two_paths(g, g.out_masks, g.out_masks)
    return None if hit is None else AxiomWitness("N2", hit)


def find_n3_violation(g: Digraph) -> AxiomWitness | None:
    """First (u, v, s) sharing out-neighbor s with incomparable out-neighborhoods."""
    out, inn = g.out_masks, g.in_masks
    for u in range(g.n - 1):
        ou = out[u]
        # the v above u that share an out-neighbor with u
        sharers = _row_union(inn, ou) & -2 << u
        while sharers:
            lv = sharers & -sharers
            sharers ^= lv
            v = lv.bit_length() - 1
            ov = out[v]
            if ou & ~ov and ov & ~ou:
                common = ou & ov
                return AxiomWitness("N3", (u, v, (common & -common).bit_length() - 1))
    return None


def recognize(g: Digraph) -> RecognitionReport:
    """Full recognition report; witness is the first violation in N1, N2, N3
    order.  The verdict is kept on g, where ``is_qbmg`` reads it."""
    witness = find_n1_violation(g)
    if witness is None:
        witness = find_n2_violation(g)
    if witness is None:
        witness = find_n3_violation(g)
    sinks = frozenset(v for v in range(g.n) if g.out_masks[v] == 0)
    sym = len(g.symmetric_pairs)
    is_qbmg = _keep_verdict(g, witness is None)
    is_bmg = is_qbmg and g.n > 0 and not sinks  # no tree has zero leaves
    is_reciprocal = is_bmg and g.out_masks == g.in_masks
    return RecognitionReport(is_qbmg, is_bmg, is_reciprocal, witness, sinks, sym)


def is_qbmg_masks(n: int, out: Sequence[int], inn: Sequence[int]) -> bool:
    """Boolean-only recognition over out/in adjacency bitmasks of vertices
    0..n-1, each in-mask the transpose of the out-masks.  Longer mask lists
    are indexed only up to n, but no mask of vertices 0..n-1 may have a bit
    at n or above set: such bits are read as edges, not cleared."""
    for u in range(n):
        ou = out[u]
        if not ou:
            continue
        # the ends of u's 2-paths and the vertices sharing an out-neighbor with u,
        # in one pass over ou where two ``_row_union`` calls would walk it twice
        two_step = sharers = 0
        m = ou
        while m:
            low = m & -m
            m ^= low
            t = low.bit_length() - 1
            two_step |= out[t]
            sharers |= inn[t]
        # (N3) against the sharers above u; a pair sharing nothing passes
        sharers &= -2 << u
        while sharers:
            low = sharers & -sharers
            sharers ^= low
            ov = out[low.bit_length() - 1]
            if ou & ~ov and ov & ~ou:
                return False
        # (N1) and (N2) at each 2-path end w: w's in-neighbors must be
        # adjacent to u and w's out-neighbors must be u's
        near = ou | inn[u] | 1 << u
        while two_step:
            low = two_step & -two_step
            two_step ^= low
            w = low.bit_length() - 1
            if out[w] & ~ou or inn[w] & ~near:
                return False
    return True


def _admissible_rows(x: int, opposite: int, out: Sequence[int],
                     inn: Sequence[int]) -> list[tuple[int, list[int]]]:
    """The rows (O, I) that keep the graph recognized when vertex x joins a
    recognized prefix on 0..x-1: x gets the edges x -> w for w in O and
    u -> x for u in I, both subsets of ``opposite``, the mask of its
    opposite-colored predecessors; every edge of the prefix joins one of
    those to a vertex of x's color.  The rows come grouped by in-row, as
    ``[(I, [O, ...]), ...]``; every admissible I has O = 0 among its rows.

    A tuple without x keeps its verdict, so the rows follow from N1-N3 with
    x in each role (names as in the finders):

    * on I alone: N2 with x as t closes I under in-neighbors of
      in-neighbors; N1 with x as w makes each in-neighbor of a vertex of I
      adjacent to all of I; N3 among x's in-neighbors, whose out-sets all
      gain x, makes their nonempty out-sets meet, and brings in each vertex
      whose out-set strictly contains a nonempty one in I;
    * a bound on O per I: N1 with x as t (the in-neighbors of each w in O
      are adjacent to all of I), N2 with x as v (out[w] lies within out[u]
      for u in I) and N2 with x as w (O lies within the out-set of each
      in-neighbor of I);
    * on O alone: N2 with x as u closes O under out-neighbors of
      out-neighbors, and N3 makes O nested with or disjoint from each
      out-set of x's color;
    * what I must hold per O: N1 with x as u and as v makes each vertex
      that shares an out-neighbor with a vertex of O, or has a 2-path into
      one, adjacent to x.

    Each condition is tabled per vertex of ``opposite``, then per subset j
    (bit i for its i-th vertex) from the subset without its lowest vertex.
    """
    ps = [v for v in range(x) if opposite >> v & 1]
    same = [v for v in range(x) if not opposite >> v & 1]
    # per vertex p of ps: what p in I asks of I (within, closure) and of O
    # (bound), and what p in O asks of O (closure) and of I (need)
    tables = []
    for p in ps:
        op, ip = out[p], inn[p]
        two = reach = back = up = 0
        within = bound = opposite
        for a in same:
            if op >> a & 1:
                two |= out[a]
                reach |= inn[a]
            if ip >> a & 1:
                back |= inn[a]
                within &= out[a] | inn[a]
                bound &= out[a]
        adj = op | ip
        for b in ps:
            ob = out[b]
            if op and ob:
                shared = ob & op
                if not shared:
                    within &= ~(1 << b)
                elif shared == op != ob:
                    up |= 1 << b
            if inn[b] & ~adj or ob & ~op:
                bound &= ~(1 << b)
        tables.append((within, back | up, bound, two, reach | back))
    size = 1 << len(ps)
    subset, in_closed, out_closed, out_need = ([0] * size for _ in range(4))
    in_within, out_bound = [opposite] * size, [opposite] * size
    outs = [(0, 0)]  # (O, what I must hold) for each O meeting its own conditions
    for j in range(1, size):
        low = j & -j
        rest = j ^ low
        i = low.bit_length() - 1
        within, closure, bound, two, need = tables[i]
        s = subset[j] = subset[rest] | 1 << ps[i]
        in_within[j] = in_within[rest] & within
        in_closed[j] = in_closed[rest] | closure
        out_bound[j] = out_bound[rest] & bound
        out_closed[j] = out_closed[rest] | two
        out_need[j] = out_need[rest] | need
        if out_closed[j] & ~s:
            continue
        for a in same:
            shared = s & out[a]
            if shared and shared != s and shared != out[a]:
                break
        else:
            outs.append((s, out_need[j] & ~s))
    rows = []
    for j in range(size):
        s = subset[j]
        if s & ~in_within[j] or in_closed[j] & ~s:
            continue
        beyond = ~out_bound[j]
        rows.append((s, [o for o, needs in outs if not o & beyond and not needs & ~s]))
    return rows


def is_qbmg(g: Digraph) -> bool:
    """The verdict of ``recognize``, computed once and kept on g; an induced
    sub-digraph of a recognized graph inherits it (see ``qbmg.digraph``)."""
    verdict = vars(g).get("_is_qbmg")
    if verdict is None:
        verdict = recognize(g).is_qbmg
    return verdict


def is_hereditary_on(g: Digraph) -> frozenset[int] | None:
    """None if every induced sub-digraph passes recognition, else the smallest
    violating vertex subset.  A non-None answer falsifies the implementation,
    not the theory; the result is diagnostic."""
    if not is_qbmg(g):
        raise NotQbmg("hereditarity check requires a recognized graph")
    if g.n > HEREDITARY_MAX_VERTICES:
        raise TooLarge(f"hereditarity scan supports at most {HEREDITARY_MAX_VERTICES} vertices")
    for size in range(1, g.n + 1):
        for subset in combinations(range(g.n), size):
            sub, _ = induced_subdigraph(g, subset)
            if not is_qbmg_masks(sub.n, sub.out_masks, sub.in_masks):
                return frozenset(subset)
    return None
