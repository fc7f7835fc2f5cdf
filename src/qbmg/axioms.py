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
``is_qbmg_masks_delta`` gives the same verdict for a graph grown by one
vertex from a passing one, testing only the tuples through that vertex.

The finders and the kernel stay separate.  A finder names the
lexicographically first witness, with u the outermost loop.  The kernel
tests N3 first, the cheapest reject, and N1 once per target t with the
in-neighbors of t's out-neighbors ORed together, so it cannot name that
witness.  Over the 43,321 graphs of the n <= 5 mask sweep the three finders
take 1.2 times the kernel's time (0.26 s against 0.22 s, best of 7, Python
3.11 on 2 vCPUs), so one kernel serving both would slow the sweep by that.

The full and the delta kernel stay separate too.  Chained over m = 1..n,
``is_qbmg_masks_delta`` gives the verdict of ``is_qbmg_masks`` on all
3,653,946 graphs of the n <= 6 sweep at about its speed (17.1-18.1 against
16.6-17.4 s), but costs 2.2-2.8 times as much per graph on the benchmark's
tree-built graphs (56-60 against 20-24 us) and explain graphs (18-23
against 7-10 us).  As the prefix test of ``classify_all_qbmgs`` the full
kernel takes n = 5 from 52-64 to 68-76 ms and n = 6 from 1.25 to 1.66 s.
"""

from __future__ import annotations

from dataclasses import dataclass
from itertools import combinations
from typing import Sequence

from .digraph import Digraph, induced_subdigraph
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


def find_n1_violation(g: Digraph) -> AxiomWitness | None:
    """First (u, t, w, v) with u, v non-adjacent and edges u->t, v->w, t->w."""
    out, inn, adj = g.out_masks, g.in_masks, g.adj_masks
    for u in range(g.n):
        ou = out[u]
        if not ou:
            continue
        blocked = adj[u] | (1 << u)
        while ou:
            lt = ou & -ou
            ou ^= lt
            t = lt.bit_length() - 1
            ot = out[t]
            while ot:
                lw = ot & -ot
                ot ^= lw
                w = lw.bit_length() - 1
                cand = inn[w] & ~blocked
                if cand:
                    v = (cand & -cand).bit_length() - 1
                    return AxiomWitness("N1", (u, t, w, v))
    return None


def find_n2_violation(g: Digraph) -> AxiomWitness | None:
    """First (u, v, w, t) with edges u->v, v->w, w->t but no edge u->t."""
    out = g.out_masks
    for u in range(g.n):
        ou = out[u]
        rest = ou
        while rest:
            lv = rest & -rest
            rest ^= lv
            v = lv.bit_length() - 1
            ov = out[v]
            while ov:
                lw = ov & -ov
                ov ^= lw
                w = lw.bit_length() - 1
                missing = out[w] & ~ou
                if missing:
                    t = (missing & -missing).bit_length() - 1
                    return AxiomWitness("N2", (u, v, w, t))
    return None


def find_n3_violation(g: Digraph) -> AxiomWitness | None:
    """First (u, v, s) sharing out-neighbor s with incomparable out-neighborhoods."""
    out = g.out_masks
    for u in range(g.n - 1):
        ou = out[u]
        if not ou:
            continue
        for v in range(u + 1, g.n):
            ov = out[v]
            common = ou & ov
            if common and ou & ~ov and ov & ~ou:
                s = (common & -common).bit_length() - 1
                return AxiomWitness("N3", (u, v, s))
    return None


def recognize(g: Digraph) -> RecognitionReport:
    """Full recognition report; witness is the first violation in N1, N2, N3 order."""
    witness = find_n1_violation(g)
    if witness is None:
        witness = find_n2_violation(g)
    if witness is None:
        witness = find_n3_violation(g)
    sinks = frozenset(v for v in range(g.n) if g.out_masks[v] == 0)
    sym = len(g.symmetric_pairs)
    is_qbmg = witness is None
    is_bmg = is_qbmg and not sinks
    is_reciprocal = is_bmg and g.out_masks == g.in_masks
    return RecognitionReport(is_qbmg, is_bmg, is_reciprocal, witness, sinks, sym)


def is_qbmg_masks(n: int, out: Sequence[int], inn: Sequence[int]) -> bool:
    """Boolean-only recognition over out/in adjacency bitmasks of vertices
    0..n-1.  Longer mask lists are indexed only up to n, but no mask of
    vertices 0..n-1 may have a bit at n or above set: such bits are read as
    edges, not cleared."""
    # (N3): cheapest reject on dense graphs
    for u in range(n - 1):
        ou = out[u]
        if not ou:
            continue
        for v in range(u + 1, n):
            ov = out[v]
            c = ou & ov
            if c and c != ou and c != ov:
                return False
    # (N1): every in-neighbor u of t must be adjacent to each v that shares an
    # out-neighbor w with t, so OR those v over w first, then test each u once
    for t in range(n):
        it = inn[t]
        if not it:
            continue
        ot = out[t]
        reach = 0
        while ot:
            lw = ot & -ot
            ot ^= lw
            reach |= inn[lw.bit_length() - 1]
        if not reach:
            continue
        while it:
            lu = it & -it
            it ^= lu
            u = lu.bit_length() - 1
            if reach & ~(out[u] | inn[u] | lu):
                return False
    # (N2)
    for u in range(n):
        ou = out[u]
        if not ou:
            continue
        two_step = 0
        m = ou
        while m:
            low = m & -m
            m ^= low
            two_step |= out[low.bit_length() - 1]
        while two_step:
            low = two_step & -two_step
            two_step ^= low
            if out[low.bit_length() - 1] & ~ou:
                return False
    return True


def is_qbmg_masks_delta(m: int, out: Sequence[int], inn: Sequence[int]) -> bool:
    """``is_qbmg_masks(m, out, inn)`` for masks on vertices 0..m-1 (m >= 1)
    whose subgraph on 0..m-2 is known to pass; only the tuples through the
    newest vertex x = m-1 are tested.

    A tuple without x keeps its verdict, since x changes no edge among the
    other vertices.  N1 and N2 are tested with x in each of their four
    roles, over three masks: ``two`` (ends of 2-paths from x), ``reach``
    (sources of edges into out[x], x included) and ``back`` (sources of
    2-paths into x).  For N3 the out-sets that changed are those of x and of
    its in-neighbors, so only pairs holding one of them are compared.  The
    checks that reject most often on the n = 6 sweep's prefixes run first.
    """
    x = m - 1
    ox, ix = out[x], inn[x]
    two = reach = 0
    rest = ox
    while rest:
        lw = rest & -rest
        rest ^= lw
        w = lw.bit_length() - 1
        two |= out[w]
        reach |= inn[w]
    # N1 with x as t and N2 with x as v, per in-neighbor u of x
    back = 0
    rest = ix
    while rest:
        lu = rest & -rest
        rest ^= lu
        u = lu.bit_length() - 1
        ou = out[u]
        if reach & ~(ou | inn[u] | lu) or two & ~ou:
            return False
        back |= inn[u]
    # N2 with x as u (out[w] within out[x]), then N1 with x as u (every
    # in-neighbor of some w in two is adjacent to x)
    adjx = ox | ix | 1 << x
    srcs = 0
    rest = two
    while rest:
        lw = rest & -rest
        rest ^= lw
        w = lw.bit_length() - 1
        if out[w] & ~ox:
            return False
        srcs |= inn[w]
    if srcs & ~adjx:
        return False
    # N1 and N2 with x as w, per u in back; then N2 with x as t (every
    # source of a 2-path into some v in back is an in-neighbor of x)
    srcs = 0
    rest = back
    while rest:
        lu = rest & -rest
        rest ^= lu
        u = lu.bit_length() - 1
        ou = out[u]
        if ix & ~(ou | inn[u] | lu) or ox & ~ou:
            return False
        srcs |= inn[u]
    if srcs & ~ix:
        return False
    # N1 with x as v: every in-neighbor of some t in reach is adjacent to x
    srcs = 0
    rest = reach
    while rest:
        lt = rest & -rest
        rest ^= lt
        srcs |= inn[lt.bit_length() - 1]
    if srcs & ~adjx:
        return False
    # (N3): x against every earlier vertex, then each in-neighbor of x
    # (whose out-set gained x) against every earlier vertex
    for a in range(x):
        oa = out[a]
        c = ox & oa
        if c and c != ox and c != oa:
            return False
    rest = ix
    while rest:
        lu = rest & -rest
        rest ^= lu
        ou = out[lu.bit_length() - 1]
        for b in range(x):
            ob = out[b]
            c = ou & ob
            if c and c != ou and c != ob:
                return False
    return True


def is_qbmg(g: Digraph) -> bool:
    return is_qbmg_masks(g.n, g.out_masks, g.in_masks)


def is_hereditary_on(g: Digraph) -> frozenset[int] | None:
    """None if every induced sub-digraph passes recognition, else the smallest
    violating vertex subset.  A non-None answer falsifies the implementation,
    not the theory; the result is diagnostic."""
    if not recognize(g).is_qbmg:
        raise NotQbmg("hereditarity check requires a recognized graph")
    if g.n > HEREDITARY_MAX_VERTICES:
        raise TooLarge(f"hereditarity scan supports at most {HEREDITARY_MAX_VERTICES} vertices")
    for size in range(1, g.n + 1):
        for subset in combinations(range(g.n), size):
            sub, _ = induced_subdigraph(g, subset)
            if not is_qbmg_masks(sub.n, sub.out_masks, sub.in_masks):
                return frozenset(subset)
    return None
