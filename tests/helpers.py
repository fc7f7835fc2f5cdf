"""Shared test utilities: independent naive oracles, mask helpers, vertex
relabeling, random phylogenetic trees and the isomorphism-class generator for
small connected bipartite graphs."""

from __future__ import annotations

import random
from itertools import combinations, permutations, product
from typing import Callable, Iterable, Sequence

from qbmg.bicliques import Biclique, maximal_bicliques
from qbmg.digraph import (
    CanonicalForm,
    Digraph,
    UGraph,
    _color_classes,
    _component_masks,
    _trusted_digraph,
    build_ugraph,
    canonical_form,
    iter_bits,
)
from qbmg.enumeration import opposite_pairs
from qbmg.errors import Disconnected, TooLarge
from qbmg.trees import Nested, PhyloTree, qbmg_from_tree, root_truncation, tree_from_nested

BICLIQUE_MAX_SIDE = 20


# --- naive re-implementations of the recognition axioms (edge-set membership,
# --- no masks); deliberately direct translations of the quantifiers


def naive_violates_n1(g: Digraph) -> bool:
    E = g.edges
    V = range(g.n)
    for u in V:
        for v in V:
            if u == v or (u, v) in E or (v, u) in E:
                continue
            for t in V:
                if (u, t) not in E:
                    continue
                for w in V:
                    if (v, w) in E and (t, w) in E:
                        return True
    return False


def naive_violates_n2(g: Digraph) -> bool:
    E = g.edges
    V = range(g.n)
    for u, v, w, t in product(V, repeat=4):
        if (u, v) in E and (v, w) in E and (w, t) in E and (u, t) not in E:
            return True
    return False


def naive_violates_n3(g: Digraph) -> bool:
    V = range(g.n)
    out = {v: {w for w in V if (v, w) in g.edges} for v in V}
    for u, v in combinations(V, 2):
        if out[u] & out[v] and not (out[u] <= out[v] or out[v] <= out[u]):
            return True
    return False


def naive_is_qbmg(g: Digraph) -> bool:
    return not (naive_violates_n1(g) or naive_violates_n2(g) or naive_violates_n3(g))


def is_qbmg_masks_delta(m: int, out: Sequence[int], inn: Sequence[int]) -> bool:
    """``is_qbmg_masks(m, out, inn)`` for masks on vertices 0..m-1 (m >= 1)
    whose subgraph on 0..m-2 is known to pass; only the tuples through the
    newest vertex x = m-1 are tested.  It prunes the shared sweep fixture
    through ``pruned_mask_sweep``, and run over all 4^c states of a new
    vertex it is the oracle for the rows ``_admissible_rows`` derives.

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


def pruned_mask_sweep(
    colors: Sequence[int],
    visit: Callable[[list[int], list[int]], None],
    keep: Callable[[int, list[int], list[int]], bool],
) -> int:
    """``run_mask_sweep`` with prefix pruning: drive ``visit(out_masks,
    in_masks)`` over the edge-state assignments of the coloring that
    ``keep`` accepts, reusing the masks in place.  Returns the number of
    graphs visited.

    Pairs are set vertex by vertex (``opposite_pairs`` order): every pair
    (j, k) with j < k for k = 1, then for k = 2, and so on.  The sweep calls
    ``keep(k + 1, out, inn)`` when vertex k's last pair is set, at which
    point the masks hold the subgraph induced on vertices 0..k, and visits
    no completion of a prefix it rejects.  The check after the final pair,
    or before any when the coloring has none, is ``keep(n, out, inn)``, so
    ``visit`` sees only graphs it accepts.  Pruning is exact for a
    hereditary ``keep`` such as ``is_qbmg_masks``: a rejected prefix is an
    induced subgraph of each of its completions.
    """
    n = len(colors)
    pairs = opposite_pairs(colors)
    last = len(pairs)
    # checks[i]: the vertex count keep tests once pairs[:i] are set (0: none)
    checks = [0] * (last + 1)
    for i in range(1, last):
        if pairs[i][1] != pairs[i - 1][1]:
            checks[i] = pairs[i - 1][1] + 1
    checks[last] = n
    out = [0] * n
    inn = [0] * n
    count = 0

    def rec(i: int) -> None:
        nonlocal count
        m = checks[i]
        if m and not keep(m, out, inn):
            return
        if i == last:
            count += 1
            visit(out, inn)
            return
        u, v = pairs[i]
        ubit, vbit = 1 << u, 1 << v
        rec(i + 1)
        out[u] |= vbit
        inn[v] |= ubit
        rec(i + 1)
        out[v] |= ubit
        inn[u] |= vbit
        rec(i + 1)
        out[u] &= ~vbit
        inn[v] &= ~ubit
        rec(i + 1)
        out[v] &= ~ubit
        inn[u] &= ~vbit

    try:
        rec(0)
    finally:
        del rec  # rec's closure refers to rec itself
    return count


# --- brute-force induced path / cycle / biclique oracles


def brute_least_induced_path(g: UGraph, k: int) -> tuple[int, ...] | None:
    """The lexicographically least vertex sequence forming an induced path on
    k vertices; permutations come in lexicographic order."""
    for seq in permutations(range(g.n), k):
        if all(
            g.has_edge(seq[i], seq[j]) == (j == i + 1)
            for i in range(k)
            for j in range(i + 1, k)
        ):
            return seq
    return None


def brute_least_induced_cycle(g: UGraph, k: int) -> tuple[int, ...] | None:
    """The lexicographically least vertex sequence forming a chordless
    k-cycle, which is least over all rotations and reflections too."""
    for seq in permutations(range(g.n), k):
        if all(
            g.has_edge(seq[i], seq[j]) == (j == i + 1 or (i == 0 and j == k - 1))
            for i in range(k)
            for j in range(i + 1, k)
        ):
            return seq
    return None


def brute_has_induced_path(g: UGraph, k: int) -> bool:
    return brute_least_induced_path(g, k) is not None


def brute_maximal_bicliques(g: UGraph) -> set[tuple[frozenset[int], frozenset[int]]]:
    """All maximal bicliques by filtering every (left, right) subset pair."""
    left_class = [v for v in range(g.n) if g.colors[v] == 0]
    right_class = [v for v in range(g.n) if g.colors[v] == 1]
    all_pairs = []
    for lr in range(1, len(left_class) + 1):
        for ls in combinations(left_class, lr):
            for rr in range(1, len(right_class) + 1):
                for rs in combinations(right_class, rr):
                    if all(g.has_edge(a, b) for a in ls for b in rs):
                        all_pairs.append((frozenset(ls), frozenset(rs)))
    maximal = set()
    for ls, rs in all_pairs:
        if not any(
            (ls, rs) != (ls2, rs2) and ls <= ls2 and rs <= rs2 for ls2, rs2 in all_pairs
        ):
            maximal.add((ls, rs))
    return maximal


def subset_walk_maximal_bicliques(g: UGraph) -> tuple[Biclique, ...]:
    """``maximal_bicliques`` as the library computed it before Close-by-One:
    every nonempty subset of the smaller color class whose common
    neighborhood closes back onto it, in the library's order."""
    left_class = [v for v in range(g.n) if g.colors[v] == 0]
    right_class = [v for v in range(g.n) if g.colors[v] == 1]
    if not g.edges:
        return ()
    # enumerate over the smaller side; the closure test makes each maximal
    # biclique appear exactly once
    base = left_class if len(left_class) <= len(right_class) else right_class
    adj = g.adj_masks
    full = (1 << g.n) - 1
    found: set[tuple[int, int]] = set()
    for sub in range(1, 1 << len(base)):
        tmask = 0
        common = full
        for i in iter_bits(sub):
            v = base[i]
            tmask |= 1 << v
            common &= adj[v]
        if not common:
            continue
        back = full
        for w in iter_bits(common):
            back &= adj[w]
        if back != tmask:
            continue
        found.add((tmask, common))
    out = []
    for tmask, zmask in found:
        side_a = frozenset(iter_bits(tmask))
        side_b = frozenset(iter_bits(zmask))
        if g.colors[next(iter(side_a))] == 0:
            out.append(Biclique(side_a, side_b))
        else:
            out.append(Biclique(side_b, side_a))
    out.sort(key=Biclique.sort_key)
    return tuple(out)


def is_dominating_set(g: UGraph, vertices: Iterable[int]) -> bool:
    """True iff every vertex outside the set has a neighbor inside it."""
    dmask = 0
    for v in vertices:
        if not 0 <= v < g.n:
            raise ValueError(f"vertex {v} out of range")
        dmask |= 1 << v
    for v in range(g.n):
        if dmask >> v & 1:
            continue
        if not g.adj_masks[v] & dmask:
            return False
    return True


def sorted_scan_dominating_biclique(g: UGraph) -> Biclique | None:
    """``find_dominating_biclique`` as the library computed it before it read
    the biclique masks: the first dominating one of ``maximal_bicliques``."""
    if not g.is_connected():
        raise Disconnected("dominating-biclique search requires a connected graph")
    for b in maximal_bicliques(g):
        if is_dominating_set(g, b.vertices()):
            return b
    return None


def grid_graph(side: int) -> UGraph:
    """The side x side grid: no two vertices are twins, and long induced
    paths abound."""
    n = side * side
    return build_ugraph(n, [(v // side + v % side) % 2 for v in range(n)], [
        (v, v + d) for v in range(n) for d in (1, side)
        if v + d < n and (d == side or (v + 1) % side)])


def crown_graph(m: int) -> UGraph:
    """K_{m,m} minus a perfect matching: 2^m - 2 maximal bicliques."""
    return build_ugraph(
        2 * m, (0,) * m + (1,) * m,
        [(i, m + j) for i in range(m) for j in range(m) if i != j])


def all_bicliques(g: UGraph) -> tuple[Biclique, ...]:
    """Every biclique (not only maximal ones), both sides nonempty."""
    left_class = [v for v in range(g.n) if g.colors[v] == 0]
    right_class = [v for v in range(g.n) if g.colors[v] == 1]
    if len(left_class) > BICLIQUE_MAX_SIDE or len(right_class) > BICLIQUE_MAX_SIDE:
        raise TooLarge("biclique enumeration bound exceeded")
    adj = g.adj_masks
    out = []
    m = len(left_class)
    for sub in range(1, 1 << m):
        tset = [left_class[i] for i in iter_bits(sub)]
        common = (1 << g.n) - 1
        for v in tset:
            common &= adj[v]
        if not common:
            continue
        rights = list(iter_bits(common))
        for rsub in range(1, 1 << len(rights)):
            zset = frozenset(rights[i] for i in iter_bits(rsub))
            out.append(Biclique(frozenset(tset), zset))
    out.sort(key=Biclique.sort_key)
    return tuple(out)


# --- mask utilities for sweep-based tests


def in_masks_from_out(n: int, out: tuple[int, ...]) -> list[int]:
    inn = [0] * n
    for u in range(n):
        for v in iter_bits(out[u]):
            inn[v] |= 1 << u
    return inn


def adj_masks_from_out(n: int, out: tuple[int, ...]) -> list[int]:
    adj = list(out)
    for u in range(n):
        for v in iter_bits(out[u]):
            adj[v] |= 1 << u
    return adj


def symmetric_pairs_and_star(n: int, out: tuple[int, ...]) -> tuple[list[tuple[int, int]], bool]:
    """Symmetric pairs (u, v), u < v, of the out-masks, and the star
    condition: no vertex lies on two of them."""
    pairs = [(u, v) for u in range(n) for v in iter_bits(out[u]) if v > u and out[v] >> u & 1]
    touched: set[int] = set()
    for u, v in pairs:
        if u in touched or v in touched:
            return pairs, False
        touched.update((u, v))
    return pairs, True


def digraph_from_masks(n: int, out: tuple[int, ...], colors: tuple[int, ...]) -> Digraph:
    edges = frozenset((u, v) for u in range(n) for v in iter_bits(out[u]))
    return Digraph(n, colors, edges, tuple(f"v{i + 1}" for i in range(n)))


def masks_connected(n: int, adj: Sequence[int]) -> bool:
    if n <= 1:
        return True
    seen = 1
    frontier = [0]
    while frontier:
        v = frontier.pop()
        rest = adj[v] & ~seen
        while rest:
            low = rest & -rest
            rest ^= low
            seen |= low
            frontier.append(low.bit_length() - 1)
    return seen == (1 << n) - 1


def random_masks(rng: random.Random, n: int, density: float) -> list[int]:
    """Adjacency masks of a random graph: each pair is an edge with
    probability ``density``."""
    adj = [0] * n
    for u in range(n):
        for v in range(u + 1, n):
            if rng.random() < density:
                adj[u] |= 1 << v
                adj[v] |= 1 << u
    return adj


def brute_components(adj: Sequence[int], within: int) -> set[frozenset[int]]:
    """The connected components of the subgraph induced on the vertex mask
    ``within``, by breadth-first search over vertex lists."""
    inside = [v for v in range(len(adj)) if within >> v & 1]
    placed: set[int] = set()
    comps = set()
    for start in inside:
        if start in placed:
            continue
        comp, queue = {start}, [start]
        for v in queue:
            for w in inside:
                if w not in comp and adj[v] >> w & 1:
                    comp.add(w)
                    queue.append(w)
        placed |= comp
        comps.add(frozenset(comp))
    return comps


def twin_blow_up(rng: random.Random, adj: Sequence[int], colors: Sequence[int],
                 size: int) -> tuple[tuple[int, ...], tuple[int, ...]]:
    """Adjacency masks and colors of a graph on ``size`` vertices: the base
    graph ``adj``, extra copies of its vertices as false twins (same
    neighborhood, not adjacent to the original; the first extra vertex is
    one) and isolated vertices of random color, under a random relabeling."""
    origin: list[int | None] = list(range(len(adj)))
    while len(origin) < size:
        twin = len(origin) == len(adj) or rng.random() < 0.75
        origin.append(rng.randrange(len(adj)) if twin else None)
    rng.shuffle(origin)
    masks = []
    for a in origin:
        masks.append(sum(1 << j for j, b in enumerate(origin)
                         if a is not None and b is not None and adj[a] >> b & 1))
    return tuple(masks), tuple(rng.randint(0, 1) if a is None else colors[a] for a in origin)


def relabel(g: Digraph, perm: Sequence[int]) -> Digraph:
    """Apply a permutation: new id perm[v] for old v.  Names follow vertices."""
    if sorted(perm) != list(range(g.n)):
        raise ValueError("not a permutation")
    colors = [0] * g.n
    names = [""] * g.n
    for v in range(g.n):
        colors[perm[v]] = g.colors[v]
        names[perm[v]] = g.names[v]
    edges = frozenset((perm[u], perm[v]) for u, v in g.edges)
    return Digraph(n=g.n, colors=tuple(colors), edges=edges, names=tuple(names))


# --- random phylogenetic trees with colorings and truncation maps


def random_nested(rng: random.Random, names: list[str]) -> Nested:
    group = list(names)
    rng.shuffle(group)

    def build(part: list[str]) -> Nested:
        if len(part) == 1:
            return part[0]
        k = rng.randint(2, min(len(part), 4))
        blocks: list[list[str]] = [[] for _ in range(k)]
        for i, item in enumerate(part):
            if i < k:
                blocks[i].append(item)
            else:
                blocks[rng.randrange(k)].append(item)
        return tuple(build(b) for b in blocks)

    return build(group)


def build_informative(g: Digraph) -> Nested | None:
    """The library's BUILD as nested tuples of leaf names, by recursion over
    leaf sets: BUILD (Aho, Sagiv, Szymanski & Ullman 1981) on the informative
    triples xy|y' of g (x -> y, x -/-> y', y and y' of the color x lacks).

    For a leaf set L the Aho graph joins x and y for every triple xy|y' inside
    L; its components are the children of L's node, ordered by least leaf
    name, and L fails (None) when the graph is connected."""
    n, out = g.n, g.out_masks
    side = _color_classes(g.colors)
    # x takes part in triples xy|y' over L iff some y' of spare[x] lies in L
    spare = [side[1 - g.colors[x]] & ~out[x] for x in range(n)]
    built = _build((1 << n) - 1, out, spare, g.names)
    return None if built is None else built[1]


def _build(
    leafset: int, out: Sequence[int], spare: Sequence[int], names: Sequence[str]
) -> tuple[str, Nested] | None:
    """BUILD on the leaf set ``leafset``: its least leaf name and its
    subtree, or None when some Aho graph below it is connected."""
    if not leafset & (leafset - 1):
        name = names[leafset.bit_length() - 1]
        return name, name
    link = [0] * len(out)
    for x in iter_bits(leafset):
        if spare[x] & leafset:
            ys = out[x] & leafset
            link[x] |= ys
            for y in iter_bits(ys):
                link[y] |= 1 << x
    comps = _component_masks(link, leafset)
    if len(comps) == 1:
        return None
    kids = []
    for comp in comps:
        kid = _build(comp, out, spare, names)
        if kid is None:
            return None
        kids.append(kid)
    kids.sort()  # least leaf names are distinct, so subtrees are never compared
    return kids[0][0], tuple(nested for _, nested in kids)


def caterpillar_newick(colors: list[int]) -> str:
    """``(x1=c1,(x2=c2,(...(x{n-1}=c,xn=c)...)));``: n leaves at depth up to n - 1."""
    n = len(colors)
    head = "".join(f"(x{i}={colors[i - 1]}," for i in range(1, n - 1))
    return f"{head}(x{n - 1}={colors[-2]},x{n}={colors[-1]}){')' * (n - 2)};"


def format_newick(nested: Nested, colors: dict[str, int], gap: Callable[[], str]) -> str:
    """The text ``parse_tree`` reads back as ``nested`` colored by leaf name;
    ``gap()`` supplies the whitespace before and after each token."""

    def node(x: Nested) -> str:
        if isinstance(x, str):
            return f"{gap()}{x}={colors[x]}{gap()}"
        return f"{gap()}({','.join(node(child) for child in x)}){gap()}"

    return f"{node(nested)};{gap()}"


def random_surjective_coloring(rng: random.Random, leaves: tuple[int, ...]) -> dict[int, int]:
    while True:
        sigma = {leaf: rng.randint(0, 1) for leaf in leaves}
        if set(sigma.values()) == {0, 1}:
            return sigma


def spine_tree_graph(k: int) -> Digraph:
    """The graph of a spine tree: nested internal nodes N_1 > N_2 > ... > N_k,
    where N_i holds a leaf s_i of color i % 2, whose truncation entry for
    the other color is N_i, and a cherry of a color-0 and a color-1 leaf;
    N_k holds a second cherry.  The 3k + 2 vertices form one connected
    recognized component; from k = 10 on, the P6 and C6 searches on its
    underlying graph exceed their budget."""
    nested: Nested = (f"a{k}", f"b{k}")
    for i in range(k, 0, -1):
        nested = (f"s{i}", (f"a{i - 1}", f"b{i - 1}"), nested)
    tree = tree_from_nested(nested)
    sigma = {}
    for x in tree.leaves:
        name = tree.names[x]
        sigma[x] = int(name[1:]) % 2 if name[0] == "s" else int(name[0] == "b")
    u = root_truncation(tree, sigma)
    for x in tree.leaves:
        if tree.names[x][0] == "s":
            u[(x, 1 - sigma[x])] = tree.parent[x]
    return qbmg_from_tree(tree, sigma, u)


def random_truncation(rng, tree, sigma) -> dict[tuple[int, int], int]:
    u: dict[tuple[int, int], int] = {}
    for x in tree.leaves:
        for s in (0, 1):
            if s == sigma[x]:
                u[(x, s)] = x
            else:
                u[(x, s)] = rng.choice(tree.root_path(x))
    return u


# --- naive tree-to-graph and topological-order oracles


def children(t: PhyloTree) -> tuple[tuple[int, ...], ...]:
    """Each node's children in increasing id, read off the parent array."""
    kids: list[list[int]] = [[] for _ in t.parent]
    for node in range(1, t.size):
        kids[t.parent[node]].append(node)
    return tuple(map(tuple, kids))


def _naive_ancestors(t: PhyloTree, x: int) -> list[int]:
    """x and every node above it, from x up to the root."""
    chain = [x]
    while t.parent[chain[-1]] is not None:
        chain.append(t.parent[chain[-1]])
    return chain


def naive_best_match_graph(t: PhyloTree, sigma, u=None) -> Digraph:
    """Leaf digraph straight from the definition: x -> y iff y has the other
    color and no leaf z of y's color has a deeper lca(x, z) than lca(x, y);
    with a truncation map u the edge also needs u(x, color-of-y) to be an
    ancestor-or-equal of lca(x, y)."""
    def lca(a: int, b: int) -> int:
        above_a = _naive_ancestors(t, a)
        return next(node for node in _naive_ancestors(t, b) if node in above_a)

    def depth(node: int) -> int:
        return len(_naive_ancestors(t, node)) - 1

    kids = children(t)
    leaves = [v for v in range(len(t.parent)) if not kids[v]]
    edges = []
    for i, x in enumerate(leaves):
        for j, y in enumerate(leaves):
            if sigma[y] == sigma[x]:
                continue
            a = lca(x, y)
            if any(depth(lca(x, z)) > depth(a) for z in leaves if sigma[z] == sigma[y]):
                continue
            if u is not None and u[(x, sigma[y])] not in _naive_ancestors(t, a):
                continue
            edges.append((i, j))
    return Digraph(
        len(leaves),
        tuple(sigma[x] for x in leaves),
        frozenset(edges),
        tuple(t.names[x] for x in leaves),
    )


def naive_topological_order(g: Digraph) -> tuple[int, ...] | None:
    """Repeatedly place the smallest unplaced vertex whose in-neighbors are
    all placed; None when some vertex can never be placed."""
    order: list[int] = []
    while len(order) < g.n:
        ready = [
            v for v in range(g.n)
            if v not in order and all(a in order for a, b in g.edges if b == v)
        ]
        if not ready:
            return None
        order.append(ready[0])
    return tuple(order)


# --- connected bipartite undirected graphs with n <= max_n, one per
# --- isomorphism class, generated by single-vertex augmentation (every
# --- connected graph arises by re-attaching a removed spanning-tree leaf)


def ugraph_canonical_form(u: UGraph) -> CanonicalForm:
    """The canonical form of the digraph with both directions of every edge."""
    return canonical_form(_trusted_digraph(u.n, u.colors, u.names, u.adj_masks, u.adj_masks))


def connected_bipartite_reps(max_n: int) -> dict[int, list[UGraph]]:
    levels: dict[int, list[UGraph]] = {1: [build_ugraph(1, (0,), [])]}
    for n in range(2, max_n + 1):
        seen: dict[bytes, UGraph] = {}
        for g in levels[n - 1]:
            for new_color in (0, 1):
                attach_to = [v for v in range(g.n) if g.colors[v] != new_color]
                for r in range(1, len(attach_to) + 1):
                    for subset in combinations(attach_to, r):
                        edges = list(g.edges) + [(v, g.n) for v in subset]
                        cand = build_ugraph(n, g.colors + (new_color,), edges)
                        code = ugraph_canonical_form(cand).code
                        if code not in seen:
                            seen[code] = cand
        levels[n] = list(seen.values())
    return levels
