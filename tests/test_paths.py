import hashlib
import random
from itertools import permutations, product
from typing import NamedTuple

import pytest

import qbmg.paths
from helpers import (
    brute_least_induced_cycle,
    brute_least_induced_path,
    crown_graph,
    grid_graph,
    random_masks,
    random_nested,
    random_surjective_coloring,
    random_truncation,
    spine_tree_graph,
    twin_blow_up,
)
from qbmg.axioms import is_qbmg, recognize
from qbmg.digraph import Digraph, build_digraph, build_ugraph, underlying, weak_components
from qbmg.enumeration import cycle_template, halved_colorings, path_template
from qbmg.errors import TooLarge
from qbmg.fixtures import ALL_FIXTURES, C4_3, EX7, EX10, P5A
from qbmg.paths import (
    find_induced_cycle,
    find_induced_cycle_masks,
    find_induced_path,
    find_induced_path_masks,
)
from qbmg.trees import qbmg_from_tree, tree_from_nested


def test_p5_fixture_contains_induced_p5():
    hit = find_induced_path(underlying(P5A), 5)
    assert hit is not None
    assert hit.vertices == (0, 1, 2, 3, 4)


def test_all_six_p5_fixtures_are_sharp():
    # recognized graphs whose underlying graphs nevertheless contain an
    # induced P5 (so P6-freeness is the best possible path bound)
    from qbmg.fixtures import P5_CLASSES

    for name, g in P5_CLASSES.items():
        assert find_induced_path(underlying(g), 5) is not None, name


def test_recognized_graphs_are_p6_free():
    # the search itself, not the theorem kept on a recognized graph's
    # underlying graph
    for g in (EX7, EX10):
        adj = underlying(g).adj_masks
        assert find_induced_path_masks(adj, g.n, 6) is None
        assert find_induced_cycle_masks(adj, g.n, 6) is None


def test_recognized_graphs_answer_p6_and_c6_without_a_search(monkeypatch):
    # a spine tree's underlying graph is too large for the P6 and C6
    # searches, but a verdict of True kept before the underlying graph is
    # built answers both by the paper's theorem
    g = spine_tree_graph(10)
    with pytest.raises(TooLarge):
        find_induced_path(underlying(g), 6)
    with pytest.raises(TooLarge):
        find_induced_cycle(underlying(g), 6)

    def search(*args):
        raise AssertionError("searched a recognized graph for P6 or C6")

    monkeypatch.setattr(qbmg.paths, "_least_path", search)
    for h in (g, EX7, EX10):
        h = Digraph(h.n, h.colors, h.edges, h.names)  # no views kept yet
        assert is_qbmg(h)
        und = underlying(h)
        for k in (6, 7, 12):
            assert find_induced_path(und, k) is None
        for k in (6, 8, 12):
            assert find_induced_cycle(und, k) is None


def test_unrecognized_graphs_are_still_searched():
    # an oriented P6 fails recognition, so its underlying graph keeps no
    # theorem and the search finds the path itself
    p6 = build_digraph(6, [i % 2 for i in range(6)], [(i, i + 1) for i in range(5)])
    assert not is_qbmg(p6)
    hit = find_induced_path(underlying(p6), 6)
    assert hit is not None and hit.vertices == tuple(range(6))


def test_the_theorem_reaches_the_underlying_graph_built_before_recognition():
    # the underlying graph of the 152-vertex spine graph is past the P6 and
    # C6 search budget; recognition marks it whether it is built before or
    # after the verdict is kept
    spine = spine_tree_graph(50)
    g = Digraph(spine.n, spine.colors, spine.edges, spine.names)  # no views kept yet
    weak_components(g)
    assert recognize(g).is_qbmg
    assert find_induced_path(underlying(g), 6) is None
    assert find_induced_cycle(underlying(g), 6) is None
    g = Digraph(spine.n, spine.colors, spine.edges, spine.names)
    und = underlying(g)
    assert is_qbmg(g)
    assert find_induced_path(und, 6) is None and find_induced_cycle(und, 6) is None
    # a graph that fails recognition keeps its P6 witness in either order
    p6 = build_digraph(6, [i % 2 for i in range(6)], [(i, i + 1) for i in range(5)])
    und = underlying(p6)
    assert not recognize(p6).is_qbmg
    hit = find_induced_path(und, 6)
    assert hit is not None and hit.vertices == tuple(range(6))


def test_complete_bipartite_has_no_induced_p4():
    k22 = build_ugraph(4, (0, 0, 1, 1), [(0, 2), (0, 3), (1, 2), (1, 3)])
    assert find_induced_path(k22, 4) is None


def test_c4_fixture_contains_induced_c4():
    hit = find_induced_cycle(underlying(C4_3), 4)
    assert hit is not None
    assert hit.vertices == (0, 1, 2, 3)


def test_bipartite_graphs_have_no_odd_cycles():
    for colors in product((0, 1), repeat=5):
        pairs = [
            (u, v) for u in range(5) for v in range(u + 1, 5) if colors[u] != colors[v]
        ]
        # densest bipartite graph for this coloring; subgraphs can only
        # lose cycles
        g = build_ugraph(5, colors, pairs)
        assert find_induced_cycle(g, 3) is None
        assert find_induced_cycle(g, 5) is None


def test_six_cycle_found_whole():
    hit = find_induced_cycle(cycle_template(6), 6)
    assert hit is not None
    assert hit.vertices == (0, 1, 2, 3, 4, 5)


def test_cycle_witness_is_chordless():
    # 4-cycle plus a chord pair leaves no induced C6 in the 6-cycle-plus-chord
    g = build_ugraph(6, (0, 1, 0, 1, 0, 1), [(0, 1), (1, 2), (2, 3), (3, 4), (4, 5), (0, 5), (0, 3)])
    assert find_induced_cycle(g, 6) is None
    assert find_induced_cycle(g, 4) is not None


def test_is_cograph():
    k22 = build_ugraph(4, (0, 0, 1, 1), [(0, 2), (0, 3), (1, 2), (1, 3)])
    assert find_induced_path(k22, 4) is None
    assert find_induced_path(underlying(P5A), 4) is not None
    assert find_induced_path(build_ugraph(2, (0, 1), [(0, 1)]), 4) is None


def test_path_length_validation():
    g = build_ugraph(2, (0, 1), [(0, 1)])
    with pytest.raises(ValueError):
        find_induced_path(g, 1)
    with pytest.raises(ValueError):
        find_induced_cycle(g, 2)


def test_against_brute_force_exhaustive_n5():
    # every bipartite undirected graph on at most 5 labeled vertices (one
    # coloring per complement pair), every path/cycle length up to 7
    for n in range(1, 6):
        for colors in halved_colorings(n):
            pairs = [
                (u, v) for u in range(n) for v in range(u + 1, n) if colors[u] != colors[v]
            ]
            for picks in product((0, 1), repeat=len(pairs)):
                edges = [p for p, on in zip(pairs, picks) if on]
                g = build_ugraph(n, colors, edges)
                for k in range(2, 8):
                    hit = find_induced_path(g, k)
                    assert (hit and hit.vertices) == brute_least_induced_path(g, k)
                for k in range(3, 8):
                    hit = find_induced_cycle(g, k)
                    assert (hit and hit.vertices) == brute_least_induced_cycle(g, k)


class MaskGraph(NamedTuple):
    """Any undirected graph, given by adjacency bitmasks."""

    n: int
    adj: tuple[int, ...]

    def has_edge(self, u: int, v: int) -> bool:
        return bool(self.adj[u] >> v & 1)


def test_mask_search_least_witnesses_random_graphs():
    # not only bipartite graphs: odd cycles, triangles and dense graphs too
    rng = random.Random(5)
    for trial in range(48):
        n = 2 + trial % 8
        g = MaskGraph(n, tuple(random_masks(rng, n, rng.choice((0.25, 0.4, 0.6)))))
        for k in range(1, 8):
            assert find_induced_path_masks(g.adj, n, k) == brute_least_induced_path(g, k)
        for k in range(3, 8):
            assert find_induced_cycle_masks(g.adj, n, k) == brute_least_induced_cycle(g, k)


def test_mask_search_least_witnesses_twin_rich_graphs():
    # the random graphs above rarely hold false twins; these are blown up
    # from small bases (paths, cycles and random graphs) by copying
    # vertices as twins and adding isolated vertices, labels shuffled, so
    # the least twin of a class is often not the one a witness would use
    rng = random.Random(16)
    c5 = (0b10010, 0b00101, 0b01010, 0b10100, 0b01001)  # not bipartite, so no template
    bases = [cycle_template(4).adj_masks, c5, cycle_template(6).adj_masks]
    bases += [path_template(k).adj_masks for k in (4, 5, 6)]
    bases += [random_masks(rng, rng.randint(3, 6), rng.choice((0.3, 0.5))) for _ in range(18)]
    for trial, base in enumerate(bases):
        n = min(8, len(base) + 1 + trial % 3)
        adj, _ = twin_blow_up(rng, base, [0] * len(base), n)
        g = MaskGraph(n, adj)
        assert len(set(adj)) < n
        for k in range(2, 8):
            assert find_induced_path_masks(adj, n, k) == brute_least_induced_path(g, k)
        for k in range(4, 9):
            assert find_induced_cycle_masks(adj, n, k) == brute_least_induced_cycle(g, k)


def test_least_witnesses_pinned_on_tree_graphs():
    # the brute-force oracles stop at 9 vertices; these are the least path
    # (k = 4, 5, 6) and cycle (k = 4, 6) witnesses on the underlying graphs
    # of 300 seeded tree graphs with 6-16 leaves.  The digest was taken
    # while paths and cycles still had a search each, before the cycle
    # search became a least-path search above its least vertex
    rng = random.Random(23)
    names = [f"x{i}" for i in range(16)]
    digest = hashlib.sha256()
    found = [0] * 5
    for _ in range(300):
        tree = tree_from_nested(random_nested(rng, names[:rng.randint(6, 16)]))
        sigma = random_surjective_coloring(rng, tree.leaves)
        g = underlying(qbmg_from_tree(tree, sigma, random_truncation(rng, tree, sigma)))
        hits = [find_induced_path_masks(g.adj_masks, g.n, k) for k in (4, 5, 6)]
        hits += [find_induced_cycle_masks(g.adj_masks, g.n, k) for k in (4, 6)]
        digest.update(f"{g.n} {g.adj_masks}: {hits}\n".encode())
        found = [f + (hit is not None) for f, hit in zip(found, hits)]
    assert found == [168, 86, 0, 185, 0]  # no P6 or C6, as the paper proves
    assert digest.hexdigest() == (
        "c8d830516078d028cc1f637a34b8b2a77cea132e98308e47676000571a1df9fe")


@pytest.mark.parametrize("side,k", [(7, 34), (8, 44)])
def test_search_past_the_budget_is_too_large(side, k):
    # a grid has no twins, so no class shrinks the search, and unbounded
    # these searches run for seconds (7x7) and minutes (8x8)
    g = grid_graph(side)
    with pytest.raises(TooLarge):
        find_induced_path(g, k)
    with pytest.raises(TooLarge):
        find_induced_cycle(g, k)


def test_searches_that_need_no_budget_answer():
    # the crown graph on 8 + 8 vertices has no twins and no induced P6, and
    # a P12 search on it may walk 16 * 7 * 6^10 sequences; once a search
    # found it P6-free, longer queries answer before the bound
    g = crown_graph(8)
    with pytest.raises(TooLarge):
        find_induced_path(g, 12)
    assert find_induced_path(g, 6) is None
    assert find_induced_path(g, 12) is None
    assert find_induced_cycle(g, 12) is None
    assert find_induced_path(grid_graph(7), 50) is None  # k beyond n
    # the bound is taken over twin classes: a star's 63 leaves are one
    star = build_ugraph(64, [0] + [1] * 63, [(0, v) for v in range(1, 64)])
    assert find_induced_path(star, 5) is None


def test_witnesses_replay():
    g = path_template(6)
    hit = find_induced_path(g, 4)
    assert hit is not None
    seq = hit.vertices
    for i in range(4):
        for j in range(i + 1, 4):
            assert g.has_edge(seq[i], seq[j]) == (j == i + 1)
    c4 = cycle_template(4)
    cyc = find_induced_cycle(c4, 4)
    assert cyc is not None
    seq = cyc.vertices
    for i in range(4):
        for j in range(i + 1, 4):
            consecutive = j == i + 1 or (i == 0 and j == 3)
            assert c4.has_edge(seq[i], seq[j]) == consecutive


def test_freeness_memo_answers_in_any_order():
    # a graph answers longer path and cycle queries from the least k it was
    # found P_k-free for; every order of the queries must give the answers
    # of a fresh graph
    queries = [(find_induced_path, 4), (find_induced_path, 5), (find_induced_path, 6),
               (find_induced_cycle, 4), (find_induced_cycle, 6)]
    rng = random.Random(3)
    graphs = [underlying(g) for g in ALL_FIXTURES.values()]
    graphs += [path_template(k) for k in range(2, 8)] + [cycle_template(k) for k in (4, 6, 8)]
    for _ in range(12):
        n = rng.randint(4, 10)
        colors = [v % 2 for v in range(n)]
        graphs.append(build_ugraph(n, colors, [
            (u, v) for u in range(n) for v in range(u + 1, n)
            if colors[u] != colors[v] and rng.random() < 0.4]))

    def fresh(g):
        return build_ugraph(g.n, g.colors, g.edges, g.names)

    for g in graphs:
        expected = [find(fresh(g), k) for find, k in queries]
        for order in permutations(range(len(queries))):
            h = fresh(g)
            got = {i: queries[i][0](h, queries[i][1]) for i in order}
            assert [got[i] for i in range(len(queries))] == expected
