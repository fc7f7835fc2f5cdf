import random
from itertools import product

import pytest

import qbmg.bicliques
from helpers import (
    all_bicliques,
    brute_maximal_bicliques,
    connected_bipartite_reps,
    crown_graph,
    is_dominating_set,
    random_nested,
    random_surjective_coloring,
    random_truncation,
    sorted_scan_dominating_biclique,
    subset_walk_maximal_bicliques,
    twin_blow_up,
)
from qbmg.bicliques import (
    find_dominating_biclique,
    maximal_biclique_masks,
    maximal_bicliques,
)
from qbmg.decompose import decompose_type_a, is_type_a
from qbmg.digraph import (
    _twin_representatives,
    build_digraph,
    build_ugraph,
    induced_subdigraph,
    iter_bits,
    underlying,
    weak_components,
)
from qbmg.enumeration import cycle_template
from qbmg.errors import Disconnected, TooLarge
from qbmg.fixtures import EX10
from qbmg.trees import qbmg_from_tree, root_truncation, tree_from_nested


def test_dominating_set_ex10_core():
    u = underlying(EX10)
    assert is_dominating_set(u, range(8))  # v1..v8
    assert is_dominating_set(u, range(10))  # whole vertex set, vacuous
    assert not is_dominating_set(u, {8, 9})  # v9, v10
    with pytest.raises(ValueError, match="vertex 10 out of range"):
        is_dominating_set(u, {0, 10})


def test_maximal_bicliques_k22():
    k22 = build_ugraph(4, (0, 0, 1, 1), [(0, 2), (0, 3), (1, 2), (1, 3)])
    found = maximal_bicliques(k22)
    assert len(found) == 1
    assert found[0].left == {0, 1} and found[0].right == {2, 3}


def test_maximal_bicliques_ex10_contains_core():
    found = maximal_bicliques(underlying(EX10))
    assert any(
        b.left == frozenset({0, 1, 2, 3}) and b.right == frozenset({4, 5, 6, 7})
        for b in found
    )


def test_maximal_bicliques_p3():
    p3 = build_ugraph(3, (0, 1, 0), [(0, 1), (1, 2)])
    found = maximal_bicliques(p3)
    assert len(found) == 1
    assert found[0].left == {0, 2} and found[0].right == {1}


def test_maximal_bicliques_match_brute_force():
    for colors in product((0, 1), repeat=4):
        colors = (0, *colors)
        pairs = [
            (u, v) for u in range(5) for v in range(u + 1, 5) if colors[u] != colors[v]
        ]
        for picks in product((0, 1), repeat=len(pairs)):
            edges = [p for p, on in zip(pairs, picks) if on]
            g = build_ugraph(5, colors, edges)
            got = {(b.left, b.right) for b in maximal_bicliques(g)}
            want = set()
            for ls, rs in brute_maximal_bicliques(g):
                if g.colors[next(iter(ls))] == 0:
                    want.add((ls, rs))
                else:
                    want.add((rs, ls))
            assert got == want


def test_maximal_bicliques_match_brute_force_on_twin_rich_graphs():
    # bipartite bases blown up by false twins on both sides and isolated
    # vertices of both colors, which share the empty mask with each other
    rng = random.Random(16)
    for trial in range(150):
        m = rng.randint(2, 6)
        colors = [rng.randint(0, 1) for _ in range(m)]
        base = [0] * m
        for u in range(m):
            for v in range(u + 1, m):
                if colors[u] != colors[v] and rng.random() < 0.6:
                    base[u] |= 1 << v
                    base[v] |= 1 << u
        n = m + 1 + trial % 6
        adj, colors = twin_blow_up(rng, base, colors, n)
        g = build_ugraph(n, colors, [(u, v) for u in range(n) for v in iter_bits(adj[u]) if u < v])
        side = [sum(1 << v for v in range(n) if colors[v] == c) for c in (0, 1)]
        reps = _twin_representatives(adj, side[0]) | _twin_representatives(adj, side[1])
        got = {(frozenset(iter_bits(lm)), frozenset(iter_bits(rm)))
               for lm, rm in maximal_biclique_masks(adj, side[0], side[1], reps)}
        want = {(ls, rs) if g.colors[min(ls)] == 0 else (rs, ls)
                for ls, rs in brute_maximal_bicliques(g)}
        assert got == want
        assert {(b.left, b.right) for b in maximal_bicliques(g)} == want


def test_maximal_bicliques_keep_isolated_vertices_of_both_colors_apart():
    # the isolated right vertex 0 and the isolated left vertex 1 share the
    # empty mask; one twin class for both would leave vertex 1 out of the
    # closure of the left side and make ({1, 2, 4}, {3}) a concept
    g = build_ugraph(5, (1, 0, 0, 1, 0), [(2, 3), (3, 4)])
    assert [(b.left, b.right) for b in maximal_bicliques(g)] == [({2, 4}, {3})]
    assert not g.is_connected()
    adj, left, right = g.adj_masks, 0b10110, 0b01001
    assert maximal_biclique_masks(adj, left, right, g._twin_reps) == [(0b10110, 0b01000)]
    # once connected, the graph's own twin classes give the same concepts
    h = build_ugraph(5, (1, 0, 0, 1, 0), [(0, 1), (1, 3), (2, 3), (3, 4)])
    per_side = _twin_representatives(h.adj_masks, left) | _twin_representatives(h.adj_masks, right)
    assert h.is_connected() and h._twin_reps == per_side
    assert maximal_biclique_masks(h.adj_masks, left, right, h._twin_reps) == (
        maximal_biclique_masks(h.adj_masks, left, right, per_side))
    assert find_dominating_biclique(h) == sorted_scan_dominating_biclique(h)


def test_maximal_bicliques_are_subset_of_all_bicliques():
    g = underlying(EX10)
    every = {(b.left, b.right) for b in all_bicliques(g)}
    maximal = {(b.left, b.right) for b in maximal_bicliques(g)}
    assert maximal <= every


def test_dominating_biclique_ex10():
    b = find_dominating_biclique(underlying(EX10))
    assert b is not None
    assert b.left == frozenset({0, 1, 2, 3})
    assert b.right == frozenset({4, 5, 6, 7})


def test_dominating_biclique_single_edge():
    g = build_ugraph(2, (0, 1), [(0, 1)])
    b = find_dominating_biclique(g)
    assert b is not None and b.left == {0} and b.right == {1}


def test_dominating_biclique_six_cycle_none():
    assert find_dominating_biclique(cycle_template(6)) is None


def test_dominating_biclique_matches_the_sorted_scan():
    # every connected bipartite graph up to 7 vertices, one per class and
    # both colorings, and the components of seeded tree graphs; a fresh copy
    # of each graph goes to each side, so neither reads what the other kept
    graphs = [g for level in connected_bipartite_reps(7).values() for g in level]
    graphs += [build_ugraph(g.n, [1 - c for c in g.colors], g.edges) for g in graphs]
    rng = random.Random(26)
    for i in range(300):
        tree = tree_from_nested(random_nested(rng, [f"x{j}" for j in range(4 + i % 30)]))
        sigma = random_surjective_coloring(rng, tree.leaves)
        g = qbmg_from_tree(tree, sigma, random_truncation(rng, tree, sigma))
        graphs += [underlying(induced_subdigraph(g, comp)[0]) for comp in weak_components(g)]
    missing = 0
    for g in graphs:
        want = sorted_scan_dominating_biclique(build_ugraph(g.n, g.colors, g.edges))
        assert find_dominating_biclique(build_ugraph(g.n, g.colors, g.edges)) == want
        missing += want is None and g.n > 1
    # 9 of the classes, each under both colorings, have none; every tree
    # graph component has one
    assert missing == 18 and len(graphs) > 1000


def test_dominating_biclique_requires_connected():
    g = build_ugraph(4, (0, 1, 0, 1), [(0, 1), (2, 3)])
    with pytest.raises(Disconnected):
        find_dominating_biclique(g)


def test_dominating_biclique_output_replays():
    for g in (underlying(EX10), build_ugraph(3, (0, 1, 0), [(0, 1), (1, 2)])):
        b = find_dominating_biclique(g)
        assert b is not None
        assert is_dominating_set(g, b.vertices())
        for t in b.left:
            for z in b.right:
                assert g.has_edge(t, z)
        assert all(g.colors[v] == 0 for v in b.left)
        assert all(g.colors[v] == 1 for v in b.right)


def test_biclique_order_deterministic():
    g = underlying(EX10)
    once = [(sorted(b.left), sorted(b.right)) for b in maximal_bicliques(g)]
    twice = [(sorted(b.left), sorted(b.right)) for b in maximal_bicliques(g)]
    assert once == twice
    sizes = [len(l) + len(r) for l, r in once]
    assert sizes == sorted(sizes, reverse=True)


def test_close_by_one_matches_subset_walk_on_sweep(sweep):
    # the underlying graph of every recognized digraph with n <= 6
    seen = set()
    for rec in sweep.records:
        adj = rec.adj
        if (rec.colors, adj) in seen:
            continue
        seen.add((rec.colors, adj))
        edges = [(u, v) for u in range(rec.n) for v in iter_bits(adj[u]) if u < v]
        assert maximal_bicliques(build_ugraph(rec.n, rec.colors, edges)) == (
            subset_walk_maximal_bicliques(build_ugraph(rec.n, rec.colors, edges)))
    assert len(seen) > 1000


def test_close_by_one_matches_subset_walk_up_to_twenty_per_side():
    # the subset walk costs 2^(smaller side), so one graph sits at the old
    # bound of 20 per side and the rest keep the smaller side at most 14
    rng = random.Random(11)
    shapes = [(20, 20)] + [
        (rng.randint(1, 14), rng.randint(1, 20)) for _ in range(80)
    ]
    for a, b in shapes:
        if rng.random() < 0.5:
            a, b = b, a
        density = rng.uniform(0.1, 0.9)
        n = a + b
        colors = [0] * a + [1] * b
        rng.shuffle(colors)
        edges = [
            (u, v) for u in range(n) for v in range(u + 1, n)
            if colors[u] != colors[v] and rng.random() < density
        ]
        got = maximal_bicliques(build_ugraph(n, colors, edges))
        assert got == subset_walk_maximal_bicliques(build_ugraph(n, colors, edges))


def test_maximal_bicliques_past_prisner_bound_is_too_large():
    # the crown graph on 17 + 17 vertices has 2^17 - 2 maximal bicliques,
    # more than 17^4; on 16 + 16 it has 2^16 - 2, within 16^4
    with pytest.raises(TooLarge):
        maximal_bicliques(crown_graph(17))
    assert len(maximal_bicliques(crown_graph(5))) == 2 ** 5 - 2


def test_maximal_bicliques_listed_once_per_graph(monkeypatch):
    calls = []
    kernel = qbmg.bicliques.maximal_biclique_masks
    monkeypatch.setattr(qbmg.bicliques, "maximal_biclique_masks",
                        lambda *args: calls.append(1) or kernel(*args))
    g = build_digraph(EX10.n, EX10.colors, EX10.edges)  # a copy with no views kept yet
    und = underlying(g)
    assert underlying(g) is und
    assert find_dominating_biclique(und) is not None
    assert decompose_type_a(g).parts
    assert len(calls) == 1


def _deep_nested(rng: random.Random, names: list[str]):
    # binary tree whose splits peel off one leaf half the time, so its graph
    # keeps large connected components
    def build(part: list[str]):
        if len(part) == 1:
            return part[0]
        k = rng.randint(1, len(part) - 1) if rng.random() < 0.5 else 1
        return build(part[:k]), build(part[k:])

    rng.shuffle(names)
    return build(names)


@pytest.mark.parametrize("leaves,seed", [(200, 0), (500, 1)])
def test_dominate_and_decompose_at_tree_scale(leaves, seed):
    # the largest components have 200 and 467 vertices, with more than 20
    # on each side, where the subset walk refused to start
    rng = random.Random(seed)
    tree = tree_from_nested(_deep_nested(rng, [f"x{i}" for i in range(leaves)]))
    sigma = random_surjective_coloring(rng, tree.leaves)
    g = qbmg_from_tree(tree, sigma, root_truncation(tree, sigma))
    sub, _ = induced_subdigraph(g, max(weak_components(g), key=len))
    assert min(sub.colors.count(0), sub.colors.count(1)) > 20
    und = underlying(sub)
    b = find_dominating_biclique(und)
    assert b is not None and b.left and b.right
    assert all(und.has_edge(t, z) for t in b.left for z in b.right)
    assert is_dominating_set(und, b.vertices())
    parts = decompose_type_a(sub).parts
    covered = [v for part in parts for v in part]
    assert sorted(covered) == list(range(sub.n))
    assert all(is_type_a(induced_subdigraph(sub, part)[0]) for part in parts)
