import hashlib
import random

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

import qbmg.trees as trees
from helpers import (
    caterpillar_newick,
    digraph_from_masks,
    format_newick,
    naive_best_match_graph,
    naive_is_qbmg,
    random_nested,
    random_surjective_coloring,
    random_truncation,
)
from qbmg.axioms import recognize
from qbmg.digraph import Digraph, build_digraph
from qbmg.enumeration import all_bipartite_digraphs
from qbmg.errors import (
    InvalidTruncation,
    NotPhylogenetic,
    NotSurjective,
    ParseError,
    TooLarge,
)
from qbmg.fixtures import P5AB, R4
from qbmg.trees import (
    best_match_graph,
    lca,
    parse_tree,
    phylogenetic_topologies,
    qbmg_from_tree,
    root_truncation,
    _search_topologies,
    search_explanation,
    tree_from_nested,
    validate_truncation,
)


def test_parse_tree_basic():
    t, sigma = parse_tree("((a=0,b=1),c=1);")
    assert t.size == 5
    assert sorted(t.names[v] for v in t.leaves) == ["a", "b", "c"]
    assert sigma[t.leaf_by_name("a")] == 0
    assert sigma[t.leaf_by_name("c")] == 1


def test_parse_tree_rejects_unary_node():
    with pytest.raises(NotPhylogenetic):
        parse_tree("((a=0),b=1);")


def test_parse_tree_rejects_single_color():
    with pytest.raises(NotSurjective):
        parse_tree("(a=0,b=0);")


def test_parse_tree_error_positions():
    with pytest.raises(ParseError) as info:
        parse_tree("((a=0,b=1),c=2);")
    assert info.value.column is not None
    with pytest.raises(ParseError):
        parse_tree("(a=0,b=1)")  # missing semicolon
    with pytest.raises(ParseError):
        parse_tree("(a=0,b=1); junk")


def test_tree_from_nested_numbers_nodes_in_preorder():
    t = tree_from_nested((("a", "b"), "c", ("d", ("e", "f"))))
    assert t.parent == (None, 0, 1, 1, 0, 0, 5, 5, 7, 7)
    assert t.children[0] == (1, 4, 5)
    assert t.names == (None, None, "a", "b", "c", None, "d", None, "e", "f")


def test_parse_tree_deep_caterpillar():
    n = 1200
    t, sigma = parse_tree(caterpillar_newick([1] + [0] * (n - 1)))
    assert len(t.leaves) == n
    assert max(t.depth) == n - 1
    assert [t.names[v] for v in t.leaves] == [f"x{i}" for i in range(1, n + 1)]
    assert sigma[t.leaf_by_name("x1")] == 1
    assert sum(sigma.values()) == 1


def test_parse_tree_deep_single_child_nest():
    with pytest.raises(NotPhylogenetic):
        parse_tree("(" * 3000 + "a=0" + ")" * 3000 + ";")
    with pytest.raises(ParseError) as info:
        parse_tree("(" * 3000 + "a=0;")
    assert str(info.value).startswith("expected ',' or ')'")


def test_lca_examples():
    t, _ = parse_tree("((a=0,b=1),c=1);")
    a, b, c = (t.leaf_by_name(x) for x in "abc")
    inner = t.parent[a]
    assert lca(t, a, b) == inner
    assert lca(t, a, c) == 0
    assert lca(t, a, a) == a


def test_best_match_graph_three_leaves():
    t, sigma = parse_tree("((a=0,b=1),c=1);")
    g = best_match_graph(t, sigma)
    assert g.named_edges() == {("a", "b"), ("b", "a"), ("c", "a")}


def test_best_match_graph_two_leaves():
    t, sigma = parse_tree("(a=0,b=1);")
    g = best_match_graph(t, sigma)
    assert g.named_edges() == {("a", "b"), ("b", "a")}


def test_best_match_graph_star_tree():
    t, sigma = parse_tree("(a=0,b=0,c=1,d=1);")
    g = best_match_graph(t, sigma)
    assert g.named_edges() == {
        ("a", "c"), ("a", "d"), ("b", "c"), ("b", "d"),
        ("c", "a"), ("c", "b"), ("d", "a"), ("d", "b"),
    }


def test_best_match_graph_rejects_single_color():
    t = tree_from_nested(("v2", "v4"))
    with pytest.raises(NotSurjective):
        best_match_graph(t, {leaf: 0 for leaf in t.leaves})


def test_qbmg_root_truncation_equals_bmg():
    t, sigma = parse_tree("((a=0,b=1),c=1);")
    u = root_truncation(t, sigma)
    assert qbmg_from_tree(t, sigma, u) == best_match_graph(t, sigma)


def test_qbmg_sink_truncation_removes_out_edges():
    t, sigma = parse_tree("((a=0,b=1),c=1);")
    u = root_truncation(t, sigma)
    u[(t.leaf_by_name("c"), 0)] = t.leaf_by_name("c")
    g = qbmg_from_tree(t, sigma, u)
    assert g.named_edges() == {("a", "b"), ("b", "a")}


def test_truncation_validation():
    t, sigma = parse_tree("((a=0,b=1),c=1);")
    a = t.leaf_by_name("a")
    c = t.leaf_by_name("c")
    u = root_truncation(t, sigma)
    u[(a, 1)] = c  # c is not on the root path of a
    with pytest.raises(InvalidTruncation):
        validate_truncation(t, sigma, u)
    u = root_truncation(t, sigma)
    u[(a, 0)] = 0  # own color must stay at the leaf
    with pytest.raises(InvalidTruncation):
        validate_truncation(t, sigma, u)
    u = root_truncation(t, sigma)
    del u[(a, 1)]
    with pytest.raises(InvalidTruncation):
        validate_truncation(t, sigma, u)


def test_topology_counts():
    assert sum(1 for _ in phylogenetic_topologies(["a", "b"])) == 1
    assert sum(1 for _ in phylogenetic_topologies(["a", "b", "c"])) == 4
    assert sum(1 for _ in phylogenetic_topologies(list("abcd"))) == 26
    # the order is pinned too: the search returns the first topology that fits
    pinned = {
        5: (236, "4c0774c9f683b1c40189895fdba688067d9c295210316bbff5960ed1c8f482d9"),
        6: (2_752, "45b8513595c6157ac396169e2835c34198e00fb482bf3090c0a3a02619413e2e"),
    }
    for k, (count, digest) in pinned.items():
        topologies = list(phylogenetic_topologies([f"v{i}" for i in range(1, k + 1)]))
        assert len(topologies) == count
        assert hashlib.sha256(repr(topologies).encode()).hexdigest() == digest


def test_search_explanation_p5ab():
    witness = search_explanation(P5AB, 5)
    assert witness is not None
    tree, sigma, trunc = witness
    replay = qbmg_from_tree(tree, sigma, trunc)
    assert replay.named_edges() == P5AB.named_edges()
    # the reciprocal fixture needs no truncation below any best-match join
    assert recognize(replay).is_bmg


def test_search_explanation_r4():
    witness = search_explanation(R4, 5)
    assert witness is not None
    tree, sigma, trunc = witness
    replay = qbmg_from_tree(tree, sigma, trunc)
    assert replay.named_edges() == R4.named_edges()


def test_search_explanation_budget():
    with pytest.raises(TooLarge):
        search_explanation(P5AB, 7)
    g = build_digraph(6, (0, 1) * 3, [])
    with pytest.raises(TooLarge):
        search_explanation(g, 5)


def test_search_explanation_monochromatic_none():
    g = build_digraph(2, (0, 0), [])
    assert search_explanation(g, 2) is None


def _replays(g: Digraph, result) -> bool:
    h = qbmg_from_tree(*result)
    return h.named_edges() == g.named_edges() and dict(zip(h.names, h.colors)) == dict(
        zip(g.names, g.colors)
    )


def test_search_explanation_gate_is_sound_n4():
    # exhaustive explainability equals recognition with both colors, so
    # rejecting by recognition loses no explainable graph
    explained = 0
    digest = hashlib.sha256()
    for n in range(1, 5):
        for g in all_bipartite_digraphs(n):
            two_colored = set(g.colors) == {0, 1}
            expected = two_colored and recognize(g).is_qbmg
            walked = _search_topologies(g) if two_colored else None
            result = search_explanation(g, 4)
            assert (walked is not None) == expected
            assert (result is not None) == expected
            for found in (walked, result):
                shape = None
                if found is not None:
                    assert _replays(g, found)
                    tree, sigma, trunc = found
                    # a leaf keeps its whole best-match bundle or none of it
                    for x in tree.leaves:
                        sink = not g.out_masks[g.id_of(tree.names[x])]
                        assert trunc[(x, 1 - sigma[x])] == (x if sink else 0)
                    shape = (tree.parent, tree.names, sorted(sigma.items()))
                digest.update(f"{shape!r}\n".encode())
            explained += expected
    assert explained == 1492
    # the trees and colorings found are pinned
    assert digest.hexdigest() == (
        "8b79199b4a282a5190fdb80b1b10702842fc1ddd98a1088087970d98e1638279"
    )


def test_build_replay_alone_rejects_sink_free_non_qbmgs(monkeypatch):
    # with recognition bypassed, BUILD is consistent on some sink-free
    # non-qBMGs; the check of its tree must send them on to the exhaustive search
    monkeypatch.setattr(trees, "is_qbmg_masks", lambda n, out, inn: True)
    consistent = 0
    for n in range(2, 5):
        for g in all_bipartite_digraphs(n):
            if not all(g.out_masks):
                continue
            result = search_explanation(g, 4)
            assert (result is not None) == recognize(g).is_qbmg
            assert result is None or _replays(g, result)
            consistent += result is None and trees._build_informative(g) is not None
    assert consistent > 0


def test_search_explanation_builds_every_sink_free_sweep_graph(sweep, monkeypatch):
    def walk(g):
        raise AssertionError(f"topology search entered for {sorted(g.edges)}")

    monkeypatch.setattr(trees, "_search_topologies", walk)
    built = 0
    for rec in sweep.records:
        if not all(rec.out):
            continue
        g = digraph_from_masks(rec.n, rec.out, rec.colors)
        tree, sigma, trunc = search_explanation(g, 6)
        assert trunc == root_truncation(tree, sigma)
        assert _replays(g, (tree, sigma, trunc))
        built += 1
    assert built == 18288


def test_search_explanation_rejects_non_qbmg_without_topologies(monkeypatch):
    rng = random.Random(2)
    while True:
        colors = [rng.randrange(2) for _ in range(6)]
        edges = [(a, b) for a in range(6) for b in range(6)
                 if colors[a] != colors[b] and rng.random() < 0.5]
        g = build_digraph(6, colors, edges)
        if set(colors) == {0, 1} and not naive_is_qbmg(g):
            break

    def walk(names):
        raise AssertionError("topology walked for a graph failing recognition")

    monkeypatch.setattr(trees, "phylogenetic_topologies", walk)
    assert search_explanation(g, 6) is None


def test_random_trees_explain_recognized_graphs():
    rng = random.Random(7)
    names = [f"t{i}" for i in range(1, 9)]
    for _ in range(150):
        size = rng.randint(2, len(names))
        tree = tree_from_nested(random_nested(rng, names[:size]))
        sigma = random_surjective_coloring(rng, tree.leaves)
        u = random_truncation(rng, tree, sigma)
        g = qbmg_from_tree(tree, sigma, u)
        rep = recognize(g)
        assert rep.is_qbmg
        bmg = naive_best_match_graph(tree, sigma)
        assert g.edges <= bmg.edges
        root_u = root_truncation(tree, sigma)
        full = qbmg_from_tree(tree, sigma, root_u)
        assert full == bmg
        assert recognize(full).is_bmg


def test_qbmg_from_tree_matches_naive_construction():
    rng = random.Random(11)
    names = [f"t{i}" for i in range(1, 17)]
    for trial in range(300):
        size = 2 + trial % 15
        tree = tree_from_nested(random_nested(rng, names[:size]))
        sigma = random_surjective_coloring(rng, tree.leaves)
        u = random_truncation(rng, tree, sigma)
        assert qbmg_from_tree(tree, sigma, u) == naive_best_match_graph(tree, sigma, u)
        assert best_match_graph(tree, sigma) == naive_best_match_graph(tree, sigma)


def test_qbmg_from_tree_rejects_repeated_leaf_names():
    tree = tree_from_nested((("a", "b"), "a"))
    sigma = dict(zip(tree.leaves, (0, 1, 1)))
    with pytest.raises(ValueError, match="unique"):
        qbmg_from_tree(tree, sigma, root_truncation(tree, sigma))


# the characters a leaf name may use in parse_tree's Newick subset
LEAF_NAME_CHARS = "ABCDEFGHIJKLMNOPQRSTUVWXYZabcdefghijklmnopqrstuvwxyz0123456789_.+-"


@settings(max_examples=200, deadline=None)
@given(st.data())
def test_newick_round_trip(data):
    names = data.draw(st.lists(
        st.text(LEAF_NAME_CHARS, min_size=1, max_size=4), min_size=2, max_size=12, unique=True))
    nested = random_nested(random.Random(data.draw(st.integers(0, 2**32))), names)
    k = len(names)
    both = st.lists(st.integers(0, 1), min_size=k, max_size=k).filter(lambda c: len(set(c)) == 2)
    colors = dict(zip(names, data.draw(both)))
    text = format_newick(nested, colors, lambda: data.draw(st.text(" \t\r\n", max_size=2)))
    tree, sigma = parse_tree(text)
    assert tree == tree_from_nested(nested)
    assert {tree.names[leaf]: color for leaf, color in sigma.items()} == colors
