import hashlib
import random
from collections import Counter
from itertools import product

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

import qbmg.trees as trees
from helpers import (
    build_informative,
    caterpillar_newick,
    children,
    digraph_from_masks,
    format_newick,
    naive_best_match_graph,
    naive_is_qbmg,
    random_nested,
    random_surjective_coloring,
    random_truncation,
)
from qbmg.axioms import is_qbmg_masks, recognize
from qbmg.digraph import Digraph, build_digraph, iter_bits, weak_components
from qbmg.enumeration import all_bipartite_digraphs, classify_all_qbmgs, run_mask_sweep
from qbmg.errors import (
    InvalidTruncation,
    NotPhylogenetic,
    NotSurjective,
    ParseError,
    TooLarge,
)
from qbmg.fixtures import P5AB, R4
from qbmg.trees import (
    EXPLAIN_MAX_LEAVES,
    PhyloTree,
    best_match_graph,
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
    assert {t.names[x]: sigma[x] for x in t.leaves} == {"a": 0, "b": 1, "c": 1}


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
    assert children(t)[0] == (1, 4, 5)
    assert t.names == (None, None, "a", "b", "c", None, "d", None, "e", "f")


def test_children_are_read_off_the_parent_array():
    rng = random.Random(18)
    for size in range(1, 16):
        nested = random_nested(rng, [f"x{i}" for i in range(size)])
        # child lists of the nested tuples, under preorder ids
        kids: list[tuple[int, ...]] = []

        def number(node) -> int:
            idx = len(kids)
            kids.append(())
            if not isinstance(node, str):
                kids[idx] = tuple(number(child) for child in node)
            return idx

        number(nested)
        assert children(tree_from_nested(nested)) == tuple(kids)


def test_tree_checks_parent_against_names():
    with pytest.raises(ValueError, match="parent and names must align"):
        PhyloTree((None, 0, 0), (None, "a"))
    with pytest.raises(ValueError, match="empty tree"):
        PhyloTree((), ())
    with pytest.raises(ValueError, match="node 0 must be the root"):
        PhyloTree((1, None), ("a", "b"))
    with pytest.raises(ValueError, match="leaf 2 has no name"):
        PhyloTree((None, 0, 0), (None, "a", None))
    with pytest.raises(ValueError, match="internal node 0 must not carry a name"):
        PhyloTree((None, 0, 0), ("r", "a", "b"))
    t = PhyloTree((None, 0, 1, 1, 0), (None, None, "a", "b", "c"))
    assert children(t) == ((1, 4), (2, 3), (), (), ())
    assert t.leaves == (2, 3, 4)


def test_tree_stores_any_sequences_as_tuples():
    t = PhyloTree([None, 0, 0], [None, "a", "b"])
    assert type(t.parent) is tuple and type(t.names) is tuple
    assert t == tree_from_nested(("a", "b")) and hash(t) == hash(tree_from_nested(("a", "b")))


def test_tree_rejects_parent_array_out_of_preorder():
    # the same tree under breadth-first ids: leaf 2 hangs off the root
    # before the children of node 1
    with pytest.raises(ValueError, match="nodes must be in preorder"):
        PhyloTree((None, 0, 0, 1, 1), (None, None, "a", "b", "c"))


def test_truncation_accepts_exactly_the_root_path_nodes():
    # validate_truncation reads ancestry off preorder id ranges; each
    # (leaf, opposite color) entry is tried at every node id and just past
    # both ends, against the root path walked up the parent array
    rng = random.Random(43)
    for size in range(2, 20):
        t = tree_from_nested(random_nested(rng, [f"x{i}" for i in range(size)]))
        sigma = random_surjective_coloring(rng, t.leaves)
        for x in t.leaves:
            on_path = t.root_path(x)
            for a in range(-1, t.size + 1):
                u = root_truncation(t, sigma)
                u[(x, 1 - sigma[x])] = a
                if a in on_path:
                    validate_truncation(t, sigma, u)
                else:
                    with pytest.raises(InvalidTruncation):
                        validate_truncation(t, sigma, u)


def test_parse_tree_deep_caterpillar():
    n = 1200
    t, sigma = parse_tree(caterpillar_newick([1] + [0] * (n - 1)))
    assert len(t.leaves) == n
    assert max(len(t.root_path(x)) for x in t.leaves) == n
    assert [t.names[v] for v in t.leaves] == [f"x{i}" for i in range(1, n + 1)]
    assert sigma[t.leaves[0]] == 1
    assert sum(sigma.values()) == 1


def test_parse_tree_deep_single_child_nest():
    with pytest.raises(NotPhylogenetic):
        parse_tree("(" * 3000 + "a=0" + ")" * 3000 + ";")
    with pytest.raises(ParseError) as info:
        parse_tree("(" * 3000 + "a=0;")
    assert str(info.value).startswith("expected ',' or ')'")


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
    # node 0 is the root, not a leaf
    with pytest.raises(ValueError, match="cover exactly the leaves"):
        best_match_graph(t, {t.leaves[0]: 0, t.leaves[1]: 1, 0: 1})


def test_qbmg_root_truncation_equals_bmg():
    t, sigma = parse_tree("((a=0,b=1),c=1);")
    u = root_truncation(t, sigma)
    assert qbmg_from_tree(t, sigma, u) == best_match_graph(t, sigma)


def test_qbmg_sink_truncation_removes_out_edges():
    t, sigma = parse_tree("((a=0,b=1),c=1);")
    u = root_truncation(t, sigma)
    c = {t.names[x]: x for x in t.leaves}["c"]
    u[(c, 0)] = c
    g = qbmg_from_tree(t, sigma, u)
    assert g.named_edges() == {("a", "b"), ("b", "a")}


def test_truncation_validation():
    t, sigma = parse_tree("((a=0,b=1),c=1);")
    leaf = {t.names[x]: x for x in t.leaves}
    a, c = leaf["a"], leaf["c"]
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


def test_topologies_too_large():
    with pytest.raises(TooLarge):
        next(phylogenetic_topologies([f"v{i}" for i in range(EXPLAIN_MAX_LEAVES + 1)]))


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


def test_search_explanation_budget(monkeypatch):
    # a sink-free graph is decided by BUILD, and a one-colored graph has no
    # explanation, whatever the budget
    for budget in (4, 7):
        tree, sigma, trunc = search_explanation(P5AB, budget)
        assert qbmg_from_tree(tree, sigma, trunc).named_edges() == P5AB.named_edges()
    assert search_explanation(build_digraph(7, (0,) * 7, []), 5) is None

    def gate(*args):
        raise AssertionError("recognition gate ran before the budget check")

    monkeypatch.setattr(trees, "is_qbmg_masks", gate)
    g = build_digraph(6, (0, 1) * 3, [])
    with pytest.raises(TooLarge):
        search_explanation(g, 5)
    g = build_digraph(7, (0, 1) * 3 + (0,), [])
    with pytest.raises(TooLarge):
        search_explanation(g, 7)


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
                        sink = not g.out_masks[g.names.index(tree.names[x])]
                        assert trunc[(x, 1 - sigma[x])] == (x if sink else 0)
                    shape = (tree.parent, tree.names, sorted(sigma.items()))
                digest.update(f"{shape!r}\n".encode())
            explained += expected
    assert explained == 1492
    # the trees and colorings found are pinned
    assert digest.hexdigest() == (
        "8b79199b4a282a5190fdb80b1b10702842fc1ddd98a1088087970d98e1638279"
    )


def test_build_replay_alone_rejects_sink_free_non_qbmgs():
    # a sink-free graph skips the recognition gate, and BUILD is consistent
    # on some sink-free non-qBMGs; the replay of its tree must reject them
    consistent = 0
    for n in range(2, 5):
        for g in all_bipartite_digraphs(n):
            if not all(g.out_masks):
                continue
            result = search_explanation(g, 4)
            assert (result is not None) == recognize(g).is_qbmg
            assert result is None or _replays(g, result)
            consistent += result is None and build_informative(g) is not None
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
        # BUILD's tree skips the constructor's checks; it must pass them
        checked = PhyloTree(tree.parent, tree.names)
        assert checked == tree and checked.leaves == tree.leaves
        assert trunc == root_truncation(tree, sigma)
        assert _replays(g, (tree, sigma, trunc))
        built += 1
    assert built == 18288


def test_build_explains_every_sink_free_class_under_every_coloring():
    # a sink-free recognized graph is a best-match graph, so its BUILD tree
    # explains it under root truncation; search_explanation has no other
    # path for it.  Every valid coloring of a class is some flip of its
    # components, and each component of a sink-free graph holds both colors.
    # The nested BUILD of the helpers is the oracle for the library's tree.
    built = 0
    for n in range(2, EXPLAIN_MAX_LEAVES + 1):
        for _, rep in classify_all_qbmgs(n).classes:
            if not all(rep.out_masks):
                continue
            comps = weak_components(rep)
            for flips in product((0, 1), repeat=len(comps)):
                colors = list(rep.colors)
                for flip, comp in zip(flips, comps):
                    for v in comp:
                        colors[v] ^= flip
                g = Digraph(n, tuple(colors), rep.edges, rep.names)
                nested = build_informative(g)
                assert nested is not None, (sorted(g.edges), colors)
                tree = tree_from_nested(nested)
                sigma = {x: g.colors[g.names.index(tree.names[x])] for x in tree.leaves}
                found = (tree, sigma, root_truncation(tree, sigma))
                assert _replays(g, found)
                assert search_explanation(g, n) == found
                built += 1
    assert built == 230


def test_build_tree_matches_the_nested_oracle_under_shuffled_names():
    # BUILD renumbers the vertices by name, so names out of vertex order
    # must still give the children in order of least leaf name
    rng = random.Random(28)
    checked = shuffled = 0
    for n in range(2, EXPLAIN_MAX_LEAVES + 1):
        for _, rep in classify_all_qbmgs(n).classes:
            if not all(rep.out_masks):
                continue
            names = rng.sample([f"x{i}" for i in range(n)], n)
            g = Digraph(n, rep.colors, rep.edges, tuple(names))
            tree = tree_from_nested(build_informative(g))
            sigma = {x: g.colors[g.names.index(tree.names[x])] for x in tree.leaves}
            assert search_explanation(g, n) == (tree, sigma, root_truncation(tree, sigma))
            checked += 1
            shuffled += names != sorted(names)
    assert (checked, shuffled) == (99, 96)


def _sink_free_tree_graphs(rng: random.Random, count: int):
    """Best-match graphs of random trees with 7 to 40 leaves; a surjective
    coloring gives every leaf a best match, so none has a sink."""
    names = [f"t{i}" for i in range(1, 41)]
    for _ in range(count):
        tree = tree_from_nested(random_nested(rng, names[:rng.randint(7, 40)]))
        yield best_match_graph(tree, random_surjective_coloring(rng, tree.leaves))


def test_search_explanation_builds_sink_free_tree_graphs_past_the_leaf_budget():
    built = 0
    for g in _sink_free_tree_graphs(random.Random(29), 300):
        assert g.n > EXPLAIN_MAX_LEAVES and all(g.out_masks)
        result = search_explanation(g, EXPLAIN_MAX_LEAVES)
        assert result is not None and _replays(g, result)
        built += 1
    assert built == 300


def test_search_explanation_decides_sink_free_graphs_past_the_leaf_budget():
    # each best-match graph with one opposite-color pair toggled where its
    # tail keeps an out-neighbor, and a random sink-free graph of that size
    rng = random.Random(30)
    verdicts = Counter()
    for bmg in _sink_free_tree_graphs(rng, 150):
        n, colors = bmg.n, bmg.colors
        out = list(bmg.out_masks)
        x = rng.randrange(n)
        y = rng.choice([v for v in range(n) if colors[v] != colors[x]])
        if out[x] != 1 << y:
            out[x] ^= 1 << y
        others = [sum(1 << v for v in range(n) if colors[v] != colors[u]) for u in range(n)]
        wild = [0] * n
        for u in range(n):
            while not wild[u]:
                wild[u] = rng.getrandbits(n) & others[u]
        for masks in (bmg.out_masks, out, wild):
            g = digraph_from_masks(n, tuple(masks), colors)
            assert set(colors) == {0, 1} and all(g.out_masks)
            result = search_explanation(g, EXPLAIN_MAX_LEAVES)
            verdict = is_qbmg_masks(n, g.out_masks, g.in_masks)
            assert (result is not None) == verdict
            assert result is None or _replays(g, result)
            verdicts[verdict] += 1
    # the 150 best-match graphs and 23 of the others are recognized
    assert verdicts == {True: 173, False: 277}


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


def _answer(result) -> str:
    if result is None:
        return "None"
    tree, sigma, trunc = result
    return f"{tree.parent} {tree.names} {tree.leaves} {sorted(sigma.items())} {sorted(trunc.items())}"


def test_sink_free_explanations_pinned():
    # every sink-free two-colored graph with n <= 5 (vertex 0 colored 0,
    # one coloring per complement pair), then seeded best-match graphs with
    # 40, 150 and 400 leaves, every third with one opposite-color arc
    # toggled where its tail keeps an out-neighbor.  The digest was taken
    # while BUILD built the whole tree before its best matches were checked
    digest = hashlib.sha256()
    explained = rejected = 0
    for n in range(2, 6):
        for g in all_bipartite_digraphs(n):
            if g.colors[0] or 1 not in g.colors or not all(g.out_masks):
                continue
            result = search_explanation(g, n)
            digest.update(f"{g.colors} {g.out_masks}: {_answer(result)}\n".encode())
            explained += result is not None
            rejected += result is None
    assert (explained, rejected) == (1220, 12366)
    rng = random.Random(31)
    for i in range(18):
        leaves = (40, 150, 400)[i % 3]
        tree = tree_from_nested(random_nested(rng, [f"t{j}" for j in range(leaves)]))
        g = best_match_graph(tree, random_surjective_coloring(rng, tree.leaves))
        out = list(g.out_masks)
        if i % 3 == 2:
            x = rng.randrange(g.n)
            y = rng.choice([v for v in range(g.n) if g.colors[v] != g.colors[x]])
            if out[x] != 1 << y:
                out[x] ^= 1 << y
        g = digraph_from_masks(g.n, tuple(out), g.colors)
        result = search_explanation(g, EXPLAIN_MAX_LEAVES)
        assert (result is not None) == is_qbmg_masks(g.n, g.out_masks, g.in_masks)
        digest.update(f"{g.colors} {g.out_masks}: {_answer(result)}\n".encode())
    assert digest.hexdigest() == (
        "baf963bd449a6e6985aee84eaa1e44aed57e5503e53808cedc55f7acfd1b35f2")


def test_best_match_mismatch_below_the_root_split():
    # BUILD succeeds on this graph, with cherries v1 v4 and v2 v3, but v2's
    # best match is v3 alone while v2 -> v4 as well.  The mismatch shows at
    # the split of v2 v3's cherry.  None can show at the root's split: a
    # component there without the other color holds only leaves with no
    # spare, and these point to every vertex of the other color
    g = build_digraph(4, (0, 0, 1, 1), [(0, 3), (1, 2), (1, 3), (2, 1), (3, 0)])
    assert build_informative(g) == (("v1", "v4"), ("v2", "v3"))
    assert not naive_is_qbmg(g)
    assert search_explanation(g, 4) is None


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


def _out_by_name(tree: PhyloTree, g: Digraph) -> tuple[int, ...]:
    """The out-masks of g, built on tree's leaves, with leaf xk as vertex k."""
    at = [int(tree.names[leaf][1:]) for leaf in tree.leaves]
    out = [0] * len(at)
    for i, row in enumerate(g.out_masks):
        for j in iter_bits(row):
            out[at[i]] |= 1 << at[j]
    return tuple(out)


def test_tree_images_are_the_recognized_two_colored_graphs_n5():
    # the characterization both ways: a labeled two-colored digraph is built
    # by some (tree, coloring, truncation map) iff it is recognized.  A
    # truncation keeps a leaf's whole best-match bundle or none of it, so
    # the images are the best-match graphs with any subset of leaves keeping
    # their out-edges; at n <= 4 every truncation map is walked as well,
    # which checks that reduction
    counts = []
    for n in range(2, 6):
        two_colored = [c for c in product((0, 1), repeat=n) if len(set(c)) == 2]
        images = set()
        for nested in phylogenetic_topologies([f"x{i}" for i in range(n)]):
            tree = tree_from_nested(nested)
            for colors in two_colored:
                sigma = {leaf: colors[int(tree.names[leaf][1:])] for leaf in tree.leaves}
                out = _out_by_name(tree, naive_best_match_graph(tree, sigma))
                kept = {tuple(row if keep >> v & 1 else 0 for v, row in enumerate(out))
                        for keep in range(1 << n)}
                if n <= 4:
                    truncated = set()
                    for gates in product(*map(tree.root_path, tree.leaves)):
                        u = {(x, sigma[x]): x for x in tree.leaves}
                        u.update({(x, 1 - sigma[x]): a for x, a in zip(tree.leaves, gates)})
                        truncated.add(_out_by_name(tree, naive_best_match_graph(tree, sigma, u)))
                    assert truncated == kept, (nested, colors)
                images.update((colors, rows) for rows in kept)
        recognized = set()
        for colors in two_colored:

            def visit(out, inn, colors=colors):
                if is_qbmg_masks(n, out, inn):
                    recognized.add((colors, tuple(out)))

            run_mask_sweep(colors, visit)
        assert images == recognized, n
        # the two edgeless one-color graphs are the rest of the filtered count
        assert len(images) + 2 == classify_all_qbmgs(n).total_filtered
        counts.append(len(images))
    assert counts == [8, 96, 1388, 25800]


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
