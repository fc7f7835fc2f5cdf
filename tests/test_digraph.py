import hashlib
import random

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from helpers import digraph_from_masks, random_surjective_coloring, random_truncation, relabel
from qbmg.digraph import (
    Digraph,
    build_digraph,
    build_ugraph,
    canonical_form,
    canonical_order,
    identity_levels,
    induced_subdigraph,
    underlying,
    weak_components,
)
from qbmg.enumeration import (
    all_bipartite_digraphs,
    classify_all_qbmgs,
    cycle_template,
    orientations_of,
    path_template,
)
from qbmg.errors import DuplicateEdge, LoopEdge, MonochromaticEdge, TooLarge
from qbmg.fixtures import ALL_FIXTURES, C4_1, EX7, EX10, P4_1, P5A, P5AB, P5B, P5B1
from qbmg.orientation import all_orientations, orient
from qbmg.trees import phylogenetic_topologies, qbmg_from_tree, root_truncation, tree_from_nested


def test_build_digraph_p5a_valid():
    g = build_digraph(5, (1, 0, 1, 0, 1), [(0, 1), (2, 1), (2, 3), (3, 4)])
    assert g.edges == P5A.edges
    assert g.names == ("v1", "v2", "v3", "v4", "v5")


def test_build_digraph_rejects_monochromatic():
    with pytest.raises(MonochromaticEdge):
        build_digraph(2, (0, 0), [(0, 1)])


def test_build_digraph_rejects_loop():
    with pytest.raises(LoopEdge):
        build_digraph(3, (0, 1, 0), [(0, 0)])


def test_build_digraph_rejects_duplicate():
    with pytest.raises(DuplicateEdge):
        build_digraph(2, (0, 1), [(0, 1), (0, 1)])


def test_underlying_p5ab_is_path():
    u = underlying(P5AB)
    assert sorted(u.edges) == [(0, 1), (1, 2), (2, 3), (3, 4)]


def test_underlying_edgeless():
    g = build_digraph(3, (0, 1, 0), [])
    assert underlying(g).edges == frozenset()


def test_underlying_collapses_symmetric_pairs():
    u = underlying(C4_1)  # 6 directed edges over a 4-cycle
    assert sorted(u.edges) == [(0, 1), (0, 3), (1, 2), (2, 3)]


def test_induced_ex7_first_five():
    sub, old = induced_subdigraph(EX7, range(5))
    assert old == (0, 1, 2, 3, 4)
    assert sub.edges == frozenset({(4, 3), (1, 0), (2, 3), (2, 1)})
    assert sub.names == ("v1", "v2", "v3", "v4", "v5")


def test_induced_full_set_is_identity():
    sub, old = induced_subdigraph(EX7, range(EX7.n))
    assert sub == EX7
    assert old == tuple(range(EX7.n))


def test_induced_ex10_v9_v10_edgeless():
    sub, _ = induced_subdigraph(EX10, {8, 9})
    assert sub.n == 2 and sub.edges == frozenset()


def test_weak_components_ex10_connected():
    comps = weak_components(EX10)
    assert comps == (frozenset(range(10)),)


def test_weak_components_edgeless():
    g = build_digraph(3, (0, 1, 0), [])
    assert weak_components(g) == (frozenset({0}), frozenset({1}), frozenset({2}))


def test_weak_components_disjoint_union():
    # P5a on ids 0..4 next to P4_1 on ids 5..8
    colors = P5A.colors + P4_1.colors
    edges = list(P5A.edges) + [(u + 5, v + 5) for u, v in P4_1.edges]
    g = build_digraph(9, colors, edges)
    comps = weak_components(g)
    assert [sorted(c) for c in comps] == [[0, 1, 2, 3, 4], [5, 6, 7, 8]]


def test_canonical_form_p5b_plus_edge_is_p5b1():
    g = build_digraph(5, P5B.colors, list(P5B.edges) + [(3, 4)])
    assert canonical_form(g) == canonical_form(P5B1)


def test_canonical_form_distinguishes_p5a_p5b():
    assert canonical_form(P5A) != canonical_form(P5B)


def test_p5_fixture_classes_pairwise_non_isomorphic():
    from qbmg.fixtures import P5_CLASSES

    codes = {name: canonical_form(g).code for name, g in P5_CLASSES.items()}
    assert len(set(codes.values())) == 6


def test_canonical_form_relabel_invariance_fixtures():
    rng = random.Random(0)
    for name, g in ALL_FIXTURES.items():
        base = canonical_form(g).code
        for _ in range(100):
            perm = list(range(g.n))
            rng.shuffle(perm)
            assert canonical_form(relabel(g, perm)).code == base, name


@settings(max_examples=120, deadline=None)
@given(st.data())
def test_canonical_form_relabel_invariance_random(data):
    n = data.draw(st.integers(1, 6))
    colors = tuple(data.draw(st.sampled_from([0, 1])) for _ in range(n))
    edges = []
    for u in range(n):
        for v in range(u + 1, n):
            if colors[u] != colors[v]:
                state = data.draw(st.integers(0, 3))
                if state in (1, 3):
                    edges.append((u, v))
                if state in (2, 3):
                    edges.append((v, u))
    g = build_digraph(n, colors, edges)
    perm = list(data.draw(st.permutations(range(n))))
    assert canonical_form(relabel(g, perm)).code == canonical_form(g).code


def test_canonical_form_codes_pinned_on_fixtures():
    # the codes every fixture had before canonical_order returned its ordering
    digest = hashlib.sha256()
    for name in sorted(ALL_FIXTURES):
        digest.update(f"{name}:{canonical_form(ALL_FIXTURES[name]).code.hex()}\n".encode())
    assert len(ALL_FIXTURES) == 23
    assert digest.hexdigest() == (
        "2aced19238c224de1e574051b6050673ca4772ed24853452d42ee37b4f8c9dfe")


def test_canonical_order_relabels_to_canonical_levels():
    rng = random.Random(6)
    for name, g in ALL_FIXTURES.items():
        levels, order = canonical_order(g.n, g.out_masks, g.in_masks)
        assert sorted(order) == list(range(g.n)), name
        position = [0] * g.n
        for k, v in enumerate(order):
            position[v] = k
        canon = relabel(g, position)
        assert identity_levels(canon) == tuple(levels), name
        # any relabeling reaches the same levels, and none encodes lower
        perm = list(range(g.n))
        rng.shuffle(perm)
        shuffled = relabel(g, perm)
        assert canonical_order(g.n, shuffled.out_masks, shuffled.in_masks)[0] == levels, name
        assert identity_levels(shuffled) >= tuple(levels), name


def test_canonical_form_too_large():
    g = build_digraph(11, tuple(i % 2 for i in range(11)), [])
    with pytest.raises(TooLarge):
        canonical_form(g)


def test_validator_accepts_all_fixtures():
    for g in ALL_FIXTURES.values():
        assert Digraph(n=g.n, colors=g.colors, edges=g.edges, names=g.names) == g


def test_masks_and_symmetric_pairs_match_edges():
    graphs = list(ALL_FIXTURES.values()) + list(all_bipartite_digraphs(4))
    for g in graphs:
        assert g.out_masks == tuple(
            sum(1 << v for v in range(g.n) if (u, v) in g.edges) for u in range(g.n)
        )
        assert g.in_masks == tuple(
            sum(1 << u for u in range(g.n) if (u, v) in g.edges) for v in range(g.n)
        )
        assert g.symmetric_pairs == tuple(
            sorted((u, v) for u, v in g.edges if u < v and (v, u) in g.edges)
        )


@pytest.mark.parametrize("edge", [(0, 3), (3, 0), (-1, 0), (0, -4), (7, 9)])
def test_digraph_rejects_out_of_range_edge(edge):
    with pytest.raises(ValueError, match="out of range"):
        Digraph(n=3, colors=(0, 1, 0), edges=frozenset({edge}), names=("a", "b", "c"))


def test_digraph_rejects_loop_and_monochromatic_edge():
    names = ("a", "b", "c")
    with pytest.raises(LoopEdge, match="loop at vertex b"):
        Digraph(n=3, colors=(0, 1, 0), edges=frozenset({(1, 1)}), names=names)
    with pytest.raises(MonochromaticEdge, match="edge c -> a joins"):
        Digraph(n=3, colors=(0, 1, 0), edges=frozenset({(2, 0)}), names=names)


def test_underlying_commutes_with_induced_small_exhaustive():
    # all bipartite digraphs on at most 4 vertices, every vertex subset
    for n in range(1, 5):
        for g in all_bipartite_digraphs(n):
            und = underlying(g)
            for mask in range(1 << n):
                subset = [v for v in range(n) if mask >> v & 1]
                sub_d, _ = induced_subdigraph(g, subset)
                sub_u, _ = und.induced(subset)
                assert underlying(sub_d) == sub_u


def test_underlying_commutes_with_induced_n5_exhaustive():
    # n = 5 layer of the same invariant; color-swapped twins skipped (both
    # sides of the equality swap consistently)
    for g in all_bipartite_digraphs(5):
        if g.colors[0] == 1:
            continue
        und = underlying(g)
        for mask in range(1 << 5):
            subset = [v for v in range(5) if mask >> v & 1]
            sub_d, _ = induced_subdigraph(g, subset)
            sub_u, _ = und.induced(subset)
            assert underlying(sub_d) == sub_u


def test_ugraph_rejects_bad_edges():
    with pytest.raises(MonochromaticEdge):
        build_ugraph(2, (1, 1), [(0, 1)])
    with pytest.raises(LoopEdge):
        build_ugraph(2, (0, 1), [(1, 1)])
    with pytest.raises(DuplicateEdge):
        build_ugraph(2, (0, 1), [(0, 1), (1, 0)])


def _assert_validated(g) -> None:
    """g equals, and hashes as, its rebuild through the validating
    constructor, with the same edges and masks."""
    ref = type(g)(n=g.n, colors=g.colors, edges=g.edges, names=g.names)
    assert g == ref and hash(g) == hash(ref)
    assert g.edges == ref.edges
    assert g.adj_masks == ref.adj_masks
    if isinstance(g, Digraph):
        assert (g.out_masks, g.in_masks) == (ref.out_masks, ref.in_masks)
        assert g.symmetric_pairs == ref.symmetric_pairs


def test_mask_built_graphs_equal_validated_rebuilds(sweep):
    for rec in sweep.by_n(1, 2, 3, 4, 5):
        g = digraph_from_masks(rec.n, rec.out, rec.colors)
        und = underlying(g)
        _assert_validated(und)
        # the whole vertex set and every set missing one vertex
        for subset in [range(rec.n)] + [
            [v for v in range(rec.n) if v != gone] for gone in range(rec.n)
        ]:
            sub, old = induced_subdigraph(g, subset)
            _assert_validated(sub)
            index = {v: i for i, v in enumerate(old)}
            assert sub.edges == {
                (index[u], index[v]) for u, v in g.edges if u in index and v in index
            }
            _assert_validated(und.induced(subset)[0])
        oriented = orient(g)
        _assert_validated(oriented)
        assert oriented.edges == g.edges - {(v, u) for u, v in g.symmetric_pairs}
        for variant in all_orientations(g):
            _assert_validated(variant)
    # the exhaustive families, also built from masks
    for g in [
        *(g for n in range(5) for g in all_bipartite_digraphs(n)),
        *orientations_of(path_template(5)),
        *orientations_of(cycle_template(4)),
        *(rep for n in range(6) for _, rep in classify_all_qbmgs(n).classes),
    ]:
        _assert_validated(g)
    rng = random.Random(5)
    for leaves in range(2, 6):
        for nested in phylogenetic_topologies("abcde"[:leaves]):
            tree = tree_from_nested(nested)
            sigma = random_surjective_coloring(rng, tree.leaves)
            for u in (root_truncation(tree, sigma), random_truncation(rng, tree, sigma)):
                _assert_validated(qbmg_from_tree(tree, sigma, u))
