import random

import pytest

from helpers import naive_topological_order, pruned_mask_sweep
from qbmg.axioms import is_qbmg_masks, recognize
from qbmg.bicliques import Biclique
from qbmg.digraph import (
    Digraph,
    build_digraph,
    induced_subdigraph,
    iter_bits,
    underlying,
)
from qbmg.enumeration import all_bipartite_digraphs, halved_colorings
from qbmg.errors import NotBiclique, NotOriented, TooLarge
from qbmg.fixtures import ALL_FIXTURES, EX10, P5A, P5AB
from qbmg.orientation import (
    ORIENT_MAX_PAIRS,
    all_orientations,
    bitournament_report,
    orient,
    oriented_biclique_subdigraph,
    star_conditions,
    topological_order,
)


def test_star_conditions_p5ab():
    sc = star_conditions(P5AB)
    assert sc.symmetric_pairs == ((0, 1), (3, 4))
    assert sc.star and sc.starstar


def test_star_conditions_p5a():
    sc = star_conditions(P5A)
    assert sc.symmetric_pairs == ()
    assert sc.star


def test_star_fails_on_shared_endpoint():
    g = build_digraph(
        3, (0, 1, 0), [(0, 1), (1, 0), (1, 2), (2, 1)]
    )  # pairs {0,1} and {1,2} share vertex 1
    sc = star_conditions(g)
    assert not sc.star
    assert sc.symmetric_pairs == ((0, 1), (1, 2))


def test_orient_p5ab_gives_p5a_edges():
    assert orient(P5AB).edges == P5A.edges


def test_orient_identity_without_symmetric_pairs():
    assert orient(P5A) == P5A


def test_orient_single_pair_keeps_low_to_high():
    g = build_digraph(2, (0, 1), [(0, 1), (1, 0)])
    assert orient(g).edges == frozenset({(0, 1)})


def test_all_orientations_count_and_reassembly():
    variants = list(all_orientations(P5AB))
    assert len(variants) == 4
    for v in variants:
        assert not v.symmetric_pairs
        assert underlying(v) == underlying(P5AB)


def _validated_orientations(g):
    # every keep-choice over the symmetric pairs, in all_orientations' order,
    # each built through the validating constructor
    pairs = g.symmetric_pairs
    pairset = set(pairs)
    asym = {e for e in g.edges if (min(e), max(e)) not in pairset}
    for choice in range(1 << len(pairs)):
        kept = {(u, v) if choice >> i & 1 else (v, u) for i, (u, v) in enumerate(pairs)}
        yield Digraph(n=g.n, colors=g.colors, edges=frozenset(asym | kept), names=g.names)


def test_all_orientations_match_validated_constructor():
    graphs = list(ALL_FIXTURES.values())
    for n in range(1, 6):
        for colors in halved_colorings(n):

            def visit(out, inn, n=n, colors=colors):
                edges = [(u, v) for u in range(n) for v in iter_bits(out[u])]
                graphs.append(build_digraph(n, colors, edges))

            pruned_mask_sweep(colors, visit, is_qbmg_masks)
    checked = 0
    for g in graphs:
        if len(g.symmetric_pairs) > 8:
            continue
        expected = list(_validated_orientations(g))
        got = list(all_orientations(g))
        assert len(got) == len(expected) == 1 << len(g.symmetric_pairs)
        for variant, reference in zip(got, expected):
            assert variant == reference
            assert variant.out_masks == reference.out_masks
            assert variant.in_masks == reference.in_masks
        checked += 1
    assert checked > len(ALL_FIXTURES)


def test_topological_order_p5a():
    assert topological_order(orient(P5A)) == (0, 2, 1, 3, 4)


def test_topological_order_rejects_symmetric_pairs():
    with pytest.raises(NotOriented):
        topological_order(P5AB)


def test_topological_order_none_on_directed_cycle():
    g = build_digraph(4, (0, 1, 0, 1), [(0, 1), (1, 2), (2, 3), (3, 0)])
    assert topological_order(g) is None


def test_topological_order_matches_naive_scan():
    # every orientation of every fixture, every oriented bipartite digraph
    # on four vertices, then seeded random oriented bipartite digraphs with
    # up to 12 vertices, directed cycles included
    graphs = [o for g in ALL_FIXTURES.values() for o in all_orientations(g)]
    graphs += [g for g in all_bipartite_digraphs(4) if not g.symmetric_pairs]
    rng = random.Random(26)
    for _ in range(400):
        n = rng.randint(1, 12)
        colors = [rng.randrange(2) for _ in range(n)]
        density = rng.random()
        edges = [rng.choice(((u, v), (v, u))) for u in range(n) for v in range(u + 1, n)
                 if colors[u] != colors[v] and rng.random() < density]
        graphs.append(build_digraph(n, colors, edges))
    cyclic = large_cyclic = 0
    for g in graphs:
        order = topological_order(g)
        assert order == naive_topological_order(g)
        cyclic += order is None
        large_cyclic += order is None and g.n > 8
    assert cyclic > large_cyclic > 0


def test_all_orientations_too_large_before_any_work():
    star = build_digraph(
        ORIENT_MAX_PAIRS + 2,
        (0,) + (1,) * (ORIENT_MAX_PAIRS + 1),
        [e for v in range(1, ORIENT_MAX_PAIRS + 2) for e in ((0, v), (v, 0))],
    )
    with pytest.raises(TooLarge):
        next(all_orientations(star))
    at_cap, _ = induced_subdigraph(star, range(ORIENT_MAX_PAIRS + 1))
    assert len(at_cap.symmetric_pairs) == ORIENT_MAX_PAIRS
    assert not next(all_orientations(at_cap)).symmetric_pairs


def test_topological_order_respects_edges():
    order = topological_order(orient(P5A))
    position = {v: i for i, v in enumerate(order)}
    for u, v in orient(P5A).edges:
        assert position[u] < position[v]


def test_bitournament_report_open_chain_not_bitransitive():
    # the chain 0 -> 14 -> 20 -> 22 has no closing edge 0 -> 22
    g = build_digraph(4, (0, 1, 0, 1), [(0, 1), (1, 2), (2, 3)], ("0", "14", "20", "22"))
    assert not bitournament_report(g).is_bitransitive


def test_bitournament_two_vertices():
    g = build_digraph(2, (0, 1), [(0, 1)], ("0", "2"))
    assert bitournament_report(g) == (True, True)


def test_bitournament_p5a_false():
    report = bitournament_report(P5A)
    assert not report.is_bitournament  # v1, v4 unjoined opposite pair
    assert report.is_bitransitive


def test_bitournament_complete_one_way():
    edges = [(u, v) for u in (0, 1) for v in (2, 3)]
    g = build_digraph(4, (0, 0, 1, 1), edges)
    assert bitournament_report(g) == (True, True)


def test_oriented_biclique_subdigraph_ex10():
    b = Biclique(frozenset({0, 1, 2, 3}), frozenset({4, 5, 6, 7}))
    sub = oriented_biclique_subdigraph(EX10, b)
    assert sub.n == 8 and len(sub.edges) == 16
    assert bitournament_report(sub) == (True, True)
    assert recognize(sub).is_qbmg


def test_oriented_biclique_subdigraph_single_edge():
    g = build_digraph(2, (0, 1), [(0, 1)])
    sub = oriented_biclique_subdigraph(g, Biclique(frozenset({0}), frozenset({1})))
    assert sub.edges == frozenset({(0, 1)})


def test_oriented_biclique_subdigraph_resolves_symmetric_pair():
    g = build_digraph(2, (0, 1), [(0, 1), (1, 0)])
    sub = oriented_biclique_subdigraph(g, Biclique(frozenset({0}), frozenset({1})))
    assert sub.edges == frozenset({(0, 1)})  # canonical rule keeps low -> high


def test_oriented_biclique_subdigraph_rejects_non_biclique():
    with pytest.raises(NotBiclique):
        oriented_biclique_subdigraph(
            EX10, Biclique(frozenset({0, 8}), frozenset({4, 5, 6, 7}))
        )
    with pytest.raises(NotBiclique, match="both biclique sides must be nonempty"):
        oriented_biclique_subdigraph(EX10, Biclique(frozenset({0}), frozenset()))
    with pytest.raises(NotBiclique, match="biclique sides must be disjoint"):
        oriented_biclique_subdigraph(EX10, Biclique(frozenset({0, 4}), frozenset({4})))


@pytest.mark.parametrize("right", [99, 10, -1])
def test_oriented_biclique_subdigraph_rejects_out_of_range_vertex(right):
    with pytest.raises(ValueError, match=f"vertex {right} out of range"):
        oriented_biclique_subdigraph(EX10, Biclique(frozenset({0}), frozenset({right})))


def test_mask_predicates_match_edge_set_definitions():
    # star, starstar and bitournament read from the edge set, on every
    # bipartite digraph with four vertices
    for g in all_bipartite_digraphs(4):
        E = g.edges
        pairs = {frozenset(e) for e in E if e[::-1] in E}
        star = all(sum(v in p for p in pairs) <= 1 for v in range(g.n))
        hoods = [({b for a, b in E if a == v}, {a for a, b in E if b == v}) for v in range(g.n)]
        starstar = all(hoods[u] != hoods[v] for u in range(g.n) for v in range(u))
        sc = star_conditions(g)
        assert (sc.star, sc.starstar) == (star, starstar)
        joined = all(
            ((u, v) in E) != ((v, u) in E)
            for u in range(g.n) for v in range(u) if g.colors[u] != g.colors[v])
        assert bitournament_report(g).is_bitournament == joined


def test_orientations_of_small_qbmgs_all_acyclic():
    # four-vertex layer of the acyclicity claim, exhaustive
    for g in all_bipartite_digraphs(4):
        if not recognize(g).is_qbmg:
            continue
        sc = star_conditions(g)
        if not (sc.star or sc.starstar):
            continue
        for variant in all_orientations(g):
            assert topological_order(variant) is not None
