import hashlib
import random
import re
from itertools import permutations, product

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

import qbmg.enumeration
from helpers import (
    brute_components,
    digraph_from_masks,
    in_masks_from_out,
    random_masks,
    random_surjective_coloring,
    random_truncation,
    relabel,
    twin_blow_up,
)
from qbmg.digraph import (
    _BITS,
    _BITS_WIDTH,
    _WIDE_BITS,
    Digraph,
    UGraph,
    _component_masks,
    _state_digraphs,
    _trusted_digraph,
    _trusted_ugraph,
    build_digraph,
    build_ugraph,
    canonical_form,
    canonical_order,
    identity_levels,
    induced_subdigraph,
    iter_bits,
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


# test ids by the builder names, which pytest would print as the class names
@pytest.mark.parametrize("build", [build_digraph, build_ugraph], ids=["build_digraph", "build_ugraph"])
def test_builders_reject_an_edge_that_is_not_a_pair(build):
    with pytest.raises(ValueError):
        build(2, (0, 1), [(0, 1, 9)])


@pytest.mark.parametrize("build", [build_digraph, build_ugraph], ids=["build_digraph", "build_ugraph"])
@pytest.mark.parametrize(
    "n, colors, names, message",
    [
        (-1, (), (), "vertex count must be non-negative"),
        (2, (0,), ("a", "b"), "expected 2 colors, got 1"),
        (2, (0, 1), ("a",), "expected 2 names, got 1"),
        (2, (0, 2), ("a", "b"), "colors must be 0 or 1, got 2"),
        # a bool or float color would be written by format_dgf as 'False' or '1.0'
        (2, (False, True), ("a", "b"), "colors must be 0 or 1, got False"),
        (2, (0, 1.0), ("a", "b"), r"colors must be 0 or 1, got 1\.0"),
        (2, (0, 1), (1, 2), "vertex names must be strings, got 1"),
        # a bool count would build a graph whose n is True, a float one fail with TypeError
        (True, (0,), ("a",), "vertex count must be an int, got True"),
        (2.0, (0, 1), ("a", "b"), r"vertex count must be an int, got 2\.0"),
    ],
)
def test_builders_reject_a_bad_vertex_table(build, n, colors, names, message):
    with pytest.raises(ValueError, match=message):
        build(n, colors, [], names)


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


@pytest.mark.parametrize("vertex", [-1, 10])
def test_induced_rejects_a_vertex_out_of_range(vertex):
    with pytest.raises(ValueError, match=f"vertex {vertex} out of range"):
        induced_subdigraph(EX10, {8, vertex})


@pytest.mark.parametrize("vertex", [True, 1.0])
def test_induced_rejects_a_vertex_id_that_is_not_an_int(vertex):
    for g in (P5A, underlying(P5A)):
        with pytest.raises(ValueError, match=f"vertex {vertex} is not an int"):
            induced_subdigraph(g, [vertex, 2])


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


def test_is_connected_means_exactly_one_component():
    assert not build_ugraph(0, (), []).is_connected()
    assert build_ugraph(1, (0,), []).is_connected()
    assert not build_ugraph(2, (0, 1), []).is_connected()
    assert build_ugraph(2, (0, 1), [(0, 1)]).is_connected()


def test_component_masks_match_brute_force_partition():
    # random graphs on 0-12 vertices, often with isolated vertices, and
    # twin blow-ups, each under an empty, a full and a random vertex mask
    rng = random.Random(17)
    bridged = 0
    for trial in range(240):
        n = trial % 13
        if trial % 3 == 2 and n >= 2:
            base = random_masks(rng, rng.randint(1, n - 1), 0.5)
            adj = twin_blow_up(rng, base, [0] * len(base), n)[0]
        else:
            adj = random_masks(rng, n, rng.choice((0.1, 0.2, 0.4)))
        full = (1 << n) - 1
        whole = _component_masks(adj, full)
        for within in (0, full, rng.getrandbits(n) if n else 0):
            comps = _component_masks(adj, within)
            assert {frozenset(iter_bits(c)) for c in comps} == brute_components(adj, within)
            assert comps == sorted(comps, key=lambda c: c & -c)
            # a path through vertices outside the mask joins no components
            bridged += sum(1 for c in whole if sum(1 for d in comps if d & c) > 1)
    assert bridged  # the inputs do hold such paths


def test_bit_table_lists_the_bits_of_every_mask_below_its_width():
    assert len(_BITS) == 1 << _BITS_WIDTH
    assert all(_BITS[m] == tuple(iter_bits(m)) for m in range(1 << _BITS_WIDTH))


def test_wide_bits_list_the_bits_of_any_mask():
    # empty, one-bit and random masks of up to 2,000 bits, sparse and dense
    rng = random.Random(38)
    masks = [0, 1, 1 << 8, 1 << 1999, (1 << 300) - 1]
    masks += [rng.getrandbits(rng.randint(1, 2000)) for _ in range(200)]
    masks += [sum(1 << rng.randrange(2000) for _ in range(3)) for _ in range(200)]
    for m in masks:
        assert list(_WIDE_BITS[m]) == list(iter_bits(m))


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


def _levels_under(rows, cols, order) -> list[int]:
    """The layered border encoding of the masks under the vertex order."""
    levels = []
    for k, v in enumerate(order):
        border = 0
        for w in order[:k]:
            border = border << 2 | (rows[v] >> w & 1) << 1 | (cols[v] >> w & 1)
        levels.append(border)
    return levels


def test_canonical_order_matches_brute_force():
    # arbitrary arcs (odd cycles and tournaments included) and twin-rich
    # blow-ups; colors play no part in the encoding
    rng = random.Random(19)
    cases = []
    for trial in range(40):
        n = rng.randint(0, 7)
        density = rng.choice((0.2, 0.5, 0.8))
        cases.append([sum(1 << v for v in range(n) if v != u and rng.random() < density)
                      for u in range(n)])
        k = rng.randint(1, 4)
        base = [sum(1 << v for v in range(k) if v != u and rng.random() < density) for u in range(k)]
        cases.append(list(twin_blow_up(rng, base, [0] * k, rng.randint(k + 1, 7))[0]))
    for rows in cases:
        n = len(rows)
        cols = in_masks_from_out(n, rows)
        levels, order = canonical_order(n, rows, cols)
        assert levels == min(_levels_under(rows, cols, p) for p in permutations(range(n))), rows
        assert sorted(order) == list(range(n))
        assert _levels_under(rows, cols, order) == levels, rows


def test_canonical_order_pinned_on_classification_inputs(monkeypatch):
    # (levels, order) for every search that classify_all_qbmgs(n) runs for
    # n <= 5, then for every fixture; which member of a class is searched
    # depends on the walk's order, which no output shows, so a new visit
    # order moves this digest but not the count
    digest = hashlib.sha256()
    calls = 0

    def recorded(n, rows, cols):
        nonlocal calls
        calls += 1
        levels, order = canonical_order(n, rows, cols)
        digest.update(f"{list(rows)} {list(cols)}: {levels} {order}\n".encode())
        return levels, order

    monkeypatch.setattr(qbmg.enumeration, "canonical_order", recorded)
    for n in range(6):
        classify_all_qbmgs(n)
    assert calls == 1 + 1 + 3 + 9 + 36 + 137
    for name in sorted(ALL_FIXTURES):
        g = ALL_FIXTURES[name]
        levels, order = canonical_order(g.n, g.out_masks, g.in_masks)
        digest.update(f"{name}: {levels} {order}\n".encode())
    assert digest.hexdigest() == (
        "76f96e821c9e24565a42b945f2403a1a857518da1a406ac8875777395c1838d1")


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


def test_constructors_reject_a_repeated_edge():
    names = ("a", "b", "c")
    with pytest.raises(DuplicateEdge, match=r"edge \(0, 1\) given twice"):
        Digraph(n=3, colors=(0, 1, 0), edges=[(0, 1), (2, 1), (0, 1)], names=names)
    with pytest.raises(DuplicateEdge, match=r"edge \{1, 2\} given twice"):
        UGraph(n=3, colors=(0, 1, 0), edges=[(1, 2), (1, 2)], names=names)
    # each edge is checked in turn, so an earlier bad edge is reported first
    with pytest.raises(LoopEdge):
        Digraph(n=3, colors=(0, 1, 0), edges=[(1, 1), (0, 1), (0, 1)], names=names)
    # an undirected pair is one edge in either order
    for pairs in ([(2, 1), (1, 2)], [(1, 2), (2, 1)], [(2, 1), (2, 1)]):
        with pytest.raises(DuplicateEdge, match=r"edge \{1, 2\} given twice"):
            UGraph(n=3, colors=(0, 1, 0), edges=pairs, names=names)
    # a symmetric pair is two distinct edges
    both = Digraph(n=3, colors=(0, 1, 0), edges=[(0, 1), (1, 0)], names=names)
    assert both.symmetric_pairs == ((0, 1),)


@pytest.mark.parametrize("make", [iter, list, lambda edges: (e for e in edges)])
def test_constructors_store_any_iterable_of_edges_as_a_frozenset(make):
    names = ("a", "b", "c")
    arcs = [(0, 1), (1, 0), (2, 1)]
    g = Digraph(n=3, colors=(0, 1, 0), edges=make(arcs), names=names)
    masked = _trusted_digraph(3, (0, 1, 0), names, (0b010, 0b001, 0b010), (0b010, 0b101, 0))
    # masks are the only stored form: the edge set is read off them on first use
    assert "edges" not in vars(g)
    assert type(g.edges) is frozenset and g.edges == frozenset(arcs)
    assert g == masked and hash(g) == hash(masked)
    assert g.sorted_edges() == sorted(arcs) and g.edges ^ {(0, 1)} == {(1, 0), (2, 1)}
    pairs = [(0, 1), (1, 2)]
    u = UGraph(n=3, colors=(0, 1, 0), edges=make(pairs), names=names)
    masked_u = _trusted_ugraph(3, (0, 1, 0), names, (0b010, 0b101, 0b010))
    assert "edges" not in vars(u)
    assert type(u.edges) is frozenset and u.edges == frozenset(pairs)
    assert u == masked_u and hash(u) == hash(masked_u)
    with pytest.raises(DuplicateEdge):
        Digraph(n=3, colors=(0, 1, 0), edges=make([(0, 1), (0, 1)]), names=names)


def test_ugraph_has_edge_reads_the_masks():
    for g in [*ALL_FIXTURES.values(), *all_bipartite_digraphs(3)]:
        pairs = {(min(a, b), max(a, b)) for a, b in g.edges}
        # a fresh copy built from masks, without an edge set
        und, _ = induced_subdigraph(underlying(g), range(g.n))
        # in range, out of range on either side, and u == v
        for u in range(-2, g.n + 2):
            for v in range(-2, g.n + 2):
                assert und.has_edge(u, v) == ((min(u, v), max(u, v)) in pairs), (u, v)
        assert "edges" not in vars(und)


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
                sub_u, _ = induced_subdigraph(und, subset)
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
            sub_u, _ = induced_subdigraph(und, subset)
            assert underlying(sub_d) == sub_u


@pytest.mark.parametrize("cls, build", [(Digraph, build_digraph), (UGraph, build_ugraph)], ids=["Digraph", "UGraph"])
def test_constructors_store_any_sequences_as_tuples(cls, build):
    assert build is cls
    # lists, no names: equal to, and hashing as, the graph given tuples and v1..vn
    g = cls(3, [0, 1, 0], [[0, 1], [2, 1]])
    ref = cls(3, (0, 1, 0), [(0, 1), (2, 1)], ("v1", "v2", "v3"))
    assert type(g.colors) is tuple and g.names == ("v1", "v2", "v3")
    assert g == ref and hash(g) == hash(ref)
    assert cls(2, iter([1, 0]), [], iter(["x", "y"])).names == ("x", "y")


def test_ugraph_takes_a_pair_in_either_order():
    pairs = [(0, 1), (1, 2), (0, 3), (2, 3)]
    g = UGraph(4, (0, 1, 0, 1), pairs)
    flipped = UGraph(4, (0, 1, 0, 1), [(v, u) for u, v in pairs])
    assert flipped.adj_masks == g.adj_masks and flipped == g
    assert flipped.edges == frozenset(pairs)
    with pytest.raises(MonochromaticEdge, match="edge v1 -- v3 joins"):
        UGraph(4, (0, 1, 0, 1), [(2, 0)])
    with pytest.raises(ValueError, match=r"edge \(1, 4\) out of range"):
        UGraph(4, (0, 1, 0, 1), [(4, 1)])


@pytest.mark.parametrize("cls", [Digraph, UGraph])
@pytest.mark.parametrize("edge", [(0, 1.0), ("0", 1), (True, 0)])
def test_constructors_reject_an_edge_endpoint_that_is_not_an_int(cls, edge):
    with pytest.raises(ValueError, match=re.escape(f"edge {edge!r} has an endpoint that is not an int")):
        cls(2, (0, 1), [edge])


def test_ugraph_rejects_bad_edges():
    with pytest.raises(MonochromaticEdge):
        build_ugraph(2, (1, 1), [(0, 1)])
    with pytest.raises(LoopEdge):
        build_ugraph(2, (0, 1), [(1, 1)])
    with pytest.raises(DuplicateEdge):
        build_ugraph(2, (0, 1), [(0, 1), (1, 0)])
    with pytest.raises(ValueError, match=r"edge \(0, 2\) out of range"):
        build_ugraph(2, (0, 1), [(0, 2)])


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


def test_mask_built_graphs_compare_by_masks():
    # equality and hashing read the stored masks and build no edge set
    pairs = []
    for g in (EX10, P5AB, P4_1):
        a, b = (induced_subdigraph(g, range(g.n))[0] for _ in range(2))
        pairs += [(a, b), (underlying(a), underlying(b))]
    for a, b in pairs:
        stored = (set(vars(a)), set(vars(b)))
        assert a == b and hash(a) == hash(b)
        assert (set(vars(a)), set(vars(b))) == stored
    assert pairs[0][0] != pairs[2][0] and pairs[1][0] != pairs[3][0]


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
            _assert_validated(induced_subdigraph(und, subset)[0])
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


@pytest.mark.parametrize("states", [(1, 2), (1, 2, 3), range(4), (0, 1, 3, 2), (2,), (3, 0)])
def test_state_digraphs_follow_product_order(states):
    # the odometer walk against a product over the pairs' states, each
    # digraph built through the validating constructor; zero pairs give
    # the base alone, and a base with both arcs of every pair gives its
    # orientations under states (1, 2)
    rng = random.Random(26)
    for trial in range(40):
        n = rng.randint(2, 7)
        colors = tuple(rng.randint(0, 1) for _ in range(n))
        names = tuple(f"x{v}" for v in range(n))
        opposite = [(u, v) for u in range(n) for v in range(u + 1, n) if colors[u] != colors[v]]
        pairs = rng.sample(opposite, min(len(opposite), trial % 5))
        base_edges: set[tuple[int, int]] = set()
        if trial % 2:
            base_edges = {(a, b) for u, v in pairs for a, b in ((u, v), (v, u))}
            base_edges |= {e for u, v in opposite if (u, v) not in pairs
                           for e in rng.choice([[], [(u, v)], [(v, u)], [(u, v), (v, u)]])}
        want = []
        for choice in product(states, repeat=len(pairs)):
            edges = set(base_edges)
            for (u, v), state in zip(pairs, choice):
                edges ^= {(u, v)} if state & 1 else set()
                edges ^= {(v, u)} if state & 2 else set()
            want.append(Digraph(n=n, colors=colors, edges=frozenset(edges), names=names))
        base = None
        if base_edges:
            ref = Digraph(n=n, colors=colors, edges=frozenset(base_edges), names=names)
            base = (ref.out_masks, ref.in_masks)
        got = list(_state_digraphs(colors, names, pairs, states, base))
        assert got == want
        assert [g.in_masks for g in got] == [g.in_masks for g in want]
        assert [g.symmetric_pairs for g in got] == [g.symmetric_pairs for g in want]
    assert len(list(_state_digraphs((0, 1), ("a", "b"), [], states))) == 1
