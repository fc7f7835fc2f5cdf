import hashlib
import random
from collections import Counter
from itertools import product
from types import SimpleNamespace

import pytest
from hypothesis import given, seed, settings
from hypothesis import strategies as st

from helpers import (
    digraph_from_masks,
    is_qbmg_masks_delta,
    naive_is_qbmg,
    naive_violates_n1,
    naive_violates_n2,
    naive_violates_n3,
    pruned_mask_sweep,
    spine_tree_graph,
)
from qbmg.axioms import (
    _admissible_rows,
    find_n1_violation,
    find_n2_violation,
    find_n3_violation,
    is_hereditary_on,
    is_qbmg,
    is_qbmg_masks,
    recognize,
)
from qbmg.digraph import build_digraph, induced_subdigraph, iter_bits, underlying
from qbmg.enumeration import all_bipartite_digraphs, halved_colorings, run_mask_sweep
from qbmg.errors import NotQbmg, TooLarge
from qbmg.fixtures import (
    ALL_FIXTURES,
    EX10,
    P4_CLASSES,
    P5A,
    P5AB,
    P5_CLASSES,
)
from qbmg.paths import find_induced_path


def test_n1_none_on_p5a():
    assert find_n1_violation(P5A) is None


def test_n1_definitional_witness():
    # u=0, t=1, w=2, v=3 with u,v independent
    g = build_digraph(4, (0, 1, 0, 1), [(0, 1), (3, 2), (1, 2)])
    w = find_n1_violation(g)
    assert w is not None and w.axiom == "N1"
    assert w.vertices == (0, 1, 2, 3)


def test_n1_none_on_edgeless():
    g = build_digraph(4, (0, 1, 0, 1), [])
    assert find_n1_violation(g) is None


def test_n2_chain_witness():
    g = build_digraph(4, (1, 0, 1, 0), [(0, 1), (1, 2), (2, 3)])
    w = find_n2_violation(g)
    assert w is not None and w.axiom == "N2"
    assert w.vertices == (0, 1, 2, 3)


def test_n2_none_on_p5ab():
    assert find_n2_violation(P5AB) is None


def test_n2_impossible_with_two_edges():
    for g in all_bipartite_digraphs(4):
        if len(g.edges) <= 2:
            assert find_n2_violation(g) is None


def test_n3_case_witness():
    # chordless six-vertex path pattern from the freeness argument
    g = build_digraph(
        6, (1, 0, 1, 0, 1, 0), [(0, 1), (2, 1), (2, 3), (4, 3), (4, 5)]
    )
    w = find_n3_violation(g)
    assert w is not None and w.axiom == "N3"
    assert w.vertices == (2, 4, 3)


def test_n3_none_on_p5a():
    assert find_n3_violation(P5A) is None


def test_n3_none_with_disjoint_out_neighborhoods():
    g = build_digraph(4, (0, 1, 0, 1), [(0, 1), (2, 3)])
    assert find_n3_violation(g) is None


def test_recognize_p5_fixtures_are_qbmgs():
    for name, g in P5_CLASSES.items():
        rep = recognize(g)
        assert rep.is_qbmg, name
        assert rep.witness is None


def test_recognize_p4_fixtures_have_sinks():
    for name, g in P4_CLASSES.items():
        rep = recognize(g)
        assert rep.is_qbmg and not rep.is_bmg, name
        assert rep.sinks, name


def test_recognize_all_three_vertex_digraphs():
    for g in all_bipartite_digraphs(3):
        assert recognize(g).is_qbmg


def test_recognize_report_consistency():
    for name, g in ALL_FIXTURES.items():
        rep = recognize(g)
        if rep.is_bmg:
            assert rep.is_qbmg and not rep.sinks
        if rep.is_reciprocal:
            assert rep.is_bmg
            assert 2 * rep.symmetric_edge_count == len(g.edges)


def test_reciprocal_complete_bipartite():
    edges = [(u, v) for u in (0, 1) for v in (2, 3)] + [
        (v, u) for u in (0, 1) for v in (2, 3)
    ]
    g = build_digraph(4, (0, 0, 1, 1), edges)
    rep = recognize(g)
    assert rep.is_reciprocal and rep.is_bmg and rep.is_qbmg


def test_witnesses_replay_and_match_naive_n4():
    # recognize(), the mask fast path and the naive quantifier scans agree
    # on every bipartite digraph with up to 4 vertices; witnesses replay
    for n in range(1, 5):
        for g in all_bipartite_digraphs(n):
            n1, n2, n3 = find_n1_violation(g), find_n2_violation(g), find_n3_violation(g)
            assert (n1 is not None) == naive_violates_n1(g)
            assert (n2 is not None) == naive_violates_n2(g)
            assert (n3 is not None) == naive_violates_n3(g)
            rep = recognize(g)
            assert rep.is_qbmg == naive_is_qbmg(g)
            assert rep.is_qbmg == is_qbmg_masks(g.n, g.out_masks, g.in_masks)
            if n1 is not None:
                u, t, w, v = n1.vertices
                E = g.edges
                assert (u, t) in E and (v, w) in E and (t, w) in E
                assert (u, v) not in E and (v, u) not in E and u != v
            if n2 is not None:
                u, v, w, t = n2.vertices
                E = g.edges
                assert (u, v) in E and (v, w) in E and (w, t) in E and (u, t) not in E
            if n3 is not None:
                u, v, s = n3.vertices
                E = g.edges
                assert (u, s) in E and (v, s) in E
                ou = {b for a, b in E if a == u}
                ov = {b for a, b in E if a == v}
                assert not (ou <= ov) and not (ov <= ou)


def _random_bipartite_digraph(rng, n):
    colors = [rng.randint(0, 1) for _ in range(n)]
    density = rng.choice((0.1, 0.2, 0.35, 0.5))
    edges = [(u, v) for u in range(n) for v in range(n)
             if colors[u] != colors[v] and rng.random() < density]
    return build_digraph(n, colors, edges)


def _flip_middle_arc(g):
    """g with its middle arc, in sorted order, reversed (dropped when the
    reverse arc is there already)."""
    arcs = sorted(g.edges)
    u, v = arcs[len(arcs) // 2]
    edges = set(arcs) - {(u, v)}
    edges.add((v, u))
    return build_digraph(g.n, g.colors, edges, g.names)


def test_witnesses_are_pinned():
    # the exact (axiom, vertices) of each finder, or None, pinned from
    # finders that walked every u -> t -> w and every pair u < v: every
    # bipartite digraph with n <= 4, seeded random ones with 5-12 vertices
    # and two spine-tree graphs with one arc flipped
    rng = random.Random(32)
    graphs = [g for n in range(1, 5) for g in all_bipartite_digraphs(n)]
    graphs += [_random_bipartite_digraph(rng, rng.randint(5, 12)) for _ in range(3000)]
    graphs += [_flip_middle_arc(spine_tree_graph(k)) for k in (10, 50)]
    digest = hashlib.sha256()
    found = Counter()
    for g in graphs:
        for find in (find_n1_violation, find_n2_violation, find_n3_violation):
            w = find(g)
            if w is not None:
                found[w.axiom] += 1
            digest.update(repr(w and (w.axiom, w.vertices)).encode())
    assert dict(found) == {"N1": 1941, "N2": 2253, "N3": 1148}
    assert digest.hexdigest() == "b02c8f4fb795779f83e857465d07cce42633fe9442823aa371060fe7b5493d7d"


def test_recognize_matches_naive_n5_exhaustive():
    # full five-vertex layer of the self-consistency invariant; color-swapped
    # twins are skipped (recognition depends on the edge set only)
    for g in all_bipartite_digraphs(5):
        if g.colors[0] == 1:
            continue
        assert recognize(g).is_qbmg == naive_is_qbmg(g)


def test_mask_kernel_matches_naive_on_sweep_n5():
    # every labeled edge set with n <= 5 as the sweep feeds it to the kernel
    disagreements = []
    for n in range(6):
        for colors in halved_colorings(n):

            def visit(out, inn, n=n, colors=colors):
                g = digraph_from_masks(n, tuple(out), colors)
                if is_qbmg_masks(n, out, inn) != naive_is_qbmg(g):
                    disagreements.append(g)

            run_mask_sweep(colors, visit)
    assert disagreements == []


def test_mask_kernel_matches_recognize_beyond_the_sweeps():
    # graphs no sweep reaches: a 2,000-vertex directed path and 1,000
    # disjoint symmetric pairs, sparse, and a dense spine-tree graph with
    # and without its middle arc reversed
    n = 2000
    colors = [v % 2 for v in range(n)]
    path = build_digraph(n, colors, [(v, v + 1) for v in range(n - 1)])
    pairs = build_digraph(n, colors, [(v, v ^ 1) for v in range(n)])
    spine = spine_tree_graph(50)
    graphs = [path, pairs, spine, _flip_middle_arc(spine)]
    verdicts = [is_qbmg_masks(g.n, g.out_masks, g.in_masks) for g in graphs]
    assert verdicts == [recognize(g).is_qbmg for g in graphs]
    assert verdicts == [False, True, True, False]


def test_delta_kernel_matches_full_kernel_on_sweep_prefixes_n5():
    # every keep call of the pruned sweep over all 2^n colorings with n <= 5;
    # the prefix without the newest vertex has passed there, as the delta
    # kernel assumes.  A seeded sample is also checked against the naive scan.
    rng = random.Random(6)
    calls = 0
    disagreements = []
    sampled = []
    for n in range(6):
        for colors in product((0, 1), repeat=n):

            def keep(m, out, inn, colors=colors):
                nonlocal calls
                calls += 1
                full = is_qbmg_masks(m, out, inn)
                if is_qbmg_masks_delta(m, out, inn) != full:
                    disagreements.append((m, tuple(out[:m])))
                if rng.random() < 0.03:
                    sampled.append((digraph_from_masks(m, tuple(out[:m]), colors[:m]), full))
                return full

            pruned_mask_sweep(colors, lambda out, inn: None, keep)
    assert calls == 70_306
    assert disagreements == []
    assert len(sampled) > 1000
    assert [full for _, full in sampled] == [naive_is_qbmg(g) for g, _ in sampled]


@settings(max_examples=400, deadline=None)
@given(st.data())
def test_delta_kernel_matches_full_kernel_on_random_extensions(data):
    # loop-free digraphs on up to 12 vertices, bipartite or not (the kernels
    # read masks only, the naive scans n and edges only), past the n <= 6
    # sweeps; an earlier vertex keeps its drawn edges only while the prefix
    # still passes, so the prefix before the newest vertex passes
    m = data.draw(st.integers(1, 12))
    bipartite = data.draw(st.booleans())
    colors = [data.draw(st.integers(0, 1)) if bipartite else v for v in range(m)]
    out = [0] * m
    inn = [0] * m
    for x in range(m):
        xbit = 1 << x
        for u in range(x):
            if colors[u] == colors[x]:
                continue
            state = data.draw(st.integers(0, 3))
            if state & 1:
                out[u] |= xbit
                inn[x] |= 1 << u
            if state & 2:
                out[x] |= 1 << u
                inn[u] |= xbit
        if x < m - 1 and not is_qbmg_masks(x + 1, out, inn):
            for u in range(x):
                out[u] &= ~xbit
                inn[u] &= ~xbit
            out[x] = inn[x] = 0
    low = (1 << (m - 1)) - 1
    assert is_qbmg_masks(m - 1, [o & low for o in out], [i & low for i in inn])
    full = is_qbmg_masks(m, out, inn)
    assert is_qbmg_masks_delta(m, out, inn) == full
    edges = {(u, v) for u in range(m) for v in iter_bits(out[u])}
    assert naive_is_qbmg(SimpleNamespace(n=m, edges=edges)) == full


def _oracle_rows(x, opposite, out, inn):
    """The rows (O, I) of vertex x among all 4^c states of its pairs that
    the delta kernel accepts: pairs (u, x) for u ascending, the first
    varying slowest, each through no edge, u -> x, both and x -> u."""
    us = list(iter_bits(opposite))
    rows = []
    for states in product((0, 1, 3, 2), repeat=len(us)):
        i = sum(1 << u for u, state in zip(us, states) if state & 1)
        o = sum(1 << u for u, state in zip(us, states) if state & 2)
        if is_qbmg_masks_delta(x + 1, *_grow(out, inn, x, o, i)):
            rows.append((o, i))
    return rows


def _sorted_rows(x, opposite, out, inn):
    """The rows (O, I) of ``_admissible_rows``, sorted, once each in-row I
    is seen to head a single group."""
    groups = _admissible_rows(x, opposite, out, inn)
    assert len({i for i, _ in groups}) == len(groups)
    return sorted((o, i) for i, outs in groups for o in outs)


def _grow(out, inn, x, o, i):
    """The masks with vertex x added by the row (O, I)."""
    bit = 1 << x
    return ([m | bit if i >> u & 1 else m for u, m in enumerate(out)] + [o],
            [m | bit if o >> u & 1 else m for u, m in enumerate(inn)] + [i])


def _rows_checked_along_walk(colors):
    # every prefix the walk over admissible rows reaches; returns their count
    checked = 0

    def rec(out, inn):
        nonlocal checked
        x = len(out)
        if x == len(colors):
            return
        opposite = sum(1 << u for u in range(x) if colors[u] != colors[x])
        rows = _sorted_rows(x, opposite, out, inn)
        assert rows == sorted(_oracle_rows(x, opposite, out, inn)), (colors, out, inn)
        checked += 1
        for o, i in rows:
            rec(*_grow(out, inn, x, o, i))

    rec([], [])
    return checked


def test_admissible_rows_match_the_delta_kernel_along_the_walk():
    # every halved coloring for n <= 5, then the sorted colorings for n = 6
    # that classify_all_qbmgs walks
    prefixes = [
        sum(_rows_checked_along_walk(colors) for colors in halved_colorings(n))
        for n in range(6)
    ]
    prefixes.append(sum(_rows_checked_along_walk((0,) * k + (1,) * (6 - k)) for k in range(6, 2, -1)))
    assert prefixes == [0, 1, 4, 18, 134, 1_658, 1_503]


@seed(2025)
@settings(max_examples=200, deadline=None)
@given(st.data())
def test_admissible_rows_match_the_delta_kernel_on_random_prefixes(data):
    # a random coloring of 7 or 8 vertices; each vertex takes a random row
    # among those the delta kernel accepts, and the rows of each prefix are
    # compared on the way
    n = data.draw(st.integers(7, 8))
    colors = [data.draw(st.integers(0, 1)) for _ in range(n)]
    out, inn = [], []
    for x in range(n):
        opposite = sum(1 << u for u in range(x) if colors[u] != colors[x])
        rows = _oracle_rows(x, opposite, out, inn)
        assert _sorted_rows(x, opposite, out, inn) == sorted(rows)
        out, inn = _grow(out, inn, x, *data.draw(st.sampled_from(rows)))


def test_hereditary_ex10():
    assert is_hereditary_on(EX10) is None


def test_hereditary_p5ab():
    assert is_hereditary_on(P5AB) is None


def test_hereditary_three_vertex():
    g = build_digraph(3, (0, 1, 0), [(0, 1), (2, 1)])
    assert is_hereditary_on(g) is None


def test_hereditary_requires_recognized_graph():
    g = build_digraph(4, (1, 0, 1, 0), [(0, 1), (1, 2), (2, 3)])  # violates N2
    with pytest.raises(NotQbmg):
        is_hereditary_on(g)


def test_hereditary_scan_is_bounded():
    g = build_digraph(11, (0, 1) * 5 + (0,), [(2 * i + 1, 2 * i) for i in range(5)])
    assert is_qbmg(g)
    with pytest.raises(TooLarge):
        is_hereditary_on(g)


def test_hereditary_reports_the_least_violating_subset(monkeypatch):
    real = is_qbmg_masks

    def reject_three(n, out, inn):
        return n != 3 and real(n, out, inn)

    monkeypatch.setattr("qbmg.axioms.is_qbmg_masks", reject_three)
    # built here, so no recognition verdict is kept on it yet
    g = build_digraph(4, (0, 1, 0, 1), [(0, 1), (1, 0), (2, 3)])
    assert is_hereditary_on(g) == {0, 1, 2}


def test_induced_subdigraphs_inherit_only_a_true_verdict(sweep):
    # the fixtures and every labeled graph with n <= 4, recognized or not,
    # and the recognized records with n = 5; each parent is judged by
    # recognize, by is_qbmg, or not at all, then cut to every vertex subset
    # copies with no views kept yet
    parents = [build_digraph(g.n, g.colors, g.edges, g.names) for g in ALL_FIXTURES.values()]
    for n in range(1, 5):
        for colors in halved_colorings(n):
            run_mask_sweep(colors, lambda out, inn, n=n, colors=colors: parents.append(
                digraph_from_masks(n, tuple(out), colors)))
    parents += [digraph_from_masks(r.n, r.out, r.colors) for r in sweep.by_n(5)]
    rejected = 0
    for i, g in enumerate(parents):
        verdict = None
        if i % 3 == 1:
            verdict = recognize(g).is_qbmg
        elif i % 3 == 2:
            verdict = is_qbmg(g)
        rejected += verdict is False
        for mask in range(1 << g.n):
            sub, _ = induced_subdigraph(g, iter_bits(mask))
            if verdict:
                assert vars(sub)["_is_qbmg"] is True
            else:
                assert "_is_qbmg" not in vars(sub)
            assert is_qbmg(sub) == is_qbmg_masks(sub.n, sub.out_masks, sub.in_masks)
    assert rejected > 100


def test_sink_free_qbmgs_have_cograph_underlying_n4():
    for n in range(1, 5):
        for g in all_bipartite_digraphs(n):
            rep = recognize(g)
            if rep.is_bmg:
                assert find_induced_path(underlying(g), 4) is None
