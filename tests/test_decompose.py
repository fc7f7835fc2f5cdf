import random

import pytest

import qbmg.axioms
import qbmg.bicliques
import qbmg.decompose
import qbmg.digraph
from helpers import random_nested, random_surjective_coloring, random_truncation
from qbmg.axioms import is_qbmg, recognize
from qbmg.bicliques import find_dominating_biclique
from qbmg.cli import main
from qbmg.decompose import KosPartition, decompose_type_a, is_type_a, kos_partition
from qbmg.dgf import format_dgf
from qbmg.digraph import build_digraph, induced_subdigraph, underlying, weak_components
from qbmg.enumeration import cycle_template
from qbmg.errors import Disconnected, NotQbmg
from qbmg.fixtures import EX10, P5A1, P5AB
from qbmg.paths import (
    find_induced_cycle,
    find_induced_cycle_masks,
    find_induced_path,
    find_induced_path_masks,
)
from qbmg.trees import qbmg_from_tree, tree_from_nested


def test_kos_ex10():
    part = kos_partition(underlying(EX10))
    assert part is not None and not part.degenerate
    assert part.k is not None
    assert part.k.left == frozenset({0, 1, 2, 3})
    assert part.k.right == frozenset({4, 5, 6, 7})
    assert part.s == frozenset({8, 9})


def test_kos_single_edge():
    g = build_digraph(2, (0, 1), [(0, 1)])
    part = kos_partition(underlying(g))
    assert part is not None and part.k is not None and part.s == frozenset()


def test_kos_six_cycle_none():
    assert kos_partition(cycle_template(6)) is None


def test_kos_degenerate_isolated_vertex():
    from qbmg.digraph import build_ugraph

    g = build_ugraph(3, (0, 1, 0), [(0, 1)])
    part = kos_partition(g)
    assert part is not None and part.degenerate
    # no split of C6 exists, so an isolated vertex alone makes it degenerate
    c6 = cycle_template(6)
    g = build_ugraph(7, (*c6.colors, 0), c6.edges)
    assert kos_partition(g) == KosPartition(None, frozenset(), True)


def test_kos_p5ab_underlying():
    part = kos_partition(underlying(P5AB))
    assert part is not None and part.k is not None
    assert part.k.left == frozenset({1, 3}) and part.k.right == frozenset({2})
    assert part.s == frozenset({0, 4})


def test_is_type_a_ex10():
    assert is_type_a(EX10)


def test_is_type_a_p5ab():
    assert is_type_a(P5AB)


def test_is_type_a_requires_connected():
    g = build_digraph(4, (0, 1, 0, 1), [(0, 1), (2, 3)])
    assert not is_type_a(g)


def test_decompose_ex10_single_part():
    result = decompose_type_a(EX10)
    assert result.parts == (frozenset(range(10)),)


def test_decompose_p5a1_single_part():
    result = decompose_type_a(P5A1)
    assert result.parts == (frozenset(range(5)),)


def test_decompose_recognizes_a_type_a_input_once(monkeypatch, capsys, tmp_path):
    calls = 0
    real = qbmg.decompose.is_qbmg

    def counted(g):
        nonlocal calls
        calls += 1
        return real(g)

    monkeypatch.setattr(qbmg.decompose, "is_qbmg", counted)
    assert decompose_type_a(EX10).parts == (frozenset(range(10)),)
    assert calls == 1
    # the CLI verb prints each part's type-A flag without recognizing it again
    path = tmp_path / "ex10.dgf"
    path.write_text(format_dgf(EX10), encoding="utf-8")
    calls = 0
    assert main(["decompose", str(path)]) == 0
    assert calls == 1
    assert capsys.readouterr().out.endswith("(type-A: yes)\n")


def test_components_are_computed_once_per_digraph(monkeypatch):
    calls = 0
    real = qbmg.digraph._component_masks

    def counted(adj, within):
        nonlocal calls
        calls += 1
        return real(adj, within)

    monkeypatch.setattr(qbmg.digraph, "_component_masks", counted)
    # a fresh copy of EX10 (connected, type A), with no views kept on it yet
    g = build_digraph(EX10.n, EX10.colors, EX10.edges, EX10.names)
    assert weak_components(g) is underlying(g).components()
    assert is_type_a(g)
    assert decompose_type_a(g).parts == (frozenset(range(10)),)
    assert calls == 1


def test_structure_pass_reuses_the_verdict_and_the_bicliques(monkeypatch):
    # the per-graph analysis of the structure benchmark on EX10 and a seeded
    # tree graph: after recognize, decompose runs no recognition kernel on a
    # component, and the dominating-biclique search and decompose list the
    # biclique masks once per component between them
    kernel_calls, biclique_calls = [], []
    kernel = qbmg.axioms.is_qbmg_masks
    lister = qbmg.bicliques.maximal_biclique_masks
    monkeypatch.setattr(qbmg.axioms, "is_qbmg_masks",
                        lambda *args: kernel_calls.append(1) or kernel(*args))
    monkeypatch.setattr(qbmg.bicliques, "maximal_biclique_masks",
                        lambda *args: biclique_calls.append(1) or lister(*args))
    rng = random.Random(4)  # components of 3, 5 and 7 vertices
    tree = tree_from_nested(random_nested(rng, [f"x{j}" for j in range(16)]))
    sigma = random_surjective_coloring(rng, tree.leaves)
    tree_graph = qbmg_from_tree(tree, sigma, random_truncation(rng, tree, sigma))
    checked = 0
    for g in (build_digraph(EX10.n, EX10.colors, EX10.edges, EX10.names), tree_graph):
        assert recognize(g).is_qbmg
        for comp in weak_components(g):
            if len(comp) < 2:
                continue
            sub, _ = induced_subdigraph(g, comp)
            und = underlying(sub)
            kernel_calls.clear()
            biclique_calls.clear()
            find_induced_path(und, 4)
            find_induced_path(und, 5)
            assert find_induced_path(und, 6) is None and find_induced_cycle(und, 6) is None
            # the search itself, besides the theorem kept on und
            assert find_induced_path_masks(und.adj_masks, und.n, 6) is None
            assert find_induced_cycle_masks(und.adj_masks, und.n, 6) is None
            assert find_dominating_biclique(und) is not None
            assert decompose_type_a(sub).parts == (frozenset(range(sub.n)),)
            assert (len(kernel_calls), len(biclique_calls)) == (0, 1)
            checked += 1
    assert checked == 4


def test_decompose_rejects_unrecognized():
    g = build_digraph(4, (1, 0, 1, 0), [(0, 1), (1, 2), (2, 3)])
    with pytest.raises(NotQbmg):
        decompose_type_a(g)
    assert underlying(g).is_connected() and not is_type_a(g)


def test_decompose_rejects_disconnected():
    g = build_digraph(4, (0, 1, 0, 1), [(0, 1), (2, 3)])
    with pytest.raises(Disconnected):
        decompose_type_a(g)


def test_decompose_parts_replay():
    for g in (EX10, P5A1, P5AB):
        result = decompose_type_a(g)
        covered: set[int] = set()
        for part in result.parts:
            assert not (covered & part)
            covered |= part
            sub, _ = induced_subdigraph(g, part)
            assert is_type_a(sub)
        assert covered == set(range(g.n))


def test_decompose_checks_the_one_part_is_k_plus_s(monkeypatch):
    # the one-part result rests on the lemma in qbmg.decompose; a connected
    # graph without the lemma's witness must raise rather than return the
    # part.  An oriented P6 is connected, fails recognition, and no vertex
    # is adjacent to all three of the other color, so it reaches the guard
    # once recognition is made to pass it.
    p6 = build_digraph(6, [i % 2 for i in range(6)], [(i, i + 1) for i in range(5)])
    assert not is_qbmg(p6) and underlying(p6).is_connected()
    monkeypatch.setattr(qbmg.decompose, "is_qbmg", lambda g: True)
    with pytest.raises(AssertionError):
        decompose_type_a(p6)
    for g in (EX10, P5A1, P5AB):
        assert decompose_type_a(g).parts == (frozenset(range(g.n)),)


def test_tree_graph_components_have_a_vertex_adjacent_to_the_other_color():
    # the lemma in qbmg.decompose, on seeded tree graphs with random truncations
    rng = random.Random(7)
    checked = 0
    for i in range(1000):
        names = [f"x{j}" for j in range(6 + i % 35)]
        tree = tree_from_nested(random_nested(rng, names))
        sigma = random_surjective_coloring(rng, tree.leaves)
        g = qbmg_from_tree(tree, sigma, random_truncation(rng, tree, sigma))
        for comp in weak_components(g):
            if len(comp) < 2:
                continue
            side = [0, 0]
            for v in comp:
                side[g.colors[v]] |= 1 << v
            assert any(g.adj_masks[v] == side[1 - g.colors[v]] for v in comp)
            checked += 1
    assert checked > 3000
