import pytest

import qbmg.decompose
import qbmg.digraph
from qbmg.cli import main
from qbmg.decompose import KosPartition, decompose_type_a, is_type_a, kos_partition
from qbmg.dgf import format_dgf
from qbmg.digraph import build_digraph, induced_subdigraph, underlying, weak_components
from qbmg.enumeration import cycle_template
from qbmg.errors import Disconnected, NotQbmg
from qbmg.fixtures import EX10, P5A1, P5AB


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
    monkeypatch.setattr(qbmg.decompose, "_component_masks", counted)
    # a fresh copy of EX10 (connected, type A), with no views kept on it yet
    g = build_digraph(EX10.n, EX10.colors, EX10.edges, EX10.names)
    assert weak_components(g) is underlying(g).components()
    assert is_type_a(g)
    assert decompose_type_a(g).parts == (frozenset(range(10)),)
    assert calls == 1


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


def test_peel_recursion_when_the_input_is_not_type_a(monkeypatch):
    # every connected recognized graph seen so far is type A, so peeling
    # goes past one part only when kos_partition is told the input is not K+S;
    # the second graph, a component of a seeded tree graph, leaves a
    # remainder of two components after the first peel
    cases = [
        (build_digraph(6, (0, 0, 0, 1, 1, 1), [(0, 4), (1, 3), (1, 4), (1, 5), (2, 3), (5, 0), (5, 2)]),
         [["v1", "v2", "v5", "v6"], ["v3", "v4"]]),
        (build_digraph(12, (1, 0, 1, 1, 0, 1, 1, 0, 0, 1, 1, 0), [
            (0, 1), (0, 4), (0, 7), (0, 8), (1, 2), (2, 1), (3, 4), (3, 7), (3, 8), (4, 5), (4, 6),
            (5, 7), (7, 5), (7, 6), (8, 9), (10, 1), (10, 4), (10, 7), (10, 8), (11, 0), (11, 2),
            (11, 3), (11, 5), (11, 6), (11, 9), (11, 10)]),
         [["v1", "v11", "v12", "v4", "v5", "v6", "v7", "v8"], ["v2", "v3"], ["v10", "v9"]]),
    ]
    real = qbmg.decompose.kos_partition
    for g, expected in cases:
        monkeypatch.setattr(
            qbmg.decompose, "kos_partition", lambda u, g=g: None if u is underlying(g) else real(u))
        result = decompose_type_a(g)  # internal per-step assertions must not fire
        assert [sorted(g.names[v] for v in part) for part in result.parts] == expected
        for part in result.parts:
            assert is_type_a(induced_subdigraph(g, part)[0])
