"""Acceptance suite: one test per criterion, each printing a pass/fail line.

Run with ``pytest tests/test_acceptance.py -v -s``.  The exhaustive sweep
over bipartite digraphs on up to six labeled vertices is shared through the
session fixture in conftest; color-swapped colorings are skipped there since
they repeat identical edge sets, and per-edge-set properties are checked once
per distinct edge set.
"""

from __future__ import annotations

import random
import time
from itertools import combinations, product

from helpers import (
    brute_has_induced_path,
    connected_bipartite_reps,
    digraph_from_masks,
    naive_best_match_graph,
    naive_is_qbmg,
    random_nested,
    random_surjective_coloring,
    random_truncation,
)
from qbmg.axioms import is_hereditary_on, is_qbmg_masks, recognize
from qbmg.bicliques import Biclique, find_dominating_biclique, maximal_biclique_masks
from qbmg.decompose import decompose_type_a, kos_partition
from qbmg.digraph import (
    _twin_representatives,
    canonical_form,
    induced_subdigraph,
    iter_bits,
    underlying,
)
from qbmg.enumeration import (
    all_bipartite_digraphs,
    classify_qbmgs,
    cycle_template,
    halved_colorings,
    opposite_pairs,
    orientations_of,
    path_template,
)
from qbmg.fixtures import EX7, EX10, P5_CLASSES, C4_CLASSES, P4_CLASSES, P5AB, R4
from qbmg.orientation import (
    all_orientations,
    oriented_biclique_subdigraph,
    star_conditions,
    topological_order,
)
from qbmg.paths import (
    find_induced_cycle_masks,
    find_induced_path,
    find_induced_path_masks,
)
from qbmg.trees import (
    best_match_graph,
    qbmg_from_tree,
    root_truncation,
    search_explanation,
    tree_from_nested,
)


def _report(num: int, name: str, ok: bool, details: str) -> None:
    print(f"{'PASS' if ok else 'FAIL'} criterion {num:2d} ({name}): {details}")
    assert ok, f"criterion {num} ({name}) failed: {details}"


def test_c01_classification_counts():
    started = time.monotonic()
    jobs = [
        ("path:4", path_template(4), P4_CLASSES),
        ("path:5", path_template(5), P5_CLASSES),
        ("cycle:4", cycle_template(4), C4_CLASSES),
    ]
    ok = True
    parts = []
    for label, template, expected in jobs:
        result = classify_qbmgs(orientations_of(template))
        codes = {canonical_form(g).code for g in expected.values()}
        good = result.count == len(expected) and result.codes() == codes
        ok &= good
        parts.append(f"{label}={result.count}/{len(expected)}")
    for label, template in (("path:6", path_template(6)), ("cycle:6", cycle_template(6))):
        result = classify_qbmgs(orientations_of(template))
        ok &= result.count == 0
        parts.append(f"{label}={result.count}/0")
    p3 = classify_qbmgs(orientations_of(path_template(3)))
    ok &= p3.total_filtered == 9  # every orientation is recognized
    parts.append(f"path:3 filtered={p3.total_filtered}/9")
    elapsed = time.monotonic() - started
    ok &= elapsed < 1.0
    _report(1, "classification counts", ok, ", ".join(parts) + f"; {elapsed:.2f}s")


def test_c02_freeness_sweep(sweep):
    expected_total = 0
    for n in range(1, 7):
        for colors in halved_colorings(n):
            expected_total += 4 ** len(opposite_pairs(colors))
    violations = 0
    for rec in sweep.records:
        if find_induced_path_masks(rec.adj, rec.n, 6) is not None:
            violations += 1
        if find_induced_cycle_masks(rec.adj, rec.n, 6) is not None:
            violations += 1
    ok = (
        sweep.total_graphs == expected_total
        and violations == 0
        and sweep.elapsed_seconds < 300.0
    )
    _report(
        2,
        "exhaustive freeness sweep",
        ok,
        f"{sweep.total_graphs} graphs (one coloring per complement pair), "
        f"{sweep.recognized_labeled} recognized, {len(sweep.records)} distinct "
        f"edge sets, {violations} freeness violations; sweep {sweep.elapsed_seconds:.0f}s",
    )


def test_c03_three_vertex_proposition():
    total = 0
    good = 0
    for g in all_bipartite_digraphs(3):
        total += 1
        good += recognize(g).is_qbmg
    _report(3, "three-vertex recognition", good == total, f"{good}/{total} recognized")


def test_c04_hereditarity(sweep):
    checked = 0
    bad = 0
    for rec in sweep.by_n(1, 2, 3, 4, 5):
        g = digraph_from_masks(rec.n, rec.out, rec.colors)
        checked += 1
        if is_hereditary_on(g) is not None:
            bad += 1
    _report(
        4,
        "hereditarity",
        bad == 0 and checked > 0,
        f"{checked} distinct recognized graphs with n <= 5, {bad} hereditary failures",
    )


def test_c05_cograph_corollary(sweep):
    """Cograph corollary: a sink-free recognized graph has a P4-free
    underlying graph.  It holds for n <= 4 and fails from n = 5 on.  At
    n = 5 every counterexample lies in one isomorphism class, that of the
    reciprocal-ended path digraph P5ab: it is sink-free, recognized, the
    plain best-match graph of a tree, and its underlying graph is an
    induced P5.  The test asserts exactly this status; P5ab is checked with
    the naive oracles and a best-match replay rather than the code under
    test.  The true variant restricted to reciprocal graphs is
    test_c05_supplement_reciprocal_variant; the n <= 4 case is also
    tests/test_axioms.py::test_sink_free_qbmgs_have_cograph_underlying_n4."""
    p5ab_code = canonical_form(P5AB).code
    sink_free: dict[int, int] = {}
    bad: dict[int, int] = {}
    foreign_n5 = 0
    sample = None
    for rec in sweep.records:
        if not all(rec.out):
            continue  # has a sink
        sink_free[rec.n] = sink_free.get(rec.n, 0) + 1
        g = digraph_from_masks(rec.n, rec.out, rec.colors)
        if find_induced_path(underlying(g), 4) is None:
            continue
        bad[rec.n] = bad.get(rec.n, 0) + 1
        if rec.n == 5:
            if canonical_form(g).code != p5ab_code:
                foreign_n5 += 1
            if sample is None:
                sample = sorted(g.edges)
    small_bad = sum(bad.get(n, 0) for n in range(1, 5))

    p5ab_oracles = (
        naive_is_qbmg(P5AB)
        and {u for u, _ in P5AB.edges} == set(range(P5AB.n))  # no sink
        and brute_has_induced_path(underlying(P5AB), 4)
    )
    witness = search_explanation(P5AB, 5)
    p5ab_is_bmg = False
    if witness is not None:
        bmg = best_match_graph(witness[0], witness[1])
        p5ab_is_bmg = bmg.named_edges() == P5AB.named_edges() and {
            bmg.names[v]: bmg.colors[v] for v in range(bmg.n)
        } == {P5AB.names[v]: P5AB.colors[v] for v in range(P5AB.n)}

    ok = (
        sum(sink_free.get(n, 0) for n in range(1, 5)) > 0
        and small_bad == 0
        and bad.get(5, 0) > 0
        and foreign_n5 == 0
        and p5ab_oracles
        and p5ab_is_bmg
    )
    _report(
        5,
        "cograph corollary holds for n <= 4, refuted at n = 5 by P5ab only",
        ok,
        f"sink-free recognized graphs per n {dict(sorted(sink_free.items()))}, "
        f"{small_bad} with an induced P4 at n <= 4; n = 5: {bad.get(5, 0)} "
        f"counterexamples, {foreign_n5} outside the P5ab class (e.g. edges "
        f"{sample}); n = 6: {bad.get(6, 0)} counterexamples; P5ab naive "
        f"oracles {'hold' if p5ab_oracles else 'FAIL'}, best-match replay "
        f"{'matches' if p5ab_is_bmg else 'DIFFERS'}",
    )


def test_c05_supplement_reciprocal_variant(sweep):
    """The true version of the corollary: every reciprocal recognized graph
    (all edges symmetric) with n <= 6 has a P4-free underlying graph."""
    reciprocal = 0
    bad = 0
    for rec in sweep.records:
        if rec.out != rec.inn or not any(rec.out):
            continue
        reciprocal += 1
        g = digraph_from_masks(rec.n, rec.out, rec.colors)
        if find_induced_path(underlying(g), 4) is not None:
            bad += 1
    print(
        f"INFO criterion  5 supplement: {reciprocal} reciprocal recognized "
        f"graphs, {bad} with an induced P4"
    )
    assert bad == 0 and reciprocal > 0


def test_c06_ex10_pipeline():
    rep = recognize(EX10)
    und = underlying(EX10)
    biclique = find_dominating_biclique(und)
    part = kos_partition(und)
    decomposition = decompose_type_a(EX10)
    ok = (
        rep.is_qbmg
        and biclique is not None
        and biclique.left == frozenset(range(4))
        and biclique.right == frozenset(range(4, 8))
        and part is not None
        and part.s == frozenset({8, 9})
        and decomposition.parts == (frozenset(range(10)),)
    )
    _report(
        6,
        "ten-vertex example pipeline",
        ok,
        "recognized; dominating biclique v1..v4 | v5..v8; stable set v9,v10; "
        f"{len(decomposition.parts)} decomposition part(s)",
    )


def test_c07_ex7_pipeline():
    rep = recognize(EX7)
    sub, _ = induced_subdigraph(EX7, range(5))
    code = canonical_form(sub).code
    matches = [
        name for name, g in P5_CLASSES.items() if canonical_form(g).code == code
    ]
    ok = rep.is_qbmg and len(matches) == 1
    flag = "" if matches == ["P5a1"] else " [FLAG: differs from the stated class P5a1]"
    _report(
        7,
        "seven-vertex example pipeline",
        ok,
        f"recognized; induced class on v1..v5 = {matches[0] if matches else 'none'}{flag}",
    )


def test_c08_liu_zhou_equivalence():
    started = time.monotonic()
    levels = connected_bipartite_reps(7)
    checked = 0
    mismatches = 0
    for reps in levels.values():
        for g in reps:
            checked += 1
            free = (
                find_induced_path_masks(g.adj_masks, g.n, 6) is None
                and find_induced_cycle_masks(g.adj_masks, g.n, 6) is None
            )
            # single-vertex subgraphs are trivially dominated; bicliques need
            # an edge, so the scan starts at two-vertex subsets
            has_all = True
            for r in range(2, g.n + 1):
                for subset in combinations(range(g.n), r):
                    sub, _ = induced_subdigraph(g, subset)
                    if not sub.is_connected():
                        continue
                    if find_dominating_biclique(sub) is None:
                        has_all = False
                        break
                if not has_all:
                    break
            if free != has_all:
                mismatches += 1
    elapsed = time.monotonic() - started
    ok = mismatches == 0 and elapsed < 600.0
    _report(
        8,
        "dominating-biclique equivalence",
        ok,
        f"{checked} connected bipartite graphs (n <= 7, one per isomorphism class), "
        f"{mismatches} mismatches; {elapsed:.1f}s",
    )


def _count_bicliques(n: int, base: list[int], adj) -> tuple[int, int]:
    """(maximal bicliques, all bicliques) of a bipartite graph via closures."""
    full = (1 << n) - 1
    maximal = set()
    every = 0
    for sub in range(1, 1 << len(base)):
        tmask = 0
        common = full
        s = sub
        while s:
            low = s & -s
            s ^= low
            v = base[low.bit_length() - 1]
            tmask |= 1 << v
            common &= adj[v]
        if not common:
            continue
        every += (1 << common.bit_count()) - 1
        back = full
        c = common
        while c:
            low = c & -c
            c ^= low
            back &= adj[low.bit_length() - 1]
        if back == tmask:
            maximal.add((tmask, common))
    return len(maximal), every


def test_c09_prisner_bound():
    checked = 0
    violations = 0
    mismatches = 0
    total_all_bicliques = 0
    tight = 0
    for n in range(1, 8):
        for rest in product((0, 1), repeat=n - 1):
            colors = (0, *rest)
            left = [v for v in range(n) if colors[v] == 0]
            right = [v for v in range(n) if colors[v] == 1]
            pairs = [(u, v) for u in left for v in right]
            base = left if len(left) <= len(right) else right
            left_mask = sum(1 << v for v in left)
            right_mask = sum(1 << v for v in right)
            bound = len(left) ** 2 * len(right) ** 2
            for picks in product((0, 1), repeat=len(pairs)):
                adj = [0] * n
                for (u, v), on in zip(pairs, picks):
                    if on:
                        adj[u] |= 1 << v
                        adj[v] |= 1 << u
                if find_induced_cycle_masks(adj, n, 6) is not None:
                    continue
                checked += 1
                closures, every = _count_bicliques(n, base, adj)
                # the library's kernel counts; it would raise past the bound
                reps = _twin_representatives(adj, left_mask) | _twin_representatives(adj, right_mask)
                count = len(maximal_biclique_masks(adj, left_mask, right_mask, reps))
                if count != closures:
                    mismatches += 1
                total_all_bicliques += every
                if count > bound:
                    violations += 1
                if count == bound:
                    tight += 1
    ok = violations == 0 and mismatches == 0
    _report(
        9,
        "maximal-biclique bound",
        ok,
        f"{checked} C6-free bipartite graphs (n <= 7, one coloring per complement "
        f"pair), {violations} violations, bound tight on {tight}, {mismatches} "
        "Close-by-One counts unequal to the closure count; "
        f"all-bicliques total {total_all_bicliques} (reported, not bounded)",
    )


def test_c10_decomposition_theorem(sweep):
    checked = 0
    bad = 0
    for rec in sweep.records:
        if not rec.connected:
            continue
        g = digraph_from_masks(rec.n, rec.out, rec.colors)
        checked += 1
        if decompose_type_a(g).parts != (frozenset(range(rec.n)),):
            bad += 1
    _report(
        10,
        "decomposition theorem",
        bad == 0 and checked > 0,
        f"{checked} connected recognized graphs decomposed, {bad} not in one part "
        "(each has a vertex adjacent to the whole other color class, so it is "
        "type A: the lemma in qbmg.decompose)",
    )


def test_c10_supplement_vertex_adjacent_to_the_other_color(sweep):
    """The lemma behind c10: every connected recognized graph on n >= 2
    vertices has a vertex adjacent to the whole other color class."""
    checked = 0
    missing = 0
    for rec in sweep.records:
        if rec.n < 2 or not rec.connected:
            continue
        adj = rec.adj
        side = [0, 0]
        for v, c in enumerate(rec.colors):
            side[c] |= 1 << v
        checked += 1
        if not any(adj[v] == side[1 - rec.colors[v]] for v in range(rec.n)):
            missing += 1
    print(
        f"INFO criterion 10 supplement: {checked} connected recognized graphs, "
        f"{missing} without a vertex adjacent to the whole other color class"
    )
    assert missing == 0 and checked > 0


def test_c11_orientation_acyclicity(sweep):
    graphs = 0
    orientations = 0
    cyclic = 0
    for rec in sweep.records:
        inn = rec.inn
        _, star = rec.pairs_and_star
        starstar = len({(rec.out[v], inn[v]) for v in range(rec.n)}) == rec.n
        if not (star or starstar):
            continue
        graphs += 1
        g = digraph_from_masks(rec.n, rec.out, rec.colors)
        sc = star_conditions(g)
        assert (sc.star, sc.starstar) == (star, starstar)
        for variant in all_orientations(g):
            orientations += 1
            if topological_order(variant) is None:
                cyclic += 1
    ok = cyclic == 0 and graphs > 0
    _report(
        11,
        "orientation acyclicity",
        ok,
        f"{graphs} recognized graphs meeting a symmetric-edge condition, "
        f"{orientations} orientations swept, {cyclic} cyclic",
    )


def test_c12_biclique_replay(sweep):
    rng = random.Random(0)
    graphs = 0
    replays = 0
    failures = 0
    api_spot_checks = 0
    for rec in sweep.records:
        n = rec.n
        inn = rec.inn
        adj = rec.adj
        pairs, star = rec.pairs_and_star
        starstar = len({(rec.out[v], inn[v]) for v in range(n)}) == n
        if not (star or starstar):
            continue
        graphs += 1
        left = [v for v in range(n) if rec.colors[v] == 0]
        oriented = list(rec.out)
        for u, v in pairs:  # canonical orientation keeps small -> large
            oriented[v] &= ~(1 << u)
        full = (1 << n) - 1
        for tsub in range(1, 1 << len(left)):
            tmask = 0
            common = full
            s = tsub
            while s:
                low = s & -s
                s ^= low
                v = left[low.bit_length() - 1]
                tmask |= 1 << v
                common &= adj[v]
            if not common:
                continue
            rights = list(iter_bits(common))
            for zsub in range(1, 1 << len(rights)):
                zmask = 0
                zs = zsub
                while zs:
                    low = zs & -zs
                    zs ^= low
                    zmask |= 1 << rights[low.bit_length() - 1]
                both = tmask | zmask
                if any(both >> u & 1 and both >> v & 1 for u, v in pairs):
                    continue  # symmetric pair inside the biclique
                replays += 1
                members = list(iter_bits(both))
                index = {v: i for i, v in enumerate(members)}
                m = len(members)
                sub_out = [0] * m
                sub_in = [0] * m
                for u in members:
                    for v in iter_bits(oriented[u] & both):
                        sub_out[index[u]] |= 1 << index[v]
                        sub_in[index[v]] |= 1 << index[u]
                good = is_qbmg_masks(m, sub_out, sub_in)
                if not good:
                    failures += 1
                if rng.random() < 0.001:  # tie the mask path to the public op
                    api_spot_checks += 1
                    g = digraph_from_masks(n, rec.out, rec.colors)
                    b = Biclique(
                        frozenset(iter_bits(tmask)), frozenset(iter_bits(zmask))
                    )
                    sub = oriented_biclique_subdigraph(g, b)
                    assert recognize(sub).is_qbmg == good
    ok = failures == 0 and graphs > 0
    _report(
        12,
        "oriented biclique replay",
        ok,
        f"{graphs} recognized graphs, {replays} symmetric-pair-free bicliques "
        f"replayed, {failures} failures; {api_spot_checks} spot-checked via the "
        "public operation",
    )


def test_c12_supplement_dominating_biclique_bitournament(sweep):
    """Module invariant: for every connected recognized graph meeting the
    matching condition on symmetric pairs, the canonical orientation
    restricted to a dominating biclique is a bi-transitive bitournament."""
    from qbmg.orientation import bitournament_report

    checked = 0
    bad = 0
    for rec in sweep.records:
        if rec.n < 2:
            continue  # a biclique needs an edge; the claim is vacuous on K1
        if not rec.connected:
            continue
        _, star = rec.pairs_and_star
        if not star:
            continue
        g = digraph_from_masks(rec.n, rec.out, rec.colors)
        delta = find_dominating_biclique(underlying(g))
        if delta is None:
            bad += 1
            continue
        checked += 1
        sub = oriented_biclique_subdigraph(g, delta)
        if bitournament_report(sub) != (True, True):
            bad += 1
    print(
        f"INFO criterion 12 supplement: {checked} dominating bicliques oriented, "
        f"{bad} not bi-transitive bitournaments"
    )
    assert bad == 0 and checked > 0


def test_c13_tree_construction():
    rng = random.Random(0)
    names = [f"x{i}" for i in range(1, 11)]
    trials = 0
    failures = 0
    for _ in range(1000):
        size = rng.randint(2, 10)
        tree = tree_from_nested(random_nested(rng, names[:size]))
        sigma = random_surjective_coloring(rng, tree.leaves)
        u = random_truncation(rng, tree, sigma)
        g = qbmg_from_tree(tree, sigma, u)
        trials += 1
        if not recognize(g).is_qbmg:
            failures += 1
            continue
        bmg = naive_best_match_graph(tree, sigma)
        if g.edges - bmg.edges:
            failures += 1
            continue
        full = qbmg_from_tree(tree, sigma, root_truncation(tree, sigma))
        if full != bmg or not recognize(full).is_bmg:
            failures += 1
    _report(
        13,
        "tree construction",
        failures == 0 and trials == 1000,
        f"{trials} random (tree, coloring, truncation) triples, {failures} failures",
    )


def test_c14_explanation_search():
    started = time.monotonic()
    targets = {**P5_CLASSES, "R4": R4}
    missing = []
    for name, g in targets.items():
        witness = search_explanation(g, 5)
        if witness is None:
            missing.append(name)
            continue
        tree, sigma, trunc = witness
        replay = qbmg_from_tree(tree, sigma, trunc)
        same_edges = replay.named_edges() == g.named_edges()
        same_colors = {tree.names[l]: sigma[l] for l in tree.leaves} == {
            g.names[v]: g.colors[v] for v in range(g.n)
        }
        if not (same_edges and same_colors):
            missing.append(name)
    elapsed = time.monotonic() - started
    ok = not missing and elapsed < 600.0
    _report(
        14,
        "explanation search",
        ok,
        f"{len(targets)} target graphs explained with <= 5 leaves"
        + (f"; missing {missing}" if missing else "")
        + f"; {elapsed:.2f}s",
    )
