import gc
import hashlib
import io
import json
from collections import Counter
from contextlib import redirect_stdout
from itertools import permutations, product

import pytest

import qbmg.enumeration
from helpers import relabel
from qbmg.axioms import is_qbmg_masks, recognize
from qbmg.cli import main
from qbmg.dgf import format_dgf
from qbmg.digraph import (
    build_ugraph,
    canonical_form,
    canonical_order,
    identity_levels,
    ugraph_canonical_form,
    underlying,
)
from qbmg.enumeration import (
    all_bipartite_digraphs,
    classify_all_qbmgs,
    classify_qbmgs,
    cycle_template,
    halved_colorings,
    orientations_of,
    path_template,
    run_mask_sweep,
    verify_paper_counts,
)
from qbmg.errors import TooLarge
from qbmg.fixtures import C4_CLASSES, P4_CLASSES, P5_CLASSES


def test_orientations_counts():
    assert sum(1 for _ in orientations_of(path_template(5))) == 81
    assert sum(1 for _ in orientations_of(cycle_template(4))) == 81
    single = build_ugraph(2, (0, 1), [(0, 1)])
    assert sum(1 for _ in orientations_of(single)) == 3


def test_orientations_preserve_underlying():
    template = path_template(4)
    for g in orientations_of(template):
        assert underlying(g) == template


def test_all_bipartite_digraph_counts():
    assert sum(1 for _ in all_bipartite_digraphs(1)) == 2
    assert sum(1 for _ in all_bipartite_digraphs(2)) == 10
    assert sum(1 for _ in all_bipartite_digraphs(3)) == 98


def test_orientations_of_too_large():
    # the templates stop at the same bound, so only another graph reaches this check
    star = build_ugraph(11, (0,) + (1,) * 10, [(0, v) for v in range(1, 11)])
    with pytest.raises(TooLarge):
        next(orientations_of(star))


def test_all_bipartite_digraphs_too_large():
    with pytest.raises(TooLarge):
        next(all_bipartite_digraphs(7))
    with pytest.raises(TooLarge):
        classify_all_qbmgs(7)


def test_run_mask_sweep_leaves_no_garbage():
    def visit(out, inn):
        pass

    was_enabled = gc.isenabled()
    gc.disable()
    try:
        gc.collect()
        assert run_mask_sweep((0, 1, 1), visit) == 16
        assert gc.collect() == 0
    finally:
        if was_enabled:
            gc.enable()


def test_halved_colorings():
    assert list(halved_colorings(0)) == [()]
    assert list(halved_colorings(1)) == [(0,)]
    assert list(halved_colorings(3)) == [(0, 0, 0), (0, 0, 1), (0, 1, 0), (0, 1, 1)]
    zero = classify_all_qbmgs(0)
    assert (zero.count, zero.total_filtered) == (1, 1)


def test_run_mask_sweep_keep_sees_induced_prefixes():
    colors = (0, 1, 1, 0, 1)
    calls = []

    def keep(m, out, inn):
        calls.append(m)
        for v in range(len(colors)):
            if v >= m:
                assert out[v] == inn[v] == 0
            else:
                assert out[v] >> m == inn[v] >> m == 0
        return True

    visited = run_mask_sweep(colors, lambda out, inn: None, keep)
    # pairs (0,1) | (0,2) | (1,3) (2,3) | (0,4) (3,4), checked after each bar
    # and at the end
    assert visited == 4 ** 6
    assert Counter(calls) == {2: 4, 3: 4 ** 2, 4: 4 ** 4, 5: 4 ** 6}


@pytest.mark.parametrize("n", range(6))
def test_pruned_sweep_visits_exactly_the_recognized_graphs(n):
    for colors in product((0, 1), repeat=n):
        accepted = Counter()
        pruned = Counter()

        def visit_all(out, inn):
            if is_qbmg_masks(n, out, inn):
                accepted[tuple(out)] += 1

        def visit_kept(out, inn):
            pruned[tuple(out)] += 1

        run_mask_sweep(colors, visit_all)
        assert run_mask_sweep(colors, visit_kept, is_qbmg_masks) == sum(pruned.values())
        assert pruned == accepted


@pytest.mark.parametrize("n", range(5))
def test_classify_all_matches_labeled_reference(n):
    fast = classify_all_qbmgs(n)
    ref = classify_qbmgs(all_bipartite_digraphs(n))
    assert fast.total_filtered == ref.total_filtered
    assert [form.code for form, _ in fast.classes] == [form.code for form, _ in ref.classes]
    assert [format_dgf(g) for _, g in fast.classes] == [format_dgf(g) for _, g in ref.classes]


# class count, filtered count and sha256 of ``--json enumerate --all n``
ALL_PINNED = {
    1: (1, 2, "d58577a38cb791934c235b7efc11df3396c6b81a85bd86315fe8de2cdca10891"),
    2: (3, 10, "0ad7de438bc0011aaaf82440a76b2eb11769897e10d2811f3a8d6ecac20c4176"),
    3: (9, 98, "a7a6cb6b86b608cb7cd9f8747e220a6c91ca7bc091b89402f16725133674aa80"),
    4: (36, 1_390, "ebc23aca61b43ea01fa92f2b22d481de9e32cc8ca0622d0d02d27832cc5379e1"),
    5: (137, 25_802, "4b7dd25071bfce4392e3f4a65dff2a47e610b34f001b6a4d7ff9b51e0b994a57"),
    6: (578, 598_390, "7ebc5fd56774b43ff641d017b75a434ea3525dcb552f063888d7f8df808fd9d0"),
}


@pytest.mark.parametrize("n", sorted(ALL_PINNED))
def test_classify_all_pinned(n):
    out = io.StringIO()
    with redirect_stdout(out):
        assert main(["--json", "enumerate", "--all", str(n)]) == 0
    text = out.getvalue()
    report = json.loads(text)
    classes, filtered, digest = ALL_PINNED[n]
    assert (report["class_count"], report["total_filtered"]) == (classes, filtered)
    assert hashlib.sha256(text.encode()).hexdigest() == digest


def _stdout_sha256(argv: list[str]) -> str:
    out = io.StringIO()
    with redirect_stdout(out):
        assert main(argv) == 0
    return hashlib.sha256(out.getvalue().encode()).hexdigest()


def test_verify_output_pinned():
    assert {fmt: _stdout_sha256([*fmt, "verify"]) for fmt in ((), ("--json",))} == {
        (): "d16aae98041796a384ce2ab0e3d1d32b9937598eed4eafc54a8add9fa68b6db5",
        ("--json",): "6431d34bbcd97d349129baec921654c1b5fba6fe3fc0c655597cdd68a5a2e85a",
    }


def test_enumerate_underlying_outputs_pinned():
    pinned = {
        "path:2": ("79546bdb928659281a80698f6aaaa19902595cd26cb2593e10b4f62b9d58ecf7",
                   "7c21b3025848d875d7bb555d27c7805c707d137bb15df85f3c65dcc862098ba8"),
        "path:3": ("db97901afdfc80f5bef33b35c7c07ed65de0e38bd48a8c507b94fcfbce77452b",
                   "ecce8770c70714fdce843d78dbc67eacdb5fb858b1dd3933609f0be29134f398"),
        "path:4": ("cbce8b5e96b91e6402ab33af78df113be613e036bd4c3318473ef92f0d1b791f",
                   "6bcecf3de43c4f57f8c477abc675aee1f42c0669892edac61120d2e4f5afc09d"),
        "path:5": ("16f32cc299a09dc713fc4352b97545cf9ce539341a066eec7d1f4702b6ffa8a5",
                   "e1f6b512c925a2c466ccce2a3d4392706e96702bab9e1cb06e88cf30682f5f72"),
        "path:6": ("9064a344edc826717f2802a09e5bfb4017f0ab5fc71511117211868e3ccaaeaf",
                   "21a702b86fdc388245b2f315f58f31b4497147d1691879feee58b2a55575e4bd"),
        "cycle:4": ("11e12426953dabf302d68546ef20313068591ed2b7650769fc01bbd06ef6592d",
                    "96e62194598f6e551de948a5c780be5c44425284237709339f711b80f252fbf4"),
        "cycle:6": ("9064a344edc826717f2802a09e5bfb4017f0ab5fc71511117211868e3ccaaeaf",
                    "b75b98ad0d35c85b89c2919d85f5f50881278101926afefebe2b2f27b9d81097"),
    }
    digests = {
        spec: tuple(_stdout_sha256([*fmt, "enumerate", "--underlying", spec])
                    for fmt in ((), ("--json",)))
        for spec in pinned
    }
    assert digests == pinned


@pytest.mark.parametrize("n", range(6))
def test_sorted_coloring_weights_are_exact(n):
    # classify_all_qbmgs sweeps only the sorted coloring per color-class size
    # and weights it by the colorings it stands for: every coloring must have
    # as many recognized edge sets as the sorted coloring with its number of
    # zeros, and as the one with its complement's number of zeros
    def recognized(colors):
        return run_mask_sweep(colors, lambda out, inn: None, is_qbmg_masks)

    by_zeros = [recognized((0,) * k + (1,) * (n - k)) for k in range(n + 1)]
    for colors in product((0, 1), repeat=n):
        zeros = colors.count(0)
        assert recognized(colors) == by_zeros[zeros] == by_zeros[n - zeros], colors


@pytest.mark.parametrize(("n", "classes"), [(4, 36), (5, 137)])
def test_classify_all_canonicalizes_once_per_class(monkeypatch, n, classes):
    calls = 0
    real = qbmg.enumeration.canonical_order

    def counted(n, rows, cols):
        nonlocal calls
        calls += 1
        return real(n, rows, cols)

    monkeypatch.setattr(qbmg.enumeration, "canonical_order", counted)
    result = classify_all_qbmgs(n)
    assert result.count == calls == classes


@pytest.mark.parametrize("n", range(6))
def test_classify_all_representatives_are_canonical_orbit_minima(n):
    # the representative is the member of its class with the least identity
    # levels: its canonical levels, found here again by scanning all n!
    # relabelings
    for form, rep in classify_all_qbmgs(n).classes:
        levels, _ = canonical_order(n, rep.out_masks, rep.in_masks)
        assert identity_levels(rep) == tuple(levels)
        assert form.code == canonical_form(rep).code
        orbit_min = min(identity_levels(relabel(rep, perm)) for perm in permutations(range(n)))
        assert identity_levels(rep) == orbit_min


def test_classify_p5_matches_fixtures():
    result = classify_qbmgs(orientations_of(path_template(5)))
    assert result.count == 6
    assert result.codes() == {canonical_form(g).code for g in P5_CLASSES.values()}


def test_classify_p4_matches_fixtures():
    result = classify_qbmgs(orientations_of(path_template(4)))
    assert result.count == 4
    assert result.codes() == {canonical_form(g).code for g in P4_CLASSES.values()}


def test_classify_c4_matches_fixtures():
    result = classify_qbmgs(orientations_of(cycle_template(4)))
    assert result.count == 10
    assert result.codes() == {canonical_form(g).code for g in C4_CLASSES.values()}


def test_classify_is_order_independent():
    graphs = list(orientations_of(path_template(5)))
    forward = classify_qbmgs(graphs)
    backward = classify_qbmgs(reversed(graphs))
    assert forward.codes() == backward.codes()
    assert [g.edges for _, g in forward.classes] == [g.edges for _, g in backward.classes]


def test_classify_representatives_replay():
    template = path_template(5)
    result = classify_qbmgs(orientations_of(template))
    assert result.count == 6
    for form, rep in result.classes:
        assert recognize(rep).is_qbmg
        assert canonical_form(rep).code == form.code
        assert ugraph_canonical_form(underlying(rep)) == ugraph_canonical_form(template)


def test_verify_report_all_pass():
    report = verify_paper_counts()
    assert report.all_passed
    names = [c.name for c in report.checks]
    assert names == [
        "path3-classification",
        "path4-classification",
        "path5-classification",
        "path6-freeness",
        "cycle4-classification",
        "cycle6-freeness",
        "three-vertex-recognition",
        "ex7-induced-class",
    ]


def test_verify_flags_ex7_discrepancy():
    report = verify_paper_counts()
    ex7 = next(c for c in report.checks if c.name == "ex7-induced-class")
    assert ex7.passed
    assert "P5a" in ex7.details
    assert "FLAG" in ex7.details
