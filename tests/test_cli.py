import hashlib
import json

import pytest

from helpers import caterpillar_newick, crown_graph
from qbmg.cli import main
from qbmg.dgf import format_dgf, parse_dgf
from qbmg.digraph import build_digraph, build_ugraph
from qbmg.enumeration import cycle_template
from qbmg.fixtures import ALL_FIXTURES, EX10, P5A, P5AB
from qbmg.orientation import topological_order


@pytest.fixture()
def ex10_file(tmp_path):
    path = tmp_path / "ex10.dgf"
    path.write_text(format_dgf(EX10), encoding="utf-8")
    return str(path)


def run_cli(capsys, *argv):
    code = main(list(argv))
    captured = capsys.readouterr()
    return code, captured.out, captured.err


def test_recognize_ex10(capsys, ex10_file):
    code, out, _ = run_cli(capsys, "recognize", ex10_file)
    assert code == 0
    assert "is_qbmg: yes" in out
    assert "is_bmg: no" in out
    assert "sinks: v8 v9 v10" in out


def test_recognize_json_matches_text_facts(capsys, ex10_file):
    code, out, _ = run_cli(capsys, "--json", "recognize", ex10_file)
    assert code == 0
    payload = json.loads(out)
    assert payload["is_qbmg"] is True
    assert payload["is_bmg"] is False
    assert payload["sinks"] == ["v8", "v9", "v10"]
    assert payload["witness"] is None


def test_analyze_p5a(capsys, tmp_path):
    path = tmp_path / "p5a.dgf"
    path.write_text(format_dgf(P5A), encoding="utf-8")
    code, out, _ = run_cli(capsys, "analyze", str(path))
    assert code == 0
    assert "P4-free: no (witness:" in out
    assert "P5-free: no (witness:" in out
    assert "P6-free: yes" in out
    assert "C4-free: yes" in out
    assert "C6-free: yes" in out


def test_analyze_custom_checks(capsys, tmp_path):
    path = tmp_path / "c6.dgf"
    path.write_text(format_dgf(cycle_template(6)), encoding="utf-8")
    code, out, _ = run_cli(capsys, "analyze", str(path), "--check", "c6,p3")
    assert code == 0
    assert "C6-free: no (witness: v1 v2 v3 v4 v5 v6)" in out
    assert "P3-free: no" in out


@pytest.mark.parametrize("check", ["p1200", "c1200"])
def test_analyze_search_too_long_is_bad_input(capsys, tmp_path, check):
    # the searches recurse once per placed vertex; the path templates stop
    # at 10 vertices, so the 1,500-vertex path is built here
    long_path = build_ugraph(1500, [i % 2 for i in range(1500)], [(i, i + 1) for i in range(1499)])
    path = tmp_path / "path.dgf"
    path.write_text(format_dgf(long_path), encoding="utf-8")
    code, out, err = run_cli(capsys, "analyze", str(path), "--check", check)
    assert code == 2
    assert out == ""
    assert err.startswith("error: ") and err.count("\n") == 1


def _count_argv(tmp_path, case: str, count: str) -> list[str]:
    """Arguments that pass ``count`` to the CLI as the given kind of count."""
    graph = tmp_path / "g.dgf"
    graph.write_text(format_dgf(P5A), encoding="utf-8")
    tree = tmp_path / "t.nwk"
    tree.write_text("((a=0,b=1),c=1);\n", encoding="utf-8")
    trunc = tmp_path / "u.map"
    trunc.write_text(f"a 1 {count}\n", encoding="utf-8")
    return {
        "all": ["enumerate", "--all", count],
        "template": ["enumerate", "--underlying", f"path:{count}"],
        "check": ["analyze", str(graph), "--check", f"p{count}"],
        "truncation": ["explain", "--tree", str(tree), "--trunc", str(trunc)],
    }[case]


@pytest.mark.parametrize("case", ["template", "check", "truncation"])
def test_non_ascii_digits_are_bad_input(capsys, tmp_path, case):
    # str.isdigit accepts the superscript two, which int rejects
    code, out, err = run_cli(capsys, *_count_argv(tmp_path, case, "\u00b2"))
    assert code == 2
    assert out == ""
    assert err.startswith("error: ") and err.count("\n") == 1


@pytest.mark.parametrize("case", ["all", "template", "check", "truncation"])
def test_oversized_counts_are_bad_input(capsys, tmp_path, case):
    # int() raises ValueError on a string of more than 4,300 digits
    code, out, err = run_cli(capsys, *_count_argv(tmp_path, case, "9" * 5000))
    assert code == 2
    assert out == ""
    assert err.startswith("error: ") and err.count("\n") == 1


def test_dominate_ex10(capsys, ex10_file):
    code, out, _ = run_cli(capsys, "dominate", ex10_file)
    assert code == 0
    assert "left: v1 v2 v3 v4" in out
    assert "right: v5 v6 v7 v8" in out


def test_dominate_none(capsys, tmp_path):
    path = tmp_path / "c6.dgf"
    path.write_text(format_dgf(cycle_template(6)), encoding="utf-8")
    code, out, _ = run_cli(capsys, "dominate", str(path))
    assert code == 0
    assert out.strip() == "none"


def test_decompose_ex10(capsys, ex10_file):
    code, out, _ = run_cli(capsys, "decompose", ex10_file)
    assert code == 0
    assert "part 1: v1 v2 v3 v4 v5 v6 v7 v8 v9 v10 (type-A: yes)" in out


@pytest.mark.parametrize("verb", ["dominate", "decompose"])
def test_crown_graph_is_bad_input(capsys, tmp_path, verb):
    # 2^17 - 2 maximal bicliques pass the |L|^2*|R|^2 bound, so dominate
    # stops with TooLarge; decompose rejects the graph at recognition first,
    # since a recognized graph is C6-free and stays below the bound
    crown = crown_graph(17)
    both_ways = build_digraph(
        crown.n, crown.colors, [e for a, b in crown.edges for e in ((a, b), (b, a))])
    path = tmp_path / "crown.dgf"
    path.write_text(format_dgf(both_ways), encoding="utf-8")
    code, out, err = run_cli(capsys, verb, str(path))
    assert code == 2
    assert out == ""
    assert err.startswith("error: ") and err.count("\n") == 1


def test_per_graph_verbs_pinned(capsys, tmp_path):
    # stdout and exit code of each verb on every fixture, text and --json
    pinned = {
        "recognize": ("43babacd0654ec8d6d359c81e84f8a89b90815c695909c4a188a9b20c4f5cf57",
                      "db30fb9de1ea5d11d9756187a8706dd01e50fdf96f8f8edd412b36adb9cfdb14"),
        "analyze": ("abbabfd1b36a455e0a442fa80993081e282e34d650b14846794e9910724b39bd",
                    "8aea8d6909b0e41ec0ace15caaefb2a12694abcb1a3f051183ee5dbb8795766e"),
        "dominate": ("94297dd2ce6153b1fa82033bb54123dd69b50b7195739fe8ea27dfea6fe8e034",
                     "da0b1892189a7ae7c376ffab47fe697705ae89c7569b6465b62ccaafeadbf03d"),
        "decompose": ("ff0975f9ed1e4438812f94af8116f49243cb181c701186fbf8533647a6d1f425",
                      "55b84e842ca4546fef177dd0c8f5821ed9d9dbc88109a49c59c616cc738ea173"),
        "orient": ("72085e0d8bbb19c6d8524738ccad06ff1ab6a85cb1e698a89c642f6d397fcd16",
                   "66bc14b79924eb3a3d8107723eef3dc90ea5b49daf0b504741eace318eb2e4e2"),
        "orient --all": ("8812b6264d08d3c6c77f9652a667672a9549d36a94a9369e72b18fa34238a7aa",
                         "6eafc59505cd47f8a781824b0a43ab32e76dd89210b12781e7584fdb64cd6fdc"),
    }
    files = {}
    for name, g in ALL_FIXTURES.items():
        files[name] = tmp_path / f"{name}.dgf"
        files[name].write_text(format_dgf(g), encoding="utf-8")
    digests = {}
    for verb in pinned:
        verb_argv = verb.split()
        digest = []
        for fmt in ((), ("--json",)):
            h = hashlib.sha256()
            for name, path in files.items():
                code, out, _ = run_cli(capsys, *fmt, verb_argv[0], str(path), *verb_argv[1:])
                h.update(f"{name} {code}\n{out}".encode())
            digest.append(h.hexdigest())
        digests[verb] = tuple(digest)
    assert digests == pinned


@pytest.mark.parametrize(("n", "colors", "edges", "text", "as_json"), [
    # the first graph all_bipartite_digraphs yields that fails on each axiom
    (4, (0, 0, 1, 1), [(0, 3), (1, 3), (2, 1)],  # witness N1 (2, 1, 3, 0)
     "4c70848d3b4df44eb477686aa24ad5634a08e8100c96952e0c176adf75173203",
     "bbdfe1346f58b3e505884387ba14e9fc39ef9f1091508d21f45521a746b63ff4"),
    (4, (0, 0, 1, 1), [(0, 3), (1, 2), (3, 1)],  # witness N2 (0, 3, 1, 2)
     "011919e58c176f6d9072b6f40002507a7d99195a12e46391e1a2f915ae8d8e62",
     "8e5e66f14671d58f9da40ad120199347318d746e7d879a3494bd75c4bc584a8f"),
    (5, (0, 0, 0, 1, 1), [(3, 1), (3, 2), (4, 0), (4, 2)],  # witness N3 (3, 4, 2)
     "a10000414862c38de0bd8d81c174d82df3126fd59dfad2832fddbed069afd6f6",
     "95c97b2384928fa0cdd0b4f328a5186e1193a5c7c22e2047535cb11d5bd6d612"),
], ids=["N1", "N2", "N3"])
def test_recognize_rejects_pinned(capsys, tmp_path, n, colors, edges, text, as_json):
    path = tmp_path / "reject.dgf"
    path.write_text(format_dgf(build_digraph(n, colors, edges)), encoding="utf-8")
    digests = []
    for fmt in ((), ("--json",)):
        code, out, _ = run_cli(capsys, *fmt, "recognize", str(path))
        assert code == 0
        digests.append(hashlib.sha256(out.encode()).hexdigest())
    assert digests == [text, as_json]


def test_orient_p5ab(capsys, tmp_path):
    path = tmp_path / "p5ab.dgf"
    path.write_text(format_dgf(P5AB), encoding="utf-8")
    code, out, _ = run_cli(capsys, "orient", str(path), "--all")
    assert code == 0
    assert "topological-order: v1 v3 v2 v4 v5" in out
    assert "orientations: 4" in out
    assert "all-acyclic: yes" in out


def test_orient_cyclic(capsys, tmp_path):
    from qbmg.digraph import build_digraph, build_ugraph

    g = build_digraph(4, (0, 1, 0, 1), [(0, 1), (1, 2), (2, 3), (3, 0)])
    path = tmp_path / "cycle.dgf"
    path.write_text(format_dgf(g), encoding="utf-8")
    code, out, _ = run_cli(capsys, "orient", str(path))
    assert code == 0
    assert "cyclic" in out


def test_enumerate_path5(capsys):
    code, out, _ = run_cli(capsys, "enumerate", "--underlying", "path:5")
    assert code == 0
    assert "classes: 6" in out
    blocks = [b for b in out.split("\n\n") if b.startswith("digraph")]
    assert len(blocks) == 6
    for block in blocks:
        g = parse_dgf(block + "\n")
        assert g.n == 5


def test_enumerate_all_three_vertices(capsys):
    code, out, _ = run_cli(capsys, "--json", "enumerate", "--all", "3")
    assert code == 0
    payload = json.loads(out)
    assert payload["class_count"] == 9  # every 3-vertex digraph is recognized
    assert payload["total_filtered"] == 98


def test_enumerate_all_zero_vertices(capsys):
    code, out, _ = run_cli(capsys, "enumerate", "--all", "0")
    assert code == 0
    assert out == "classes: 1\nfiltered: 1\n\ndigraph\n"


@pytest.mark.parametrize("n", ["-1", "-7"])
def test_enumerate_all_negative_is_bad_input(capsys, n):
    code, out, err = run_cli(capsys, "enumerate", "--all", n)
    assert code == 2
    assert out == ""
    assert err == f"error: --all needs a vertex count of at least 0, got {n}\n"


@pytest.mark.parametrize(
    "argv",
    [["--all", "\u0663"], ["--all", "\u00b3"], ["--all", "x"], ["--underlying", ""]],
    ids=["arabic-indic", "superscript", "letter", "empty-template"],
)
def test_enumerate_non_number_is_bad_input(capsys, argv):
    # int() reads the Arabic-Indic three as 3; vertex counts are ASCII digits
    code, out, err = run_cli(capsys, "enumerate", *argv)
    assert code == 2
    assert out == ""
    assert err.startswith("error: ") and err.count("\n") == 1


def test_enumerate_all_too_large_is_bad_input(capsys, monkeypatch):
    def fail(*args):
        raise AssertionError("work started before the size check")

    monkeypatch.setattr("qbmg.enumeration.run_mask_sweep", fail)
    code, out, err = run_cli(capsys, "enumerate", "--all", "7")
    assert code == 2
    assert out == ""
    assert err.startswith("error: ") and err.count("\n") == 1


@pytest.mark.parametrize("spec", ["cycle:3", "cycle:5", "cycle:2", "cycle:0"])
def test_enumerate_bad_cycle_length_is_bad_input(capsys, spec):
    code, out, err = run_cli(capsys, "enumerate", "--underlying", spec)
    assert code == 2
    assert out == ""
    assert err.startswith(f"error: bad template '{spec}'") and err.count("\n") == 1


def test_enumerate_template_too_large_is_bad_input(capsys, monkeypatch):
    def fail(*args, **kwargs):
        raise AssertionError("work started before the size check")

    monkeypatch.setattr("qbmg.digraph.product", fail)
    code, out, err = run_cli(capsys, "enumerate", "--underlying", "path:14")
    assert code == 2
    assert out == ""
    assert err.startswith("error: ") and err.count("\n") == 1


@pytest.mark.parametrize("spec", ["path:1000000000", "cycle:1000000000"])
def test_enumerate_huge_template_is_bad_input(capsys, monkeypatch, spec):
    def fail(*args, **kwargs):
        raise AssertionError("template built before the size check")

    monkeypatch.setattr("qbmg.enumeration.build_ugraph", fail)
    code, out, err = run_cli(capsys, "enumerate", "--underlying", spec)
    assert code == 2
    assert out == ""
    assert err.startswith("error: ") and err.count("\n") == 1


def test_orient_all_too_large_is_bad_input(capsys, monkeypatch, tmp_path):
    # a star whose center has a symmetric pair with each of 17 leaves
    leaves = range(1, 18)
    star = build_digraph(18, (0,) + (1,) * 17, [e for v in leaves for e in ((0, v), (v, 0))])
    path = tmp_path / "star.dgf"
    path.write_text(format_dgf(star), encoding="utf-8")
    checked = []

    def order_once(g):
        # the canonical orientation is checked first; a second call means
        # the sweep produced an orientation before the size check
        if checked:
            raise AssertionError("work started before the size check")
        checked.append(g)
        return topological_order(g)

    monkeypatch.setattr("qbmg.cli.topological_order", order_once)
    code, out, err = run_cli(capsys, "orient", str(path), "--all")
    assert code == 2
    assert out == ""
    assert err.startswith("error: ") and err.count("\n") == 1


def test_enumerate_requires_one_mode(capsys):
    code, _, err = run_cli(capsys, "enumerate")
    assert code == 2
    assert "exactly one" in err


def test_explain_three_leaves(capsys, tmp_path):
    tree = tmp_path / "t.nwk"
    tree.write_text("((a=0,b=1),c=1);\n", encoding="utf-8")
    code, out, _ = run_cli(capsys, "explain", "--tree", str(tree))
    assert code == 0
    g = parse_dgf(out)
    assert g.named_edges() == {("a", "b"), ("b", "a"), ("c", "a")}


def test_explain_with_truncation(capsys, tmp_path):
    tree = tmp_path / "t.nwk"
    tree.write_text("((a=0,b=1),c=1);\n", encoding="utf-8")
    trunc = tmp_path / "u.map"
    # node id of leaf c is 4 in preorder (root, inner, a, b, c)
    trunc.write_text("c 0 4\n", encoding="utf-8")
    code, out, _ = run_cli(capsys, "explain", "--tree", str(tree), "--trunc", str(trunc))
    assert code == 0
    g = parse_dgf(out)
    assert g.named_edges() == {("a", "b"), ("b", "a")}


def test_explain_deep_caterpillar(capsys, tmp_path):
    # one color-1 leaf at the bottom: each leaf has a single best match
    n = 1200
    tree = tmp_path / "t.nwk"
    tree.write_text(caterpillar_newick([0] * (n - 1) + [1]) + "\n", encoding="utf-8")
    code, out, err = run_cli(capsys, "explain", "--tree", str(tree))
    assert code == 0
    assert err == ""
    assert len(parse_dgf(out).edges) == n


@pytest.mark.parametrize("tail", [")" * 3000 + ";", ";"], ids=["closed", "unclosed"])
def test_explain_deep_single_child_nest_is_bad_input(capsys, tmp_path, tail):
    tree = tmp_path / "t.nwk"
    tree.write_text("(" * 3000 + "a=0" + tail + "\n", encoding="utf-8")
    code, out, err = run_cli(capsys, "explain", "--tree", str(tree))
    assert code == 2
    assert out == ""
    assert err.startswith("error: ")
    assert err.count("\n") == 1


def test_verify_passes(capsys):
    code, out, _ = run_cli(capsys, "verify")
    assert code == 0
    lines = [l for l in out.splitlines() if l]
    assert all(l.startswith("PASS") for l in lines)
    assert any("ex7-induced-class" in l and "FLAG" in l for l in lines)


def test_verify_json(capsys):
    code, out, _ = run_cli(capsys, "--json", "verify")
    assert code == 0
    payload = json.loads(out)
    assert payload["all_passed"] is True
    assert len(payload["checks"]) == 8


def test_parse_error_exit_code(capsys, tmp_path):
    path = tmp_path / "bad.dgf"
    path.write_text("digraph\nv a 2\n", encoding="utf-8")
    code, _, err = run_cli(capsys, "recognize", str(path))
    assert code == 2
    assert "line 2" in err


def test_missing_file_exit_code(capsys):
    code, _, err = run_cli(capsys, "recognize", "/nonexistent/file.dgf")
    assert code == 2
    assert "error" in err


@pytest.mark.parametrize("verb", ["recognize", "explain"])
def test_non_utf8_input_is_bad_input(capsys, tmp_path, verb):
    path = tmp_path / "latin1.txt"
    path.write_bytes("digraph\nv \xe9 0\n".encode("latin-1"))
    argv = [verb, str(path)] if verb == "recognize" else [verb, "--tree", str(path)]
    code, out, err = run_cli(capsys, *argv)
    assert code == 2
    assert out == ""
    assert err == f"error: {path}: not valid UTF-8 text\n"


def test_emitted_dgf_round_trips_identically(capsys, ex10_file):
    # the decompose report echoes nothing, but enumerate emits DGF blocks;
    # re-parsing and re-emitting them is byte-stable
    code, out, _ = run_cli(capsys, "enumerate", "--underlying", "path:4")
    assert code == 0
    for block in out.split("\n\n"):
        if block.startswith("digraph"):
            text = block.strip("\n") + "\n"
            assert format_dgf(parse_dgf(text)) == text


def test_json_and_text_carry_same_facts(capsys, ex10_file):
    _, text_out, _ = run_cli(capsys, "dominate", ex10_file)
    _, json_out, _ = run_cli(capsys, "--json", "dominate", ex10_file)
    payload = json.loads(json_out)
    assert f"left: {' '.join(payload['biclique']['left'])}" in text_out
    assert f"right: {' '.join(payload['biclique']['right'])}" in text_out
