import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from qbmg.dgf import format_dgf, parse_dgf
from qbmg.digraph import Digraph, UGraph, build_digraph, build_ugraph, underlying
from qbmg.errors import ParseError
from qbmg.fixtures import ALL_FIXTURES, EX10, P5AB


def test_round_trip_all_fixtures():
    for name, g in ALL_FIXTURES.items():
        text = format_dgf(g)
        back = parse_dgf(text)
        assert isinstance(back, Digraph)
        assert back == g, name
        assert format_dgf(back) == text  # byte stable


@pytest.mark.parametrize("name", ["a b", "a#1", ""])
def test_format_refuses_names_dgf_cannot_carry(name):
    # a name that is empty or holds whitespace or '#' would not re-parse
    for names, bad in (((name, "c"), 0), (("c", name), 1)):
        for g in (build_digraph(2, (0, 1), [(0, 1)], names=names),
                  build_ugraph(2, (0, 1), [(0, 1)], names=names)):
            with pytest.raises(ValueError, match=f"vertex {bad} "):
                format_dgf(g)


def test_round_trip_ugraph():
    u = underlying(P5AB)
    text = format_dgf(u)
    back = parse_dgf(text)
    assert isinstance(back, UGraph)
    assert back == u


def test_parse_comments_and_blank_lines():
    text = """# leading comment
digraph

v a 0   # trailing comment
v b 1
e a b
"""
    g = parse_dgf(text)
    assert g.names == ("a", "b") and g.edges == {(0, 1)}


def test_parse_errors_carry_line_numbers():
    cases = [
        ("graph\n", "expected"),
        ("digraph\nv a 2\n", "color"),
        ("digraph\nv a 0\nv a 1\n", "re-declared"),
        ("digraph\nv a 0\ne a b\n", "undeclared"),
        ("digraph\nv a 0\nv b 1\ne a b\ne a b\n", "repeated"),
        ("digraph\nv a 0\ne a a\n", "loop"),
        ("digraph\nv a 0\nv b 0\ne a b\n", "equal colors"),
        ("digraph\nw a 0\n", "unknown directive"),
        ("digraph\nv a\n", "vertex line"),
    ]
    for text, fragment in cases:
        with pytest.raises(ParseError) as info:
            parse_dgf(text)
        assert fragment in str(info.value), text
        assert info.value.line is not None


@pytest.mark.parametrize("text", ["", "# only a comment\n\n  # and another\n"])
def test_input_without_a_header_is_empty_at_no_line(text):
    with pytest.raises(ParseError) as info:
        parse_dgf(text)
    assert str(info.value) == "empty input"
    assert info.value.line is None


def test_ugraph_duplicate_detection_is_unordered():
    text = "ugraph\nv a 0\nv b 1\ne a b\ne b a\n"
    with pytest.raises(ParseError):
        parse_dgf(text)


def test_format_is_sorted_and_deterministic():
    text = format_dgf(EX10)
    lines = text.splitlines()
    assert lines[0] == "digraph"
    vertex_lines = [l for l in lines if l.startswith("v ")]
    assert vertex_lines == [f"v v{i + 1} {EX10.colors[i]}" for i in range(10)]
    edge_lines = [l for l in lines if l.startswith("e ")]
    assert edge_lines == sorted(edge_lines, key=lambda l: [int(x[1:]) for x in l.split()[1:]])


# a name is one token: no whitespace, line break, control character or '#'
NAMES = st.text(
    st.characters(exclude_categories=("Z", "C"), exclude_characters="#"),
    min_size=1, max_size=4)


@st.composite
def two_colored_graphs(draw, directed):
    n = draw(st.integers(0, 8))
    colors = draw(st.lists(st.sampled_from((0, 1)), min_size=n, max_size=n))
    names = draw(st.lists(NAMES, min_size=n, max_size=n, unique=True))
    edges = []
    for v in range(n):
        for u in range(v):
            if colors[u] == colors[v]:
                continue
            state = draw(st.integers(0, 3 if directed else 1))
            if state & 1:
                edges.append((u, v))
            if state & 2:
                edges.append((v, u))
    build = build_digraph if directed else build_ugraph
    return build(n, colors, edges, names)


@settings(max_examples=150, deadline=None)
@given(st.booleans().flatmap(two_colored_graphs))
def test_round_trip_random_graphs(g):
    assert parse_dgf(format_dgf(g)) == g
