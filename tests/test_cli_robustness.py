"""The CLI's exit-code contract on corrupted input.

Every verb that reads a file is driven in process with damaged DGF text,
raw bytes, damaged Newick trees and damaged truncation maps.  Each run must
exit 0 with nothing on stderr, or exit 2 with exactly one stderr line that
starts with ``error:``; no exception may escape ``main``.
"""

import contextlib
import io

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from qbmg.cli import main
from qbmg.dgf import format_dgf
from qbmg.enumeration import cycle_template
from qbmg.fixtures import ALL_FIXTURES

GRAPH_SEEDS = [format_dgf(g) for g in ALL_FIXTURES.values()] + [format_dgf(cycle_template(6))]
# a tree with a truncation map that is valid for it, or with none
EXPLAIN_SEEDS = [
    ("((a=0,b=1),c=1);\n", "c 0 4\n"),
    ("(((a=0,b=1),(c=0,d=1)),e=0);\n", "a 1 1\n# comment\ne 1 0\n"),
    ("(a=0,b=1);\n", None),
]

# fragments that keep a corruption close to the grammar, so it reaches the
# validation behind the tokenizer as well as the tokenizer itself
FRAGMENTS = [
    "\n", " ", "#", "v", "e", "z", "0", "1", "2", "-1", "²", "999999999999", "digraph",
    "ugraph", "v1", "v2", "e v1 v2\n", "v x 0\n", "v y 1\n", "(", ")", ",", ";", "=",
    "a=0", "b=1", "\t", "\x00",
]

GRAPH_VERBS = [
    ["recognize"],
    ["analyze"],
    ["dominate"],
    ["decompose"],
    ["orient"],
    ["orient", "--all"],
]
CHECK_SPECS = st.one_of(
    st.sampled_from(["p4,p5,p6,c4,c6", "p2", "p6,c6", "c3", "p6,,c4", "P4 , C4"]),
    st.sampled_from(["p1", "p65", "p²", "q4", ",", ""]),
    st.text(alphabet="pc0123456789², -", max_size=8),
)


@st.composite
def corrupted(draw, text):
    """The text after one to three random edits."""
    for _ in range(draw(st.integers(1, 3))):
        i = draw(st.integers(0, len(text)))
        j = draw(st.integers(i, min(len(text), i + 12)))
        edit = draw(st.sampled_from(["drop line", "delete", "insert", "replace", "truncate", "duplicate"]))
        if edit == "drop line":  # dropping an edge line leaves another valid graph
            text = text[:text.rfind("\n", 0, i) + 1] + text[i:].partition("\n")[2]
        elif edit == "delete":
            text = text[:i] + text[j:]
        elif edit == "insert":
            text = text[:i] + draw(st.sampled_from(FRAGMENTS) | st.text(max_size=4)) + text[i:]
        elif edit == "replace":
            text = text[:i] + draw(st.sampled_from(FRAGMENTS)) + text[j:]
        elif edit == "truncate":
            text = text[:i]
        else:
            text = text[:j] + text[i:j] + text[j:]
    return text


def file_bytes(text):
    """The text itself, the text corrupted (as UTF-8, where a lone surrogate
    makes it undecodable), or raw bytes."""
    encoded = (st.just(text) | corrupted(text)).map(lambda t: t.encode("utf-8", "surrogatepass"))
    return encoded | st.binary(max_size=64)


def run_and_check(argv):
    out, err = io.StringIO(), io.StringIO()
    with contextlib.redirect_stdout(out), contextlib.redirect_stderr(err):
        code = main(argv)
    if code == 0:
        assert err.getvalue() == "", argv
    else:
        assert code == 2, argv
        lines = err.getvalue().splitlines(keepends=True)
        assert len(lines) == 1 and lines[0].startswith("error:") and lines[0].endswith("\n"), argv


@pytest.fixture(scope="module")
def workdir(tmp_path_factory):
    return tmp_path_factory.mktemp("corrupted")


@settings(max_examples=300, deadline=None)
@given(
    data=st.sampled_from(GRAPH_SEEDS).flatmap(file_bytes),
    verb=st.sampled_from(GRAPH_VERBS),
    check=CHECK_SPECS,
    as_json=st.booleans(),
)
def test_graph_verbs_keep_the_exit_code_contract(workdir, data, verb, check, as_json):
    path = workdir / "graph.dgf"
    path.write_bytes(data)
    argv = [verb[0], str(path), *verb[1:]]
    if verb[0] == "analyze":
        argv.append(f"--check={check}")  # the = form keeps a leading '-' a value
    run_and_check((["--json"] if as_json else []) + argv)


@st.composite
def explain_inputs(draw):
    tree, truncation = draw(st.sampled_from(EXPLAIN_SEEDS))
    if truncation is None:
        truncation = draw(st.none() | st.sampled_from([t for _, t in EXPLAIN_SEEDS if t]))
    return draw(file_bytes(tree)), None if truncation is None else draw(file_bytes(truncation))


@settings(max_examples=200, deadline=None)
@given(inputs=explain_inputs(), as_json=st.booleans())
def test_explain_keeps_the_exit_code_contract(workdir, inputs, as_json):
    tree, truncation = inputs
    tree_path = workdir / "tree.nwk"
    tree_path.write_bytes(tree)
    argv = ["explain", "--tree", str(tree_path)]
    if truncation is not None:
        trunc_path = workdir / "trunc.map"
        trunc_path.write_bytes(truncation)
        argv += ["--trunc", str(trunc_path)]
    run_and_check((["--json"] if as_json else []) + argv)
