"""Command-line interface.

Verbs: recognize, analyze, dominate, decompose, orient, enumerate, explain,
verify.  Every report is built as a plain dict first and rendered either as
text or, with --json, as the same facts in JSON.  Exit codes: 0 success,
1 when ``verify`` finds a failing check, 2 on parse or validation errors.
"""

from __future__ import annotations

import argparse
import json
import sys
from pathlib import Path
from typing import Any

from . import dgf
from .axioms import recognize
from .bicliques import find_dominating_biclique
from .decompose import decompose_type_a
from .digraph import Digraph, UGraph, underlying
from .enumeration import (
    classify_all_qbmgs,
    classify_qbmgs,
    cycle_template,
    orientations_of,
    path_template,
    verify_paper_counts,
)
from .errors import ParseError, QbmgError
from .orientation import all_orientations, orient, topological_order
from .paths import find_induced_cycle, find_induced_path
from .trees import parse_tree, qbmg_from_tree, root_truncation, validate_truncation

DEFAULT_ANALYZE_CHECKS = "p4,p5,p6,c4,c6"


def _read_text(path: str) -> str:
    try:
        return Path(path).read_text(encoding="utf-8")
    except UnicodeDecodeError:
        raise ParseError(f"{path}: not valid UTF-8 text") from None


def _load_digraph(path: str) -> Digraph:
    g = dgf.parse_dgf(_read_text(path))
    if not isinstance(g, Digraph):
        raise ParseError(f"{path}: expected a digraph, got an undirected graph", 1)
    return g


def _load_graph(path: str) -> Digraph | UGraph:
    return dgf.parse_dgf(_read_text(path))


def _as_ugraph(g: Digraph | UGraph) -> UGraph:
    return underlying(g) if isinstance(g, Digraph) else g


def _parse_count(text: str, message: str, line: int | None = None) -> int:
    """``text`` as a count: ASCII digits (``isdigit`` also takes superscripts),
    at most the 4,300 that ``int`` converts.  Anything else is a ``ParseError``."""
    if not (text.isascii() and text.isdigit()):
        raise ParseError(message, line)
    try:
        return int(text)
    except ValueError:
        raise ParseError(f"a count of {len(text)} digits is too large", line) from None


def _names(g: Digraph | UGraph, vertices) -> list[str]:
    return [g.names[v] for v in sorted(vertices)]


def _emit(args: argparse.Namespace, report: dict[str, Any], text_lines: list[str]) -> None:
    if args.json:
        print(json.dumps(report, indent=2, sort_keys=True))
    else:
        for line in text_lines:
            print(line)


def _cmd_recognize(args: argparse.Namespace) -> int:
    g = _load_digraph(args.file)
    rep = recognize(g)
    witness = None
    if rep.witness is not None:
        witness = {
            "axiom": rep.witness.axiom,
            "vertices": [g.names[v] for v in rep.witness.vertices],
        }
    report = {
        "command": "recognize",
        "is_qbmg": rep.is_qbmg,
        "is_bmg": rep.is_bmg,
        "is_reciprocal": rep.is_reciprocal,
        "sinks": _names(g, rep.sinks),
        "symmetric_edges": rep.symmetric_edge_count,
        "witness": witness,
    }
    yn = lambda b: "yes" if b else "no"
    lines = [
        f"is_qbmg: {yn(rep.is_qbmg)}",
        f"is_bmg: {yn(rep.is_bmg)}",
        f"is_reciprocal: {yn(rep.is_reciprocal)}",
        f"sinks: {' '.join(report['sinks']) or '-'}",
        f"symmetric_edges: {rep.symmetric_edge_count}",
    ]
    if witness is None:
        lines.append("witness: none")
    else:
        lines.append(f"witness: {witness['axiom']} {' '.join(witness['vertices'])}")
    _emit(args, report, lines)
    return 0


def _parse_checks(spec: str) -> list[tuple[str, int]]:
    out = []
    for token in spec.split(","):
        token = token.strip().lower()
        if not token:
            continue
        kind, length = token[0], token[1:]
        message = f"bad check {token!r}; use forms like p6 or c4"
        if kind not in ("p", "c"):
            raise ParseError(message, 1)
        k = _parse_count(length, message, 1)
        if kind == "p" and k < 2 or kind == "c" and k < 3:
            raise ParseError(f"check {token!r} too short", 1)
        out.append((kind, k))
    if not out:
        raise ParseError("no checks requested", 1)
    return out


def _cmd_analyze(args: argparse.Namespace) -> int:
    g = _as_ugraph(_load_graph(args.file))
    checks = _parse_checks(args.check)
    results = []
    lines = []
    for kind, k in checks:
        if kind == "p":
            hit = find_induced_path(g, k)
            label = f"P{k}-free"
        else:
            hit = find_induced_cycle(g, k)
            label = f"C{k}-free"
        witness = None if hit is None else [g.names[v] for v in hit.vertices]
        results.append({"check": label, "free": hit is None, "witness": witness})
        if witness is None:
            lines.append(f"{label}: yes")
        else:
            lines.append(f"{label}: no (witness: {' '.join(witness)})")
    _emit(args, {"command": "analyze", "checks": results}, lines)
    return 0


def _cmd_dominate(args: argparse.Namespace) -> int:
    g = _as_ugraph(_load_graph(args.file))
    b = find_dominating_biclique(g)
    if b is None:
        _emit(args, {"command": "dominate", "biclique": None}, ["none"])
    else:
        report = {
            "command": "dominate",
            "biclique": {"left": _names(g, b.left), "right": _names(g, b.right)},
        }
        lines = [
            f"left: {' '.join(report['biclique']['left'])}",
            f"right: {' '.join(report['biclique']['right'])}",
        ]
        _emit(args, report, lines)
    return 0


def _cmd_decompose(args: argparse.Namespace) -> int:
    g = _load_digraph(args.file)
    result = decompose_type_a(g)
    parts = []
    lines = []
    # every part decompose_type_a emits is type A by construction
    for i, part in enumerate(result.parts, start=1):
        parts.append({"vertices": _names(g, part), "type_a": True})
        lines.append(f"part {i}: {' '.join(_names(g, part))} (type-A: yes)")
    _emit(args, {"command": "decompose", "parts": parts}, lines)
    return 0


def _cmd_orient(args: argparse.Namespace) -> int:
    g = _load_digraph(args.file)
    oriented = orient(g)
    order = topological_order(oriented)
    report: dict[str, Any] = {
        "command": "orient",
        "orientation_edges": [
            [g.names[u], g.names[v]] for u, v in oriented.sorted_edges()
        ],
        "topological_order": None if order is None else [g.names[v] for v in order],
    }
    lines = []
    if order is None:
        lines.append("cyclic")
    else:
        lines.append(f"topological-order: {' '.join(g.names[v] for v in order)}")
    if args.all:
        total = 0
        acyclic = 0
        for candidate in all_orientations(g):
            total += 1
            if topological_order(candidate) is not None:
                acyclic += 1
        report["orientations"] = total
        report["all_acyclic"] = acyclic == total
        lines.append(f"orientations: {total}")
        lines.append(f"all-acyclic: {'yes' if acyclic == total else 'no'}")
    _emit(args, report, lines)
    return 0


def _parse_template(spec: str) -> UGraph:
    kind, _, length = spec.partition(":")
    k = _parse_count(length, f"bad template {spec!r}; use path:<k> or cycle:<k>", 1)
    if kind == "path":
        return path_template(k)
    if kind == "cycle":
        if k < 4 or k % 2:
            raise ParseError(f"bad template {spec!r}; cycle lengths are even and at least 4", 1)
        return cycle_template(k)
    raise ParseError(f"unknown template kind {kind!r}", 1)


def _cmd_enumerate(args: argparse.Namespace) -> int:
    if (args.underlying is None) == (args.all is None):
        raise ParseError("enumerate needs exactly one of --underlying or --all", 1)
    if args.underlying is not None:
        template = _parse_template(args.underlying)
        result = classify_qbmgs(orientations_of(template))
        label = args.underlying
    else:
        n = _parse_count(args.all.removeprefix("-"), f"bad vertex count {args.all!r} for --all")
        if n and args.all.startswith("-"):
            raise ParseError(f"--all needs a vertex count of at least 0, got {args.all}")
        result = classify_all_qbmgs(n)
        label = f"all:{n}"
    classes = [
        {"code": form.code.hex(), "dgf": dgf.format_dgf(rep)}
        for form, rep in result.classes
    ]
    report = {
        "command": "enumerate",
        "template": label,
        "class_count": result.count,
        "total_filtered": result.total_filtered,
        "classes": classes,
    }
    lines = [f"classes: {result.count}", f"filtered: {result.total_filtered}"]
    for entry in classes:
        lines.append("")
        lines.append(entry["dgf"].rstrip("\n"))
    _emit(args, report, lines)
    return 0


def _load_truncation(path: str, tree, sigma) -> dict[tuple[int, int], int]:
    u = root_truncation(tree, sigma)
    for lineno, raw in enumerate(_read_text(path).splitlines(), 1):
        line = raw.split("#", 1)[0].strip()
        if not line:
            continue
        tokens = line.split()
        if len(tokens) != 3:
            raise ParseError("truncation line must be '<leaf> <color> <node-id>'", lineno)
        name, color_text, node_text = tokens
        if color_text not in ("0", "1"):
            raise ParseError(f"invalid color {color_text!r}", lineno)
        node = _parse_count(node_text, f"invalid node id {node_text!r}", lineno)
        try:
            leaf = tree.leaf_by_name(name)
        except KeyError:
            raise ParseError(f"unknown leaf {name!r}", lineno) from None
        u[(leaf, int(color_text))] = node
    validate_truncation(tree, sigma, u)
    return u


def _cmd_explain(args: argparse.Namespace) -> int:
    tree, sigma = parse_tree(_read_text(args.tree).strip())
    if args.trunc:
        u = _load_truncation(args.trunc, tree, sigma)
    else:
        u = root_truncation(tree, sigma)
    g = qbmg_from_tree(tree, sigma, u)
    text = dgf.format_dgf(g)
    _emit(args, {"command": "explain", "dgf": text}, [text.rstrip("\n")])
    return 0


def _cmd_verify(args: argparse.Namespace) -> int:
    report = verify_paper_counts()
    payload = {
        "command": "verify",
        "checks": [
            {"name": c.name, "passed": c.passed, "details": c.details}
            for c in report.checks
        ],
        "all_passed": report.all_passed,
    }
    lines = [
        f"{'PASS' if c.passed else 'FAIL'} {c.name}: {c.details}" for c in report.checks
    ]
    _emit(args, payload, lines)
    return 0 if report.all_passed else 1


def build_parser() -> argparse.ArgumentParser:
    parser = argparse.ArgumentParser(
        prog="qbmg",
        description="Recognition, analysis, decomposition, enumeration and "
        "tree-based construction of two-colored quasi-best-match graphs.",
    )
    parser.add_argument("--json", action="store_true", help="emit reports as JSON")
    sub = parser.add_subparsers(dest="verb", required=True)

    p = sub.add_parser("recognize", help="axiom check with witness")
    p.add_argument("file")
    p.set_defaults(func=_cmd_recognize)

    p = sub.add_parser("analyze", help="induced path/cycle freeness checks")
    p.add_argument("file")
    p.add_argument("--check", default=DEFAULT_ANALYZE_CHECKS,
                   help=f"comma list like p6,c4 (default {DEFAULT_ANALYZE_CHECKS})")
    p.set_defaults(func=_cmd_analyze)

    p = sub.add_parser("dominate", help="find a dominating biclique")
    p.add_argument("file")
    p.set_defaults(func=_cmd_dominate)

    p = sub.add_parser("decompose", help="type-A vertex decomposition")
    p.add_argument("file")
    p.set_defaults(func=_cmd_decompose)

    p = sub.add_parser("orient", help="canonical orientation and topological order")
    p.add_argument("file")
    p.add_argument("--all", action="store_true",
                   help="sweep all orientations and report acyclicity")
    p.set_defaults(func=_cmd_orient)

    p = sub.add_parser("enumerate", help="classify small digraphs up to isomorphism")
    p.add_argument("--underlying", metavar="KIND:K",
                   help="template-constrained: path:5, cycle:4, ...")
    p.add_argument("--all", metavar="N",
                   help="every bipartite digraph on N labeled vertices")
    p.set_defaults(func=_cmd_enumerate)

    p = sub.add_parser("explain", help="construct the graph a tree explains")
    p.add_argument("--tree", required=True, help="Newick-subset tree file")
    p.add_argument("--trunc", help="truncation map file")
    p.set_defaults(func=_cmd_explain)

    p = sub.add_parser("verify", help="run the built-in classification checks")
    p.set_defaults(func=_cmd_verify)

    return parser


def main(argv: list[str] | None = None) -> int:
    parser = build_parser()
    args = parser.parse_args(argv)
    try:
        return args.func(args)
    except (QbmgError, OSError) as exc:
        print(f"error: {exc}", file=sys.stderr)
        return 2


if __name__ == "__main__":
    sys.exit(main())
