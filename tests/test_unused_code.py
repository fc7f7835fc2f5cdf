"""Static checks on the package source: every import is used, every
function, method and class is named somewhere besides its definition, and
every public top-level function and class is reached from outside the unit
tests."""

import ast
import re
from collections import Counter
from pathlib import Path

ROOT = Path(__file__).resolve().parent.parent
PACKAGE = ROOT / "src" / "qbmg"
SEARCHED = ("src", "tests", "perfbench")
# what a public definition must be named from: the package itself, the
# benchmark and the acceptance suite with its fixtures and oracles, but no
# unit test, so a definition only its own unit test calls does not count
ENTRY_POINTS = ("src", "perfbench", "tests/test_acceptance.py", "tests/conftest.py", "tests/helpers.py")

_WORD = re.compile(r"[A-Za-z_]\w*")
_DEFINITION = re.compile(r"\b(?:def|class)\s+([A-Za-z_]\w*)")


def _modules() -> dict[Path, ast.Module]:
    return {path: ast.parse(path.read_text(encoding="utf-8")) for path in sorted(PACKAGE.glob("*.py"))}


def _unused_imports(tree: ast.Module) -> list[str]:
    imported = []
    for node in ast.walk(tree):
        if isinstance(node, ast.Import):
            imported += [alias.asname or alias.name.partition(".")[0] for alias in node.names]
        elif isinstance(node, ast.ImportFrom) and node.module != "__future__":
            imported += [alias.asname or alias.name for alias in node.names]
    used = set()
    for node in ast.walk(tree):
        if isinstance(node, ast.Name):
            used.add(node.id)
        elif isinstance(node, ast.Constant) and isinstance(node.value, str) and node.value.isidentifier():
            used.add(node.value)  # a quoted forward reference in an annotation
    return [name for name in imported if name not in used]


def test_package_has_no_unused_imports():
    unused = {
        path.name: names
        for path, tree in _modules().items()
        # the package's own imports are its public names
        if path.name != "__init__.py" and (names := _unused_imports(tree))
    }
    assert unused == {}


def _name_counts(paths) -> tuple[Counter[str], Counter[str]]:
    """Occurrences of every word and of every defined name in the files."""
    words: Counter[str] = Counter()
    definitions: Counter[str] = Counter()
    for path in paths:
        text = path.read_text(encoding="utf-8")
        words.update(_WORD.findall(text))
        definitions.update(_DEFINITION.findall(text))
    return words, definitions


def test_package_defines_nothing_left_unnamed():
    words, definitions = _name_counts(
        path for folder in SEARCHED for path in (ROOT / folder).rglob("*.py"))
    unnamed = sorted(
        f"{path.name}:{node.lineno} {node.name}"
        for path, tree in _modules().items()
        for node in ast.walk(tree)
        if isinstance(node, (ast.FunctionDef, ast.AsyncFunctionDef, ast.ClassDef))
        and not (node.name.startswith("__") and node.name.endswith("__"))
        and words[node.name] <= definitions[node.name]
    )
    assert unnamed == []


def test_public_definitions_are_reached_from_an_entry_point():
    paths = [
        path
        for entry in ENTRY_POINTS
        for path in ((ROOT / entry).rglob("*.py") if (ROOT / entry).is_dir() else [ROOT / entry])
        if path != PACKAGE / "__init__.py"  # an export alone reaches nothing
    ]
    words, definitions = _name_counts(paths)
    unreached = sorted(
        f"{path.name}:{node.lineno} {node.name}"
        for path, tree in _modules().items()
        for node in tree.body
        if isinstance(node, (ast.FunctionDef, ast.AsyncFunctionDef, ast.ClassDef))
        and not node.name.startswith("_")
        and words[node.name] <= definitions[node.name]
    )
    assert unreached == []
