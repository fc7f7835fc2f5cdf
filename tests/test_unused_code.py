"""Static checks on the package source: every import is used, every
function, method and class is referenced somewhere, and every public
function, method and class is referenced from outside the unit tests."""

import ast
from collections import Counter
from pathlib import Path

ROOT = Path(__file__).resolve().parent.parent
PACKAGE = ROOT / "src" / "qbmg"
SEARCHED = ("src", "tests", "perfbench")
# what a public definition must be referenced from: the package itself, the
# benchmark and the acceptance suite with its fixtures and oracles, but no
# unit test, so a definition only its own unit test calls does not count
ENTRY_POINTS = ("src", "perfbench", "tests/test_acceptance.py", "tests/conftest.py", "tests/helpers.py")


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


def _references(paths) -> Counter[str]:
    """Identifiers the files refer to: names, attributes, imported names and
    their aliases, and string constants that are identifiers (a ``getattr``
    or ``monkeypatch`` target).  A definition's own name is not among them,
    and neither is a word in a comment or docstring."""
    refs: Counter[str] = Counter()
    for path in paths:
        for node in ast.walk(ast.parse(path.read_text(encoding="utf-8"))):
            if isinstance(node, ast.Name):
                refs[node.id] += 1
            elif isinstance(node, ast.Attribute):
                refs[node.attr] += 1
            elif isinstance(node, ast.alias):
                refs.update(filter(None, (node.name.rpartition(".")[2], node.asname)))
            elif isinstance(node, ast.Constant) and isinstance(node.value, str) and node.value.isidentifier():
                refs[node.value] += 1
    return refs


def _unreferenced(refs: Counter[str], public_only: bool) -> list[str]:
    return sorted(
        f"{path.name}:{node.lineno} {node.name}"
        for path, tree in _modules().items()
        for node in ast.walk(tree)
        if isinstance(node, (ast.FunctionDef, ast.AsyncFunctionDef, ast.ClassDef))
        and not (node.name.startswith("__") and node.name.endswith("__"))
        and not (public_only and node.name.startswith("_"))
        and not refs[node.name]
    )


def test_package_defines_nothing_left_unnamed():
    refs = _references(path for folder in SEARCHED for path in (ROOT / folder).rglob("*.py"))
    assert _unreferenced(refs, public_only=False) == []


def test_public_definitions_are_reached_from_an_entry_point():
    refs = _references(
        path
        for entry in ENTRY_POINTS
        for path in ((ROOT / entry).rglob("*.py") if (ROOT / entry).is_dir() else [ROOT / entry])
        if path != PACKAGE / "__init__.py"  # an export alone reaches nothing
    )
    assert _unreferenced(refs, public_only=True) == []


# constructors that validate their input, and where the package may call
# them: the modules that read outside input (DGF text, the fixtures, the
# public builders) and the two templates; every graph the package derives
# is built from masks it already trusts
VALIDATING = {"Digraph", "UGraph", "build_digraph", "build_ugraph"}
BOUNDARY_MODULES = {"digraph.py", "dgf.py", "fixtures.py"}
BOUNDARY_FUNCTIONS = {"path_template", "cycle_template"}


def test_package_validates_only_at_its_input_boundary():
    callers = set()
    for path, tree in _modules().items():
        if path.name in BOUNDARY_MODULES:
            continue
        for top in tree.body:
            owner = getattr(top, "name", "<module>")
            for node in ast.walk(top):
                if isinstance(node, ast.Call) and owner not in BOUNDARY_FUNCTIONS:
                    func = node.func
                    name = func.id if isinstance(func, ast.Name) else getattr(func, "attr", None)
                    if name in VALIDATING:
                        callers.add(f"{path.name} {owner}")
    assert sorted(callers) == []
