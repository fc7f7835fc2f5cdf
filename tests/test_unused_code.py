"""Static checks on the package source: every import is used, every
function, method and class is referenced somewhere, every public function,
method and class is referenced from outside the unit tests, every
optional parameter of an unexported function is set by some caller, no
nested function recurses, and each fact kept on a graph value has one
writing module."""

import ast
from collections import Counter
from pathlib import Path

ROOT = Path(__file__).resolve().parent.parent
PACKAGE = ROOT / "src" / "qbmg"
SEARCHED = ("src", "tests", "perfbench")
# what a public definition must be referenced from: the package itself, the
# benchmark and the acceptance suite, but no unit test, fixture or oracle, so
# a definition only tests call does not count
ENTRY_POINTS = ("src", "perfbench", "tests/test_acceptance.py")


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


def _references(paths, local_names: bool = True) -> Counter[str]:
    """Identifiers the files refer to: names, attributes, imported names and
    their aliases, and string constants that are identifiers (a ``getattr``
    or ``monkeypatch`` target).  A definition's own name is not among them,
    and neither is a word in a comment or docstring.  Without
    ``local_names``, a bare name that a file outside the package defines as
    a function or class refers to that definition, not to the package's."""
    refs: Counter[str] = Counter()
    for path in paths:
        tree = ast.parse(path.read_text(encoding="utf-8"))
        defined = set() if local_names or path.parent == PACKAGE else {
            node.name for node in ast.walk(tree)
            if isinstance(node, (ast.FunctionDef, ast.AsyncFunctionDef, ast.ClassDef))
        }
        for node in ast.walk(tree):
            if isinstance(node, ast.Name):
                if node.id not in defined:
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
    paths = [
        path
        for entry in ENTRY_POINTS
        for path in ((ROOT / entry).rglob("*.py") if (ROOT / entry).is_dir() else [ROOT / entry])
        if path != PACKAGE / "__init__.py"  # an export alone reaches nothing
    ]
    # a test helper's own nested function reaches no package function of its name
    refs = _references(paths, local_names=False)
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


FUNCTIONS = (ast.FunctionDef, ast.AsyncFunctionDef)


def _scope_functions(func: ast.AST):
    """The functions defined in ``func``'s own scope, not in a deeper one."""
    stack = list(ast.iter_child_nodes(func))
    while stack:
        node = stack.pop()
        if isinstance(node, FUNCTIONS):
            yield node
        elif not isinstance(node, (ast.Lambda, ast.ClassDef)):
            stack.extend(ast.iter_child_nodes(node))


def _recursive_closures():
    """Each nested function that names itself in its body, labelled
    ``file outer.inner``, and whether the enclosing function deletes it."""
    for path, tree in _modules().items():
        for outer in ast.walk(tree):
            if not isinstance(outer, FUNCTIONS):
                continue
            deleted = {
                target.id
                for node in ast.walk(outer) if isinstance(node, ast.Delete)
                for target in node.targets if isinstance(target, ast.Name)
            }
            for inner in _scope_functions(outer):
                if any(isinstance(node, ast.Name) and node.id == inner.name for node in ast.walk(inner)):
                    yield f"{path.name} {outer.name}.{inner.name}", inner.name in deleted


def test_self_referencing_closures_are_deleted():
    # a nested function that names itself and its closure cell refer to each
    # other, so only the cyclic collector frees them, and with them all they
    # close over; the enclosing function must break the cycle with ``del``
    assert sorted(label for label, deleted in _recursive_closures() if not deleted) == []


def test_recursive_closures_are_the_allowed_ones():
    # recursion goes through module-level functions, which form no cycle; a
    # new recursive closure is added here on purpose, with its ``del`` and
    # an entry in test_reference_cycles.py
    assert sorted(label for label, _ in _recursive_closures()) == []


def _exported() -> set[str]:
    tree = ast.parse((PACKAGE / "__init__.py").read_text(encoding="utf-8"))
    return {alias.asname or alias.name for node in tree.body if isinstance(node, ast.ImportFrom)
            for alias in node.names}


def _callables(tree: ast.Module):
    """Each module-level function and method, with the name its callers use
    and the positional parameters a call does not pass: ``self`` for a
    method, whose ``__init__`` is called by the class name.  Other dunder
    methods are left out, since the language calls them."""
    for top in tree.body:
        if isinstance(top, FUNCTIONS):
            yield top, top.name, 0
        elif isinstance(top, ast.ClassDef):
            for item in top.body:
                if isinstance(item, FUNCTIONS) and not (item.name.startswith("__") and item.name != "__init__"):
                    yield item, top.name if item.name == "__init__" else item.name, 1


def _sets(call: ast.Call, index: int | None, keyword: str) -> bool:
    """Whether the call may pass the parameter: by keyword, or at its
    position when it has one; ``*args`` and ``**kwargs`` count as passing."""
    if any(kw.arg in (keyword, None) for kw in call.keywords):
        return True
    return index is not None and (len(call.args) > index or any(isinstance(a, ast.Starred) for a in call.args))


def test_every_optional_parameter_is_set_by_some_caller():
    # a defaulted parameter that no call in the package or the benchmark
    # sets is a knob only tests turn; exported functions are left out, since
    # their callers are the package's users
    calls: dict[str, list[ast.Call]] = {}
    for folder in ("src", "perfbench"):
        for path in (ROOT / folder).rglob("*.py"):
            for node in ast.walk(ast.parse(path.read_text(encoding="utf-8"))):
                if isinstance(node, ast.Call):
                    func = node.func
                    name = func.id if isinstance(func, ast.Name) else getattr(func, "attr", None)
                    calls.setdefault(name, []).append(node)
    exported = _exported()
    unset = []
    for path, tree in _modules().items():
        for func, name, skipped in _callables(tree):
            if name in exported:
                continue
            args = func.args
            positional = args.posonlyargs + args.args
            first = len(positional) - len(args.defaults)
            optional = [(i - skipped, arg.arg) for i, arg in enumerate(positional) if i >= first]
            optional += [(None, arg.arg) for arg, default in zip(args.kwonlyargs, args.kw_defaults)
                         if default is not None]
            unset += [f"{path.name}:{func.lineno} {name}.{keyword}" for index, keyword in optional
                      if not any(_sets(call, index, keyword) for call in calls.get(name, ()))]
    assert unset == []


# each fact a graph value keeps has one module that stores it: the
# recognition verdict and the theorem's mark on the underlying graph of a
# recognized digraph are kept by qbmg.digraph, path-freeness by qbmg.paths
WRITERS = {"_is_qbmg": "digraph.py", "_qbmg_shadow": "digraph.py", "_path_free_from": "paths.py"}


def _stored_keys(tree: ast.Module):
    """The string keys a module stores under, by subscript assignment or as
    an ``update(...)`` keyword."""
    for node in ast.walk(tree):
        if isinstance(node, ast.Subscript) and isinstance(node.ctx, ast.Store):
            if isinstance(node.slice, ast.Constant):
                yield node.slice.value
        elif isinstance(node, ast.Call) and getattr(node.func, "attr", None) == "update":
            yield from (kw.arg for kw in node.keywords)


def test_each_kept_graph_fact_has_one_writer():
    stores = {(key, path.name) for path, tree in _modules().items()
              for key in _stored_keys(tree) if key in WRITERS}
    assert sorted(stores) == sorted(WRITERS.items())
