import ast
import subprocess
import sys
from pathlib import Path

SRC = Path(__file__).resolve().parents[1] / "src"
PACKAGE = SRC / "geoforge"
MODULES = sorted(p for p in PACKAGE.glob("*.py") if p.name != "__init__.py")


def _imported(tree: ast.Module) -> dict[str, int]:
    """Each name an import statement binds, with the line that binds it."""
    bound: dict[str, int] = {}
    for node in ast.walk(tree):
        if isinstance(node, ast.Import):
            for alias in node.names:
                bound[alias.asname or alias.name.split(".")[0]] = node.lineno
        elif isinstance(node, ast.ImportFrom) and node.module != "__future__":
            for alias in node.names:
                bound[alias.asname or alias.name] = node.lineno
    return bound


def test_every_import_is_used():
    # the package has no linter, so an import its last reader dropped stays unseen
    unused = []
    for path in MODULES:
        tree = ast.parse(path.read_text(encoding="utf-8"), filename=str(path))
        used = {node.id for node in ast.walk(tree) if isinstance(node, ast.Name)}
        unused += [f"{path.name}:{line} {name}" for name, line in _imported(tree).items() if name not in used]
    assert not unused, f"imported but never used: {unused}"


def test_cli_import_leaves_the_http_stack_unloaded():
    # only the external translator's first request needs it
    code = f"import sys; sys.path.insert(0, {str(SRC)!r}); import geoforge.cli; print(*sys.modules)"
    run = subprocess.run([sys.executable, "-S", "-c", code], capture_output=True, text=True, check=True)
    loaded = set(run.stdout.split())
    assert "geoforge.cli" in loaded
    assert not loaded & {"urllib.request", "http.client", "ssl"}


def _referenced(tree: ast.Module) -> set[str]:
    """Names each top-level statement refers to, outside its own definition."""
    used: set[str] = set()
    for top in tree.body:
        names: set[str] = set()
        for node in ast.walk(top):
            if isinstance(node, ast.Name):
                names.add(node.id)
            elif isinstance(node, ast.Attribute):
                names.add(node.attr)
            elif isinstance(node, ast.alias):
                names.add(node.name)
        names.discard(getattr(top, "name", None))
        used |= names
    return used


def test_every_private_helper_is_used():
    # likewise for a module-level helper whose last caller went away
    trees = {path: ast.parse(path.read_text(encoding="utf-8")) for path in PACKAGE.glob("*.py")}
    used = set().union(*map(_referenced, trees.values()))
    unused = [
        f"{path.name}:{node.lineno} {node.name}"
        for path, tree in sorted(trees.items())
        for node in tree.body
        if isinstance(node, (ast.FunctionDef, ast.AsyncFunctionDef, ast.ClassDef))
        and node.name.startswith("_")
        and not node.name.startswith("__")
        and node.name not in used
    ]
    assert not unused, f"private helpers nothing in the package refers to: {unused}"


def test_only_the_dataset_module_splits_lines():
    # one line rule for every input file: a second reader that splits its own
    # way numbers, or skips, other lines than the first
    found = [
        f"{path.name}:{node.lineno}"
        for path in sorted(PACKAGE.glob("*.py"))
        if path.name != "dataset.py"
        for node in ast.walk(ast.parse(path.read_text(encoding="utf-8")))
        if isinstance(node, ast.Attribute) and node.attr == "splitlines"
    ]
    assert not found, f"lines split outside dataset.read_lines: {found}"


def _annotations(tree: ast.Module) -> set[int]:
    """The ids of every node inside an annotation, which is never evaluated
    under ``from __future__ import annotations``."""
    roots = []
    for node in ast.walk(tree):
        if isinstance(node, ast.AnnAssign):
            roots.append(node.annotation)
        elif isinstance(node, ast.arg) and node.annotation:
            roots.append(node.annotation)
        elif isinstance(node, (ast.FunctionDef, ast.AsyncFunctionDef)) and node.returns:
            roots.append(node.returns)
    return {id(n) for root in roots for n in ast.walk(root)}


def test_no_value_subscripts_a_typing_name():
    # typing caches each subscription, and with it the classes it names, for
    # good: a re-imported engine could then never be freed
    found = []
    for path in MODULES:
        tree = ast.parse(path.read_text(encoding="utf-8"), filename=str(path))
        from_typing = {
            alias.asname or alias.name
            for node in ast.walk(tree)
            if isinstance(node, ast.ImportFrom) and node.module == "typing"
            for alias in node.names
        }
        exempt = _annotations(tree)
        found += [
            f"{path.name}:{node.lineno} {node.value.id}"
            for node in ast.walk(tree)
            if isinstance(node, ast.Subscript)
            and isinstance(node.value, ast.Name)
            and node.value.id in from_typing
            and id(node) not in exempt
        ]
    assert not found, f"typing names subscripted outside annotations: {found}"


def test_a_reimported_engine_is_freed():
    # the way perfbench's import_engine re-imports it, three times over
    modules = [path.stem for path in MODULES]
    code = f"""
import gc, importlib, sys, weakref
sys.path.insert(0, {str(SRC)!r})

def import_engine():
    for name in [n for n in sys.modules if n == "geoforge" or n.startswith("geoforge.")]:
        del sys.modules[name]
    importlib.invalidate_caches()
    importlib.import_module("geoforge")
    return {{n: importlib.import_module("geoforge." + n) for n in {modules!r}}}

first = import_engine()
refs = {{
    name: weakref.ref(getattr(first[module], name))
    for module, name in [("statements", "Statement"), ("rules", "MatchContext"),
                         ("reasoner", "Transition"), ("pipeline", "PipelineConfig")]
}}
del first
import_engine()
import_engine()
gc.collect()
print(*sorted(name for name, ref in refs.items() if ref() is not None))
"""
    run = subprocess.run([sys.executable, "-S", "-c", code], capture_output=True, text=True, check=True)
    assert run.stdout.split() == [], f"the first copy's classes are still alive: {run.stdout}"
