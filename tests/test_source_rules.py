"""Rules on the package source, read from its syntax trees: no float
anywhere, and imports between its modules that form no cycle."""

import ast
import graphlib
from pathlib import Path

SRC = Path(__file__).resolve().parent.parent / "src" / "ffdecomp"
MODULES = {path.stem: ast.parse(path.read_text(), str(path)) for path in sorted(SRC.glob("*.py"))}


def _package_imports(nodes):
    """The modules of the package that the relative imports among nodes name."""
    for node in nodes:
        if isinstance(node, ast.ImportFrom) and node.level == 1:
            names = [node.module] if node.module else [alias.name for alias in node.names]
            yield from (name for name in names if name in MODULES)


def test_no_float_in_the_package():
    found = []
    for name, tree in MODULES.items():
        for node in ast.walk(tree):
            if (
                isinstance(node, ast.Constant) and isinstance(node.value, (float, complex))
                or isinstance(node, ast.Name) and node.id == "float"
                or isinstance(node, ast.Attribute)
                and isinstance(node.value, ast.Name)
                and node.value.id == "math"
                and node.attr in ("sqrt", "pow")
                or isinstance(node, ast.ImportFrom)
                and node.module == "math"
                and any(alias.name in ("sqrt", "pow") for alias in node.names)
            ):
                found.append(f"{name}.py:{node.lineno}")
    assert not found, found


def test_top_level_imports_form_no_cycle():
    graph = {name: set(_package_imports(tree.body)) for name, tree in MODULES.items()}
    assert graph["decomp"] >= {"mvar"} and "decomp" not in graph["mvar"]
    list(graphlib.TopologicalSorter(graph).static_order())  # raises CycleError on a cycle


def test_only_gf_core_defers_imports_and_only_of_upoly():
    # gf_core searches and inverts moduli with upoly, which builds on gf_core
    deferred = [
        (name, imported)
        for name, tree in MODULES.items()
        for fn in ast.walk(tree)
        if isinstance(fn, (ast.FunctionDef, ast.AsyncFunctionDef))
        for imported in _package_imports(ast.walk(fn))
    ]
    assert deferred == [("gf_core", "upoly")] * 3
