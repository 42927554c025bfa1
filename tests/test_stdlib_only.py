"""The runtime stays stdlib-only: every import in the package is either
relative to ffdecomp or a module of the standard library."""

import ast
import sys
from pathlib import Path

SRC = Path(__file__).resolve().parent.parent / "src" / "ffdecomp"


def _imports(tree):
    for node in ast.walk(tree):
        if isinstance(node, ast.Import):
            for alias in node.names:
                yield node.lineno, alias.name
        elif isinstance(node, ast.ImportFrom):
            yield node.lineno, "." * node.level + (node.module or "")


def test_package_imports_only_itself_and_the_standard_library():
    files = sorted(SRC.glob("*.py"))
    assert files
    outside = []
    for path in files:
        for line, name in _imports(ast.parse(path.read_text(), str(path))):
            top = name.split(".")[0]
            if name.startswith(".") or top == "ffdecomp" or top in sys.stdlib_module_names:
                continue
            outside.append(f"{path.name}:{line}: {name}")
    assert not outside, outside
