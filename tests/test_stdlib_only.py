"""The runtime stays stdlib-only: every import in the package is either
relative to ffdecomp or a module of the standard library.  Every module
also parses as the oldest Python that pyproject.toml declares."""

import ast
import re
import sys
from pathlib import Path

ROOT = Path(__file__).resolve().parent.parent
SRC = ROOT / "src" / "ffdecomp"


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


def test_package_parses_as_the_declared_python_floor():
    # read with a regex, as tomllib is not in Python 3.10
    floor = re.search(r'requires-python\s*=\s*">=\s*3\.(\d+)"', (ROOT / "pyproject.toml").read_text())
    assert floor, "pyproject.toml declares no requires-python floor"
    files = sorted(SRC.glob("*.py"))
    assert files
    for path in files:
        ast.parse(path.read_text(), str(path), feature_version=(3, int(floor.group(1))))
