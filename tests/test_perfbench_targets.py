"""The benchmark's layer tracer names functions by module; they must exist.

perfbench/spans.py patches each (layer, module, function) of its TARGETS
list when run with --trace 1, and fails on a name that is gone.  The list
is read from the source text, so nothing under perfbench/ is imported.
"""

import ast
import importlib
from pathlib import Path

SPANS = Path(__file__).resolve().parent.parent / "perfbench" / "spans.py"


def _targets():
    tree = ast.parse(SPANS.read_text())
    for node in tree.body:
        if isinstance(node, ast.Assign) and any(
            isinstance(t, ast.Name) and t.id == "TARGETS" for t in node.targets
        ):
            return ast.literal_eval(node.value)
    raise AssertionError(f"no TARGETS list in {SPANS}")


def test_every_traced_function_resolves():
    targets = _targets()
    assert targets
    for layer, module, name in targets:
        fn = getattr(importlib.import_module(f"ffdecomp.{module}"), name, None)
        assert callable(fn), f"ffdecomp.{module}.{name} (layer {layer})"
        # spans are counted per defining module, so an alias of a function
        # from another module would be traced under that module's name
        assert fn.__module__ == f"ffdecomp.{module}", f"{name} is defined in {fn.__module__}"
