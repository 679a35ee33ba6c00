"""The library imports nothing outside the standard library."""

import ast
import pathlib
import sys

SRC = pathlib.Path(__file__).resolve().parent.parent / "src" / "cstree"


def _imported(tree):
    for node in ast.walk(tree):
        if isinstance(node, ast.Import):
            yield from (alias.name.split(".")[0] for alias in node.names)
        elif isinstance(node, ast.ImportFrom):
            yield "cstree" if node.level else node.module.split(".")[0]


def test_src_imports_only_the_standard_library():
    seen = set()
    for path in sorted(SRC.glob("*.py")):
        for name in _imported(ast.parse(path.read_text(), str(path))):
            assert name == "cstree" or name in sys.stdlib_module_names, (
                path.name,
                name,
            )
            seen.add(name)
    assert "cstree" in seen and len(seen) > 1
