"""Package modules import each other at module level only, so an import
cycle between them fails at import time instead of hiding in a function."""

import ast
from pathlib import Path

_SRC = Path(__file__).resolve().parents[1] / "src" / "liargrid"


def _imports_package(node):
    if isinstance(node, ast.ImportFrom):
        return node.level > 0 or (node.module or "").split(".")[0] == "liargrid"
    if isinstance(node, ast.Import):
        return any(alias.name.split(".")[0] == "liargrid" for alias in node.names)
    return False


def test_no_function_body_imports_a_package_module():
    paths = sorted(_SRC.glob("*.py"))
    assert paths
    found = set()
    for path in paths:
        tree = ast.parse(path.read_text(), filename=str(path))
        for func in ast.walk(tree):
            if isinstance(func, (ast.FunctionDef, ast.AsyncFunctionDef)):
                found.update(f"{path.name}:{node.lineno}" for node in ast.walk(func)
                             if _imports_package(node))
    assert sorted(found) == []
