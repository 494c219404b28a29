"""Package modules import each other at module level only, so an import
cycle between them fails at import time instead of hiding in a function.
scipy is imported only inside the functions that call it, so the fit and
selection commands never load it."""

import ast
import subprocess
import sys
from pathlib import Path

import numpy as np
import pytest

from liargrid import GridSeries, write_gts

_SRC = Path(__file__).resolve().parents[1] / "src" / "liargrid"


def _imports_package(node):
    if isinstance(node, ast.ImportFrom):
        return node.level > 0 or (node.module or "").split(".")[0] == "liargrid"
    if isinstance(node, ast.Import):
        return any(alias.name.split(".")[0] == "liargrid" for alias in node.names)
    return False


def _imports_scipy(node):
    if isinstance(node, ast.ImportFrom):
        return node.level == 0 and (node.module or "").split(".")[0] == "scipy"
    if isinstance(node, ast.Import):
        return any(alias.name.split(".")[0] == "scipy" for alias in node.names)
    return False


def _run_at_import(tree):
    """Every node of a module that runs when it is imported: all but
    function bodies (class bodies, conditionals and try blocks run)."""
    stack = list(tree.body)
    while stack:
        node = stack.pop()
        if not isinstance(node, (ast.FunctionDef, ast.AsyncFunctionDef, ast.Lambda)):
            yield node
            stack.extend(ast.iter_child_nodes(node))


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


def test_no_module_imports_scipy_at_module_level():
    paths = sorted(_SRC.glob("*.py"))
    assert paths
    found = [f"{path.name}:{node.lineno}" for path in paths
             for node in _run_at_import(ast.parse(path.read_text(), filename=str(path)))
             if _imports_scipy(node)]
    assert found == []


# runs `liar <argv>` in process (no command for an empty argv), then prints
# the scipy modules loaded on its last line
_SCIPY_AFTER = """
import sys
from liargrid.cli import main
if sys.argv[1:] and main(sys.argv[1:]):
    sys.exit("liar failed")
print("scipy:", *sorted(m for m in sys.modules if m.split(".")[0] == "scipy"))
"""


@pytest.mark.parametrize("argv", [[], ["select", "--K0", "2"], ["fit", "--K", "1"]],
                         ids=["import", "select", "fit"])
def test_fit_and_select_never_load_scipy(tmp_path, src_on_path, argv):
    if argv:
        path = tmp_path / "series.gts"
        write_gts(GridSeries((5, 6), np.random.default_rng(8).normal(size=(120, 30))), path)
        argv = argv + ["--input", str(path), "--output-dir", str(tmp_path / "out")]
    proc = subprocess.run([sys.executable, "-c", _SCIPY_AFTER, *argv], capture_output=True,
                          text=True, timeout=120)
    assert proc.returncode == 0, proc.stderr
    assert proc.stdout.splitlines()[-1] == "scipy:"
