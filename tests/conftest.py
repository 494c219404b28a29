"""Shared fixtures.

``liar_command`` is the argv prefix that runs the ``liar`` command line:
the installed console script when it is on PATH, otherwise the entry
point that ``pyproject.toml`` declares for it, run in a fresh
interpreter with this checkout's ``src`` importable.  The suite thus
runs from a plain checkout as well as from an installed package.
``src_on_path`` makes this checkout's ``src`` importable by any fresh
interpreter the test starts.
"""

import os
import shutil
import sys
from pathlib import Path

import pytest

_ROOT = Path(__file__).resolve().parent.parent


def _put_src_on_path(monkeypatch):
    src = str(_ROOT / "src")
    path = os.environ.get("PYTHONPATH")
    monkeypatch.setenv("PYTHONPATH", src + os.pathsep + path if path else src)


@pytest.fixture
def src_on_path(monkeypatch):
    _put_src_on_path(monkeypatch)


@pytest.fixture
def liar_command(monkeypatch):
    script = shutil.which("liar")
    if script is not None:
        return [script]
    tomllib = pytest.importorskip("tomllib")
    with open(_ROOT / "pyproject.toml", "rb") as fh:
        entry = tomllib.load(fh)["project"]["scripts"]["liar"]
    module, attr = entry.split(":")
    _put_src_on_path(monkeypatch)
    return [sys.executable, "-c",
            f"import importlib, sys; "
            f"sys.exit(importlib.import_module({module!r}).{attr}())"]
