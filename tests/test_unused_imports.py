"""Every name a library module imports is read in that module.

An import nothing reads costs load time and misleads a reader about
what a module depends on.  The scan covers every module of
``src/pdrnav`` except the package's ``__init__``, whose star imports
are its export list.
"""

from __future__ import annotations

import ast
from pathlib import Path

import pytest

SRC = Path(__file__).resolve().parent.parent / "src" / "pdrnav"
MODULES = sorted(p for p in SRC.glob("*.py") if p.name != "__init__.py")


def unused_imports(source: str) -> list[str]:
    """The imported names ``source`` never reads, as ``name (line n)``.

    A name is read when it appears as a name anywhere in the module,
    annotations included, or is listed in ``__all__``.
    """
    tree = ast.parse(source)
    imported = {}
    for node in ast.walk(tree):
        if isinstance(node, ast.Import):
            for alias in node.names:
                imported[alias.asname or alias.name.split(".")[0]] = node.lineno
        elif isinstance(node, ast.ImportFrom) and node.module != "__future__":
            for alias in node.names:
                imported[alias.asname or alias.name] = node.lineno
    read = {node.id for node in ast.walk(tree) if isinstance(node, ast.Name)}
    for node in tree.body:
        if (isinstance(node, ast.Assign)
                and any(isinstance(t, ast.Name) and t.id == "__all__"
                        for t in node.targets)):
            read.update(ast.literal_eval(node.value))
    return [f"{name} (line {line})" for name, line in imported.items()
            if name not in read]


def test_the_scan_finds_an_unread_import():
    source = ("from __future__ import annotations\n"
              "import os.path\n"
              "from . import constants\n"
              "from .io import read_log as load, write_log\n"
              "__all__ = ['write_log']\n"
              "def f(x: load) -> str:\n"
              "    return os.sep\n")
    assert unused_imports(source) == ["constants (line 3)"]


def test_every_module_is_scanned():
    assert {p.stem for p in MODULES} >= {"cli", "constants", "ekf", "tracker"}


@pytest.mark.parametrize("path", MODULES, ids=[p.stem for p in MODULES])
def test_module_reads_every_import(path):
    assert unused_imports(path.read_text()) == []
