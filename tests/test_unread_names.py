"""Every module-level private name of the library is read in the library.

A private table or helper that no code reads is dead: it costs import
time, and a reader takes it for part of how the module works.  The scan
covers every module of ``src/pdrnav``.  A name counts as read where any
module loads it as a name or an attribute, or imports it; its own
definition does not count.  The one exception is the ``_cmd_*``
functions, which `pdrnav.cli.main` looks up by name.
"""

from __future__ import annotations

import ast
import re
from pathlib import Path

SRC = Path(__file__).resolve().parent.parent / "src" / "pdrnav"
MODULES = sorted(SRC.glob("*.py"))
LOOKED_UP_BY_NAME = re.compile(r"_cmd_\w+")


def _targets(node) -> list[str]:
    """The names an assignment target binds."""
    if isinstance(node, ast.Name):
        return [node.id]
    if isinstance(node, (ast.Tuple, ast.List)):
        return [name for element in node.elts for name in _targets(element)]
    return []


def private_definitions(tree: ast.Module) -> dict[str, int]:
    """Each private name the module binds at its top level, and its line:
    functions, classes and assignments, dunder names apart."""
    defined = {}
    for node in tree.body:
        if isinstance(node, (ast.FunctionDef, ast.AsyncFunctionDef,
                             ast.ClassDef)):
            names = [node.name]
        elif isinstance(node, ast.Assign):
            names = [n for target in node.targets for n in _targets(target)]
        elif isinstance(node, ast.AnnAssign):
            names = _targets(node.target)
        else:
            continue
        for name in names:
            if name.startswith("_") and not name.startswith("__"):
                defined.setdefault(name, node.lineno)
    return defined


def read_names(tree: ast.Module) -> set[str]:
    """The names a module loads, the attributes it reads and the names
    it imports."""
    read = set()
    for node in ast.walk(tree):
        if isinstance(node, ast.Name) and isinstance(node.ctx, ast.Load):
            read.add(node.id)
        elif isinstance(node, ast.Attribute):
            read.add(node.attr)
        elif isinstance(node, ast.ImportFrom):
            read.update(alias.name for alias in node.names)
    return read


def unread_private_names(sources: dict[str, str]) -> list[str]:
    """``module.name (line n)`` for each private module-level name of
    ``sources`` (module name -> source) that none of them reads."""
    trees = {module: ast.parse(source) for module, source in sources.items()}
    read = set().union(*map(read_names, trees.values()))
    return [f"{module}.{name} (line {line})"
            for module, tree in trees.items()
            for name, line in private_definitions(tree).items()
            if name not in read and not LOOKED_UP_BY_NAME.fullmatch(name)]


def test_the_scan_finds_an_unread_table_and_helper():
    sources = {
        "a": ("_TABLE = [1]\n"
              "_LOW, _HIGH = 0, 1\n"
              "def _helper():\n"
              "    return _LOW\n"
              "def _cmd_run(args):\n"
              "    return 0\n"
              "class _Kept:\n"
              "    pass\n"
              "__all__ = []\n"),
        "b": ("from .a import _Kept\n"
              "def f(module):\n"
              "    return module._helper\n"
              "def g():\n"
              "    _TABLE = 2\n"),
    }
    # _TABLE is only stored, never loaded; _HIGH is bound and never read.
    assert unread_private_names(sources) == ["a._TABLE (line 1)",
                                             "a._HIGH (line 2)"]


def test_every_module_is_scanned():
    assert {p.stem for p in MODULES} >= {"cli", "io", "_fields", "__init__"}


def test_every_private_name_is_read():
    sources = {p.stem: p.read_text() for p in MODULES}
    assert unread_private_names(sources) == []
