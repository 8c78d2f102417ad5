"""Every top-level import in the library is used by the module that makes it.

No linter ships with the project, so this walks each module's AST: a name
bound by a module-level ``import`` must be read somewhere in that module.
Exempt are ``__future__`` imports, re-exports that a package ``__init__``
lists in ``__all__``, and the bindings in ``KEPT_FOR_TRACING``.
"""

import ast
from pathlib import Path

import pytest

SRC = Path(__file__).resolve().parent.parent / "src" / "enclavemine"

# Unused by the library on purpose: the benchmark's traced run
# (perfbench/spans.py) wraps these module attributes and counts their calls.
KEPT_FOR_TRACING = {("protocol.py", "extract_case"), ("segmenter.py", "encode_log")}


def _bindings(tree):
    for node in tree.body:
        if isinstance(node, ast.Import):
            for alias in node.names:
                yield alias.asname or alias.name.split(".")[0]
        elif isinstance(node, ast.ImportFrom) and node.module != "__future__":
            for alias in node.names:
                yield alias.asname or alias.name


def _exported(tree):
    for node in tree.body:
        if isinstance(node, ast.Assign) and any(
            isinstance(t, ast.Name) and t.id == "__all__" for t in node.targets
        ):
            return set(ast.literal_eval(node.value))
    return set()


def unused_imports(source, *, package_init=False, kept=()):
    """Names bound by top-level imports in ``source`` that it never reads."""
    tree = ast.parse(source)
    read = {node.id for node in ast.walk(tree) if isinstance(node, ast.Name)}
    if package_init:
        read |= _exported(tree)
    return sorted(name for name in _bindings(tree) if name not in read and name not in kept)


MODULES = sorted(SRC.rglob("*.py"))


@pytest.mark.parametrize("path", MODULES, ids=[str(p.relative_to(SRC)) for p in MODULES])
def test_no_unused_top_level_import(path):
    rel = str(path.relative_to(SRC))
    kept = {name for module, name in KEPT_FOR_TRACING if module == rel}
    found = unused_imports(
        path.read_text(), package_init=path.name == "__init__.py", kept=kept
    )
    assert found == []


def test_the_check_finds_unused_imports():
    source = (
        "from __future__ import annotations\n"
        "import os, os.path as osp\n"
        "from typing import List, Tuple\n"
        "from .model import Event, EventLog\n"
        "__all__ = ['Event']\n"
        "def f(x: List[int]) -> int:\n"
        "    return os.getpid()\n"
    )
    assert unused_imports(source) == ["Event", "EventLog", "Tuple", "osp"]
    assert unused_imports(source, package_init=True) == ["EventLog", "Tuple", "osp"]
    assert unused_imports(source, kept={"osp"}) == ["Event", "EventLog", "Tuple"]
