"""No dead code in the library: unused imports and unread public definitions.

No linter ships with the project, so these checks walk each module's AST.

* A name bound by a module-level ``import`` must be read somewhere in that
  module. Exempt are ``__future__`` imports, re-exports that a package
  ``__init__`` lists in ``__all__``, and the bindings in ``KEPT_FOR_TRACING``.
* A public top-level function or class must be read somewhere in the library
  or the benchmark, outside its own definition, unless ``UNREAD_ON_PURPOSE``
  says why it stays. Tests do not count as readers: code that only its own
  tests use gets deleted. An import or an ``__all__`` entry is not a read.
"""

import ast
from collections import Counter
from pathlib import Path

import pytest

ROOT = Path(__file__).resolve().parent.parent
SRC = ROOT / "src" / "enclavemine"

# Unused by the library on purpose: the benchmark's traced run
# (perfbench/spans.py) wraps these module attributes and counts their calls.
KEPT_FOR_TRACING = {("protocol.py", "extract_case"), ("segmenter.py", "encode_log")}

# Public definitions nothing in the library or the benchmark reads, and why
# each one stays.
UNREAD_ON_PURPOSE = {
    ("model.py", "extract_case"): "perfbench wraps protocol.extract_case by name",
    ("experiment.py", "read_transcript"): "the replay half of write_transcript",
}


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


def _reads(tree):
    """How often each name is read in ``tree``, as a bare name or an attribute."""
    return Counter(
        node.id if isinstance(node, ast.Name) else node.attr
        for node in ast.walk(tree)
        if isinstance(node, (ast.Name, ast.Attribute)) and isinstance(node.ctx, ast.Load)
    )


def unread_definitions(modules, readers):
    """``(module, name)`` of each public top-level function or class in
    ``modules`` (name -> source) that no source in ``readers`` reads outside
    the definition itself."""
    read = sum((_reads(ast.parse(source)) for source in readers), Counter())
    found = []
    for module, source in modules.items():
        for node in ast.parse(source).body:
            if (
                isinstance(node, (ast.FunctionDef, ast.AsyncFunctionDef, ast.ClassDef))
                and not node.name.startswith("_")
                and read[node.name] <= _reads(node)[node.name]
            ):
                found.append((module, node.name))
    return sorted(found)


def test_every_public_definition_is_read():
    modules = {str(path.relative_to(SRC)): path.read_text() for path in MODULES}
    benchmark = [path.read_text() for path in sorted((ROOT / "perfbench").rglob("*.py"))]
    found = unread_definitions(modules, [*modules.values(), *benchmark])
    assert found == sorted(UNREAD_ON_PURPOSE)


def test_the_check_finds_unread_definitions():
    lib = (
        "from .other import helper\n"
        "__all__ = ['used', 'unused', 'recursive']\n"
        "def used(): return helper()\n"
        "def unused(): return 1\n"
        "def recursive(n): return recursive(n - 1) if n else 0\n"
        "def _private(): return 2\n"
        "class Node:\n"
        "    def copy(self): return Node()\n"
    )
    caller = "import lib\nlib.used()\n"
    assert unread_definitions({"lib.py": lib}, [lib, caller]) == [
        ("lib.py", "Node"),
        ("lib.py", "recursive"),
        ("lib.py", "unused"),
    ]
