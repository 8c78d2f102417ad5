"""No dead code in the library: unused imports and unread public definitions.

No linter ships with the project, so these checks walk each module's AST.

* A name bound by a module-level ``import`` must be read somewhere in that
  module. Exempt are ``__future__`` imports, re-exports that a package
  ``__init__`` lists in ``__all__``, and the bindings in ``KEPT_FOR_TRACING``.
* A top-level function or class, public or private, a public method of a
  public class, and a top-level constant, public or private, must be read
  somewhere in the library or the benchmark, outside its own definition, unless
  ``UNREAD_ON_PURPOSE`` says why it stays. Tests do not count as readers:
  code that only its own tests use gets deleted. An import or an ``__all__``
  entry is not a read. Dunders and other private methods are exempt: the
  protocol dispatches ``_on_<kind>`` handlers by a name it builds, so each
  role's handlers are checked against the kinds it dispatches instead.
* A parameter with a default, of a public function, a public method or the
  ``__init__`` of a public class, must be passed by some call in the library
  or the benchmark (by keyword, by position, or through ``*``/``**``),
  unless ``UNSET_ON_PURPOSE`` says why it stays. A dataclass field with a
  default counts as such a parameter of the ``__init__`` it generates. A
  default nothing overrides is a setting with one value in use, and that is
  a constant.
* A field of a dataclass, and an attribute a method stores on ``self``, must
  be read as an attribute (``x.name``) somewhere in the library or the
  benchmark, unless ``UNREAD_FIELDS`` says why it stays. A field that is
  only written is state nothing uses.
"""

import ast
from collections import Counter
from pathlib import Path

import pytest

from enclavemine import protocol

ROOT = Path(__file__).resolve().parent.parent
SRC = ROOT / "src" / "enclavemine"

# Unused by the library on purpose: the benchmark's traced run
# (perfbench/spans.py) wraps these module attributes and counts their calls.
# ROADMAP item 5 replaces that wrapping with in-program spans, and these go.
KEPT_FOR_TRACING = {
    ("protocol.py", "extract_case"),
    ("protocol.py", "decode_log"),
    ("protocol.py", "size_of"),
    ("protocol.py", "merge"),
    ("protocol.py", "merge_all"),
    ("segmenter.py", "encode_log"),
}

# Public definitions nothing in the library or the benchmark reads, and why
# each one stays.
UNREAD_ON_PURPOSE = {
    ("model.py", "extract_case"): "perfbench wraps protocol.extract_case by name",
    ("model.py", "merge"): (
        "perfbench wraps protocol.merge by name until in-program spans replace"
        " the wrapping (ROADMAP item 5)"
    ),
    ("segmenter.py", "size_of"): (
        "perfbench wraps protocol.size_of and segmenter.size_of by name until"
        " in-program spans replace the wrapping (ROADMAP item 5)"
    ),
    ("wire.py", "decode_log"): (
        "perfbench wraps protocol.decode_log by name until in-program spans"
        " replace the wrapping (ROADMAP item 5)"
    ),
    ("experiment.py", "read_transcript"): "the replay half of write_transcript",
}

# Parameters with a default that nothing in the library or the benchmark
# passes, as ``(module, function, parameter)``, and why each one stays.
UNSET_ON_PURPOSE = {
    ("cli.py", "main", "argv"): "None reads sys.argv; tests pass their own argv",
    ("experiment.py", "build_session", "network"): "the seam tests swap a tampering network in by",
    ("experiment.py", "run_experiment", "replay_order"): "replays a recorded transcript",
    ("protocol.py", "ProvisionerConfig.__init__", "root_public"): "key material: tests pin a rogue root",
}
# Dataclass fields: the generated ``__init__`` takes one parameter per field.
UNSET_ON_PURPOSE.update(
    {
        ("experiment.py", "ExperimentConfig.__init__", name): (
            "set by name from a --config file (cls(**data)) or a flag (replace)"
        )
        for name in (
            "n_cases", "seed", "seg_size", "incremental", "algorithm", "n_orgs",
            "loop_iterations", "capacity",
        )
    }
)

# Fields and ``self`` attributes nothing in the library or the benchmark
# reads as an attribute, as ``(module, "Class.name")``, and why each stays.
UNREAD_FIELDS = {}


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


def _definitions(tree):
    """``(name, label, node)`` of each top-level function and class in
    ``tree``, of each public method of a public class (labelled
    ``Class.method``), and of each top-level constant (a dunder such as
    ``__all__`` is not one)."""
    for node in tree.body:
        if isinstance(node, (ast.FunctionDef, ast.AsyncFunctionDef, ast.ClassDef)):
            yield node.name, node.name, node
            if isinstance(node, ast.ClassDef) and not node.name.startswith("_"):
                for item in node.body:
                    if isinstance(item, _FUNCTIONS) and not item.name.startswith("_"):
                        yield item.name, "%s.%s" % (node.name, item.name), item
        elif isinstance(node, (ast.Assign, ast.AnnAssign)):
            for target in node.targets if isinstance(node, ast.Assign) else [node.target]:
                if isinstance(target, ast.Name) and not target.id.startswith("__"):
                    yield target.id, target.id, node


def unread_definitions(modules, readers):
    """``(module, label)`` of each definition in ``modules`` (name -> source)
    that no source in ``readers`` reads outside the definition itself. Reads
    match by name alone, so a method counts as read wherever an attribute of
    its name is."""
    read = sum((_reads(ast.parse(source)) for source in readers), Counter())
    found = []
    for module, source in modules.items():
        for name, label, node in _definitions(ast.parse(source)):
            if read[name] <= _reads(node)[name]:
                found.append((module, label))
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
        "class Node:\n"
        "    def copy(self): return Node()\n"
        "class Tree:\n"
        "    def __len__(self): return 0\n"
        "    def size(self): return len(self)\n"
        "    def depth(self): return self.depth() + 1\n"
        "    def _on_grow(self): return 'grown'\n"
        "class _Leaf:\n"
        "    def colour(self): return 'green'\n"
    )
    caller = "import lib\nlib.used()\nlib.Tree().size()\n"
    assert unread_definitions({"lib.py": lib}, [lib, caller]) == [
        ("lib.py", "Node"),
        ("lib.py", "Node.copy"),
        ("lib.py", "Tree.depth"),
        ("lib.py", "_Leaf"),
        ("lib.py", "recursive"),
        ("lib.py", "unused"),
    ]


@pytest.mark.parametrize(
    "role,kinds",
    [(protocol.SecureMiner, protocol._MINER_KINDS), (protocol.Provisioner, protocol._PROVISIONER_KINDS)],
    ids=["miner", "provisioner"],
)
def test_each_role_has_a_handler_for_exactly_the_kinds_it_dispatches(role, kinds):
    assert {name[len("_on_"):] for name in vars(role) if name.startswith("_on_")} == kinds


def test_the_check_finds_unread_private_definitions():
    lib = (
        "_USED = 1\n"
        "_UNUSED: int = 2\n"
        "LIMIT = 3\n"
        "UNREAD_LIMIT = 4\n"
        "__all__ = ['api', 'LIMIT', 'UNREAD_LIMIT']\n"
        "def api(): return _helper() + _USED + LIMIT\n"
        "def _helper(): return _Box().size\n"
        "def _leftover(data): return _leftover(data[1:]) if data else b''\n"
        "class _Box:\n"
        "    size = 0\n"
        "    def _on_ping(self): return 'pong'\n"
        "class _Unused: pass\n"
    )
    caller = "import lib\nlib.api()\n"
    assert unread_definitions({"lib.py": lib}, [lib, caller]) == [
        ("lib.py", "UNREAD_LIMIT"),
        ("lib.py", "_UNUSED"),
        ("lib.py", "_Unused"),
        ("lib.py", "_leftover"),
    ]


_FUNCTIONS = (ast.FunctionDef, ast.AsyncFunctionDef)


def _signature(fn, method):
    """The parameters a positional argument fills, in order, and those with
    a default, of ``fn``; a method's first parameter is bound, not passed."""
    args = fn.args
    positional = [a.arg for a in args.posonlyargs + args.args]
    defaulted = positional[len(positional) - len(args.defaults) :]
    defaulted += [a.arg for a, d in zip(args.kwonlyargs, args.kw_defaults) if d is not None]
    static = any(isinstance(d, ast.Name) and d.id == "staticmethod" for d in fn.decorator_list)
    return positional[1:] if method and not static else positional, defaulted


def _is_dataclass(cls):
    """Decorated ``@dataclass`` or ``@dataclass(...)``."""
    targets = (d.func if isinstance(d, ast.Call) else d for d in cls.decorator_list)
    return any(isinstance(t, ast.Name) and t.id == "dataclass" for t in targets)


def _fields(cls):
    """The ``__init__`` parameters a dataclass generates from its fields, in
    field order, and those with a default; ``field(init=False)`` is none."""
    positional, defaulted = [], []
    for item in cls.body:
        if not (isinstance(item, ast.AnnAssign) and isinstance(item.target, ast.Name)):
            continue
        value = item.value
        if isinstance(value, ast.Call) and any(
            k.arg == "init" and isinstance(k.value, ast.Constant) and k.value.value is False
            for k in value.keywords
        ):
            continue
        positional.append(item.target.id)
        if value is not None:
            defaulted.append(item.target.id)
    return positional, defaulted


def _callables(tree):
    """``(label, callee, positional, defaulted)`` of each public function,
    public method and public class ``__init__``, the one a dataclass
    generates included: ``callee`` is the name a call uses, the class name
    for ``__init__``."""
    for node in tree.body:
        if isinstance(node, _FUNCTIONS) and not node.name.startswith("_"):
            yield (node.name, node.name, *_signature(node, method=False))
        elif isinstance(node, ast.ClassDef) and not node.name.startswith("_"):
            if _is_dataclass(node):
                yield ("%s.__init__" % node.name, node.name, *_fields(node))
            for item in node.body:
                if isinstance(item, _FUNCTIONS) and (
                    item.name == "__init__" or not item.name.startswith("_")
                ):
                    callee = node.name if item.name == "__init__" else item.name
                    label = "%s.%s" % (node.name, item.name)
                    yield (label, callee, *_signature(item, method=True))


def _calls(tree):
    """``(callee, positional count, keywords, spreads *, spreads **)`` of
    each call in ``tree`` to a bare name or an attribute."""
    for node in ast.walk(tree):
        if isinstance(node, ast.Call) and isinstance(node.func, (ast.Name, ast.Attribute)):
            callee = node.func.id if isinstance(node.func, ast.Name) else node.func.attr
            star = any(isinstance(a, ast.Starred) for a in node.args)
            keywords = {k.arg for k in node.keywords if k.arg is not None}
            dstar = any(k.arg is None for k in node.keywords)
            yield callee, len(node.args), keywords, star, dstar


def unset_parameters(modules, callers):
    """``(module, label, parameter)`` of each defaulted parameter in
    ``modules`` (name -> source) that no call in ``callers`` passes. Calls
    match by name alone, so a call to a same-named callable counts too."""
    calls = {}
    for source in callers:
        for callee, *how in _calls(ast.parse(source)):
            calls.setdefault(callee, []).append(how)
    found = []
    for module, source in modules.items():
        for label, callee, positional, defaulted in _callables(ast.parse(source)):
            for param in defaulted:
                index = positional.index(param) if param in positional else None
                if not any(
                    param in keywords
                    or dstar
                    or (index is not None and (star or index < count))
                    for count, keywords, star, dstar in calls.get(callee, [])
                ):
                    found.append((module, label, param))
    return sorted(found)


def test_every_default_is_overridden_somewhere():
    modules = {str(path.relative_to(SRC)): path.read_text() for path in MODULES}
    benchmark = [path.read_text() for path in sorted((ROOT / "perfbench").rglob("*.py"))]
    found = unset_parameters(modules, [*modules.values(), *benchmark])
    assert found == sorted(UNSET_ON_PURPOSE)


def test_the_check_finds_unset_parameters():
    lib = (
        "def f(a, b=1, *, c=2, d=3): return a\n"
        "def g(a=1, b=2): return a\n"
        "def h(a=1): return a\n"
        "def _private(a=1): return a\n"
        "class Box:\n"
        "    def __init__(self, size=0, tag=''): self.size = size\n"
        "    def grow(self, by=1): return self.size + by\n"
        "    @staticmethod\n"
        "    def make(kind='box'): return Box()\n"
        "    def _hidden(self, x=1): return x\n"
        "@dataclass(frozen=True)\n"
        "class Point:\n"
        "    x: int\n"
        "    y: int = 0\n"
        "    z: int = 0\n"
        "    tags: list = field(default_factory=list)\n"
        "    cache: dict = field(default_factory=dict, init=False)\n"
        "    def moved(self, dx=1): return Point(self.x + dx)\n"
    )
    caller = (
        "f(0, 5, c=1)\n"
        "g(*args)\n"
        "h(**kw)\n"
        "box = Box(3)\n"
        "box.grow()\n"
        "Box.make('crate')\n"
        "Point(1, 2, tags=['a']).moved(3)\n"
    )
    assert unset_parameters({"lib.py": lib}, [lib, caller]) == [
        ("lib.py", "Box.__init__", "tag"),
        ("lib.py", "Box.grow", "by"),
        ("lib.py", "Point.__init__", "z"),
        ("lib.py", "f", "d"),
    ]


def _stored_fields(tree):
    """``(name, label)`` of each field of each top-level dataclass in ``tree``
    and of each attribute its classes' methods store on ``self``, labelled
    ``Class.name``."""
    for node in tree.body:
        if not isinstance(node, ast.ClassDef):
            continue
        names = {
            item.target.id
            for item in (node.body if _is_dataclass(node) else ())
            if isinstance(item, ast.AnnAssign) and isinstance(item.target, ast.Name)
        }
        names.update(
            item.attr
            for item in ast.walk(node)
            if isinstance(item, ast.Attribute)
            and isinstance(item.ctx, ast.Store)
            and isinstance(item.value, ast.Name)
            and item.value.id == "self"
        )
        for name in sorted(names):
            yield name, "%s.%s" % (node.name, name)


def unread_fields(modules, readers):
    """``(module, label)`` of each field stored in ``modules`` (name ->
    source) that no source in ``readers`` reads as an attribute. Reads match
    by name alone, so a read of any object's attribute of that name counts."""
    read = {
        node.attr
        for source in readers
        for node in ast.walk(ast.parse(source))
        if isinstance(node, ast.Attribute) and isinstance(node.ctx, ast.Load)
    }
    return sorted(
        (module, label)
        for module, source in modules.items()
        for name, label in _stored_fields(ast.parse(source))
        if name not in read
    )


def test_every_field_is_read():
    modules = {str(path.relative_to(SRC)): path.read_text() for path in MODULES}
    benchmark = [path.read_text() for path in sorted((ROOT / "perfbench").rglob("*.py"))]
    assert unread_fields(modules, [*modules.values(), *benchmark]) == sorted(UNREAD_FIELDS)


def test_the_check_finds_unread_fields():
    lib = (
        "@dataclass(frozen=True)\n"
        "class Plan:\n"
        "    segments: tuple\n"
        "    oversized: tuple = ()\n"
        "    cache: dict = field(default_factory=dict, init=False)\n"
        "class Sender:\n"
        "    def __init__(self):\n"
        "        self.sent = 0\n"
        "        self.phase = 'idle'\n"
        "        self._log = []\n"
        "    def send(self, plan):\n"
        "        self.sent += len(plan.segments)\n"
        "        self._log.append(self.phase)\n"
        "class Local:\n"
        "    def f(self, other):\n"
        "        other.seen = True\n"
        "        local = 1\n"
        "        return local\n"
    )
    caller = "s = Sender()\nprint(s.phase)\n"
    assert unread_fields({"lib.py": lib}, [lib, caller]) == [
        ("lib.py", "Plan.cache"),
        ("lib.py", "Plan.oversized"),
        ("lib.py", "Sender.sent"),
    ]
