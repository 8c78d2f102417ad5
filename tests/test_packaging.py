"""Package metadata: the version is written in one place, and the declared
dependencies are what the package imports."""

import ast
import re
import sys
from pathlib import Path

import pytest

import enclavemine

tomllib = pytest.importorskip("tomllib")  # Python 3.11+

ROOT = Path(__file__).resolve().parent.parent


def test_the_version_is_written_once():
    # The attested build manifest reads enclavemine.__version__, so the
    # distribution takes its version from there instead of a second literal.
    doc = tomllib.loads((ROOT / "pyproject.toml").read_text())
    assert "version" not in doc["project"]
    assert doc["project"]["dynamic"] == ["version"]
    assert doc["tool"]["setuptools"]["dynamic"]["version"] == {"attr": "enclavemine.__version__"}
    assert isinstance(enclavemine.__version__, str) and enclavemine.__version__


def _third_party_imports(package):
    """Top-level names of the modules a package imports from outside itself
    and the standard library."""
    names = set()
    for path in package.rglob("*.py"):
        for node in ast.walk(ast.parse(path.read_text(), str(path))):
            if isinstance(node, ast.Import):
                names.update(alias.name.split(".")[0] for alias in node.names)
            elif isinstance(node, ast.ImportFrom) and node.level == 0:
                names.add(node.module.split(".")[0])
    return names - set(sys.stdlib_module_names) - {"__future__", package.name}


def test_declared_dependencies_are_what_the_package_imports():
    doc = tomllib.loads((ROOT / "pyproject.toml").read_text())
    declared = {
        re.match(r"[A-Za-z0-9_.-]+", req).group(0).lower().replace("-", "_")
        for req in doc["project"]["dependencies"]
    }
    assert declared == _third_party_imports(ROOT / "src" / "enclavemine")
