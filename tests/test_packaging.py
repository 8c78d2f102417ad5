"""Package metadata: the version is written in one place, the declared
dependencies are what the package imports, and a session process loads no
module it does not use."""

import ast
import os
import re
import subprocess
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


# A second OpenSSL (hashlib's _hashlib links the system libcrypto) and the
# web stack that xml.sax.saxutils pulls in through urllib.request.
_UNUSED_MODULES = (
    "_hashlib",
    "hashlib",
    "_ssl",
    "urllib.request",
    "http.client",
    "email",
    "xml.sax",
)


def test_a_session_process_loads_one_openssl_and_no_web_stack(tmp_path):
    code = (
        "import sys\n"
        "from enclavemine import cli\n"
        "from enclavemine.experiment import ExperimentConfig, run_experiment\n"
        "for algorithm in ('heuristics', 'declare'):\n"
        "    cfg = ExperimentConfig(n_cases=20, seed=1, algorithm=algorithm)\n"
        "    assert run_experiment(cfg).miner_phase == 'done'\n"
        "assert cli.main(['run', '--cases', '20', '--out-dir', sys.argv[1]]) == 0\n"
        "print(sorted(set(sys.argv[2:]) & set(sys.modules)))\n"
    )
    src = str(Path(enclavemine.__file__).resolve().parent.parent)
    path = os.pathsep.join(filter(None, [src, os.environ.get("PYTHONPATH")]))
    done = subprocess.run(
        [sys.executable, "-c", code, str(tmp_path), *_UNUSED_MODULES],
        env={**os.environ, "PYTHONPATH": path},
        capture_output=True,
        text=True,
        timeout=120,
    )
    assert done.returncode == 0, done.stderr
    assert done.stdout.splitlines()[-1] == "[]"
