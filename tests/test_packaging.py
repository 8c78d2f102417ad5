"""Package metadata: the version is written in one place."""

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
