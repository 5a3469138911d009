import importlib
import re
import sys
from pathlib import Path

import pytest

PYPROJECT = Path(__file__).resolve().parent.parent / "pyproject.toml"


@pytest.mark.skipif(sys.version_info < (3, 11), reason="tomllib needs Python 3.11")
def test_declared_dependencies_import():
    import tomllib

    deps = tomllib.loads(PYPROJECT.read_text())["project"]["dependencies"]
    assert deps
    for dep in deps:
        name = re.match(r"[A-Za-z0-9_.-]+", dep).group(0).replace("-", "_")
        importlib.import_module(name)
