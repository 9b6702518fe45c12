"""The library runs on the standard library and numpy alone."""

import ast
import os
import re
import subprocess
import sys
from pathlib import Path

import pytest

ROOT = Path(__file__).resolve().parents[1]
PACKAGE = ROOT / "src" / "shardrisk"


def test_cli_import_loads_numpy_random_and_no_scipy():
    # numpy.random is loaded at import, not lazily inside the first simulation
    code = ("import sys, shardrisk.cli; "
            "print('scipy' in sys.modules, 'numpy.random' in sys.modules)")
    env = {**os.environ, "PYTHONPATH": str(ROOT / "src")}
    done = subprocess.run([sys.executable, "-c", code], env=env, capture_output=True,
                          text=True, timeout=120, check=True)
    assert done.stdout.split() == ["False", "True"]


@pytest.mark.parametrize("path", sorted(PACKAGE.glob("*.py")), ids=lambda p: p.name)
def test_imports_are_stdlib_numpy_or_own(path):
    allowed = set(sys.stdlib_module_names) | {"numpy", "shardrisk"}
    for node in ast.walk(ast.parse(path.read_text(encoding="utf-8"))):
        if isinstance(node, ast.Import):
            names = [alias.name for alias in node.names]
        elif isinstance(node, ast.ImportFrom) and node.level == 0:
            names = [node.module]
        else:
            continue
        for name in names:
            assert name.split(".")[0] in allowed, (path.name, node.lineno, name)


def test_numpy_is_the_only_dependency():
    tomllib = pytest.importorskip("tomllib")  # Python 3.11+
    project = tomllib.loads((ROOT / "pyproject.toml").read_text(encoding="utf-8"))
    names = [re.match(r"[A-Za-z0-9_.-]+", dep).group()
             for dep in project["project"]["dependencies"]]
    assert names == ["numpy"]
