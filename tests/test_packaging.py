"""The package metadata declares every third-party module the tests import."""

import ast
import re
import sys
from pathlib import Path

import pytest

tomllib = pytest.importorskip("tomllib")  # Python 3.11 and later

ROOT = Path(__file__).resolve().parents[1]
MODULE_OF = {"scikit-learn": "sklearn"}  # distributions whose module has another name


def test_test_imports_are_declared():
    project = tomllib.loads((ROOT / "pyproject.toml").read_text(encoding="utf-8"))["project"]
    requirements = project["dependencies"] + project["optional-dependencies"]["test"]
    names = (re.match(r"[A-Za-z0-9_.-]+", r).group(0).lower() for r in requirements)
    declared = {MODULE_OF.get(name, name) for name in names}
    tests = list((ROOT / "tests").glob("*.py"))
    local = {"dpca"} | {path.stem for path in tests}
    imported = set()
    for path in tests:
        for node in ast.walk(ast.parse(path.read_text(encoding="utf-8"))):
            if isinstance(node, ast.Import):
                imported |= {alias.name.split(".")[0] for alias in node.names}
            elif isinstance(node, ast.ImportFrom) and node.level == 0:
                imported.add(node.module.split(".")[0])
    # pytest.importorskip(...) is a call, not an import: optional modules pass
    undeclared = imported - set(sys.stdlib_module_names) - local - declared
    assert not undeclared, f"imported by tests but not in pyproject.toml: {sorted(undeclared)}"
