"""The package metadata declares every third-party module the package and its tests import."""

import ast
import re
import sys
from pathlib import Path

import pytest

tomllib = pytest.importorskip("tomllib")  # Python 3.11 and later

ROOT = Path(__file__).resolve().parents[1]
MODULE_OF = {"scikit-learn": "sklearn"}  # distributions whose module has another name


def declared(*extras):
    """Module names of ``[project].dependencies`` plus the named optional extras."""
    project = tomllib.loads((ROOT / "pyproject.toml").read_text(encoding="utf-8"))["project"]
    requirements = project["dependencies"] + [
        r for extra in extras for r in project["optional-dependencies"][extra]]
    names = (re.match(r"[A-Za-z0-9_.-]+", r).group(0).lower() for r in requirements)
    return {MODULE_OF.get(name, name) for name in names}


def third_party_imports(paths, local):
    """Top-level modules that ``paths`` import absolutely, less the stdlib and ``local``."""
    imported = set()
    for path in paths:
        for node in ast.walk(ast.parse(path.read_text(encoding="utf-8"))):
            if isinstance(node, ast.Import):
                imported |= {alias.name.split(".")[0] for alias in node.names}
            elif isinstance(node, ast.ImportFrom) and node.level == 0:
                imported.add(node.module.split(".")[0])
    return imported - set(sys.stdlib_module_names) - local


def test_package_imports_are_dependencies():
    # the test extra does not count: an installed package must import without it
    undeclared = third_party_imports((ROOT / "src" / "dpca").rglob("*.py"), {"dpca"}) - declared()
    assert not undeclared, f"imported by dpca but not in [project].dependencies: {sorted(undeclared)}"


def test_test_imports_are_declared():
    tests = list((ROOT / "tests").glob("*.py"))
    local = {"dpca"} | {path.stem for path in tests}
    # pytest.importorskip(...) is a call, not an import: optional modules pass
    undeclared = third_party_imports(tests, local) - declared("test")
    assert not undeclared, f"imported by tests but not in pyproject.toml: {sorted(undeclared)}"
