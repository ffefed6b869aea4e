"""The package metadata declares every third-party module the package and its tests import."""

import ast
import re
import sys
from pathlib import Path

import pytest

tomllib = pytest.importorskip("tomllib")  # Python 3.11 and later

ROOT = Path(__file__).resolve().parents[1]
TESTS = list((ROOT / "tests").glob("*.py"))
LOCAL = {"dpca"} | {path.stem for path in TESTS}


def declared(*extras):
    """Module names of ``[project].dependencies`` plus the named optional extras."""
    project = tomllib.loads((ROOT / "pyproject.toml").read_text(encoding="utf-8"))["project"]
    requirements = project["dependencies"] + [
        r for extra in extras for r in project["optional-dependencies"][extra]]
    return {re.match(r"[A-Za-z0-9_.-]+", r).group(0).lower() for r in requirements}


def third_party_imports(paths, local):
    """Top-level modules that ``paths`` import, less the stdlib and ``local``.

    Absolute imports count, and so do the modules of ``pytest.importorskip("...")`` calls.
    """
    imported = set()
    for path in paths:
        for node in ast.walk(ast.parse(path.read_text(encoding="utf-8"))):
            if isinstance(node, ast.Import):
                imported |= {alias.name.split(".")[0] for alias in node.names}
            elif isinstance(node, ast.ImportFrom) and node.level == 0:
                imported.add(node.module.split(".")[0])
            elif (isinstance(node, ast.Call)
                  and isinstance(node.func, ast.Attribute) and node.func.attr == "importorskip"
                  and node.args and isinstance(node.args[0], ast.Constant)):
                imported.add(node.args[0].value.split(".")[0])
    return imported - set(sys.stdlib_module_names) - local


def test_package_imports_are_dependencies():
    # the test extra does not count: an installed package must import without it
    undeclared = third_party_imports((ROOT / "src" / "dpca").rglob("*.py"), {"dpca"}) - declared()
    assert not undeclared, f"imported by dpca but not in [project].dependencies: {sorted(undeclared)}"


def test_test_imports_are_declared():
    # an optional module a test importorskips is declared too, so that the test can run
    undeclared = third_party_imports(TESTS, LOCAL) - declared("test")
    assert not undeclared, f"imported by tests but not in pyproject.toml: {sorted(undeclared)}"


def test_test_extra_is_used():
    unused = declared("test") - declared() - third_party_imports(TESTS, LOCAL)
    assert not unused, f"in the test extra but imported by no test: {sorted(unused)}"
