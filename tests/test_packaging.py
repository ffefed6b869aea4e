"""The package metadata declares every third-party module the package and its tests import.

And the tests patch no private solver: a fit reports its route itself.
"""

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


# (test file, function) of the spies on private eigencore or methods names
# that stay: each counts calls, which no result reports
PRIVATE_SPIES = {("test_errors.py", "solves"),
                 ("test_methods.py", "test_errors_come_before_any_fit")}


def private_patches(path):
    """``(function, "module.name")`` of each private eigencore or methods name ``path`` patches.

    A patch is a ``monkeypatch.setattr`` call. A name given by a loop
    variable stands for each string of the loop's tuple; any other name that
    is not a string counts as private.
    """
    tree = ast.parse(path.read_text(encoding="utf-8"))
    aliases = {alias.asname or alias.name: alias.name for node in ast.walk(tree)
               if isinstance(node, ast.ImportFrom) and node.module == "dpca"
               for alias in node.names}
    found = []

    def visit(node, function, loops):
        if isinstance(node, ast.FunctionDef):
            function = node.name
        elif isinstance(node, ast.For) and isinstance(node.target, ast.Name):
            items = getattr(node.iter, "elts", [])
            if items and all(isinstance(item, ast.Constant) for item in items):
                loops = {**loops, node.target.id: [item.value for item in items]}
        elif (isinstance(node, ast.Call) and ast.unparse(node.func) == "monkeypatch.setattr"
              and len(node.args) > 1):
            target, name = ast.unparse(node.args[0]), node.args[1]
            module = aliases.get(target, target.rpartition(".")[2])
            if module in ("eigencore", "methods"):
                names = ([name.value] if isinstance(name, ast.Constant)
                         else loops.get(getattr(name, "id", None), [None]))
                found.extend((function, f"{module}.{n}") for n in names
                             if not isinstance(n, str) or n.startswith("_"))
        for child in ast.iter_child_nodes(node):
            visit(child, function, loops)

    visit(tree, None, {})
    return found


def test_tests_spy_on_no_private_solver():
    # a route or a solve order is read from model.diagnostics or pairs.route;
    # conftest.pencil_solves is the one fixture that patches the leaves
    patched = {(path.name, function): name for path in TESTS if path.name != "conftest.py"
               for function, name in private_patches(path)}
    extra = set(patched) - PRIVATE_SPIES
    assert not extra, {key: patched[key] for key in extra}
