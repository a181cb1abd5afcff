import ast
import re
import sys
from pathlib import Path

import pytest

import sparsemp

PACKAGE = Path(sparsemp.__file__).resolve().parent
PYPROJECT = Path(__file__).resolve().parent.parent / "pyproject.toml"


def imported_modules(path: Path):
    for node in ast.walk(ast.parse(path.read_text(), filename=str(path))):
        if isinstance(node, ast.Import):
            yield from (alias.name for alias in node.names)
        elif isinstance(node, ast.ImportFrom) and node.module and node.level == 0:
            yield node.module


def test_no_private_scipy_modules():
    private = [
        f"{path.name}: {name}"
        for path in sorted(PACKAGE.glob("*.py"))
        for name in imported_modules(path)
        if name.split(".")[0] == "scipy"
        and any(part.startswith("_") for part in name.split(".")[1:])
    ]
    assert not private, f"private SciPy modules imported: {private}"


def test_third_party_imports_are_declared_dependencies():
    tomllib = pytest.importorskip("tomllib")  # Python 3.11+
    project = tomllib.loads(PYPROJECT.read_text())["project"]
    declared = {
        re.match(r"[A-Za-z0-9_.-]+", spec).group().lower().replace("-", "_")
        for spec in project["dependencies"]
    }
    undeclared = [
        f"{path.name}: {name}"
        for path in sorted(PACKAGE.glob("*.py"))
        for name in imported_modules(path)
        if (top := name.split(".")[0]) not in sys.stdlib_module_names
        and top != "sparsemp" and top not in declared
    ]
    assert not undeclared, f"imports outside pyproject.toml's dependencies: {undeclared}"
