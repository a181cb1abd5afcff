import ast
from pathlib import Path

import sparsemp

PACKAGE = Path(sparsemp.__file__).resolve().parent


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
