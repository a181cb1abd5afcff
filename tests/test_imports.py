import ast
import os
import re
import subprocess
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
    # Nor private NumPy modules such as numpy.linalg._umath_linalg.
    private = [
        f"{path.name}: {name}"
        for path in sorted(PACKAGE.glob("*.py"))
        for name in imported_modules(path)
        if name.split(".")[0] in ("scipy", "numpy")
        and any(part.startswith("_") for part in name.split(".")[1:])
    ]
    assert not private, f"private SciPy or NumPy modules imported: {private}"


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


# Imports the package, ranks features on a small problem, refines a basis
# once, trains one small lsdp and one small clsdp model, then runs
# `sparsemp train` on a synthetic fixture. Its last line says, for each
# step, whether any SciPy module was loaded by then.
LOADS_SCRIPT = """
import sys
import tempfile
import numpy as np

loaded = []

def scipy_loaded():
    loaded.append(any(name.split(".")[0] == "scipy" for name in sys.modules))

import sparsemp
from sparsemp import cli, rbf
scipy_loaded()
rng = np.random.default_rng(0)
t = np.linspace(0.0, 1.0, 30)
params = rbf.RbfParams(mu=np.linspace(0.0, 1.0, 6), sigma2=np.full(6, 0.02))
phi, acc = rbf.build_basis(t, params)
y = rng.standard_normal((30, 2))
path = sparsemp.compute_path(sparsemp.to_lasso(phi, acc, y, 1e-4), n_lambdas=5, ratio=1e-2)
sparsemp.rank_features(path)
scipy_loaded()
obj = sparsemp.FeatureObjective(t, y, rng.standard_normal((6, 2)), 1e-4)
sparsemp.bfgs_minimize(obj, obj.encode(params), max_iters=2)
scipy_loaded()
demos, _ = sparsemp.synth_demoset(n_demos=2, n_dof=2, n_samples=40, dt=0.025,
                                  k_features=3, seed=0)
config = sparsemp.TrainerConfig(max_outer_iters=3, bfgs_max_iters=5)
sparsemp.train_lsdp(demos.demos[0], config)
scipy_loaded()
sparsemp.train_clsdp(demos, config)
scipy_loaded()
with tempfile.TemporaryDirectory() as out:
    assert cli.main(["synth", "--out", out, "--demos", "2", "--dof", "2",
                     "--samples", "40", "--rate", "40", "--features", "3"]) == 0
    assert cli.main(["train", "clsdp", f"{out}/demo_1.csv", f"{out}/demo_2.csv",
                     "--out", f"{out}/p.json", "--max-iters", "2"]) == 0
scipy_loaded()
print(*loaded)
"""


def test_scipy_never_loads():
    env = {**os.environ, "PYTHONPATH": str(PACKAGE.parent)}
    proc = subprocess.run([sys.executable, "-c", LOADS_SCRIPT], env=env,
                          capture_output=True, text=True, timeout=120, check=True)
    assert proc.stdout.splitlines()[-1].split() == ["False"] * 6
