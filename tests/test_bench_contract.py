"""The benchmark's contract with the package: every workload still runs.

`bench/workloads.py` and `bench/tracing.py` reach into the package by name
(trainer entry points, `TrainerConfig.check_invariants`, the layer
functions the tracer wraps, `AugmentedProblem.phi_a`, ...). One traced,
checked op per workload catches a change that removes any of them.
"""

import importlib.util
import sys
from pathlib import Path

import pytest

import sparsemp

BENCH = Path(__file__).resolve().parent.parent / "bench"


def load(name):
    spec = importlib.util.spec_from_file_location(name, BENCH / f"{name}.py")
    module = importlib.util.module_from_spec(spec)
    # dataclasses look their module up in sys.modules while the class is built.
    sys.modules[name] = module
    spec.loader.exec_module(module)
    return module


workloads = load("workloads")
tracing = load("tracing")


@pytest.mark.parametrize("name", sorted(workloads.WORKLOADS))
def test_first_instance_passes_its_checks_under_tracing(name, tmp_path):
    workload = workloads.WORKLOADS[name]
    instance = workload.build(1)[0]
    tracer = tracing.Tracer()
    with tracing.instrument(tracer, sparsemp):
        out = workload.op(instance, str(tmp_path))
    assert workload.check(instance, out) == []
    assert tracer.summary()
