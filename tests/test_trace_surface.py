"""The benchmark's traced surface: a run of each method calls every public
function the benchmark's tracer requires of a workload.

`perfbench/tracer.py` is loaded read-only. A fast path that skips a traced
kernel (a closed-form Hadamard instead of `statevec.apply_1q`, say) fails
here, not first in the traced benchmark run.
"""

import importlib.util
from pathlib import Path

import pytest

from symprep import pipeline

PERFBENCH = Path(__file__).resolve().parent.parent / "perfbench"

spec = importlib.util.spec_from_file_location("perfbench_tracer", PERFBENCH / "tracer.py")
tracer = importlib.util.module_from_spec(spec)
spec.loader.exec_module(tracer)

NORMAL = {"dist": {"kind": "normal", "mu": 0.0, "sigma2": 0.01}, "grid": {"min": -0.5, "max": 0.5}, "n_qubits": 6}

# a baseline run encodes the whole target and emits no wrapper, so no
# Hadamard reaches apply_1q; every benchmark workload runs both methods
NOT_BASELINE = {"dist.left_half", "circuit.add_reflection_wrapper", "statevec.apply_1q"}


def traced_calls(call):
    t = tracer.Tracer()
    t.install()
    try:
        call()
    finally:
        t.uninstall()
    return {key for key, n in t.total_calls.items() if n}


# what every workload must call; sweep-mix must also call the SWEEP names
EVERY_WORKLOAD = {f"{m}.{f}" for m, f, must in tracer.TRACED if must == tracer.ALL}
SWEEP = {f"{m}.{f}" for m, f, must in tracer.TRACED if "sweep-mix" in must}


@pytest.mark.parametrize("method", ["symmetry", "baseline"])
def test_each_method_calls_every_traced_function(method):
    # through the module attribute: the tracer patches symprep's namespaces,
    # not a name a test imported before it was installed
    called = traced_calls(lambda: pipeline.run_full(pipeline.config_from_dict({**NORMAL, "method": method})))
    exempt = NOT_BASELINE if method == "baseline" else set()
    missing = EVERY_WORKLOAD - exempt - called
    assert not missing, f"{method} run never called {sorted(missing)}"


def test_a_sweep_calls_every_traced_function():
    doc = {"base": {**NORMAL, "method": "symmetry"}, "vary": {"layer_counts": [1, 2]}}
    called = traced_calls(lambda: pipeline.sweep_full(pipeline.config_from_dict(doc)))
    missing = SWEEP - called
    assert not missing, f"sweep never called {sorted(missing)}"


@pytest.mark.parametrize("vary", [{"bond_dims": [2, 4]}, {"qubit_counts": [5, 6]}], ids=lambda v: next(iter(v)))
def test_every_sweep_axis_calls_every_traced_function(vary):
    # a layer or bond sweep verifies its smaller points on a prefix of one
    # run_full's stack, a qubit sweep runs each point alone: both must
    # still reach every name the benchmark requires of sweep-mix
    doc = {"base": {**NORMAL, "method": "symmetry"}, "vary": vary}
    called = traced_calls(lambda: pipeline.sweep_full(pipeline.config_from_dict(doc)))
    missing = SWEEP - called
    assert not missing, f"sweep never called {sorted(missing)}"
