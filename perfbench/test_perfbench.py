"""Tests of the benchmark's own pieces: CNOT pricer, dense interpreter,
workload generator and tracer.

    python3 -m pytest perfbench
"""

import numpy as np
import pytest

import checks
import workloads
from tracer import TRACED, Tracer, TraceError
from symprep.circuit import Circuit, GateOp, add_reflection_wrapper, simulate


def _orthogonal(n, seed, det):
    q, r = np.linalg.qr(np.random.default_rng(seed).normal(size=(n, n)))
    q = q * np.sign(np.diag(r))
    if np.sign(np.linalg.det(q)) != det:
        q[:, 0] = -q[:, 0]
    return q


def test_price_product_gate_is_zero():
    g = np.kron(_orthogonal(2, 1, 1), _orthogonal(2, 2, -1))
    assert checks.cnot_price(GateOp("unitary2", (0, 1), g)) == 0


def test_price_det_minus_one_gate_is_three():
    g = _orthogonal(4, 3, -1)
    assert np.linalg.det(g) < 0
    assert checks.cnot_price(GateOp("unitary2", (0, 1), g)) == 3


def test_price_generic_so4_gate_is_two():
    g = _orthogonal(4, 4, 1)
    assert np.linalg.det(g) > 0
    assert checks.cnot_price(GateOp("unitary2", (1, 2), g)) == 2


def test_price_cnot_is_one_and_one_qubit_gates_free():
    assert checks.cnot_price(GateOp("cnot", (2, 0))) == 1
    assert checks.cnot_price(GateOp("hadamard", (0,))) == 0
    assert checks.cnot_price(GateOp("unitary1", (0,), _orthogonal(2, 5, -1))) == 0


def test_cnot_cost_and_greedy_depth():
    gen = _orthogonal(4, 4, 1)  # 2
    odd = _orthogonal(4, 3, -1)  # 3
    prod = np.kron(np.eye(2), _orthogonal(2, 6, 1))  # 0
    c = Circuit(4, (
        GateOp("unitary2", (0, 1), gen),
        GateOp("unitary2", (2, 3), odd),
        GateOp("unitary2", (1, 2), prod),
        GateOp("cnot", (0, 3)),
    ))
    assert checks.cnot_cost(c) == 2 + 3 + 0 + 1
    # wires 0,1 busy until 2 and wires 2,3 until 3; the cnot on (0, 3) ends at 4
    assert checks.cnot_depth(c) == 4


def test_interpreter_matches_simulator():
    inner = Circuit(3, (
        GateOp("unitary2", (0, 1), _orthogonal(4, 7, 1)),
        GateOp("unitary2", (1, 2), _orthogonal(4, 8, -1)),
        GateOp("cnot", (2, 0)),
        GateOp("unitary1", (1,), _orthogonal(2, 9, 1)),
    ))
    c = add_reflection_wrapper(inner)
    assert np.max(np.abs(checks.interpret(c) - simulate(c))) <= 1e-12


def test_sweep_generator_repeats_for_a_seed():
    assert workloads.sweep_pool(7) == workloads.sweep_pool(7)
    assert workloads.sweep_pool(7) != workloads.sweep_pool(8)
    assert workloads.fixed_pool(14, 11, 3) == workloads.fixed_pool(14, 11, 3)


def test_sweep_generator_stays_in_ranges():
    for doc in workloads.sweep_pool(11):
        base = doc["base"]
        key, lo, hi, _ = workloads.FAMILIES[base["dist"]["kind"]]
        assert lo <= base["dist"][key] <= hi
        assert 6 <= base["n_qubits"] <= 12
        (vary_key, values), = doc["vary"].items()
        assert max(values) <= (5 if vary_key == "layer_counts" else 32)
        assert [p["num_layers"] for p in workloads.sweep_points(doc)] == [
            v if vary_key == "layer_counts" else v.bit_length() - 1 for v in values
        ]


def test_tracer_refuses_a_missing_name(monkeypatch):
    import symprep.circuit

    monkeypatch.delattr(symprep.circuit, "simulate")
    with pytest.raises(TraceError, match="circuit.simulate is missing"):
        Tracer().install()


def test_tracer_restores_and_flags_uncalled_functions():
    import symprep.mps

    before = symprep.mps.svd
    tracer = Tracer()
    tracer.install()
    try:
        assert symprep.mps.svd is not before
    finally:
        tracer.uninstall()
    assert symprep.mps.svd is before
    assert len(TRACED) == len(tracer.total_calls)
    with pytest.raises(TraceError, match="never called"):
        tracer.check_called("deep-stack")
