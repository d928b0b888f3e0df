"""The one gauge rule: every chain gate is in SO(4), the report prices the
emitted gates as the benchmark does, and multi-layer runs do not depend on
the last bit of their input.

The benchmark's request pools and its independent CNOT pricer are loaded
read-only from `perfbench/`.
"""

import importlib.util
import json
from pathlib import Path

import numpy as np
import pytest

from symprep import pipeline
from symprep.circuit import Circuit, GateOp, accounting, import_circuit
from symprep.dist import amplitudes
from symprep.pipeline import config_from_dict, run_full

PERFBENCH = Path(__file__).resolve().parent.parent / "perfbench"


def _load(name):
    spec = importlib.util.spec_from_file_location(f"perfbench_{name}", PERFBENCH / f"{name}.py")
    module = importlib.util.module_from_spec(spec)
    spec.loader.exec_module(module)
    return module


checks = _load("checks")
workloads = _load("workloads")


def run_docs(workload, seed):
    docs = workloads.POOLS[workload](seed)
    if workload == "sweep-mix":
        return [p for d in docs for p in workloads.sweep_points(d)]
    return docs


@pytest.fixture(scope="module")
def seed0_runs():
    return {w: [run_full(config_from_dict(d)) for d in run_docs(w, 0)] for w in workloads.POOLS}


def test_emitted_gates_are_so4(seed0_runs):
    # deep-stack is n=14, L=11, both methods; the padded end gate
    # kron(I, end) has det = det(end)^2 = 1
    assert len(seed0_runs["deep-stack"]) == 2
    for w, results in seed0_runs.items():
        for res in results:
            mats = [g.matrix for g in res.circuit.gates if g.kind == "unitary2"]
            dets = np.linalg.det(np.stack(mats))
            assert np.all(dets > 0), f"{w}: {int(np.sum(dets <= 0))} gates with det <= 0"


def test_report_prices_equal_benchmark_pricer(seed0_runs):
    for w, results in seed0_runs.items():
        for res in results:
            stats = res.report.gate_stats
            assert stats.cnot_count == checks.cnot_cost(res.circuit), w
            assert stats.cnot_depth_counted == checks.cnot_depth(res.circuit), w
            assert res.report_doc["gate_stats"]["cnot_count"] == stats.cnot_count


def test_prices_of_single_gates():
    rng = np.random.default_rng(41)
    q = np.linalg.qr(rng.standard_normal((4, 4)))[0]
    q[:, 0] *= np.sign(np.linalg.det(q))  # det +1
    flipped = q.copy()
    flipped[:, 3] *= -1.0  # det -1
    entry = {"kind": "unitary2", "qubits": [0, 1], "matrix": flipped.ravel().tolist()}
    imported = import_circuit(json.dumps({"format_version": 1, "n_qubits": 2, "gates": [entry]}))
    a, b = (np.linalg.qr(rng.standard_normal((2, 2)))[0] for _ in range(2))
    cases = {
        "det -1": (imported, 3),
        "det +1": (Circuit(2, (GateOp("unitary2", (0, 1), q),)), 2),
        "kron": (Circuit(2, (GateOp("unitary2", (0, 1), np.kron(a, b)),)), 0),
        "cnot": (Circuit(2, (GateOp("hadamard", (0,)), GateOp("cnot", (0, 1)))), 1),
    }
    for name, (c, price) in cases.items():
        stats = accounting(c)
        assert stats.cnot_count == checks.cnot_cost(c) == price, name
        assert stats.cnot_depth_counted == checks.cnot_depth(c) == price, name


def test_free_gates_take_no_depth():
    # a product gate between two CNOTs on disjoint wires does not chain them
    eye4 = np.eye(4)
    c = Circuit(4, (GateOp("cnot", (0, 1)), GateOp("unitary2", (1, 2), eye4), GateOp("cnot", (2, 3))))
    stats = accounting(c)
    assert stats.cnot_depth_counted == checks.cnot_depth(c) == 1
    assert stats.cnot_count == 2


def test_multi_layer_runs_ignore_last_bit_noise(monkeypatch):
    # amplitudes times (1 + 1e-15 N(0, 1)), renormalised: every multi-layer
    # sweep-mix point of seed 0 keeps its KL within 1e-6 relative over 4 draws
    points = [d for d in run_docs("sweep-mix", 0) if d["num_layers"] > 1]
    assert len(points) == 48
    moved = []
    for i, doc in enumerate(points):
        cfg = config_from_dict(doc)
        kl = run_full(cfg).report.kl_divergence
        rng = np.random.default_rng(i)

        def noisy(t):
            a = amplitudes(t) * (1.0 + 1e-15 * rng.standard_normal(t.p.size))
            return a / np.linalg.norm(a)

        with monkeypatch.context() as mp:
            mp.setattr(pipeline, "amplitudes", noisy)
            for _ in range(4):
                rel = abs(run_full(cfg).report.kl_divergence - kl) / kl
                if rel > 1e-6:
                    moved.append((doc["dist"], doc["method"], doc["n_qubits"], doc["num_layers"], rel))
    assert not moved, moved
