"""Benchmark-side output checks and CNOT pricing.

Nothing here calls symprep: the dense interpreter and the pricer read only
the emitted gate list (kind, qubits, matrix), so they are an independent
reference for `RunResult.state` and for the circuit's two-qubit cost.
"""

from __future__ import annotations

import math

import numpy as np

STATE_TOL = 1e-12
# reported KL / fidelity against the benchmark's recomputation
KL_RTOL, KL_ATOL = 1e-6, 1e-13
FIDELITY_ATOL = 1e-12
# realignment singular-value ratio below which a 4x4 gate is a product gate
PRODUCT_TOL = 1e-9

_H = np.array([[1.0, 1.0], [1.0, -1.0]]) / math.sqrt(2.0)
# control on the first listed wire
_CX = np.array([[1.0, 0, 0, 0], [0, 1.0, 0, 0], [0, 0, 0, 1.0], [0, 0, 1.0, 0]])


def _gate_matrix(gate) -> np.ndarray:
    if gate.kind == "hadamard":
        return _H
    if gate.kind == "cnot":
        return _CX
    return np.asarray(gate.matrix, dtype=float)


def _apply(psi: np.ndarray, n: int, mat: np.ndarray, qubits) -> np.ndarray:
    if len(qubits) == 1:
        (q,) = qubits
        t = psi.reshape(2**q, 2, 2 ** (n - q - 1))
        return np.einsum("uj,ajc->auc", mat, t).reshape(-1)
    a, b = qubits
    g = mat.reshape(2, 2, 2, 2)  # [out_a, out_b, in_a, in_b]
    if a > b:
        a, b = b, a
        g = g.transpose(1, 0, 3, 2)
    t = psi.reshape(2**a, 2, 2 ** (b - a - 1), 2, 2 ** (n - b - 1))
    return np.einsum("uvjk,ajbkc->aubvc", g, t).reshape(-1)


def interpret(circuit) -> np.ndarray:
    """Dense state of the gate list applied in order to |0...0>.

    Qubit 0 is the most significant bit of the basis index; for two-qubit
    gates the first listed wire is the higher-significance matrix bit.
    """
    n = circuit.n_qubits
    psi = np.zeros(2**n)
    psi[0] = 1.0
    for gate in circuit.gates:
        psi = _apply(psi, n, _gate_matrix(gate), gate.qubits)
    return psi


def is_product_gate(mat: np.ndarray) -> bool:
    """True when the 4x4 matrix is A (x) B: its realignment has rank 1."""
    r = np.asarray(mat, dtype=float).reshape(2, 2, 2, 2).transpose(0, 2, 1, 3).reshape(4, 4)
    s = np.linalg.svd(r, compute_uv=False)
    return s[1] <= PRODUCT_TOL * s[0]


def cnot_price(gate) -> int:
    """CNOTs needed for one gate: cnot 1; a real orthogonal two-qubit gate 0
    if it is a product gate, 3 if det = -1, else 2; one-qubit gates 0."""
    if gate.kind == "cnot":
        return 1
    if gate.kind != "unitary2":
        return 0
    if is_product_gate(gate.matrix):
        return 0
    return 3 if np.linalg.det(gate.matrix) < 0 else 2


def cnot_cost(circuit) -> int:
    return sum(cnot_price(g) for g in circuit.gates)


def cnot_depth(circuit) -> int:
    """Greedy-layered CNOT depth: a gate starts when all its wires are free
    and occupies them for its price; zero-price gates take no time."""
    clock = [0] * circuit.n_qubits
    for gate in circuit.gates:
        price = cnot_price(gate)
        if price == 0:
            continue
        t = max(clock[q] for q in gate.qubits) + price
        for q in gate.qubits:
            clock[q] = t
    return max(clock, default=0)


def kl(p: np.ndarray, q: np.ndarray) -> float:
    mask = p > 0
    return float(np.sum(p[mask] * np.log(p[mask] / np.maximum(q[mask], 1e-300))))


def fidelity(p: np.ndarray, q: np.ndarray) -> float:
    return float(np.sum(np.sqrt(p * q)) ** 2)


def check_result(result) -> tuple[list[str], dict]:
    """Check one RunResult; returns (problems, its accuracy and price)."""
    problems = []
    psi = interpret(result.circuit)
    err = float(np.max(np.abs(psi - result.state)))
    if not err <= STATE_TOL:
        problems.append(f"interpreted state differs from RunResult.state by {err:.3g}")
    p = np.asarray(result.target.p, dtype=float)
    q = psi * psi
    rep = result.report
    kl_ref = kl(p, q)
    if not abs(kl_ref - rep.kl_divergence) <= KL_ATOL + KL_RTOL * abs(kl_ref):
        problems.append(f"reported KL {rep.kl_divergence!r} != recomputed {kl_ref!r}")
    fid_ref = fidelity(p, q)
    if not abs(fid_ref - rep.classical_fidelity) <= FIDELITY_ATOL:
        problems.append(
            f"reported fidelity {rep.classical_fidelity!r} != recomputed {fid_ref!r}"
        )
    record = {
        "kl": rep.kl_divergence,
        "fidelity": rep.classical_fidelity,
        "cnot_cost": cnot_cost(result.circuit),
        "cnot_depth": cnot_depth(result.circuit),
        "state_err": err,
        "kl_err": abs(kl_ref - rep.kl_divergence),
    }
    return problems, record
