"""Oracles the tests check symprep against; symprep itself runs none of them.

`meyer_wallach_direct` evaluates Meyer-Wallach Q from its pairwise-wedge
definition (quadratic in 2^n, so n <= 12), against which the tests check
`metrics.meyer_wallach_purity`. `residual` checks a disentangler stack
densely, by simulating the circuit `prep_circuit` emits for it. `zero_state`
is |0...0> in the layout `mps_from_statevector` reads, and `to_statevector`
contracts an MPS back to that dense vector.
"""

import numpy as np

from symprep.circuit import CircuitError, prep_circuit, simulate
from symprep.disentangler import DisentanglerStack
from symprep.metrics import MetricsError
from symprep.mps import DENSE_LIMIT, Mps, MpsError

_DIRECT_LIMIT = 12  # direct evaluation cost is quadratic in dimension


def zero_state(n: int) -> np.ndarray:
    """|0...0> as a flat 2^n vector, the input layout of `mps_from_statevector`."""
    v = np.zeros(2**n)
    v[0] = 1.0
    return v


def to_statevector(m: Mps) -> np.ndarray:
    """Full contraction to a dense vector; first qubit is the most
    significant index bit."""
    n = m.n_qubits
    if n > DENSE_LIMIT:
        raise MpsError(f"n={n} exceeds dense limit {DENSE_LIMIT}")
    psi = m.tensors[0][:, 0, :]  # (2, chi)
    for t in m.tensors[1:]:
        psi = np.einsum("ka,sab->ksb", psi, t)
        psi = psi.reshape(-1, t.shape[2])
    return psi[:, 0]


def residual(m: Mps, stack: DisentanglerStack) -> float:
    """1 - <psi|prepared>^2 for the state psi of m and the state the emitted
    circuit prep_circuit(stack) prepares from |0...0>, computed densely."""
    if m.n_qubits != stack.n_qubits:
        raise CircuitError("qubit count mismatch between state and stack")
    overlap = float(to_statevector(m) @ simulate(prep_circuit(stack)))
    return max(0.0, 1.0 - overlap**2)


def _check_state(v) -> tuple[np.ndarray, int]:
    v = np.asarray(v, dtype=float).ravel()
    n = int(v.size).bit_length() - 1
    if 2**n != v.size or n < 1:
        raise MetricsError(f"length {v.size} is not a power of two >= 2")
    if n > _DIRECT_LIMIT:
        raise MetricsError(f"n={n} exceeds limit {_DIRECT_LIMIT} for this evaluation")
    if not abs(float(np.linalg.norm(v)) - 1.0) <= 1e-10:  # NaN fails too
        raise MetricsError("statevector is not normalized within 1e-10")
    return v, n


def _delete_qubit(v: np.ndarray, n: int, j: int, bit: int) -> np.ndarray:
    # keep components whose j-th bit (qubit 0 = most significant) equals bit
    t = v.reshape([2] * n)
    return np.take(t, bit, axis=j).ravel()


def meyer_wallach_direct(v) -> float:
    """Q = (4/n) * sum_j D(u_j, w_j) where u_j, w_j are the two qubit-j
    slices of the state and D is the pairwise wedge sum
    D(u, w) = sum_{x<y} (u_x w_y - u_y w_x)^2."""
    v, n = _check_state(v)
    total = 0.0
    for j in range(n):
        u = _delete_qubit(v, n, j, 0)
        w = _delete_qubit(v, n, j, 1)
        wedge = np.outer(u, w) - np.outer(w, u)
        total += 0.5 * float(np.sum(wedge * wedge))
    return 4.0 * total / n
