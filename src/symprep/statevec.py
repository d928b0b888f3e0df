"""Dense statevector kernels of `circuit.simulate`, the one dense interpreter.

Qubit 0 is the most significant bit of the basis index throughout. For
two-qubit gates the first listed wire is the higher-significance bit of the
4x4 gate index. A state is an n-axis array, one axis per qubit, in which an
untouched qubit's axis may have width 1 (`widen` appends its zero |1> slice).
A kernel runs one einsum on a (left, 2, [mid, 2,] right) view of the state;
`apply_cnot` is an exact permutation, a copy with the control=1 slice
written with the target axis reversed.
"""

from __future__ import annotations

import numpy as np

__all__ = [
    "zero_state", "widen", "apply_1q", "apply_2q", "apply_cnot", "HADAMARD", "CNOT"
]

HADAMARD = np.array([[1.0, 1.0], [1.0, -1.0]]) / np.sqrt(2.0)

# control = first wire: |c t> -> |c, t xor c>
CNOT = np.array(
    [
        [1.0, 0.0, 0.0, 0.0],
        [0.0, 1.0, 0.0, 0.0],
        [0.0, 0.0, 0.0, 1.0],
        [0.0, 0.0, 1.0, 0.0],
    ]
)


def zero_state(n: int) -> np.ndarray:
    """|0...0> as a flat 2^n vector, the input layout of `mps_from_statevector`."""
    v = np.zeros(2**n)
    v[0] = 1.0
    return v


def widen(psi: np.ndarray, qubits) -> np.ndarray:
    """The n-axis state psi with each listed qubit's axis at width 2: an axis
    of width 1 gets a zero |1> slice appended."""
    for q in qubits:
        if psi.shape[q] == 1:
            psi = np.concatenate((psi, np.zeros_like(psi)), axis=q)
    return psi


def _view(psi: np.ndarray, lo: int, hi: int) -> np.ndarray:
    # (left, 2, right) when lo == hi, else (left, 2, mid, 2, right)
    s = psi.shape
    if len(s) <= hi or s[lo] != 2 or s[hi] != 2:
        raise ValueError(f"qubits {lo} and {hi} need axes of width 2, the state's shape is {s}")
    left, right = 1 << s[:lo].count(2), 1 << s[hi + 1 :].count(2)
    return psi.reshape(left, 2, right) if lo == hi else psi.reshape(left, 2, -1, 2, right)


def apply_1q(psi: np.ndarray, g: np.ndarray, q: int) -> np.ndarray:
    t = np.einsum("us,asc->auc", g, _view(psi, q, q))
    return np.ascontiguousarray(t).reshape(psi.shape)


def apply_2q(psi: np.ndarray, g: np.ndarray, qa: int, qb: int) -> np.ndarray:
    """Apply a 4x4 gate to qubits (qa, qb); qa indexes the gate's higher bit."""
    if qa == qb:
        raise ValueError("two-qubit gate needs distinct qubits")
    spec = "uvst,asbtc->aubvc" if qa < qb else "uvst,atbsc->avbuc"
    t = np.einsum(spec, g.reshape(2, 2, 2, 2), _view(psi, min(qa, qb), max(qa, qb)))
    # einsum may lay out its output (a, u, v, b, c): the next view, and so its
    # summation order, needs C order
    return np.ascontiguousarray(t).reshape(psi.shape)


def apply_cnot(psi: np.ndarray, control: int, target: int) -> np.ndarray:
    """CNOT(control, target) as an exact permutation of the amplitudes."""
    t = _view(psi, min(control, target), max(control, target))
    out = t.copy()
    if control < target:
        out[:, 1] = t[:, 1, :, ::-1]
    else:
        out[..., 1, :] = t[:, ::-1, :, 1]
    return out.reshape(psi.shape)
