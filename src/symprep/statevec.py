"""Dense statevector kernels of `circuit.simulate`, the one dense interpreter.

Qubit 0 is the most significant bit of the basis index throughout. For
two-qubit gates the first listed wire is the higher-significance bit of the
4x4 gate index. A state is an n-axis array, one axis per qubit, in which an
untouched qubit's axis may have width 1 (`widen` appends its zero |1> slice).
A gate is one BLAS call on a (left, d, right) view of the state, d = 2 or 4,
whose bits do not depend on the block lengths (`tests/test_circuit.py` checks
this): width-1 axes leave the full-width state's amplitudes. A gate on wires
apart, never one `prep_circuit` emits, first copies the wide qubits between
them out of the way. `apply_cnot` is an exact permutation, one copy of the
state with the control=1 slice written with every target axis reversed, so
the reflection wrapper's fan-out, which `simulate` finds as `accounting`
does, costs one copy however many targets it has; every other CNOT runs alone.
"""

from __future__ import annotations

import numpy as np

__all__ = ["zero_state", "widen", "apply_1q", "apply_2q", "apply_cnot", "HADAMARD"]

HADAMARD = np.array([[1.0, 1.0], [1.0, -1.0]]) / np.sqrt(2.0)


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


def _need_wide(psi: np.ndarray, qubits) -> None:
    s = psi.shape
    if len(s) <= max(qubits) or any(s[q] != 2 for q in qubits):
        raise ValueError(f"qubits {sorted(set(qubits))} need axes of width 2, the state's shape is {s}")


def _blocks(psi: np.ndarray, lo: int, hi: int) -> tuple[int, int]:
    # the lengths of the state's left and right blocks around wires lo..hi
    _need_wide(psi, (lo, hi))
    s = psi.shape
    return 1 << s[:lo].count(2), 1 << s[hi + 1 :].count(2)


def _matmul(g: np.ndarray, view: np.ndarray) -> np.ndarray:
    # g on axis 1 of a (left, d, right) array; right == 1 is one GEMM, not a
    # matmul looping over left. numpy runs a lone row as a GEMV, which sums in
    # another order than GEMM, so it is doubled: the bits ignore block lengths.
    # g.T in C order keeps one GEMM variant, so no other BLAS code is paged in
    left, d, right = view.shape
    if right > 1:
        return np.matmul(g, view)
    rows = view.reshape(left, d) if left > 1 else np.tile(view.reshape(1, d), (2, 1))
    return (rows @ np.ascontiguousarray(g.T))[:left]


def apply_1q(psi: np.ndarray, g: np.ndarray, q: int) -> np.ndarray:
    left, right = _blocks(psi, q, q)
    return _matmul(g, psi.reshape(left, 2, right)).reshape(psi.shape)


def apply_2q(psi: np.ndarray, g: np.ndarray, qa: int, qb: int) -> np.ndarray:
    """Apply a 4x4 gate to qubits qa < qb; qa indexes the gate's higher bit.
    The wires come ascending, as `circuit.GateOp` orders a unitary2's."""
    if not qa < qb:
        raise ValueError(f"two-qubit gate wires must be ascending, got ({qa}, {qb})")
    left, right = _blocks(psi, qa, qb)
    if qb == qa + 1:
        return _matmul(g, psi.reshape(left, 4, right)).reshape(psi.shape)
    # wires apart: copy the wide qubits between them out of the way and back
    v = psi.reshape(left, 2, -1, 2, right).transpose(0, 2, 1, 3, 4)
    t = _matmul(g, np.ascontiguousarray(v).reshape(-1, 4, right))
    return np.ascontiguousarray(t.reshape(v.shape).transpose(0, 2, 1, 3, 4)).reshape(psi.shape)


def apply_cnot(psi: np.ndarray, control: int, *targets: int) -> np.ndarray:
    """CNOT(control, t) for each of the distinct targets t, as one exact
    permutation of the amplitudes: the control=1 slice with every target axis
    reversed."""
    if not targets or control in targets or len(set(targets)) != len(targets):
        raise ValueError(f"a CNOT fan-out needs distinct targets other than its control, got {control}, {targets}")
    _need_wide(psi, (control, *targets))
    src = [slice(None)] * psi.ndim
    for t in targets:
        src[t] = slice(None, None, -1)
    src[control] = 1
    out = psi.copy()
    out[(slice(None),) * control + (1,)] = psi[tuple(src)]
    return out
