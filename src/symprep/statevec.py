"""Dense statevector kernels of `circuit.simulate`, the one dense interpreter.

Qubit 0 is the most significant bit of the basis index throughout. For
two-qubit gates the first listed wire is the higher-significance bit of the
4x4 gate index. A state is an n-axis array, one axis per qubit, in which an
untouched qubit's axis may have width 1 (`widen` appends its zero |1> slice).
The kernels check no wire or shape: `simulate` passes n-axis states and the
gates of a checked `Circuit` (in-range, distinct wires, a unitary2's ascending).
A gate is one BLAS call on a (left, d, right) view of the state, d = 2 or 4,
whose bits do not depend on the block lengths (`tests/test_circuit.py` checks
this): width-1 axes leave the full-width state's amplitudes. A gate wire of
width 1 holds only |0>, so the kernel multiplies by the gate's columns with
that bit 0 alone and returns the wire at width 2, the bits of the gate on the
widened state; `simulate` widens only before a CNOT and once at the end.
`apply_1q` and `apply_2q` can write their result into the front of a given
flat buffer (`out`), with the same bits: `simulate` alternates two 2^n
buffers, so a growing state allocates no new array per gate. A gate on wires
apart, never one `prep_circuit` emits, first copies the qubits between them
out of the way. `apply_cnot` is an exact permutation, one copy of the state
with the control=1 slice written with every target axis reversed, so the
reflection wrapper's fan-out, which `simulate` finds as `accounting` does,
costs one copy however many targets it has; every other CNOT runs alone.
"""

from __future__ import annotations

import numpy as np

__all__ = ["widen", "apply_1q", "apply_2q", "apply_cnot", "HADAMARD"]

HADAMARD = np.array([[1.0, 1.0], [1.0, -1.0]]) / np.sqrt(2.0)


def widen(psi: np.ndarray, qubits) -> np.ndarray:
    """The n-axis state psi with each listed qubit's axis at width 2: an axis
    of width 1 gets a zero |1> slice appended."""
    for q in qubits:
        if psi.shape[q] == 1:
            psi = np.concatenate((psi, np.zeros_like(psi)), axis=q)
    return psi


def _blocks(psi: np.ndarray, lo: int, hi: int) -> tuple[int, int]:
    # the lengths of the state's left and right blocks around wires lo..hi,
    # whose own axes may have width 1 (a fresh wire) or 2
    return 1 << psi.shape[:lo].count(2), 1 << psi.shape[hi + 1 :].count(2)


# the gate columns whose index has every fresh (width-1) wire's bit 0, keyed
# by the gate wires' widths, higher-significance wire first
_LIVE = {(1,): slice(0, 1), (2,): slice(None), (1, 1): slice(0, 1), (1, 2): slice(0, 2),
         (2, 1): slice(None, None, 2), (2, 2): slice(None)}
# a right block shorter than _SHORT, with at least _ROWS left rows, runs as
# one GEMM against the gate expanded over the block, not as np.matmul's loop
# of one small GEMM per left row (n=14, wires (11, 12): 78 -> 16 us); below
# _ROWS rows the loop is cheaper than expanding the gate
_SHORT, _ROWS = 8, 256
_EYES = {r: np.eye(r) for r in (2, 4)}


def _matmul(g: np.ndarray, view: np.ndarray, out=None) -> np.ndarray:
    # g (dout, d) on axis 1 of a (left, d, right) array, giving (left, dout,
    # right), written to the front of out when given. A right block of 1 is
    # the (left, d) rows times g^T, a short one the (left, d * right) rows
    # times kron(g, I_right)^T, whose zeros add nothing to a sum. numpy runs
    # a lone row as a GEMV, which sums in another order than GEMM, so it is
    # doubled: the bits ignore block lengths. The right factor is C-ordered,
    # so one GEMM variant runs and no other BLAS code is paged in.
    left, d, right = view.shape
    res = None if out is None else out[: left * len(g) * right].reshape(left, -1, right)
    if right == 1:
        g = np.ascontiguousarray(g.T)
    elif right >= _SHORT or left < _ROWS:
        return np.matmul(np.ascontiguousarray(g), view, out=res)
    else:
        g = (g.T[:, None, :, None] * _EYES[right][None, :, None, :]).reshape(d * right, -1)
    if left > 1:
        rows = np.matmul(view.reshape(left, -1), g, out=None if res is None else res.reshape(left, -1))
        return rows.reshape(left, -1, right)
    rows = (np.tile(view.reshape(1, -1), (2, 1)) @ g)[:1].reshape(1, -1, right)
    if res is None:
        return rows
    res[...] = rows
    return res


def _wide_shape(psi: np.ndarray, qubits) -> tuple:
    s = list(psi.shape)
    for q in qubits:
        s[q] = 2
    return tuple(s)


def apply_1q(psi: np.ndarray, g: np.ndarray, q: int, out=None) -> np.ndarray:
    """Apply a 2x2 gate to qubit q, which may be fresh (width 1) and comes
    back at width 2. The result is a new array, or the front of the flat
    float buffer out, which must not overlap psi."""
    left, right = _blocks(psi, q, q)
    w = psi.shape[q]
    return _matmul(g[:, _LIVE[(w,)]], psi.reshape(left, w, right), out).reshape(_wide_shape(psi, (q,)))


def apply_2q(psi: np.ndarray, g: np.ndarray, qa: int, qb: int, out=None) -> np.ndarray:
    """Apply a 4x4 gate to qubits qa < qb; qa indexes the gate's higher bit.
    The wires come ascending, as `circuit.Circuit` checks a unitary2's. Either
    wire may be fresh (width 1); both come back at width 2. The result is a
    new array, or the front of the flat float buffer out, which must not
    overlap psi."""
    left, right = _blocks(psi, qa, qb)
    wa, wb = psi.shape[qa], psi.shape[qb]
    g = g[:, _LIVE[wa, wb]]
    shape = _wide_shape(psi, (qa, qb))
    if qb == qa + 1:
        return _matmul(g, psi.reshape(left, wa * wb, right), out).reshape(shape)
    # wires apart: copy the wide qubits between them out of the way and back
    v = psi.reshape(left, wa, -1, wb, right).transpose(0, 2, 1, 3, 4)
    t = _matmul(g, np.ascontiguousarray(v).reshape(-1, wa * wb, right))
    t = t.reshape(left, -1, 2, 2, right).transpose(0, 2, 1, 3, 4)
    if out is None:
        return np.ascontiguousarray(t).reshape(shape)
    res = out[: t.size].reshape(t.shape)
    res[...] = t
    return res.reshape(shape)


def apply_cnot(psi: np.ndarray, control: int, *targets: int) -> np.ndarray:
    """CNOT(control, t) for each of the distinct targets t (at least one,
    none the control, every wire at width 2), as one exact permutation of
    the amplitudes: the control=1 slice with every target axis reversed."""
    src = [slice(None)] * psi.ndim
    for t in targets:
        src[t] = slice(None, None, -1)
    src[control] = 1
    out = psi.copy()
    out[(slice(None),) * control + (1,)] = psi[tuple(src)]
    return out
