"""Staircase disentangler extraction from bond-dimension-2 MPS chains.

A layer is the gate set read directly off a chi<=2 canonical MPS: one 4x4
gate on the first qubit pair, one 4x4 gate per interior site, and one 2x2
end gate. Applied last gate first (adjoints, descending the chain), a layer
maps its source state exactly to |0...0>. Stacking layers extends the
construction to higher bond dimension: each layer is extracted from the
chi=2 truncation of the current state, applied, and the residual state fed
to the next layer.

Constrained gate columns are copied bit-exactly from the source tensors;
free columns come from a deterministic orthogonal completion. Edge bonds of
dimension 1 are zero-padded to 2 so every chain gate is uniformly 4x4.
"""

from __future__ import annotations

from dataclasses import dataclass, field

import numpy as np

from . import statevec
from .mps import Mps, apply_gate_run, is_left_canonical, to_statevector, truncate
from .numerics import complete_isometry

__all__ = [
    "DisentanglerError",
    "MpdLayer",
    "DisentanglerStack",
    "build_layer",
    "build_stack",
    "residual",
    "DEFAULT_CHI_WORK_CAP",
]

DEFAULT_CHI_WORK_CAP = 256


class DisentanglerError(ValueError):
    """Raised on invalid disentangler inputs."""


@dataclass(frozen=True)
class MpdLayer:
    """Gates for one staircase layer on an n-qubit chain.

    g_first: 4x4 on qubits (1, 2); its column for input |00> is the
        vectorized first site tensor.
    g_middle: n-2 gates, 4x4; gate i acts on qubits (i+2, i+3) counting from
        1; columns for inputs |k 0> carry the site-(i+2) tensor slices.
    g_last: 2x2 on the last qubit, equal to the last site tensor.
    """

    g_first: np.ndarray
    g_middle: tuple
    g_last: np.ndarray

    @property
    def n_qubits(self) -> int:
        return len(self.g_middle) + 2

    def __post_init__(self):
        for g, d in [(self.g_first, 4), *[(g, 4) for g in self.g_middle], (self.g_last, 2)]:
            g = np.asarray(g)
            if g.shape != (d, d) or not np.allclose(g.T @ g, np.eye(d), atol=1e-10):
                raise DisentanglerError("layer gate is not orthogonal within 1e-10")


@dataclass(frozen=True)
class DisentanglerStack:
    """Layers in build order; layer 1 comes from the coarsest approximation.

    residual_infidelity: 1 - |<0...0| layers applied in order |psi>|^2
    residual_history: residual after each layer during the build
    truncation_error: discarded weight accumulated by working-precision
        recompression while the stack was built
    """

    layers: tuple
    n_qubits: int
    residual_infidelity: float
    residual_history: tuple = field(default=())
    truncation_error: float = 0.0

    def __post_init__(self):
        if self.n_qubits < 3:
            raise DisentanglerError(f"need n_qubits >= 3, got {self.n_qubits}")
        for layer in self.layers:
            if layer.n_qubits != self.n_qubits:
                raise DisentanglerError("layer width mismatch")
        if not -1e-12 <= self.residual_infidelity <= 1.0 + 1e-12:
            raise DisentanglerError(
                f"residual_infidelity {self.residual_infidelity} outside [0, 1]"
            )


def _padded_slice(t: np.ndarray, k: int) -> np.ndarray:
    # vec over (physical, right bond) of tensor slice at left-bond k, with
    # the right bond zero-padded to 2; row index = physical*2 + bond
    col = np.zeros((2, 2))
    col[:, : t.shape[2]] = t[:, k, :]
    return col.reshape(4)


def _place_columns(constrained: np.ndarray, slots, dim: int) -> np.ndarray:
    # Orthogonally complete `constrained` and scatter: constrained columns
    # land bit-exactly at `slots`, completion columns fill the rest in order.
    full = complete_isometry(constrained)
    k = constrained.shape[1]
    g = np.empty((dim, dim))
    g[:, list(slots)] = full[:, :k]
    free = [j for j in range(dim) if j not in set(slots)]
    g[:, free] = full[:, k:]
    return g


def build_layer(m: Mps) -> MpdLayer:
    """Extract one staircase layer from a canonical MPS with bond dims <= 2."""
    n = m.n_qubits
    if n < 3:
        raise DisentanglerError(f"build_layer needs n >= 3, got {n}")
    if max(m.bond_dims) > 2:
        raise DisentanglerError(f"bond dims {m.bond_dims} exceed 2")
    if m.canonical != "left" or not is_left_canonical(m, 1e-10):
        raise DisentanglerError("build_layer needs a canonical-form MPS")

    t0 = m.tensors[0]  # (2, 1, r)
    g_first = _place_columns(_padded_slice(t0, 0).reshape(4, 1), [0], 4)

    middles = []
    for i in range(1, n - 1):
        t = m.tensors[i]  # (2, l, r)
        l = t.shape[1]
        cols = np.column_stack([_padded_slice(t, k) for k in range(l)])
        slots = [2 * k for k in range(l)]  # inputs |k 0>: fresh qubit is the low bit
        middles.append(_place_columns(cols, slots, 4))

    tl = m.tensors[-1][:, :, 0]  # (2, l)
    g_last = complete_isometry(tl) if tl.shape[1] < 2 else tl.copy()

    return MpdLayer(g_first=g_first, g_middle=tuple(middles), g_last=g_last)


def _disentangle_mps(m: Mps, layer: MpdLayer, chi_work: int | None):
    """Apply the layer's adjoint gates (last to first) to an MPS.

    Returns (new Mps, discarded weight from recompression)."""
    n = m.n_qubits
    if layer.n_qubits != n:
        raise DisentanglerError("layer width mismatch")
    # end gate adjoint on the last qubit: orthogonal 1q gates preserve the
    # canonical identities, so the tensor update is local
    tensors = list(m.tensors)
    tensors[-1] = np.einsum("ts,tlr->slr", layer.g_last, tensors[-1])
    gates = [g.T for g in reversed(layer.g_middle)] + [layer.g_first.T]
    return apply_gate_run(Mps(tensors, canonical="left"), gates, n - 1, chi_work)


def _disentangle_dense(psi: np.ndarray, layer: MpdLayer) -> np.ndarray:
    n = layer.n_qubits
    psi = statevec.apply_1q(psi, layer.g_last.T, n - 1)
    for i in range(n - 3, -1, -1):
        psi = statevec.apply_2q(psi, layer.g_middle[i].T, i + 1, i + 2)
    return statevec.apply_2q(psi, layer.g_first.T, 0, 1)


def _zero_overlap(m: Mps) -> float:
    return m.amplitude([0] * m.n_qubits)


def build_stack(
    m: Mps,
    num_layers: int,
    chi_work: int | None = None,
) -> DisentanglerStack:
    """Iteratively extract and apply layers.

    Each round builds a layer from the chi=2 truncation of the current
    state, disentangles the current state with it at working bond dimension
    chi_work (default 2x the input's max bond dim, capped at 256), and
    records the residual. Runs exactly num_layers rounds.
    """
    if num_layers < 1:
        raise DisentanglerError(f"num_layers must be >= 1, got {num_layers}")
    max_bond = max(m.bond_dims)
    if chi_work is None:
        chi_work = min(2 * max_bond, DEFAULT_CHI_WORK_CAP)
    if chi_work < max_bond:
        raise DisentanglerError(
            f"chi_work={chi_work} is below the input's max bond dim {max_bond}"
        )

    state = m
    layers = []
    history = []
    trunc_err = 0.0
    for _ in range(num_layers):
        coarse, _ = truncate(state, 2)
        layer = build_layer(coarse)
        state, e = _disentangle_mps(state, layer, chi_work)
        trunc_err += e
        layers.append(layer)
        amp = _zero_overlap(state)
        res = max(0.0, 1.0 - amp * amp)
        history.append(res)

    return DisentanglerStack(
        layers=tuple(layers),
        n_qubits=m.n_qubits,
        residual_infidelity=history[-1],
        residual_history=tuple(history),
        truncation_error=trunc_err,
    )


def residual(m: Mps, stack: DisentanglerStack) -> float:
    """1 - |<0...0| stack applied in order |psi>|^2, computed densely."""
    if m.n_qubits != stack.n_qubits:
        raise DisentanglerError("qubit count mismatch between state and stack")
    psi = to_statevector(m)
    for layer in stack.layers:
        psi = _disentangle_dense(psi, layer)
    return max(0.0, 1.0 - float(psi[0]) ** 2)
