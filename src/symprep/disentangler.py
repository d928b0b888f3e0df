"""Staircase disentangler extraction from bond-dimension-2 MPS chains.

A layer is the gate set read directly off a chi<=2 canonical MPS: a chain
of n-1 two-qubit gates, gate q on qubits (q, q+1) built from site tensor q,
plus a 2x2 end gate on the last qubit built from the last tensor. Applied
end gate first and then the chain gates' adjoints descending the chain, a
layer maps its source state exactly to |0...0>. Stacking layers extends the
construction to higher bond dimension: each layer is extracted from the
chi=2 truncation of the current state, applied, and the residual state fed
to the next layer, all on the MPS (`circuit.residual` is the dense check).

Constrained gate columns are copied bit-exactly from the source tensors;
free columns come from a deterministic orthogonal completion, the last of
them negated when the determinant would otherwise be -1: every chain gate
is in SO(4), the one gauge rule. Right bonds of dimension 1 are
zero-padded to 2 so every chain gate is uniformly 4x4.
"""

from __future__ import annotations

from dataclasses import dataclass, field

import numpy as np

from .mps import Mps, apply_gate_run, truncate
from .numerics import complete_isometry, is_int, is_orthonormal

__all__ = [
    "DisentanglerError",
    "MpdLayer",
    "DisentanglerStack",
    "build_layer",
    "build_stack",
]

_CHI_WORK_CAP = 256


class DisentanglerError(ValueError):
    """Raised on invalid disentangler inputs."""


@dataclass(frozen=True)
class MpdLayer:
    """Gates for one staircase layer on an n-qubit chain.

    chain: n-1 gates, 4x4; gate q acts on qubits (q, q+1) and its columns
        for inputs |k 0> carry the slices of site tensor q at left bond k.
    end: 2x2 on the last qubit, equal to the last site tensor.
    """

    chain: tuple
    end: np.ndarray

    @property
    def n_qubits(self) -> int:
        return len(self.chain) + 1

    def __post_init__(self):
        for g, d in [*[(g, 4) for g in self.chain], (self.end, 2)]:
            g = np.asarray(g)
            if g.shape != (d, d):
                raise DisentanglerError(f"layer gate must be {d}x{d}, got {g.shape}")
            if not is_orthonormal(g):
                raise DisentanglerError("layer gate is not orthogonal within 1e-10")


@dataclass(frozen=True)
class DisentanglerStack:
    """Layers in build order; layer 1 comes from the coarsest approximation.

    residual_infidelity: 1 - |<0...0| layers applied in order |psi>|^2
    residual_history: residual after each layer during the build
    truncation_history: discarded weight accumulated by working-precision
        recompression during the build, after each layer
    """

    layers: tuple
    n_qubits: int
    residual_infidelity: float
    residual_history: tuple = field(default=())
    truncation_history: tuple = field(default=())

    @property
    def truncation_error(self) -> float:
        """Discarded weight accumulated over the whole build."""
        return self.truncation_history[-1] if self.truncation_history else 0.0

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

    def prefix(self, k: int) -> DisentanglerStack:
        """The stack of the first k layers. The build is sequential, so for
        a built stack this is, bit for bit, build_stack of k layers."""
        if not is_int(k) or not 1 <= k <= len(self.layers):
            raise DisentanglerError(f"prefix length must be an integer in 1..{len(self.layers)}, got {k!r}")
        if not len(self.residual_history) == len(self.truncation_history) == len(self.layers):
            raise DisentanglerError("prefix needs the per-layer residual and truncation histories")
        return DisentanglerStack(
            layers=self.layers[:k],
            n_qubits=self.n_qubits,
            residual_infidelity=self.residual_history[k - 1],
            residual_history=self.residual_history[:k],
            truncation_history=self.truncation_history[:k],
        )


# Gate input slot of each column of the completed isometry, by left bond:
# the constrained columns go to inputs |k 0> (the fresh qubit is the low
# bit), the completion columns fill the remaining slots in order.
_SLOTS = {1: [0, 1, 2, 3], 2: [0, 2, 1, 3]}


def _chain_gate(t: np.ndarray) -> np.ndarray:
    # Column k (input |k 0>) is the site tensor's slice at left bond k,
    # vectorised over (physical, right bond zero-padded to 2): row index =
    # physical*2 + bond.
    _, l, r = t.shape
    cols = np.zeros((2, 2, l))
    cols[:, :r, :] = t.transpose(0, 2, 1)
    g = np.empty((4, 4))  # scattered into, so the gate stays C-ordered
    g[:, _SLOTS[l]] = complete_isometry(cols.reshape(4, l))
    if np.linalg.det(g) < 0:  # the one gauge rule: SO(4) costs 2 CNOTs, det -1 costs 3
        g[:, _SLOTS[l][-1]] *= -1.0
    return g


def build_layer(m: Mps) -> MpdLayer:
    """Extract one staircase layer from a canonical MPS with bond dims <= 2."""
    n = m.n_qubits
    if n < 3:
        raise DisentanglerError(f"build_layer needs n >= 3, got {n}")
    if max(m.bond_dims) > 2:
        raise DisentanglerError(f"bond dims {m.bond_dims} exceed 2")
    # complete_isometry checks each chain tensor's columns and MpdLayer the
    # end gate, so the flag is the only check of canonical form made here
    if m.canonical != "left":
        raise DisentanglerError("build_layer needs a canonical-form MPS")

    chain = tuple(_chain_gate(t) for t in m.tensors[:-1])
    tl = m.tensors[-1][:, :, 0]  # (2, l)
    end = complete_isometry(tl) if tl.shape[1] < 2 else tl.copy()
    return MpdLayer(chain=chain, end=end)


def _disentangle_mps(m: Mps, layer: MpdLayer, chi_work: int | None):
    """Apply the layer's adjoint gates (end gate, then the chain descending)
    to an MPS.

    Returns (new Mps, discarded weight from recompression)."""
    n = m.n_qubits
    if layer.n_qubits != n:
        raise DisentanglerError("layer width mismatch")
    # end gate adjoint on the last qubit: orthogonal 1q gates preserve the
    # canonical identities, so the tensor update is local
    tensors = list(m.tensors)
    tensors[-1] = np.einsum("ts,tlr->slr", layer.end, tensors[-1])
    gates = [g.T for g in reversed(layer.chain)]
    return apply_gate_run(Mps(tensors, canonical="left"), gates, n - 1, chi_work)


def build_stack(m: Mps, num_layers: int) -> DisentanglerStack:
    """Iteratively extract and apply layers.

    Each round builds a layer from the chi=2 truncation of the current
    state, disentangles the current state with it at a working bond
    dimension, and records the residual. Runs exactly num_layers rounds.
    The working bond dimension is 2x the input's max bond dim, capped at
    _CHI_WORK_CAP but never below the input's max bond dim.
    """
    if not is_int(num_layers) or num_layers < 1:
        raise DisentanglerError(f"num_layers must be an integer >= 1, got {num_layers!r}")
    max_bond = max(m.bond_dims)
    chi_work = max(max_bond, min(2 * max_bond, _CHI_WORK_CAP))

    state = m
    layers = []
    history = []
    trunc_history = []
    trunc_err = 0.0
    for _ in range(num_layers):
        coarse, _ = truncate(state, 2)
        layer = build_layer(coarse)
        state, e = _disentangle_mps(state, layer, chi_work)
        trunc_err += e
        trunc_history.append(trunc_err)
        layers.append(layer)
        amp = state.amplitude([0] * m.n_qubits)
        history.append(max(0.0, 1.0 - amp * amp))

    return DisentanglerStack(
        layers=tuple(layers),
        n_qubits=m.n_qubits,
        residual_infidelity=history[-1],
        residual_history=tuple(history),
        truncation_history=tuple(trunc_history),
    )
