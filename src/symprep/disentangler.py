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
zero-padded to 2, so a layer's chain is one (n-1, 4, 4) array, extracted
and checked in batched calls.
"""

from __future__ import annotations

from dataclasses import dataclass

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

    chain: one C-ordered (n-1, 4, 4) float array (any sequence of 4x4s
        converts); gate q acts on qubits (q, q+1) and its columns for
        inputs |k 0> carry the slices of site tensor q at left bond k.
    end: 2x2 on the last qubit, equal to the last site tensor.
    """

    chain: np.ndarray
    end: np.ndarray

    @property
    def n_qubits(self) -> int:
        return len(self.chain) + 1

    def __post_init__(self):
        try:
            chain = np.ascontiguousarray(self.chain, dtype=float)
        except ValueError as e:  # ragged or non-numeric gates
            raise DisentanglerError(f"layer chain must be a (k, 4, 4) array: {e}") from None
        if chain.ndim != 3 or chain.shape[1:] != (4, 4):
            raise DisentanglerError(f"layer chain must be a (k, 4, 4) array, got shape {chain.shape}")
        if np.shape(self.end) != (2, 2):
            raise DisentanglerError(f"layer end gate must be 2x2, got {np.shape(self.end)}")
        if not (is_orthonormal(chain) and is_orthonormal(self.end)):
            raise DisentanglerError("layer gate is not orthogonal within 1e-10")
        object.__setattr__(self, "chain", chain)


@dataclass(frozen=True)
class DisentanglerStack:
    """Layers in build order, layer 1 from the coarsest approximation, with
    one history entry per layer recorded as the build applied it. The
    stack's figures are read off these: its width off the first layer, its
    residual and discarded weight off the histories' last entries.

    residual_history: 1 - |<0...0| layers 1..k applied in order |psi>|^2
        after each layer k
    truncation_history: discarded weight accumulated by working-precision
        recompression during the build, after each layer
    """

    layers: tuple
    residual_history: tuple
    truncation_history: tuple

    @property
    def n_qubits(self) -> int:
        return self.layers[0].n_qubits

    @property
    def residual_infidelity(self) -> float:
        """Residual after the whole stack."""
        return self.residual_history[-1]

    @property
    def truncation_error(self) -> float:
        """Discarded weight accumulated over the whole build."""
        return self.truncation_history[-1]

    def __post_init__(self):
        k = len(self.layers)
        if not k or (len(self.residual_history), len(self.truncation_history)) != (k, k):
            raise DisentanglerError("a stack needs at least one layer and one residual and truncation entry per layer")
        if self.n_qubits < 3:
            raise DisentanglerError(f"need n_qubits >= 3, got {self.n_qubits}")
        if any(layer.n_qubits != self.n_qubits for layer in self.layers):
            raise DisentanglerError("layer width mismatch")
        if not all(-1e-12 <= r <= 1.0 + 1e-12 for r in self.residual_history):  # NaN fails too
            raise DisentanglerError(f"residual history {self.residual_history} leaves [0, 1]")

    def prefix(self, k: int) -> DisentanglerStack:
        """The stack of the first k layers. The build is sequential, so for
        a built stack this is, bit for bit, build_stack of k layers."""
        if not is_int(k) or not 1 <= k <= len(self.layers):
            raise DisentanglerError(f"prefix length must be an integer in 1..{len(self.layers)}, got {k!r}")
        return DisentanglerStack(self.layers[:k], self.residual_history[:k], self.truncation_history[:k])


# Gate input slot of each column of the completed isometry, by left bond:
# the constrained columns go to inputs |k 0> (the fresh qubit is the low
# bit), the completion columns fill the remaining slots in order.
_SLOTS = {1: [0, 1, 2, 3], 2: [0, 2, 1, 3]}


def _chain_gates(tensors) -> np.ndarray:
    # Column k (input |k 0>) of gate q is site tensor q's slice at left bond
    # k, vectorised over (physical, right bond zero-padded to 2): row index =
    # physical*2 + bond. One completion per left bond size, one det.
    cols = np.zeros((len(tensors), 2, 2, 2))  # (site, physical, right, left)
    for q, t in enumerate(tensors):
        cols[q, :, : t.shape[2], : t.shape[1]] = t.transpose(0, 2, 1)
    chain = np.empty((len(tensors), 4, 4))  # scattered into, so it stays C-ordered
    for l, slots in _SLOTS.items():
        at = np.array([t.shape[1] == l for t in tensors])
        chain[np.ix_(at, range(4), slots)] = complete_isometry(cols.reshape(-1, 4, 2)[at, :, :l])
    # the one gauge rule: SO(4) costs 2 CNOTs, det -1 costs 3; every _SLOTS row ends in slot 3
    chain[np.linalg.det(chain) < 0, :, 3] *= -1.0
    return chain


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

    tl = m.tensors[-1][:, :, 0]  # (2, l)
    end = complete_isometry(tl) if tl.shape[1] < 2 else tl.copy()
    return MpdLayer(chain=_chain_gates(m.tensors[:-1]), end=end)


def _disentangle_mps(m: Mps, layer: MpdLayer, chi_work: int | None):
    """Apply the layer's adjoint gates to an MPS, the end gate and then the
    chain descending. Returns (new Mps, discarded weight from recompression)."""
    # end gate adjoint on the last qubit: orthogonal 1q gates preserve the
    # canonical identities, so the tensor update is local
    tensors = [*m.tensors[:-1], np.einsum("ts,tlr->slr", layer.end, m.tensors[-1])]
    gates = layer.chain[::-1].transpose(0, 2, 1)
    return apply_gate_run(Mps(tensors, canonical="left"), gates, m.n_qubits - 1, chi_work)


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

    return DisentanglerStack(tuple(layers), tuple(history), tuple(trunc_history))
