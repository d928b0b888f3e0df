"""Circuit intermediate representation, reflection wrapper, dense simulator,
depth/count accounting, and export.

Qubit 0 (the top wire, and the reflection qubit when the wrapper is used) is
the most significant bit of the basis index, which makes the mirror map
k <-> 2^n-1-k exactly the bitwise complement realized by the CNOT fan-out.

The preparation circuit emits every chain gate uniformly as a 4x4 two-qubit
operation; the 2x2 end-of-chain gate is padded with an identity on its upper
wire. Uniform shapes keep accounting and export simple, and the padded gate
is a real emitted operation visible in both.
"""

from __future__ import annotations

import json
from dataclasses import dataclass

import numpy as np

from . import statevec
from .disentangler import DisentanglerStack
from .mps import DENSE_LIMIT

__all__ = [
    "CircuitError",
    "GateOp",
    "Circuit",
    "GateStats",
    "prep_circuit",
    "add_reflection_wrapper",
    "simulate",
    "accounting",
    "export_circuit",
    "import_circuit",
]

FORMAT_VERSION = 1

_KINDS = ("hadamard", "cnot", "unitary1", "unitary2")


class CircuitError(ValueError):
    """Raised on malformed circuits or simulation contract violations."""


@dataclass(frozen=True)
class GateOp:
    """One gate: hadamard(q), cnot(control, target), unitary1(q, 2x2) or
    unitary2(q_low, q_high, 4x4). For unitary2 the first (lower-numbered)
    wire is the higher-significance bit of the matrix index."""

    kind: str
    qubits: tuple
    matrix: np.ndarray | None = None

    def __post_init__(self):
        if self.kind not in _KINDS:
            raise CircuitError(f"unknown gate kind {self.kind!r}")
        object.__setattr__(self, "qubits", tuple(int(q) for q in self.qubits))
        want = 1 if self.kind in ("hadamard", "unitary1") else 2
        if len(self.qubits) != want:
            raise CircuitError(f"{self.kind} takes {want} qubit(s), got {self.qubits}")
        if want == 2 and self.qubits[0] == self.qubits[1]:
            raise CircuitError(f"{self.kind} needs distinct qubits, got {self.qubits}")
        if self.kind == "unitary2" and not self.qubits[0] < self.qubits[1]:
            raise CircuitError("unitary2 wires must be ordered (q_low, q_high)")
        if self.kind in ("hadamard", "cnot"):
            if self.matrix is not None:
                raise CircuitError(f"{self.kind} takes no matrix")
        else:
            d = 2 if self.kind == "unitary1" else 4
            m = np.asarray(self.matrix, dtype=float)
            if m.shape != (d, d):
                raise CircuitError(f"{self.kind} needs a {d}x{d} matrix, got {m.shape}")
            if not np.allclose(m.T @ m, np.eye(d), atol=1e-10):
                raise CircuitError(f"{self.kind} matrix is not orthogonal within 1e-10")
            object.__setattr__(self, "matrix", m)


@dataclass(frozen=True)
class Circuit:
    """Immutable gate list on n_qubits wires, applied in list order."""

    n_qubits: int
    gates: tuple

    def __post_init__(self):
        if self.n_qubits < 1:
            raise CircuitError(f"n_qubits must be >= 1, got {self.n_qubits}")
        object.__setattr__(self, "gates", tuple(self.gates))
        for g in self.gates:
            if not isinstance(g, GateOp):
                raise CircuitError("gates must be GateOp instances")
            if any(not 0 <= q < self.n_qubits for q in g.qubits):
                raise CircuitError(f"gate {g.kind} addresses qubit out of range {g.qubits}")


@dataclass(frozen=True)
class GateStats:
    """Analytic fields come from the staircase depth formulas; counted
    fields are tallied from the actual gate list (each two-qubit unitary
    priced at 2 CNOTs, matching the standard real-gate decomposition)."""

    cnot_count_analytic: int
    cnot_depth_analytic: int
    two_qubit_gate_count: int
    total_gate_count: int
    cnot_depth_counted: int


def prep_circuit(stack: DisentanglerStack) -> Circuit:
    """State-preparation circuit: layer adjoints in reverse build order.

    Within a layer the first-pair gate comes first, interior gates ascend
    the chain, and the padded end gate acts on the last two wires.
    """
    n = stack.n_qubits
    gates = []
    eye2 = np.eye(2)
    for layer in reversed(stack.layers):
        gates.append(GateOp("unitary2", (0, 1), layer.g_first))
        for i, gm in enumerate(layer.g_middle):
            gates.append(GateOp("unitary2", (i + 1, i + 2), gm))
        gates.append(GateOp("unitary2", (n - 2, n - 1), np.kron(eye2, layer.g_last)))
    return Circuit(n_qubits=n, gates=tuple(gates))


def add_reflection_wrapper(c: Circuit) -> Circuit:
    """Wrap an (n-1)-qubit circuit into an n-qubit mirror-symmetric one.

    Output: inner gates shifted down one wire, then H on qubit 0, then a
    CNOT fan-out from qubit 0 to every other wire. For inner state a the
    result carries a_x/sqrt(2) at x and at its bitwise complement.
    """
    if c.n_qubits < 2:
        raise CircuitError(f"inner circuit needs >= 2 qubits, got {c.n_qubits}")
    n = c.n_qubits + 1
    gates = [GateOp(g.kind, tuple(q + 1 for q in g.qubits), g.matrix) for g in c.gates]
    gates.append(GateOp("hadamard", (0,)))
    for j in range(1, n):
        gates.append(GateOp("cnot", (0, j)))
    return Circuit(n_qubits=n, gates=tuple(gates))


def simulate(c: Circuit) -> np.ndarray:
    """Exact dense application of the gates in order to |0...0>."""
    if c.n_qubits > DENSE_LIMIT:
        raise CircuitError(f"n={c.n_qubits} exceeds dense limit {DENSE_LIMIT}")
    psi = statevec.zero_state(c.n_qubits)
    for g in c.gates:
        if g.kind == "hadamard":
            psi = statevec.apply_1q(psi, statevec.HADAMARD, g.qubits[0])
        elif g.kind == "cnot":
            psi = statevec.apply_2q(psi, statevec.CNOT, g.qubits[0], g.qubits[1])
        elif g.kind == "unitary1":
            psi = statevec.apply_1q(psi, g.matrix, g.qubits[0])
        else:
            psi = statevec.apply_2q(psi, g.matrix, g.qubits[0], g.qubits[1])
    nrm = float(np.linalg.norm(psi))
    if abs(nrm - 1.0) > 1e-12:
        raise CircuitError(f"simulation lost norm: {nrm:.15g}")  # pragma: no cover
    return psi


def _cnot_price(g: GateOp) -> int:
    # every two-qubit unitary is priced at 2 CNOTs, a named CNOT at 1 and
    # one-qubit gates are free
    return 2 if g.kind == "unitary2" else 1 if g.kind == "cnot" else 0


def _counted_cnot_depth(c: Circuit) -> int:
    # greedy layering; each gate occupies _cnot_price sequential CNOT slots
    # on its qubits
    clock = [0] * c.n_qubits
    for g in c.gates:
        t = max(clock[q] for q in g.qubits) + _cnot_price(g)
        for q in g.qubits:
            clock[q] = t
    return max(clock, default=0)


def accounting(c: Circuit, num_layers: int = 1, symmetry: bool = False) -> GateStats:
    """Depth/count report for a pipeline circuit.

    Analytic depth: 2((n-2)+(L-1)) for the bare staircase, plus (n-1) for
    the CNOT fan-out when the reflection wrapper is present. n is the full
    circuit width. An empty circuit reports all zeros.
    """
    if not c.gates:
        return GateStats(0, 0, 0, 0, 0)
    n = c.n_qubits
    l = max(1, int(num_layers))
    depth = 2 * ((n - 2) + (l - 1))
    if symmetry:
        depth += n - 1
    return GateStats(
        cnot_count_analytic=sum(_cnot_price(g) for g in c.gates),
        cnot_depth_analytic=depth,
        two_qubit_gate_count=sum(1 for g in c.gates if len(g.qubits) == 2),
        total_gate_count=len(c.gates),
        cnot_depth_counted=_counted_cnot_depth(c),
    )


def _fmt17(x: float) -> str:
    return format(float(x), ".17g")


def export_circuit(c: Circuit, format: str = "json") -> str:
    """Serialize to 'json' (round-trippable, 17-significant-digit matrix
    entries) or 'qasm_like' (h/cx lines plus matrix pragma comments; the
    pragma lines are not executable qasm)."""
    if format == "json":
        gates = []
        for g in c.gates:
            entry = {"kind": g.kind, "qubits": list(g.qubits)}
            if g.matrix is not None:
                entry["matrix"] = [_fmt17(x) for x in g.matrix.ravel()]
            gates.append(entry)
        doc = {"format_version": FORMAT_VERSION, "n_qubits": c.n_qubits, "gates": gates}
        return json.dumps(doc, indent=2)
    if format == "qasm_like":
        lines = [
            f"// symprep circuit, format_version {FORMAT_VERSION}",
            f"// qubits {c.n_qubits} (q0 = most significant basis-index bit)",
        ]
        for g in c.gates:
            if g.kind == "hadamard":
                lines.append(f"h q{g.qubits[0]}")
            elif g.kind == "cnot":
                lines.append(f"cx q{g.qubits[0]},q{g.qubits[1]}")
            else:
                qs = ",".join(f"q{q}" for q in g.qubits)
                mat = ",".join(_fmt17(x) for x in g.matrix.ravel())
                lines.append(f"// {g.kind} {qs} matrix=[{mat}] (pragma, not executable)")
        return "\n".join(lines) + "\n"
    raise CircuitError(f"unknown export format {format!r}")


def import_circuit(text: str) -> Circuit:
    """Inverse of the json export."""
    doc = json.loads(text)
    if doc.get("format_version") != FORMAT_VERSION:
        raise CircuitError(f"unsupported format_version {doc.get('format_version')!r}")
    gates = []
    for entry in doc["gates"]:
        matrix = None
        if "matrix" in entry:
            vals = np.asarray([float(s) for s in entry["matrix"]])
            d = 2 if entry["kind"] == "unitary1" else 4
            matrix = vals.reshape(d, d)
        gates.append(GateOp(entry["kind"], tuple(entry["qubits"]), matrix))
    return Circuit(n_qubits=int(doc["n_qubits"]), gates=tuple(gates))
