"""Circuit intermediate representation, reflection wrapper, dense simulator,
depth/count accounting, and export. `simulate` is the library's one dense
interpreter: `residual` checks a stack by running the circuit it emits.

Qubit 0 (the top wire, and the reflection qubit when the wrapper is used) is
the most significant bit of the basis index, which makes the mirror map
k <-> 2^n-1-k exactly the bitwise complement realized by the CNOT fan-out.

The preparation circuit emits each layer's n-1 chain gates, gate q on wires
(q, q+1), as 4x4 two-qubit operations and its 2x2 end gate padded with an
identity on its upper wire. Uniform shapes keep accounting and export simple,
and the padded gate is a real emitted operation visible in both.
"""

from __future__ import annotations

import json
from dataclasses import dataclass

import numpy as np

from . import statevec
from .disentangler import DisentanglerStack
from .mps import DENSE_LIMIT, Mps, to_statevector
from .numerics import is_finite_number, is_int, is_orthonormal

__all__ = [
    "CircuitError",
    "GateOp",
    "Circuit",
    "GateStats",
    "prep_circuit",
    "add_reflection_wrapper",
    "simulate",
    "residual",
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
        if not isinstance(self.qubits, (tuple, list)) or not all(is_int(q) for q in self.qubits):
            raise CircuitError(f"{self.kind} qubits must be a list of integers, got {self.qubits!r}")
        object.__setattr__(self, "qubits", tuple(self.qubits))
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
            m = self.matrix
            if not (isinstance(m, np.ndarray) and m.dtype.kind in "iuf"):
                # entries as given: a float conversion would read True and "1" as 1.0
                m = np.asarray(m, dtype=object)
                if m.shape == (d, d) and not all(map(is_finite_number, m.flat)):
                    raise CircuitError(f"{self.kind} matrix entries must be finite numbers: {self.matrix!r}")
            if m.shape != (d, d):
                raise CircuitError(f"{self.kind} needs a {d}x{d} matrix, got {m.shape}")
            m = np.asarray(m, dtype=float)
            if not is_orthonormal(m):
                raise CircuitError(f"{self.kind} matrix is not orthogonal within 1e-10")
            object.__setattr__(self, "matrix", m)


@dataclass(frozen=True)
class Circuit:
    """Immutable gate list on n_qubits wires, applied in list order."""

    n_qubits: int
    gates: tuple

    def __post_init__(self):
        if not is_int(self.n_qubits) or self.n_qubits < 1:
            raise CircuitError(f"n_qubits must be an integer >= 1, got {self.n_qubits!r}")
        object.__setattr__(self, "gates", tuple(self.gates))
        for g in self.gates:
            if not isinstance(g, GateOp):
                raise CircuitError("gates must be GateOp instances")
            if any(not 0 <= q < self.n_qubits for q in g.qubits):
                raise CircuitError(f"gate {g.kind} addresses qubit out of range {g.qubits}")


@dataclass(frozen=True)
class GateStats:
    """cnot_depth_analytic is the paper's staircase depth formula, not the
    depth of the emitted circuit (a baseline run at n=14 with 11 layers
    reads 44 against a counted 66).
    cnot_count and cnot_depth_counted use each emitted gate's true price:
    a cnot 1, a unitary2 0 if it is a product gate, 3 if det = -1, else 2
    (Vatan & Williams, PRA 69, 032315, 2004), a one-qubit gate 0; the depth
    layers the priced gates greedily and lets free gates take no time."""

    cnot_depth_analytic: int
    two_qubit_gate_count: int
    total_gate_count: int
    cnot_depth_counted: int
    cnot_count: int


def prep_circuit(stack: DisentanglerStack) -> Circuit:
    """State-preparation circuit: layer adjoints in reverse build order.

    Within a layer the chain gates ascend the chain, then the padded end
    gate acts on the last two wires.
    """
    n = stack.n_qubits
    gates = []
    eye2 = np.eye(2)
    for layer in reversed(stack.layers):
        for q, g in enumerate(layer.chain):
            gates.append(GateOp("unitary2", (q, q + 1), g))
        gates.append(GateOp("unitary2", (n - 2, n - 1), np.kron(eye2, layer.end)))
    return Circuit(n_qubits=n, gates=tuple(gates))


def _reflection_tail(n: int) -> list:
    # (kind, qubits) of the wrapper's last n gates on n wires: H on wire 0, then CNOT(0, j) for j = 1 .. n-1
    return [("hadamard", (0,)), *(("cnot", (0, j)) for j in range(1, n))]


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
    return Circuit(n_qubits=n, gates=(*gates, *(GateOp(*g) for g in _reflection_tail(n))))


def _has_reflection_tail(c: Circuit) -> bool:
    """True when c ends with the tail add_reflection_wrapper appends, which
    needs n >= 3 wires. A tail gate has no matrix, so kind and wires say it."""
    n = c.n_qubits
    return n >= 3 and [(g.kind, g.qubits) for g in c.gates[-n:]] == _reflection_tail(n)


def simulate(c: Circuit) -> np.ndarray:
    """Exact dense application of the gates in order to |0...0>.

    Each gate is one BLAS call on a view of the state, and a qubit's axis
    has width 1 until a gate first touches it: a staircase layer on |0...0>
    costs O(2^n), gate q working on 2^(q+2) amplitudes. The wrapper's
    fan-out, found as `accounting` finds it, is one permutation with one
    copy of the state; every other CNOT runs alone. The amplitudes equal
    the kernels' on full-width states, one gate at a time.
    """
    n = c.n_qubits
    if n > DENSE_LIMIT:
        raise CircuitError(f"n={n} exceeds dense limit {DENSE_LIMIT}")
    tail = n - 1 if _has_reflection_tail(c) else 0  # the fan-out's CNOTs
    psi = np.ones((1,) * n)
    for g in c.gates[: len(c.gates) - tail]:
        psi = statevec.widen(psi, g.qubits)
        if g.kind == "cnot":
            psi = statevec.apply_cnot(psi, *g.qubits)
        elif g.kind == "unitary2":
            psi = statevec.apply_2q(psi, g.matrix, *g.qubits)
        else:
            psi = statevec.apply_1q(psi, statevec.HADAMARD if g.kind == "hadamard" else g.matrix, *g.qubits)
    psi = statevec.widen(psi, range(n))
    if tail:
        psi = statevec.apply_cnot(psi, 0, *range(1, n))
    psi = psi.reshape(-1)
    nrm = float(np.linalg.norm(psi))
    if not abs(nrm - 1.0) <= 1e-12:
        raise CircuitError(f"simulation lost norm: {nrm:.15g}")
    return psi


def residual(m: Mps, stack: DisentanglerStack) -> float:
    """1 - <psi|prepared>^2 for the state psi of m and the state the emitted
    circuit prep_circuit(stack) prepares from |0...0>, computed densely."""
    if m.n_qubits != stack.n_qubits:
        raise CircuitError("qubit count mismatch between state and stack")
    overlap = float(to_statevector(m) @ simulate(prep_circuit(stack)))
    return max(0.0, 1.0 - overlap**2)


# realignment singular-value ratio at or below which a 4x4 gate is a product gate
_PRODUCT_TOL = 1e-9


def _cnot_prices(c: Circuit) -> list:
    # every unitary2 priced in one batched SVD of the realignments (rank 1
    # for a product A (x) B) and one batched determinant
    prices = [int(g.kind == "cnot") for g in c.gates]
    idx = [i for i, g in enumerate(c.gates) if g.kind == "unitary2"]
    if idx:
        mats = np.stack([c.gates[i].matrix for i in idx])
        realigned = mats.reshape(-1, 2, 2, 2, 2).transpose(0, 1, 3, 2, 4).reshape(-1, 4, 4)
        s = np.linalg.svd(realigned, compute_uv=False)
        price = np.where(np.linalg.det(mats) < 0, 3, 2)
        price[s[:, 1] <= _PRODUCT_TOL * s[:, 0]] = 0
        for i, p in zip(idx, price.tolist()):
            prices[i] = p
    return prices


def _counted_cnot_depth(c: Circuit, prices: list) -> int:
    # greedy layering; a priced gate occupies that many sequential CNOT slots
    # on its qubits, a free gate takes no time
    clock = [0] * c.n_qubits
    for g, p in zip(c.gates, prices):
        if p:
            t = max(clock[q] for q in g.qubits) + p
            for q in g.qubits:
                clock[q] = t
    return max(clock, default=0)


def accounting(c: Circuit, num_layers: int = 1) -> GateStats:
    """Depth/count report for a pipeline circuit.

    Analytic depth: 2(max(n-2, 0)+(L-1)) for the bare staircase, plus
    (n-1) for the CNOT fan-out when the gates end with the reflection
    wrapper's tail. n is the full circuit width. An empty circuit reports
    all zeros.
    """
    if not is_int(num_layers) or num_layers < 1:
        raise CircuitError(f"num_layers must be an integer >= 1, got {num_layers!r}")
    if not c.gates:
        return GateStats(0, 0, 0, 0, 0)
    n = c.n_qubits
    depth = 2 * (max(n - 2, 0) + (num_layers - 1))
    if _has_reflection_tail(c):
        depth += n - 1
    prices = _cnot_prices(c)
    return GateStats(
        cnot_depth_analytic=depth,
        two_qubit_gate_count=sum(1 for g in c.gates if len(g.qubits) == 2),
        total_gate_count=len(c.gates),
        cnot_depth_counted=_counted_cnot_depth(c, prices),
        cnot_count=sum(prices),
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
    """Inverse of the json export; a malformed document is a CircuitError."""
    try:
        doc = json.loads(text)
        if not isinstance(doc, dict):
            raise CircuitError("circuit document must be a JSON object")
        if doc.get("format_version") != FORMAT_VERSION:
            raise CircuitError(f"unsupported format_version {doc.get('format_version')!r}")
        gates = []
        for entry in doc["gates"]:
            matrix = None
            if "matrix" in entry:  # a flat list of export strings (17 significant digits) or numbers
                m = entry["matrix"]
                if not isinstance(m, list) or any(isinstance(x, list) for x in m):
                    raise CircuitError(f"matrix must be a flat list, got {m!r}")
                v = [float(x) if isinstance(x, str) and _fmt17(float(x)) == x else x for x in m]
                d = 2 if entry["kind"] == "unitary1" else 4
                matrix = [v[i : i + d] for i in range(0, len(v), d)]  # GateOp checks shape and entries
            gates.append(GateOp(entry["kind"], entry["qubits"], matrix))
        n_qubits = doc["n_qubits"]
    except KeyError as exc:
        raise CircuitError(f"circuit document lacks key {exc}") from exc
    except CircuitError:
        raise
    except (TypeError, ValueError, OverflowError) as exc:  # invalid JSON, or a wrong type, size or range
        raise CircuitError(f"malformed circuit document: {exc}") from exc
    return Circuit(n_qubits=n_qubits, gates=tuple(gates))
