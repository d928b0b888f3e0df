"""Circuit intermediate representation, reflection wrapper, dense simulator,
depth/count accounting, and export. `simulate` is the library's one dense
interpreter.

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
from dataclasses import dataclass, field
from typing import NamedTuple

import numpy as np

from . import statevec
from .disentangler import DisentanglerStack
from .mps import DENSE_LIMIT
from .numerics import is_finite_number, is_int, is_orthonormal

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


class GateOp(NamedTuple):
    """One gate record: hadamard(q), cnot(control, target), unitary1(q, 2x2) or unitary2(q_low,
    q_high, 4x4), whose first wire is the matrix index's higher bit. Its `Circuit` checks it."""

    kind: str
    qubits: tuple
    matrix: np.ndarray | None = None


@dataclass(frozen=True)
class Circuit:
    """Immutable gate list on n_qubits wires, applied in list order, and the one gate door: each gate
    is checked once, a canonical one (int tuple, float array) kept as the same object, and its
    matrices orthogonal in one batched call per size, naming the first bad gate."""

    n_qubits: int
    gates: tuple
    _unitary2: np.ndarray = field(init=False, repr=False, compare=False)

    def __post_init__(self):
        if not is_int(self.n_qubits) or self.n_qubits < 1:
            raise CircuitError(f"n_qubits must be an integer >= 1, got {self.n_qubits!r}")
        gates = []
        for g in self.gates:
            if not isinstance(g, GateOp):
                raise CircuitError("gates must be GateOp instances")
            kind, qubits, m = g
            if kind not in _KINDS:
                raise CircuitError(f"unknown gate kind {kind!r}")
            if not isinstance(qubits, (tuple, list)) or not all(is_int(q) for q in qubits):
                raise CircuitError(f"{kind} qubits must be a list of integers, got {qubits!r}")
            qubits = tuple(qubits)
            want = 1 if kind in ("hadamard", "unitary1") else 2
            if len(qubits) != want:
                raise CircuitError(f"{kind} takes {want} qubit(s), got {qubits}")
            if want == 2 and qubits[0] == qubits[1]:
                raise CircuitError(f"{kind} needs distinct qubits, got {qubits}")
            if kind == "unitary2" and not qubits[0] < qubits[1]:
                raise CircuitError("unitary2 wires must be ordered (q_low, q_high)")
            if kind in ("hadamard", "cnot"):
                if m is not None:
                    raise CircuitError(f"{kind} takes no matrix")
            else:
                d = 2 if kind == "unitary1" else 4
                if not (isinstance(m, np.ndarray) and m.dtype.kind in "iuf"):
                    # entries as given: a float conversion would read True and "1" as 1.0
                    m = np.asarray(m, dtype=object)
                    if m.shape == (d, d) and not all(map(is_finite_number, m.flat)):
                        raise CircuitError(f"{kind} matrix entries must be finite numbers: {g.matrix!r}")
                if m.shape != (d, d):
                    raise CircuitError(f"{kind} needs a {d}x{d} matrix, got {m.shape}")
                m = np.asarray(m, dtype=float)  # the same array for float input
            if any(not 0 <= q < self.n_qubits for q in qubits):
                raise CircuitError(f"gate {kind} addresses qubit out of range {qubits}")
            gates.append(g if qubits is g.qubits and m is g.matrix else GateOp(kind, qubits, m))
        object.__setattr__(self, "gates", tuple(gates))
        for kind, d in (("unitary1", 2), ("unitary2", 4)):  # one batched check per matrix size
            idx = [i for i, g in enumerate(gates) if g.kind == kind]
            mats = np.stack([gates[i].matrix for i in idx]) if idx else np.empty((0, d, d))
            if idx and not is_orthonormal(mats):
                bad = next(i for i in idx if not is_orthonormal(gates[i].matrix))
                raise CircuitError(f"gate {bad} ({kind}) matrix is not orthogonal within 1e-10")
        object.__setattr__(self, "_unitary2", mats)  # the checked stack _cnot_prices prices


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


def _reflection_tail(n: int) -> tuple:
    # the wrapper's last n gates on n wires: H on wire 0, then CNOT(0, j) for j = 1 .. n-1
    return (GateOp("hadamard", (0,)), *(GateOp("cnot", (0, j)) for j in range(1, n)))


def add_reflection_wrapper(c: Circuit) -> Circuit:
    """Wrap an (n-1)-qubit circuit into an n-qubit mirror-symmetric one.

    Output: inner gates shifted down one wire, then H on qubit 0, then a
    CNOT fan-out from qubit 0 to every other wire. For inner state a the
    result carries a_x/sqrt(2) at x and at its bitwise complement.
    """
    if c.n_qubits < 2:
        raise CircuitError(f"inner circuit needs >= 2 qubits, got {c.n_qubits}")
    n = c.n_qubits + 1
    gates = [g._replace(qubits=tuple(q + 1 for q in g.qubits)) for g in c.gates]
    return Circuit(n_qubits=n, gates=(*gates, *_reflection_tail(n)))


def _has_reflection_tail(c: Circuit) -> bool:
    """True when c ends with the tail add_reflection_wrapper appends, which
    needs n >= 3 wires and n gates. A checked H or CNOT has no matrix, so no array is compared."""
    n = c.n_qubits
    return 3 <= n <= len(c.gates) and c.gates[-n:] == _reflection_tail(n)


def simulate(c: Circuit) -> np.ndarray:
    """Exact dense application of the gates in order to |0...0>.

    Each gate is one BLAS call on a view of the state, and a qubit's axis
    has width 1 until a gate first touches it: a staircase layer on |0...0>
    costs O(2^n), gate q reading at most 2^(q+1) amplitudes, its lower wire
    still fresh. Only a CNOT needs its wires widened first; the other
    kernels take a fresh wire as it is, and write into one of two 2^n
    buffers allocated once, so the heap sees the same two blocks whatever
    the circuit. The wrapper's fan-out, found as `accounting` finds it, is
    one permutation with one copy of the state; every other CNOT runs
    alone. The amplitudes equal the kernels' on full-width states, one gate
    at a time.
    """
    n = c.n_qubits
    if n > DENSE_LIMIT:
        raise CircuitError(f"n={n} exceeds dense limit {DENSE_LIMIT}")
    tail = n - 1 if _has_reflection_tail(c) else 0  # the fan-out's CNOTs
    psi = np.ones((1,) * n)
    # the kernels write into the front of spare[0], never psi's buffer; the
    # spare left over is freed before the fan-out copies the state
    spare = [np.empty(2**n), np.empty(2**n)]
    for g in c.gates[: len(c.gates) - tail]:
        if g.kind == "cnot":
            psi = statevec.apply_cnot(statevec.widen(psi, g.qubits), *g.qubits)
            continue
        if g.kind == "unitary2":
            psi = statevec.apply_2q(psi, g.matrix, *g.qubits, out=spare[0])
        else:
            psi = statevec.apply_1q(psi, statevec.HADAMARD if g.kind == "hadamard" else g.matrix, *g.qubits, out=spare[0])
        spare.reverse()
    del spare
    psi = statevec.widen(psi, range(n))
    if tail:
        psi = statevec.apply_cnot(psi, 0, *range(1, n))
    psi = psi.reshape(-1)
    nrm = float(np.linalg.norm(psi))
    if not abs(nrm - 1.0) <= 1e-12:
        raise CircuitError(f"simulation lost norm: {nrm:.15g}")
    return psi


# realignment singular-value ratio at or below which a 4x4 gate is a product gate
_PRODUCT_TOL = 1e-9


def _cnot_prices(c: Circuit) -> list:
    # the unitary2 stack Circuit checked, priced in one batched SVD of the
    # realignments (rank 1 for a product A (x) B) and one batched determinant
    mats = c._unitary2
    realigned = mats.reshape(-1, 2, 2, 2, 2).transpose(0, 1, 3, 2, 4).reshape(-1, 4, 4)
    s = np.linalg.svd(realigned, compute_uv=False)
    price = np.where(np.linalg.det(mats) < 0, 3, 2)
    price[s[:, 1] <= _PRODUCT_TOL * s[:, 0]] = 0
    priced = iter(price.tolist())
    return [next(priced) if g.kind == "unitary2" else int(g.kind == "cnot") for g in c.gates]


def _counted_cnot_depth(c: Circuit, prices: list) -> int:
    # greedy layering; a priced gate occupies that many sequential CNOT slots
    # on its qubits, a free gate takes no time; the clock holds only the
    # wires a priced gate touches, so the cost follows the gates, not n
    clock = {}
    for g, p in zip(c.gates, prices):
        if p:
            t = max(clock.get(q, 0) for q in g.qubits) + p
            for q in g.qubits:
                clock[q] = t
    return max(clock.values(), default=0)


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
                matrix = [v[i : i + d] for i in range(0, len(v), d)]  # Circuit checks shape and entries
            gates.append(GateOp(entry["kind"], entry["qubits"], matrix))
        return Circuit(n_qubits=doc["n_qubits"], gates=tuple(gates))
    except KeyError as exc:
        raise CircuitError(f"circuit document lacks key {exc}") from exc
    except CircuitError:
        raise
    except (TypeError, ValueError, OverflowError) as exc:  # invalid JSON, or a wrong type, size or range
        raise CircuitError(f"malformed circuit document: {exc}") from exc
