"""Circuit IR, reflection wrapper, dense simulation, accounting, export."""

import json
import tracemalloc

import numpy as np
import pytest
from scipy import stats

from symprep import circuit, statevec
from symprep.circuit import (
    Circuit,
    CircuitError,
    GateOp,
    GateStats,
    accounting,
    add_reflection_wrapper,
    export_circuit,
    import_circuit,
    prep_circuit,
    simulate,
)
from symprep.disentangler import build_stack
from symprep.mps import DENSE_LIMIT, apply_gate_run, mps_from_statevector
from symprep.pipeline import config_from_dict, run_full

from oracles import to_statevector, zero_state


def ghz_circuit():
    return Circuit(2, (GateOp("hadamard", (0,)), GateOp("cnot", (0, 1))))


def normal_target(n):
    x = -0.5 + (np.arange(2**n) + 0.5) / 2**n
    f = stats.norm.pdf(x[: 2 ** (n - 1)], 0.0, 0.1)
    p = np.concatenate([f, f[::-1]])
    return p / p.sum()


def half_stack(n_full, num_layers=1):
    p = normal_target(n_full)
    half = p[: 2 ** (n_full - 1)]
    half = half / half.sum()
    m = mps_from_statevector(np.sqrt(half))
    return build_stack(m, num_layers=num_layers)


@pytest.mark.parametrize("bad", [np.nan, np.inf, -np.inf])
def test_gateop_refuses_non_finite_matrices(bad):
    # what simulate runs: a gate can carry no NaN or inf into the state. Its
    # Circuit refuses it as a float array (not orthogonal) or as a nested
    # list (not finite); the bare GateOp record checks nothing.
    for kind, g in (("unitary1", np.eye(2)), ("unitary2", np.eye(4))):
        g[0, 0] = bad
        qubits = tuple(range(g.shape[0] // 2))
        with pytest.raises(CircuitError, match="not orthogonal"):
            Circuit(2, (GateOp(kind, qubits, g),))
        with pytest.raises(CircuitError, match="must be finite numbers"):
            Circuit(2, (GateOp(kind, qubits, g.tolist()),))


def test_circuit_checks_its_matrices_in_one_call_per_size(monkeypatch):
    # the orthogonality rule lives in Circuit: one batched is_orthonormal
    # call per matrix size present, and a failure names the first bad gate
    calls = []
    real = circuit.is_orthonormal

    def counting(a):
        calls.append(np.shape(a))
        return real(a)

    monkeypatch.setattr(circuit, "is_orthonormal", counting)
    inner = prep_circuit(half_stack(8, num_layers=3))
    assert calls == [(len(inner.gates), 4, 4)]
    calls.clear()
    wrapped = add_reflection_wrapper(inner)
    assert calls == [(len(inner.gates), 4, 4)] and len(wrapped.gates) == len(inner.gates) + 8
    rng = np.random.default_rng(3)
    gates = [random_gate(rng, "unitary1", (0,)), random_gate(rng, "unitary2", (1, 2)),
             GateOp("hadamard", (2,)), random_gate(rng, "unitary1", (2,)), GateOp("cnot", (2, 0))]
    calls.clear()
    Circuit(3, gates)
    assert calls == [(2, 2, 2), (1, 4, 4)]
    for i in range(len(gates)):
        kind = "unitary1" if i % 2 else "unitary2"
        bad = GateOp(kind, (0,) if kind == "unitary1" else (0, 1), np.eye(2 if kind == "unitary1" else 4) * 1.5)
        with pytest.raises(CircuitError, match=rf"^gate {i} \({kind}\) matrix is not orthogonal within 1e-10$"):
            Circuit(3, [*gates[:i], bad, *gates[i + 1 :]])


def test_gateop_validation():
    # each malformed gate is a plain record until a Circuit checks it
    def refused(gate, match="", n=3):
        with pytest.raises(CircuitError, match=match):
            Circuit(n, (gate,))

    refused(GateOp("toffoli", (0, 1)), "unknown gate kind")
    refused(GateOp("cnot", (1, 1)), "distinct")
    refused(GateOp("hadamard", (0, 1)), "takes 1 qubit")
    refused(GateOp("hadamard", (0,), np.eye(2)), "hadamard takes no matrix")
    refused(GateOp("unitary2", (2, 1), np.eye(4)), "must be ordered")  # wires must be ordered
    refused(GateOp("unitary2", (0, 1), np.eye(4) * 1.5), "not orthogonal", n=2)
    refused(GateOp("unitary1", (0,), np.eye(4)), "needs a 2x2 matrix")  # wrong shape
    refused(GateOp("hadamard", (5,)), "out of range", n=2)
    refused(GateOp("cnot", (0.9, 1.2)), "list of integers")  # qubits are integers, never truncated
    refused(GateOp("hadamard", (True,)), "list of integers")
    with pytest.raises(CircuitError):
        Circuit(2.5, ())
    with pytest.raises(CircuitError, match="gates must be GateOp instances"):
        Circuit(2, (("cnot", (0, 1)),))
    for entries in ([[True, False], [False, True]], [["1", "0"], ["0", "1"]]):
        refused(GateOp("unitary1", (0,), entries), "entries must be finite numbers")  # never the identity


def _door_entry(kind, qubits, matrix):
    entry = {"kind": kind, "qubits": qubits}
    if matrix is not None:  # the export's flat list; import cuts it into rows of the gate's size
        entry["matrix"] = [x for row in matrix for x in row]
    return entry


GATE_DOOR = {  # a malformed gate on 3 wires: (kind, qubits, matrix as nested lists), the refusal
    "unknown kind": (("toffoli", [0, 1], None), r"^unknown gate kind 'toffoli'$"),
    "wire count": (("hadamard", [0, 1], None), r"^hadamard takes 1 qubit\(s\), got \(0, 1\)$"),
    "float wires": (("cnot", [0.9, 1.2], None), r"^cnot qubits must be a list of integers, got \[0.9, 1.2\]$"),
    "bool wire": (("hadamard", [True], None), r"^hadamard qubits must be a list of integers, got \[True\]$"),
    "wires not a list": (("cnot", "01", None), r"^cnot qubits must be a list of integers, got '01'$"),
    "repeated wires": (("cnot", [1, 1], None), r"^cnot needs distinct qubits, got \(1, 1\)$"),
    "unitary2 wires descending": (("unitary2", [2, 1], np.eye(4).tolist()), r"^unitary2 wires must be ordered"),
    "wire out of range": (("hadamard", [3], None), r"^gate hadamard addresses qubit out of range \(3,\)$"),
    "matrix on H": (("hadamard", [0], np.eye(2).tolist()), r"^hadamard takes no matrix$"),
    "matrix on CNOT": (("cnot", [0, 1], np.eye(2).tolist()), r"^cnot takes no matrix$"),
    "no matrix": (("unitary1", [0], None), r"^unitary1 needs a 2x2 matrix, got \(\)$"),
    "wrong shape 2x2": (("unitary1", [0], [[1, 0], [0, 1], [0, 0]]), r"^unitary1 needs a 2x2 matrix, got \(3, 2\)$"),
    "wrong shape 4x4": (("unitary2", [0, 1], [[1, 0, 0, 0], [0, 1, 0, 0]]), r"needs a 4x4 matrix, got \(2, 4\)$"),
    "NaN entry": (("unitary1", [0], [[np.nan, 0], [0, 1]]), r"^unitary1 matrix entries must be finite numbers"),
    "inf entry": (("unitary2", [0, 1], [[np.inf, 0, 0, 0], *np.eye(4)[1:].tolist()]), "must be finite numbers"),
    "bool entries": (("unitary1", [1], [[True, False], [False, True]]), "must be finite numbers"),
    "string entries": (("unitary1", [1], [["1.0", "0.0"], ["0.0", "1.0"]]), "must be finite numbers"),
    "not orthogonal": (("unitary2", [1, 2], (np.eye(4) * 1.5).tolist()),
                       r"^gate 0 \(unitary2\) matrix is not orthogonal within 1e-10$"),
}


@pytest.mark.parametrize("case", GATE_DOOR)
def test_gate_door_refuses_alike(case):
    # Circuit is the one gate door: a gate built in the library and the same
    # gate read from a document are refused with the same message
    (kind, qubits, matrix), message = GATE_DOOR[case]
    GateOp(kind, qubits, matrix)  # a plain record: it checks nothing
    with pytest.raises(CircuitError, match=message) as direct:
        Circuit(3, (GateOp(kind, qubits, matrix),))
    doc = {"format_version": 1, "n_qubits": 3, "gates": [_door_entry(kind, qubits, matrix)]}
    with pytest.raises(CircuitError) as imported:
        import_circuit(json.dumps(doc))
    assert str(imported.value) == str(direct.value)


def test_canonical_gates_pass_through_by_identity():
    # a gate with a tuple of ints and a float array of its size is kept as
    # the same object; any other is rebuilt once, in canonical form
    rng = np.random.default_rng(5)
    gates = [random_gate(rng, "unitary2", (0, 1)), GateOp("hadamard", (2,)),
             random_gate(rng, "unitary1", (1,)), GateOp("cnot", (2, 0))]
    assert all(a is b for a, b in zip(Circuit(3, gates).gates, gates))
    loose = [GateOp("cnot", [0, 1]), GateOp("unitary1", (0,), np.eye(2, dtype=int)),
             GateOp("unitary2", [1, 2], np.eye(4).tolist()), GateOp("unitary1", (2,), np.eye(2, dtype=np.float32))]
    c = Circuit(3, loose)
    for g, raw in zip(c.gates, loose):
        assert g is not raw and type(g.qubits) is tuple and all(type(q) is int for q in g.qubits)
        assert g.matrix is None or (g.matrix.dtype == np.float64 and g.matrix.shape in ((2, 2), (4, 4)))
    assert all(a is b for a, b in zip(Circuit(3, c.gates).gates, c.gates))
    inner = prep_circuit(half_stack(8, num_layers=2))
    wrapped = add_reflection_wrapper(inner)
    assert all(w.matrix is g.matrix for w, g in zip(wrapped.gates, inner.gates))  # shifted, not copied


def one_gate_price(m):
    # one unitary2's CNOT price read off the gate alone (Vatan & Williams)
    r = m.reshape(2, 2, 2, 2).transpose(0, 2, 1, 3).reshape(4, 4)
    s = np.linalg.svd(r, compute_uv=False)
    return 0 if s[1] <= 1e-9 * s[0] else (3 if np.linalg.det(m) < 0 else 2)


def test_cnot_prices_price_the_checked_stack(monkeypatch):
    # accounting prices the unitary2 stack its Circuit checked and stacks nothing itself
    c = add_reflection_wrapper(prep_circuit(half_stack(8, num_layers=2)))
    stats = accounting(c, num_layers=2)

    def no_stack(*args, **kwargs):
        raise AssertionError("np.stack called")

    def priced(mats):
        it = iter(mats)
        return [one_gate_price(next(it)) if g.kind == "unitary2" else int(g.kind == "cnot") for g in c.gates]

    monkeypatch.setattr(np, "stack", no_stack)
    assert accounting(c, num_layers=2) == stats
    prices = circuit._cnot_prices(c)
    assert prices == priced(g.matrix for g in c.gates if g.kind == "unitary2")
    flipped = c._unitary2.copy()
    flipped[:, :, 0] *= -1  # det < 0, and the padded end gates are no longer products
    object.__setattr__(c, "_unitary2", flipped)
    assert circuit._cnot_prices(c) == priced(flipped) != prices


def test_simulate_empty_and_ghz():
    empty = Circuit(3, ())
    assert np.array_equal(simulate(empty), zero_state(3))
    psi = simulate(ghz_circuit())
    expect = np.zeros(4)
    expect[0] = expect[3] = 1.0 / np.sqrt(2.0)
    assert np.allclose(psi, expect, atol=1e-12)


def test_simulate_refuses_past_the_dense_limit():
    # refused before the 2^n state is allocated
    with pytest.raises(CircuitError, match=f"n={DENSE_LIMIT + 1} exceeds dense limit {DENSE_LIMIT}"):
        simulate(Circuit(DENSE_LIMIT + 1, ()))


def test_simulate_refuses_lost_norm():
    # Each gate passes the 1e-10 orthogonality rule, yet 40 of them stretch
    # |00> by (1 + 4e-11)^40, past simulate's 1e-12 norm check.
    g = np.eye(4)
    g[0, 0] = 1.0 + 4e-11
    entry = {"kind": "unitary2", "qubits": [0, 1], "matrix": g.ravel().tolist()}
    doc = {"format_version": 1, "n_qubits": 2, "gates": [entry] * 40}
    with pytest.raises(CircuitError, match="lost norm: 1.0000000016"):
        simulate(import_circuit(json.dumps(doc)))


def test_prep_circuit_identity_on_zero():
    m = mps_from_statevector(zero_state(4))
    stack = build_stack(m, num_layers=1)
    psi = simulate(prep_circuit(stack))
    assert abs(abs(psi[0]) - 1.0) <= 1e-12


def test_prep_circuit_reproduces_ghz():
    v = np.zeros(8)
    v[0] = v[7] = 1.0 / np.sqrt(2.0)
    m = mps_from_statevector(v)
    stack = build_stack(m, num_layers=1)
    psi = simulate(prep_circuit(stack))
    assert np.max(np.abs(np.abs(psi) - np.abs(v))) <= 1e-10
    assert abs(np.abs(np.dot(psi, v)) - 1.0) <= 1e-10


def test_prep_circuit_duality_matches_residual():
    # preparation infidelity equals the stack's residual infidelity
    rng = np.random.default_rng(41)
    v = rng.standard_normal(2**6)
    v /= np.linalg.norm(v)
    m = mps_from_statevector(v, chi_max=4)
    stack = build_stack(m, num_layers=2)
    psi = simulate(prep_circuit(stack))
    target = to_statevector(m)
    infid = 1.0 - float(np.dot(psi, target)) ** 2
    assert abs(infid - stack.residual_infidelity) <= 1e-10


def test_prep_circuit_gate_count_uniform():
    stack = half_stack(10, num_layers=1)
    c = prep_circuit(stack)
    assert c.n_qubits == 9
    assert len(c.gates) == 9  # n-1 two-qubit gates per layer on the full width
    assert all(g.kind == "unitary2" for g in c.gates)


def test_reflection_wrapper_ghz_from_identity():
    inner = Circuit(2, ())
    wrapped = add_reflection_wrapper(inner)
    assert wrapped.n_qubits == 3
    psi = simulate(wrapped)
    expect = np.zeros(8)
    expect[0] = expect[7] = 1.0 / np.sqrt(2.0)
    assert np.allclose(psi, expect, atol=1e-12)


def test_reflection_wrapper_point_mass():
    # inner |0...0> is a point mass at 0: output uniform over {0, 2^n-1}
    wrapped = add_reflection_wrapper(Circuit(4, ()))
    psi = simulate(wrapped)
    assert abs(psi[0] - 1.0 / np.sqrt(2.0)) <= 1e-12
    assert abs(psi[-1] - 1.0 / np.sqrt(2.0)) <= 1e-12
    assert np.max(np.abs(psi[1:-1])) <= 1e-12


def test_reflection_wrapper_mirror_identity():
    stack = half_stack(8, num_layers=2)
    inner = prep_circuit(stack)
    wrapped = add_reflection_wrapper(inner)
    psi_in = simulate(inner)
    psi = simulate(wrapped)
    half = psi_in.size
    s = 1.0 / np.sqrt(2.0)
    assert np.max(np.abs(psi[:half] - s * psi_in)) <= 1e-12
    assert np.max(np.abs(psi[half:] - s * psi_in[::-1])) <= 1e-12
    # exact mirror symmetry of the squared amplitudes
    p = psi**2
    assert np.max(np.abs(p - p[::-1])) <= 1e-14


def test_reflection_wrapper_needs_two_qubits():
    with pytest.raises(CircuitError):
        add_reflection_wrapper(Circuit(1, ()))


def test_accounting_depth_formulas():
    stack = half_stack(5, num_layers=1)
    c = add_reflection_wrapper(prep_circuit(stack))
    stats5 = accounting(c, num_layers=1)
    assert stats5.cnot_depth_analytic == 10  # 2(n-2) + (n-1) at n=5
    assert stats5.two_qubit_gate_count == 8  # (n-1) chain gates + (n-1) fan-out
    assert stats5.total_gate_count == 9  # 4 chain + H + 4 fan-out

    # bare staircase formula without the wrapper
    dummy = Circuit(20, (GateOp("hadamard", (0,)),))
    stats20 = accounting(dummy, num_layers=11)
    assert stats20.cnot_depth_analytic == 2 * ((20 - 2) + (11 - 1))
    assert stats20.cnot_depth_analytic == 56

    # the staircase term n-2 stops at 0 rather than going negative
    one = accounting(Circuit(1, (GateOp("hadamard", (0,)),)), num_layers=1)
    assert one.cnot_depth_analytic == 0

    empty = accounting(Circuit(5, ()), num_layers=1)
    assert (
        empty.cnot_depth_analytic
        == empty.two_qubit_gate_count
        == empty.total_gate_count
        == empty.cnot_depth_counted
        == 0
    )


def test_accounting_cost_follows_the_gates_not_the_width():
    # one CNOT on a million wires: no n-entry wrapper tail and no n-entry depth clock
    c = Circuit(10**6, (GateOp("cnot", (0, 1)),))
    tracemalloc.start()
    try:
        stats = accounting(c)
        peak = tracemalloc.get_traced_memory()[1]
    finally:
        tracemalloc.stop()
    assert peak < 2**20, peak
    assert stats == GateStats(2 * (10**6 - 2), 1, 1, 1, 1)


@pytest.mark.parametrize("num_layers", [2.9, -3, 0, True, "2"], ids=repr)
def test_accounting_refuses_bad_layer_counts(num_layers):
    # neither truncated (2.9 -> 2) nor clamped (-3 -> 1)
    with pytest.raises(CircuitError, match="num_layers"):
        accounting(ghz_circuit(), num_layers=num_layers)


def _drop(c, i):
    return Circuit(c.n_qubits, c.gates[:i] + c.gates[i + 1 :])


def _swap(c, i, j):
    g = list(c.gates)
    g[i], g[j] = g[j], g[i]
    return Circuit(c.n_qubits, tuple(g))


def test_accounting_reads_the_wrapper_off_the_gates():
    # the fan-out's n-1 is added exactly when the gates end with the wrapper's
    # tail: H(0), then CNOT(0, j) for j = 1 .. n-1 in order, on n >= 3 wires
    inner = prep_circuit(half_stack(6))
    c = add_reflection_wrapper(inner)
    assert accounting(c).cnot_depth_analytic == 2 * (6 - 2) + 5
    assert accounting(inner).cnot_depth_analytic == 2 * (5 - 2)
    bare = 2 * (6 - 2)
    assert accounting(_drop(c, len(c.gates) - 3)).cnot_depth_analytic == bare  # one CNOT missing
    assert accounting(_swap(c, -1, -2)).cnot_depth_analytic == bare  # fan-out out of order
    assert accounting(_swap(c, -5, -6)).cnot_depth_analytic == bare  # H after the first CNOT
    # the 2-qubit Bell circuit has the same gates, but no wrapper fits 2 wires
    assert accounting(ghz_circuit()).cnot_depth_analytic == 0


def test_accounting_counted_depth_ghz():
    stats2 = accounting(ghz_circuit(), num_layers=1)
    assert stats2.cnot_depth_counted == 1
    assert stats2.two_qubit_gate_count == 1


def test_export_json_roundtrip():
    stack = half_stack(6, num_layers=1)
    c = add_reflection_wrapper(prep_circuit(stack))
    doc = export_circuit(c, "json")
    c2 = import_circuit(doc)
    assert c2.n_qubits == c.n_qubits
    assert np.array_equal(simulate(c2), simulate(c))  # 17g entries round-trip


def test_export_qasm_like_ghz():
    text = export_circuit(ghz_circuit(), "qasm_like")
    lines = [ln for ln in text.splitlines() if ln and not ln.startswith("//")]
    assert lines == ["h q0", "cx q0,q1"]


def test_export_pipeline_gate_count():
    stack = half_stack(10, num_layers=1)
    c = add_reflection_wrapper(prep_circuit(stack))
    doc = export_circuit(c, "json")
    c2 = import_circuit(doc)
    # n-1 chain gates + 1 hadamard + n-1 fan-out CNOTs at n=10
    assert len(c2.gates) == 9 + 1 + 9
    with pytest.raises(CircuitError):
        export_circuit(c, "pickle")


def test_dense_vs_mps_simulator_agreement():
    rng = np.random.default_rng(42)
    for n in range(3, 7):
        gates = []
        for _ in range(6):
            q = int(rng.integers(0, n - 1))
            g = np.linalg.qr(rng.standard_normal((4, 4)))[0]
            gates.append(GateOp("unitary2", (q, q + 1), g))
        c = Circuit(n, tuple(gates))
        dense = simulate(c)
        m = mps_from_statevector(zero_state(n))
        for g in gates:
            m = apply_gate_run(m, [g.matrix], g.qubits[0] + 1)[0]
        assert np.max(np.abs(to_statevector(m) - dense)) <= 1e-10, f"n={n}"


# Reference kernels: moveaxis, einsum on the strided view, copy back. These
# are the full-width kernels simulate ran before its BLAS kernels, CNOT
# permutation and width-1 axes; the kernels are held to them within 1e-15.
# They take and return n-axis states whose axes all have width 2.
def ref_apply_1q(psi, g, q):
    t = np.moveaxis(np.einsum("ij,j...->i...", g, np.moveaxis(psi, q, 0)), 0, q)
    return np.ascontiguousarray(t)


def ref_apply_2q(psi, g, qa, qb):
    t = np.einsum("uvst,st...->uv...", g.reshape(2, 2, 2, 2), np.moveaxis(psi, (qa, qb), (0, 1)))
    return np.ascontiguousarray(np.moveaxis(t, (0, 1), (qa, qb)))


CNOT = np.eye(4)[[0, 1, 3, 2]]  # control = first wire: |c t> -> |c, t xor c>


def gate_matrix(g):
    return {"hadamard": statevec.HADAMARD, "cnot": CNOT}.get(g.kind, g.matrix)


def wide_simulate(c):
    # the statevec kernels one gate at a time on a full-width state
    psi = zero_state(c.n_qubits).reshape((2,) * c.n_qubits)
    for g in c.gates:
        if g.kind == "cnot":
            psi = statevec.apply_cnot(psi, *g.qubits)
        else:
            kernel = statevec.apply_1q if len(g.qubits) == 1 else statevec.apply_2q
            psi = kernel(psi, gate_matrix(g), *g.qubits)
    return psi.reshape(-1)


def kron_simulate(c):
    # each gate as a full 2^n x 2^n matrix: kron with the identity on the
    # other wires, then the wires transposed into place
    n = c.n_qubits
    psi = zero_state(n)
    for g in c.gates:
        order = [*g.qubits, *(q for q in range(n) if q not in g.qubits)]
        full = np.kron(gate_matrix(g), np.eye(2 ** (n - len(g.qubits))))
        inv = np.argsort(order)
        psi = full.reshape((2,) * (2 * n)).transpose([*inv, *(n + inv)]).reshape(2**n, 2**n) @ psi
    return psi


def random_gate(rng, kind, qubits):
    d = 2 ** len(qubits)
    m = np.linalg.qr(rng.standard_normal((d, d)))[0] if kind.startswith("unitary") else None
    return GateOp(kind, qubits, m)


def random_circuit(rng, n):
    gates = []
    for _ in range(int(rng.integers(1, 3 * n + 1))):
        kind = ("hadamard", "cnot", "unitary1", "unitary2")[int(rng.integers(4))]
        if kind in ("hadamard", "unitary1"):
            qubits = (int(rng.integers(n)),)
        else:
            qubits = tuple(int(q) for q in rng.choice(n, 2, replace=False))
            qubits = tuple(sorted(qubits)) if kind == "unitary2" else qubits
        gates.append(random_gate(rng, kind, qubits))
    return Circuit(n, gates)


def named_circuits(rng):
    def u(*qubits):
        return random_gate(rng, "unitary1" if len(qubits) == 1 else "unitary2", qubits)

    h = GateOp("hadamard", (1,))
    cx = [GateOp("cnot", qs) for qs in ((1, 3), (4, 0), (3, 1))]
    def tail(*targets):
        return (GateOp("hadamard", (0,)), *(GateOp("cnot", (0, t)) for t in targets))

    fan = [GateOp("cnot", qs) for qs in ((2, 0), (2, 4), (2, 3), (2, 4), (2, 1), (4, 2), (4, 0))]
    return {
        "empty": Circuit(5, ()),
        "cnot-down-and-up": Circuit(5, (h, cx[0], u(3, 4), cx[1], cx[2])),
        "middle-qubit-first": Circuit(6, (u(2, 3), u(3, 4), u(1, 2), u(0, 5))),
        "unitary1-on-untouched": Circuit(5, (u(0, 1), u(3), u(4), u(1, 3))),
        # gates on two already-wide wires with untouched wires between or after them
        "wide-pair-untouched-around": Circuit(7, (u(2, 3), u(2, 3), u(5, 6), u(3, 5), u(1), u(1, 5))),
        "staircase": Circuit(6, (*(u(q, q + 1) for q in range(5)), u(4, 5), u(0, 1))),
        "cnot-fan-out-runs": Circuit(5, (u(0, 1), u(2, 3), h, *fan, u(3, 4), fan[0], fan[1])),
        "fan-out-on-untouched": Circuit(5, (u(1), fan[1], fan[2], fan[4])),
        # the wrapper's tail, so one fan-out, with wires 1 and 5 untouched before it
        "wrapper-tail-on-untouched": Circuit(6, (u(2, 3), u(4), u(3, 4), *tail(1, 2, 3, 4, 5))),
        "wrapper-tail-n3": Circuit(3, (u(1, 2), *tail(1, 2))),
        # near misses, run one CNOT at a time
        "tail-cnots-out-of-order": Circuit(6, (u(2, 3), *tail(1, 3, 2, 4, 5))),
        "tail-target-missing": Circuit(6, (u(2, 3), u(4, 5), *tail(1, 2, 4, 5))),
        "tail-pattern-n2": Circuit(2, (u(1), *tail(1))),
    }


def differential_cases():
    rng = np.random.default_rng(2024)
    cases = [(f"random-n{n}-{i}", random_circuit(rng, n)) for n in range(2, 9) for i in range(8)]
    return [pytest.param(c, id=name) for name, c in cases + list(named_circuits(rng).items())]


@pytest.mark.parametrize("c", differential_cases())
def test_simulate_matches_reference_kernels(c):
    # width-1 axes and the wrapper's one-permutation fan-out leave the
    # full-width kernels' bits
    psi = simulate(c)
    assert psi.tobytes() == wide_simulate(c).tobytes()  # bit-identical, zeros' signs included
    assert np.max(np.abs(psi - kron_simulate(c))) <= 1e-14


def check_kernel_contract(monkeypatch, n):
    # wrap the kernels simulate calls and assert, on every call, what they
    # do not check themselves; returns the list of calls made
    calls = []
    real_1q, real_2q, real_cnot = statevec.apply_1q, statevec.apply_2q, statevec.apply_cnot

    def wires_ok(psi, wires, widths):
        assert psi.ndim == n  # one axis per qubit of the circuit
        assert all(0 <= q < psi.ndim and psi.shape[q] in widths for q in wires), (psi.shape, wires)

    def apply_1q(psi, g, q, out=None):
        wires_ok(psi, (q,), (1, 2))
        calls.append(("1q", q))
        return real_1q(psi, g, q, out=out)

    def apply_2q(psi, g, qa, qb, out=None):
        wires_ok(psi, (qa, qb), (1, 2))
        assert qa < qb
        calls.append(("2q", qa, qb))
        return real_2q(psi, g, qa, qb, out=out)

    def apply_cnot(psi, control, *targets):
        wires_ok(psi, (control, *targets), (2,))
        assert targets and control not in targets and len(set(targets)) == len(targets)
        calls.append(("cnot", control, *targets))
        return real_cnot(psi, control, *targets)

    for name, kernel in (("apply_1q", apply_1q), ("apply_2q", apply_2q), ("apply_cnot", apply_cnot)):
        monkeypatch.setattr(statevec, name, kernel)
    return calls


@pytest.mark.parametrize("c", differential_cases())
def test_simulate_keeps_the_kernel_contract(c, monkeypatch):
    calls = check_kernel_contract(monkeypatch, c.n_qubits)
    simulate(c)
    assert bool(calls) == bool(c.gates)


@pytest.mark.parametrize("method", ["symmetry", "baseline"])
def test_pipeline_circuits_keep_the_kernel_contract(method, monkeypatch):
    calls = check_kernel_contract(monkeypatch, 8)
    result = run_full(config_from_dict({"dist": {"kind": "normal"}, "n_qubits": 8, "method": method, "num_layers": 2}))
    # one call per gate, but one for the wrapper's whole fan-out of 7 CNOTs
    assert len(calls) == len(result.circuit.gates) - (6 if method == "symmetry" else 0)


@pytest.mark.parametrize(
    "name", ["wrapper-tail-on-untouched", "wrapper-tail-n3", "tail-cnots-out-of-order", "tail-target-missing", "cnot-fan-out-runs"]
)
def test_only_the_wrapper_tail_is_one_permutation(name, monkeypatch):
    # the fan-out is one apply_cnot call only when the circuit ends with the
    # wrapper's whole tail; every other CNOT is a call of its own
    c = named_circuits(np.random.default_rng(7))[name]
    calls = []
    real = statevec.apply_cnot

    def recording(psi, control, *targets):
        calls.append((control, *targets))
        return real(psi, control, *targets)

    monkeypatch.setattr(statevec, "apply_cnot", recording)
    simulate(c)
    cnots = [g.qubits for g in c.gates if g.kind == "cnot"]
    n = c.n_qubits
    if name.startswith("wrapper-tail"):
        cnots[1 - n :] = [tuple(range(n))]
    assert calls == cnots


def test_flat_kernels_match_reference():
    # every wire pair on full-width states: wires apart, and the left (wire
    # 0) and right (wire n-1) blocks of length 1; qa > qb for apply_cnot
    rng = np.random.default_rng(17)
    for n in range(2, 9):
        psi = rng.standard_normal((2,) * n)
        psi /= np.linalg.norm(psi)
        g4, g2 = (np.linalg.qr(rng.standard_normal((d, d)))[0] for d in (4, 2))
        for qa in range(n):
            assert np.max(np.abs(statevec.apply_1q(psi, g2, qa) - ref_apply_1q(psi, g2, qa))) <= 1e-15
            for qb in set(range(n)) - {qa}:
                if qa < qb:  # the wire order Circuit requires of a unitary2
                    got = statevec.apply_2q(psi, g4, qa, qb)
                    assert np.max(np.abs(got - ref_apply_2q(psi, g4, qa, qb))) <= 1e-15, (n, qa, qb)
                cnot = statevec.apply_cnot(psi, qa, qb)
                assert cnot.tobytes() == ref_apply_2q(psi, CNOT, qa, qb).tobytes()


def test_kernels_ignore_width_1_axes():
    # a gate on a state with untouched (width-1) axes, widened afterwards, is
    # bit for bit the gate on the widened state, whatever blocks that leaves
    rng = np.random.default_rng(29)
    for _ in range(300):
        n = int(rng.integers(2, 9))
        qubits = tuple(sorted(int(q) for q in rng.choice(n, int(rng.integers(1, 3)), replace=False)))
        shape = tuple(2 if q in qubits or rng.random() < 0.5 else 1 for q in range(n))
        psi = rng.standard_normal(shape)
        g = np.linalg.qr(rng.standard_normal((2 ** len(qubits),) * 2))[0]
        kernel = statevec.apply_1q if len(qubits) == 1 else statevec.apply_2q
        got = statevec.widen(kernel(psi, g, *qubits), range(n))
        assert got.tobytes() == kernel(statevec.widen(psi, range(n)), g, *qubits).tobytes(), (shape, qubits)


@pytest.mark.parametrize("pattern", ["upper fresh", "lower fresh", "both fresh", "1q fresh"])
def test_fresh_gate_wires_match_the_widened_state(pattern):
    # a fresh (width-1) gate wire holds only |0>: the kernel multiplies by the
    # gate's columns with that bit 0 and returns the wire at width 2, bit for
    # bit the gate on the widened state; adjacent wires and wires apart, with
    # n up to 12 so short right blocks take the expanded-gate GEMM
    rng = np.random.default_rng(31)
    for _ in range(150):
        n = int(rng.integers(2, 13))
        if pattern == "1q fresh":
            qubits, fresh = (int(rng.integers(n)),), {0}
        else:
            apart = n > 2 and rng.random() < 0.3
            qa = int(rng.integers(n - 2 if apart else n - 1))
            qubits = (qa, int(rng.integers(qa + 2, n)) if apart else qa + 1)
            fresh = {"upper fresh": {0}, "lower fresh": {1}, "both fresh": {0, 1}}[pattern]
        all_wide = rng.random() < 0.5  # the other wires; long left blocks need many wide ones
        shape = [2 if all_wide else int(rng.integers(1, 3)) for _ in range(n)]
        for i, q in enumerate(qubits):
            shape[q] = 1 if i in fresh else 2
        psi = rng.standard_normal(shape)
        g = np.linalg.qr(rng.standard_normal((2 ** len(qubits),) * 2))[0]
        kernel = statevec.apply_1q if len(qubits) == 1 else statevec.apply_2q
        got = kernel(psi, g, *qubits)
        want = kernel(statevec.widen(psi, qubits), g, *qubits)
        assert got.shape == want.shape and all(got.shape[q] == 2 for q in qubits), (shape, qubits)
        assert got.tobytes() == want.tobytes(), (shape, qubits)


def test_kernels_write_into_a_buffer_bit_for_bit():
    # with out given, the result is the front of that flat buffer, with the
    # bits of a fresh result and the rest of the buffer untouched; every
    # _matmul branch: right blocks of 1, short and long, lone left rows,
    # fresh wires and wires apart
    rng = np.random.default_rng(41)
    for _ in range(200):
        n = int(rng.integers(2, 13))
        apart = n > 2 and rng.random() < 0.3
        if rng.random() < 0.3:
            qubits = (int(rng.integers(n)),)
        else:
            qa = int(rng.integers(n - 2 if apart else n - 1))
            qubits = (qa, int(rng.integers(qa + 2, n)) if apart else qa + 1)
        shape = tuple(int(rng.integers(1, 3)) if q in qubits or rng.random() < 0.3 else 2 for q in range(n))
        psi = rng.standard_normal(shape)
        g = np.linalg.qr(rng.standard_normal((2 ** len(qubits),) * 2))[0]
        kernel = statevec.apply_1q if len(qubits) == 1 else statevec.apply_2q
        want = kernel(psi, g, *qubits)
        buf = np.full(2**n + 3, np.pi)
        got = kernel(psi, g, *qubits, out=buf)
        assert np.shares_memory(got, buf) and got.shape == want.shape, (shape, qubits)
        assert got.tobytes() == want.tobytes(), (shape, qubits)
        assert np.all(buf[want.size :] == np.pi), (shape, qubits)


@pytest.mark.parametrize("d", [2, 4])
def test_short_right_blocks_match_matmul(d):
    # a right block of 2 or 4 runs as one GEMM with the gate expanded over
    # the block; its bits are np.matmul's loop of one GEMM per left row
    rng = np.random.default_rng(37)
    g = np.linalg.qr(rng.standard_normal((d, d)))[0]
    for n in (6, 12, 14):
        psi = rng.standard_normal((2,) * n)
        for q in range(n - d // 2):
            right = 2 ** (n - q - d // 2)
            if right == 1:
                continue  # np.matmul runs a lone column as a GEMV, in another order
            want = np.matmul(g, psi.reshape(2**q, d, right)).reshape(psi.shape)
            got = statevec.apply_1q(psi, g, q) if d == 2 else statevec.apply_2q(psi, g, q, q + 1)
            assert got.tobytes() == want.tobytes(), (n, q)


def test_emitted_two_qubit_gates_act_on_adjacent_wires():
    # so simulate never reaches apply_2q's copy for wires apart on the
    # circuits the pipeline emits, with or without the wrapper
    rng = np.random.default_rng(31)
    for n in range(3, 9):
        psi = rng.standard_normal(2**n)
        stack = build_stack(mps_from_statevector(psi / np.linalg.norm(psi)), num_layers=3)
        for layers in range(1, 4):
            inner = prep_circuit(stack.prefix(layers))
            for c in (inner, add_reflection_wrapper(inner)):
                pairs = [g.qubits for g in c.gates if g.kind == "unitary2"]
                assert pairs and all(qb == qa + 1 for qa, qb in pairs), (n, layers)


def test_cnot_fan_out_is_its_cnots_one_at_a_time():
    # one permutation with every target axis reversed in the control=1 slice
    # equals the CNOTs applied one target at a time, bit for bit, on states
    # whose untouched axes have width 1; on full-width states it also equals
    # the moveaxis reference
    rng = np.random.default_rng(23)
    named = [(0, (1, 2, 3, 4)), (4, (0, 1, 2)), (2, (0, 4)), (3, (4, 1)), (1, (0,))]  # above, below, between
    cases = [(5, c, ts) for c, ts in named]
    for n in range(2, 9):
        for _ in range(6):
            control, *targets = (int(q) for q in rng.permutation(n)[: int(rng.integers(2, n + 1))])
            cases.append((n, control, tuple(targets)))
    for n, control, targets in cases:
        for full_width in (True, False):
            shape = tuple(2 if full_width or q in (control, *targets) or rng.random() < 0.5 else 1 for q in range(n))
            psi = rng.standard_normal(shape)
            one_by_one, ref = psi, psi
            for t in targets:
                one_by_one = statevec.apply_cnot(one_by_one, control, t)
                if full_width:
                    ref = ref_apply_2q(ref, CNOT, control, t)
            got = statevec.apply_cnot(psi, control, *targets)
            assert got.tobytes() == one_by_one.tobytes(), (shape, control, targets)
            if full_width:
                assert got.tobytes() == ref.tobytes(), (shape, control, targets)


def test_wrapper_fan_out_is_one_permutation(monkeypatch):
    n = 8
    wrapped = add_reflection_wrapper(prep_circuit(half_stack(n)))
    calls = []
    real = statevec.apply_cnot

    def recording(psi, control, *targets):
        calls.append((control, targets))
        return real(psi, control, *targets)

    monkeypatch.setattr(statevec, "apply_cnot", recording)
    psi = simulate(wrapped)
    assert calls == [(0, tuple(range(1, n)))]
    assert psi.tobytes() == psi[::-1].tobytes()  # exactly mirror symmetric


def test_simulate_cost_is_linear_in_the_state(monkeypatch):
    # On |0...0> gate q of a staircase layer sees only the qubits its
    # predecessors touched, its lower wire still fresh: 1, 4, 8, ..., 2^(n-1)
    # amplitudes in, twice that out, O(2^n) for the layer. The end gate then
    # sees all 2^n. The wrapper's CNOTs are permutations and never reach
    # apply_2q.
    n = 12
    full = build_stack(mps_from_statevector(np.sqrt(normal_target(n))), num_layers=1)
    wrapped = add_reflection_wrapper(prep_circuit(half_stack(n)))
    sizes = []
    real = statevec.apply_2q

    def recording(psi, g, qa, qb, out=None):
        sizes.append(psi.size)
        assert not np.array_equal(g, CNOT)
        return real(psi, g, qa, qb, out)

    monkeypatch.setattr(statevec, "apply_2q", recording)
    simulate(prep_circuit(full))
    assert sizes == [1] + [2 ** (q + 1) for q in range(1, n - 1)] + [2**n]
    sizes.clear()
    simulate(wrapped)
    assert len(sizes) == sum(g.kind == "unitary2" for g in wrapped.gates) == n - 1


@pytest.mark.parametrize(
    "case",
    [
        "no gates",
        "no kind",
        "no qubits",
        "qubits not a list",
        "short matrix",
        "n_qubits Infinity",
        "qubit Infinity",
        "float qubits",
        "string qubits",
        "bool qubit",
        "float n_qubits",
        "bool matrix",
        "nested matrix",
        "matrix entry not a number",
        "gate not an object",
        "format_version 2",
        "not an object",
        "invalid JSON",
    ],
)
def test_import_malformed(case):
    doc = json.loads(export_circuit(ghz_circuit(), "json"))
    if case == "no gates":
        del doc["gates"]
    elif case in ("no kind", "no qubits"):
        del doc["gates"][1][case[3:]]
    elif case == "qubits not a list":
        doc["gates"][1]["qubits"] = 5
    elif case == "short matrix":
        doc["gates"].append({"kind": "unitary1", "qubits": [0], "matrix": ["1", "0", "0"]})
    elif case == "n_qubits Infinity":  # json.loads reads Infinity as a float
        doc["n_qubits"] = float("inf")
    elif case == "qubit Infinity":
        doc["gates"][1]["qubits"] = [0, float("inf")]
    elif case == "float qubits":  # not truncated to (0, 1)
        doc["gates"][1]["qubits"] = [0.9, 1.2]
    elif case == "string qubits":  # not split into (0, 1)
        doc["gates"][1]["qubits"] = "01"
    elif case == "bool qubit":  # not read as qubit 1
        doc["gates"][0]["qubits"] = [True]
    elif case == "float n_qubits":  # not truncated to 3
        doc["n_qubits"] = 3.7
    elif case == "bool matrix":  # not read as the identity
        doc["gates"].append({"kind": "unitary1", "qubits": [0], "matrix": [True, False, False, True]})
    elif case == "nested matrix":  # a flat list of d*d entries, as exported
        doc["gates"].append({"kind": "unitary1", "qubits": [0], "matrix": [[1, 0], [0, 1]]})
    elif case == "matrix entry not a number":
        doc["gates"].append({"kind": "unitary1", "qubits": [0], "matrix": ["one", "0", "0", "1"]})
    elif case == "gate not an object":
        doc["gates"][1] = ["cnot", 0, 1]
    elif case == "format_version 2":
        doc["format_version"] = 2
    elif case == "not an object":
        doc = [doc]
    with pytest.raises(CircuitError) as err:
        import_circuit("{" if case == "invalid JSON" else json.dumps(doc))
    if case in ("matrix entry not a number", "gate not an object", "invalid JSON"):
        # a wrong type the gate checks cannot see is mapped, not raised raw
        assert "malformed circuit document" in str(err.value)
