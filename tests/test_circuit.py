"""Circuit IR, reflection wrapper, dense simulation, accounting, export."""

import json

import numpy as np
import pytest
from scipy import stats

from symprep import statevec
from symprep.circuit import (
    Circuit,
    CircuitError,
    GateOp,
    accounting,
    add_reflection_wrapper,
    export_circuit,
    import_circuit,
    prep_circuit,
    simulate,
)
from symprep.disentangler import build_stack
from symprep.mps import DENSE_LIMIT, apply_gate_run, mps_from_statevector, to_statevector


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
    # what simulate runs: a gate can carry no NaN or inf into the state, as
    # a float array (not orthogonal) or as a nested list (not finite)
    for kind, g in (("unitary1", np.eye(2)), ("unitary2", np.eye(4))):
        g[0, 0] = bad
        for m in (g, g.tolist()):
            with pytest.raises(CircuitError, match="not orthogonal|must be finite numbers"):
                GateOp(kind, tuple(range(g.shape[0] // 2)), m)


def test_gateop_validation():
    with pytest.raises(CircuitError):
        GateOp("toffoli", (0, 1))
    with pytest.raises(CircuitError):
        GateOp("cnot", (1, 1))
    with pytest.raises(CircuitError):
        GateOp("hadamard", (0, 1))
    with pytest.raises(CircuitError, match="hadamard takes no matrix"):
        GateOp("hadamard", (0,), np.eye(2))
    with pytest.raises(CircuitError):
        GateOp("unitary2", (2, 1), np.eye(4))  # wires must be ordered
    with pytest.raises(CircuitError):
        GateOp("unitary2", (0, 1), np.eye(4) * 1.5)  # not orthogonal
    with pytest.raises(CircuitError):
        GateOp("unitary1", (0,), np.eye(4))  # wrong shape
    with pytest.raises(CircuitError):
        Circuit(2, (GateOp("hadamard", (5,)),))  # out of range
    with pytest.raises(CircuitError):
        GateOp("cnot", (0.9, 1.2))  # qubits are integers, never truncated
    with pytest.raises(CircuitError):
        GateOp("hadamard", (True,))
    with pytest.raises(CircuitError):
        Circuit(2.5, ())
    with pytest.raises(CircuitError, match="gates must be GateOp instances"):
        Circuit(2, (("cnot", (0, 1)),))
    for entries in ([[True, False], [False, True]], [["1", "0"], ["0", "1"]]):
        with pytest.raises(CircuitError, match="entries must be finite numbers"):
            GateOp("unitary1", (0,), entries)  # never read as the identity


def test_simulate_empty_and_ghz():
    empty = Circuit(3, ())
    assert np.array_equal(simulate(empty), statevec.zero_state(3))
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
    m = mps_from_statevector(statevec.zero_state(4))
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
        m = mps_from_statevector(statevec.zero_state(n))
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
    psi = statevec.zero_state(c.n_qubits).reshape((2,) * c.n_qubits)
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
    psi = statevec.zero_state(n)
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
                if qa < qb:  # the wire order GateOp gives a unitary2
                    got = statevec.apply_2q(psi, g4, qa, qb)
                    assert np.max(np.abs(got - ref_apply_2q(psi, g4, qa, qb))) <= 1e-15, (n, qa, qb)
                cnot = statevec.apply_cnot(psi, qa, qb)
                assert cnot.tobytes() == ref_apply_2q(psi, CNOT, qa, qb).tobytes()


@pytest.mark.parametrize("qa, qb", [(1, 0), (2, 0), (1, 1)])
def test_apply_2q_takes_ascending_wires_only(qa, qb):
    psi = statevec.widen(np.ones((1, 1, 1)), range(3))
    with pytest.raises(ValueError, match="wires must be ascending"):
        statevec.apply_2q(psi, np.eye(4), qa, qb)


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


def test_cnot_fan_out_refuses_bad_wires():
    psi = np.ones((2, 2, 2)) / np.sqrt(8.0)
    for targets in ((), (1, 1), (0, 2)):
        with pytest.raises(ValueError, match="distinct targets other than its control"):
            statevec.apply_cnot(psi, 0, *targets)
    with pytest.raises(ValueError, match="need axes of width 2"):
        statevec.apply_cnot(np.ones((2, 1, 2)), 0, 1, 2)  # a target never touched is not widened here


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


def test_kernels_refuse_flat_vectors():
    # one layout: a state has one axis per qubit, so a flat 2^n vector is
    # refused, not read as a single wide qubit or indexed past its one axis
    psi = np.ones(8) / np.sqrt(8.0)
    with pytest.raises(ValueError, match="need axes of width 2"):
        statevec.apply_2q(psi, np.eye(4), 1, 2)
    with pytest.raises(ValueError, match="need axes of width 2"):
        statevec.apply_1q(psi, np.eye(2), 0)
    with pytest.raises(ValueError, match="need axes of width 2"):
        statevec.apply_cnot(psi, 0, 1)
    with pytest.raises(ValueError, match="need axes of width 2"):
        statevec.apply_cnot(psi, 0, 1, 2)


def test_simulate_cost_is_linear_in_the_state(monkeypatch):
    # On |0...0> gate q of a staircase layer sees only the qubits it and its
    # predecessors touched: 4, 8, ..., 2^n amplitudes, O(2^n) for the layer.
    # The wrapper's CNOTs are permutations and never reach apply_2q.
    n = 12
    full = build_stack(mps_from_statevector(np.sqrt(normal_target(n))), num_layers=1)
    wrapped = add_reflection_wrapper(prep_circuit(half_stack(n)))
    sizes = []
    real = statevec.apply_2q

    def recording(psi, g, qa, qb):
        sizes.append(psi.size)
        assert not np.array_equal(g, CNOT)
        return real(psi, g, qa, qb)

    monkeypatch.setattr(statevec, "apply_2q", recording)
    simulate(prep_circuit(full))
    assert sizes == [2 ** (q + 2) for q in range(n - 1)] + [2**n]
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
