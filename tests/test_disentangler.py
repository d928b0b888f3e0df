"""Layer extraction, stacking, and the exact chi=2 disentangling theorem."""

import dataclasses

import numpy as np
import pytest
from scipy import stats

from symprep import disentangler, statevec
from symprep import mps as mps_module
from symprep.circuit import CircuitError
from symprep.disentangler import (
    DisentanglerError,
    DisentanglerStack,
    MpdLayer,
    _disentangle_mps,
    build_layer,
    build_stack,
)
from symprep.mps import (
    apply_gate_run,
    is_left_canonical,
    mps_from_statevector,
    truncate,
)
from symprep.numerics import complete_isometry
from symprep.pipeline import config_from_dict, encode

from oracles import residual, to_statevector, zero_state


def random_state(rng, n):
    v = rng.standard_normal(2**n)
    return v / np.linalg.norm(v)


def half_normal_amplitudes(n_half=9):
    x = -0.5 + (np.arange(2 ** (n_half + 1)) + 0.5) / 2 ** (n_half + 1)
    f = stats.norm.pdf(x[: 2**n_half], 0.0, 0.1)
    p = f / f.sum()
    return np.sqrt(p)


def ghz(n):
    v = np.zeros(2**n)
    v[0] = v[-1] = 1.0 / np.sqrt(2.0)
    return v


def disentangle_dense(psi, layer):
    # Dense oracle of _disentangle_mps: the layer's adjoints (end gate, then
    # the chain descending) on a flat 2^n vector, through the n-axis kernels.
    n = layer.n_qubits
    t = statevec.apply_1q(psi.reshape((2,) * n), layer.end.T, n - 1)
    for q in reversed(range(n - 1)):
        t = statevec.apply_2q(t, layer.chain[q].T, q, q + 1)
    return t.reshape(-1)


def single_layer_stack(m):
    # for a chi <= 2 canonical m, truncate(m, 2) is m itself, so the one
    # layer is build_layer(m) bit for bit
    stack = build_stack(m, 1)
    layer = build_layer(m)
    assert stack.layers[0].chain.tobytes() == layer.chain.tobytes()
    assert stack.layers[0].end.tobytes() == layer.end.tobytes()
    return stack


def test_layer_on_zero_state_is_identity_at_zero():
    m = mps_from_statevector(zero_state(5))
    layer = build_layer(m)
    psi = disentangle_dense(zero_state(5), layer)
    assert abs(abs(psi[0]) - 1.0) <= 1e-12


def test_layer_disentangles_ghz():
    m = mps_from_statevector(ghz(3))
    stack = single_layer_stack(m)
    assert residual(m, stack) <= 1e-10


def test_layer_gate_structure_bit_exact():
    rng = np.random.default_rng(31)
    v = random_state(rng, 6)
    m = mps_from_statevector(v, chi_max=2)
    layer = build_layer(m)
    # end gate equals the last tensor exactly
    assert np.array_equal(layer.end, m.tensors[-1][:, :, 0])
    # chain gate q's columns 2k hold the slices of site tensor q; the other
    # columns hold the completion of those slices, in order, the last one
    # negated if that is what makes det = +1
    assert len(layer.chain) == m.n_qubits - 1
    for q, g in enumerate(layer.chain):
        assert g.flags.c_contiguous
        t = m.tensors[q]
        l = t.shape[1]
        constrained = np.zeros((4, l))
        for k in range(l):
            expect = np.zeros((2, 2))
            expect[:, : t.shape[2]] = t[:, k, :]
            constrained[:, k] = expect.reshape(4)
            assert np.array_equal(g[:, 2 * k], constrained[:, k])
        free = [c for c in range(4) if c not in (0, 2)[:l]]
        completion = complete_isometry(constrained)[:, l:]
        assert np.array_equal(g[:, free[:-1]], completion[:, :-1])
        assert np.array_equal(g[:, free[-1]], completion[:, -1]) or np.array_equal(
            g[:, free[-1]], -completion[:, -1]
        )
        assert abs(np.linalg.det(g) - 1.0) <= 1e-12


def test_layer_gates_orthogonal():
    rng = np.random.default_rng(32)
    m = mps_from_statevector(random_state(rng, 7), chi_max=2)
    layer = build_layer(m)
    for g in layer.chain:
        assert np.allclose(g.T @ g, np.eye(4), atol=1e-10)
    assert np.allclose(layer.end.T @ layer.end, np.eye(2), atol=1e-10)


@pytest.mark.parametrize(
    "case", ["non-orthogonal chain gate", "2x2 gate in chain", "2x2 chain", "2-d chain", "4x4 end"]
)
def test_layer_validation(case):
    rng = np.random.default_rng(37)
    layer = build_layer(mps_from_statevector(random_state(rng, 5), chi_max=2))
    MpdLayer(chain=layer.chain, end=layer.end)  # the extracted gates pass
    as_tuple = MpdLayer(chain=tuple(layer.chain), end=layer.end)  # a sequence of 4x4s converts
    assert isinstance(as_tuple.chain, np.ndarray) and as_tuple.chain.flags.c_contiguous
    assert np.array_equal(as_tuple.chain, layer.chain)
    skewed = layer.chain.copy()
    skewed[1, :, 0] *= 2.0
    chain, end = {
        "non-orthogonal chain gate": (skewed, layer.end),
        "2x2 gate in chain": ((*layer.chain[:-1], layer.end), layer.end),  # ragged
        "2x2 chain": (layer.chain[:, :2, :2], layer.end),
        "2-d chain": (layer.chain[0], layer.end),
        "4x4 end": (layer.chain, layer.chain[-1]),
    }[case]
    with pytest.raises(DisentanglerError):
        MpdLayer(chain=chain, end=end)


def _chain_gate_reference(t):
    # One chain gate from one site tensor, as a per-site loop builds it: the
    # slices at left bond k are the columns for inputs |k 0>, the completion
    # fills the other slots in order, and a det -1 gate has its last free
    # column negated.
    _, l, r = t.shape
    cols = np.zeros((2, 2, l))
    cols[:, :r, :] = t.transpose(0, 2, 1)
    slots = {1: [0, 1, 2, 3], 2: [0, 2, 1, 3]}[l]
    g = np.empty((4, 4))
    g[:, slots] = complete_isometry(cols.reshape(4, l))
    if np.linalg.det(g) < 0:
        g[:, slots[-1]] *= -1.0
    return g


def _differential_states(rng):
    # Kronecker products put left bond 1 mid-chain; a product of one-qubit
    # states has every bond 1; random states fill the chain with bond 2.
    for n in range(3, 10):
        yield random_state(rng, n)
        for cut in range(1, n):
            yield np.kron(random_state(rng, cut), random_state(rng, n - cut))
        if n >= 5:
            yield np.kron(np.kron(random_state(rng, 2), random_state(rng, n - 4)), random_state(rng, 2))
        product = np.ones(1)
        for _ in range(n):
            product = np.kron(product, random_state(rng, 1))
        yield product


def test_batched_chain_matches_per_site_reference():
    rng = np.random.default_rng(38)
    left_bonds = set()
    for v in _differential_states(rng):
        m = mps_from_statevector(v, chi_max=2)
        left_bonds.add(tuple(t.shape[1] for t in m.tensors[:-1]))
        reference = np.stack([_chain_gate_reference(t) for t in m.tensors[:-1]])
        chain = build_layer(m).chain
        assert chain.flags.c_contiguous
        assert np.array_equal(chain, reference)
    # the states reach left bond 1 mid-chain, and a chain with every bond 1
    assert any(1 in bonds[1:] and 2 in bonds for bonds in left_bonds)
    assert any(set(bonds) == {1} for bonds in left_bonds)


def test_chi2_exactness_random_states():
    rng = np.random.default_rng(33)
    worst = 0.0
    for n in range(3, 11):
        for _ in range(4):
            m = mps_from_statevector(random_state(rng, n), chi_max=2)
            worst = max(worst, residual(m, single_layer_stack(m)))
    assert worst <= 1e-10, f"worst residual {worst:.3e}"


def test_build_layer_validation():
    rng = np.random.default_rng(34)
    m4 = mps_from_statevector(random_state(rng, 6), chi_max=4)
    with pytest.raises(DisentanglerError):
        build_layer(m4)  # bond dim exceeds 2
    from symprep.mps import Mps

    junk = Mps([t.copy() * 1.5 for t in mps_from_statevector(ghz(4), chi_max=2).tensors])
    with pytest.raises(DisentanglerError):
        build_layer(junk)  # not canonical
    flagged = Mps(junk.tensors, canonical="left")
    with pytest.raises(ValueError):
        build_layer(flagged)  # flagged canonical, but the tensors are not
    with pytest.raises(DisentanglerError, match="needs n >= 3"):
        build_layer(mps_from_statevector(ghz(2)))


def test_build_stack_single_layer_chi2():
    rng = np.random.default_rng(35)
    m = mps_from_statevector(random_state(rng, 5), chi_max=2)
    stack = build_stack(m, num_layers=1)
    assert len(stack.layers) == 1
    assert stack.residual_infidelity <= 1e-10
    assert residual(m, stack) <= 1e-10


def test_build_stack_more_layers_help():
    rng = np.random.default_rng(36)
    m = mps_from_statevector(random_state(rng, 6), chi_max=4)
    one = build_stack(m, num_layers=1)
    two = build_stack(m, num_layers=2)
    assert two.residual_infidelity <= one.residual_infidelity + 1e-12
    assert len(two.residual_history) == 2
    assert two.residual_history[1] <= two.residual_history[0] + 1e-12


def test_build_stack_history_tracks_residual_op():
    m = mps_from_statevector(half_normal_amplitudes())
    stack = build_stack(m, num_layers=3)
    dense = residual(m, stack)
    assert abs(dense - stack.residual_infidelity) <= 1e-9
    one = build_stack(m, num_layers=1)
    assert dense < residual(m, one)


def test_build_stack_validation():
    m = mps_from_statevector(ghz(4))
    with pytest.raises(DisentanglerError):
        build_stack(m, num_layers=0)


def assert_same_stack(a, b):
    # bit for bit: every gate's bytes and every recorded float
    assert len(a.layers) == len(b.layers) and a.n_qubits == b.n_qubits
    for la, lb in zip(a.layers, b.layers):
        assert la.end.tobytes() == lb.end.tobytes()
        assert [g.tobytes() for g in la.chain] == [g.tobytes() for g in lb.chain]
    for key in ("residual_infidelity", "residual_history", "truncation_error", "truncation_history"):
        assert repr(getattr(a, key)) == repr(getattr(b, key)), key


def prefix_sources():
    rng = np.random.default_rng(43)
    for n, chi in ((5, None), (7, 4), (8, 4), (8, None), (9, 8)):
        yield f"random n={n} chi={chi}", random_mps(rng, n, chi)
    for method in ("symmetry", "baseline"):
        cfg = config_from_dict({"dist": {"kind": "normal", "mu": 0.0, "sigma2": 0.01},
                                "grid": {"min": -0.5, "max": 0.5}, "n_qubits": 9, "method": method})
        yield f"normal {method}", encode(cfg)[1]


def test_prefix_is_the_shorter_build():
    # the build is sequential and deterministic, so the first k layers of a
    # K-layer stack are the k-layer stack, histories and sums included
    K = 4
    cut = False
    for name, m in prefix_sources():
        full = build_stack(m, K)
        assert len(full.truncation_history) == K
        cut = cut or full.truncation_error > 0.0
        for k in range(1, K + 1):
            assert_same_stack(full.prefix(k), build_stack(m, k))
        for k in (0, K + 1, True, 2.0):
            with pytest.raises(DisentanglerError, match="prefix length"):
                full.prefix(k)
    assert cut  # some source is recompressed, so the truncation sums are tested


def test_stack_figures_are_its_histories():
    stack = build_stack(mps_from_statevector(half_normal_amplitudes()), 3)
    assert [f.name for f in dataclasses.fields(stack)] == ["layers", "residual_history", "truncation_history"]
    assert stack.n_qubits == stack.layers[0].n_qubits == 9
    assert stack.residual_infidelity == stack.residual_history[-1]
    assert stack.truncation_error == stack.truncation_history[-1]


@pytest.mark.parametrize("case, match", [
    ("empty", "at least one layer"),
    ("short residual history", "one residual and truncation entry per layer"),
    ("short truncation history", "one residual and truncation entry per layer"),
    ("long histories", "one residual and truncation entry per layer"),
    ("2 qubits", "need n_qubits >= 3"),
    ("width mismatch", "layer width mismatch"),
    ("residual above 1", r"leaves \[0, 1\]"),
    ("negative residual", r"leaves \[0, 1\]"),
    ("NaN residual", r"leaves \[0, 1\]"),
])
def test_stack_refuses_a_contradictory_record(case, match):
    stack = build_stack(mps_from_statevector(ghz(4)), 2)
    layers, res, trunc = stack.layers, stack.residual_history, stack.truncation_history
    narrow = MpdLayer(chain=np.eye(4)[None], end=np.eye(2))  # 2 qubits
    wide = build_layer(mps_from_statevector(ghz(5)))
    args = {
        "empty": ((), (), ()),
        "short residual history": (layers, res[:1], trunc),
        "short truncation history": (layers, res, trunc[:1]),
        "long histories": (layers, (*res, 0.0), (*trunc, 0.0)),
        "2 qubits": ((narrow,), (0.0,), (0.0,)),
        "width mismatch": ((layers[0], wide), res, trunc),
        "residual above 1": (layers, (res[0], 1.0 + 1e-9), trunc),
        "negative residual": (layers, (-1e-9, res[1]), trunc),
        "NaN residual": (layers, (res[0], float("nan")), trunc),
    }[case]
    with pytest.raises(DisentanglerError, match=match):
        DisentanglerStack(*args)


@pytest.mark.parametrize("num_layers", [True, 2.5, "2"], ids=repr)
def test_build_stack_refuses_non_integer_counts(num_layers):
    # neither read as 1 layer (True) nor left to fail inside range() (2.5)
    m = mps_from_statevector(ghz(4))
    with pytest.raises(DisentanglerError, match="must be an integer >= 1"):
        build_stack(m, num_layers)


def test_default_chi_work_covers_the_input_bond(monkeypatch):
    # A cap below the input's max bond never cuts the working bond under
    # the bond the input already has: cap 4 works at 16, as cap 16 does.
    m = mps_from_statevector(random_state(np.random.default_rng(8), 8))
    assert max(m.bond_dims) == 16
    histories = []
    for cap in (16, 4):
        monkeypatch.setattr(disentangler, "_CHI_WORK_CAP", cap)
        histories.append(build_stack(m, num_layers=2).residual_history)
    assert histories[0] == histories[1]


def test_residual_qubit_mismatch():
    m = mps_from_statevector(ghz(4), chi_max=2)
    stack = single_layer_stack(m)
    m5 = mps_from_statevector(ghz(5), chi_max=2)
    with pytest.raises(CircuitError, match="qubit count mismatch"):
        residual(m5, stack)


def test_truncate_then_layer_pipeline_identity():
    # disentangling the chi=2 truncation exactly == preparing that truncation
    m = mps_from_statevector(half_normal_amplitudes())
    coarse, _ = truncate(m, 2)
    stack = single_layer_stack(coarse)
    assert residual(coarse, stack) <= 1e-10
    psi = to_statevector(coarse)
    for layer in stack.layers:
        psi = disentangle_dense(psi, layer)
    assert abs(abs(psi[0]) - 1.0) <= 1e-10


def random_mps(rng, n, chi):
    return mps_from_statevector(random_state(rng, n), chi_max=chi)


def test_layer_mps_path_matches_dense_oracle():
    rng = np.random.default_rng(37)
    for n in range(4, 13):
        for chi in (2, 3, 5, 8):
            m = random_mps(rng, n, chi)
            layer = build_layer(truncate(m, 2)[0])
            out, err = _disentangle_mps(m, layer, None)
            dense = disentangle_dense(to_statevector(m), layer)
            assert np.max(np.abs(to_statevector(out) - dense)) <= 1e-12
            assert is_left_canonical(out)
            assert 0.0 <= err <= 1e-24  # only numerically zero ranks dropped

            chi_work = max(2, max(m.bond_dims) - 2)
            cut, err = _disentangle_mps(m, layer, chi_work)
            assert err >= 0.0
            assert max(cut.bond_dims) <= chi_work
            assert is_left_canonical(cut)


def test_one_gate_discarded_weight_is_the_infidelity():
    rng = np.random.default_rng(38)
    for n in range(4, 10):
        v = random_state(rng, n)
        m = mps_from_statevector(v)
        g = np.linalg.qr(rng.standard_normal((4, 4)))[0]
        site = int(rng.integers(1, n))
        for chi in (1, 2, 3):
            out, err = apply_gate_run(m, [g], site, chi)
            dense = statevec.apply_2q(v.reshape((2,) * n), g, site - 1, site).reshape(-1)
            overlap = float(dense @ to_statevector(out))
            assert abs(err - (1.0 - overlap**2)) <= 1e-12
            assert out.bond_dims[site - 1] <= chi  # only the gate's bond is cut


def test_gate_run_equals_one_gate_calls():
    # a truncating run that stops above site 1 matches gate-by-gate calls
    rng = np.random.default_rng(40)
    for n in range(4, 10):
        m = random_mps(rng, n, 8)
        gates = [np.linalg.qr(rng.standard_normal((4, 4)))[0] for _ in range(n - 2)]
        run, err = apply_gate_run(m, gates, n - 1, 2)
        step, total = m, 0.0
        for i, g in enumerate(gates):
            step, e = apply_gate_run(step, [g], n - 1 - i, 2)
            total += e
        assert err > 0.0 and abs(err - total) <= 1e-12
        assert np.max(np.abs(to_statevector(run) - to_statevector(step))) <= 1e-12
        assert is_left_canonical(run)


def test_layer_costs_linear_svd_calls(monkeypatch):
    rng = np.random.default_rng(39)
    layers = {}
    for n in range(4, 13):
        m = random_mps(rng, n, 8)
        layers[n] = (m, build_layer(truncate(m, 2)[0]))
    calls = []
    real = mps_module.svd

    def counting(a):
        calls.append(1)
        return real(a)

    monkeypatch.setattr(mps_module, "svd", counting)
    for n, (m, layer) in layers.items():
        calls.clear()
        _disentangle_mps(m, layer, None)
        assert len(calls) <= (n - 2) + (n - 1)
        for site in range(1, n):
            calls.clear()
            apply_gate_run(m, [np.eye(4)], site)[0]
            assert len(calls) <= 2 * site - 1
