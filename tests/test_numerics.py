"""SVD determinism, orthogonal-completion contracts and the one
orthogonality rule every gate and canonical-form check applies."""

import json

import numpy as np
import pytest

from symprep.circuit import Circuit, CircuitError, GateOp, import_circuit
from symprep.disentangler import DisentanglerError, MpdLayer
from symprep.mps import (
    Mps,
    MpsError,
    apply_gate_run,
    is_left_canonical,
    mps_from_statevector,
    mps_to_json,
)
from symprep.numerics import (
    NumericsError,
    complete_isometry,
    is_finite_number,
    is_int,
    is_real_array,
    svd,
)

from mps_json import mps_from_json


def test_svd_reconstruction_and_order():
    rng = np.random.default_rng(11)
    for _ in range(50):
        m, n = rng.integers(1, 9, size=2)
        a = rng.standard_normal((m, n))
        u, s, vt = svd(a)
        rec = u @ np.diag(s) @ vt
        assert np.allclose(rec, a, atol=1e-12 * max(1.0, np.abs(a).max()))
        assert np.all(np.diff(s) <= 1e-14)  # non-increasing
        k = s.size
        assert np.allclose(u.T @ u, np.eye(k), atol=1e-12)
        assert np.allclose(vt @ vt.T, np.eye(k), atol=1e-12)


def test_svd_sign_convention_deterministic():
    # no sign rule: the signs are LAPACK's, but a repeat gives the same bits
    rng = np.random.default_rng(12)
    for _ in range(30):
        a = rng.standard_normal((6, 4))
        u1, _, vt1 = svd(a)
        u2, _, vt2 = svd(a.copy())
        assert np.array_equal(u1, u2)
        assert np.array_equal(vt1, vt2)


def test_complete_isometry_shapes():
    # random isometries of the shapes the gate extraction produces, plus empty and square
    rng = np.random.default_rng(14)
    shapes = [(2, 1), (4, 1), (4, 2), (4, 3), (3, 0), (4, 4)]
    for _ in range(250):
        for d, k in shapes:
            q = np.linalg.qr(rng.standard_normal((d, d)))[0][:, :k]
            full = complete_isometry(q)
            assert full.shape == (d, d)
            assert np.allclose(full.T @ full, np.eye(d), atol=1e-10)
            # supplied columns preserved bit-exactly
            assert np.array_equal(full[:, :k], q)
    # a stack completes as its matrices do one by one, bit for bit
    for d, k in shapes:
        stack = np.stack([np.linalg.qr(rng.standard_normal((d, d)))[0][:, :k] for _ in range(7)])
        full = complete_isometry(stack)
        assert full.shape == (7, d, d)
        assert np.array_equal(full, np.stack([complete_isometry(q) for q in stack]))
    with pytest.raises(NumericsError):
        complete_isometry(np.ones(4))  # 1-d


def test_complete_isometry_rejects_bad_input():
    with pytest.raises(NumericsError):
        complete_isometry(np.array([[1.0, 0.0], [1.0, 0.0]]))  # not orthonormal
    with pytest.raises(NumericsError):
        complete_isometry(np.eye(3)[:2].T @ np.eye(2) * 2.0)  # scaled
    with pytest.raises(NumericsError):
        complete_isometry(np.ones((2, 3)))  # more columns than rows
    with pytest.raises(NumericsError):
        svd(np.array([[np.nan, 0.0]]))


@pytest.mark.parametrize("bad", [np.nan, np.inf, -np.inf])
def test_svd_refuses_non_finite(bad):
    # refused before LAPACK: numpy 2.4's SVD never returns on this matrix with ±inf
    a = np.zeros((4, 4))
    a[0, 0] = bad
    with pytest.raises(NumericsError, match="non-finite"):
        svd(a)


@pytest.mark.parametrize("shape", [(4,), (2, 2, 2)])
def test_svd_refuses_anything_but_a_matrix(shape):
    with pytest.raises(NumericsError, match=r"expected a 2-d real matrix, got shape"):
        svd(np.ones(shape))


def test_complete_isometry_identity_passthrough():
    full = complete_isometry(np.eye(4)[:, :2])
    assert np.array_equal(full[:, :2], np.eye(4)[:, :2])
    assert np.allclose(full.T @ full, np.eye(4), atol=1e-14)


def _accepts(name, error, scale):
    # Feed one entry point an orthogonal 4x4 gate, or a canonical MPS with
    # one site tensor, scaled by `scale`; True iff it is accepted.
    g = np.linalg.qr(np.random.default_rng(7).normal(size=(4, 4)))[0] * scale
    v = np.random.default_rng(7).normal(size=32)
    tensors = list(mps_from_statevector(v / np.linalg.norm(v)).tensors)
    tensors[2] = tensors[2] * scale
    try:
        if name == "Circuit":
            Circuit(2, (GateOp("unitary2", (0, 1), g),))
        elif name == "import_circuit":
            entry = {"kind": "unitary2", "qubits": [0, 1], "matrix": g.ravel().tolist()}
            import_circuit(json.dumps({"format_version": 1, "n_qubits": 2, "gates": [entry]}))
        elif name == "MpdLayer":
            MpdLayer(chain=(g, np.eye(4)), end=np.eye(2))
        elif name == "apply_gate_run":
            apply_gate_run(mps_from_statevector(np.eye(8)[0]), [g], top=1)
        elif name == "complete_isometry":
            complete_isometry(g[:, :2])
        elif name == "is_left_canonical":
            return is_left_canonical(Mps(tensors))
        else:
            mps_from_json(mps_to_json(Mps(tensors, canonical="left")))
    except error:
        return False
    return True


@pytest.mark.parametrize(
    "name, error",
    [
        ("Circuit", CircuitError),
        ("import_circuit", CircuitError),
        ("MpdLayer", DisentanglerError),
        ("apply_gate_run", MpsError),
        ("complete_isometry", NumericsError),
        ("is_left_canonical", MpsError),  # returns False, raises nothing
        ("mps_from_json", MpsError),
    ],
)
def test_orthonormality_rule_is_absolute(name, error):
    # Every entry point applies numerics.is_orthonormal: a Gram error of
    # 5e-11 passes; a scale of 1 + 4e-6 (Gram error 8e-6, inside the 1e-5
    # relative slack of np.allclose) does not.
    assert _accepts(name, error, np.sqrt(1.0 + 5e-11))
    assert not _accepts(name, error, 1.0 + 4e-6)


def test_value_rules():
    assert is_int(3) and is_int(-2) and is_int(10**400)
    assert not any(is_int(v) for v in (True, 3.0, "3", None, np.int64(3)))
    assert is_finite_number(2) and is_finite_number(-1.5e308) and is_finite_number(np.float64(0.1))
    bad = (True, "1", None, float("nan"), float("inf"), -float("inf"), 10**400, [1.0])
    assert not any(is_finite_number(v) for v in bad)
    assert all(is_real_array(np.ones(2, dtype=t)) for t in (int, np.uint8, np.float32, float))
    assert not any(is_real_array(np.ones(2, dtype=t)) for t in (bool, complex, str, object))
    assert not any(is_real_array(v) for v in ([1.0, 0.0], 1.0))  # not yet an array
