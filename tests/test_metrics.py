"""KL, fidelity, and the two Meyer-Wallach evaluations."""

import math

import numpy as np
import pytest

from symprep import metrics
from symprep.metrics import (
    MetricsError,
    classical_fidelity,
    kl_divergence,
    meyer_wallach_purity,
)

from oracles import NOT_REAL, meyer_wallach_direct


def random_state(rng, n):
    v = rng.standard_normal(2**n)
    return v / np.linalg.norm(v)


def random_probs(rng, size):
    p = rng.random(size)
    p /= p.sum()
    p[-1] = 1.0 - p[:-1].sum()
    return p


def ghz(n):
    v = np.zeros(2**n)
    v[0] = v[-1] = 1.0 / np.sqrt(2.0)
    return v


def test_kl_basics():
    p = np.array([0.5, 0.5])
    assert abs(kl_divergence(p, p)) <= 1e-12
    q = np.array([0.75, 0.25])
    expect = math.log(2.0) - 0.5 * math.log(3.0)  # closed form
    assert abs(kl_divergence(p, q) - expect) <= 1e-12
    with pytest.raises(MetricsError):
        kl_divergence(p, np.array([0.5, 0.25, 0.25]))
    with pytest.raises(MetricsError):
        kl_divergence(p, np.array([0.9, 0.3]))  # not normalized


def test_kl_clamps_zero_q():
    p = np.array([0.5, 0.5])
    q = np.array([1.0, 0.0])
    val = kl_divergence(p, q)
    assert np.isfinite(val) and val > 100.0  # clamp makes it large, not inf


def test_kl_gibbs_inequality():
    rng = np.random.default_rng(51)
    for _ in range(200):
        size = 2 ** int(rng.integers(1, 7))
        p = random_probs(rng, size)
        q = random_probs(rng, size)
        assert kl_divergence(p, q) >= -1e-12


def test_fidelity_basics():
    p = np.array([0.5, 0.5])
    assert classical_fidelity(p, p) == 1.0
    assert classical_fidelity(np.array([1.0, 0.0]), np.array([0.0, 1.0])) == 0.0
    assert abs(classical_fidelity(p, np.array([1.0, 0.0])) - 0.5) <= 1e-12


def test_fidelity_symmetric_and_bounded():
    rng = np.random.default_rng(52)
    for _ in range(100):
        size = 2 ** int(rng.integers(1, 7))
        p = random_probs(rng, size)
        q = random_probs(rng, size)
        f1, f2 = classical_fidelity(p, q), classical_fidelity(q, p)
        assert abs(f1 - f2) <= 1e-12
        assert 0.0 <= f1 <= 1.0
    assert classical_fidelity(p, p) > 1.0 - 1e-12


def test_meyer_wallach_product_state():
    rng = np.random.default_rng(53)
    for n in (2, 4, 6):
        qubits = []
        for _ in range(n):
            a = rng.standard_normal(2)
            qubits.append(a / np.linalg.norm(a))
        v = qubits[0]
        for q in qubits[1:]:
            v = np.kron(v, q)
        assert abs(meyer_wallach_direct(v)) <= 1e-12
        assert abs(meyer_wallach_purity(v)) <= 1e-12


def test_meyer_wallach_ghz():
    for n in (2, 3, 5, 8):
        assert abs(meyer_wallach_direct(ghz(n)) - 1.0) <= 1e-12
    assert abs(meyer_wallach_purity(ghz(20)) - 1.0) <= 1e-10


def test_meyer_wallach_w_state():
    # W state on 3 qubits: known value 8/9
    v = np.zeros(8)
    v[0b100] = v[0b010] = v[0b001] = 1.0 / np.sqrt(3.0)
    assert abs(meyer_wallach_direct(v) - 8.0 / 9.0) <= 1e-12
    assert abs(meyer_wallach_purity(v) - 8.0 / 9.0) <= 1e-12


def test_meyer_wallach_direct_vs_purity():
    rng = np.random.default_rng(54)
    for _ in range(200):
        n = int(rng.integers(2, 11))
        v = random_state(rng, n)
        d = meyer_wallach_direct(v)
        p = meyer_wallach_purity(v)
        assert abs(d - p) <= 1e-10
        assert -1e-10 <= d <= 1.0 + 1e-10


def test_meyer_wallach_local_unitary_invariance():
    rng = np.random.default_rng(55)
    for _ in range(20):
        n = int(rng.integers(2, 7))
        v = random_state(rng, n)
        q0 = meyer_wallach_purity(v)
        g = np.linalg.qr(rng.standard_normal((2, 2)))[0]
        j = int(rng.integers(0, n))
        t = np.moveaxis(v.reshape([2] * n), j, 0)
        t2 = np.einsum("ij,j...->i...", g, t)
        w = np.moveaxis(t2, 0, j).reshape(-1)
        assert abs(meyer_wallach_purity(w) - q0) <= 1e-10


def test_meyer_wallach_mirror_bound():
    # v = [u, w] with w = u reversed: |u|^2 = |w|^2 = 1/2, so qubit 0 has
    # Tr rho_0^2 = 1/2 + 2 (u.w)^2 and Q >= (2/n) (1/2 - 2 (u.w)^2)
    rng = np.random.default_rng(56)
    for n in range(3, 11):
        for _ in range(10):
            h = rng.standard_normal(2 ** (n - 1))
            v = np.concatenate([h, h[::-1]])
            v /= np.linalg.norm(v)
            u, w = np.split(v, 2)
            rho0 = v.reshape(2, -1) @ v.reshape(2, -1).T
            assert abs(np.trace(rho0 @ rho0) - (0.5 + 2.0 * (u @ w) ** 2)) <= 1e-12
            bound = (2.0 / n) * (0.5 - 2.0 * (u @ w) ** 2)
            assert meyer_wallach_direct(v) >= bound - 1e-12
            assert meyer_wallach_purity(v) >= bound - 1e-12
    # equality: |+>^n is mirror symmetric with u.w = 1/2, so Q = bound = 0
    plus = np.full(2**6, 2.0**-3)
    assert abs(meyer_wallach_direct(plus)) <= 1e-12


def test_meyer_wallach_validation():
    with pytest.raises(MetricsError):
        meyer_wallach_direct(np.ones(4))  # unnormalized
    with pytest.raises(MetricsError):
        meyer_wallach_direct(np.ones(3) / np.sqrt(3.0))  # not a power of two
    with pytest.raises(MetricsError):
        meyer_wallach_direct(random_state(np.random.default_rng(0), 13))  # too wide


# Reference forms: the full-vector kernels the metrics ran before they
# scored mirror-symmetric inputs on their half. The moveaxis Meyer-Wallach
# copies each qubit's (2, 2^(n-1)) matricization.
def ref_kl(p, q):
    mask = p > 0
    return float(np.sum(p[mask] * np.log(p[mask] / np.maximum(q[mask], 1e-300))))


def ref_fidelity(p, q):
    return min(1.0, max(0.0, float(np.sum(np.sqrt(p * q)) ** 2)))


def ref_meyer_wallach(v):
    n = int(v.size).bit_length() - 1
    acc = 0.0
    for j in range(n):
        t = np.moveaxis(v.reshape([2] * n), j, 0).reshape(2, -1)
        rho = t @ t.T
        acc += float(np.sum(rho * rho))
    return 2.0 * (1.0 - acc / n)


def mirrored(half, norm):
    v = np.concatenate([half, half[::-1]])
    return v / norm(v)


def test_half_forms_equal_full_forms_on_mirror_symmetric_inputs():
    rng = np.random.default_rng(57)
    for n in range(4, 17):
        for _ in range(3):
            v = mirrored(rng.standard_normal(2 ** (n - 1)), np.linalg.norm)
            p, q = (mirrored(rng.random(2 ** (n - 1)), np.sum) for _ in range(2))
            q_state = v * v  # the prepared state's distribution is symmetric too
            assert v.tobytes() == v[::-1].tobytes() and p.tobytes() == p[::-1].tobytes()
            assert abs(meyer_wallach_purity(v) - ref_meyer_wallach(v)) <= 1e-12, n
            for a, b in ((p, q), (p, q_state)):
                assert abs(kl_divergence(a, b) - ref_kl(a, b)) <= 1e-12, n
                assert abs(classical_fidelity(a, b) - ref_fidelity(a, b)) <= 1e-12, n
    # zeros in p take the masked sum on the half too
    p = mirrored(np.array([0.0, 0.3, 0.0, 0.7]), np.sum)
    q = mirrored(np.array([0.1, 0.2, 0.3, 0.4]), np.sum)
    assert abs(kl_divergence(p, q) - ref_kl(p, q)) <= 1e-15


def asymmetric_cases(rng, n):
    h = rng.random(2 ** (n - 1))
    end_pairs_equal = np.concatenate([h, h[::-1]])
    end_pairs_equal[2 ** (n - 2)] *= 1.5  # passes the end-pair test, not the full one
    one_side = np.concatenate([h, h[::-1]])  # symmetric p against an asymmetric q
    with_zeros = rng.random(2**n)
    with_zeros[1:][rng.random(2**n - 1) < 0.2] = 0.0  # the masked sum
    return [
        (with_zeros, rng.random(2**n)),
        (end_pairs_equal, end_pairs_equal[::-1].copy()),
        (one_side, end_pairs_equal),
        (end_pairs_equal, one_side),
    ]


def test_asymmetric_inputs_keep_the_full_forms():
    rng = np.random.default_rng(58)
    for n in range(2, 13):
        for p, q in asymmetric_cases(rng, n):
            p, q = p / p.sum(), q / q.sum()
            for a, b in ((p, q), (q, p)):
                assert kl_divergence(a, b) == ref_kl(a, b)  # bit-identical
                assert classical_fidelity(a, b) == ref_fidelity(a, b)
            v = np.sqrt(q)
            v /= np.linalg.norm(v)
            assert abs(meyer_wallach_purity(v) - ref_meyer_wallach(v)) <= 1e-12


def test_an_asymmetric_q_skips_the_targets_symmetry_test(monkeypatch):
    # a baseline run scores an exactly symmetric target against a state that
    # is not: q is tested first, and p's full compare pass is never run
    rng = np.random.default_rng(59)
    p = mirrored(rng.random(2**9), np.sum)
    q = rng.random(2**10)
    q /= q.sum()
    tested = []
    real = metrics._mirror_half
    monkeypatch.setattr(metrics, "_mirror_half", lambda v: tested.append(v) or real(v))
    assert kl_divergence(p, q) == ref_kl(p, q)
    assert classical_fidelity(p, q) == ref_fidelity(p, q)
    assert len(tested) == 2 and all(v.tobytes() == q.tobytes() for v in tested)


@pytest.mark.parametrize("bad", [np.nan, np.inf, -np.inf])
@pytest.mark.parametrize("fn", [meyer_wallach_purity, meyer_wallach_direct])
def test_meyer_wallach_refuses_non_finite_states(fn, bad):
    v = ghz(3)
    v[2] = bad
    for w in (v, np.full(8, bad)):
        with pytest.raises(MetricsError, match="not normalized"):
            fn(w)


@pytest.mark.parametrize("kind", NOT_REAL)
@pytest.mark.parametrize("fn", [kl_divergence, classical_fidelity])
def test_probability_doors_refuse_non_real_arrays(fn, kind):
    point = np.array([1.0, 0.0, 0.0, 0.0])
    message = f"entries must be real numbers, got dtype {NOT_REAL[kind].dtype}$"
    with pytest.raises(MetricsError, match="^p " + message):
        fn(NOT_REAL[kind], point)
    with pytest.raises(MetricsError, match="^q " + message):
        fn(point, NOT_REAL[kind])


@pytest.mark.parametrize("kind", NOT_REAL)
def test_meyer_wallach_refuses_non_real_arrays(kind):
    with pytest.raises(MetricsError, match=rf"^statevector entries must be real numbers, got dtype {NOT_REAL[kind].dtype}$"):
        meyer_wallach_purity(NOT_REAL[kind])


@pytest.mark.parametrize("case, match", [
    ("nan", "must be finite and non-negative"),
    ("+inf", "must be finite and non-negative"),
    ("-inf", "must be finite and non-negative"),
    ("negative", "must be finite and non-negative"),
    ("sum", r"sums to 1\.1, not 1 within 1e-9"),
    ("2-d", "must be a vector"),
])
@pytest.mark.parametrize("fn", [kl_divergence, classical_fidelity])
def test_probability_vectors_refused(fn, case, match):
    good = np.full(4, 0.25)
    bad = good.copy()
    bad[1] = {"nan": np.nan, "+inf": np.inf, "-inf": -np.inf, "negative": -0.1, "sum": 0.35, "2-d": 0.25}[case]
    if case == "negative":
        bad[2] += 0.35  # keep the sum at 1, so only the sign is wrong
    if case == "2-d":
        bad = bad.reshape(2, 2)  # the same entries, summing to 1, as a matrix
    with pytest.raises(MetricsError, match="p " + match):
        fn(bad, good)
    with pytest.raises(MetricsError, match="q " + match):
        fn(good, bad)
