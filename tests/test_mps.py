"""MPS construction, canonical form, truncation, and gate application.

Oracle for truncation quality: an independent dense successive-SVD
implementation kept inside this file, pinned to frozen constants.
Reference code for truncate's sweep and the rank rule pins both bit for
bit, on full-rank and on padded rank-deficient inputs. Reference code for
mps_from_statevector's sweep, with the SVD of each whole unfolding and its
u * s carry, checks the R-factor sweep within rounding.
"""

import json

import numpy as np
import pytest
from scipy import stats

from symprep import mps as mps_module
from symprep import statevec
from symprep.numerics import complete_isometry, svd
from symprep.mps import (
    DENSE_LIMIT,
    Mps,
    MpsError,
    apply_gate_run,
    is_left_canonical,
    mps_from_statevector,
    mps_to_json,
    truncate,
)

from mps_json import mps_from_json
from oracles import to_statevector, zero_state

# frozen oracle value: chi=2 truncation KL of the n=10 normal(0, 0.01)
# state on [-0.5, 0.5] (midpoint grid), computed by dense_truncate below
ORACLE_FULL_CHI2_KL = 2.8413307966915864e-03


def dense_truncate(v, chi):
    # independent oracle: truncate every bipartition cut to chi by plain SVD
    n = int(np.log2(v.size))
    w = v.copy()
    for cut in range(1, n):
        m = w.reshape(2**cut, -1)
        u, s, vt = np.linalg.svd(m, full_matrices=False)
        k = min(chi, s.size)
        w = ((u[:, :k] * s[:k]) @ vt[:k]).reshape(-1)
    return w / np.linalg.norm(w)


def reference_truncate(m, chi):
    # reference: truncate written out as one loop (a truncating sweep to
    # the right, an exact sweep back); keeps zero singular values
    tensors = list(m.tensors)
    n = len(tensors)
    err = 0.0
    for i in range(n - 1):
        _, l, r = tensors[i].shape
        u, s, vt = svd(tensors[i].transpose(1, 0, 2).reshape(l * 2, r))
        k = min(chi, s.size)
        err += float(np.sum(s[k:] ** 2))
        tensors[i] = u[:, :k].reshape(l, 2, k).transpose(1, 0, 2)
        tensors[i + 1] = np.einsum("kr,srb->skb", s[:k, None] * vt[:k, :], tensors[i + 1])
    for i in range(n - 1, 0, -1):
        _, l, r = tensors[i].shape
        u, s, vt = svd(tensors[i].transpose(1, 0, 2).reshape(l, 2 * r))
        tensors[i] = vt.reshape(s.size, 2, r).transpose(1, 0, 2)
        tensors[i - 1] = np.einsum("slr,rk->slk", tensors[i - 1], u * s)
    tensors[0] = tensors[0] / float(np.linalg.norm(tensors[0]))
    return tensors, err


def reference_from_statevector(v, chi_max=None):
    # reference: the last-to-first sweep with the thin SVD of each whole
    # unfolding and the carry u[:, :k] * s[:k]; returns (Mps, spectra)
    n = v.size.bit_length() - 1
    tensors, spectra = [None] * n, []
    m, r_prev = v.reshape(2 ** (n - 1), 2), 1
    for i in range(n - 1, 0, -1):
        u, s, vt = svd(m)
        spectra.append(s)
        k = mps_module._kept(s, chi_max)
        tensors[i] = vt[:k].reshape(k, 2, r_prev).transpose(1, 0, 2)
        carry = u[:, :k] * s[:k]
        m, r_prev = carry.reshape(carry.shape[0] // 2, 2 * k), k
    first = m.reshape(2, 1, r_prev)
    tensors[0] = first / np.linalg.norm(first)
    top = int(np.argmax(np.abs(v)))
    bits = [(top >> (n - 1 - j)) & 1 for j in range(n)]
    if Mps(tensors).amplitude(bits) * v[top] < 0:
        tensors[0] = -tensors[0]
    return Mps(tensors, canonical="left"), spectra


def reference_gate_rank(s, chi_max):
    # reference: the gate recompression's rank rule written out on its own
    k = s.size
    if k and s[0] > 0:
        k = max(int(np.sum(s > 1e-14 * s[0])), 1)
    if chi_max is not None:
        k = min(k, int(chi_max))
    return k


def padded(v, dim):
    # canonical MPS of v whose bonds are padded to min(dim, cap) with
    # directions of zero weight, so rank-deficient states carry zero
    # singular values: the left tensor gets zero columns, the right one
    # orthonormal completion rows (padded right to left, so each right
    # tensor has room for its new rows)
    tensors = list(mps_from_statevector(v).tensors)
    n = len(tensors)
    for i in range(n - 2, -1, -1):
        d = min(dim, 2 ** (i + 1), 2 ** (n - i - 1))
        a, b = tensors[i], tensors[i + 1]
        _, l, r = b.shape
        tensors[i] = np.concatenate([a, np.zeros((2, a.shape[1], d - l))], axis=2)
        rows = complete_isometry(b.transpose(1, 0, 2).reshape(l, 2 * r).T).T[:d]
        tensors[i + 1] = rows.reshape(d, 2, r).transpose(1, 0, 2)
    return Mps(tensors, canonical="left")


def normal_amplitudes(n):
    x = -0.5 + (np.arange(2**n) + 0.5) / 2**n
    f = stats.norm.pdf(x[: 2 ** (n - 1)], 0.0, 0.1)
    p = np.concatenate([f, f[::-1]])
    p /= p.sum()
    return np.sqrt(p)


def kl(p, q):
    mask = p > 0
    return float(np.sum(p[mask] * np.log(p[mask] / np.maximum(q[mask], 1e-300))))


def ghz(n):
    v = np.zeros(2**n)
    v[0] = v[-1] = 1.0 / np.sqrt(2.0)
    return v


def test_product_state_bond_dims():
    m = mps_from_statevector(zero_state(5))
    assert m.bond_dims == [1, 1, 1, 1]
    assert np.allclose(to_statevector(m), zero_state(5), atol=1e-14)


def test_ghz_bond_dims_and_roundtrip():
    v = ghz(6)
    m = mps_from_statevector(v)
    assert m.bond_dims == [2, 2, 2, 2, 2]
    assert np.allclose(to_statevector(m), v, atol=1e-12)


def test_random_roundtrip_small():
    rng = np.random.default_rng(21)
    v = rng.standard_normal(8)
    v /= np.linalg.norm(v)
    m = mps_from_statevector(v, chi_max=4)
    assert np.max(np.abs(to_statevector(m) - v)) <= 1e-10


def test_roundtrip_up_to_12_qubits():
    rng = np.random.default_rng(22)
    for n in range(2, 13):
        v = rng.standard_normal(2**n)
        v /= np.linalg.norm(v)
        m = mps_from_statevector(v)
        assert np.max(np.abs(to_statevector(m) - v)) <= 1e-10, f"n={n}"
        assert is_left_canonical(m)


def test_canonical_identities_every_site():
    rng = np.random.default_rng(23)
    v = rng.standard_normal(2**7)
    v /= np.linalg.norm(v)
    m = mps_from_statevector(v, chi_max=3)
    for t in m.tensors:
        gram = np.einsum("slr,smr->lm", t, t)
        assert np.allclose(gram, np.eye(t.shape[1]), atol=1e-10)
    # first tensor carries the whole norm
    assert abs(np.linalg.norm(m.tensors[0]) - 1.0) <= 1e-10


def test_global_sign_fix():
    rng = np.random.default_rng(24)
    for _ in range(20):
        v = rng.standard_normal(2**5)
        v /= np.linalg.norm(v)
        m = mps_from_statevector(v)
        rec = to_statevector(m)
        top = int(np.argmax(np.abs(v)))
        assert rec[top] * np.sign(v[top]) > 0  # same sign at the dominant entry
        assert np.allclose(rec, v, atol=1e-10)


def test_is_left_canonical_detects_scaling():
    m = mps_from_statevector(ghz(4))
    assert is_left_canonical(m)
    bad = [t.copy() for t in m.tensors]
    bad[2][:, :, 0] *= 2.0
    from symprep.mps import Mps

    assert not is_left_canonical(Mps(bad))


def test_truncate_noop_and_ghz():
    m = mps_from_statevector(ghz(5))
    same, err = truncate(m, 2)
    assert err == 0.0 and same is m  # nothing to cut: the input itself
    chopped, err1 = truncate(m, 1)
    assert abs(err1 - 0.5) <= 1e-12  # one of two equal Schmidt weights dropped
    assert chopped.bond_dims == [1, 1, 1, 1]
    assert abs(np.linalg.norm(to_statevector(chopped)) - 1.0) <= 1e-12
    with pytest.raises(MpsError):
        truncate(m, 0)


@pytest.mark.parametrize("value", [True, 2.5, 2.0, "2", 0])
@pytest.mark.parametrize("call", [
    pytest.param(lambda m, v: mps_from_statevector(ghz(4), chi_max=v), id="mps_from_statevector chi_max"),
    pytest.param(lambda m, v: truncate(m, v), id="truncate chi"),
    pytest.param(lambda m, v: apply_gate_run(m, [np.eye(4)], 2, chi_max=v), id="apply_gate_run chi_max"),
    pytest.param(lambda m, v: apply_gate_run(m, [np.eye(4)], v), id="apply_gate_run top"),
])
def test_mps_counts_are_integers(call, value):
    # numerics.is_int, at least 1: no bool, float or str is read as a count
    with pytest.raises(MpsError, match="must be an integer >= 1"):
        call(mps_from_statevector(ghz(4)), value)


def test_truncate_matches_dense_oracle():
    v = normal_amplitudes(10)
    m = mps_from_statevector(v)
    m2, _ = truncate(m, 2)
    p = v**2
    got = kl(p, to_statevector(m2) ** 2)
    oracle = kl(p, dense_truncate(v, 2) ** 2)
    assert abs(oracle - ORACLE_FULL_CHI2_KL) <= 1e-12  # oracle pinned
    assert abs(got - oracle) <= 1e-9 * max(1.0, oracle)


def test_truncation_error_monotone_in_chi():
    v = normal_amplitudes(8)
    m = mps_from_statevector(v)
    errs = [truncate(m, chi)[1] for chi in range(1, 9)]
    assert all(b <= a + 1e-15 for a, b in zip(errs, errs[1:]))


def rank_deficient_inputs():
    # GHZ (Schmidt rank 2) and product (rank 1) states on padded bonds
    for n in range(4, 9):
        product = np.zeros(2**n)
        product[0b1010 << (n - 4)] = 1.0
        yield "ghz", padded(ghz(n), 4)
        yield "product", padded(product, 4)


def test_truncate_bit_identical_to_reference():
    rng = np.random.default_rng(26)
    inputs = []
    for n in range(4, 13):
        v = rng.standard_normal(2**n)
        inputs.append(mps_from_statevector(v / np.linalg.norm(v), chi_max=4))
    inputs += [m for _, m in rank_deficient_inputs()]
    for m in inputs:
        assert is_left_canonical(m) and max(m.bond_dims) == 4
        for chi in (1, 2, 3):
            out, err = truncate(m, chi)
            ref, ref_err = reference_truncate(m, chi)
            assert err == ref_err, (m, chi)
            assert all(a.tobytes() == b.tobytes() for a, b in zip(out.tensors, ref)), (m, chi)


def test_truncate_keeps_zero_singular_values_gate_runs_drop_them():
    for kind, m in rank_deficient_inputs():
        n, rank = m.n_qubits, 2 if kind == "ghz" else 1
        v = to_statevector(m)
        # truncate meets the requested bond dims: the layer extraction
        # reads its gate shapes off them
        out, err = truncate(m, 3)
        assert out.bond_dims == [min(3, d) for d in m.bond_dims]
        assert err <= 1e-30 and np.allclose(to_statevector(out), v, atol=1e-12)
        # a full run of identity gates recompresses every bond to its rank
        out, err = apply_gate_run(m, [np.eye(4)] * (n - 1), n - 1)
        assert out.bond_dims == [rank] * (n - 1) and err <= 1e-30
        assert np.allclose(to_statevector(out), v, atol=1e-12)
        assert is_left_canonical(out)


def test_rank_rule_matches_reference():
    rng = np.random.default_rng(27)
    spectra = [np.array([1.0]), np.array([1.0, 0.0, 0.0]), np.array([0.7, 0.7, 1e-15, 0.0])]
    spectra.append(np.array([1.0, 2e-14, 1.0000001e-14, 1e-14]))  # at the cutoff
    for _ in range(200):
        s = np.sort(np.abs(rng.standard_normal(int(rng.integers(1, 9)))))[::-1]
        s[int(rng.integers(1, s.size + 1)):] *= 10.0 ** -rng.integers(12, 20)
        spectra.append(s)
    for s in spectra:
        for chi in (None, 1, 2, 3):
            assert mps_module._kept(s, chi) == reference_gate_rank(s, chi), (s, chi)


def test_truncate_svd_calls(monkeypatch):
    calls = []
    real = mps_module.svd

    def counting(a):
        calls.append(1)
        return real(a)

    rng = np.random.default_rng(28)
    monkeypatch.setattr(mps_module, "svd", counting)
    for n in range(4, 13):
        v = rng.standard_normal(2**n)
        m = mps_from_statevector(v / np.linalg.norm(v), chi_max=4)
        calls.clear()
        truncate(m, 2)
        assert len(calls) == 2 * (n - 1), n


def from_statevector_cases():
    # unfoldings below and above the QR block; full-rank random states stop
    # at n=16 uncapped (at n=20 their bonds reach 1024 and cost seconds)
    rng = np.random.default_rng(29)
    for n in range(3, 21):
        v = rng.standard_normal(2**n)
        for chi in (None, 2, 4):
            yield n, normal_amplitudes(n), chi
            if chi is not None or n <= 16:
                yield n, v / np.linalg.norm(v), chi


def test_from_statevector_matches_reference(monkeypatch):
    assert 2**20 > 2 * mps_module._QR_BLOCK  # both R-factor forms are met
    spectra = []
    real = mps_module.svd

    def recording(a):
        out = real(a)
        spectra.append(out[1])
        return out

    monkeypatch.setattr(mps_module, "svd", recording)
    for n, v, chi in from_statevector_cases():
        spectra.clear()
        out = mps_from_statevector(v, chi_max=chi)
        ref, ref_spectra = reference_from_statevector(v, chi)
        case = (n, chi)
        assert len(spectra) == n - 1, case
        assert out.bond_dims == ref.bond_dims, case
        # a cut between close singular values turns rounding into a rotation
        # of the kept vectors, by up to s0 / gap times (Wedin); random states
        # under a cap meet gaps near 1e-3 * s0, and amp is 1 where no bond
        # is cut
        amp = max([1.0] + [
            r[0] / (r[k - 1] - r[k]) for r in ref_spectra
            for k in [mps_module._kept(r, chi)] if k < r.size
        ])
        for s, ref_s in zip(spectra, ref_spectra):
            assert s.shape == ref_s.shape, case
            assert np.max(np.abs(s - ref_s)) <= 1e-13 * ref_s[0] * amp, case
        got, want = to_statevector(out), to_statevector(ref)
        assert np.max(np.abs(got - want)) <= 1e-12 * amp, case
        assert is_left_canonical(out), case
        top = int(np.argmax(np.abs(v)))
        assert got[top] * v[top] > 0, case  # the sign gauge


@pytest.mark.parametrize("bad", [np.nan, np.inf, -np.inf])
def test_from_statevector_refuses_non_finite(bad):
    v = normal_amplitudes(3)
    v[5] = bad
    for w in (v, np.full(8, bad)):
        with pytest.raises(MpsError, match="norm"):
            mps_from_statevector(w)


@pytest.mark.parametrize("bad", [np.nan, np.inf, -np.inf])
def test_mps_names_the_non_finite_site(bad):
    # the chain is tested in one pass; the failing site is found after
    tensors = [t.copy() for t in mps_from_statevector(normal_amplitudes(5)).tensors]
    tensors[2][1, -1, 0] = bad
    with pytest.raises(MpsError, match="site 2 contains non-finite entries"):
        Mps(tensors, canonical="left")


@pytest.mark.parametrize(
    "tensors",
    [
        pytest.param([np.zeros(4), np.zeros(4)], id="sites not 3-d"),
        pytest.param([np.ones((2, 1, 1)), np.ones((2, 1))], id="last site not 3-d"),
        pytest.param([np.ones((2, 1, 2)), np.ones((2, 1, 1))], id="bond mismatch"),
        pytest.param([np.ones((2, 2, 1)), np.ones((2, 1, 1))], id="left boundary bond 2"),
        pytest.param([np.ones((2, 1, 1))], id="one site"),
        pytest.param([np.ones((2, 1, 0)), np.ones((2, 0, 1))], id="zero-width bond"),
        pytest.param([np.ones((2, 1, 4)), np.ones((2, 4, 1))], id="bond over its cap"),
        pytest.param([np.ones((2, 1, 2)), np.ones((2, 2, 2))], id="right boundary bond 2"),
    ],
)
def test_mps_validation(tensors):
    # each site's shape is checked before any bond is read
    with pytest.raises(MpsError):
        Mps(tensors)


def test_mps_refuses_unknown_canonical_flag():
    with pytest.raises(MpsError, match="canonical must be 'left' or 'none'"):
        Mps(mps_from_statevector(ghz(3)).tensors, canonical="right")


@pytest.mark.parametrize("bits", [[0, 0, -1], [0, 0, 2], [0, 0, True], [0, 0, 1.0], [0, "1", 0], [0, 0]])
def test_amplitude_refuses_anything_but_bits(bits):
    m = mps_from_statevector(ghz(3))
    assert abs(m.amplitude([1, 1, 1]) - 2**-0.5) <= 1e-12
    with pytest.raises(MpsError, match="each the integer 0 or 1"):
        m.amplitude(bits)


def test_apply_identity_gate():
    v = normal_amplitudes(6)
    m = mps_from_statevector(v)
    out = apply_gate_run(m, [np.eye(4)], 3)[0]
    assert np.max(np.abs(to_statevector(out) - v)) <= 1e-12


def test_apply_cnot_on_product_state():
    # |10...> with control on qubit 1 flips qubit 2
    cnot = np.eye(4)[[0, 1, 3, 2]]  # control = first wire: |c t> -> |c, t xor c>
    v = np.zeros(2**4)
    v[0b1000] = 1.0
    m = mps_from_statevector(v)
    out = apply_gate_run(m, [cnot], 1)[0]
    expect = np.zeros(2**4)
    expect[0b1100] = 1.0
    assert np.allclose(to_statevector(out), expect, atol=1e-12)
    assert out.bond_dims == [1, 1, 1]


def test_apply_gate_matches_dense_oracle():
    rng = np.random.default_rng(25)
    for _ in range(20):
        v = rng.standard_normal(2**4)
        v /= np.linalg.norm(v)
        m = mps_from_statevector(v)
        g = np.linalg.qr(rng.standard_normal((4, 4)))[0]
        site = int(rng.integers(1, 4))
        out = apply_gate_run(m, [g], site)[0]
        dense = statevec.apply_2q(v.reshape(2, 2, 2, 2), g, site - 1, site).reshape(-1)
        got = to_statevector(out)
        assert np.max(np.abs(got - dense)) <= 1e-10
        assert is_left_canonical(out)


def test_apply_gate_validation():
    m = mps_from_statevector(ghz(4))
    with pytest.raises(MpsError):
        apply_gate_run(m, [np.eye(4) * 2.0], 1)[0]  # not orthogonal
    run = np.stack([np.eye(4)[[1, 0, 3, 2]], np.eye(4), np.eye(4)[::-1]])
    apply_gate_run(m, run, 3)  # a run of orthogonal gates passes
    run[1, :, 2] *= 1.0 + 1e-6
    with pytest.raises(MpsError):
        apply_gate_run(m, run, 3)  # one skewed gate in the middle of the run
    with pytest.raises(MpsError):
        apply_gate_run(m, [np.eye(4), np.eye(2)], 2)  # ragged: a 2x2 in the run
    with pytest.raises(MpsError):
        apply_gate_run(m, [np.eye(4)], 0)[0]  # site out of range
    with pytest.raises(MpsError):
        apply_gate_run(m, [np.eye(4)], 4)[0]
    with pytest.raises(MpsError, match=r"\(k, 4, 4\) array, got shape \(2, 2, 2\)"):
        apply_gate_run(m, np.stack([np.eye(2), np.eye(2)]), 2)


def test_non_canonical_inputs_are_refused():
    m = Mps(mps_from_statevector(ghz(4)).tensors)  # flagged 'none'
    with pytest.raises(MpsError, match="truncate needs a canonical-form input"):
        truncate(m, 1)
    with pytest.raises(MpsError, match="gate application needs a canonical-form input"):
        apply_gate_run(m, [np.eye(4)], 1)


def test_to_statevector_refuses_past_the_dense_limit():
    # a product chain of 25 sites is cheap to build; the refusal comes before any contraction
    m = Mps([np.array([1.0, 0.0]).reshape(2, 1, 1)] * (DENSE_LIMIT + 1), canonical="left")
    with pytest.raises(MpsError, match=f"n={DENSE_LIMIT + 1} exceeds dense limit {DENSE_LIMIT}"):
        to_statevector(m)


def test_from_statevector_validation():
    with pytest.raises(MpsError):
        mps_from_statevector(np.ones(8))  # unnormalized
    with pytest.raises(MpsError):
        mps_from_statevector(np.ones(6) / np.sqrt(6.0))  # not a power of two
    with pytest.raises(MpsError):
        mps_from_statevector(ghz(4), chi_max=0)


def test_json_roundtrip():
    m = mps_from_statevector(normal_amplitudes(6), chi_max=3)
    m2 = mps_from_json(mps_to_json(m))
    assert m2.canonical == "left"
    assert all(np.array_equal(a, b) for a, b in zip(m.tensors, m2.tensors))


def test_json_canonical_claim_is_checked():
    m = mps_from_statevector(normal_amplitudes(6), chi_max=3)
    doc = json.loads(mps_to_json(m))
    doc["tensors"][3]["data"] = [2.0 * x for x in doc["tensors"][3]["data"]]
    with pytest.raises(MpsError):
        mps_from_json(json.dumps(doc))
    doc["canonical"] = "none"  # no claim, nothing to refuse
    assert mps_from_json(json.dumps(doc)).canonical == "none"


@pytest.mark.parametrize(
    "case", ["no tensors", "no shape", "no data", "shape mismatch", "huge data", "not an object"]
)
def test_json_malformed(case):
    doc = json.loads(mps_to_json(mps_from_statevector(ghz(4))))
    if case == "no tensors":
        del doc["tensors"]
    elif case in ("no shape", "no data"):
        del doc["tensors"][1][case[3:]]
    elif case == "shape mismatch":
        doc["tensors"][1]["shape"] = [2, 2, 1]
    elif case == "huge data":  # an integer past the float range
        doc["tensors"][1]["data"][0] = 10**400
    else:
        doc = [doc]
    with pytest.raises(MpsError):
        mps_from_json(json.dumps(doc))
