"""Matrix-product-state representation of real statevectors.

Site tensors use the index layout (physical s, left bond a, right bond b)
with explicit size-1 boundary bonds. The canonical form used throughout is
the one the gate extraction needs: contracting any site tensor with itself
over (physical, right bond) gives the identity on the left bond, and the
whole norm sits in the first tensor (Frobenius norm 1). It is produced by a
truncating sweep from the last site to the first that takes each tall
unfolding's singular values and right vectors from the R factors of its row
blocks, so the tall left factor is never formed.
"""

from __future__ import annotations

import json

import numpy as np

from .numerics import is_int, is_orthonormal, svd

__all__ = [
    "MpsError",
    "DENSE_LIMIT",
    "Mps",
    "mps_from_statevector",
    "truncate",
    "apply_gate_run",
    "is_left_canonical",
    "mps_to_json",
]

# Dense reconstruction limit: 2^24 doubles = 128 MiB.
DENSE_LIMIT = 24

# Singular values below this fraction of the largest are dropped when a
# state is factorised or a gate recompressed (numerical-zero rank control).
# truncate() keeps them so requested bond dims are met exactly: the layer
# extraction reads its gate shapes off those bond dims.
_RANK_CUTOFF = 1e-14

# Taller unfoldings are cut to the stacked R factors of row blocks this tall
# (one batched QR on cache-sized blocks; s and vt are kept). 512 timed
# fastest, by about 5%, on the n=19 and n=20 encodes over 256 to 4096.
_QR_BLOCK = 512

FORMAT_VERSION = 1


class MpsError(ValueError):
    """Raised on invalid MPS inputs or contract violations."""


class Mps:
    """Immutable chain of site tensors; do not mutate after construction.

    tensors: list of arrays with shape (2, left_dim, right_dim)
    canonical: 'left' if the canonical identities hold, else 'none'
    """

    __slots__ = ("tensors", "canonical")

    def __init__(self, tensors, canonical: str = "none"):
        if canonical not in ("left", "none"):
            raise MpsError(f"canonical must be 'left' or 'none', got {canonical!r}")
        tensors = [np.asarray(t, dtype=float) for t in tensors]
        n = len(tensors)
        if n < 2:
            raise MpsError(f"need at least 2 sites, got {n}")
        for i, t in enumerate(tensors):
            if t.ndim != 3 or t.shape[0] != 2:
                raise MpsError(f"site {i} has shape {t.shape}, need (2, l, r)")
            if i and t.shape[1] != tensors[i - 1].shape[2]:
                raise MpsError(f"bond mismatch between sites {i - 1} and {i}")
            cap = min(2 ** (i + 1), 2 ** (n - i - 1))  # 1 at the last site
            if not 1 <= t.shape[2] <= cap:
                raise MpsError(f"bond {i} has dim {t.shape[2]}, need 1..{cap}")
        if tensors[0].shape[1] != 1:  # the last site's right bond has cap 1
            raise MpsError("the left boundary bond must have dimension 1")
        if not np.isfinite(np.concatenate([t.ravel() for t in tensors])).all():  # one pass
            bad = next(i for i, t in enumerate(tensors) if not np.isfinite(t).all())
            raise MpsError(f"site {bad} contains non-finite entries")
        self.tensors = tensors
        self.canonical = canonical

    @property
    def n_qubits(self) -> int:
        return len(self.tensors)

    @property
    def bond_dims(self):
        return [t.shape[2] for t in self.tensors[:-1]]

    def amplitude(self, bits) -> float:
        """Amplitude of the basis state given as n bits, each the integer 0
        or 1, O(n * chi^2)."""
        if len(bits) != self.n_qubits or not all(is_int(b) and b in (0, 1) for b in bits):
            raise MpsError(f"need {self.n_qubits} bits, each the integer 0 or 1, got {bits!r}")
        return _amplitude(self.tensors, bits)

    def __repr__(self):
        return f"Mps(n={self.n_qubits}, bond_dims={self.bond_dims}, canonical={self.canonical!r})"


def _amplitude(tensors, bits) -> float:
    v = tensors[0][bits[0], 0, :]
    for t, b in zip(tensors[1:], bits[1:]):
        v = v @ t[b]
    return float(v[0])


def _check_count(name: str, v) -> None:
    # bond caps and site numbers follow numerics.is_int, and are at least 1
    if not (is_int(v) and v >= 1):
        raise MpsError(f"{name} must be an integer >= 1, got {v!r}")


def _kept(s: np.ndarray, chi: int | None = None) -> int:
    # The rank rule: how many singular values survive, at least one.
    k = int(np.count_nonzero(s > _RANK_CUTOFF * s[0])) or 1
    return k if chi is None else min(k, chi)


def mps_from_statevector(v, chi_max: int | None = None) -> Mps:
    """Decompose a normalized real statevector into canonical form.

    Sweeps from the last site to the first, truncating each bond at chi_max;
    the state is renormalized once at the end. An unfolding m taller than
    _QR_BLOCK rows is replaced by the stacked R's of its blocks, which have
    the same s and vt; the carry m @ vt[:k].T equals u[:, :k] * s[:k], so
    no 2^n left factor is built. The global sign gauge keeps the amplitude
    at the input's largest-|entry| index on the input's sign.
    """
    v = np.asarray(v, dtype=float).ravel()
    size = v.size
    n = int(size).bit_length() - 1
    if 2**n != size or n < 2:
        raise MpsError(f"length {size} is not a power of two >= 4")
    nrm = float(np.linalg.norm(v))
    if not abs(nrm - 1.0) <= 1e-10:  # NaN fails too
        raise MpsError(f"statevector norm is {nrm:.12g}, need 1 within 1e-10")
    if chi_max is not None:
        _check_count("chi_max", chi_max)

    tensors: list = [None] * n
    m = v.reshape(2 ** (n - 1), 2)
    r_prev = 1
    for i in range(n - 1, 0, -1):
        r = m
        if m.shape[0] > _QR_BLOCK:
            r = np.linalg.qr(m.reshape(-1, _QR_BLOCK, 2 * r_prev), mode="r").reshape(-1, 2 * r_prev)
        _, s, vt = svd(r)
        k = _kept(s, chi_max)
        tensors[i] = vt[:k].reshape(k, 2, r_prev).transpose(1, 0, 2)
        carry = m @ vt[:k].T
        m = carry.reshape(carry.shape[0] // 2, 2 * k)
        r_prev = k
    tensors[0] = m.reshape(2, 1, r_prev)
    _renormalize_first(tensors)
    # sign gauge: the dominant amplitude must keep the input's sign even
    # after heavy truncation
    top = int(np.argmax(np.abs(v)))
    if _amplitude(tensors, [(top >> (n - 1 - j)) & 1 for j in range(n)]) * v[top] < 0:
        tensors[0] = -tensors[0]
    return Mps(tensors, canonical="left")


def is_left_canonical(m: Mps) -> bool:
    """True iff every site tensor contracted over (physical, right bond) gives
    the identity on its left bond: numerics.is_orthonormal of each tensor as
    a (physical * right, left) matrix."""
    return all(is_orthonormal(t.transpose(0, 2, 1).reshape(-1, t.shape[1])) for t in m.tensors)


def _sweep_right(tensors, upto: int, chi: int | None = None) -> float:
    # Move the norm center from site 0 to site `upto` (exclusive end of the
    # left-orthonormal region), cutting each bond to at most chi (None:
    # exact). In place; returns the discarded weight.
    err = 0.0
    for i in range(upto):
        _, l, r = tensors[i].shape
        u, s, vt = svd(tensors[i].transpose(1, 0, 2).reshape(l * 2, r))
        k = s.size if chi is None else min(chi, s.size)
        if k < s.size:
            err += float(np.sum(s[k:] ** 2))
            u, s, vt = u[:, :k], s[:k], vt[:k]
        tensors[i] = u.reshape(l, 2, k).transpose(1, 0, 2)
        tensors[i + 1] = np.einsum("kr,srb->skb", s[:, None] * vt, tensors[i + 1])
    return err


def _sweep_left_exact(tensors, start: int) -> None:
    # Restore canonical form from site `start` down to site 0, which then
    # absorbs the norm, renormalized to 1. In place.
    for i in range(start, 0, -1):
        _, l, r = tensors[i].shape
        u, s, vt = svd(tensors[i].transpose(1, 0, 2).reshape(l, 2 * r))
        tensors[i] = vt.reshape(s.size, 2, r).transpose(1, 0, 2)
        tensors[i - 1] = np.einsum("slr,rk->slk", tensors[i - 1], u * s)
    _renormalize_first(tensors)


def _renormalize_first(tensors) -> None:
    fn = float(np.linalg.norm(tensors[0]))
    if fn <= 0:
        raise MpsError("state collapsed to zero norm")  # pragma: no cover
    tensors[0] = tensors[0] / fn


def truncate(m: Mps, chi: int):
    """Truncate every bond to at most chi.

    Returns (truncated Mps in canonical form, accumulated discarded weight).
    Truncating to at least the current max bond dim returns the input
    itself with error 0.
    """
    _check_count("chi", chi)
    if m.canonical != "left":
        raise MpsError("truncate needs a canonical-form input")
    if chi >= max(m.bond_dims):
        return m, 0.0

    tensors = list(m.tensors)
    err = _sweep_right(tensors, len(tensors) - 1, chi)
    _sweep_left_exact(tensors, len(tensors) - 1)
    return Mps(tensors, canonical="left"), err


def apply_gate_run(m: Mps, gates, top: int, chi_max: int | None = None):
    """Apply orthogonal 4x4 gates (a (k, 4, 4) array) to the descending qubit
    pairs (top, top+1), (top-1, top), ... in one pass; returns (new Mps, discarded weight).

    Sites are 1-based; the lower qubit is the more significant bit of each
    4x4 gate index. One exact sweep moves the norm center to site top; each
    gate then costs one SVD whose singular values go into the left factor,
    so the center follows the gates down the chain (mixed-canonical form)
    and every bond is recompressed to chi_max with the center on it. The
    discarded weight sums each gate's dropped squared singular values, the
    state being renormalized after each gate.
    """
    try:
        gates = np.asarray(gates, dtype=float)
    except ValueError as e:  # ragged or non-numeric gates
        raise MpsError(f"gates must be a (k, 4, 4) array: {e}") from None
    if gates.ndim != 3 or gates.shape[1:] != (4, 4):
        raise MpsError(f"gates must be a (k, 4, 4) array, got shape {gates.shape}")
    if not is_orthonormal(gates):
        raise MpsError("gate is not orthogonal within 1e-10")
    _check_count("top", top)
    if chi_max is not None:
        _check_count("chi_max", chi_max)
    n = m.n_qubits
    bottom = top - len(gates) + 1
    if not 1 <= bottom <= top <= n - 1:
        raise MpsError(f"gates must act on sites within [1, {n - 1}], got {bottom}..{top}")
    if m.canonical != "left":
        raise MpsError("gate application needs a canonical-form input")
    tensors = list(m.tensors)
    _sweep_right(tensors, top - 1)
    err = 0.0
    for i, g in zip(range(top - 1, bottom - 2, -1), gates):
        theta = np.einsum("sab,tbc->stac", tensors[i], tensors[i + 1])
        theta = np.einsum("uvst,stac->uvac", g.reshape(2, 2, 2, 2), theta)
        l, r = theta.shape[2], theta.shape[3]
        u, s, vt = svd(theta.transpose(2, 0, 1, 3).reshape(l * 2, 2 * r))
        k = _kept(s, chi_max)
        if k < s.size:  # keep the state normalized for the next gate
            err += float(np.sum(s[k:] ** 2))
            u, s, vt = u[:, :k], s[:k] / np.linalg.norm(s[:k]), vt[:k]
        tensors[i] = (u * s).reshape(l, 2, k).transpose(1, 0, 2)
        tensors[i + 1] = vt.reshape(k, 2, r).transpose(1, 0, 2)
    _sweep_left_exact(tensors, bottom - 1)
    return Mps(tensors, canonical="left"), err


def mps_to_json(m: Mps) -> str:
    """Serialize shape descriptors plus row-major tensor entries."""
    doc = {
        "format_version": FORMAT_VERSION,
        "n_qubits": m.n_qubits,
        "canonical": m.canonical,
        "tensors": [
            {"shape": list(t.shape), "data": [float(x) for x in t.ravel()]}
            for t in m.tensors
        ],
    }
    return json.dumps(doc, indent=2)
