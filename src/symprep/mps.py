"""Matrix-product-state representation of real statevectors.

Site tensors use the index layout (physical s, left bond a, right bond b)
with explicit size-1 boundary bonds. The canonical form used throughout is
the one the gate extraction needs: contracting any site tensor with itself
over (physical, right bond) gives the identity on the left bond, and the
whole norm sits in the first tensor (Frobenius norm 1). It is produced by an
exact sweep from the last site to the first that never forms a tall left
factor. While the unfolding is tall and narrow the sweep takes a group of
sites at once: the group's row sites move into the columns, one batched QR
of that matrix's row blocks reads it once, and the group's cuts run on the
small R factor, which has the same Gram, while one GEMM carries the state
to the next group. `truncate` is the one bond-dimension cut of a state.
"""

from __future__ import annotations

import json

import numpy as np

from .numerics import is_int, is_orthonormal, real_array, svd

__all__ = [
    "MpsError",
    "Mps",
    "mps_from_statevector",
    "truncate",
    "apply_gate_run",
    "is_left_canonical",
    "mps_to_json",
]

# Singular values below this fraction of the largest are dropped when a
# state is factorised or a gate recompressed (numerical-zero rank control).
# truncate() keeps them so requested bond dims are met exactly: the layer
# extraction reads its gate shapes off those bond dims.
_RANK_CUTOFF = 1e-14

# Taller unfoldings are cut to the stacked R factors of row blocks this tall
# (one batched QR on cache-sized blocks; s and vt are kept). 512 timed
# fastest, by about 5%, on the n=19 and n=20 encodes over 256 to 4096.
_QR_BLOCK = 512
# A tall unfolding takes row sites into its columns up to this width, so one
# QR pass serves a group of sites. 12 timed fastest on the n=19 and n=20
# encodes, against 8, 16 and 32: a blocked QR's cost grows with its width.
_GROUP_COLS = 12

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
        tensors = [real_array(t, MpsError, f"site {i}") for i, t in enumerate(tensors)]
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
        v = self.tensors[0][bits[0], 0, :]
        for t, b in zip(self.tensors[1:], bits[1:]):
            v = v @ t[b]
        return float(v[0])

    def __repr__(self):
        return f"Mps(n={self.n_qubits}, bond_dims={self.bond_dims}, canonical={self.canonical!r})"


def _check_count(name: str, v) -> None:
    # bond caps and site numbers follow numerics.is_int, and are at least 1
    if not (is_int(v) and v >= 1):
        raise MpsError(f"{name} must be an integer >= 1, got {v!r}")


def _kept(s: np.ndarray, chi: int | None = None) -> int:
    # The rank rule: how many singular values survive, at least one.
    k = int(np.count_nonzero(s > _RANK_CUTOFF * s[0])) or 1
    return k if chi is None else min(k, chi)


def _row_factor(m: np.ndarray) -> np.ndarray:
    # m, or when taller than _QR_BLOCK the stacked R factors of its row
    # blocks: the same m.T @ m, so the same s and vt
    if m.shape[0] <= _QR_BLOCK:
        return m
    return np.linalg.qr(m.reshape(-1, _QR_BLOCK, m.shape[1]), mode="r").reshape(-1, m.shape[1])


def mps_from_statevector(v) -> Mps:
    """Decompose a normalized real statevector exactly into canonical form.

    Sweeps from the last site to the first, keeping every singular value
    the rank rule keeps; the state is renormalized once at the end, and it
    rebuilds v, sign included, to rounding. While the unfolding m (2^i rows)
    has rows for _QR_BLOCK-row blocks to spare, the next g - 1 row sites
    join its columns, up to _GROUP_COLS: big = m.reshape(2^(i-g+1), -1). At
    each of the group's g cuts the unfolding's Gram is a partial trace of
    big.T @ big, so the same loop body (SVD, rank rule, tensor, carry) run
    on y, the R factor of big's stacked block R's (y.T @ y = big.T @ big),
    gives each cut's exact s and vt; the g maps applied to the identity give
    x, and big @ x is the carry. A site that forms no group (g = 1) runs the
    loop body on m itself: the SVD of its blocks' stacked R's (m when it
    fits one block) and the carry m @ vt[:k].T, equal to u[:, :k] * s[:k],
    so no 2^n left factor is built.
    """
    v = real_array(v, MpsError, "statevector").ravel()
    size = v.size
    n = int(size).bit_length() - 1
    if 2**n != size or n < 2:
        raise MpsError(f"length {size} is not a power of two >= 4")
    nrm = float(np.linalg.norm(v))
    if not abs(nrm - 1.0) <= 1e-10:  # NaN fails too
        raise MpsError(f"statevector norm is {nrm:.12g}, need 1 within 1e-10")

    tensors: list = [None] * n
    m = v.reshape(2 ** (n - 1), 2)
    i = n - 1
    while i > 0:
        # a group of g sites: the g - 1 row sites above site i move into the
        # columns while those stay within _GROUP_COLS and the rows fill a block
        c, g = m.shape[1], 1
        while c << g <= _GROUP_COLS and m.shape[0] >> g >= _QR_BLOCK:
            g += 1
        big = m.reshape(-1, c << (g - 1))
        w, x = big, None
        if g > 1:  # the group's cuts see big only through big.T @ big
            w = np.linalg.qr(_row_factor(big), mode="r")
            x = np.eye(big.shape[1])
        for _ in range(g):
            w = w.reshape(-1, c)
            _, s, vt = svd(_row_factor(w))
            k = _kept(s)
            tensors[i] = vt[:k].reshape(k, 2, c // 2).transpose(1, 0, 2)
            w = w @ vt[:k].T
            if x is not None:
                x = x.reshape(-1, c) @ vt[:k].T
            c, i = 2 * k, i - 1
        m = (w if x is None else big @ x).reshape(-1, c)
    tensors[0] = m.reshape(2, 1, c // 2)
    _renormalize_first(tensors)
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
