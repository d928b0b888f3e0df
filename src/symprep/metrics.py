"""Comparison metrics: KL divergence, classical fidelity, and the
Meyer-Wallach multi-qubit entanglement measure.

A mirror-symmetric run's target and prepared state are exactly mirror
symmetric, v[k] == v[2^n-1-k] for every k: the target is evaluated on its
left half and mirrored, and the wrapper writes one amplitude to x and to its
bitwise complement. When every input of a metric is exactly symmetric, read
off the data itself, the metric is scored on the first half: KL is twice the
half's sum, the fidelity (2 sum_half sqrt(p q))^2, and Meyer-Wallach's Q
follows from the half's closed form. Any other input is scored in full.
"""

from __future__ import annotations

import numpy as np

from .numerics import real_array

__all__ = [
    "MetricsError",
    "kl_divergence",
    "classical_fidelity",
    "meyer_wallach_purity",
]

# q entries are clamped here before the log so exact zeros in the prepared
# state surface as a large-but-finite divergence instead of a crash
_KL_CLAMP = 1e-300


class MetricsError(ValueError):
    """Raised on invalid metric inputs."""


def _prob_vector(p, name: str) -> np.ndarray:
    v = real_array(p, MetricsError, name)
    if v.ndim != 1:
        raise MetricsError(f"{name} must be a vector")
    # two passes: the min fails on NaN, -inf and negatives, the sum on +inf
    total = float(v.sum())
    if not v.min(initial=0.0) >= 0 or (total == np.inf and not np.all(np.isfinite(v))):
        raise MetricsError(f"{name} must be finite and non-negative")
    if abs(total - 1.0) > 1e-9:
        raise MetricsError(f"{name} sums to {total:.12g}, not 1 within 1e-9")
    return v


def _mirror_half(v: np.ndarray) -> np.ndarray | None:
    # v's first half when v[k] == v[-1-k] for every k, else None; the end
    # pairs are tested first, so an asymmetric vector rarely costs a pass
    h = v.size // 2
    if v.size % 2 or v[0] != v[-1] or v[h - 1] != v[h]:
        return None
    return v[:h] if np.array_equal(v[:h], v[::-1][:h]) else None


def _prob_pair(p, q) -> tuple[np.ndarray, np.ndarray, float]:
    # (p, q, weight): both halves and weight 2 when both are mirror symmetric
    pv = _prob_vector(p, "p")
    qv = _prob_vector(q, "q")
    if pv.size != qv.size:
        raise MetricsError(f"length mismatch: {pv.size} vs {qv.size}")
    # q first: a baseline run's state is not symmetric, and its end-pair
    # test says so before a full compare pass over a symmetric target p
    qh = _mirror_half(qv)
    ph = _mirror_half(pv) if qh is not None else None
    return (pv, qv, 1.0) if ph is None else (ph, qh, 2.0)


def kl_divergence(p, q) -> float:
    """sum over k with p_k > 0 of p_k * ln(p_k / q_k), natural log."""
    pv, qv, w = _prob_pair(p, q)
    if pv.min() <= 0:
        mask = pv > 0
        pv, qv = pv[mask], qv[mask]
    # sum(p * log(p / max(q, clamp))) through one buffer, in that order
    t = np.maximum(qv, _KL_CLAMP)
    np.divide(pv, t, out=t)
    np.log(t, out=t)
    t *= pv
    return w * float(np.sum(t))


def classical_fidelity(p, q) -> float:
    """Squared Bhattacharyya overlap (sum sqrt(p_k q_k))^2, clamped to [0,1]."""
    pv, qv, w = _prob_pair(p, q)
    t = pv * qv
    np.sqrt(t, out=t)
    f = float((w * np.sum(t)) ** 2)
    return min(1.0, max(0.0, f))


def _slice_dot(t: np.ndarray, a: int, b: int) -> float:
    # <t[:, a], t[:, b]> over a (2^j, 2, rest) view, without a copy
    return float(np.einsum("ij,ij->", t[:, a], t[:, b]))


def meyer_wallach_purity(v) -> float:
    """Meyer-Wallach Q via single-qubit marginal purities (Brennen's form):
    Q = 2 * (1 - (1/n) * sum_j Tr rho_j^2). Agrees to 1e-10 with Q's
    pairwise-wedge definition, whose cost is quadratic in 2^n, and costs
    O(n * 2^n).

    Qubit j's rho_j = [[p0, c], [c, p1]] comes from the two slices of the
    state's (2^j, 2, rest) view: c as their dot product, p1 = |v|^2 - p0,
    and every qubit's p0 from one halving fold of v * v, whose first half
    after j halvings sums to qubit j's p0.
    A mirror-symmetric v = [b, b reversed] is scored on its half b, where
    |b|^2 = 1/2: qubit 0 has Tr rho_0^2 = 1/2 + 2 (b . b reversed)^2, and
    qubit j >= 1 averages b's qubit j-1 with its bit flip, so Tr rho_j^2 =
    1/2 + 8 c^2 with c the off-diagonal element of b's qubit j-1.
    """
    v = real_array(v, MetricsError, "statevector").ravel()
    n = int(v.size).bit_length() - 1
    if 2**n != v.size or n < 1:
        raise MetricsError(f"length {v.size} is not a power of two >= 2")
    if not abs(float(np.linalg.norm(v)) - 1.0) <= 1e-10:  # NaN fails too
        raise MetricsError("statevector is not normalized within 1e-10")
    b = _mirror_half(v)
    if b is not None:
        cs = [_slice_dot(b.reshape(2**j, 2, -1), 0, 1) for j in range(n - 1)]
        acc = 0.5 + 2.0 * float(b @ b[::-1]) ** 2 + sum(0.5 + 8.0 * c * c for c in cs)
    else:
        norm2 = float(v @ v)
        acc = 0.0
        s = v * v  # folded in place: after j halvings, the populations of qubits j..n-1
        for j in range(n):
            h = s.size // 2
            p0, c = float(s[:h].sum()), _slice_dot(v.reshape(2**j, 2, -1), 0, 1)
            s = np.add(s[:h], s[h:], out=s[:h])
            acc += p0 * p0 + (norm2 - p0) ** 2 + 2.0 * c * c
    return 2.0 * (1.0 - acc / n)
