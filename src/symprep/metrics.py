"""Comparison metrics: KL divergence, classical fidelity, and the
Meyer-Wallach multi-qubit entanglement measure."""

from __future__ import annotations

from dataclasses import dataclass

import numpy as np

from .circuit import GateStats
from .mps import DENSE_LIMIT

__all__ = [
    "MetricsError",
    "MetricsReport",
    "kl_divergence",
    "classical_fidelity",
    "meyer_wallach_direct",
    "meyer_wallach_purity",
]

# q entries are clamped here before the log so exact zeros in the prepared
# state surface as a large-but-finite divergence instead of a crash
_KL_CLAMP = 1e-300

_DIRECT_LIMIT = 12  # direct evaluation cost is quadratic in dimension


class MetricsError(ValueError):
    """Raised on invalid metric inputs."""


@dataclass(frozen=True)
class MetricsReport:
    kl_divergence: float
    classical_fidelity: float
    meyer_wallach_q: float
    truncation_error: float
    residual_infidelity: float
    gate_stats: GateStats


def _prob_vector(p, name: str) -> np.ndarray:
    v = np.asarray(p, dtype=float)
    if v.ndim != 1:
        raise MetricsError(f"{name} must be a vector")
    if np.any(v < 0) or not np.all(np.isfinite(v)):
        raise MetricsError(f"{name} must be finite and non-negative")
    if abs(float(v.sum()) - 1.0) > 1e-9:
        raise MetricsError(f"{name} sums to {v.sum():.12g}, not 1 within 1e-9")
    return v


def kl_divergence(p, q) -> float:
    """sum over k with p_k > 0 of p_k * ln(p_k / q_k), natural log."""
    pv = _prob_vector(p, "p")
    qv = _prob_vector(q, "q")
    if pv.size != qv.size:
        raise MetricsError(f"length mismatch: {pv.size} vs {qv.size}")
    mask = pv > 0
    qc = np.maximum(qv[mask], _KL_CLAMP)
    return float(np.sum(pv[mask] * np.log(pv[mask] / qc)))


def classical_fidelity(p, q) -> float:
    """Squared Bhattacharyya overlap (sum sqrt(p_k q_k))^2, clamped to [0,1]."""
    pv = _prob_vector(p, "p")
    qv = _prob_vector(q, "q")
    if pv.size != qv.size:
        raise MetricsError(f"length mismatch: {pv.size} vs {qv.size}")
    f = float(np.sum(np.sqrt(pv * qv)) ** 2)
    return min(1.0, max(0.0, f))


def _check_state(v, limit: int) -> tuple[np.ndarray, int]:
    v = np.asarray(v, dtype=float).ravel()
    n = int(v.size).bit_length() - 1
    if 2**n != v.size or n < 1:
        raise MetricsError(f"length {v.size} is not a power of two >= 2")
    if n > limit:
        raise MetricsError(f"n={n} exceeds limit {limit} for this evaluation")
    if abs(float(np.linalg.norm(v)) - 1.0) > 1e-10:
        raise MetricsError("statevector is not normalized within 1e-10")
    return v, n


def _delete_qubit(v: np.ndarray, n: int, j: int, bit: int) -> np.ndarray:
    # keep components whose j-th bit (qubit 0 = most significant) equals bit
    t = v.reshape([2] * n)
    return np.take(t, bit, axis=j).ravel()


def meyer_wallach_direct(v) -> float:
    """Q = (4/n) * sum_j D(u_j, w_j) where u_j, w_j are the two qubit-j
    slices of the state and D is the pairwise wedge sum
    D(u, w) = sum_{x<y} (u_x w_y - u_y w_x)^2."""
    v, n = _check_state(v, _DIRECT_LIMIT)
    total = 0.0
    for j in range(n):
        u = _delete_qubit(v, n, j, 0)
        w = _delete_qubit(v, n, j, 1)
        wedge = np.outer(u, w) - np.outer(w, u)
        total += 0.5 * float(np.sum(wedge * wedge))
    return 4.0 * total / n


def meyer_wallach_purity(v) -> float:
    """Same measure via single-qubit marginal purities:
    Q = 2 * (1 - (1/n) * sum_j Tr rho_j^2). Agrees with the direct
    evaluation to 1e-10 and costs O(n * 2^n)."""
    v, n = _check_state(v, DENSE_LIMIT)
    acc = 0.0
    for j in range(n):
        t = np.moveaxis(v.reshape([2] * n), j, 0).reshape(2, -1)
        rho = t @ t.T
        acc += float(np.sum(rho * rho))
    return 2.0 * (1.0 - acc / n)
