"""Dense linear algebra helpers.

`svd` is LAPACK's thin SVD on a checked real matrix; its singular-vector
signs are LAPACK's, deterministic per build. `complete_isometry` extends
orthonormal columns to an orthogonal matrix with the trailing columns of
one full SVD, writing the supplied columns back bit-identically.
No sign or determinant is fixed here: the one gauge rule lives in
`disentangler._chain_gate`. `is_int` and `is_finite_number` are the one
value rules.
"""

from __future__ import annotations

import sys
from typing import NamedTuple

import numpy as np

__all__ = [
    "NumericsError",
    "SvdResult",
    "svd",
    "complete_isometry",
    "is_orthonormal",
    "is_int",
    "is_finite_number",
]


class NumericsError(ValueError):
    """Raised on invalid inputs to the numeric kernels."""


class SvdResult(NamedTuple):
    """u: (m, k) with orthonormal columns; s: (k,) non-negative,
    non-increasing; vt: (k, n) with orthonormal rows."""

    u: np.ndarray
    s: np.ndarray
    vt: np.ndarray


def _as_matrix(a) -> np.ndarray:
    m = np.asarray(a, dtype=float)
    if m.ndim != 2:
        raise NumericsError(f"expected a 2-d real matrix, got shape {m.shape}")
    if not np.all(np.isfinite(m)):
        raise NumericsError("matrix contains non-finite entries")
    return m


def svd(a) -> SvdResult:
    """Thin SVD of a finite 2-d real matrix.

    Reconstruction u @ diag(s) @ vt equals the input within 1e-12 of its
    norm; s is non-increasing.
    """
    return SvdResult(*np.linalg.svd(_as_matrix(a), full_matrices=False))


def is_orthonormal(a) -> bool:
    """True iff every entry of a.T @ a is within 1e-10 of the identity's, an
    absolute bound with no relative slack: the 2-d real a has orthonormal columns."""
    a = np.asarray(a, dtype=float)
    gram = a.T @ a
    gram.flat[:: gram.shape[0] + 1] -= 1.0
    return bool(np.abs(gram).max(initial=0.0) <= 1e-10)


def is_int(v) -> bool:
    """True iff v is an int and not a bool."""
    return isinstance(v, int) and not isinstance(v, bool)


def is_finite_number(v) -> bool:
    """True iff v is an int or float, not a bool, with |v| <= the largest float."""
    return isinstance(v, (int, float)) and not isinstance(v, bool) and abs(v) <= sys.float_info.max


def complete_isometry(v) -> np.ndarray:
    """Extend a (d, k) matrix with orthonormal columns to a (d, d) orthogonal
    matrix whose first k columns are the input, bit-identical.

    The added columns are the trailing left singular vectors of the input
    (one full LAPACK SVD), so the completion is deterministic. Input
    columns must be orthonormal within 1e-10.
    """
    m = _as_matrix(v)
    d, k = m.shape
    if k > d:
        raise NumericsError(f"cannot complete {d}x{k}: more columns than rows")
    if not is_orthonormal(m):
        raise NumericsError("input columns are not orthonormal within 1e-10")
    u = np.linalg.svd(m)[0]  # full u: its last d-k columns span the complement
    u[:, :k] = m  # keep supplied columns bit-identical
    return u
