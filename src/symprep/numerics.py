"""Dense linear algebra helpers.

`svd` is LAPACK's thin SVD on a checked real matrix; its singular-vector
signs are LAPACK's, deterministic per build. `complete_isometry` extends
orthonormal columns, or a stack of them, to orthogonal matrices with the
trailing columns of one full SVD, writing the supplied columns back
bit-identically. No sign or determinant is fixed here: the one gauge rule
lives in `disentangler._chain_gates`. `is_int`, `is_finite_number` and
`is_real_array` are the one value rules; `real_array` is the array doors' use
of the last.
"""

from __future__ import annotations

import sys

import numpy as np

__all__ = [
    "NumericsError",
    "svd",
    "complete_isometry",
    "is_orthonormal",
    "is_int",
    "is_finite_number",
    "is_real_array",
    "real_array",
]


class NumericsError(ValueError):
    """Raised on invalid inputs to the numeric kernels."""


def svd(a) -> tuple[np.ndarray, np.ndarray, np.ndarray]:
    """Thin SVD (u, s, vt) of a finite 2-d real matrix: u (m, k) with
    orthonormal columns, s (k,) non-negative and non-increasing, vt (k, n)
    with orthonormal rows.

    Reconstruction u @ diag(s) @ vt equals the input within 1e-12 of its
    norm.
    """
    m = np.asarray(a, dtype=float)
    if m.ndim != 2:
        raise NumericsError(f"expected a 2-d real matrix, got shape {m.shape}")
    if not np.isfinite(m).all():  # first: LAPACK never returns on some ±inf input
        raise NumericsError("matrix contains non-finite entries")
    return np.linalg.svd(m, full_matrices=False)


def is_orthonormal(a) -> bool:
    """True iff the real (d, k) a, or each of a stack (..., d, k), is finite and every entry of
    its a.T @ a is within 1e-10 of the identity's, an absolute bound with no relative slack."""
    a = np.asarray(a, dtype=float)
    if not np.isfinite(a).all():
        return False
    gram = a.swapaxes(-1, -2) @ a
    k = a.shape[-1]
    gram.reshape(gram.shape[:-2] + (k * k,))[..., :: k + 1] -= 1.0  # the diagonal, in place
    return bool(np.abs(gram).max(initial=0.0) <= 1e-10)


def is_int(v) -> bool:
    """True iff v is an int and not a bool."""
    return isinstance(v, int) and not isinstance(v, bool)


def is_finite_number(v) -> bool:
    """True iff v is an int or float, not a bool, with |v| <= the largest float."""
    return isinstance(v, (int, float)) and not isinstance(v, bool) and abs(v) <= sys.float_info.max


def is_real_array(a) -> bool:
    """True iff a is a numpy array of integer or float dtype: not bool, complex, string or object."""
    return isinstance(a, np.ndarray) and a.dtype.kind in "iuf"


def real_array(a, error: type[ValueError], name: str) -> np.ndarray:
    """np.asarray(a) as floats, or `error` naming `name` when that is not `is_real_array`: a float
    conversion would read a complex entry as its real part, and True or "0.5" as a number."""
    arr = np.asarray(a)
    if not is_real_array(arr):
        raise error(f"{name} entries must be real numbers, got dtype {arr.dtype}")
    return arr.astype(float, copy=False)


def complete_isometry(v) -> np.ndarray:
    """Extend orthonormal columns (d, k), or a stack (..., d, k) of them, to
    (d, d) orthogonal matrices whose first k columns are the input, bit-identical.

    The added columns are the trailing left singular vectors of the input
    (one full LAPACK SVD each), so the completion is deterministic. Input
    columns must be finite and orthonormal within 1e-10.
    """
    m = np.asarray(v, dtype=float)
    if m.ndim < 2:
        raise NumericsError(f"expected a real matrix or stack of matrices, got shape {m.shape}")
    d, k = m.shape[-2:]
    if k > d:
        raise NumericsError(f"cannot complete {d}x{k}: more columns than rows")
    if not is_orthonormal(m):
        raise NumericsError("input columns are not orthonormal within 1e-10")
    u = np.linalg.svd(m)[0]  # full u: its last d-k columns span the complement
    u[..., :k] = m  # keep supplied columns bit-identical
    return u
