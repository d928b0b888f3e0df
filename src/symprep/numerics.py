"""Deterministic dense linear algebra helpers.

Everything downstream (tensor decompositions, gate extraction, isometry
completion) needs SVDs with a fixed sign convention and orthogonal
completions that keep the supplied columns bit-identical. numpy's SVD is
deterministic per platform but leaves singular-vector signs arbitrary; the
helpers here pin them. `is_int` and `is_finite_number` are the one value rules.
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

# Columns with norm below this are treated as numerically zero during
# orthogonal completion.
_ZERO_COL_TOL = 1e-8


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


def _fix_signs(u: np.ndarray, vt: np.ndarray) -> None:
    # Sign convention: the largest-magnitude entry of each left singular
    # vector is made positive (ties broken by lowest row index). In-place.
    if not u.size:  # argmax has no answer over an empty row axis
        return
    ut = u.T  # columns of u as rows: |u.T| in C order spares argmax a copy
    top = np.abs(ut, order="C").argmax(axis=1)
    flip = u[top, np.arange(u.shape[1])] < 0
    ut[flip] = -ut[flip]
    vt[flip] = -vt[flip]


def svd(a) -> SvdResult:
    """Full SVD with deterministic singular-vector signs.

    Reconstruction u @ diag(s) @ vt equals the input within 1e-12 of its
    norm; s is non-increasing.
    """
    m = _as_matrix(a)
    u, s, vt = np.linalg.svd(m, full_matrices=False)
    _fix_signs(u, vt)
    return SvdResult(u, s, vt)


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

    The added columns come from Gram-Schmidt against the canonical basis in
    index order, so the completion is deterministic. Input columns must be
    orthonormal within 1e-10.
    """
    m = _as_matrix(v)
    d, k = m.shape
    if k > d:
        raise NumericsError(f"cannot complete {d}x{k}: more columns than rows")
    if not is_orthonormal(m):
        raise NumericsError("input columns are not orthonormal within 1e-10")
    cols = [m[:, j] for j in range(k)]
    for b in range(d):
        if len(cols) == d:
            break
        cand = np.zeros(d)
        cand[b] = 1.0
        # two rounds of Gram-Schmidt for numerical orthogonality
        for _ in range(2):
            for c in cols:
                cand = cand - np.dot(c, cand) * c
        nrm = np.linalg.norm(cand)
        if nrm < _ZERO_COL_TOL:
            continue
        cols.append(cand / nrm)
    if len(cols) != d:
        raise NumericsError("orthogonal completion failed")  # pragma: no cover
    out = np.column_stack(cols)
    out[:, :k] = m  # keep supplied columns bit-identical
    return out
