"""Discretize probability densities onto 2^n-point grids.

Supports analytic families (normal, Lorentzian, Student's t) and tabulated
weights, plus the left-half extraction used by the reflection-symmetry
construction. Symmetric densities on symmetric grids come out bit-exactly
mirror symmetric: the pdf is evaluated once per mirrored pair and copied.
"""

from __future__ import annotations

import csv
import math
import os
from dataclasses import dataclass, fields
from typing import Callable

import numpy as np
from scipy import stats

__all__ = [
    "DistError",
    "Grid",
    "DistSpec",
    "FAMILIES",
    "TargetDistribution",
    "is_mirror_symmetric",
    "sample_pdf",
    "left_half",
    "amplitudes",
]

class DistError(ValueError):
    """Raised on invalid distribution specs, grids, or degenerate targets."""


@dataclass(frozen=True)
class Grid:
    """2^n_qubits sample points on [min, max].

    midpoint convention: x_k = min + (k + 1/2) * (max - min) / 2^n
    endpoint convention: x_k = min + k * (max - min) / (2^n - 1)

    Both satisfy x_k + x_{2^n-1-k} = min + max, so mirror pairing about the
    interval center is exact either way.
    """

    min: float
    max: float
    n_qubits: int
    convention: str = "midpoint"

    def __post_init__(self):
        if not self.min < self.max:
            raise DistError(f"grid needs min < max, got [{self.min}, {self.max}]")
        if self.n_qubits < 2:
            raise DistError(f"grid needs n_qubits >= 2, got {self.n_qubits}")
        if self.convention not in ("midpoint", "endpoint"):
            raise DistError(f"unknown grid convention {self.convention!r}")

    @property
    def size(self) -> int:
        return 2**self.n_qubits

    @property
    def center(self) -> float:
        return 0.5 * (self.min + self.max)

    def points(self) -> np.ndarray:
        k = np.arange(self.size, dtype=float)
        if self.convention == "midpoint":
            return self.min + (k + 0.5) * (self.max - self.min) / self.size
        return self.min + k * (self.max - self.min) / (self.size - 1)


@dataclass(frozen=True)
class Family:
    """One distribution kind: its parameters with defaults, the parameter
    that must be positive, its pdf(spec, x), its center of even symmetry
    and the scale unit of its default grid. Tables have neither pdf, center
    nor scale."""

    params: dict
    positive: str | None = None
    pdf: Callable | None = None
    center: Callable | None = None
    scale: Callable | None = None


FAMILIES = {
    "normal": Family({"mu": 0.0, "sigma2": 1.0}, "sigma2",
                     lambda s, x: stats.norm.pdf(x, loc=s.mu, scale=math.sqrt(s.sigma2)),
                     lambda s: s.mu, lambda s: math.sqrt(s.sigma2)),
    "lorentzian": Family({"x0": 0.0, "gamma": 1.0}, "gamma",
                         lambda s, x: stats.cauchy.pdf(x, loc=s.x0, scale=s.gamma),
                         lambda s: s.x0, lambda s: s.gamma),
    "student_t": Family({"nu": 1.0}, "nu",
                        lambda s, x: stats.t.pdf(x, df=s.nu),
                        lambda s: 0.0, lambda s: s.nu),
    "table": Family({"path": None, "weights": (), "assume_symmetric": False}),
}


@dataclass(frozen=True)
class DistSpec:
    """Density family plus parameters.

    kind: normal(mu, sigma2) | lorentzian(x0, gamma) | student_t(nu) |
    table(path or weights, assume_symmetric). Parameters left unset take
    the family's defaults; a parameter of another family is an error.
    """

    kind: str
    mu: float | None = None
    sigma2: float | None = None
    x0: float | None = None
    gamma: float | None = None
    nu: float | None = None
    path: str | None = None
    weights: tuple | None = None
    assume_symmetric: bool | None = None

    def __post_init__(self):
        fam = FAMILIES.get(self.kind)
        if fam is None:
            raise DistError(f"unknown distribution kind {self.kind!r}")
        for f in fields(self)[1:]:
            value = getattr(self, f.name)
            if f.name in fam.params:
                if value is None:
                    object.__setattr__(self, f.name, fam.params[f.name])
            elif value is not None:
                raise DistError(f"{self.kind} has no parameter {f.name!r}")
        if fam.positive and not getattr(self, fam.positive) > 0:
            raise DistError(f"{self.kind} needs {fam.positive} > 0, got {getattr(self, fam.positive)}")
        if self.kind == "table" and self.path is None and not self.weights:
            raise DistError("table spec needs a path or inline weights")

    def pdf(self, x: np.ndarray) -> np.ndarray:
        fam = FAMILIES[self.kind]
        if fam.pdf is None:
            raise DistError("table specs have no analytic pdf")
        return fam.pdf(self, x)


def is_mirror_symmetric(spec: DistSpec, grid: Grid) -> bool:
    """True when p[k] == p[2^n-1-k] by construction: an analytic density
    centered on the grid center, or a table flagged assume_symmetric."""
    center = FAMILIES[spec.kind].center
    if center is None:
        return bool(spec.assume_symmetric)
    return abs(center(spec) - grid.center) <= 1e-12 * (grid.max - grid.min)


@dataclass(frozen=True)
class TargetDistribution:
    """Probability vector p of length 2^n on a grid; sum(p) == 1 bit-exact."""

    grid: Grid
    p: np.ndarray
    symmetric: bool = False

    def __post_init__(self):
        p = np.asarray(self.p, dtype=float)
        if p.shape != (self.grid.size,):
            raise DistError(
                f"p has shape {p.shape}, grid needs ({self.grid.size},)"
            )
        if np.any(p < 0) or not np.all(np.isfinite(p)):
            raise DistError("probabilities must be finite and non-negative")
        if abs(float(p.sum()) - 1.0) > 1e-12:
            raise DistError(f"probabilities sum to {p.sum():.17g}, not 1")
        object.__setattr__(self, "p", p)


def _read_table(path: str) -> np.ndarray:
    if not os.path.exists(path):
        raise DistError(f"table file not found: {path}")
    vals = []
    with open(path, newline="") as fh:
        for row in csv.reader(fh):
            if not row or not row[0].strip():
                continue
            cell = row[0].strip()
            if cell.lower() == "weight":  # optional header
                continue
            try:
                vals.append(float(cell))
            except ValueError as exc:
                raise DistError(f"bad table entry {cell!r} in {path}") from exc
    return np.asarray(vals, dtype=float)


def _exact_normalize(w: np.ndarray, symmetric: bool) -> np.ndarray:
    total = float(w.sum())
    if total <= 0 or not np.isfinite(total):
        raise DistError("weights must have a positive finite sum")
    p = w / total
    n = p.size
    if symmetric:
        # Residual split over the two center elements keeps both the sum
        # and the mirror symmetry p[k] == p[n-1-k] bit-exact.
        half = n // 2
        rest = float(np.sum(np.delete(p, [half - 1, half])))
        center = 0.5 * (1.0 - rest)
        p[half - 1] = center
        p[half] = center
    else:
        p[-1] = 1.0 - float(p[:-1].sum())
        if p[-1] < 0:
            # rounding can push the adjusted element barely negative
            p[-1] = 0.0
            p /= p.sum()
            p[-1] = 1.0 - float(p[:-1].sum())
    return p


def sample_pdf(spec: DistSpec, grid: Grid) -> TargetDistribution:
    """Evaluate the spec's density on the grid and normalize to sum 1.

    Symmetric analytic specs centered on the grid center are evaluated once
    per mirrored pair and copied, so p[k] == p[2^n-1-k] holds bit-exactly.
    """
    n = grid.size
    if spec.kind == "table":
        w = np.array(spec.weights, dtype=float) if spec.weights else _read_table(spec.path)
        if w.shape != (n,):
            raise DistError(
                f"table has {w.size} weights, grid needs {n}"
            )
        if np.any(w < 0) or not np.all(np.isfinite(w)):
            raise DistError("table weights must be finite and non-negative")
        if not np.any(w > 0):
            raise DistError("table weights are all zero")
        sym = is_mirror_symmetric(spec, grid)
        if sym:
            scale = float(np.max(w))
            if np.max(np.abs(w - w[::-1])) > 1e-12 * scale:
                raise DistError(
                    "assume_symmetric set but table is not mirror symmetric"
                )
            w = 0.5 * (w + w[::-1])  # make the pairing bit-exact
        return TargetDistribution(grid, _exact_normalize(w, sym), symmetric=sym)

    x = grid.points()
    sym = is_mirror_symmetric(spec, grid)
    if sym:
        half = n // 2
        f_left = spec.pdf(x[:half])
        w = np.empty(n, dtype=float)
        w[:half] = f_left
        w[half:] = f_left[::-1]
    else:
        w = spec.pdf(x)
    if not np.all(np.isfinite(w)) or np.any(w < 0):
        raise DistError("density evaluated non-finite or negative on the grid")
    if not np.any(w > 0):
        raise DistError("density is zero on every grid point")
    return TargetDistribution(grid, _exact_normalize(w, sym), symmetric=sym)


def left_half(t: TargetDistribution) -> TargetDistribution:
    """First 2^{n-1} entries renormalized to sum 1, on an (n-1)-qubit grid
    covering [min, center]."""
    n = t.grid.n_qubits
    if n < 3:
        raise DistError(f"left_half needs n_qubits >= 3, got {n}")
    half = t.grid.size // 2
    w = t.p[:half].copy()
    if not np.any(w > 0):
        raise DistError("left half of the distribution is zero everywhere")
    sub = Grid(t.grid.min, t.grid.center, n - 1, t.grid.convention)
    return TargetDistribution(sub, _exact_normalize(w, False), symmetric=False)


def amplitudes(t: TargetDistribution) -> np.ndarray:
    """Real non-negative amplitude vector a with a_k = sqrt(p_k), unit norm."""
    a = np.sqrt(t.p)
    nrm = float(np.linalg.norm(a))
    return a / nrm
