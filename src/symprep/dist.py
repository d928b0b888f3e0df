"""Discretize probability densities onto 2^n-point grids.

Supports analytic families (normal, Lorentzian, Student's t) and tables of
inline weights, plus the left-half extraction used by the reflection-symmetry
construction. Symmetric densities on symmetric grids come out bit-exactly
mirror symmetric: the pdf is evaluated once per mirrored pair and copied. A
table is symmetric when its weights equal their mirror image. Nothing here
reads or writes a file.
"""

from __future__ import annotations

import math
from dataclasses import dataclass, fields
from typing import Callable

import numpy as np

from .numerics import is_finite_number, is_int

__all__ = [
    "DistError",
    "Grid",
    "DistSpec",
    "FAMILIES",
    "TargetDistribution",
    "is_mirror_symmetric",
    "check_fits",
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
        if not (is_finite_number(self.min) and is_finite_number(self.max) and self.min < self.max):
            raise DistError(f"grid needs finite min < max, got [{self.min!r}, {self.max!r}]")
        object.__setattr__(self, "min", float(self.min))
        object.__setattr__(self, "max", float(self.max))
        if not is_int(self.n_qubits) or self.n_qubits < 2:
            raise DistError(f"grid needs an integer n_qubits >= 2, got {self.n_qubits!r}")
        if self.convention not in ("midpoint", "endpoint"):
            raise DistError(f"unknown grid convention {self.convention!r}")

    @property
    def size(self) -> int:
        return 2**self.n_qubits

    @property
    def center(self) -> float:
        return 0.5 * (self.min + self.max)

    def points(self, count: int | None = None) -> np.ndarray:
        """The first `count` sample points x_k, all 2^n_qubits by default;
        each x_k is the same float whatever the count."""
        k = np.arange(self.size if count is None else count, dtype=float)
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


# c_k = (2^(1-k) - 2) B_k / (k (k-1)) for k = 2, 4, ..., 14: Stirling's series
# of log Gamma(a + 1/2) - log Gamma(a) - log(a)/2 in powers of 1/a
_HALF_RATIO_SERIES = (-1 / 8, 1 / 192, -1 / 640, 17 / 14336, -31 / 18432, 691 / 180224, -5461 / 425984)


def _t_log_peak(nu: float) -> float:
    """log of the Student-t density at 0, log Gamma((nu+1)/2) - log Gamma(nu/2)
    - log(nu pi)/2, within 3e-15 for every nu > 0. Below nu = 20 it uses
    Gamma(nu/2) = Gamma(nu/2 + 1) / (nu/2), so no gamma value overflows;
    above, the series, whose first omitted term is under 6e-17 there. A
    difference of lgamma values would lose ulp(lgamma(nu/2)), 5e-10 at
    nu = 1e6, and overflow past nu ~ 1e305."""
    a = 0.5 * nu
    if nu < 20.0:
        ratio = math.gamma(a + 0.5) / math.gamma(a + 1.0)
        return math.log(ratio) + 0.5 * (math.log(nu) - math.log(4 * math.pi))
    s = 1.0 / (a * a)
    tail = 0.0
    for c in reversed(_HALF_RATIO_SERIES):
        tail = tail * s + c
    return tail / a - 0.5 * math.log(2 * math.pi)


# Closed forms in the operation order of the tests' reference densities: the
# normal and Lorentzian values are bit-identical to theirs, Student-t's agree
# to ~1e-15 relative (tests/test_dist.py).
def _normal_pdf(s, x):
    sd = math.sqrt(s.sigma2)
    y = (x - s.mu) / sd
    return np.exp(-y**2 / 2.0) / math.sqrt(2 * math.pi) / sd


def _lorentzian_pdf(s, x):
    y = (x - s.x0) / s.gamma
    return 1.0 / math.pi / (1.0 + y * y) / s.gamma


def _student_t_pdf(s, x):
    return np.exp(_t_log_peak(s.nu) - (s.nu + 1) / 2 * np.log1p(x * x / s.nu))


FAMILIES = {
    "normal": Family({"mu": 0.0, "sigma2": 1.0}, "sigma2", _normal_pdf,
                     lambda s: s.mu, lambda s: math.sqrt(s.sigma2)),
    "lorentzian": Family({"x0": 0.0, "gamma": 1.0}, "gamma", _lorentzian_pdf,
                         lambda s: s.x0, lambda s: s.gamma),
    "student_t": Family({"nu": 1.0}, "nu", _student_t_pdf,
                        lambda s: 0.0, lambda s: 1.0),  # unit scale, whatever nu
    "table": Family({"weights": ()}),
}


def _param(kind: str, name: str, value):
    # the family default's type decides the value's type; numbers are kept as floats
    if isinstance(FAMILIES[kind].params[name], float):
        if is_finite_number(value):
            return float(value)
        want = "a finite number"
    else:  # a table's weights
        if isinstance(value, (list, tuple)) and all(is_finite_number(x) for x in value):
            return tuple(float(x) for x in value)
        want = "a list of finite numbers"
    raise DistError(f"{kind} {name} must be {want}, got {value!r}")


@dataclass(frozen=True)
class DistSpec:
    """Density family plus parameters.

    kind: normal(mu, sigma2) | lorentzian(x0, gamma) | student_t(nu) |
    table(weights). Parameters left unset take the family's defaults; a
    parameter of another family is an error. A value must have its
    default's type; numbers must be finite. Table weights must be
    non-negative with a positive finite sum.
    """

    kind: str
    mu: float | None = None
    sigma2: float | None = None
    x0: float | None = None
    gamma: float | None = None
    nu: float | None = None
    weights: tuple | None = None

    def __post_init__(self):
        fam = FAMILIES.get(self.kind) if isinstance(self.kind, str) else None
        if fam is None:
            raise DistError(f"unknown distribution kind {self.kind!r}")
        for f in fields(self)[1:]:
            value = getattr(self, f.name)
            if f.name in fam.params:
                value = fam.params[f.name] if value is None else _param(self.kind, f.name, value)
                object.__setattr__(self, f.name, value)
            elif value is not None:
                raise DistError(f"{self.kind} has no parameter {f.name!r}")
        if fam.positive and not getattr(self, fam.positive) > 0:
            raise DistError(f"{self.kind} needs {fam.positive} > 0, got {getattr(self, fam.positive)}")
        if self.kind == "table" and (min(self.weights, default=0.0) < 0 or not 0 < sum(self.weights) < math.inf):
            raise DistError("table weights must be non-negative with a positive finite sum")

    def pdf(self, x: np.ndarray) -> np.ndarray:
        fam = FAMILIES[self.kind]
        if fam.pdf is None:
            raise DistError("table specs have no analytic pdf")
        # far tails of a narrow density overflow to inf and land on 0, and a
        # peak past the float range is inf, which sample_pdf refuses
        with np.errstate(over="ignore"):
            return fam.pdf(self, x)


def is_mirror_symmetric(spec: DistSpec, grid: Grid) -> bool:
    """True when the sampled p has p[k] == p[2^n-1-k] exactly: an analytic
    density centered on the grid center (sampled once per mirrored pair), or
    a table whose weights equal their mirror image."""
    center = FAMILIES[spec.kind].center
    if center is None:
        return spec.weights == spec.weights[::-1]
    return abs(center(spec) - grid.center) <= 1e-12 * (grid.max - grid.min)


def check_fits(spec: DistSpec, grid: Grid) -> None:
    """Raise DistError unless the spec can be sampled on the grid: a table
    needs one weight per grid point."""
    if spec.kind == "table" and len(spec.weights) != grid.size:
        raise DistError(f"table has {len(spec.weights)} weights, grid needs {grid.size}")


@dataclass(frozen=True)
class TargetDistribution:
    """Probability vector p of length 2^n on a grid; sum(p) == 1 bit-exact."""

    grid: Grid
    p: np.ndarray

    def __post_init__(self):
        p = np.asarray(self.p, dtype=float)
        if p.shape != (self.grid.size,):
            raise DistError(
                f"p has shape {p.shape}, grid needs ({self.grid.size},)"
            )
        if np.any(p < 0) or not np.all(np.isfinite(p)):
            raise DistError("probabilities must be finite and non-negative")
        if not abs(float(p.sum()) - 1.0) <= 1e-12:
            raise DistError(f"probabilities sum to {p.sum():.17g}, not 1")
        object.__setattr__(self, "p", p)


def _exact_normalize(w: np.ndarray, symmetric: bool) -> np.ndarray:
    total = float(w.sum())
    if total <= 0 or not np.isfinite(total):
        raise DistError("weights must have a positive finite sum")
    p = w / total
    n = p.size
    if symmetric:
        # Residual split over the largest mirrored pair (of equals, the one
        # nearest the center) keeps both the sum and the mirror symmetry
        # p[k] == p[n-1-k] bit-exact, and cannot push a zero pair negative.
        j = n // 2 - 1 - int(np.argmax(p[n // 2 - 1 :: -1]))
        rest = float(np.sum(np.delete(p, [j, n - 1 - j])))
        p[j] = p[n - 1 - j] = 0.5 * (1.0 - rest)
    else:
        rest = float(p[:-1].sum())
        if rest <= 1.0:
            p[-1] = 1.0 - rest
        else:
            # rounding took the rest past 1, so the last entry (maybe a zero
            # weight) cannot take the residual: the largest entry does
            j = int(np.argmax(p))
            p[j] = 1.0 - float(np.sum(np.delete(p, j)))
    return p


def sample_pdf(spec: DistSpec, grid: Grid) -> TargetDistribution:
    """Evaluate the spec's density on the grid and normalize to sum 1.

    Symmetric analytic specs centered on the grid center are evaluated once
    per mirrored pair and copied, so p[k] == p[2^n-1-k] holds bit-exactly.
    Table weights are normalized as given.
    """
    check_fits(spec, grid)
    n = grid.size
    sym = is_mirror_symmetric(spec, grid)
    if spec.kind == "table":
        w = np.array(spec.weights)
    elif sym:
        f_left = spec.pdf(grid.points(n // 2))
        w = np.concatenate([f_left, f_left[::-1]])
    else:
        w = spec.pdf(grid.points())
    if not np.all(np.isfinite(w)) or np.any(w < 0):
        raise DistError(f"{spec.kind} weights on the grid must be finite and non-negative")
    if not np.any(w > 0):
        raise DistError(f"{spec.kind} weights are zero on every grid point")
    return TargetDistribution(grid, _exact_normalize(w, sym))


def left_half(t: TargetDistribution) -> TargetDistribution:
    """First 2^{n-1} entries renormalized to sum 1, on the (n-1)-qubit grid
    whose points are the parent grid's first 2^{n-1}: [min, center] for the
    midpoint convention, [min, x_{2^{n-1}-1}] for the endpoint one."""
    n = t.grid.n_qubits
    if n < 3:
        raise DistError(f"left_half needs n_qubits >= 3, got {n}")
    half = t.grid.size // 2
    w = t.p[:half].copy()
    if not np.any(w > 0):
        raise DistError("left half of the distribution is zero everywhere")
    g = t.grid
    top = g.center if g.convention == "midpoint" else g.min + (half - 1) * (g.max - g.min) / (g.size - 1)
    sub = Grid(g.min, top, n - 1, g.convention)
    return TargetDistribution(sub, _exact_normalize(w, False))


def amplitudes(t: TargetDistribution) -> np.ndarray:
    """Real non-negative amplitude vector a with a_k = sqrt(p_k), unit norm."""
    a = np.sqrt(t.p)
    nrm = float(np.linalg.norm(a))
    return a / nrm
