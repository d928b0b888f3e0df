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

from .numerics import is_finite_number, is_int, real_array

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
        try:  # points() forms (k + 1/2)(max - min), up to (max - min) 2^n, before it divides by 2^n
            wide = math.ldexp(self.max - self.min, self.n_qubits)
        except OverflowError:
            wide = math.inf
        if not is_finite_number(wide):
            raise DistError(f"grid span {self.max - self.min!r} times 2^n_qubits is past the float range")
        if self.convention not in ("midpoint", "endpoint"):
            raise DistError(f"unknown grid convention {self.convention!r}")

    @property
    def size(self) -> int:
        return 2**self.n_qubits

    @property
    def center(self) -> float:
        return 0.5 * (self.min + self.max)

    def points(self, count: int | None = None) -> np.ndarray:
        """The first `count` sample points x_k, an integer 0 <= count <=
        2^n_qubits, all of them by default; each x_k is the same float
        whatever the count. One array is allocated and the formula above
        runs on it in place, left to right: (k + 1/2), times (max - min),
        over 2^n, plus min (midpoint), or k times (max - min), over 2^n - 1,
        plus min (endpoint)."""
        if count is None:
            count = self.size
        elif not (is_int(count) and 0 <= count <= self.size):
            raise DistError(f"a grid of {self.size} points has no first {count!r}")
        x = np.arange(count, dtype=float)
        if self.convention == "midpoint":
            x += 0.5
            x *= self.max - self.min
            x /= self.size
        else:
            x *= self.max - self.min
            x /= self.size - 1
        x += self.min
        return x


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
# to ~1e-15 relative (tests/test_dist.py). Each allocates its result once and
# works on it in place; the comments give the out-of-place order they keep.
def _normal_pdf(s, x):
    # exp(-((x - mu) / sd)**2 / 2) / sqrt(2 pi) / sd
    sd = math.sqrt(s.sigma2)
    y = x - s.mu
    y /= sd
    y *= y
    y *= -0.5  # -(y*y) / 2, exactly: both are the one rounding of -y*y/2
    np.exp(y, out=y)
    y /= math.sqrt(2 * math.pi)
    y /= sd
    return y


def _lorentzian_pdf(s, x):
    # 1 / pi / (1 + ((x - x0) / gamma)**2) / gamma
    y = x - s.x0
    y /= s.gamma
    y *= y
    y += 1.0
    np.divide(1.0 / math.pi, y, out=y)
    y /= s.gamma
    return y


def _student_t_pdf(s, x):
    # exp(log_peak - (nu + 1) / 2 * log1p(x * x / nu))
    y = x * x
    y /= s.nu
    np.log1p(y, out=y)
    y *= (s.nu + 1) / 2
    np.subtract(_t_log_peak(s.nu), y, out=y)
    np.exp(y, out=y)
    return y


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
        """The density at each point of the float array x, as a new array;
        x is left as it is."""
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
        p = real_array(self.p, DistError, "p")
        if p.shape != (self.grid.size,):
            raise DistError(
                f"p has shape {p.shape}, grid needs ({self.grid.size},)"
            )
        # two passes: the min fails on NaN, -inf and negatives, the sum on +inf
        total = float(p.sum())
        if not p.min() >= 0 or (total == math.inf and not np.all(np.isfinite(p))):
            raise DistError("probabilities must be finite and non-negative")
        if not abs(total - 1.0) <= 1e-12:
            raise DistError(f"probabilities sum to {total:.17g}, not 1")
        object.__setattr__(self, "p", p)


def _sum_without(p: np.ndarray, idx: list) -> float:
    # float(np.sum(np.delete(p, idx))) for ascending idx, without the copy: the
    # kept entries slide left over the removed ones into one contiguous run,
    # summed in np.delete's order, and slide back (a 1-d slice assignment
    # copies overlapping entries as memmove does, with no temporary)
    saved = p[idx]
    ends = [*idx, p.size]
    for i in range(len(idx)):
        p[ends[i] - i : ends[i + 1] - i - 1] = p[ends[i] + 1 : ends[i + 1]]
    total = float(p[: p.size - len(idx)].sum())
    for i in reversed(range(len(idx))):
        p[ends[i] + 1 : ends[i + 1]] = p[ends[i] - i : ends[i + 1] - i - 1]
    p[idx] = saved
    return total


def _exact_normalize(p: np.ndarray, symmetric: bool) -> np.ndarray:
    """The weights p divided in place by their sum, then one residual written
    so that the float sum is 1 bit-exactly; returns p itself. The rest of the
    sum is taken over the other entries in index order, as one contiguous
    run, with no copy of p."""
    total = float(p.sum())
    if total <= 0 or not np.isfinite(total):
        raise DistError("weights must have a positive finite sum")
    p /= total
    n = p.size
    if symmetric:
        # Residual split over the largest mirrored pair (of equals, the one
        # nearest the center) keeps both the sum and the mirror symmetry
        # p[k] == p[n-1-k] bit-exact, and cannot push a zero pair negative.
        # The right half is the left half reversed, bit for bit, and is
        # contiguous, so argmax reads it without a copy.
        j = n // 2 - 1 - int(np.argmax(p[n // 2 :]))
        p[j] = p[n - 1 - j] = 0.5 * (1.0 - _sum_without(p, [j, n - 1 - j]))
    else:
        rest = float(p[:-1].sum())
        if rest <= 1.0:
            p[-1] = 1.0 - rest
        else:
            # rounding took the rest past 1, so the last entry (maybe a zero
            # weight) cannot take the residual: the largest entry does
            j = int(np.argmax(p))
            p[j] = 1.0 - _sum_without(p, [j])
    return p


def sample_pdf(spec: DistSpec, grid: Grid) -> TargetDistribution:
    """Evaluate the spec's density on the grid and normalize to sum 1.

    Symmetric analytic specs centered on the grid center are evaluated once
    per mirrored pair, checked on that half, and copied into the one 2^n
    array, so p[k] == p[2^n-1-k] holds bit-exactly. Table weights are
    normalized as given.
    """
    check_fits(spec, grid)
    n = grid.size
    sym = is_mirror_symmetric(spec, grid)
    if spec.kind == "table":
        w = f = np.array(spec.weights)
    elif sym:
        f = spec.pdf(grid.points(n // 2))
        w = np.empty(n)
        w[: n // 2] = f
        w[n // 2 :] = f[::-1]
    else:
        w = f = spec.pdf(grid.points())
    # two passes over the evaluated weights f: the min fails on NaN, -inf
    # and negatives, the max on +inf
    top = f.max()
    if not (f.min() >= 0 and top < math.inf):
        raise DistError(f"{spec.kind} weights on the grid must be finite and non-negative")
    if not top > 0:
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
    if not w.max() > 0:
        raise DistError("left half of the distribution is zero everywhere")
    g = t.grid
    top = g.center if g.convention == "midpoint" else g.min + (half - 1) * (g.max - g.min) / (g.size - 1)
    sub = Grid(g.min, top, n - 1, g.convention)
    return TargetDistribution(sub, _exact_normalize(w, False))


def amplitudes(t: TargetDistribution) -> np.ndarray:
    """Real non-negative amplitude vector a with a_k = sqrt(p_k), unit norm."""
    a = np.sqrt(t.p)
    a /= float(np.linalg.norm(a))
    return a
