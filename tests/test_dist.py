"""Grid conventions, density sampling, and left-half extraction."""

import math

import numpy as np
import pytest
from scipy import stats  # the densities' oracle; symprep itself needs only numpy

from symprep.dist import (
    DistError,
    DistSpec,
    Grid,
    TargetDistribution,
    amplitudes,
    is_mirror_symmetric,
    left_half,
    sample_pdf,
)


def test_grid_point_formulas():
    g = Grid(-0.5, 0.5, 3, "midpoint")
    k = np.arange(8)
    assert np.allclose(g.points(), -0.5 + (k + 0.5) / 8, atol=1e-15)
    e = Grid(-0.5, 0.5, 3, "endpoint")
    assert np.allclose(e.points(), -0.5 + k / 7, atol=1e-15)


@pytest.mark.parametrize("convention", ["midpoint", "endpoint"])
def test_grid_first_points_are_the_full_grids_bit_for_bit(convention):
    g = Grid(-2.0, 3.0, 9, convention)
    for count in (0, 1, 7, 256, 511, 512):
        assert g.points(count).tobytes() == g.points()[:count].tobytes()


def test_grid_mirror_pairing_both_conventions():
    for conv in ("midpoint", "endpoint"):
        g = Grid(-2.0, 3.0, 5, conv)
        x = g.points()
        assert np.allclose(x + x[::-1], g.min + g.max, atol=1e-12)


def test_grid_validation():
    with pytest.raises(DistError):
        Grid(1.0, 1.0, 4)
    with pytest.raises(DistError):
        Grid(0.0, 1.0, 1)
    with pytest.raises(DistError):
        Grid(0.0, 1.0, 4, "other")
    for lo, hi in ((0.0, np.inf), (-np.inf, 0.0), (np.nan, 1.0), (0.0, np.nan)):
        with pytest.raises(DistError):
            Grid(lo, hi, 4)


def test_sample_pdf_normal_symmetric_bit_exact():
    spec, grid = DistSpec("normal", mu=0.0, sigma2=0.01), Grid(-0.5, 0.5, 10)
    assert is_mirror_symmetric(spec, grid)
    t = sample_pdf(spec, grid)
    assert t.p[511] == t.p[512]
    assert np.array_equal(t.p, t.p[::-1])  # mirrored pairs copied, bit-exact
    assert abs(t.p.sum() - 1.0) <= 1e-12
    assert np.all(t.p >= 0)


def test_sample_pdf_lorentzian_heavier_tails():
    g = Grid(-5.0, 5.0, 10)
    lor = sample_pdf(DistSpec("lorentzian", x0=0.0, gamma=1.0), g)
    nor = sample_pdf(DistSpec("normal", mu=0.0, sigma2=1.0), g)
    x = g.points()
    tail = int(np.argmin(np.abs(x - 4.0)))
    center = int(np.argmin(np.abs(x)))
    assert lor.p[tail] / lor.p[center] > nor.p[tail] / nor.p[center]


def test_sample_pdf_offcenter_normal_not_symmetric():
    spec, grid = DistSpec("normal", mu=0.3, sigma2=0.01), Grid(-0.5, 0.5, 6)
    assert not is_mirror_symmetric(spec, grid)
    t = sample_pdf(spec, grid)
    assert abs(t.p.sum() - 1.0) <= 1e-12


def test_table_point_mass():
    w = [0.0] * 16
    w[4] = 2.5  # single nonzero entry
    t = sample_pdf(DistSpec("table", weights=w), Grid(0.0, 1.0, 4))
    expect = np.zeros(16)
    expect[4] = 1.0
    assert np.array_equal(t.p, expect)


def test_table_row_count_and_negatives():
    with pytest.raises(DistError, match="grid needs 16"):
        sample_pdf(DistSpec("table", weights=(1.0, 2.0)), Grid(0.0, 1.0, 4))
    with pytest.raises(DistError, match="non-negative"):
        DistSpec("table", weights=(1.0,) * 15 + (-0.5,))
    with pytest.raises(DistError, match="positive finite sum"):
        DistSpec("table", weights=(0.0,) * 16)


def test_table_symmetry_read_off_weights():
    grid = Grid(0.0, 1.0, 3)
    mirrored = DistSpec("table", weights=(1.0, 2.0, 3.0, 4.0, 4.0, 3.0, 2.0, 1.0))
    assert is_mirror_symmetric(mirrored, grid)
    t = sample_pdf(mirrored, grid)
    assert np.array_equal(t.p, t.p[::-1])
    # one weight off: not symmetric, and sampled as given (no averaging)
    w = (1.0, 2.0, 3.0, 4.0, 9.0, 3.0, 2.0, 1.0)
    off = DistSpec("table", weights=w)
    assert not is_mirror_symmetric(off, grid)
    assert np.allclose(sample_pdf(off, grid).p, np.array(w) / sum(w), rtol=1e-15, atol=0)


def test_table_symmetric_zero_center_pair():
    # the normalisation residual must not land on a zero centre pair, where
    # rounding would leave it slightly negative and the table be refused
    half = [0.641771001269369, 0.5822868192737389, 0.08126313318700795, 0.0]
    t = sample_pdf(DistSpec("table", weights=half + half[::-1]), Grid(0.0, 1.0, 3))
    assert np.all(t.p >= 0) and np.array_equal(t.p, t.p[::-1])
    assert t.p[3] == t.p[4] == 0.0
    assert float(t.p.sum()) == 1.0


@pytest.mark.parametrize("spec, grid", [
    (DistSpec("table", weights=(0.1, 0.3, 0.7, 0.2, 0.0, 0.0, 0.0, 0.0)), Grid(-1.0, 1.0, 3)),
    (DistSpec("normal", mu=-0.4, sigma2=1e-3), Grid(-0.5, 0.5, 10)),
], ids=["table-zero-tail", "normal-off-centre"])
def test_asymmetric_residual_on_an_entry_that_absorbs_it(spec, grid):
    # the weights but the last sum past 1 after rounding; the residual used
    # to land on the last entry and leave it negative, refusing the density
    t = sample_pdf(spec, grid)
    assert np.all(t.p >= 0)
    assert abs(float(t.p.sum()) - 1.0) <= 1e-12
    w = np.array(spec.weights) if spec.kind == "table" else spec.pdf(grid.points())
    assert np.max(np.abs(t.p - w / w.sum())) <= 1e-15


def test_left_half_monotone_normal():
    t = sample_pdf(DistSpec("normal", mu=0.0, sigma2=0.01), Grid(-0.5, 0.5, 10))
    h = left_half(t)
    assert h.p.size == 512
    assert h.grid.n_qubits == 9
    assert h.grid.min == -0.5 and h.grid.max == 0.0
    assert abs(h.p.sum() - 1.0) <= 1e-12
    assert np.all(np.diff(h.p) > 0)  # strictly rising toward the mean


@pytest.mark.parametrize("convention", ["midpoint", "endpoint"])
def test_left_half_subgrid_matches_parent_points(convention):
    # the half's grid points are the parent's first half: for the endpoint
    # convention they end at x_{2^(n-1)-1}, not at the centre (at n=4 on
    # [-1, 1] the half steps by 2/15 and ends at -1/15, not 0)
    for n in (3, 4, 6, 9):
        t = sample_pdf(DistSpec("normal", mu=0.0, sigma2=0.04), Grid(-1.0, 1.0, n, convention))
        h = left_half(t)
        assert h.grid.convention == convention and h.grid.n_qubits == n - 1
        assert np.max(np.abs(h.grid.points() - t.grid.points()[: 2 ** (n - 1)])) <= 1e-15


def test_left_half_mirror_reconstruction():
    t = sample_pdf(DistSpec("normal", mu=0.0, sigma2=0.01), Grid(-0.5, 0.5, 8))
    h = left_half(t)
    rebuilt = np.concatenate([h.p, h.p[::-1]]) / 2.0
    assert np.allclose(rebuilt, t.p, atol=1e-12)


def test_left_half_point_mass_and_degenerate():
    w = np.zeros(16)
    w[0] = 1.0
    t = sample_pdf(DistSpec("table", weights=tuple(w)), Grid(0.0, 1.0, 4))
    h = left_half(t)
    assert h.p[0] == 1.0 and h.p.sum() == 1.0
    w2 = np.zeros(16)
    w2[12] = 1.0
    t2 = sample_pdf(DistSpec("table", weights=tuple(w2)), Grid(0.0, 1.0, 4))
    with pytest.raises(DistError):
        left_half(t2)  # left half carries no mass


def test_amplitudes():
    t = sample_pdf(DistSpec("table", weights=(1.0, 1.0, 1.0, 1.0)), Grid(0.0, 1.0, 2))
    a = amplitudes(t)
    assert np.allclose(a, 0.5, atol=1e-15)
    t2 = sample_pdf(DistSpec("normal", mu=0.0, sigma2=0.01), Grid(-0.5, 0.5, 10))
    a2 = amplitudes(t2)
    assert abs(np.linalg.norm(a2) - 1.0) <= 1e-12
    assert np.all(a2 >= 0)


def test_spec_validation():
    with pytest.raises(DistError):
        DistSpec("normal", sigma2=0.0)
    with pytest.raises(DistError):
        DistSpec("lorentzian", gamma=-1.0)
    with pytest.raises(DistError):
        DistSpec("student_t", nu=0.0)
    with pytest.raises(DistError):
        DistSpec("gauss")
    with pytest.raises(DistError):  # no weights sum to zero
        DistSpec("table")
    with pytest.raises(DistError):  # the sum must be finite
        DistSpec("table", weights=(1e308, 1e308))
    with pytest.raises(DistError, match="normal has no parameter 'nu'"):
        DistSpec("normal", nu=3.0)
    with pytest.raises(DistError, match="table specs have no analytic pdf"):
        DistSpec("table", weights=(1.0, 1.0)).pdf(np.zeros(2))


def test_target_validation():
    grid = Grid(0.0, 1.0, 2)
    with pytest.raises(DistError, match=r"p has shape \(3,\), grid needs \(4,\)"):
        TargetDistribution(grid, np.full(3, 1 / 3))
    with pytest.raises(DistError, match="not 1"):
        TargetDistribution(grid, np.full(4, 0.25 + 1e-12))


def test_left_half_needs_three_qubits():
    t = sample_pdf(DistSpec("table", weights=(1.0, 1.0, 1.0, 1.0)), Grid(0.0, 1.0, 2))
    with pytest.raises(DistError, match="left_half needs n_qubits >= 3, got 2"):
        left_half(t)


@pytest.mark.parametrize("spec, grid, match", [
    pytest.param(DistSpec("lorentzian", gamma=1e-310), Grid(-1.0, 1.0, 4),
                 "weights are zero on every grid point", id="lorentzian tails overflow in the divide"),
    pytest.param(DistSpec("normal", sigma2=1e-300), Grid(-1e5, 1e5, 4),
                 "weights are zero on every grid point", id="normal tails overflow in the square"),
    pytest.param(DistSpec("lorentzian", x0=0.0, gamma=5e-324), Grid(0.0, 1.0, 3, "endpoint"),
                 "must be finite and non-negative", id="lorentzian peak past the float range"),
])
def test_overflowing_densities_are_refused_without_a_warning(spec, grid, match):
    # the overflow is the density's own arithmetic (tails to 0, a peak to
    # inf); no RuntimeWarning escapes, and sample_pdf refuses the weights
    with pytest.raises(DistError, match=match):
        sample_pdf(spec, grid)


# scipy.stats evaluates each family with the same operations in the same order
ORACLE = {
    "normal": lambda s, x: stats.norm.pdf(x, loc=s.mu, scale=math.sqrt(s.sigma2)),
    "lorentzian": lambda s, x: stats.cauchy.pdf(x, loc=s.x0, scale=s.gamma),
    "student_t": lambda s, x: stats.t.pdf(x, df=s.nu),
}
EXTREMES = {
    "normal": [{"sigma2": 1e-300}, {"sigma2": 1e300}],
    "lorentzian": [{"gamma": 1e-300}, {"gamma": 1e300}],
    "student_t": [{"nu": 1e-3}, {"nu": 1e6}],
}


def _random_params(kind, rng):
    if kind == "normal":
        sigma2 = 10 ** rng.uniform(-12, 12)
        return {"mu": math.sqrt(sigma2) * 10 * rng.standard_normal(), "sigma2": sigma2}
    if kind == "lorentzian":
        gamma = 10 ** rng.uniform(-8, 8)
        return {"x0": gamma * 10 * rng.standard_normal(), "gamma": gamma}
    # scipy's own t constant, exp(lgamma((nu+1)/2) - lgamma(nu/2)), is only
    # good to ulp(lgamma(nu/2)): 3e-14 off at nu=100 and 1.5e-11 at 2e4, where
    # it switches to an accurate series; test_student_t_peak_exact covers the gap
    low, high = (-3, math.log10(20)) if rng.random() < 0.5 else (math.log10(2.1e4), 7)
    return {"nu": 10 ** rng.uniform(low, high)}


def _cases(kind, seed):
    """(spec, grid points): both conventions at n = 3..16, seeded parameters
    over wide ranges plus the extremes, grids a few to many scale units wide."""
    rng = np.random.default_rng(seed)
    draws = [_random_params(kind, rng) for _ in range(2 * 2 * 14)] + EXTREMES[kind]
    for i, params in enumerate(draws):
        spec = DistSpec(kind, **params)
        unit = 1.0 if kind == "student_t" else math.sqrt(spec.sigma2) if kind == "normal" else spec.gamma
        center = {"normal": spec.mu, "lorentzian": spec.x0}.get(kind, 0.0)
        width = unit * 10 ** rng.uniform(-1, 1)
        lo, hi = center - width * rng.uniform(0.5, 8), center + width * rng.uniform(0.5, 8)
        grid = Grid(lo, hi, 3 + (i // 2) % 14, ("midpoint", "endpoint")[i % 2])
        yield spec, grid.points()


@pytest.mark.parametrize("kind", ["normal", "lorentzian"])
def test_pdf_bit_identical_to_scipy(kind):
    for spec, x in _cases(kind, seed=11):
        assert np.array_equal(spec.pdf(x), ORACLE[kind](spec, x)), spec


def test_student_t_pdf_matches_scipy():
    # 1e-14 relative, plus one ulp of the exponent: exp's condition number at
    # ln p is |ln p|, so two evaluations whose exponents round apart by one
    # ulp differ by up to |ln p| * 2^-52 relative; 1e-300 covers subnormals
    for spec, x in _cases("student_t", seed=12):
        got, want = spec.pdf(x), ORACLE["student_t"](spec, x)
        rtol = 1e-14 + 2.0**-52 * np.abs(np.log(np.maximum(want, 1e-300)))
        assert np.all(np.abs(got - want) <= rtol * want + 1e-300), spec


def _exact_t_peak(nu):
    # Gamma((nu+1)/2) / (Gamma(nu/2) sqrt(nu pi)) for an integer nu, from the
    # central binomial C(2k, k); Python's int division rounds correctly
    k = nu // 2
    if nu % 2 == 0:
        return k * math.comb(2 * k, k) / 4**k / math.sqrt(nu)
    return 4**k / math.comb(2 * k, k) / math.pi / math.sqrt(nu)


def test_student_t_peak_exact():
    rng = np.random.default_rng(13)
    nus = list(range(1, 41)) + sorted(int(v) for v in 10 ** rng.uniform(1.6, 4.4, 40))
    for nu in nus:
        peak = DistSpec("student_t", nu=float(nu)).pdf(np.zeros(1))[0]
        assert abs(peak / _exact_t_peak(nu) - 1.0) <= 2e-15, nu


def test_student_t_pdf_finite_for_any_finite_nu():
    # no gamma value overflows: the density tends to the normal one
    x = np.linspace(-3.0, 3.0, 7)
    for nu in (5e-324, 1e-300, 1e305, 1.7e308):
        p = DistSpec("student_t", nu=nu).pdf(x)  # x*x/nu overflows at 5e-324, quietly: the density is 0 there
        assert np.all(np.isfinite(p)) and np.all(p >= 0), nu
    huge = DistSpec("student_t", nu=1.7e308).pdf(x)
    assert np.allclose(huge, np.exp(-x * x / 2) / math.sqrt(2 * math.pi), rtol=1e-14, atol=0)


@pytest.mark.parametrize("bad", [np.nan, np.inf, -np.inf])
def test_target_refuses_non_finite_probabilities(bad):
    for p in (np.array([0.5, bad, 0.25, 0.25]), np.full(4, bad)):
        with pytest.raises(DistError, match="finite and non-negative"):
            TargetDistribution(Grid(0.0, 1.0, 2), p)
