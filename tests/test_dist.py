"""Grid conventions, density sampling, and left-half extraction."""

import numpy as np
import pytest

from symprep.dist import (
    DistError,
    DistSpec,
    Grid,
    amplitudes,
    left_half,
    sample_pdf,
)


def test_grid_point_formulas():
    g = Grid(-0.5, 0.5, 3, "midpoint")
    k = np.arange(8)
    assert np.allclose(g.points(), -0.5 + (k + 0.5) / 8, atol=1e-15)
    e = Grid(-0.5, 0.5, 3, "endpoint")
    assert np.allclose(e.points(), -0.5 + k / 7, atol=1e-15)


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
    t = sample_pdf(DistSpec("normal", mu=0.0, sigma2=0.01), Grid(-0.5, 0.5, 10))
    assert t.symmetric
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
    t = sample_pdf(DistSpec("normal", mu=0.3, sigma2=0.01), Grid(-0.5, 0.5, 6))
    assert not t.symmetric
    assert abs(t.p.sum() - 1.0) <= 1e-12


def test_table_point_mass(tmp_path):
    path = tmp_path / "w.csv"
    rows = ["weight"] + ["0.0"] * 16
    rows[5] = "2.5"  # single nonzero entry, index 4 after the header
    path.write_text("\n".join(rows) + "\n")
    t = sample_pdf(DistSpec("table", path=str(path)), Grid(0.0, 1.0, 4))
    expect = np.zeros(16)
    expect[4] = 1.0
    assert np.array_equal(t.p, expect)


def test_table_row_count_and_negatives(tmp_path):
    short = tmp_path / "short.csv"
    short.write_text("1.0\n2.0\n")
    with pytest.raises(DistError):
        sample_pdf(DistSpec("table", path=str(short)), Grid(0.0, 1.0, 4))
    neg = tmp_path / "neg.csv"
    neg.write_text("\n".join(["1.0"] * 15 + ["-0.5"]) + "\n")
    with pytest.raises(DistError):
        sample_pdf(DistSpec("table", path=str(neg)), Grid(0.0, 1.0, 4))
    with pytest.raises(DistError):
        sample_pdf(DistSpec("table", weights=(0.0,) * 16), Grid(0.0, 1.0, 4))


def test_table_assume_symmetric():
    w = tuple(float(x) for x in [1, 2, 3, 4, 4, 3, 2, 1])
    t = sample_pdf(
        DistSpec("table", weights=w, assume_symmetric=True), Grid(0.0, 1.0, 3)
    )
    assert t.symmetric and np.array_equal(t.p, t.p[::-1])
    with pytest.raises(DistError):
        sample_pdf(
            DistSpec("table", weights=(1.0, 2.0, 3.0, 4.0, 9.0, 3.0, 2.0, 1.0),
                     assume_symmetric=True),
            Grid(0.0, 1.0, 3),
        )


def test_table_symmetric_zero_center_pair():
    # the normalisation residual must not land on a zero centre pair, where
    # rounding would leave it slightly negative and the table be refused
    half = [0.641771001269369, 0.5822868192737389, 0.08126313318700795, 0.0]
    t = sample_pdf(
        DistSpec("table", weights=tuple(half + half[::-1]), assume_symmetric=True),
        Grid(0.0, 1.0, 3),
    )
    assert np.all(t.p >= 0) and np.array_equal(t.p, t.p[::-1])
    assert t.p[3] == t.p[4] == 0.0
    assert float(t.p.sum()) == 1.0


def test_left_half_monotone_normal():
    t = sample_pdf(DistSpec("normal", mu=0.0, sigma2=0.01), Grid(-0.5, 0.5, 10))
    h = left_half(t)
    assert h.p.size == 512
    assert h.grid.n_qubits == 9
    assert h.grid.min == -0.5 and h.grid.max == 0.0
    assert abs(h.p.sum() - 1.0) <= 1e-12
    assert np.all(np.diff(h.p) > 0)  # strictly rising toward the mean


def test_left_half_midpoint_subgrid_matches_parent_points():
    t = sample_pdf(DistSpec("normal", mu=0.0, sigma2=0.04), Grid(-1.0, 1.0, 6))
    h = left_half(t)
    assert np.allclose(h.grid.points(), t.grid.points()[:32], atol=1e-15)


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
    with pytest.raises(DistError):
        DistSpec("table")
    with pytest.raises(DistError):  # exactly one of path or weights
        DistSpec("table", path="weights.csv", weights=(1.0,) * 16)
