import numpy as np
import pytest

from dynsqueeze import (
    PiecewiseLinearFunction,
    fit_pwl,
    load_pwl_table,
    max_error,
    save_pwl_table,
)
from dynsqueeze.electronics import MAX_SEGMENTS, TARGETS

# accuracy targets for the 16-segment look-up tables on [-2, 2]
ARCTAN_TARGET = 0.01
GAIN_TARGET = 0.005


def test_sixteen_segment_fits_meet_targets():
    f = fit_pwl("arctan", 16, -2.0, 2.0)
    g = fit_pwl("sqrt1px2", 16, -2.0, 2.0)
    assert 1e-3 < max_error(f, "arctan") <= ARCTAN_TARGET
    assert 1e-3 < max_error(g, "sqrt1px2") <= GAIN_TARGET


def test_gain_target_needs_knot_optimization():
    # uniform knots are not good enough for the gain table at 16 segments
    uniform = PiecewiseLinearFunction(
        np.linspace(-2.0, 2.0, 17), np.sqrt(1.0 + np.linspace(-2.0, 2.0, 17) ** 2)
    )
    assert max_error(uniform, "sqrt1px2") > GAIN_TARGET


def test_single_segment_equals_chord_optimum():
    # closed-form worst error of the chord through (+-2, arctan(+-2)):
    # slope m = arctan(2)/2, extremum at x* = sqrt(1/m - 1)
    f = fit_pwl("arctan", 1, -2.0, 2.0)
    m = np.arctan(2.0) / 2.0
    xstar = np.sqrt(1.0 / m - 1.0)
    want = np.arctan(xstar) - m * xstar
    assert max_error(f, "arctan") == pytest.approx(want, abs=1e-15)


@pytest.mark.parametrize("target", ["arctan", "sqrt1px2"])
def test_error_never_increases_when_doubling_segments(target):
    errs = [max_error(fit_pwl(target, n, -2.0, 2.0), target) for n in (2, 4, 8, 16, 32, 64)]
    assert all(b <= a + 1e-15 for a, b in zip(errs, errs[1:]))


@pytest.mark.parametrize("target", ["arctan", "sqrt1px2"])
@pytest.mark.parametrize("n", [3, 5, 7, 16])
def test_fit_never_worse_than_uniform(target, n):
    fun = TARGETS[target][0]
    xs = np.linspace(-2.0, 2.0, n + 1)
    uniform = PiecewiseLinearFunction(xs, fun(xs))
    assert max_error(fit_pwl(target, n, -2.0, 2.0), target) <= max_error(uniform, target) + 1e-15


def test_fit_symmetry():
    x = np.linspace(0.0, 2.0, 101)
    f = fit_pwl("arctan", 16, -2.0, 2.0)
    assert np.max(np.abs(f(-x) + f(x))) < 1e-14  # odd
    g = fit_pwl("sqrt1px2", 11, -2.0, 2.0)
    assert np.max(np.abs(g(-x) - g(x))) < 1e-14  # even


@pytest.mark.parametrize("target", ["arctan", "sqrt1px2"])
@pytest.mark.parametrize("hi", [1e-8, 1e-30, 1e-300])
def test_narrow_range_from_zero_is_not_taken_for_symmetric(target, hi):
    # [0, hi] is within numpy's default isclose atol of [-hi, hi]; mirroring
    # its knots into negative x used to break their order
    f = fit_pwl(target, 16, 0.0, hi)
    assert f.xs[0] == 0.0 and f.xs[-1] == hi
    assert np.all(np.diff(f.xs) > 0.0)


def test_fit_interpolates_at_knots():
    f = fit_pwl("arctan", 9, -2.0, 2.0)
    assert np.max(np.abs(f(f.xs) - np.arctan(f.xs))) < 1e-15


def test_clamping_outside_range():
    f = fit_pwl("arctan", 8, -2.0, 2.0)
    assert f(100.0) == pytest.approx(np.arctan(2.0), abs=1e-12)
    assert f(-100.0) == pytest.approx(-np.arctan(2.0), abs=1e-12)
    assert f(2.0 + 1e-9) == pytest.approx(np.arctan(2.0), abs=1e-8)


def test_eval_shapes():
    f = fit_pwl("arctan", 4, -2.0, 2.0)
    assert isinstance(f(0.3), float)
    out = f(np.linspace(-3.0, 3.0, 7))
    assert out.shape == (7,)


def test_fit_validation():
    with pytest.raises(ValueError):
        fit_pwl("cosh", 4, -2.0, 2.0)
    with pytest.raises(ValueError):
        fit_pwl("arctan", 0, -2.0, 2.0)
    with pytest.raises(ValueError, match=f"n_segments must lie in \\[1, {MAX_SEGMENTS}\\]"):
        fit_pwl("arctan", MAX_SEGMENTS + 1, -2.0, 2.0)
    with pytest.raises(ValueError):
        fit_pwl("arctan", 4, 2.0, -2.0)


def _dense_reference(f, target, points):
    """Max |f - target| over ``points`` evenly spaced points inside each segment."""
    fun = TARGETS[target][0]
    t = np.linspace(0.0, 1.0, points)
    chunk = max(1, 500_000 // points)
    best = 0.0
    for i in range(0, f.n_segments, chunk):
        a, b = f.xs[:-1][i:i + chunk], f.xs[1:][i:i + chunk]
        x = a[:, None] + t * (b - a)[:, None]
        best = max(best, float(np.max(np.abs(f(x) - fun(x)))))
    return best


def _assert_exact(f, target):
    # never below a sample of the table's own points; above one only by the
    # sample's spacing (20001 points in a segment, 2001 at 1000 segments)
    reference = _dense_reference(f, target, 2001 if f.n_segments >= 1000 else 20001)
    err = max_error(f, target)
    assert reference <= err <= reference * (1.0 + 1e-6)


@pytest.mark.parametrize("target", ["arctan", "sqrt1px2"])
@pytest.mark.parametrize("n", [1, 2, 3, 16, 64, MAX_SEGMENTS])
def test_reported_error_matches_a_fine_grid(target, n):
    for r in (2.0, 10.0, 1e3, 1e6):
        for lo in (-r, 0.0, -r / 3.0):
            _assert_exact(fit_pwl(target, n, lo, r), target)


@pytest.mark.parametrize("target", ["arctan", "sqrt1px2"])
def test_max_error_of_a_table_that_does_not_interpolate(target):
    xs = np.linspace(-3.0, 5.0, 13)
    f = PiecewiseLinearFunction(xs, TARGETS[target][0](xs) + 0.01 * np.cos(7.0 * xs))
    _assert_exact(f, target)


def test_max_error_finds_the_peak_between_crowded_knots():
    # a uniform grid across [-1e6, 1e6] steps over the 16 segments near 0;
    # it read 5.27e-4 and 1.11e-2
    assert f"{max_error(fit_pwl('arctan', 16, -1e6, 1e6), 'arctan'):.4g}" == "1.139"
    assert f"{max_error(fit_pwl('sqrt1px2', 16, -1e6, 1e6), 'sqrt1px2'):.4g}" == "0.4802"


def test_max_error_finds_the_peak_where_the_slope_rounds_to_one():
    # the segment [0, 1.25e19] has slope (1.25e19 - 1) / 1.25e19, which rounds
    # to 1; taken from that slope, the peak at x = 2.5e9 was missed and the
    # error read 0.0
    f = fit_pwl("sqrt1px2", 16, -1e20, 1e20)
    peak = abs(f(2.5e9) - np.sqrt(1.0 + 2.5e9**2))
    assert peak == pytest.approx(1.0, abs=1e-5)
    assert max_error(f, "sqrt1px2") == pytest.approx(peak, abs=1e-5)


def test_max_error_where_no_slope_matches_is_finite_and_quiet():
    # slopes that underflow to 0 or round to +-1 have no matching point
    assert np.isfinite(max_error(fit_pwl("arctan", 16, 0.0, 1e308), "arctan"))
    xs = np.linspace(-1e10, 1e10, 17)
    f = PiecewiseLinearFunction(xs, np.sqrt(1.0 + xs**2))
    assert np.isfinite(max_error(f, "sqrt1px2"))


def test_max_error_of_a_dense_table_is_its_chord_error():
    # 20000 segments of width 2e-4: the chord error h^2 max|arctan''| / 8
    # with max|arctan''| = 3 sqrt(3) / 8 at x = 1 / sqrt(3)
    xs = np.linspace(-2.0, 2.0, 20001)
    dense = PiecewiseLinearFunction(xs, np.arctan(xs))
    want = (4.0 / 20000) ** 2 * (3.0 * np.sqrt(3.0) / 8.0) / 8.0
    assert max_error(dense, "arctan") == pytest.approx(want, rel=1e-6)


def test_fit_over_a_range_where_curvature_overflows():
    # arctan's f'' overflows from |x| = 1.2e77 and its -2x from 9e307; the
    # density takes its limit, 0, there without a warning
    for hi in (1e100, 1e200, 1e308):
        f = fit_pwl("arctan", 16, 0.0, hi)
        assert np.all(np.isfinite(f.xs)) and f.xs[-1] == hi
    with pytest.raises(ValueError, match=r"sqrt1px2 is not finite .* \[0, 1e\+200\]"):
        fit_pwl("sqrt1px2", 16, 0.0, 1e200)
    with pytest.raises(ValueError, match="finite distance"):
        fit_pwl("arctan", 16, -1e308, 1e308)


def test_pwl_validation():
    with pytest.raises(ValueError):
        PiecewiseLinearFunction(np.array([0.0, 0.0, 1.0]), np.zeros(3))
    with pytest.raises(ValueError):
        PiecewiseLinearFunction(np.array([1.0]), np.array([1.0]))
    with pytest.raises(ValueError):
        PiecewiseLinearFunction(np.array([0.0, 1.0]), np.zeros(3))


def test_table_round_trip(tmp_path):
    f = fit_pwl("sqrt1px2", 16, -2.0, 2.0)
    path = tmp_path / "table.txt"
    save_pwl_table(f, path)
    g = load_pwl_table(path)
    assert g.xs == pytest.approx(f.xs, rel=1e-11, abs=1e-12)
    assert g.ys == pytest.approx(f.ys, rel=1e-11, abs=1e-12)
    assert g(-100.0) == pytest.approx(f.ys[0], rel=1e-11)
    first = path.read_text().splitlines()[0].split()
    assert len(first) == 2 and float(first[0]) == pytest.approx(-2.0)


def test_table_load_rejects_malformed(tmp_path):
    bad = tmp_path / "bad.txt"
    bad.write_text("0 1 2\n3 4\n")
    with pytest.raises(ValueError):
        load_pwl_table(bad)
    short = tmp_path / "short.txt"
    short.write_text("0 1\n")
    with pytest.raises(ValueError):
        load_pwl_table(short)
