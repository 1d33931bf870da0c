import numpy as np
import pytest

from dynsqueeze import (
    PiecewiseLinearFunction,
    fit_pwl,
    load_pwl_table,
    max_error,
    save_pwl_table,
)
from dynsqueeze.electronics import MAX_SEGMENTS

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
    assert max_error(f, "arctan", grid_points=200001) == pytest.approx(want, abs=1e-8)


@pytest.mark.parametrize("target", ["arctan", "sqrt1px2"])
def test_error_never_increases_when_doubling_segments(target):
    errs = [max_error(fit_pwl(target, n, -2.0, 2.0), target) for n in (2, 4, 8, 16, 32, 64)]
    assert all(b <= a + 1e-15 for a, b in zip(errs, errs[1:]))


@pytest.mark.parametrize("target", ["arctan", "sqrt1px2"])
@pytest.mark.parametrize("n", [3, 5, 7, 16])
def test_fit_never_worse_than_uniform(target, n):
    from dynsqueeze.electronics import TARGETS

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
    with pytest.raises(ValueError):
        max_error(fit_pwl("arctan", 4, -2.0, 2.0), "arctan", grid_points=100)


@pytest.mark.parametrize("target", ["arctan", "sqrt1px2"])
@pytest.mark.parametrize("n", [1, 16, 64, MAX_SEGMENTS])
def test_reported_error_matches_a_fine_grid(target, n):
    # up to the largest table the default grid still probes segment interiors
    f = fit_pwl(target, n, -2.0, 2.0)
    reference = max_error(f, target, grid_points=2_000_001)
    assert max_error(f, target) == pytest.approx(reference, rel=0.01)


def test_max_error_needs_ten_points_per_segment():
    # a grid of knots alone would read an error of zero; it is refused instead
    xs = np.linspace(-2.0, 2.0, 20001)
    dense = PiecewiseLinearFunction(xs, np.arctan(xs))
    with pytest.raises(ValueError, match="10 per segment"):
        max_error(dense, "arctan")
    f = fit_pwl("arctan", 200, -2.0, 2.0)
    with pytest.raises(ValueError, match="10 per segment"):
        max_error(f, "arctan", grid_points=1999)
    assert max_error(f, "arctan", grid_points=2000) > 0.0


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
