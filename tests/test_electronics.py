import numpy as np
import pytest

from dynsqueeze import (
    PiecewiseLinearFunction,
    fit_pwl,
    load_pwl_table,
    max_error,
    save_pwl_table,
)
from dynsqueeze.electronics import MAX_SEGMENTS, TARGETS, _segment_errors

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


@pytest.mark.parametrize("n", [15, 16])
def test_fit_on_a_symmetric_range_is_exactly_odd_or_even(n):
    f = fit_pwl("arctan", n, -3.0, 3.0)
    assert np.array_equal(f.xs, -f.xs[::-1]) and np.array_equal(f.ys, -f.ys[::-1])
    g = fit_pwl("sqrt1px2", n, -3.0, 3.0)
    assert np.array_equal(g.xs, -g.xs[::-1]) and np.array_equal(g.ys, g.ys[::-1])


@pytest.mark.parametrize("target", ["arctan", "sqrt1px2"])
@pytest.mark.parametrize("hi", [1e-8, 1e-30, 1e-300])
def test_narrow_range_from_zero_is_not_taken_for_symmetric(target, hi):
    # [0, hi] is within numpy's default isclose atol of [-hi, hi]; mirroring
    # its knots into negative x used to break their order
    f = fit_pwl(target, 16, 0.0, hi)
    assert f.xs[0] == 0.0 and f.xs[-1] == hi
    assert np.all(np.diff(f.xs) > 0.0)


@pytest.mark.parametrize("target", ["arctan", "sqrt1px2"])
@pytest.mark.parametrize("n", [3, 16, 64, MAX_SEGMENTS])
def test_fit_gives_every_segment_the_same_error(target, n):
    for lo, hi in ((-2.0, 2.0), (0.0, 2.0), (-1.0, 3.0), (-50.0, 50.0)):
        f = fit_pwl(target, n, lo, hi)
        err = _segment_errors(f, target)
        assert err.max() - err.min() <= 1e-6 * err.max()
        assert max_error(f, target) == float(err.max())


@pytest.mark.parametrize("target", ["arctan", "sqrt1px2"])
def test_fit_follows_the_curvature_on_a_wide_range(target):
    # both targets bend only within about 1 of 0, a millionth of this range
    assert max_error(fit_pwl(target, 16, -1e6, 1e6), target) < 0.05


@pytest.mark.parametrize("target", ["arctan", "sqrt1px2"])
def test_narrow_range_far_from_zero_keeps_its_knots_apart(target):
    # 1000 segments of 8.6 float64 ulps each: starting knots even in a float64
    # arcsinh(x) would collide
    f = fit_pwl(target, MAX_SEGMENTS, 1e6, 1e6 + 1e-6)
    assert f.xs[0] == 1e6 and f.xs[-1] == 1e6 + 1e-6
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
    """Max |f - target| over ``points`` evenly spaced points inside each segment.

    The table and the target are evaluated in long double: sqrt1px2 at 1000
    segments on [0, 1e6] is off by 8.6e-7, and float64 rounding of values
    near 1e6 (an ulp is 1.2e-10) would move the sample by more than the 1e-6
    relative bound of _assert_exact.
    """
    fun = TARGETS[target][0]
    t = np.linspace(0.0, 1.0, points)
    chunk = max(1, 500_000 // points)
    best = 0.0
    xs, ys = f.xs.astype(np.longdouble), f.ys.astype(np.longdouble)
    for i in range(0, f.n_segments, chunk):
        a, b = xs[:-1][i:i + chunk, None], xs[1:][i:i + chunk, None]
        ya, yb = ys[:-1][i:i + chunk, None], ys[1:][i:i + chunk, None]
        x = a + t * (b - a)
        best = max(best, float(np.max(np.abs(ya + (x - a) * (yb - ya) / (b - a) - fun(x)))))
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
    # a uniform grid across [-1e6, 1e6] steps over the segments that crowd near 0
    assert f"{max_error(fit_pwl('arctan', 16, -1e6, 1e6), 'arctan'):.4g}" == "0.01967"
    assert f"{max_error(fit_pwl('sqrt1px2', 16, -1e6, 1e6), 'sqrt1px2'):.4g}" == "0.01345"


def test_max_error_finds_the_peak_where_the_slope_rounds_to_one():
    # the segment [0, 1.25e19] has slope (1.25e19 - 1) / 1.25e19, which rounds
    # to 1 in float64; taken from that slope, the peak at x = 2.5e9 was missed
    # and the error read 0.0
    xs = np.array([-1e20, -1.25e19, 0.0, 1.25e19, 1e20])
    f = PiecewiseLinearFunction(xs, np.sqrt(1.0 + xs**2))
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
    # arctan's f'' overflows from |x| = 1.2e77 and x^2 from 1.3e154; such
    # ranges fit without a warning
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


@pytest.mark.parametrize("table, message", [
    ("nan 0\n1 2\n", "breakpoints must be finite"),
    ("inf 0\n1 2\n", "breakpoints must be finite"),
    ("0 1\n0 2\n", "breakpoints must be strictly ascending"),
    ("1 1\n0 2\n", "breakpoints must be strictly ascending"),
], ids=["nan", "inf", "repeated", "descending"])
def test_table_load_names_the_file_of_a_table_the_function_refuses(tmp_path, table, message):
    # these gave the bare PiecewiseLinearFunction text, naming no file
    path = tmp_path / "t.txt"
    path.write_text(table)
    with pytest.raises(ValueError) as info:
        load_pwl_table(path)
    assert str(info.value) == f"{path}: {message}"


@pytest.mark.parametrize("mark", ["\x0c", "\x1c", "\x1e", "\x85", "\u2028"])
def test_table_load_counts_only_newlines_as_line_breaks(tmp_path, mark):
    # str.splitlines breaks at these too, which named line 5
    path = tmp_path / "t.txt"
    path.write_text(f"0 1\n1 2{mark}\n2 3\n3 4 5\n")
    with pytest.raises(ValueError, match=r"t\.txt:4: expected 'x y'"):
        load_pwl_table(path)


def test_table_load_names_the_line_of_a_non_number(tmp_path):
    path = tmp_path / "t.txt"
    path.write_text("0 1\n1 x\n")
    with pytest.raises(ValueError, match=r"t\.txt:2: not a number: 'x'"):
        load_pwl_table(path)


def test_table_load_names_the_line_with_a_byte_that_is_not_text(tmp_path):
    path = tmp_path / "t.txt"
    path.write_bytes(b"0 1\n1 2\n\xff 3\n")
    with pytest.raises(ValueError, match=r"t\.txt:3: not utf-8 text \(invalid start byte\)"):
        load_pwl_table(path)
