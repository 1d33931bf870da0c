"""Analog feed-forward electronics: piecewise-linear look-up tables.

The local-oscillator phase arctan(kappa) and the feed-forward gain
sqrt(1 + kappa^2) have to be produced in real time by analog circuits, which
realize them as clamped piecewise-linear (broken-line) approximations.  This
module fits those tables with the same worst error on every segment, measures
that error exactly and saves/loads the tables as text.  With
``use_pwl_electronics`` the harness runs the gate off these tables instead of
the exact functions.
"""

from __future__ import annotations

from pathlib import Path

import numpy as np

from .states import Immutable
from .tables import read_text

_FMT = "{:.12g}"

# Largest table fit_pwl builds.  A move of its knots takes time in proportion
# to the segments, about 1 ms at 1000, so no fit takes much over 0.1 s.
MAX_SEGMENTS = 1000

# Knot moves fit_pwl makes at most; it returns the best table it met.
_MAX_STEPS = 100


def _arctan_slope_inverse(a, b, ya, yb):
    return np.sqrt(1.0 / ((yb - ya) / (b - a)) - 1.0)


def _sqrt1px2(x):
    return np.sqrt(1.0 + x**2)


def _sqrt1px2_slope_inverse(a, b, ya, yb):
    # x = s / sqrt(1 - s^2) with s = dy / dx is dy / sqrt(dx^2 - dy^2).  Far
    # from 0, s rounds to +-1 and 1 - s^2 to 0; (dx - dy)(dx + dy), taken
    # from the ends, keeps the difference that rounding loses.
    return (yb - ya) / np.sqrt(((b - yb) - (a - ya)) * ((b + yb) - (a + ya)))


# target name -> (function, slope inverse: an x where f' equals the slope of
# the chord from (a, ya) to (b, yb), NaN or +-inf if none); the functions are
# the exact electronics, read by GateParams.exact and harness._gate_params
TARGETS = {
    "arctan": (np.arctan, _arctan_slope_inverse),
    "sqrt1px2": (_sqrt1px2, _sqrt1px2_slope_inverse),
}


class PiecewiseLinearFunction(Immutable):
    """Broken-line function, constant at its end values outside the breakpoints.

    Attributes:
        xs: Strictly ascending breakpoint abscissae.
        ys: Function values at the breakpoints; x < xs[0] gives ys[0] and
            x > xs[-1] gives ys[-1].
    """

    __slots__ = ("xs", "ys")

    def __init__(self, xs, ys) -> None:
        xs = np.array(xs, dtype=float)
        ys = np.array(ys, dtype=float)
        if xs.ndim != 1 or xs.size < 2:
            raise ValueError("need at least two breakpoints")
        if ys.shape != xs.shape:
            raise ValueError("xs and ys must have the same shape")
        if not (np.all(np.isfinite(xs)) and np.all(np.isfinite(ys))):
            raise ValueError("breakpoints must be finite")
        if np.any(np.diff(xs) <= 0.0):
            raise ValueError("breakpoints must be strictly ascending")
        xs.setflags(write=False)
        ys.setflags(write=False)
        self._set(xs, ys)

    @property
    def n_segments(self) -> int:
        return self.xs.size - 1

    def __call__(self, x):
        out = np.interp(x, self.xs, self.ys)
        return float(out) if np.ndim(x) == 0 else out


def _lookup_target(target: str):
    try:
        return TARGETS[target]
    except KeyError:
        raise ValueError(
            f"unknown target {target!r}; known targets: {sorted(TARGETS)}"
        ) from None


def fit_pwl(target: str, n_segments: int, lo: float, hi: float) -> PiecewiseLinearFunction:
    """Fit a clamped broken-line approximation of a registered target function.

    The values are the target samples at the knots, and the knots are moved
    until every segment has the same worst error, which for these targets is
    the table with the least max_error.  Each move is de Boor's
    equidistribution: the knots go to equal steps of the running sum of the
    square roots of the segment errors.  The moves start from knots even in
    arcsinh(x) and stop once the segment errors agree to 1e-6 of the largest,
    or after 100 moves; the best table met is returned.  On a range with
    ``lo == -hi`` the knots are mirrored each move, so arctan's table is
    exactly odd and sqrt1px2's exactly even.  A target not finite at ``lo``
    or ``hi`` raises ValueError.
    """
    if not 1 <= n_segments <= MAX_SEGMENTS:
        raise ValueError(f"n_segments must lie in [1, {MAX_SEGMENTS}], got {n_segments}")
    lo, hi = float(lo), float(hi)
    if not (lo < hi and np.isfinite(hi - lo)):
        raise ValueError(f"need lo < hi a finite distance apart, got [{lo}, {hi}]")
    fun = _lookup_target(target)[0]
    with np.errstate(over="ignore"):
        ends = fun(np.array([lo, hi]))
    if not np.all(np.isfinite(ends)):
        raise ValueError(f"{target} is not finite at an end of the range [{lo:g}, {hi:g}]")
    # long double keeps the start's knots apart on a narrow range far from 0
    t = np.linspace(np.arcsinh(np.longdouble(lo)), np.arcsinh(np.longdouble(hi)), n_segments + 1)
    xs = np.concatenate([[lo], np.sinh(t[1:-1]).astype(float), [hi]])
    best = None
    for _ in range(_MAX_STEPS):
        if lo == -hi:
            xs = 0.5 * (xs - xs[::-1])
        if best is not None and not np.all(np.diff(xs) > 0.0):
            break  # a move took knots closer than floats resolve, or past them
        f = PiecewiseLinearFunction(xs, fun(xs))
        err = _segment_errors(f, target)
        if best is None or err.max() < best_error:
            best, best_error = f, err.max()
        if err.max() - err.min() <= 1e-6 * err.max():
            break
        cum = np.concatenate([[0.0], np.cumsum(np.sqrt(err, dtype=float))])
        xs = np.interp(np.linspace(0.0, cum[-1], n_segments + 1), cum, xs)
    return best


def _segment_errors(f: PiecewiseLinearFunction, target: str) -> np.ndarray:
    """Max absolute deviation from the target on each segment of the table.

    On a segment f - target peaks at an end or where the target's slope
    equals the segment's, so only those points are evaluated, the table and
    the target in long double there.
    """
    fun, slope_inverse = _lookup_target(target)
    a, b, ya, yb = (v.astype(np.longdouble) for v in (f.xs[:-1], f.xs[1:], f.ys[:-1], f.ys[1:]))
    with np.errstate(divide="ignore", over="ignore", invalid="ignore"):
        x = slope_inverse(a, b, ya, yb)
    # arctan' is even, so -x matches too (for sqrt1px2 it is one more point);
    # fmax sends NaN (no match) to the segment's lower end, fmin/fmax clip inf
    x = np.fmin(np.fmax(np.stack([a, b, x, -x]), a), b)
    return np.max(np.abs(ya + (x - a) * (yb - ya) / (b - a) - fun(x)), axis=0)


def max_error(f: PiecewiseLinearFunction, target: str) -> float:
    """Max absolute deviation from the target between the table's end breakpoints.

    The largest of the segment errors fit_pwl equalizes.  On each segment
    f - target peaks at an end or where the target's slope equals the
    segment's, and only those points are evaluated, in long double.  Where
    long double is wider than float64 (80 bits on x86), the result is exact
    to about 1e-19 of the segment's end values; where it is only float64
    (Windows, macOS on Apple silicon), to about an ulp of them, which for
    sqrt1px2 at 1000 segments on [0, 1e6] is 1e-4 of the error.
    """
    return float(_segment_errors(f, target).max())


def save_pwl_table(f: PiecewiseLinearFunction, path) -> None:
    """Write breakpoints as text, one ascending "x y" pair per line."""
    lines = [
        f"{_FMT.format(x)} {_FMT.format(y)}" for x, y in zip(f.xs, f.ys)
    ]
    Path(path).write_text("\n".join(lines) + "\n")


def load_pwl_table(path) -> PiecewiseLinearFunction:
    """Read a breakpoint table written by :func:`save_pwl_table`.

    A line that is not two numbers, or a byte that is not text, is reported
    as ``path:line``.
    """
    rows = []
    for ln, line in enumerate(read_text(path).split("\n"), start=1):
        if not line.strip():
            continue
        parts = line.split()
        if len(parts) != 2:
            raise ValueError(f"{path}:{ln}: expected 'x y', got {line!r}")
        row = []
        for part in parts:
            try:
                row.append(float(part))
            except ValueError:
                raise ValueError(f"{path}:{ln}: not a number: {part!r}") from None
        rows.append(row)
    if len(rows) < 2:
        raise ValueError(f"{path}: need at least two breakpoints")
    xs, ys = zip(*rows)
    return PiecewiseLinearFunction(np.array(xs), np.array(ys))
