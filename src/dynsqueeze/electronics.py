"""Analog feed-forward electronics: piecewise-linear look-up tables.

The local-oscillator phase arctan(kappa) and the feed-forward gain
sqrt(1 + kappa^2) have to be produced in real time by analog circuits, which
realize them as clamped piecewise-linear (broken-line) approximations.  This
module fits those tables, measures their worst-case error and saves/loads
them as text.  With ``use_pwl_electronics`` the harness runs the gate off
these tables instead of the exact functions.
"""

from __future__ import annotations

from pathlib import Path

import numpy as np

from .states import Immutable

_FMT = "{:.12g}"

_DENSE_GRID = 20001

# Largest table fit_pwl builds.  An error grid needs about 10 points per
# segment to find each segment's peak error (max_error checks that): at 20000
# segments every point of the 10001-point report grid and the 20001-point
# selection grid is a knot, and both read an error of zero.
MAX_SEGMENTS = 1000


def _arctan_d2(x):
    return -2.0 * x / (1.0 + x**2) ** 2


def _sqrt1px2(x):
    return np.sqrt(1.0 + x**2)


def _sqrt1px2_d2(x):
    return (1.0 + x**2) ** -1.5


# target name -> (function, second derivative); the functions are the exact
# electronics, read by GateParams.exact and harness._gate_params
TARGETS = {
    "arctan": (np.arctan, _arctan_d2),
    "sqrt1px2": (_sqrt1px2, _sqrt1px2_d2),
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


def _cumulative_quantile(grid: np.ndarray, density: np.ndarray, q: np.ndarray) -> np.ndarray:
    """Positions where the normalized cumulative integral of density hits q."""
    steps = 0.5 * (density[1:] + density[:-1]) * np.diff(grid)
    cum = np.concatenate([[0.0], np.cumsum(steps)])
    if cum[-1] <= 0.0:
        return np.interp(q, np.linspace(0.0, 1.0, grid.size), grid)
    return np.interp(q, cum / cum[-1], grid)


def _equidistributed_knots(target: str, n_segments: int, lo: float, hi: float) -> np.ndarray:
    """Knots spaced so each segment carries equal integral of |f''|^(1/2).

    That density equalizes the per-segment interpolation error h^2 |f''| / 8 to
    leading order.  On a symmetric range the knots are built on [0, hi] and
    mirrored, so odd/even targets yield exactly odd/even approximations.
    """
    d2 = _lookup_target(target)[1]
    # atol=0: numpy's default 1e-8 would call a range as narrow as [0, 1e-8] symmetric
    symmetric = np.isclose(lo, -hi, atol=0.0) and hi > 0.0
    grid = np.linspace(0.0 if symmetric else lo, hi, _DENSE_GRID)
    # where 1 + x^2 or 2 x overflows, f'' takes its true limit, 0, not inf / inf
    with np.errstate(over="ignore", invalid="ignore"):
        density = np.nan_to_num(np.sqrt(np.abs(d2(grid))), nan=0.0)
    density = np.maximum(density, 1e-9 * max(float(density.max()), 1.0))
    if symmetric:
        half = n_segments / 2.0
        if n_segments % 2 == 0:
            q = np.arange(n_segments // 2 + 1) / half
            right = _cumulative_quantile(grid, density, q)
            knots = np.concatenate([-right[:0:-1], right])
        else:
            # Odd count: the middle segment straddles 0, so the first knot on
            # the right sits at half a segment's worth of density.
            q = (np.arange(1, (n_segments + 1) // 2 + 1) - 0.5) / half
            right = _cumulative_quantile(grid, density, q)
            knots = np.concatenate([-right[::-1], right])
    else:
        knots = _cumulative_quantile(grid, density, np.linspace(0.0, 1.0, n_segments + 1))
    knots[0], knots[-1] = lo, hi
    return knots


def fit_pwl(target: str, n_segments: int, lo: float, hi: float) -> PiecewiseLinearFunction:
    """Fit a clamped broken-line approximation of a registered target function.

    Knots are placed by error equidistribution (density |f''|^(1/2)) and the
    values are the target samples at the knots.  The fit falls back to uniform
    knots whenever those happen to do better, so the result is never worse
    than the naive baseline.  A target not finite at ``lo`` or ``hi`` raises ValueError.
    """
    if not 1 <= n_segments <= MAX_SEGMENTS:
        raise ValueError(f"n_segments must lie in [1, {MAX_SEGMENTS}], got {n_segments}")
    lo, hi = float(lo), float(hi)
    if not (lo < hi and np.isfinite(hi - lo)):
        raise ValueError(f"need lo < hi a finite distance apart, got [{lo}, {hi}]")
    fun, _d2 = _lookup_target(target)
    with np.errstate(over="ignore"):
        ends = fun(np.array([lo, hi]))
    if not np.all(np.isfinite(ends)):
        raise ValueError(f"{target} is not finite at an end of the range [{lo:g}, {hi:g}]")
    candidates = [
        PiecewiseLinearFunction(xs, fun(xs))
        for xs in (
            _equidistributed_knots(target, n_segments, lo, hi),
            np.linspace(lo, hi, n_segments + 1),
        )
    ]
    # min keeps the first candidate on a tie
    return min(candidates, key=lambda f: max_error(f, target, lo, hi, _DENSE_GRID))


def max_error(
    f: PiecewiseLinearFunction,
    target: str,
    lo: float | None = None,
    hi: float | None = None,
    grid_points: int = 10001,
) -> float:
    """Max absolute deviation from the target on a dense uniform grid.

    Requires grid_points >= 1000 and at least 10 points per segment, so
    segment interiors are actually probed rather than only their knots.
    """
    if grid_points < max(1000, 10 * f.n_segments):
        raise ValueError(
            f"grid_points must be >= 1000 and >= 10 per segment, got {grid_points} "
            f"for {f.n_segments} segments"
        )
    fun, _d2 = _lookup_target(target)
    lo = float(f.xs[0]) if lo is None else float(lo)
    hi = float(f.xs[-1]) if hi is None else float(hi)
    if lo >= hi:
        raise ValueError(f"need lo < hi, got [{lo}, {hi}]")
    grid = np.linspace(lo, hi, grid_points)
    return float(np.max(np.abs(f(grid) - fun(grid))))


def save_pwl_table(f: PiecewiseLinearFunction, path) -> None:
    """Write breakpoints as text, one ascending "x y" pair per line."""
    lines = [
        f"{_FMT.format(x)} {_FMT.format(y)}" for x, y in zip(f.xs, f.ys)
    ]
    Path(path).write_text("\n".join(lines) + "\n")


def load_pwl_table(path) -> PiecewiseLinearFunction:
    """Read a breakpoint table written by :func:`save_pwl_table`."""
    rows = []
    for ln, line in enumerate(Path(path).read_text().splitlines(), start=1):
        if not line.strip():
            continue
        parts = line.split()
        if len(parts) != 2:
            raise ValueError(f"{path}:{ln}: expected 'x y', got {line!r}")
        rows.append((float(parts[0]), float(parts[1])))
    if len(rows) < 2:
        raise ValueError(f"{path}: need at least two breakpoints")
    xs, ys = zip(*rows)
    return PiecewiseLinearFunction(np.array(xs), np.array(ys))
