"""CSV tables of numbers: a header line, then one comma-separated row per entry.

The moments, theory, summary and residual files all share this layout.  The
per-angle moments schema, which the moments and theory files share, lives here
too, with the records it reads into, so reading results needs no simulator.
So does a run's set of them: one ``moments_<label>.csv`` (``theory_<label>.csv``)
per measurement angle, all on one grid, named, written and read back here.
"""

from __future__ import annotations

from pathlib import Path
from typing import NamedTuple

import numpy as np


# Rows formatted and written at a time, about 14 KB of moments text: writing a
# table holds that much whatever its length.  256 rows were no faster and left
# a 200-bin simulate's peak RSS 0.2 MiB higher.
_BLOCK_ROWS = 128


def write_table(path, columns, arrays) -> None:
    """Write equal-length columns as CSV: a header line, then one row per entry.

    Integer and boolean columns print as integers (``%d``), float columns as
    ``%.12g`` (the same bytes as ``{:.12g}``); a scalar is formatted once and
    repeated down its column.  The rows are formatted and written
    ``_BLOCK_ROWS`` at a time, so writing takes a fixed amount of memory
    whatever the number of rows.  Every column is checked before the file is
    opened: each must be a real number or a 1-D array of them.
    """
    if len(arrays) != len(columns):
        raise ValueError(f"{len(columns)} columns but {len(arrays)} arrays")
    arrays = [np.asarray(a) for a in arrays]
    shape = np.broadcast_shapes(*(a.shape for a in arrays))
    if len(shape) > 1 or any(a.dtype.kind not in "biuf" for a in arrays):
        raise ValueError("columns must be real numbers or 1-D arrays of them")
    fields = ("%d" if a.dtype.kind in "biu" else "%.12g" for a in arrays)
    row = ",".join(f if a.ndim else f % a.item() for f, a in zip(fields, arrays)) + "\n"
    cols = [np.broadcast_to(a, shape) for a in arrays if a.ndim]
    n_rows = shape[0] if cols else 0
    with Path(path).open("w") as f:
        f.write(",".join(columns) + "\n")
        for start in range(0, n_rows, _BLOCK_ROWS):
            block = [c[start:start + _BLOCK_ROWS].tolist() for c in cols]
            f.write("".join([row % values for values in zip(*block)]))


def read_text(path) -> str:
    """A text file's contents, every line break read as ``"\\n"``.

    Split it with ``split("\\n")``: ``str.splitlines`` also breaks at form
    feeds, NEL and a few other characters, and so misnumbers the lines after
    one.  A byte that is not text in the default encoding raises ValueError
    naming ``path:line``.
    """
    try:
        return Path(path).read_text()
    except UnicodeDecodeError as exc:
        line = exc.object.count(b"\n", 0, exc.start) + 1
        raise ValueError(f"{path}:{line}: not {exc.encoding} text ({exc.reason})") from None


def read_table(path, columns) -> dict[str, np.ndarray]:
    """Read a CSV written by :func:`write_table`; one float array per column.

    The header, on the first line, must equal ``columns``, every row must
    carry one number per column, and there must be at least one row.  A bad
    row, or a byte that is not text in the default encoding, is reported as
    ``path:line``.
    """
    lines = read_text(path).rstrip().split("\n")
    if lines[0].split(",") != list(columns):
        raise ValueError(f"{path}: expected header {','.join(columns)}")
    body = lines[1:]
    if not body:
        raise ValueError(f"{path}: no data rows")
    try:
        data = np.loadtxt(body, delimiter=",", comments=None, ndmin=2)
    except ValueError as exc:
        raise _row_error(path, body, len(columns), exc) from exc
    if data.shape != (len(body), len(columns)):
        # loadtxt skips empty lines and takes any field count all rows share
        raise _row_error(path, body, len(columns), f"read {data.shape} values")
    return {col: data[:, i] for i, col in enumerate(columns)}


def _row_error(path, body, n_fields, cause) -> ValueError:
    """The error naming the first row of ``body`` that is not ``n_fields`` numbers."""
    for ln, line in enumerate(body, start=2):
        parts = line.split(",")
        if len(parts) != n_fields:
            return ValueError(f"{path}:{ln}: expected {n_fields} fields")
        for part in parts:
            try:
                float(part)
            except ValueError:
                return ValueError(f"{path}:{ln}: not a number: {part.strip()!r}")
    return ValueError(f"{path}: {cause}")


# Output homodyne angles probed each run: x, p, and the diagonal quadrature.
MEASUREMENT_ANGLES = (0.0, np.pi / 2.0, np.pi / 4.0)

_ANGLE_LABELS = {0.0: "x", np.pi / 2.0: "p", np.pi / 4.0: "pi4"}

# Angles read back from a CSV are %.12g-rounded: pi/2 comes back 4.9e-12 off.
_ANGLE_TOL = 1e-9

MOMENTS_COLUMNS = (
    "angle_rad",
    "bin_index",
    "time_us",
    "kappa",
    "mean",
    "variance",
    "se_mean",
    "se_var",
)


def measurement_angle(angle: float) -> float:
    """The measurement angle within 1e-9 of ``angle``, e.g. one read from a CSV."""
    for ref in MEASUREMENT_ANGLES:
        if abs(angle - ref) < _ANGLE_TOL:
            return ref
    raise ValueError(f"angle {angle} is not one of the run angles")


def label_for_angle(angle: float) -> str:
    """Short file-name label for one of the three measurement angles."""
    return _ANGLE_LABELS[measurement_angle(angle)]


class TheoryTraces(NamedTuple):
    """Noise-free moments per bin and angle, of either gate route.

    ``p_variance_simplified`` is always None in this package: the field
    stays only because the benchmark's traced pass builds this record by
    position.
    """

    time_us: np.ndarray
    kappa: np.ndarray
    mean: dict[float, np.ndarray]
    variance: dict[float, np.ndarray]
    p_variance_simplified: np.ndarray | None = None


class MomentEstimates(NamedTuple):
    """Per-bin sample moments of a record set, with standard errors.

    se_mean = sqrt(v / n); se_var = v * sqrt(2 / (n - 1)), the normal-theory
    standard error of an unbiased sample variance.
    """

    time_us: np.ndarray
    kappa: np.ndarray
    n_trials: int
    mean: dict[float, np.ndarray]
    variance: dict[float, np.ndarray]
    se_mean: dict[float, np.ndarray]
    se_var: dict[float, np.ndarray]


def trials_from_moments(variance: dict, se_var: dict, sources: dict | None = None) -> int:
    """The n_trials behind per-angle variances and their ``se_var``, as a CSV holds them.

    se_var = v * sqrt(2 / (n - 1)) gives n = 1 + 2 (v / se_var)^2 in every bin
    whose variance and se_var are finite and positive.  %.12g keeps each to
    5e-12, so a bin's n is off by at most 2e-11 n: the midrange, rounded, is
    exact below 2.5e10 trials.  Raises ValueError when an angle has no bin
    that carries n, naming it by ``sources[angle]`` (its file, say), or when
    two bins, in one angle or across angles, differ by more than that
    rounding allows.
    """
    ns = []
    for angle, v in variance.items():
        se = se_var[angle]
        usable = np.isfinite(v) & np.isfinite(se) & (v > 0) & (se > 0)
        n = 1.0 + 2.0 * (v[usable] / se[usable]) ** 2
        n = n[np.isfinite(n)]  # a subnormal se_var overflows the ratio
        if n.size == 0:
            where = sources[angle] if sources else f"angle {angle:g}"
            raise ValueError(f"{where}: no bin has a positive variance and se_var to recover "
                             "n_trials from, as in a theory file")
        ns.append(n)
    ns = np.concatenate(ns)
    lo, hi = ns.min(), ns.max()
    if hi - lo > 5e-11 * hi:
        raise ValueError(
            f"variance / se_var implies n_trials from {lo:.6g} to {hi:.6g}; "
            "the moments files must come from one run"
        )
    return round(float(lo + hi) / 2.0)


def _write_moments(path, angle, grid, mean, variance, se_mean, se_var) -> None:
    """Moments-schema rows on the time/kappa grid of ``grid``."""
    bins = np.arange(len(grid.time_us))
    columns = (angle, bins, grid.time_us, grid.kappa, mean, variance, se_mean, se_var)
    write_table(path, MOMENTS_COLUMNS, columns)


def write_moments_csv(path, est: MomentEstimates, angle: float) -> None:
    """One angle's per-bin moments in the flat schema shared with theory files."""
    _write_moments(
        path, angle, est, est.mean[angle], est.variance[angle], est.se_mean[angle], est.se_var[angle]
    )


def write_theory_csv(path, theory: TheoryTraces, angle: float) -> None:
    """Theory predictions in the moments schema; standard errors are zero."""
    _write_moments(path, angle, theory, theory.mean[angle], theory.variance[angle], 0.0, 0.0)


def _write_set(outdir, kind: str, record, write) -> list[Path]:
    paths = [Path(outdir) / f"{kind}_{label_for_angle(a)}.csv" for a in MEASUREMENT_ANGLES]
    for angle, path in zip(MEASUREMENT_ANGLES, paths):
        write(path, record, angle)
    return paths


def write_moments_files(outdir, est: MomentEstimates) -> list[Path]:
    """``est`` as moments_x.csv, moments_p.csv and moments_pi4.csv in ``outdir``; their paths."""
    return _write_set(outdir, "moments", est, write_moments_csv)


def write_theory_files(outdir, theory: TheoryTraces) -> list[Path]:
    """``theory`` as theory_x.csv, theory_p.csv and theory_pi4.csv in ``outdir``; their paths."""
    return _write_set(outdir, "theory", theory, write_theory_csv)


def write_simplified_csv(path, theory: TheoryTraces) -> None:
    """The ideal-gate shortcut 1 + kappa^2 Var(x_out) as the p variance, angle pi/2.

    For a coherent input that is 1 + (kappa^2 / 2)(1/2 + v_s) bit for bit, the
    theory p variance at the default hardware only.  Only the benchmark writes it.
    """
    x, p = MEASUREMENT_ANGLES[:2]
    simplified = 1.0 + theory.kappa**2 * theory.variance[x]
    _write_moments(path, p, theory, theory.mean[p], simplified, 0.0, 0.0)


def read_moments_csv(path) -> dict:
    """Read one moments/theory CSV back into arrays.

    Returns a dict with the scalar ``angle`` and one array per remaining
    column.  The header, the constancy of the angle column and a bin_index
    column that runs 0..n-1 are enforced.
    """
    data = read_table(path, MOMENTS_COLUMNS)
    angles = data.pop("angle_rad")
    # An equality test, not np.unique: np.unique imports numpy.ma, which
    # costs a fresh analyze process 10-15 ms.
    if np.any(angles != angles[0]):
        raise ValueError(f"{path}: mixed angles {np.unique(angles)} in one file")
    off = np.flatnonzero(data["bin_index"] != np.arange(len(angles)))
    if off.size:
        raise ValueError(f"{path}: bin_index {data['bin_index'][off[0]]:g} on line "
                         f"{off[0] + 2}, expected {off[0]}: bins must run 0..{len(angles) - 1}")
    return {"angle": float(angles[0]), **data}


def same_grid(time_a, kappa_a, time_b, kappa_b) -> bool:
    """Whether two bin grids have equal length and time and kappa within 1e-9."""
    return len(time_a) == len(time_b) and all(
        np.allclose(a, b, rtol=0.0, atol=1e-9) for a, b in ((time_a, time_b), (kappa_a, kappa_b))
    )


def _read_set(paths) -> tuple[np.ndarray, np.ndarray, dict, dict]:
    """Three files, each angle once, in any order, on one grid.

    Returns the grid, each column by angle and each file by angle.
    """
    by_angle, files = {}, {}
    for path in paths:
        data = read_moments_csv(path)
        try:
            angle = measurement_angle(data.pop("angle"))
        except ValueError as exc:
            raise ValueError(f"{path}: {exc}") from None
        if angle in by_angle:
            raise ValueError(f"{path}: duplicate angle {angle}")
        by_angle[angle], files[angle] = data, path
    if set(by_angle) != set(MEASUREMENT_ANGLES):
        raise ValueError("need one moments file per angle: x, p, pi/4")
    ref = by_angle[MEASUREMENT_ANGLES[0]]
    for data in by_angle.values():
        if not same_grid(data["time_us"], data["kappa"], ref["time_us"], ref["kappa"]):
            raise ValueError("moments files are on different grids")
    columns = {col: {a: by_angle[a][col] for a in MEASUREMENT_ANGLES} for col in ref}
    return ref["time_us"], ref["kappa"], columns, files


def read_moments(paths) -> MomentEstimates:
    """A run's three moments files, in any order, with n_trials from :func:`trials_from_moments`.

    Raises ValueError, naming the file for a bad file, a repeated angle or a
    file with no bin that carries n (a theory file), and when an angle is
    missing, the grids differ or the files disagree on n_trials.
    """
    time_us, kappa, m, files = _read_set(paths)
    n = trials_from_moments(m["variance"], m["se_var"], files)
    return MomentEstimates(time_us, kappa, n, m["mean"], m["variance"], m["se_mean"], m["se_var"])


def read_theory(paths) -> TheoryTraces:
    """A run's three theory files, in any order; ValueError as :func:`read_moments`."""
    time_us, kappa, t, _ = _read_set(paths)
    return TheoryTraces(time_us, kappa, t["mean"], t["variance"])
