"""Variance reconstruction and diagonalization from three-angle measurements.

Measuring the x, p and pi/4 quadrature variances determines the full 2x2
covariance of the output mode: the cross term follows from

    sigma_xp = sigma_pi4^2 - (sigma_x^2 + sigma_p^2) / 2.

Diagonalizing that matrix gives the anti-squeezed/squeezed variance pair,
sigma_plus^2 >= sigma_minus^2, and the principal-axis angle phi; the
minimum-variance axis sits at -phi.
"""

from __future__ import annotations

import numpy as np

from .states import SYMMETRY_TOL, variance_to_db
from .tables import (
    MEASUREMENT_ANGLES,
    MomentEstimates,
    TheoryTraces,
    label_for_angle,
    read_table,
    write_table,
)

SUMMARY_COLUMNS = (
    "bin_index",
    "time_us",
    "kappa",
    "sigma_x2",
    "sigma_p2",
    "sigma_pi4_2",
    "sigma_xp",
    "sigma_plus2_db",
    "sigma_minus2_db",
    "phi_rad",
    "valid",
)

RESIDUAL_COLUMNS = (
    "bin_index",
    "time_us",
    "kappa",
    "d_mean_x",
    "d_mean_p",
    "d_mean_pi4",
    "d_var_x",
    "d_var_p",
    "d_var_pi4",
)


def same_grid(time_a, kappa_a, time_b, kappa_b) -> bool:
    """Whether two bin grids have equal length and time and kappa within 1e-9."""
    return len(time_a) == len(time_b) and all(
        np.allclose(a, b, rtol=0.0, atol=1e-9) for a, b in ((time_a, time_b), (kappa_a, kappa_b))
    )


def reconstruct_variance_matrix(sigma_x2, sigma_p2, sigma_pi4_2) -> np.ndarray:
    """2x2 covariance from the three measured quadrature variances.

    Scalars give one (2, 2) matrix; equal-shape arrays give a (..., 2, 2)
    batch, validated as a whole.  The result is not guaranteed
    positive-definite: statistical noise can push the reconstructed cross
    term outside the physical cone.  Callers flag that case instead of
    failing (see :func:`summarize`).
    """
    sx2, sp2, spi4 = np.broadcast_arrays(*(np.asarray(v, dtype=float)
                                           for v in (sigma_x2, sigma_p2, sigma_pi4_2)))
    for name, v in (("sigma_x2", sx2), ("sigma_p2", sp2), ("sigma_pi4_2", spi4)):
        if not np.all(np.isfinite(v)):
            raise ValueError(f"{name} must be finite, got {v[~np.isfinite(v)].flat[0]}")
    if np.any(sx2 <= 0.0) or np.any(sp2 <= 0.0):
        raise ValueError("quadrature variances must be positive")
    c = spi4 - 0.5 * (sx2 + sp2)
    return np.stack([np.stack([sx2, c], axis=-1), np.stack([c, sp2], axis=-1)], axis=-2)


def _spectrum(a, b, c):
    """(sigma_plus^2, sigma_minus^2, phi) of the symmetric [[a, c], [c, b]].

    Elementwise and non-raising: sigma_pm^2 = (a + b)/2 +- hypot((a - b)/2, c),
    with sigma_minus^2 taken as det / sigma_plus^2 because the difference
    loses every digit once sigma_plus^2 / sigma_minus^2 nears 1/eps (|kappa|
    ~ 1e8 for this gate).  The matrix is positive definite exactly where
    sigma_minus^2 > 0.  phi is :func:`diagonalize`'s.
    """
    splus = 0.5 * (a + b) + np.hypot(0.5 * (a - b), c)
    # 0 / 0 only at splus = 0; near isotropy the quotient can pass splus by an ulp.
    # Where a * b or c * c overflows, the same det / splus is taken without them.
    with np.errstate(all="ignore"):
        sminus = (a * b - c * c) / splus
        sminus = np.where(np.isfinite(sminus), sminus, a / splus * (b - c * (c / a)))
        sminus = np.minimum(sminus, splus)
    # -phi is the maximum axis here; a quarter turn, kept in (-pi/2, pi/2],
    # makes it the minimum one.  An isotropic matrix keeps phi = 0.
    phi = 0.5 * np.arctan2(-2.0 * c, a - b)
    turned = phi - np.pi / 2.0
    phi = np.where(turned > -np.pi / 2.0, turned, phi + np.pi / 2.0)
    phi = np.where((a == b) & (c == 0.0), 0.0, phi)
    return splus, sminus, phi


def diagonalize(matrix):
    """Principal variances and axis angle of a 2x2 covariance.

    Returns (sigma_plus^2, sigma_minus^2, phi): sigma_minus^2 <= sigma_plus^2
    are the variances along the axes at -phi and -phi + pi/2, with phi in
    (-pi/2, pi/2].  Wherever sigma_p^2 >= sigma_x^2 (always true for this
    gate on vacuum-variance inputs), phi lies in (-pi/4, pi/4] and is

        phi = (1/2) arctan(-2 sigma_xp / (sigma_x^2 - sigma_p^2)).

    One (2, 2) matrix gives three floats; a (..., 2, 2) batch gives three
    (...) arrays, and one asymmetric member, or one whose sigma_minus^2 is
    not positive, rejects the batch.
    """
    v = np.asarray(matrix, dtype=float)
    if v.shape[-2:] != (2, 2):
        raise ValueError(f"need a 2x2 matrix, got shape {v.shape}")
    a, b, c = v[..., 0, 0], v[..., 1, 1], v[..., 0, 1]
    if np.any(np.abs(c - v[..., 1, 0]) > SYMMETRY_TOL):
        raise ValueError("matrix must be symmetric")
    spectrum = _spectrum(a, b, c)
    if not np.all(spectrum[1] > 0.0):
        raise ValueError("matrix must be positive definite")
    if v.ndim == 2:
        return tuple(float(x) for x in spectrum)
    return spectrum


def scan_extrema(matrix, n_angles: int = 10000) -> tuple[float, float, float, float]:
    """Brute-force scan of the quadrature variance over angles in [0, pi).

    Returns (min_value, argmin_angle, max_value, argmax_angle); used as an
    independent check of :func:`diagonalize`.
    """
    v = np.asarray(matrix, dtype=float)
    angles = np.linspace(0.0, np.pi, n_angles, endpoint=False)
    cs, sn = np.cos(angles), np.sin(angles)
    values = v[0, 0] * cs**2 + v[1, 1] * sn**2 + 2.0 * v[0, 1] * cs * sn
    lo, hi = int(np.argmin(values)), int(np.argmax(values))
    return float(values[lo]), float(angles[lo]), float(values[hi]), float(angles[hi])


def _require_finite(source: str, moment: str, by_angle: dict) -> None:
    """Raise ValueError naming the first angle and bin whose ``moment`` is not finite."""
    for angle in MEASUREMENT_ANGLES:
        v = np.asarray(by_angle[angle], dtype=float)
        bad = np.flatnonzero(~np.isfinite(v))
        if bad.size:
            raise ValueError(
                f"{source}{label_for_angle(angle)} {moment} of bin {bad[0]} is {v[bad[0]]}; "
                f"{moment}s must be finite"
            )


def summarize(
    moments: MomentEstimates, theory: TheoryTraces | None = None
) -> tuple[np.recarray, np.recarray | None]:
    """Reconstruct and diagonalize each bin; optionally attach theory residuals.

    Returns ``(summary, residuals)``: record arrays with one record per bin,
    whose fields are ``SUMMARY_COLUMNS`` and ``RESIDUAL_COLUMNS``, so the
    squeezing levels are in dB as in the CSV.  ``residuals`` (measured minus
    theory) is None without ``theory``.

    Requires all three measurement angles in ``moments``, and every mean and
    variance finite, in ``theory`` too; a non-finite one raises
    ``ValueError`` naming its angle and bin.
    A bin whose sigma_minus^2 is not positive (a noise artifact of finite
    statistics) is flagged ``valid=False`` and carries NaN derived fields,
    sigma_xp too if sigma_x^2 or sigma_p^2 is not positive.  When ``theory``
    is given its grid must match the measured one.
    """
    for angle in MEASUREMENT_ANGLES:
        if angle not in moments.variance:
            raise ValueError(f"moments are missing angle {angle}")
    _require_finite("", "variance", moments.variance)
    _require_finite("", "mean", moments.mean)
    if theory is not None:
        _require_finite("theory ", "variance", theory.variance)
        _require_finite("theory ", "mean", theory.mean)
    sx2, sp2, spi4 = (np.asarray(moments.variance[a], dtype=float) for a in MEASUREMENT_ANGLES)
    grid = (np.arange(len(moments.time_us)), moments.time_us, moments.kappa)
    sxp = np.where((sx2 > 0.0) & (sp2 > 0.0), spi4 - 0.5 * (sx2 + sp2), np.nan)
    splus, sminus, phi = _spectrum(sx2, sp2, sxp)
    valid = sminus > 0.0
    splus, sminus, phi = (np.where(valid, x, np.nan) for x in (splus, sminus, phi))
    plus_db, minus_db = variance_to_db(splus), variance_to_db(sminus)
    summary = np.rec.fromarrays(
        (*grid, sx2, sp2, spi4, sxp, plus_db, minus_db, phi, valid), names=SUMMARY_COLUMNS
    )
    residuals = None
    if theory is not None:
        if not same_grid(theory.time_us, theory.kappa, moments.time_us, moments.kappa):
            raise ValueError("theory and moments are on different grids")
        residuals = np.rec.fromarrays((
            *grid,
            *(moments.mean[a] - theory.mean[a] for a in MEASUREMENT_ANGLES),
            *(moments.variance[a] - theory.variance[a] for a in MEASUREMENT_ANGLES),
        ), names=RESIDUAL_COLUMNS)
    return summary, residuals


def write_summary_csv(path, summary) -> None:
    """A summary record array in the flat schema, one row per bin."""
    write_table(path, SUMMARY_COLUMNS, [summary[name] for name in SUMMARY_COLUMNS])


def write_residuals_csv(path, residuals) -> None:
    write_table(path, RESIDUAL_COLUMNS, [residuals[name] for name in RESIDUAL_COLUMNS])


def read_summary_csv(path) -> np.recarray:
    """Summary CSV back to the record array :func:`summarize` returns."""
    data = read_table(path, SUMMARY_COLUMNS)
    data["bin_index"] = data["bin_index"].astype(int)
    data["valid"] = data["valid"].astype(bool)
    return np.rec.fromarrays(list(data.values()), names=SUMMARY_COLUMNS)
