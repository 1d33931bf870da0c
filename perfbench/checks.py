"""Output checks run on every benchmark iteration.

Each ``check_*`` function returns a list of failure messages; an empty list
means the outputs it looked at are correct.  The expected values come from a
:class:`Reference`, built once per run outside the timed loop.
"""

from __future__ import annotations

import json
import math
from dataclasses import dataclass
from pathlib import Path

import numpy as np

from dynsqueeze import (
    MEASUREMENT_ANGLES,
    RunConfig,
    config_digest,
    fit_pwl,
    load_pwl_table,
    quadrature_mean,
    quadrature_variance,
    run_experiment,
    run_output_states,
    theory_traces,
)
from dynsqueeze.analysis import RESIDUAL_COLUMNS, read_summary_csv
from dynsqueeze.electronics import TARGETS
from dynsqueeze.harness import label_for_angle, read_moments_csv

from child import sample_sha256

LABELS = tuple(label_for_angle(a) for a in MEASUREMENT_ANGLES)

# False-alarm probability of one per-bin z-test.  A run makes at most a few
# 10^5 of them, so a correct program trips a run far less than once in 10^4.
ALPHA = 1e-12

# The dual-route agreement tolerance of acceptance criterion 04.
ROUTE_TOL = 1e-9


def _normal_sf(z: float) -> float:
    return 0.5 * math.erfc(z / math.sqrt(2.0))


def mean_tail(z: float, n: int) -> float:
    """P(|t| > z) for a sample mean standardized by its own standard error.

    The statistic is Student-t with n - 1 degrees of freedom; the tail uses
    the Peizer-Pratt normal approximation, which is accurate far out.
    """
    k = n - 1
    zn = (k - 2.0 / 3.0 + 0.1 / k) * math.sqrt(math.log1p(z * z / k) / (k - 5.0 / 6.0))
    return 2.0 * _normal_sf(zn)


def var_tail(z: float, n: int) -> float:
    """P(|s^2 - v| > z * se_var) with se_var = s^2 sqrt(2 / (n - 1)).

    s^2 / v is chi-square over its n - 1 degrees of freedom (Wilson-Hilferty
    approximation).  The se is built from s^2 itself, so the test is
    lopsided: it trips low at s^2 / v < 1 / (1 + z c) and high at
    s^2 / v > 1 / (1 - z c), c = sqrt(2 / (n - 1)).
    """
    k = n - 1
    c = math.sqrt(2.0 / k)
    mu, sd = 1.0 - 2.0 / (9.0 * k), math.sqrt(2.0 / (9.0 * k))

    def wh(ratio):
        return (ratio ** (1.0 / 3.0) - mu) / sd

    p = _normal_sf(-wh(1.0 / (1.0 + z * c)))
    if z * c < 1.0:
        p += _normal_sf(wh(1.0 / (1.0 - z * c)))
    return p


def z_bound(tail, n: int, alpha: float = ALPHA) -> float:
    """Smallest z (to 1e-9) whose two-sided tail probability is <= alpha."""
    lo, hi = 0.0, 1e4
    while hi - lo > 1e-9:
        mid = 0.5 * (lo + hi)
        lo, hi = (mid, hi) if tail(mid, n) > alpha else (lo, mid)
    return hi


@dataclass(frozen=True)
class Reference:
    """Expected outputs of one workload, computed in-process by the program.

    ``mean``/``var`` are the moments of the pipeline-route output states the
    shots are drawn from.  ``theory_mean``/``theory_var`` are what the theory
    files must hold: the same pipeline moments under exact electronics (the
    dual-route check), and ``theory_traces`` itself under the look-up tables,
    which the closed form does not model.
    """

    n_bins: int
    n_trials: int
    seed: int
    digest: str
    time_us: np.ndarray
    kappa: np.ndarray
    mean: dict
    var: dict
    theory_mean: dict
    theory_var: dict
    z_mean: float
    z_var: float
    records_sha256: dict | None = None
    tables: dict | None = None


def build_reference(cfg: RunConfig, seed: int, records: bool) -> Reference:
    states = run_output_states(cfg)
    mean = {lab: np.array([quadrature_mean(s, a) for s in states])
            for lab, a in zip(LABELS, MEASUREMENT_ANGLES)}
    var = {lab: np.array([quadrature_variance(s, a) for s in states])
           for lab, a in zip(LABELS, MEASUREMENT_ANGLES)}
    th = theory_traces(cfg)
    if cfg.use_pwl_electronics:
        theory_mean = {lab: th.mean[a] for lab, a in zip(LABELS, MEASUREMENT_ANGLES)}
        theory_var = {lab: th.variance[a] for lab, a in zip(LABELS, MEASUREMENT_ANGLES)}
    else:
        theory_mean, theory_var = mean, var
    sha = tables = None
    if records:
        rec = run_experiment(cfg, seed)
        sha = {label_for_angle(a): sample_sha256(b) for a, b in rec.samples.items()}
        del rec
        tables = {t: fit_pwl(t, cfg.pwl_segments, cfg.pwl_lo, cfg.pwl_hi) for t in sorted(TARGETS)}
    return Reference(
        cfg.n_bins, cfg.n_trials, seed, config_digest(cfg), th.time_us, th.kappa,
        mean, var, theory_mean, theory_var,
        z_bound(mean_tail, cfg.n_trials), z_bound(var_tail, cfg.n_trials), sha, tables,
    )


def _grid(ref: Reference, name: str, data: dict) -> list[str]:
    if len(data["time_us"]) != ref.n_bins:
        return [f"{name}: {len(data['time_us'])} bins, want {ref.n_bins}"]
    if not (np.allclose(data["time_us"], ref.time_us, rtol=1e-11, atol=1e-12)
            and np.allclose(data["kappa"], ref.kappa, rtol=1e-11, atol=1e-12)):
        return [f"{name}: time/kappa grid differs from the configured one"]
    return []


def check_moments(ref: Reference, moments: dict) -> list[str]:
    """Sampled moments lie within the z-bound of the states they came from.

    Also checks that the standard-error columns are the ones the variance
    column implies, so inflating them cannot widen the test.
    """
    fails = []
    n = ref.n_trials
    for lab in LABELS:
        d = moments[lab]
        name = f"moments_{lab}.csv"
        grid = _grid(ref, name, d)
        if grid:
            fails += grid
            continue
        if not (np.allclose(d["se_mean"], np.sqrt(d["variance"] / n), rtol=1e-9)
                and np.allclose(d["se_var"], d["variance"] * np.sqrt(2.0 / (n - 1)), rtol=1e-9)):
            fails.append(f"{name}: standard errors do not follow from the variances")
        with np.errstate(divide="ignore", invalid="ignore"):
            zm = np.abs(d["mean"] - ref.mean[lab]) / d["se_mean"]
            zv = np.abs(d["variance"] - ref.var[lab]) / d["se_var"]
        for what, z, bound in (("mean", zm, ref.z_mean), ("variance", zv, ref.z_var)):
            bad = ~(z <= bound)
            if bad.any():
                b = int(np.argmax(np.where(bad, np.nan_to_num(z, nan=np.inf), -1.0)))
                fails.append(f"{name}: {int(bad.sum())} bins fail the {what} z-test "
                             f"(bin {b}: z = {z[b]:.3g} > {bound:.3g})")
    return fails


def check_theory(ref: Reference, theory: dict) -> list[str]:
    """Theory files agree per bin with the reference route to ROUTE_TOL."""
    fails = []
    for lab in LABELS:
        d = theory[lab]
        name = f"theory_{lab}.csv"
        grid = _grid(ref, name, d)
        if grid:
            fails += grid
            continue
        for what, got, want in (("mean", d["mean"], ref.theory_mean[lab]),
                                ("variance", d["variance"], ref.theory_var[lab])):
            err = np.abs(got - want) / np.maximum(1.0, np.abs(want))
            if not np.all(err <= ROUTE_TOL):
                fails.append(f"{name}: {what} differs from the reference route by "
                             f"{np.nanmax(err):.3g} (> {ROUTE_TOL:g})")
    return fails


def read_residuals(path) -> dict:
    lines = Path(path).read_text().splitlines()
    if not lines or lines[0].split(",") != list(RESIDUAL_COLUMNS):
        raise ValueError(f"{path}: unexpected header")
    data = np.array([[float(v) for v in ln.split(",")] for ln in lines[1:]], ndmin=2)
    if data.shape[1] != len(RESIDUAL_COLUMNS):
        raise ValueError(f"{path}: expected {len(RESIDUAL_COLUMNS)} fields per row")
    return {col: data[:, i] for i, col in enumerate(RESIDUAL_COLUMNS)}


def check_analysis(ref: Reference, moments: dict, theory: dict, summary: dict,
                   residuals: dict) -> list[str]:
    """summary.csv and residuals.csv are consistent with the files they came from."""
    fails = []
    if len(summary["bin_index"]) != ref.n_bins or not np.array_equal(
            summary["bin_index"], np.arange(ref.n_bins)):
        return [f"summary.csv: bins are not 0..{ref.n_bins - 1}"]
    for col, lab in (("sigma_x2", "x"), ("sigma_p2", "p"), ("sigma_pi4_2", "pi4")):
        if not np.allclose(summary[col], moments[lab]["variance"], rtol=1e-11, atol=0.0):
            fails.append(f"summary.csv: {col} is not the measured {lab} variance")
    valid = summary["valid"]
    if not np.all(np.isfinite(summary["sigma_minus2_db"][valid])):
        fails.append("summary.csv: valid bin without a squeezing level")
    if np.any(np.isfinite(summary["sigma_minus2_db"][~valid])):
        fails.append("summary.csv: flagged bin carries a squeezing level")
    if len(residuals["bin_index"]) != ref.n_bins:
        return fails + [f"residuals.csv: {len(residuals['bin_index'])} rows, want {ref.n_bins}"]
    for lab in LABELS:
        for kind, col in (("mean", "d_mean"), ("variance", "d_var")):
            want = moments[lab][kind] - theory[lab][kind]
            if not np.allclose(residuals[f"{col}_{lab}"], want, rtol=1e-9, atol=1e-10):
                fails.append(f"residuals.csv: {col}_{lab} is not measured minus theory")
    return fails


def check_records(ref: Reference, info_path, moments: dict, reloaded: dict) -> list[str]:
    """Reloaded records are the ones simulated; re-estimated moments match the CSVs."""
    info = json.loads(Path(info_path).read_text())
    fails = []
    want_shape = [ref.n_trials, ref.n_bins]
    if sorted(info["shape"]) != sorted(LABELS) or any(
            s != want_shape for s in info["shape"].values()):
        fails.append(f"records.npz: shapes {info['shape']}, want {want_shape} per angle")
    if info["seed"] != ref.seed:
        fails.append(f"records.npz: seed {info['seed']}, want {ref.seed}")
    if info["config_digest"] != ref.digest:
        fails.append("records.npz: config digest differs from the run's")
    if info["sha256"] != ref.records_sha256:
        fails.append("records.npz: samples are not bit-identical to the simulated ones")
    for lab in LABELS:
        for col in ("mean", "variance", "se_mean", "se_var"):
            if not np.array_equal(reloaded[lab][col], moments[lab][col]):
                fails.append(f"reloaded records: {col} at {lab} differs from moments_{lab}.csv")
    return fails


def check_tables(ref: Reference, work: Path) -> list[str]:
    """Exported look-up tables are the fits, to the 12 digits the file keeps."""
    fails = []
    for target, fit in ref.tables.items():
        path = work / f"pwl_{target}.txt"
        got = load_pwl_table(path)
        for what, a, b in (("xs", got.xs, fit.xs), ("ys", got.ys, fit.ys)):
            want = np.array([float(f"{v:.12g}") for v in b])
            if a.shape != want.shape or not np.array_equal(a, want):
                fails.append(f"{path.name}: {what} differ from the fitted table")
    return fails


def _read_set(work: Path, prefix: str) -> dict:
    return {lab: read_moments_csv(work / f"{prefix}_{lab}.csv") for lab in LABELS}


def verify(ref: Reference, work: Path) -> list[str]:
    """Run every check that applies to the files one iteration left in ``work``."""
    try:
        moments = _read_set(work, "moments")
        theory = _read_set(work, "theory")
        summary = read_summary_csv(work / "summary.csv")
        residuals = read_residuals(work / "residuals.csv")
        fails = (check_moments(ref, moments) + check_theory(ref, theory)
                 + check_analysis(ref, moments, theory, summary, residuals))
        if ref.records_sha256 is not None:
            reloaded = _read_set(work / "reload", "moments")
            fails += check_records(ref, work / "reload" / "info.json", moments, reloaded)
            fails += check_tables(ref, work)
    except (OSError, ValueError, KeyError, IndexError) as exc:
        return [f"unreadable output: {type(exc).__name__}: {exc}"]
    return fails
