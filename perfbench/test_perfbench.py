"""Tests of the benchmark itself: every metric is printed, every check can fail.

    python3 -m pytest perfbench -q
"""

from __future__ import annotations

import json
import math
import shutil
import subprocess
import sys
import time
from pathlib import Path

import pytest

import run  # puts src on sys.path and caps the thread pools
import checks
import tracing
from child import reload_records
from dynsqueeze import MEASUREMENT_ANGLES, HomodyneRecordSet, theory_traces
from dynsqueeze.config import config_from_dict, save_config

TINY = {"bins_per_period": 2, "n_periods": 2, "n_trials": 20}
# Enough trials that a doubled variance is far outside the z-bound.
SMALL = {"bins_per_period": 2, "n_periods": 2, "n_trials": 2000}
SEED = 7


def test_benchmark_json_matches_the_runner():
    spec = json.loads((run.ROOT / "BENCHMARK.json").read_text())
    assert {w["name"]: w["why"] for w in spec["workloads"]} == {
        n: w.why for n, w in run.WORKLOADS.items()}
    assert {m["name"]: m["unit"] for m in spec["end_to_end"]} == run.END_TO_END_UNITS
    assert {m["name"]: m["unit"] for m in spec["per_layer"]} == run.PER_LAYER_UNITS


@pytest.mark.parametrize("trace", [0, 1])
@pytest.mark.parametrize("workload", sorted(run.WORKLOADS))
def test_every_metric_is_reported_with_its_unit(tmp_path, workload, trace):
    record = run.run_workload(workload, SEED, 0.5, bool(trace), TINY, tmp_path)
    result = record["result"]
    assert result["correct"], record["failures"]
    assert result["failed"] == 0 and result["attempted"] >= 1
    assert len(record["setup_s"]) == run.SETUP_REPEATS and record["calibration_s"]
    units = run.PER_LAYER_UNITS if trace else run.END_TO_END_UNITS
    assert result["metrics"] == {
        m: {"value": result["metrics"][m]["value"], "unit": u} for m, u in units.items()}
    assert all(math.isfinite(v["value"]) for v in result["metrics"].values())
    env = record["environment"]
    assert env["seed"] == SEED and set(env["config_digest"]) == set(run.WORKLOADS)
    assert {"python", "numpy", "nproc", "thread_caps", "git_commit"} <= set(env)
    out = tmp_path / f"{workload}-seed{SEED}-trace{trace}"
    assert json.loads((out / "result.json").read_text())["result"] == result
    if trace:
        spans = json.loads((out / "trace.json").read_text())
        assert {"name", "start", "end", "parent", "workload", "iteration", "self"} <= set(spans[0])
        assert all(s["self"] <= s["duration"] + 1e-12 for s in spans)


def test_failed_child_counts_as_failed_iteration(tmp_path):
    steps = [("simulate", [sys.executable, "-c", "import sys; sys.exit(3)"])]
    it = run.run_iteration(steps, None, tmp_path / "work", deadline=time.monotonic() + 60)
    assert it.failures and "exited 3" in it.failures[0]


def test_tail_never_drops_below_the_median():
    assert run.tail_index(3) == 1
    assert run.tail_index(21) == 10
    assert run.tail_index(40) == 29  # ten samples beyond rank 30 of 40


def test_self_time_subtracts_covered_child_time():
    tracer = tracing.Tracer("w")
    with tracer.span("outer"):
        with tracer.span("inner"):
            pass
    outer, inner = tracer.records()
    assert inner["parent"] == outer["id"]
    assert outer["self"] == pytest.approx(outer["duration"] - inner["duration"])


def test_z_bounds_hold_the_stated_false_alarm_rate():
    stats = pytest.importorskip("scipy.stats")
    for n in (20, 1000, 10851):
        z = checks.z_bound(checks.mean_tail, n)
        assert 0.5 * checks.ALPHA < 2 * stats.t.sf(z, n - 1) <= 1.01 * checks.ALPHA
        z = checks.z_bound(checks.var_tail, n)
        k, c = n - 1, math.sqrt(2.0 / (n - 1))
        exact = stats.chi2.cdf(k / (1 + z * c), k)
        if z * c < 1:
            exact += stats.chi2.sf(k / (1 - z * c), k)
        assert exact <= 1.01 * checks.ALPHA


@pytest.fixture(scope="module")
def clean(tmp_path_factory):
    """A correct records-pwl output directory (every check applies) and its reference."""
    root = tmp_path_factory.mktemp("clean")
    cfg = config_from_dict({**run.WORKLOADS["records-pwl"].config, **SMALL})
    save_config(cfg, root / "config.json")
    work = root / "work"
    work.mkdir()
    tracing.traced_pass(tracing.Tracer("records-pwl"), root / "config.json", SEED, work, True)
    ref = checks.build_reference(cfg, SEED, records=True)
    assert checks.verify(ref, work) == []
    return ref, work


def _edit(path: Path, row: int, column: str, fn) -> None:
    lines = path.read_text().splitlines()
    header = lines[0].split(",")
    fields = lines[row + 1].split(",")
    i = header.index(column)
    fields[i] = repr(float(fn(float(fields[i]))))
    lines[row + 1] = ",".join(fields)
    path.write_text("\n".join(lines) + "\n")


def _scale_variance(work: Path, factor: float) -> None:
    """Scale one variance and its standard errors together, as a real estimate would."""
    for col in ("variance", "se_var"):
        _edit(work / "moments_p.csv", 1, col, lambda v: v * factor)
    _edit(work / "moments_p.csv", 1, "se_mean", lambda v: v * math.sqrt(factor))


def _shift_mean(work: Path) -> None:
    data = checks.read_moments_csv(work / "moments_x.csv")
    _edit(work / "moments_x.csv", 2, "mean", lambda v: v + 20 * data["se_mean"][2])


def _change_sample(work: Path) -> None:
    rec = HomodyneRecordSet.load(work / "records.npz")
    angle = rec.angles[0]
    block = rec.samples[angle].copy()
    block[5, 1] += 1.0
    rec.samples[angle] = block
    rec.save(work / "records.npz")
    reload_records(work / "records.npz", work / "reload")


def _edit_info(key, value):
    def perturb(work: Path) -> None:
        path = work / "reload" / "info.json"
        info = json.loads(path.read_text())
        info[key] = value
        path.write_text(json.dumps(info))
    return perturb


def _edit_table(work: Path) -> None:
    path = work / "pwl_arctan.txt"
    lines = path.read_text().splitlines()
    x, y = lines[3].split()
    lines[3] = f"{x} {float(y) + 1e-6!r}"
    path.write_text("\n".join(lines) + "\n")


PERTURBATIONS = {
    "variance x2": (lambda w: _scale_variance(w, 2.0), "variance z-test"),
    "variance x2, standard errors kept": (
        lambda w: _edit(w / "moments_p.csv", 1, "variance", lambda v: 2 * v),
        "standard errors do not follow"),
    "mean + 20 se": (_shift_mean, "mean z-test"),
    "theory off by 1e-8": (
        lambda w: _edit(w / "theory_pi4.csv", 0, "variance", lambda v: v * (1 + 1e-8)),
        "reference route"),
    "summary variance": (
        lambda w: _edit(w / "summary.csv", 3, "sigma_x2", lambda v: v * 1.001), "sigma_x2"),
    "residual": (
        lambda w: _edit(w / "residuals.csv", 0, "d_var_p", lambda v: v + 1e-6), "d_var_p"),
    "one record sample": (_change_sample, "not bit-identical"),
    "records seed": (_edit_info("seed", SEED + 1), "seed"),
    "records digest": (_edit_info("config_digest", "0" * 64), "config digest"),
    "records shape": (_edit_info("shape", {"x": [1, 4], "p": [1, 4], "pi4": [1, 4]}), "shapes"),
    "reloaded moments": (
        lambda w: _edit(w / "reload" / "moments_pi4.csv", 0, "mean", lambda v: v + 1e-9),
        "reloaded records"),
    "look-up table": (_edit_table, "pwl_arctan.txt"),
    "missing file": (lambda w: (w / "residuals.csv").unlink(), "unreadable output"),
}


@pytest.mark.parametrize("name", sorted(PERTURBATIONS))
def test_each_check_trips_on_a_perturbed_output(clean, tmp_path, name):
    ref, work = clean
    copy = tmp_path / "work"
    shutil.copytree(work, copy)
    perturb, message = PERTURBATIONS[name]
    perturb(copy)
    failures = checks.verify(ref, copy)
    assert any(message in f for f in failures), failures


def test_dual_route_check_compares_theory_with_the_pipeline():
    cfg = config_from_dict({**run.WORKLOADS["default-grid"].config, **SMALL})
    ref = checks.build_reference(cfg, SEED, records=False)
    assert ref.theory_mean is ref.mean and ref.theory_var is ref.var
    th = theory_traces(cfg)
    theory = {lab: {"time_us": th.time_us, "kappa": th.kappa, "mean": th.mean[a],
                    "variance": th.variance[a]}
              for lab, a in zip(checks.LABELS, MEASUREMENT_ANGLES)}
    assert checks.check_theory(ref, theory) == []
    theory["p"]["variance"] = theory["p"]["variance"] * (1 + 1e-8)
    assert any("reference route" in f for f in checks.check_theory(ref, theory))


def test_benchmark_refuses_to_run_without_the_program(tmp_path):
    shutil.copy(run.ROOT / "BENCHMARK.json", tmp_path)
    shutil.copytree(Path(run.__file__).parent, tmp_path / "perfbench",
                    ignore=shutil.ignore_patterns("out", "__pycache__"))
    proc = subprocess.run(
        [sys.executable, "perfbench/run.py", "--workload", "default-grid", "--seed", "1",
         "--seconds", "1", "--trace", "0"],
        cwd=tmp_path, capture_output=True, text=True, timeout=60,
    )
    assert proc.returncode != 0
    assert '"correct"' not in proc.stdout

