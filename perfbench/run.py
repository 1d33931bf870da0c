"""dynsqueeze benchmark: closed-loop CLI workloads with output checks.

    python3 perfbench/run.py --workload NAME --seed N --seconds S --trace 0|1

One client runs the workload's iteration again and again for S seconds.  An
iteration spawns the real ``dynsqueeze`` CLI subcommands as child processes,
one after another, with the BLAS/OpenMP thread pools capped at the number of
usable cores; ``--seed`` reaches the program as ``simulate --seed``.  Every
iteration's outputs are checked (see ``checks.py``); a nonzero exit code or a
failed check counts the iteration as failed.

``--trace 0`` prints the end-to-end metrics, measured with tracing off.  Their
times are in reference seconds: a calibration child that does not touch the
program runs between iterations, and each time is scaled by ``CAL_REF_S``
over the calibration times around it, so drift in the machine's speed
cancels.
``--trace 1`` runs the same untraced loop for S/2 seconds, then repeats an
in-process traced pass (see ``tracing.py``) for another S/2 seconds, and
prints the per-layer metrics, each the median over the traced passes.

Every metric is printed as a ``name value unit`` line; the last line is one
JSON object with ``correct``, ``attempted``, ``failed`` and ``metrics``.  An
environment record, the per-iteration samples and (traced runs) the spans go
to ``perfbench/out/<workload>-seed<N>-trace<T>/``.
"""

from __future__ import annotations

import argparse
import json
import os
import platform
import shutil
import statistics
import subprocess
import sys
import threading
import time
from dataclasses import dataclass, field
from pathlib import Path

HERE = Path(__file__).resolve().parent
ROOT = HERE.parent
SRC = ROOT / "src"
if not (SRC / "dynsqueeze" / "__init__.py").is_file():
    sys.exit(f"perfbench: no dynsqueeze sources under {SRC}; run from a checkout of the repository")

NPROC = len(os.sched_getaffinity(0))
THREAD_VARS = ("OMP_NUM_THREADS", "OPENBLAS_NUM_THREADS", "MKL_NUM_THREADS")
for _var in THREAD_VARS:
    os.environ[_var] = str(NPROC)
sys.path.insert(0, str(SRC))

import numpy as np  # noqa: E402

import checks  # noqa: E402
import tracing  # noqa: E402
from dynsqueeze.config import config_digest, config_from_dict, save_config  # noqa: E402

OUT_ROOT = HERE / "out"
CHILD = HERE / "child.py"
CALIBRATE = HERE / "calibrate.py"
SETUP_REPEATS = 9
# Median wall time of the calibration child on the reference machine (2-core
# Xeon VM, Python 3.11, numpy 2.4).  End-to-end times are reported in
# reference seconds: each measured time x CAL_REF_S / the mean of the two
# calibration children around it.  That machine's speed drifts by up to a
# third within minutes, which raw medians carry into the run-to-run spread.
CAL_REF_S = 0.33
# Every run must end within 180 s; no child may start or run past this.
HARD_LIMIT_S = 150.0


@dataclass(frozen=True)
class Workload:
    why: str
    config: dict = field(default_factory=dict)
    save_records: bool = False


WORKLOADS = {
    "default-grid": Workload(
        "RunConfig defaults, 200 bins x 10851 trials: shot sampling and moment "
        "reduction dominate and 52 MB of samples fit in L3",
    ),
    # 2000 bins rather than 10000 so that one run holds about ten iterations:
    # at 10000 bins (10 s each) the run medians spread too widely to bound.
    "long-grid": Workload(
        "2000 bins x 1000 trials: per-bin Python loops and CSV I/O outweigh "
        "shot sampling, which is small here",
        {"bins_per_period": 1000, "n_periods": 2, "n_trials": 1000},
    ),
    # 2000 trials rather than 10851 for the same reason: a 50 MB records file
    # left room for five iterations a run, too few for the short children.
    "records-pwl": Workload(
        "200 bins x 2000 trials on the look-up-table electronics with raw records "
        "saved and reloaded: the only workload on the npz and override paths",
        {"use_pwl_electronics": True, "n_trials": 2000},
        save_records=True,
    ),
}

END_TO_END_UNITS = {
    "run_s_p50": "s",
    "run_s_tail": "s",
    "simulate_s": "s",
    "theory_s": "s",
    "analyze_s": "s",
    "samples_per_s": "1/s",
    "peak_rss_mb": "MiB",
    "setup_s": "s",
}

PER_LAYER_UNITS = {
    "config.load_s": "s",
    "gate.calibrate_s": "s",
    "harness.output_states_s": "s",
    "harness.output_states_us_per_bin": "us",
    "harness.theory_s": "s",
    "harness.theory_us_per_bin": "us",
    "harness.sample_s": "s",
    "harness.sample_peak_mb": "MiB",
    "harness.moments_s": "s",
    "harness.csv_write_s": "s",
    "harness.csv_read_s": "s",
    "harness.csv_bytes": "bytes",
    "harness.records_save_s": "s",
    "harness.records_load_s": "s",
    "harness.records_mb": "MiB",
    "electronics.fit_pwl_s": "s",
    "analysis.summarize_s": "s",
    "analysis.write_s": "s",
    "analysis.valid_bin_ratio": "ratio",
    "trace.overhead_s": "s",
}


@dataclass
class Child:
    wall_s: float
    rss_mb: float
    code: int


def spawn(argv: list[str], log: Path, deadline: float) -> Child:
    """Run one child to completion; the child reports its own peak RSS."""
    rss_file = log.with_suffix(".rss")
    rss_file.unlink(missing_ok=True)
    env = {**os.environ, "PYTHONPATH": str(SRC), "PERFBENCH_PEAK_RSS_FILE": str(rss_file)}
    with open(log, "wb") as fh:
        t0 = time.perf_counter()
        proc = subprocess.Popen(argv, stdout=fh, stderr=subprocess.STDOUT, cwd=ROOT, env=env)
        killer = threading.Timer(max(0.0, deadline - time.monotonic()), proc.kill)
        killer.start()
        try:
            _pid, status, usage = os.wait4(proc.pid, 0)
        finally:
            killer.cancel()
        wall = time.perf_counter() - t0
    proc.returncode = os.waitstatus_to_exitcode(status)
    try:
        rss_kb = float(rss_file.read_text())
    except (OSError, ValueError):
        rss_kb = float(usage.ru_maxrss)
    return Child(wall, rss_kb / 1024.0, proc.returncode)


def cli_steps(wl: Workload, cfg, cfg_path: Path, seed: int, work: Path) -> list[tuple[str, list[str]]]:
    cli = [sys.executable, str(CHILD), "cli"]
    files = {kind: [str(work / f"{kind}_{lab}.csv") for lab in checks.LABELS]
             for kind in ("moments", "theory")}
    simulate = [*cli, "simulate", "--config", str(cfg_path), "--seed", str(seed), "--out", str(work)]
    steps = [("simulate", simulate + ["--save-records"] * wl.save_records)]
    if wl.save_records:
        steps += [
            ("reload", [sys.executable, str(CHILD), "reload", str(work / "records.npz"),
                        str(work / "reload")]),
            ("circuits", [*cli, "circuits", "--target", "all", "--segments", str(cfg.pwl_segments),
                          "--range", repr(cfg.pwl_lo), repr(cfg.pwl_hi), "--out", str(work)]),
        ]
    steps += [
        ("theory", [*cli, "theory", "--config", str(cfg_path), "--out", str(work)]),
        ("analyze", [*cli, "analyze", "--out", str(work), "--moments", *files["moments"],
                     "--theory", *files["theory"]]),
    ]
    return steps


@dataclass
class Iteration:
    wall_s: float
    children: dict[str, Child]
    failures: list[str]


def run_iteration(steps, ref, work: Path, deadline: float) -> Iteration:
    shutil.rmtree(work, ignore_errors=True)
    work.mkdir(parents=True)
    children: dict[str, Child] = {}
    t0 = time.perf_counter()
    for name, argv in steps:
        child = children[name] = spawn(argv, work / f"{name}.log", deadline)
        if child.code != 0:
            break
    wall = time.perf_counter() - t0
    bad = [n for n, c in children.items() if c.code != 0]
    if bad:
        tail = (work / f"{bad[0]}.log").read_text(errors="replace")[-400:]
        return Iteration(wall, children, [f"{bad[0]} exited {children[bad[0]].code}: {tail}"])
    return Iteration(wall, children, checks.verify(ref, work))


def tail_index(n: int) -> int:
    """Rank (ascending) of run_s_tail among n samples.

    The highest percentile with at least ten samples beyond it is rank
    n - 11.  With fewer than 22 samples that rank lies at or below the
    median, so the tail falls back to the upper median and the printed
    sample count says so.
    """
    return max(n - 11, n // 2)


def end_to_end(iters: list[Iteration], setups: list[tuple[Child, int]], cals: list[Child],
               cfg) -> tuple[dict, dict, list[str]]:
    """End-to-end metrics in reference seconds, the same in raw seconds, and notes.

    Iteration i runs between calibration children i and i + 1 (so does each
    set-up child, listed with its i); its times are scaled by CAL_REF_S over
    the mean of those two.
    """
    scale = [2.0 * CAL_REF_S / (a.wall_s + b.wall_s) for a, b in zip(cals, cals[1:])]
    ok = [i for i, it in enumerate(iters) if not it.failures]
    good_setups = [(c.wall_s, i) for c, i in setups if c.code == 0]
    if not ok or not good_setups:
        return {}, {}, ["no iteration or no set-up child succeeded"]
    samples = {
        "run_s": [(iters[i].wall_s, i) for i in ok],
        **{f"{n}_s": [(iters[i].children[n].wall_s, i) for i in ok]
           for n in ("simulate", "theory", "analyze")},
        "setup_s": good_setups,
    }
    k = tail_index(len(ok))
    raw, metrics = {}, {}
    for out, rescale in ((raw, False), (metrics, True)):
        for name, pairs in samples.items():
            vals = sorted(t * scale[i] if rescale else t for t, i in pairs)
            if name == "run_s":
                out["run_s_p50"], out["run_s_tail"] = statistics.median(vals), vals[k]
            else:
                out[name] = statistics.median(vals)
    metrics["samples_per_s"] = 3 * cfg.n_trials * cfg.n_bins / metrics["simulate_s"]
    metrics["peak_rss_mb"] = statistics.median(
        max(c.rss_mb for c in iters[i].children.values()) for i in ok)
    notes = [
        f"{len(ok)} good iterations; run_s_tail is rank {k + 1} of {len(ok)} "
        f"({len(ok) - 1 - k} samples beyond it)",
        f"{len(cals)} calibration children, median {statistics.median(c.wall_s for c in cals):.4g} s; "
        f"times scaled to reference seconds by a median factor {statistics.median(scale):.4g}",
        "raw seconds: " + ", ".join(f"{m} {v:.4g}" for m, v in raw.items()),
    ]
    return {m: metrics[m] for m in END_TO_END_UNITS}, raw, notes


def git_commit() -> str | None:
    if not (ROOT / ".git").exists():
        return None
    try:
        res = subprocess.run(["git", "rev-parse", "HEAD"], cwd=ROOT, capture_output=True,
                             text=True, timeout=10)
    except (OSError, subprocess.TimeoutExpired):
        return None
    return res.stdout.strip() if res.returncode == 0 else None


def environment(name: str, seed: int, overrides: dict) -> dict:
    """What two result sets must share to be comparable."""
    return {
        "workload": name,
        "seed": seed,
        "python": platform.python_version(),
        "numpy": np.__version__,
        "nproc": NPROC,
        "thread_caps": {v: os.environ[v] for v in THREAD_VARS},
        "git_commit": git_commit(),
        "config_digest": {
            n: config_digest(config_from_dict({**w.config, **overrides})) for n, w in WORKLOADS.items()
        },
    }


def run_workload(name: str, seed: int, seconds: float, trace: bool,
                 overrides: dict | None = None, out_root: Path = OUT_ROOT) -> dict:
    """Measure one workload; returns the result line plus the run's records."""
    overrides = overrides or {}
    wl = WORKLOADS[name]
    deadline = time.monotonic() + HARD_LIMIT_S
    out = out_root / f"{name}-seed{seed}-trace{int(trace)}"
    shutil.rmtree(out, ignore_errors=True)
    out.mkdir(parents=True)
    cfg = config_from_dict({**wl.config, **overrides})
    cfg_path = out / "config.json"
    save_config(cfg, cfg_path)
    ref = checks.build_reference(cfg, seed, wl.save_records)

    setup_argv = [sys.executable, str(CHILD), "setup", str(cfg_path)]
    calibrate_argv = [sys.executable, str(CALIBRATE)]
    cals = [spawn(calibrate_argv, out / "calibrate.log", deadline)]
    setups: list[tuple[Child, int]] = []
    steps = cli_steps(wl, cfg, cfg_path, seed, out / "work")
    iters: list[Iteration] = []
    failures = []
    # A traced run splits its time between the untraced loop, which only
    # serves trace.overhead_s there, and the traced passes.
    window = seconds / 2 if trace else seconds
    loop_start = time.monotonic()
    while not iters or time.monotonic() < loop_start + window:
        if time.monotonic() >= deadline:
            failures.append("hard time limit reached")
            break
        # Set-up children are spread over the window, between iterations,
        # so that their median sees the same machine as the iterations do.
        if len(setups) < SETUP_REPEATS * (time.monotonic() - loop_start) / window:
            setups.append((spawn(setup_argv, out / "setup.log", deadline), len(iters)))
        iters.append(run_iteration(steps, ref, out / "work", deadline))
        failures += [f"iteration {len(iters)}: {f}" for f in iters[-1].failures]
        cals.append(spawn(calibrate_argv, out / "calibrate.log", deadline))
    while len(setups) < SETUP_REPEATS and time.monotonic() < deadline:
        setups.append((spawn(setup_argv, out / "setup.log", deadline), len(cals) - 1))
        cals.append(spawn(calibrate_argv, out / "calibrate.log", deadline))
    failures += [f"{kind} exited {c.code}" for kind, group in
                 (("setup", [c for c, _ in setups]), ("calibration", cals))
                 for c in group if c.code != 0]
    metrics, raw, notes = end_to_end(iters, setups, cals, cfg)
    attempted = len(iters)
    failed = sum(bool(it.failures) for it in iters)

    spans = []
    if trace and metrics:
        tracer = tracing.Tracer(name)
        passes = []
        loop_end = time.monotonic() + seconds / 2
        pass_s = 0.0
        while not passes or time.monotonic() < min(loop_end, deadline - pass_s):
            t0 = time.monotonic()
            tracer.iteration = len(passes)
            work = out / "traced"
            shutil.rmtree(work, ignore_errors=True)
            work.mkdir()
            layer = tracing.traced_pass(tracer, cfg_path, seed, work, wl.save_records)
            bad = checks.verify(ref, work)
            failures += [f"traced pass {len(passes) + 1}: {f}" for f in bad]
            attempted += 1
            failed += bool(bad)
            layer["trace.overhead_s"] = layer.pop("iteration_s") - raw["run_s_p50"]
            passes.append(layer)
            pass_s = time.monotonic() - t0
        notes.append(f"{len(passes)} traced passes; harness.sample_s is derived "
                     "(run_experiment minus a separate run_output_states)")
        spans = tracer.records()
        metrics = {m: statistics.median(p[m] for p in passes) for m in PER_LAYER_UNITS}
        units = PER_LAYER_UNITS
    else:
        units = END_TO_END_UNITS

    result = {
        "correct": not failures and bool(metrics),
        "attempted": attempted,
        "failed": failed,
        "metrics": {m: {"value": v, "unit": units[m]} for m, v in metrics.items()},
    }
    record = {
        "environment": environment(name, seed, overrides),
        "config": {**wl.config, **overrides},
        "result": result,
        "raw_seconds": raw,
        "notes": notes,
        "failures": failures,
        "failed_ratio": failed / attempted,
        "iterations": [{"wall_s": it.wall_s, "ok": not it.failures,
                        "children": {n: vars(c) for n, c in it.children.items()}}
                       for it in iters],
        "setup_s": [c.wall_s for c, _ in setups],
        "calibration_s": [c.wall_s for c in cals],
    }
    (out / "result.json").write_text(json.dumps(record, indent=1))
    if spans:
        (out / "trace.json").write_text(json.dumps(spans))
    for path in (out / "work" / "records.npz", out / "traced" / "records.npz"):
        path.unlink(missing_ok=True)
    return record


def main(argv=None) -> int:
    parser = argparse.ArgumentParser(description=__doc__.split("\n\n")[0])
    parser.add_argument("--workload", required=True, choices=sorted(WORKLOADS))
    parser.add_argument("--seed", required=True, type=int)
    parser.add_argument("--seconds", required=True, type=float)
    parser.add_argument("--trace", required=True, type=int, choices=(0, 1))
    args = parser.parse_args(argv)
    if args.seed < 0 or args.seconds <= 0:
        parser.error("need --seed >= 0 and --seconds > 0")
    record = run_workload(args.workload, args.seed, args.seconds, bool(args.trace))
    result = record["result"]
    for line in record["notes"] + record["failures"][:20]:
        print(line)
    for m, v in result["metrics"].items():
        print(f"{m} {v['value']:.6g} {v['unit']}")
    print(f"failed_ratio {record['failed_ratio']:.6g} ratio "
          f"({result['failed']} of {result['attempted']} attempted)")
    print(json.dumps(result))
    return 0


if __name__ == "__main__":
    sys.exit(main())
