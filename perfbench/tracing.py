"""In-process traced pass: the CLI steps of one iteration, one span per call.

The pass calls the same public functions the CLI subcommands call, in the
same order, and writes the same files, so ``checks.verify`` applies to its
outputs unchanged.  Spans are recorded from here, around the calls into each
layer; nothing inside the program is instrumented.
"""

from __future__ import annotations

import contextlib
import time
import tracemalloc
from pathlib import Path

from dynsqueeze import (
    MEASUREMENT_ANGLES,
    HomodyneRecordSet,
    MomentEstimates,
    TheoryTraces,
    calibrate_signs,
    config_digest,
    diagonalize,
    estimate_moments,
    fit_pwl,
    load_config,
    reconstruct_variance_matrix,
    run_experiment,
    run_output_states,
    save_pwl_table,
    summarize,
    theory_traces,
    variance_to_db,
)
from dynsqueeze.analysis import write_residuals_csv, write_summary_csv
from dynsqueeze.electronics import TARGETS, max_error
from dynsqueeze.harness import (
    label_for_angle,
    read_moments_csv,
    write_moments_csv,
    write_simplified_csv,
    write_theory_csv,
)

from child import reload_records

MIB = 2.0**20

# Files the CLI steps write whose total size is harness.csv_bytes.
CSV_FILES = tuple(
    f"{kind}_{label_for_angle(a)}.csv" for kind in ("moments", "theory") for a in MEASUREMENT_ANGLES
) + ("theory_p_simplified.csv", "summary.csv", "residuals.csv")


class Tracer:
    """Spans kept in memory and written out once, when the run ends."""

    def __init__(self, workload: str):
        self.workload = workload
        self.iteration = 0
        self.spans: list[dict] = []
        self._open: list[int] = []

    @contextlib.contextmanager
    def span(self, name: str):
        rec = {
            "id": len(self.spans),
            "name": name,
            "parent": self._open[-1] if self._open else None,
            "workload": self.workload,
            "iteration": self.iteration,
            "start": time.perf_counter(),
            "end": None,
        }
        self.spans.append(rec)
        self._open.append(rec["id"])
        try:
            yield rec
        finally:
            rec["end"] = time.perf_counter()
            self._open.pop()

    def durations(self, name: str) -> list[float]:
        """Durations of the current iteration's spans called ``name``, in order."""
        return [s["end"] - s["start"] for s in self.spans
                if s["name"] == name and s["iteration"] == self.iteration]

    def records(self) -> list[dict]:
        """Every span with its duration and self time (duration minus the
        part of it that child spans cover)."""
        children: dict[int, list[tuple[float, float]]] = {}
        for s in self.spans:
            if s["parent"] is not None:
                children.setdefault(s["parent"], []).append((s["start"], s["end"]))
        out = []
        for s in self.spans:
            covered, reach = 0.0, s["start"]
            for a, b in sorted(children.get(s["id"], [])):
                a, b = max(a, reach), min(b, s["end"])
                if b > a:
                    covered += b - a
                    reach = b
            duration = s["end"] - s["start"]
            out.append({**s, "duration": duration, "self": duration - covered})
        return out


def traced_pass(tracer: Tracer, cfg_path: Path, seed: int, work: Path, save_records: bool) -> dict:
    """One traced iteration in ``work``; returns the per-layer metrics it gives.

    Layers the workload's CLI steps do not reach (records save/load and the
    look-up-table fit on most workloads), the separate run_output_states call
    that ``harness.sample_s`` needs and the tracemalloc run that gives
    ``harness.sample_peak_mb`` are probed after the iteration span, so
    ``trace.overhead_s`` compares like with like.
    """
    span = tracer.span
    with span("iteration") as iteration:
        # simulate [--save-records]
        with span("cli.simulate"):
            with span("config.load"):
                cfg = load_config(cfg_path)
                config_digest(cfg)
            with span("gate.calibrate"):
                calibrate_signs()
            with span("harness.run_experiment"):
                records = run_experiment(cfg, seed)
            with span("harness.estimate_moments"):
                est = estimate_moments(records)
            with span("harness.csv_write"):
                for angle in MEASUREMENT_ANGLES:
                    write_moments_csv(work / f"moments_{label_for_angle(angle)}.csv", est, angle)
            if save_records:
                with span("harness.records_save"):
                    records.save(work / "records.npz")
        if save_records:
            with span("child.reload"):
                reload_records(work / "records.npz", work / "reload", span)
            with span("cli.circuits"):
                with span("electronics.fit_pwl"):
                    tables = {t: fit_pwl(t, cfg.pwl_segments, cfg.pwl_lo, cfg.pwl_hi)
                              for t in sorted(TARGETS)}
                for target, table in tables.items():
                    max_error(table, target)
                    save_pwl_table(table, work / f"pwl_{target}.txt")
        # theory
        with span("cli.theory"):
            with span("config.load"):
                cfg = load_config(cfg_path)
                config_digest(cfg)
            with span("harness.theory_traces"):
                th = theory_traces(cfg)
            with span("harness.csv_write"):
                for angle in MEASUREMENT_ANGLES:
                    write_theory_csv(work / f"theory_{label_for_angle(angle)}.csv", th, angle)
                write_simplified_csv(work / "theory_p_simplified.csv", th)
            with span("analysis.theory_extrema"):
                x, p, pi4 = MEASUREMENT_ANGLES
                for b in range(len(th.time_us)):
                    v = reconstruct_variance_matrix(th.variance[x][b], th.variance[p][b],
                                                    th.variance[pi4][b])
                    variance_to_db(diagonalize(v)[1])
        # analyze --theory
        with span("cli.analyze"):
            with span("harness.csv_read"):
                measured = {a: read_moments_csv(work / f"moments_{label_for_angle(a)}.csv")
                            for a in MEASUREMENT_ANGLES}
                predicted = {a: read_moments_csv(work / f"theory_{label_for_angle(a)}.csv")
                             for a in MEASUREMENT_ANGLES}
            ref = measured[MEASUREMENT_ANGLES[0]]
            est_read = MomentEstimates(
                ref["time_us"], ref["kappa"], cfg.n_trials,
                {a: d["mean"] for a, d in measured.items()},
                {a: d["variance"] for a, d in measured.items()},
                {a: d["se_mean"] for a, d in measured.items()},
                {a: d["se_var"] for a, d in measured.items()},
            )
            th_read = TheoryTraces(
                ref["time_us"], ref["kappa"],
                {a: d["mean"] for a, d in predicted.items()},
                {a: d["variance"] for a, d in predicted.items()},
                th.p_variance_simplified,
            )
            with span("analysis.summarize"):
                rows, residuals = summarize(est_read, th_read)
            with span("analysis.write"):
                write_summary_csv(work / "summary.csv", rows)
                write_residuals_csv(work / "residuals.csv", residuals)

    with span("probe.harness.run_output_states"):
        run_output_states(cfg)
    if not save_records:
        with span("probe.records"):
            with span("harness.records_save"):
                records.save(work / "records.npz")
            with span("harness.records_load"):
                HomodyneRecordSet.load(work / "records.npz")
        with span("probe.electronics.fit_pwl"):
            for target in sorted(TARGETS):
                fit_pwl(target, cfg.pwl_segments, cfg.pwl_lo, cfg.pwl_hi)
    del records
    # tracemalloc slows the per-bin loop several times over, so the memory
    # peak comes from a call of its own rather than from the timed one.
    with span("probe.harness.run_experiment.tracemalloc"):
        tracemalloc.start()
        try:
            run_experiment(cfg, seed)
            sample_peak = tracemalloc.get_traced_memory()[1]
        finally:
            tracemalloc.stop()

    def one(name):
        return tracer.durations(name)[0]

    n_bins = cfg.n_bins
    fit = tracer.durations("electronics.fit_pwl") or tracer.durations("probe.electronics.fit_pwl")
    output_states = one("probe.harness.run_output_states")
    return {
        "config.load_s": one("config.load"),
        "gate.calibrate_s": one("gate.calibrate"),
        "harness.output_states_s": output_states,
        "harness.output_states_us_per_bin": output_states / n_bins * 1e6,
        "harness.theory_s": one("harness.theory_traces"),
        "harness.theory_us_per_bin": one("harness.theory_traces") / n_bins * 1e6,
        "harness.sample_s": one("harness.run_experiment") - output_states,
        "harness.sample_peak_mb": sample_peak / MIB,
        "harness.moments_s": one("harness.estimate_moments"),
        "harness.csv_write_s": sum(tracer.durations("harness.csv_write")),
        "harness.csv_read_s": one("harness.csv_read"),
        "harness.csv_bytes": sum((work / f).stat().st_size for f in CSV_FILES),
        "harness.records_save_s": one("harness.records_save"),
        "harness.records_load_s": one("harness.records_load"),
        "harness.records_mb": (work / "records.npz").stat().st_size / MIB,
        "electronics.fit_pwl_s": fit[0],
        "analysis.summarize_s": one("analysis.summarize"),
        "analysis.write_s": one("analysis.write"),
        "analysis.valid_bin_ratio": sum(r.valid for r in rows) / len(rows),
        "iteration_s": iteration["end"] - iteration["start"],
    }
