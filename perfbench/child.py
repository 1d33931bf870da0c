"""Entry point of every child process the benchmark times.

    python3 perfbench/child.py cli SUBCOMMAND [ARGS...]
        the dynsqueeze CLI itself, run as ``python -m dynsqueeze.cli`` would.
    python3 perfbench/child.py setup CONFIG
        import dynsqueeze, load the config and run the sign calibration: the
        fixed cost every CLI run pays before its first bin.
    python3 perfbench/child.py reload RECORDS_NPZ OUTDIR
        reload raw records, estimate the moments again and write them as
        moments CSVs plus an ``info.json`` with shapes, seed, digest and a
        SHA-256 of each sample block.

The parent puts ``src`` on PYTHONPATH.  When PERFBENCH_PEAK_RSS_FILE is set,
the child writes its own peak RSS (VmHWM, in kB) there at exit: wait4's
ru_maxrss would also count the parent's memory, which a child carries until
it execs.
"""

from __future__ import annotations

import atexit
import contextlib
import hashlib
import json
import os
import runpy
import sys
from pathlib import Path

import numpy as np

from dynsqueeze import HomodyneRecordSet, calibrate_signs, config_digest, estimate_moments, load_config
from dynsqueeze.harness import label_for_angle, write_moments_csv


def _no_span(_name):
    return contextlib.nullcontext()


def sample_sha256(block: np.ndarray) -> str:
    return hashlib.sha256(np.ascontiguousarray(block)).hexdigest()


def setup(config_path) -> None:
    cfg = load_config(config_path)
    config_digest(cfg)
    calibrate_signs()


def reload_records(npz_path, outdir, span=_no_span) -> dict:
    """Reload ``npz_path``, re-estimate its moments into ``outdir``; return the info record."""
    outdir = Path(outdir)
    outdir.mkdir(parents=True, exist_ok=True)
    with span("harness.records_load"):
        records = HomodyneRecordSet.load(npz_path)
    with span("harness.estimate_moments"):
        est = estimate_moments(records)
    with span("reload.csv_write"):
        for angle in records.angles:
            write_moments_csv(outdir / f"moments_{label_for_angle(angle)}.csv", est, angle)
    info = {
        "shape": {label_for_angle(a): list(b.shape) for a, b in records.samples.items()},
        "seed": records.seed,
        "config_digest": records.config_digest,
        "sha256": {label_for_angle(a): sample_sha256(b) for a, b in records.samples.items()},
    }
    (outdir / "info.json").write_text(json.dumps(info))
    return info


def _write_peak_rss(path: str) -> None:
    for line in Path("/proc/self/status").read_text().splitlines():
        if line.startswith("VmHWM:"):
            Path(path).write_text(line.split()[1])


def main(argv) -> int:
    if os.environ.get("PERFBENCH_PEAK_RSS_FILE"):
        atexit.register(_write_peak_rss, os.environ["PERFBENCH_PEAK_RSS_FILE"])
    if argv[:1] == ["cli"]:
        sys.argv = ["dynsqueeze", *argv[1:]]
        runpy.run_module("dynsqueeze.cli", run_name="__main__", alter_sys=True)
    elif argv[:1] == ["setup"] and len(argv) == 2:
        setup(argv[1])
    elif argv[:1] == ["reload"] and len(argv) == 3:
        reload_records(argv[1], argv[2])
    else:
        print(__doc__, file=sys.stderr)
        return 1
    return 0


if __name__ == "__main__":
    sys.exit(main(sys.argv[1:]))
