"""Repeat the benchmark over seeds and summarize each end-to-end metric.

    python3 perfbench/baseline.py [--seeds 1-10] [--workloads a,b] [--out FILE]

Runs ``run.py --trace 0`` once per (workload, seed), one run at a time, and
prints for every metric the median, the quartiles and the spread (distance
between the quartiles as a share of the median).  ``--out`` writes the same
figures, the workload configs and the environment record as JSON; the
committed ``perfbench/baseline.json`` is such a file.
"""

from __future__ import annotations

import argparse
import json
import statistics
import subprocess
import sys
from pathlib import Path

HERE = Path(__file__).resolve().parent
SPEC = json.loads((HERE.parent / "BENCHMARK.json").read_text())


def parse_seeds(text: str) -> list[int]:
    lo, _, hi = text.partition("-")
    return list(range(int(lo), int(hi or lo) + 1))


def summarize(values: list[float]) -> dict:
    q1, q2, q3 = statistics.quantiles(values, n=4)
    return {"median": statistics.median(values), "q1": q1, "q3": q3,
            "spread": (q3 - q1) / statistics.median(values), "values": values}


def main(argv=None) -> int:
    parser = argparse.ArgumentParser(description=__doc__.split("\n\n")[0])
    parser.add_argument("--seeds", default="1-10", help="inclusive range, e.g. 1-10")
    parser.add_argument("--workloads", default=",".join(w["name"] for w in SPEC["workloads"]))
    parser.add_argument("--out", type=Path)
    args = parser.parse_args(argv)
    seeds = parse_seeds(args.seeds)
    if len(seeds) < 2:
        parser.error("need at least two seeds for quartiles")
    bounds = {m["name"]: m["bound"] for m in SPEC["end_to_end"]}
    summary, configs, env, ok = {}, {}, None, True
    for workload in args.workloads.split(","):
        values: dict[str, list[float]] = {}
        for seed in seeds:
            cmd = [sys.executable, str(HERE / "run.py"), "--workload", workload, "--seed", str(seed),
                   "--seconds", str(SPEC["run_seconds"]), "--trace", "0"]
            proc = subprocess.run(cmd, capture_output=True, text=True, timeout=300)
            result = json.loads(proc.stdout.strip().splitlines()[-1])
            if proc.returncode != 0 or not result["correct"] or result["failed"]:
                print(f"{workload} seed {seed}: run failed\n{proc.stdout}{proc.stderr}")
                ok = False
            for name, metric in result["metrics"].items():
                values.setdefault(name, []).append(metric["value"])
            record = json.loads(
                (HERE / "out" / f"{workload}-seed{seed}-trace0" / "result.json").read_text())
            env = {k: v for k, v in record["environment"].items() if k not in ("workload", "seed")}
            configs[workload] = record["config"]
        summary[workload] = {name: summarize(v) for name, v in values.items()}
        for name, s in summary[workload].items():
            flag = "" if name == "setup_s" or s["spread"] <= bounds[name] / 3 else "  (over bound/3)"
            print(f"{workload:13s} {name:14s} median {s['median']:.6g}  q1 {s['q1']:.6g}  "
                  f"q3 {s['q3']:.6g}  spread {s['spread']:.3f} / bound {bounds[name]}{flag}")
    if args.out:
        args.out.write_text(json.dumps({
            "seeds": seeds, "run_seconds": SPEC["run_seconds"], "environment": env,
            "config_overrides": configs, "metrics": summary}, indent=1) + "\n")
    return 0 if ok else 1


if __name__ == "__main__":
    sys.exit(main())
