"""Fixed reference work that tells how fast the machine is right now.

    python3 perfbench/calibrate.py

The benchmark times this child before every iteration.  It imports numpy
but not dynsqueeze, so no change to the program can move it, and its mix
resembles a CLI subcommand: interpreter start-up and imports, a loop of
small array operations, bulk normal sampling with per-column moments, and
float formatting.
"""

import numpy as np


def main() -> None:
    rng = np.random.default_rng(20140917)
    mats = rng.normal(size=(1500, 4, 4))
    acc = 0.0
    for m in mats:
        acc += float(np.linalg.eigvalsh(m @ m.T).min())
    block = rng.normal(size=(2000, 1000))
    stats = np.concatenate([block.mean(axis=0), block.var(axis=0, ddof=1)])
    text = ",".join(f"{v:.12g}" for v in stats)
    if not np.isfinite(acc) or len(text) < stats.size:
        raise SystemExit(1)


if __name__ == "__main__":
    main()
