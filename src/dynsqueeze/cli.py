"""Command-line front end: simulate, analyze, theory, circuits.

Exit codes: 0 on success, 1 for bad usage/configuration/input files, 2 when an
internal consistency check fails.

Each subcommand imports the modules it runs when it runs, so a process loads
no module of another subcommand: analyze and circuits never load the
simulator.
"""

from __future__ import annotations

import argparse
import functools
import re
import sys
from pathlib import Path
from typing import TYPE_CHECKING

if TYPE_CHECKING:
    from .config import RunConfig

# Printed with theory output so the model's reach is not oversold, for the
# configs it describes (see _gap_note_applies).
GAP_NOTE = (
    "note: this lossless model with a -3.1 dB ancilla bottoms out at -1.65 dB "
    "squeezing at |kappa| = 2; hardware realizations report around -1.8 dB "
    "there, the difference tracking the actual ancilla level and where losses "
    "sit in the beam path, neither of which is modeled here."
)

# electronics.TARGETS' names, sorted, written out so that parsing loads neither
# electronics nor numpy; a test holds the two lists equal.
PWL_TARGETS = ("arctan", "sqrt1px2")


def _gap_note_applies(cfg: RunConfig) -> bool:
    """Whether ``cfg`` is the gate GAP_NOTE describes.

    That is the lossless gate with a -3.1 dB ancilla and the exact
    feed-forward sign and gain.  The look-up tables approximate that same
    gate, so use_pwl_electronics keeps the note.
    """
    return (
        cfg.ancilla_db == -3.1
        and cfg.hd1_efficiency == 1.0
        and cfg.feedforward_sign == 1
        and cfg.feedforward_gain_override is None
    )


def _load_cfg(args) -> RunConfig:
    from .config import RunConfig, load_config

    return RunConfig() if args.config is None else load_config(args.config)


def _grid(args) -> str:
    """Where a command that takes a config ran, for its error: " on a grid of N bins"."""
    try:
        return f" on a grid of {_load_cfg(args).n_bins} bins"
    except (AttributeError, ValueError, OSError):  # no --config, or none that loads
        return ""


def _outdir(args) -> Path:
    out = Path(args.out)
    out.mkdir(parents=True, exist_ok=True)
    return out


def cmd_simulate(args) -> int:
    from .config import ConfigError, config_digest
    from .gate import calibrate_signs
    from .harness import simulate_moments
    from .tables import write_moments_files

    if args.seed is not None and args.seed < 0:
        raise ConfigError(f"--seed must be >= 0, got {args.seed}")
    cfg = _load_cfg(args)
    seed = cfg.seed if args.seed is None else args.seed
    print("sign calibration: beamsplitter %+d, lo %+d, feedforward %+d" % calibrate_signs())
    # --out is created once the library has accepted the grid
    records = Path(args.out) / "records.npz"
    if args.save_records:
        from .archive import simulate_records
        est = simulate_records(cfg, records, seed)
    else:
        # No shot is drawn: each bin's sample mean and variance come straight
        # from their exact law (see simulate_moments).
        est = simulate_moments(cfg, seed)
    written = write_moments_files(_outdir(args), est)
    if args.save_records:
        written.append(records)
    print(f"config {config_digest(cfg)} seed {seed}")
    print(f"{est.n_trials} trials x {len(est.time_us)} bins x {len(est.mean)} angles")
    for path in written:
        print(f"wrote {path}")
    return 0


def cmd_theory(args) -> int:
    from .analysis import diagonalize
    from .config import config_digest
    from .gate import closed_form_output
    from .harness import _route
    from .states import variance_to_db
    from .tables import write_theory_files

    cfg = _load_cfg(args)
    th, outs = _route(cfg, closed_form_output)
    # From the closed-form covariance itself: rebuilt from the three projected
    # variances, its cross term is lost to rounding at large |kappa|.
    minus_db = variance_to_db(diagonalize(outs.cov)[1])
    for path in write_theory_files(_outdir(args), th):
        print(f"wrote {path}")
    print(f"config {config_digest(cfg)}")
    print(
        f"predicted squeezed variance: min {minus_db.min():.3f} dB, "
        f"max {minus_db.max():.3f} dB over {len(minus_db)} bins"
    )
    if _gap_note_applies(cfg):
        print(GAP_NOTE)
    return 0


def cmd_analyze(args) -> int:
    from .analysis import summarize, write_residuals_csv, write_summary_csv
    from .tables import read_moments, read_theory

    est = read_moments(args.moments)
    theory = read_theory(args.theory) if args.theory else None
    summary, residuals = summarize(est, theory)
    out = _outdir(args)
    path = out / "summary.csv"
    write_summary_csv(path, summary)
    print(f"wrote {path}")
    if residuals is not None:
        path = out / "residuals.csv"
        write_residuals_csv(path, residuals)
        print(f"wrote {path}")
    n_flagged = (~summary.valid).sum()
    print(f"{len(summary)} bins, {n_flagged} flagged non-positive-definite")
    if n_flagged < len(summary):
        print(f"best squeezed variance {summary.sigma_minus2_db[summary.valid].min():.3f} dB")
    return 0


def cmd_circuits(args) -> int:
    from .electronics import fit_pwl, max_error, save_pwl_table

    targets = PWL_TARGETS if args.target == "all" else [args.target]
    fits = [(target, fit_pwl(target, args.segments, *args.range)) for target in targets]
    out = _outdir(args)
    for target, f in fits:
        err = max_error(f, target)
        path = out / f"pwl_{target}.txt"
        save_pwl_table(f, path)
        print(
            f"{target}: {f.n_segments} segments on "
            f"[{args.range[0]:g}, {args.range[1]:g}], max error {err:.3e}"
        )
        print(f"wrote {path}")
    return 0


@functools.cache  # parsing leaves the parser as it was; a build takes about 1 ms
def build_parser() -> argparse.ArgumentParser:
    parser = argparse.ArgumentParser(
        prog="dynsqueeze",
        description="Simulate and analyze a measurement-based dynamic squeezing gate.",
    )
    sub = parser.add_subparsers(dest="command", required=True)

    def add(name, func, description):
        p = sub.add_parser(name, help=description)
        p.set_defaults(func=func)
        p.add_argument("--out", default=".", help="output directory")
        return p

    config_help = "JSON run configuration (defaults apply if omitted)"

    p = add("simulate", cmd_simulate, "run the repeated-shot simulation, write moments CSVs")
    p.add_argument("--config", help=config_help)
    p.add_argument("--seed", type=int, help="override the config seed")
    p.add_argument("--save-records", action="store_true", help="also write raw records.npz")

    p = add("theory", cmd_theory, "write closed-form predictions for the same grid")
    p.add_argument("--config", help=config_help)

    p = add("analyze", cmd_analyze, "reconstruct and diagonalize variances from moments CSVs")
    p.add_argument("--moments", nargs=3, required=True, metavar="CSV",
                   help="the three per-angle moments files")
    p.add_argument("--theory", nargs=3, metavar="CSV",
                   help="matching theory files; adds residuals.csv")

    p = add("circuits", cmd_circuits, "fit and export the analog look-up tables")
    p.add_argument("--target", default="all", choices=["all", *PWL_TARGETS])
    p.add_argument("--segments", type=int, default=16)
    p.add_argument("--range", nargs=2, type=float, default=[-2.0, 2.0],
                   metavar=("LO", "HI"))
    # argparse takes "-1e6" for an option, as its negative-number pattern has
    # no exponent form, and gives no public hook to widen it
    p._negative_number_matcher = re.compile(r"^-(\d+\.?\d*|\.\d+)([eE][-+]?\d+)?$")
    return parser


def main(argv=None) -> int:
    parser = build_parser()
    try:
        args = parser.parse_args(argv)
    except SystemExit as exc:
        # argparse exits 2 on usage errors; that code is reserved here for
        # internal check failures, so fold usage problems into 1.
        return 0 if exc.code in (0, None) else 1
    # GateCalibrationError, a failed self-check, is a RuntimeError and
    # ConfigError a ValueError: caught by their bases, naming them would load
    # their modules
    try:
        return args.func(args)
    except MemoryError:
        print(f"error: out of memory{_grid(args)}", file=sys.stderr)
        return 1
    except (RuntimeError, ArithmeticError) as exc:
        print(f"internal check failed: {exc}", file=sys.stderr)
        return 2
    except (ValueError, OSError) as exc:
        print(f"error: {exc}", file=sys.stderr)
        return 1


if __name__ == "__main__":
    sys.exit(main())
