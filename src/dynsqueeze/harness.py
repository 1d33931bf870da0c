"""Repeated-shot experiment: dynamic control, input modulation, homodyne records.

The gate strength follows a control signal kappa(t) sampled on a uniform time
grid (>= 2 control periods); the coherent input carries a faster mean-field
modulation.  Each time bin is measured over many repetitions at three output
homodyne angles (x, p, and pi/4), and the per-bin sample moments are the raw
material for the variance analysis.
"""

from __future__ import annotations

import json
import os
import zipfile
from typing import NamedTuple

import numpy as np

from .config import ConfigError, RunConfig, config_digest
from .electronics import TARGETS, fit_pwl
from .gate import GateParams, closed_form_output, gate_output_state
from .states import (
    GaussianState,
    Immutable,
    db_to_variance,
    make_coherent,
    quadrature_mean,
    quadrature_variance,
)
from .tables import MEASUREMENT_ANGLES, MomentEstimates, TheoryTraces

# The file schema lives in tables; the benchmark still reads these from here.
from .tables import (  # noqa: F401
    label_for_angle,
    read_moments_csv,
    write_moments_csv,
    write_simplified_csv,
    write_theory_csv,
)


class Traces(NamedTuple):
    """Shared time grid with the control and input-mean traces on it."""

    time_us: np.ndarray
    kappa: np.ndarray
    mean_x: np.ndarray
    mean_p: np.ndarray


def generate_traces(cfg: RunConfig) -> Traces:
    """Control kappa(t) and the coherent input's means on the configured grid.

    Bin k sits at t_k = k * bin_width_us.  ``sine`` and ``square`` controls are
    periodic analytic waveforms; ``custom`` cycles through control_samples.  In
    every case |kappa| <= control_amplitude.  The square wave is +amplitude
    over the first half of each cycle and -amplitude over the second; a bin on
    a half-cycle boundary (to within 1e-9 of a half cycle) starts the new half.
    The input means are sinusoidal at input_frequency_mhz.
    """
    n = cfg.n_bins
    t = np.arange(n) * cfg.bin_width_us
    if cfg.control_waveform == "custom":
        reps = -(-n // len(cfg.control_samples))
        kappa = np.tile(np.asarray(cfg.control_samples, dtype=float), reps)[:n]
    else:
        phase = 2.0 * np.pi * cfg.control_frequency_mhz * t + cfg.control_phase_rad
        amplitude = cfg.control_amplitude
        if cfg.control_waveform == "sine":
            kappa = amplitude * np.sin(phase)
        else:
            halves = phase / np.pi
            nearest = np.round(halves)
            halves = np.where(np.abs(halves - nearest) < 1e-9, nearest, halves)
            kappa = np.where(np.floor(halves) % 2 == 0, amplitude, -amplitude)
    modulation = np.sin(2.0 * np.pi * cfg.input_frequency_mhz * t + cfg.input_phase_rad)
    return Traces(t, kappa, cfg.input_x_amplitude * modulation, cfg.input_p_amplitude * modulation)


def _gate_params(cfg: RunConfig, kappa: np.ndarray) -> GateParams:
    """The configured operating point of the gate in each bin.

    The local-oscillator phase and gain are the exact functions of
    ``electronics.TARGETS``, or with use_pwl_electronics their fitted
    broken-line tables.  feedforward_gain_override replaces the gain, and
    feedforward_sign multiplies it.  Both gate routes take their parameters
    from here.
    """
    if cfg.use_pwl_electronics:
        phase, gain = (
            fit_pwl(target, cfg.pwl_segments, cfg.pwl_lo, cfg.pwl_hi)
            for target in ("arctan", "sqrt1px2")
        )
    else:
        phase, gain = TARGETS["arctan"][0], TARGETS["sqrt1px2"][0]
    g = gain(kappa) if cfg.feedforward_gain_override is None else cfg.feedforward_gain_override
    return GateParams(
        phase(kappa), cfg.feedforward_sign * g, db_to_variance(cfg.ancilla_db), cfg.hd1_efficiency
    )


def _route(cfg: RunConfig, gate, blocks: int = 0) -> tuple[TheoryTraces, GaussianState]:
    """``cfg``'s coherent inputs through ``gate``, gate_output_state or closed_form_output.

    Returns the route's noise-free per-bin moments and its output states.  Every
    run starts here, so check_records_memory first refuses, with ConfigError, a
    grid that would not fit in physical memory beside ``blocks`` shot blocks.
    """
    check_records_memory(cfg, blocks)
    traces = generate_traces(cfg)
    states = gate(make_coherent(traces.mean_x, traces.mean_p), _gate_params(cfg, traces.kappa))
    mean = {angle: quadrature_mean(states, angle) for angle in MEASUREMENT_ANGLES}
    variance = {angle: quadrature_variance(states, angle) for angle in MEASUREMENT_ANGLES}
    return TheoryTraces(traces.time_us, traces.kappa, mean, variance), states


def run_output_states(cfg: RunConfig) -> GaussianState:
    """Gate output states through the full physical pipeline, one per bin.

    Returns a single batched state whose batch axis runs over the time bins.
    """
    return _route(cfg, gate_output_state)[1]


class HomodyneRecordSet(Immutable):
    """Raw per-trial homodyne samples for each measurement angle.

    ``samples[angle]`` has shape (n_trials, n_bins); all angles share the time
    grid and the control trace.  ``config_digest`` ties the records back to the
    configuration that produced them.
    """

    __slots__ = ("time_us", "kappa", "samples", "seed", "config_digest")

    def __init__(
        self,
        time_us: np.ndarray,
        kappa: np.ndarray,
        samples: dict[float, np.ndarray],
        seed: int,
        config_digest: str,
    ) -> None:
        n_bins = len(time_us)
        if len(kappa) != n_bins:
            raise ValueError("kappa and time grids differ in length")
        shapes = {a: s.shape for a, s in samples.items()}
        for angle, shape in shapes.items():
            if len(shape) != 2 or shape[1] != n_bins:
                raise ValueError(f"samples at angle {angle} have shape {shape}, want (*, {n_bins})")
        if len(set(shapes.values())) != 1:
            raise ValueError(f"sample blocks disagree in shape: {shapes}")
        self._set(time_us, kappa, samples, seed, config_digest)

    @property
    def angles(self) -> tuple[float, ...]:
        return tuple(self.samples)

    @property
    def n_trials(self) -> int:
        return next(iter(self.samples.values())).shape[0]

    def save(self, path) -> None:
        _write_records(
            path, self.time_us, self.kappa, self.samples.items(), self.seed, self.config_digest
        )

    @classmethod
    def load(cls, path) -> "HomodyneRecordSet":
        with np.load(path) as data:
            meta = json.loads(str(data["meta"]))
            samples = {
                float(angle): data[f"samples_{i}"]
                for i, angle in enumerate(data["angles"])
            }
            return cls(
                data["time_us"], data["kappa"], samples,
                int(meta["seed"]), str(meta["config_digest"]),
            )


def _write_records(path, time_us, kappa, blocks, seed: int, digest: str) -> None:
    """Write a records archive member by member, as ``np.savez`` lays it out.

    The members are ``meta``, ``time_us``, ``kappa``, ``samples_0`` .. and
    ``angles``, each an uncompressed ``.npy`` in a zip file, byte for byte
    what ``np.savez`` writes, into ``path``'s directory, which is created if
    need be.  ``blocks`` yields (angle, block) pairs; a C-ordered block is
    written from its own buffer, not copied, and each block is dropped before
    the next is taken.
    """
    path = os.fspath(path)
    if not path.endswith(".npz"):
        path += ".npz"
    os.makedirs(os.path.dirname(os.path.abspath(path)), exist_ok=True)
    angles, fmt = [], np.lib.format
    with zipfile.ZipFile(path, "w", compression=zipfile.ZIP_STORED, allowZip64=True) as zf:

        def write(name, array):
            array = np.asanyarray(array)
            with zf.open(f"{name}.npy", "w", force_zip64=True) as fh:
                if array.ndim == 2 and array.flags.c_contiguous:
                    # write_array copies up to 16 MiB at a time through tobytes()
                    fmt.write_array_header_1_0(fh, fmt.header_data_from_array_1_0(array))
                    fh.write(memoryview(array))
                else:
                    fmt.write_array(fh, array, allow_pickle=False)

        write("meta", np.array(json.dumps({"seed": seed, "config_digest": digest})))
        write("time_us", time_us)
        write("kappa", kappa)
        # not enumerate(blocks), which keeps its last tuple (see _shot_blocks)
        for angle, block in blocks:
            write(f"samples_{len(angles)}", block)
            angles.append(angle)
            del block
        write("angles", np.array(angles))


def _physical_memory() -> int | None:
    try:
        return os.sysconf("SC_PHYS_PAGES") * os.sysconf("SC_PAGE_SIZE")
    except (AttributeError, ValueError, OSError):
        return None


# Shot blocks that simulate_records holds at its peak: the block in hand.  Its
# variance is summed in chunks and it is written without a copy.
RECORDS_PEAK_BLOCKS = 1

# Working set of a run per bin, shot blocks aside.  The tracemalloc peak of
# simulate_moments was 1028 bytes a bin and that of theory_traces 338, at both
# 2e4 and 2e5 bins; this rounds the larger up, with room for the three rows of
# chunk scratch _block_moments holds beyond _CHUNK_BYTES.
BIN_BYTES = 1100

# Squared deviations _block_moments sums at a time: 128 KiB of rows stays in
# cache yet takes few Python-level steps.
_CHUNK_BYTES = 1 << 17


def check_records_memory(cfg: RunConfig, blocks: int) -> None:
    """Raise ConfigError when a run on ``cfg``'s grid would not fit in physical memory.

    The run holds BIN_BYTES per bin plus ``blocks`` shot blocks, each
    n_trials x n_bins float64, and with any block the chunk scratch.
    """
    need = cfg.n_bins * (BIN_BYTES + blocks * cfg.n_trials * 8) + (blocks > 0) * _CHUNK_BYTES
    have = _physical_memory()
    if have is not None and need > have:
        what = f"raw records of {cfg.n_trials} trials x " if blocks else "a grid of "
        # a float quotient of a need beyond 2**1000 bytes would overflow
        gib = need / 2**30 if need < 2**1000 else float("inf")
        raise ConfigError(
            f"{what}{cfg.n_bins} bins would need {gib:.1f} GiB, "
            f"more than the {have / 2**30:.1f} GiB of physical memory"
        )


def _shot_laws(cfg: RunConfig, seed: int, blocks: int = 0) -> tuple[TheoryTraces, dict]:
    """The pipeline's moments and, per angle, (loc, variance, generator) of its shots.

    Every shot of one (angle, bin) is N(loc, variance) for that bin; each angle
    draws from its own child stream of ``seed``; the caller holds ``blocks`` blocks.
    """
    moments, _ = _route(cfg, gate_output_state, blocks)
    children = np.random.SeedSequence(seed).spawn(len(MEASUREMENT_ANGLES))
    return moments, {
        angle: (moments.mean[angle], moments.variance[angle], np.random.default_rng(child))
        for angle, child in zip(MEASUREMENT_ANGLES, children)
    }


def _shot_blocks(n_trials: int, laws: dict[float, tuple]):
    """Yield each angle's (angle, block) of shots, shape (n_trials, n_bins), in turn.

    Every holder of a block must drop it before asking for the next: a plain
    ``for`` loop and ``del``, not ``enumerate`` or ``zip``, which keep their
    last tuple.  A block still alive during the next draw stays in malloc's
    heap once freed and raises the process's peak RSS by about one block.
    """
    for angle, (loc, variance, rng) in laws.items():
        # loc + scale * z, scaled and shifted in place: the numbers
        # Generator.normal(loc, scale, size) draws, without its broadcast
        block = rng.standard_normal((n_trials, len(loc)))
        block *= np.sqrt(variance)
        block += loc
        yield angle, block
        del block


def run_experiment(cfg: RunConfig, seed: int | None = None) -> HomodyneRecordSet:
    """Simulate the repeated-shot run and return the raw homodyne records in memory.

    This is the in-memory route: all three angles' blocks are held at once,
    and :func:`estimate_moments` reduces them with no block-sized temporary.
    :func:`simulate_records` draws the same shots and writes them to disk one
    angle at a time, and :func:`simulate_moments` draws no shot at all.
    Every bin's output state is Gaussian, so the n_trials samples per (angle,
    bin) are drawn directly from the projected normal law.  Each angle gets an
    independent child stream of the seed; identical (config, seed) pairs give
    bit-identical records.  Raises ConfigError, from _route, before drawing
    anything when the records (3 x n_trials x n_bins float64) would not fit in
    physical memory.
    """
    if seed is None:
        seed = cfg.seed
    traces, laws = _shot_laws(cfg, seed, len(MEASUREMENT_ANGLES))
    return HomodyneRecordSet(
        traces.time_us, traces.kappa, dict(_shot_blocks(cfg.n_trials, laws)),
        int(seed), config_digest(cfg),
    )


def _moment_estimates(time_us, kappa, n: int, mean: dict, variance: dict) -> MomentEstimates:
    sem = {angle: np.sqrt(v / n) for angle, v in variance.items()}
    sev = {angle: v * np.sqrt(2.0 / (n - 1)) for angle, v in variance.items()}
    return MomentEstimates(time_us, kappa, n, mean, variance, sem, sev)


def _block_moments(block: np.ndarray) -> tuple[np.ndarray, np.ndarray]:
    """Per-bin ``block.mean(axis=0)`` and ``block.var(axis=0, ddof=1)``, bit for bit.

    np.var holds every squared deviation at once.  Here they are squared a
    row chunk at a time and summed onto the running sum in row 0 of a small
    scratch, which keeps numpy's row-by-row order for a C-ordered float64
    block two or more bins wide.  np.var takes any other block.
    """
    mean = block.mean(axis=0)
    n, m = block.shape
    if not (block.flags.c_contiguous and block.dtype == float and m > 1):
        return mean, block.var(axis=0, ddof=1)
    rows = max(1, _CHUNK_BYTES // (8 * m))
    buf = np.zeros((min(rows, n) + 1, m))
    for start in range(0, n, rows):
        chunk = block[start:start + rows]
        dev = buf[1:len(chunk) + 1]
        np.subtract(chunk, mean, out=dev)
        np.square(dev, out=dev)
        buf[0] = buf[:len(chunk) + 1].sum(axis=0)
    return mean, buf[0] / (n - 1)


def estimate_moments(records: HomodyneRecordSet) -> MomentEstimates:
    """Sample mean/variance per (angle, bin); needs at least two trials."""
    n = records.n_trials
    if n < 2:
        raise ValueError("need at least two trials to estimate a variance")
    mean, variance = {}, {}
    for angle, block in records.samples.items():
        mean[angle], variance[angle] = _block_moments(block)
    return _moment_estimates(records.time_us, records.kappa, n, mean, variance)


def simulate_records(cfg: RunConfig, path, seed: int | None = None) -> MomentEstimates:
    """Draw the records of ``run_experiment(cfg, seed)``, write them to ``path``, return their moments.

    The shots, the archive and the moments are those of
    ``run_experiment(cfg, seed).save(path)`` and ``estimate_moments`` of those
    records, byte for byte.  Each angle's block is drawn, reduced to its
    moments and written before the next is drawn, and neither the reduction
    nor the writer copies it, so one block is alive at a time instead of
    three.  The archive's directory is created if need be.  Raises
    ConfigError, from _route, before drawing or writing anything, or creating
    that directory, when one block would not fit in physical memory.
    """
    seed = cfg.seed if seed is None else seed
    n = cfg.n_trials
    traces, laws = _shot_laws(cfg, seed, RECORDS_PEAK_BLOCKS)
    mean, variance = {}, {}

    def reduced():
        for angle, block in _shot_blocks(n, laws):
            mean[angle], variance[angle] = _block_moments(block)
            yield angle, block
            del block

    _write_records(path, traces.time_us, traces.kappa, reduced(), int(seed), config_digest(cfg))
    return _moment_estimates(traces.time_us, traces.kappa, n, mean, variance)


def simulate_moments(cfg: RunConfig, seed: int | None = None) -> MomentEstimates:
    """Per-bin moments with the law of ``estimate_moments(run_experiment(cfg, seed))``.

    The n shots of one (angle, bin) are i.i.d. N(loc, v), so their sample mean
    is exactly N(loc, v / n), their sum of squared deviations is exactly
    v * chi2(n - 1), and the two are independent (Cochran's theorem).  Each
    angle draws one standard normal and one chi-square per bin from its child
    stream of ``seed``, and no shot is drawn: the moments agree with those of
    the records in distribution, not in value, and their cost does not grow
    with n_trials.
    """
    seed = cfg.seed if seed is None else seed
    n = cfg.n_trials
    traces, laws = _shot_laws(cfg, seed)
    mean, variance = {}, {}
    for angle, (loc, v, rng) in laws.items():
        mean[angle] = loc + np.sqrt(v / n) * rng.standard_normal(cfg.n_bins)
        variance[angle] = v * (rng.chisquare(n - 1, cfg.n_bins) / (n - 1))
    return _moment_estimates(traces.time_us, traces.kappa, n, mean, variance)


def theory_traces(cfg: RunConfig) -> TheoryTraces:
    """Closed-form per-bin predictions for the three measurement angles.

    Deliberately computed from the scalar input-output relations (not the
    pipeline), so Monte Carlo vs theory comparisons cross independent routes.
    Both routes run at the same configured operating point: look-up tables,
    gain override, feed-forward sign and detection efficiency included.
    Raises ConfigError when the grid would not fit in physical memory.
    """
    return _route(cfg, closed_form_output)[0]
