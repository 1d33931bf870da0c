"""Repeated-shot experiment: dynamic control, input modulation, homodyne records.

The gate strength follows a control signal kappa(t) sampled on a uniform time
grid (>= 2 control periods); the coherent input carries a faster mean-field
modulation.  Each time bin is measured over many repetitions at three output
homodyne angles (x, p, and pi/4), and the per-bin sample moments are the raw
material for the variance analysis.
"""

from __future__ import annotations

import os
from contextlib import suppress
from dataclasses import fields, replace
from functools import lru_cache
from pathlib import Path
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


# fit_pwl once a process for each table: a refusal re-runs the routes once per
# field off its default, most of them on the same tables
_fitted = lru_cache(maxsize=4)(fit_pwl)


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
            _fitted(target, cfg.pwl_segments, cfg.pwl_lo, cfg.pwl_hi)
            for target in ("arctan", "sqrt1px2")
        )
    else:
        phase, gain = TARGETS["arctan"][0], TARGETS["sqrt1px2"][0]
    g = gain(kappa) if cfg.feedforward_gain_override is None else cfg.feedforward_gain_override
    return GateParams(
        phase(kappa), cfg.feedforward_sign * g, db_to_variance(cfg.ancilla_db), cfg.hd1_efficiency
    )


def _route(cfg: RunConfig, gate, blocks: int | None = None) -> tuple[TheoryTraces, GaussianState]:
    """``cfg``'s coherent inputs through ``gate``, gate_output_state or closed_form_output.

    Returns the route's noise-free per-bin moments and its output states.  Every
    run starts here: check_records_memory refuses a grid that would not fit in
    memory beside ``blocks`` shot blocks, and :func:`_refused` a numpy error of
    either route, both run on the same inputs, or a state either refuses.  A
    run that draws shots gives the blocks it will hold, 0 if it streams them,
    and is refused too where the sums of its shots could overflow.
    """
    check_records_memory(cfg, blocks or 0)
    return _refused(cfg, _both_routes, gate, blocks is not None)


# numpy errors that fail a run; not underflow, which 3080 dB meets harmlessly
_RAISED = {"over": "raise", "invalid": "raise", "divide": "raise"}

# numpy's ziggurat accepts a tail normal 3.654 + x only where x^2 < 2 log(1/u)
# for a u of at least 2**-53, so no standard normal it draws lies beyond 12.3
_SHOT_REACH = 13.0


@np.errstate(**_RAISED)
def _both_routes(cfg: RunConfig, gate, shots: bool = False) -> tuple[TheoryTraces, GaussianState]:
    traces = generate_traces(cfg)
    inputs, params = make_coherent(traces.mean_x, traces.mean_p), _gate_params(cfg, traces.kappa)
    pipeline, closed = gate_output_state(inputs, params), closed_form_output(inputs, params)
    states = pipeline if gate is gate_output_state else closed
    mean = {angle: quadrature_mean(states, angle) for angle in MEASUREMENT_ANGLES}
    variance = {angle: quadrature_variance(states, angle) for angle in MEASUREMENT_ANGLES}
    # A shot lies within c = _SHOT_REACH sigma of its mean mu, so a bin's sum
    # of n shots stays under n B, B = |mu| + c sigma.  A shot's deviation from
    # the sample mean stays under D = 2 (c sigma + (n + 2) eps B), the rounding
    # of the shots and of that mean included, and the sum of the squares under
    # n D^2.  Both must stay under half of float max, which leaves room for
    # the rounding of up to 2**52 additions.
    for angle in MEASUREMENT_ANGLES if shots else ():
        n, spread = cfg.n_trials, _SHOT_REACH * np.sqrt(variance[angle])
        shot, limit = np.abs(mean[angle]) + spread, np.finfo(float).max / (2.0 * n)
        deviation = 2.0 * (spread + (n + 2) * np.finfo(float).eps * shot)
        if np.any(shot > limit) or np.any(deviation > np.sqrt(limit)):
            raise FloatingPointError(f"a sum of {n} shots a bin could overflow")
    return TheoryTraces(traces.time_us, traces.kappa, mean, variance), states


def _refused(cfg: RunConfig, run, *args):
    """``run(cfg, *args)``, whose ArithmeticError or ValueError becomes a ConfigError.

    The error names each field off its default whose reset alone lets ``run``
    pass, or all of them when no one reset does, and ends with the cause.
    """
    try:
        return run(cfg, *args)
    except (ArithmeticError, ValueError) as exc:
        cause = exc
    changed = [f for f in fields(cfg) if getattr(cfg, f.name) != f.default]
    clearing = []
    for f in changed:
        with suppress(ArithmeticError, ValueError):
            reset = replace(cfg, **{f.name: f.default})
            check_records_memory(reset, 0)
            run(reset, *args)
            clearing.append(f.name)
    named = clearing or [f.name for f in changed]
    values = ", ".join(f"{name} {getattr(cfg, name)!r}" for name in named)
    verb = "makes" if len(named) == 1 else "each make" if clearing else "together make"
    raise ConfigError(f"{values} {verb} the run fail: {cause}") from cause


def run_output_states(cfg: RunConfig) -> GaussianState:
    """Gate output states through the full physical pipeline, one per bin.

    Returns a single batched state whose batch axis runs over the time bins.
    """
    return _route(cfg, gate_output_state)[1]


class HomodyneRecordSet(Immutable):
    """Raw per-trial homodyne samples for each measurement angle.

    ``samples[angle]`` has shape (n_trials, n_bins); all angles share the time
    grid and the control trace.  ``config_digest`` ties the records back to the
    configuration that produced them.  Any block, of real numbers in any
    layout, is saved and reduced as its C-ordered float64 copy.  A set built
    in memory holds its blocks; one from :meth:`load` maps each block from its
    archive every time it is asked for (``archive.ArchiveBlocks``), a
    copy-on-write memmap paged in as it is touched and often not aligned, and
    its shapes, ``angles``, ``n_trials`` and ``repr`` come from the headers.
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
        shapes = _block_shapes(samples)
        if not shapes:
            raise ValueError("no sample blocks")
        for angle, block in () if hasattr(samples, "shapes") else samples.items():
            if block.dtype.kind not in "iuf":
                raise ValueError(f"samples at angle {angle} are not real numbers")
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
        return next(iter(_block_shapes(self.samples).values()))[0]

    def save(self, path) -> None:
        from .archive import write_records

        write_records(path, self.time_us, self.kappa, self._rows(), self.seed, self.config_digest)

    def _rows(self):
        """Each angle and its block as ``(shape, fill)``, as ``archive._filled`` takes it."""
        from .archive import _copied

        if hasattr(self.samples, "rows"):  # a loaded set reads its members
            return self.samples.rows()
        return ((angle, _copied(block)) for angle, block in self.samples.items())

    @classmethod
    def load(cls, path) -> "HomodyneRecordSet":
        """The records archived at ``path``, each block read only when it is asked for.

        Raises ValueError naming a member that fails the zip's CRC, or that
        ``archive.read_records`` refuses, as one stored compressed; reading a
        block raises one once the archive is replaced or rewritten.
        """
        from .archive import read_records

        return cls(*read_records(path))


def _block_shapes(samples) -> dict:
    """Each block's shape; a loaded set's blocks give theirs from the archive's headers."""
    if hasattr(samples, "shapes"):
        return samples.shapes()
    return {angle: block.shape for angle, block in samples.items()}


def _physical_memory() -> int | None:
    try:
        return os.sysconf("SC_PHYS_PAGES") * os.sysconf("SC_PAGE_SIZE")
    except (AttributeError, ValueError, OSError):
        return None


def _memory_limits() -> dict[str, int]:
    """Each limit on this process's memory that it can read, in bytes, by what sets it.

    Physical memory, the soft RLIMIT_AS and RLIMIT_DATA, and the memory.max of
    the process's cgroup (v2); a limit that is unset or unreadable is left out.
    """
    limits = {"physical memory": _physical_memory()}
    try:
        import resource  # not on Windows

        for name in ("RLIMIT_AS", "RLIMIT_DATA"):
            soft = resource.getrlimit(getattr(resource, name))[0]
            limits[f"the soft {name}"] = None if soft == resource.RLIM_INFINITY else soft
    except (ImportError, AttributeError, ValueError, OSError):
        pass
    try:
        for line in Path("/proc/self/cgroup").read_text().split("\n"):
            if line.startswith("0::"):
                text = Path("/sys/fs/cgroup", line[3:].lstrip("/"), "memory.max").read_text()
                limits["the cgroup's memory.max"] = None if text.strip() == "max" else int(text)
    except (ValueError, OSError):
        pass
    return {what: limit for what, limit in limits.items() if limit is not None}


# Working set of a run per bin, shot blocks aside.  The tracemalloc peak of
# simulate_moments was 1028 bytes a bin and that of theory_traces 338, at both
# 2e4 and 2e5 bins; this rounds the larger up, with room for the rows of the
# row buffer beyond _CHUNK_BYTES and the per-bin sums beside it.  Writing the
# CSVs is outside this count: tables.write_table holds one fixed block of rows.
BIN_BYTES = 1100

# Rows of shots that archive's row buffer holds, to draw and write, or to
# reduce: 128 KiB of rows stays in cache yet takes few Python-level steps.
_CHUNK_BYTES = 1 << 17


def _gib(nbytes: int) -> float:
    # a float quotient of more than 2**1000 bytes would overflow
    return nbytes / 2**30 if nbytes < 2**1000 else float("inf")


def check_records_memory(cfg: RunConfig, blocks: int) -> None:
    """Raise ConfigError when a run on ``cfg``'s grid would not fit in memory.

    The run holds BIN_BYTES per bin, the row buffer and ``blocks`` shot
    blocks, each n_trials x n_bins float64.  It must fit within the least of
    :func:`_memory_limits`.
    """
    need = cfg.n_bins * (BIN_BYTES + blocks * cfg.n_trials * 8) + _CHUNK_BYTES
    limit, have = min(_memory_limits().items(), key=lambda item: item[1], default=(None, None))
    if have is not None and need > have:
        what = f"raw records of {cfg.n_trials} trials x " if blocks else "a grid of "
        raise ConfigError(
            f"{what}{cfg.n_bins} bins would need {_gib(need):.1f} GiB, "
            f"more than the {have / 2**30:.1f} GiB of {limit}"
        )


def _shot_laws(moments: TheoryTraces, seed: int) -> dict:
    """Per angle, (loc, variance, generator) of the shots of the pipeline's ``moments``.

    Every shot of one (angle, bin) is N(loc, variance) for that bin; each angle
    draws from its own child stream of ``seed``.
    """
    children = np.random.SeedSequence(seed).spawn(len(MEASUREMENT_ANGLES))
    return {
        angle: (moments.mean[angle], moments.variance[angle], np.random.default_rng(child))
        for angle, child in zip(MEASUREMENT_ANGLES, children)
    }


def _shots(loc: np.ndarray, variance: np.ndarray, rng):
    """``fill(rows, start)``, which fills ``rows`` with the next shots of N(loc, variance).

    loc + scale * z, scaled and shifted in place, are the numbers
    Generator.normal(loc, scale, size) draws, and z fills in stream order, so
    rows drawn in turn, a chunk at a time, are those of one whole-block draw.
    """
    scale = np.sqrt(variance)

    def fill(rows: np.ndarray, start: int) -> None:
        rng.standard_normal(out=rows)
        rows *= scale
        rows += loc

    return fill


def run_experiment(cfg: RunConfig, seed: int | None = None) -> HomodyneRecordSet:
    """Simulate the repeated-shot run and return the raw homodyne records in memory.

    This is the in-memory route: all three angles' C-ordered float64 blocks
    are held at once, and :func:`estimate_moments` reduces them with no
    block-sized temporary.
    :func:`simulate_records` draws the same shots into a row buffer and writes
    them to disk, and :func:`simulate_moments` draws no shot at all.
    Every bin's output state is Gaussian, so the n_trials samples per (angle,
    bin) are drawn directly from the projected normal law.  Each angle gets an
    independent child stream of the seed; identical (config, seed) pairs give
    bit-identical records.  Raises ConfigError, from _route, before drawing
    anything when the records (3 x n_trials x n_bins float64) would not fit in
    memory or their sums could overflow.
    """
    if seed is None:
        seed = cfg.seed
    traces = _route(cfg, gate_output_state, len(MEASUREMENT_ANGLES))[0]
    samples = {angle: np.empty((cfg.n_trials, cfg.n_bins)) for angle in MEASUREMENT_ANGLES}
    for angle, law in _shot_laws(traces, seed).items():
        _shots(*law)(samples[angle], 0)
    return HomodyneRecordSet(traces.time_us, traces.kappa, samples, int(seed), config_digest(cfg))


def _moment_estimates(time_us, kappa, n: int, mean: dict, variance: dict) -> MomentEstimates:
    sem = {angle: np.sqrt(v / n) for angle, v in variance.items()}
    sev = {angle: v * np.sqrt(2.0 / (n - 1)) for angle, v in variance.items()}
    return MomentEstimates(time_us, kappa, n, mean, variance, sem, sev)


def estimate_moments(records: HomodyneRecordSet) -> MomentEstimates:
    """Sample mean/variance per (angle, bin); needs at least two trials.

    Every block goes through ``archive._row_moments`` a chunk of rows at a
    time, as its C-ordered float64 copy: a stored one read from its archive,
    any other copied, so no block-sized temporary is made and the moments of
    a set and of its archive loaded back are equal bit for bit.
    """
    from .archive import _row_moments

    n = records.n_trials
    if n < 2:
        raise ValueError("need at least two trials to estimate a variance")
    mean, variance = {}, {}
    for angle, rows in records._rows():
        mean[angle], variance[angle] = _row_moments(*rows)
    return _moment_estimates(records.time_us, records.kappa, n, mean, variance)


def simulate_records(cfg: RunConfig, path, seed: int | None = None) -> MomentEstimates:
    """Draw the records of ``run_experiment(cfg, seed)``, write them to ``path``, return their moments.

    The archive is that of ``run_experiment(cfg, seed).save(path)`` byte for
    byte, drawn and written a chunk of rows at a time (:func:`_shots`);
    the moments are ``estimate_moments`` of it loaded back, CRC checked, and
    no block is held.  As with ``save``, ``.npz`` is appended to a path that
    lacks it, and the directory is created if need be.  Raises ConfigError,
    before drawing or writing anything, or creating that directory, when the
    archive would not fit in the free space there, or as :func:`_route` does.
    """
    from .archive import check_records_space, write_records

    seed = cfg.seed if seed is None else seed
    check_records_space(cfg, path)
    traces = _route(cfg, gate_output_state, 0)[0]
    blocks = [(angle, ((cfg.n_trials, cfg.n_bins), _shots(*law)))
              for angle, law in _shot_laws(traces, seed).items()]
    path = write_records(path, traces.time_us, traces.kappa, blocks, int(seed), config_digest(cfg))
    return estimate_moments(HomodyneRecordSet.load(path))


def simulate_moments(cfg: RunConfig, seed: int | None = None) -> MomentEstimates:
    """Per-bin moments with the law of ``estimate_moments(run_experiment(cfg, seed))``.

    The n shots of one (angle, bin) are i.i.d. N(loc, v), so their sample mean
    is exactly N(loc, v / n), their sum of squared deviations is exactly
    v * chi2(n - 1), and the two are independent (Cochran's theorem).  Each
    angle draws one standard normal and one chi-square per bin from its child
    stream of ``seed``, and no shot is drawn: the moments agree with those of
    the records in distribution, not in value, and their cost does not grow
    with n_trials.  Raises ConfigError as _route does, and so too where a drawn
    moment or its standard error overflows: a variance near 1.8e308 scaled by
    its chi-square draw, say.
    """
    check_records_memory(cfg, 0)
    return _refused(cfg, _drawn_moments, cfg.seed if seed is None else seed)


@np.errstate(**_RAISED)
def _drawn_moments(cfg: RunConfig, seed: int) -> MomentEstimates:
    n = cfg.n_trials
    traces = _both_routes(cfg, gate_output_state)[0]
    mean, variance = {}, {}
    for angle, (loc, v, rng) in _shot_laws(traces, seed).items():
        mean[angle] = loc + np.sqrt(v / n) * rng.standard_normal(cfg.n_bins)
        variance[angle] = v * (rng.chisquare(n - 1, cfg.n_bins) / (n - 1))
    return _moment_estimates(traces.time_us, traces.kappa, n, mean, variance)


def theory_traces(cfg: RunConfig) -> TheoryTraces:
    """Closed-form per-bin predictions for the three measurement angles.

    Deliberately computed from the scalar input-output relations (not the
    pipeline), so Monte Carlo vs theory comparisons cross independent routes.
    Both routes run at the same configured operating point: look-up tables,
    gain override, feed-forward sign and detection efficiency included.
    Raises ConfigError as :func:`_route` does.
    """
    return _route(cfg, closed_form_output)[0]
