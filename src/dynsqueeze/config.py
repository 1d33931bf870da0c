"""Run configuration: a flat record serialized to/from JSON.

Unknown keys are rejected rather than ignored so a typo cannot silently fall
back to a default.  The SHA-256 digest of the canonical JSON form is echoed by
the command-line tools and stored with simulation records, which pins every
output file to the exact configuration that produced it.
"""

from __future__ import annotations

import json
from dataclasses import asdict, dataclass, fields
from pathlib import Path

import numpy as np

from .electronics import MAX_SEGMENTS, TARGETS
from .states import MIN_SQUEEZED_VARIANCE, _is_real, db_to_variance

VALID_WAVEFORMS = ("sine", "square", "custom")


class ConfigError(ValueError):
    """Invalid configuration file or field value."""


# What each field annotation accepts, and how to say so.  A JSON bool is not a
# number here although Python's bool is an int, and an int is a float.
_ANNOTATION_CHECKS = {
    "float": (_is_real, "a number"),
    "int": (lambda v: isinstance(v, int) and not isinstance(v, bool), "an integer"),
    "bool": (lambda v: isinstance(v, bool), "true or false"),
    "str": (lambda v: isinstance(v, str), "a string"),
    "tuple[float, ...]": (
        lambda v: isinstance(v, (list, tuple)) and all(map(_is_real, v)), "a list of numbers"
    ),
}


@dataclass(frozen=True)
class RunConfig:
    """All knobs of a simulated run.

    Frequencies are in MHz and times in us; amplitudes are in the
    shot-noise units used everywhere else (vacuum variance 1/2).
    """

    # ancilla and feed-forward
    ancilla_db: float = -3.1
    feedforward_sign: int = 1
    feedforward_gain_override: float | None = None
    hd1_efficiency: float = 1.0
    # control signal kappa(t)
    control_waveform: str = "sine"
    control_frequency_mhz: float = 1.0
    control_amplitude: float = 2.0
    control_phase_rad: float = 0.0
    control_samples: tuple[float, ...] | None = None
    # coherent input modulation
    input_x_amplitude: float = 3.0
    input_p_amplitude: float = 0.0
    input_frequency_mhz: float = 5.0
    input_phase_rad: float = 0.0
    # time grid
    bins_per_period: int = 100
    n_periods: int = 2
    # statistics
    n_trials: int = 10851
    seed: int = 12345
    # analog electronics
    use_pwl_electronics: bool = False
    pwl_segments: int = 16
    pwl_lo: float = -2.0
    pwl_hi: float = 2.0

    def __post_init__(self) -> None:
        self._validate()

    def _validate(self) -> None:
        for f in fields(self):
            value, kind = getattr(self, f.name), f.type.removesuffix(" | None")
            accepts, what = _ANNOTATION_CHECKS[kind]
            if not (accepts(value) or (value is None and kind != f.type)):
                raise ConfigError(f"{f.name} must be {what}, got {value!r}")
            if value is not None and kind in ("float", "tuple[float, ...]"):
                # an int beyond float range, which JSON allows, stops here
                try:
                    value = float(value) if kind == "float" else tuple(map(float, value))
                except OverflowError:
                    raise ConfigError(f"{f.name} must lie within float range") from None
                object.__setattr__(self, f.name, value)

        def positive(name):
            v = getattr(self, name)
            if not np.isfinite(v) or v <= 0:
                raise ConfigError(f"{name} must be positive, got {v}")

        def finite(name):
            v = getattr(self, name)
            if not np.isfinite(v):
                raise ConfigError(f"{name} must be finite, got {v}")

        def at_least(name, minimum):
            v = getattr(self, name)
            if v < minimum:
                raise ConfigError(f"{name} must be >= {minimum}, got {v}")

        for name in ("ancilla_db", "control_phase_rad", "input_phase_rad",
                     "input_x_amplitude", "input_p_amplitude"):
            finite(name)
        with np.errstate(over="ignore"):
            ancilla_vx = db_to_variance(self.ancilla_db)
        if not MIN_SQUEEZED_VARIANCE <= ancilla_vx < np.inf:
            raise ConfigError(f"ancilla_db must give a finite variance >= "
                              f"{MIN_SQUEEZED_VARIANCE:g}, got {self.ancilla_db}")
        for name in ("control_frequency_mhz", "input_frequency_mhz", "control_amplitude"):
            positive(name)
        if self.feedforward_sign not in (-1, 1):
            raise ConfigError("feedforward_sign must be +1 or -1")
        if self.feedforward_gain_override is not None:
            finite("feedforward_gain_override")
        if not 0.0 < self.hd1_efficiency <= 1.0:
            raise ConfigError(f"hd1_efficiency must lie in (0, 1], got {self.hd1_efficiency}")
        if self.control_waveform not in VALID_WAVEFORMS:
            raise ConfigError(
                f"control_waveform must be one of {VALID_WAVEFORMS}, got {self.control_waveform!r}"
            )
        if self.control_waveform == "custom":
            if not self.control_samples:
                raise ConfigError("custom control waveform needs control_samples")
            samples = np.asarray(self.control_samples, dtype=float)
            if not np.all(np.isfinite(samples)):
                raise ConfigError("control_samples must be finite")
            if np.max(np.abs(samples)) > self.control_amplitude:
                raise ConfigError("control_samples exceed control_amplitude")
            if self.control_phase_rad != 0.0:
                raise ConfigError("control_phase_rad does not apply to control_waveform 'custom', "
                                  f"whose samples set the phase; got {self.control_phase_rad}")
        elif self.control_samples is not None:
            raise ConfigError("control_samples only apply to the custom waveform")
        at_least("bins_per_period", 2)
        at_least("n_periods", 2)  # the grid spans at least 2 control periods
        at_least("n_trials", 2)
        at_least("seed", 0)
        at_least("pwl_segments", 1)
        if self.pwl_segments > MAX_SEGMENTS:
            raise ConfigError(f"pwl_segments must be <= {MAX_SEGMENTS}, got {self.pwl_segments}")
        if not self.pwl_lo < self.pwl_hi:
            raise ConfigError(f"need pwl_lo < pwl_hi, got [{self.pwl_lo}, {self.pwl_hi}]")
        for f in fields(self):
            value = getattr(self, f.name)
            if f.name.startswith("pwl_") and not self.use_pwl_electronics and value != f.default:
                raise ConfigError(f"{f.name} only applies with use_pwl_electronics, got {value}")
        if self.use_pwl_electronics and self.feedforward_gain_override is not None:
            raise ConfigError("feedforward_gain_override does not apply with "
                              "use_pwl_electronics, whose gain table sets the gain")
        if self.use_pwl_electronics and not (
            self.pwl_lo <= -self.control_amplitude <= self.control_amplitude <= self.pwl_hi
        ):
            raise ConfigError(
                f"control_amplitude {self.control_amplitude} leaves the look-up-table range "
                f"[{self.pwl_lo}, {self.pwl_hi}], where the tables would clamp"
            )
        # feedforward_sign carries the sign of the gain, so one gate has one config
        override = self.feedforward_gain_override
        if override is not None and override < 0.0:
            raise ConfigError(f"feedforward_gain_override must be >= 0, got {override}; "
                              "feedforward_sign sets the sign")
        if override == 0.0 and self.feedforward_sign == -1:
            raise ConfigError("feedforward_sign -1 does not apply with "
                              "feedforward_gain_override 0, which has no sign")
        self._validate_run_arithmetic()

    def _validate_run_arithmetic(self) -> None:
        """Refuse values whose run would overflow, computing what the run computes, as it does."""
        width = self.bin_width_us
        if not 0.0 < width < np.inf:
            raise ConfigError(
                f"control_frequency_mhz {self.control_frequency_mhz} at bins_per_period "
                f"{self.bins_per_period} gives a bin width of {width} us, which must be "
                "positive and finite"
            )
        # generate_traces' phase 2 pi f t + phase grows with t, so the last bin
        # bounds it; an infinite 2 pi f shows there too
        t_last = (self.n_bins - 1) * width
        phases = {"input_frequency_mhz": self.input_phase_rad}
        if self.control_waveform != "custom":
            phases["control_frequency_mhz"] = self.control_phase_rad
        for name, phase in phases.items():
            frequency = getattr(self, name)
            if not np.isfinite(2.0 * np.pi * frequency * t_last + phase):
                raise ConfigError(
                    f"{name} {frequency} overflows the phase 2 pi f t + phase "
                    f"over the {t_last:g} us grid"
                )
        # the gain sqrt(1 + kappa^2) at the largest |kappa| it is taken at:
        # the control amplitude, and the ends of the look-up tables' range
        ends = {"control_amplitude": self.control_amplitude}
        if self.use_pwl_electronics:
            ends.update(pwl_lo=self.pwl_lo, pwl_hi=self.pwl_hi)
        for name, kappa in ends.items():
            with np.errstate(over="ignore"):
                gain = TARGETS["sqrt1px2"][0](np.float64(kappa))
            if not np.isfinite(gain):
                raise ConfigError(f"{name} {kappa} overflows the feed-forward gain "
                                  "sqrt(1 + kappa^2)")
        # the closed form's detector-loss term takes the square of an override
        override = self.feedforward_gain_override
        with np.errstate(over="ignore"):
            if override is not None and not np.isfinite(np.float64(override) ** 2):
                raise ConfigError(f"feedforward_gain_override {override} overflows its "
                                  "square, which the closed form takes")

    @property
    def n_bins(self) -> int:
        return self.bins_per_period * self.n_periods

    @property
    def bin_width_us(self) -> float:
        return 1.0 / (self.control_frequency_mhz * self.bins_per_period)


# Fields annotated float (or float | None).  RunConfig stores an int given
# for one as a float, and -0.0 is written as 0.0, so configs that compare
# equal share one canonical form.
_FLOAT_FIELDS = tuple(f.name for f in fields(RunConfig) if f.type in ("float", "float | None"))


def to_json_dict(cfg: RunConfig) -> dict:
    d = asdict(cfg)
    for name in _FLOAT_FIELDS:
        if d[name] is not None:
            d[name] = d[name] + 0.0
    if d["control_samples"] is not None:
        d["control_samples"] = [s + 0.0 for s in d["control_samples"]]
    return d


def save_config(cfg: RunConfig, path) -> None:
    Path(path).write_text(json.dumps(to_json_dict(cfg), indent=2, sort_keys=True) + "\n")


def load_config(path) -> RunConfig:
    """Load a JSON config; unknown keys and malformed values raise ConfigError."""
    try:
        raw = json.loads(Path(path).read_text())
    except json.JSONDecodeError as exc:
        raise ConfigError(f"{path}: not valid JSON: {exc}") from exc
    return config_from_dict(raw, source=str(path))


def config_from_dict(raw: dict, source: str = "config") -> RunConfig:
    if not isinstance(raw, dict):
        raise ConfigError(f"{source}: top level must be a JSON object")
    known = {f.name for f in fields(RunConfig)}
    unknown = sorted(set(raw) - known)
    if unknown:
        raise ConfigError(f"{source}: unknown keys {unknown}")
    try:
        return RunConfig(**raw)
    except (TypeError, ConfigError) as exc:
        raise ConfigError(f"{source}: {exc}") from exc


def config_digest(cfg: RunConfig) -> str:
    """SHA-256 of the canonical JSON form; key order and float repr are fixed."""
    # here, not at the top: _hashlib alone adds about 3.5 MB to a process
    import hashlib

    payload = json.dumps(to_json_dict(cfg), sort_keys=True, separators=(",", ":"))
    return hashlib.sha256(payload.encode()).hexdigest()
