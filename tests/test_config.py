import json
import re
from dataclasses import fields, replace

import numpy as np
import pytest
from hypothesis import assume, given, settings
from hypothesis import strategies as st

from dynsqueeze import ConfigError, RunConfig, config_digest, load_config, save_config
from dynsqueeze.config import VALID_WAVEFORMS, config_from_dict
from dynsqueeze.harness import simulate_moments, theory_traces

_FINITE = st.floats(allow_nan=False, allow_infinity=False)
_POSITIVE = st.floats(min_value=1e-3, max_value=1e3)

# A valid value range for every RunConfig field.  The amplitude stays inside
# the narrowest table range and the custom samples inside the smallest
# amplitude, so any single field can change without breaking another's check.
FIELD_VALUES = {
    "ancilla_db": st.floats(min_value=-116.0, max_value=3000.0),  # variance in [1e-12, inf)
    "feedforward_sign": st.sampled_from([-1, 1]),
    # a larger override's square overflows, which RunConfig refuses
    "feedforward_gain_override": st.none() | st.floats(min_value=0.0, max_value=1e154),
    "hd1_efficiency": st.floats(min_value=1e-3, max_value=1.0),
    "control_waveform": st.sampled_from(VALID_WAVEFORMS),
    "control_frequency_mhz": _POSITIVE,
    "control_amplitude": st.floats(min_value=0.5, max_value=2.0),
    "control_phase_rad": _FINITE,
    "control_samples": st.lists(st.floats(min_value=-0.5, max_value=0.5), min_size=1, max_size=5),
    "input_x_amplitude": _FINITE,
    "input_p_amplitude": _FINITE,
    "input_frequency_mhz": _POSITIVE,
    "input_phase_rad": _FINITE,
    "bins_per_period": st.integers(2, 10**4),
    "n_periods": st.integers(2, 100),
    "n_trials": st.integers(2, 10**7),
    "seed": st.integers(0, 2**64 - 1),
    "use_pwl_electronics": st.booleans(),
    "pwl_segments": st.integers(1, 64),
    "pwl_lo": st.floats(min_value=-4.0, max_value=-2.0),
    "pwl_hi": st.floats(min_value=2.0, max_value=4.0),
}


@st.composite
def configs(draw):
    values = {name: draw(strategy) for name, strategy in FIELD_VALUES.items()}
    if values["control_waveform"] != "custom":
        values["control_samples"] = None
    else:
        values["control_phase_rad"] = 0.0
    if values["use_pwl_electronics"]:
        values["feedforward_gain_override"] = None
    else:
        values.update(pwl_segments=16, pwl_lo=-2.0, pwl_hi=2.0)
    if values["feedforward_gain_override"] == 0.0:
        values["feedforward_sign"] = 1
    return RunConfig(**values)


def magnitudes(signed: bool = False, most: float = 1e308):
    """Floats log-uniform in magnitude from 1e-320 to ``most``, of either sign if ``signed``."""
    drawn = st.floats(min_value=-320.0, max_value=np.log10(most)).map(lambda e: 10.0**e)
    return st.tuples(drawn, st.sampled_from([1.0, -1.0] if signed else [1.0])).map(
        lambda m: m[0] * m[1]
    )


# The magnitudes a wide config draws for each float field: any, or up to the
# edge of the field's domain where RunConfig would refuse the rest by name.
_WIDE_FLOATS = {
    "ancilla_db": magnitudes(most=3083.0) | magnitudes(most=116.0).map(lambda m: -m),
    "hd1_efficiency": magnitudes(most=1.0),
    "control_frequency_mhz": magnitudes(),
    "control_amplitude": magnitudes(),
    "control_phase_rad": magnitudes(signed=True),
    "input_x_amplitude": magnitudes(signed=True),
    "input_p_amplitude": magnitudes(signed=True),
    "input_frequency_mhz": magnitudes(),
    "input_phase_rad": magnitudes(signed=True),
    "feedforward_gain_override": magnitudes(),
}


@st.composite
def wide_configs(draw):
    """A JSON config on a 4-bin grid whose float fields keep their default or take any magnitude.

    The look-up-table range and the custom samples are drawn around the
    control amplitude, so that RunConfig accepts most configs and the run
    meets the edges of float range.
    """
    raw = {"bins_per_period": 2, "n_periods": 2, "n_trials": draw(st.integers(2, 10**12)),
           "seed": draw(st.integers(0, 2**32)), "feedforward_sign": draw(st.sampled_from([1, -1]))}
    for name, values in _WIDE_FLOATS.items():
        if draw(st.booleans()):
            raw[name] = draw(values)
    amplitude = raw.get("control_amplitude", 2.0)
    raw["control_waveform"] = draw(st.sampled_from(VALID_WAVEFORMS))
    if raw["control_waveform"] == "custom":
        raw.pop("control_phase_rad", None)
        fractions = st.lists(magnitudes(signed=True, most=1.0), min_size=1, max_size=4)
        raw["control_samples"] = [amplitude * f for f in draw(fractions)]
    if draw(st.booleans()):
        raw.pop("feedforward_gain_override", None)
        widths = magnitudes().map(lambda m: max(m, amplitude))
        raw.update(use_pwl_electronics=True, pwl_segments=draw(st.integers(1, 8)),
                   pwl_lo=-draw(widths), pwl_hi=draw(widths))
    return raw


def test_defaults():
    cfg = RunConfig()
    assert cfg.ancilla_db == -3.1
    assert cfg.control_waveform == "sine"
    assert cfg.control_frequency_mhz == 1.0
    assert cfg.control_amplitude == 2.0
    assert cfg.input_frequency_mhz == 5.0
    assert cfg.n_trials == 10851
    assert cfg.n_bins == 200
    assert cfg.bin_width_us == pytest.approx(0.01)
    assert not cfg.use_pwl_electronics


def test_round_trip(tmp_path):
    cfg = RunConfig(n_trials=500, seed=7, control_waveform="square", input_x_amplitude=1.0)
    path = tmp_path / "cfg.json"
    save_config(cfg, path)
    assert load_config(path) == cfg


def test_custom_samples_round_trip(tmp_path):
    cfg = RunConfig(control_waveform="custom", control_samples=[0.0, 2.0, -2.0])
    path = tmp_path / "cfg.json"
    save_config(cfg, path)
    loaded = load_config(path)
    assert loaded.control_samples == (0.0, 2.0, -2.0)
    assert loaded == cfg


def test_unknown_key_rejected(tmp_path):
    path = tmp_path / "cfg.json"
    path.write_text(json.dumps({"n_trials": 100, "knaob": 3}))
    with pytest.raises(ConfigError, match="knaob"):
        load_config(path)


def test_invalid_json_rejected(tmp_path):
    path = tmp_path / "cfg.json"
    path.write_text("{not json")
    with pytest.raises(ConfigError):
        load_config(path)


@pytest.mark.parametrize(
    "overrides",
    [
        {"n_periods": 1},
        {"bins_per_period": 1},
        {"n_trials": 1},
        {"control_waveform": "saw"},
        {"control_waveform": "custom"},
        {"control_waveform": "custom", "control_samples": [0.0, 3.0]},
        {"control_samples": [1.0]},
        {"control_frequency_mhz": 0.0},
        {"hd1_efficiency": 0.0},
        {"hd1_efficiency": 1.5},
        {"feedforward_sign": 0},
        {"seed": -1},
        {"pwl_segments": 0},
        {"pwl_lo": 2.0, "pwl_hi": -2.0},
        {"bins_per_period": 50.5},
        {"bins_per_period": 50.0},
        {"n_periods": True},
        {"n_trials": 1000.0},
        {"n_trials": "1000"},
        {"pwl_segments": 16.0},
        {"use_pwl_electronics": True, "control_amplitude": 3.0},
        {"use_pwl_electronics": True, "pwl_lo": -1.5},
        {"use_pwl_electronics": True, "pwl_hi": 1.0},
        {"control_waveform": "custom", "control_samples": [0.0, float("nan")]},
        {"input_frequency_mhz": 0.0},
        {"input_x_amplitude": float("nan")},
        {"input_phase_rad": float("nan")},
        {"pwl_segments": 1001},
    ],
)
def test_validation_rejects(overrides):
    with pytest.raises(ConfigError):
        config_from_dict(overrides)


# values of the wrong JSON type, each refused with the field's name
WRONG_TYPES = {
    "pwl-flag-string": ({"use_pwl_electronics": "false"}, "use_pwl_electronics"),
    "pwl-flag-int": ({"use_pwl_electronics": 1}, "use_pwl_electronics"),
    "sign-bool": ({"feedforward_sign": True}, "feedforward_sign"),
    "ancilla-bool": ({"ancilla_db": True}, "ancilla_db"),
    "efficiency-bool": ({"hd1_efficiency": True}, "hd1_efficiency"),
    "gain-bool": ({"feedforward_gain_override": True}, "feedforward_gain_override"),
    "samples-digit-string": (
        {"control_waveform": "custom", "control_samples": "12"}, "control_samples"),
    "samples-string": ({"control_waveform": "custom", "control_samples": "abc"}, "control_samples"),
    "samples-bool-member": (
        {"control_waveform": "custom", "control_samples": [1.0, True]}, "control_samples"),
    "waveform-number": ({"control_waveform": 1}, "control_waveform"),
}


@pytest.mark.parametrize("raw, name", list(WRONG_TYPES.values()), ids=list(WRONG_TYPES))
def test_wrong_json_type_rejected(raw, name):
    with pytest.raises(ConfigError) as info:
        config_from_dict(raw)
    assert str(info.value).startswith(f"config: {name} must be ")


# JSON integers beyond float range, each refused with the field's name
BEYOND_FLOAT = {
    "float-field": ({"ancilla_db": 10**400}, "ancilla_db"),
    "samples-member": (
        {"control_waveform": "custom", "control_samples": [0, 10**400]}, "control_samples"),
}


@pytest.mark.parametrize("raw, name", list(BEYOND_FLOAT.values()), ids=list(BEYOND_FLOAT))
def test_integer_beyond_float_range_rejected(raw, name):
    with pytest.raises(ConfigError) as info:
        config_from_dict(raw)
    assert str(info.value) == f"config: {name} must lie within float range"


def test_ancilla_variance_outside_the_squeezed_vacuum_range_rejected():
    # -116.9897 dB is a variance of 1e-12, MIN_SQUEEZED_VARIANCE
    assert config_from_dict({"ancilla_db": -116.98}).ancilla_db == -116.98
    # a variance that overflows to inf, past 3083 dB, is refused by the same rule
    for db in (-117.0, -120.0, 4000.0):
        with pytest.raises(ConfigError, match="ancilla_db must give a finite variance >= 1e-12"):
            config_from_dict({"ancilla_db": db})


def test_int_samples_are_numbers():
    cfg = config_from_dict({"control_waveform": "custom", "control_samples": [1, -1]})
    assert cfg.control_samples == (1.0, -1.0)
    assert all(type(v) is float for v in cfg.control_samples)
    assert type(config_from_dict({"ancilla_db": -3}).ancilla_db) is float


# config fields that another field's value makes unused: each pair is refused
IGNORED_PAIRS = [
    ({"use_pwl_electronics": True, "feedforward_gain_override": 0.5},
     ("feedforward_gain_override", "use_pwl_electronics")),
    ({"control_waveform": "custom", "control_samples": [0.0, 1.0], "control_phase_rad": 0.3},
     ("control_phase_rad", "control_waveform")),
    ({"pwl_segments": 64}, ("pwl_segments", "use_pwl_electronics")),
    ({"pwl_lo": -5}, ("pwl_lo", "use_pwl_electronics")),
    ({"pwl_hi": 7.0}, ("pwl_hi", "use_pwl_electronics")),
    ({"feedforward_gain_override": -0.5}, ("feedforward_gain_override", "feedforward_sign")),
    ({"feedforward_sign": -1, "feedforward_gain_override": 0.0},
     ("feedforward_sign", "feedforward_gain_override")),
]


@pytest.mark.parametrize(
    "raw, names", IGNORED_PAIRS,
    ids=["pwl-gain", "custom-phase", "no-tables-segments", "no-tables-lo", "no-tables-hi",
         "negative-gain", "signed-zero-gain"],
)
def test_fields_that_would_be_ignored_are_rejected(raw, names):
    with pytest.raises(ConfigError) as info:
        config_from_dict(raw)
    for name in names:
        assert name in str(info.value)


@pytest.mark.parametrize(
    "raw",
    [{"optical_delay_ns": -1.0}, {"optical_delay_ns": 43.4}, {"electronics_latency_ns": 10.0}],
)
def test_removed_delay_keys_rejected(tmp_path, raw):
    # a config saved while the unused delay fields existed must not load
    path = tmp_path / "cfg.json"
    path.write_text(json.dumps(raw))
    (key,) = raw
    with pytest.raises(ConfigError, match=key):
        load_config(path)


def test_field_values_cover_every_field():
    assert set(FIELD_VALUES) == {f.name for f in fields(RunConfig)}


@given(configs())
@settings(max_examples=200, deadline=None)
def test_json_round_trip_keeps_config_and_digest(tmp_path_factory, cfg):
    path = tmp_path_factory.getbasetemp() / "property.json"
    save_config(cfg, path)
    loaded = load_config(path)
    assert loaded == cfg
    assert config_digest(loaded) == config_digest(cfg)


@given(configs(), st.sampled_from(sorted(FIELD_VALUES)), st.data())
@settings(max_examples=300, deadline=None)
def test_digest_changes_with_any_single_field(cfg, name, data):
    value = data.draw(FIELD_VALUES[name])
    try:
        changed = replace(cfg, **{name: value})
    except ConfigError:
        assume(False)  # e.g. samples on a non-custom waveform
    assume(changed != cfg)
    assert config_digest(changed) != config_digest(cfg)


def test_digest_is_stable_and_sensitive():
    a = config_from_dict({"seed": 1, "n_trials": 100})
    b = config_from_dict({"n_trials": 100, "seed": 1})
    assert config_digest(a) == config_digest(b)
    c = config_from_dict({"seed": 2, "n_trials": 100})
    assert config_digest(a) != config_digest(c)
    assert len(config_digest(a)) == 64


# An integer value that is valid for each float-typed field.
INT_SPELLINGS = {
    "ancilla_db": -3,
    "feedforward_gain_override": 1,
    "hd1_efficiency": 1,
    "control_frequency_mhz": 2,
    "control_amplitude": 1,
    "control_phase_rad": 1,
    "input_x_amplitude": 2,
    "input_p_amplitude": 1,
    "input_frequency_mhz": 4,
    "input_phase_rad": -1,
    "pwl_lo": -3,
    "pwl_hi": 3,
}


def test_int_spellings_cover_every_float_field():
    floats = {f.name for f in fields(RunConfig) if f.type in ("float", "float | None")}
    assert set(INT_SPELLINGS) == floats


@pytest.mark.parametrize("name", sorted(INT_SPELLINGS))
def test_int_and_float_spellings_share_a_digest(name):
    # the table range only applies with the tables on
    tables = {"use_pwl_electronics": True} if name.startswith("pwl_") else {}
    as_int = config_from_dict({name: INT_SPELLINGS[name], **tables})
    as_float = config_from_dict({name: float(INT_SPELLINGS[name]), **tables})
    assert as_int == as_float
    assert config_digest(as_int) == config_digest(as_float)


_CUSTOM = {"control_waveform": "custom", "control_samples": [0.0, 1.0]}


@pytest.mark.parametrize(
    "plus, minus",
    [
        ({"input_phase_rad": 0.0}, {"input_phase_rad": -0.0}),
        (_CUSTOM, {**_CUSTOM, "control_samples": [-0.0, 1.0]}),
        (_CUSTOM, {**_CUSTOM, "control_phase_rad": -0.0}),
    ],
    ids=["input-phase", "custom-samples", "custom-phase"],
)
def test_negative_zero_shares_a_digest(plus, minus):
    # -0.0 == 0.0, so the two configs are equal and must share one digest;
    # stored as 0.0 too, or a -0.0 sample is written as kappa -0, not 0
    a, b = config_from_dict(plus), config_from_dict(minus)
    assert a == b and repr(a) == repr(b)
    assert config_digest(a) == config_digest(b)


def test_default_digest_is_pinned():
    # Taken before ints in float fields were written as floats; the defaults
    # are all floats there, so their canonical JSON did not change.
    assert config_digest(RunConfig()) == (
        "4931e266c5a204751a537a00d561a48e7e25324e83e938f6c8e0a51166704541"
    )


def test_lookup_range_only_binds_the_table_electronics():
    # the look-up tables may cover exactly the control range
    assert config_from_dict({"use_pwl_electronics": True}).control_amplitude == 2.0
    # exact electronics have no table to leave
    assert config_from_dict({"control_amplitude": 3.0}).pwl_hi == 2.0


# values whose run would overflow, each refused with the field's name: a bin
# width out of float range by RunConfig, every other value by the run's own
# numpy errors, which both routes raise, so no cap stands in for them
OVERFLOWING = {
    "bin-width-inf": ({"control_frequency_mhz": 1e-320}, "control_frequency_mhz"),
    "bin-width-zero": ({"control_frequency_mhz": 1e307}, "control_frequency_mhz"),
    "control-phase": ({"control_frequency_mhz": 5e307, "bins_per_period": 2},
                      "control_frequency_mhz"),
    "input-phase": ({"input_frequency_mhz": 1e308}, "input_frequency_mhz"),
    "gain": ({"control_amplitude": 1e155}, "control_amplitude"),
    "table-gain": ({"use_pwl_electronics": True, "pwl_hi": 1e200}, "pwl_hi"),
    "override-square": ({"feedforward_gain_override": 1.35e154}, "feedforward_gain_override"),
}


@pytest.mark.parametrize("raw, name", list(OVERFLOWING.values()), ids=list(OVERFLOWING))
def test_values_that_overflow_the_run_are_rejected(raw, name):
    for run in (theory_traces, simulate_moments):
        with pytest.raises(ConfigError) as info:
            run(config_from_dict(raw))
        assert re.match(f"(config: )?{name} ", str(info.value))


def test_values_just_inside_the_overflow_rules_pass():
    # sqrt(1 + kappa^2) of 1e150 is finite, and a custom waveform computes no control phase
    for raw in ({"control_amplitude": 1e150},
                {"use_pwl_electronics": True, "pwl_lo": -1e150},
                {"feedforward_gain_override": 1e154},
                {"control_waveform": "custom", "control_samples": [1.0],
                 "control_frequency_mhz": 5e307, "bins_per_period": 2}):
        cfg = config_from_dict(raw)
        assert theory_traces(cfg).kappa.size == simulate_moments(cfg).kappa.size == cfg.n_bins


def test_an_override_lifts_the_gain_overflow_rule():
    # an override replaces sqrt(1 + kappa^2), so the run never takes it at 1e155
    cfg = config_from_dict({"control_amplitude": 1e155, "feedforward_gain_override": 1.0})
    assert cfg.control_amplitude == 1e155 and cfg.feedforward_gain_override == 1.0
    assert np.all(np.isfinite(theory_traces(cfg).variance[0.0]))
