import json

import pytest

from dynsqueeze import ConfigError, RunConfig, config_digest, load_config, save_config
from dynsqueeze.config import config_from_dict


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
    assert cfg.optical_delay_ns == 43.4
    assert cfg.electronics_latency_ns == 10.0
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
        {"optical_delay_ns": -1.0},
        {"bins_per_period": 50.5},
        {"bins_per_period": 50.0},
        {"n_periods": True},
        {"n_trials": 1000.0},
        {"n_trials": "1000"},
        {"pwl_segments": 16.0},
        {"use_pwl_electronics": True, "control_amplitude": 3.0},
        {"use_pwl_electronics": True, "pwl_lo": -1.5},
        {"use_pwl_electronics": True, "pwl_hi": 1.0},
    ],
)
def test_validation_rejects(overrides):
    with pytest.raises(ConfigError):
        config_from_dict(overrides)


def test_digest_is_stable_and_sensitive():
    a = config_from_dict({"seed": 1, "n_trials": 100})
    b = config_from_dict({"n_trials": 100, "seed": 1})
    assert config_digest(a) == config_digest(b)
    c = config_from_dict({"seed": 2, "n_trials": 100})
    assert config_digest(a) != config_digest(c)
    assert len(config_digest(a)) == 64


def test_lookup_range_only_binds_the_table_electronics():
    # the look-up tables may cover exactly the control range
    assert config_from_dict({"use_pwl_electronics": True}).control_amplitude == 2.0
    # exact electronics have no table to leave
    assert config_from_dict({"control_amplitude": 3.0}).pwl_hi == 2.0
