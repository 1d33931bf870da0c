import hashlib
import io
import json
import mmap
import os
import re
import subprocess
import sys
import tracemalloc
import zipfile
from dataclasses import replace
from pathlib import Path

import numpy as np
import pytest

from dynsqueeze import (
    ConfigError,
    GateParams,
    MEASUREMENT_ANGLES,
    RunConfig,
    closed_form_output,
    db_to_variance,
    estimate_moments,
    generate_traces,
    make_coherent,
    quadrature_mean,
    quadrature_variance,
    run_experiment,
    run_output_states,
    simulate_moments,
    simulate_records,
    theory_traces,
)
from dynsqueeze import archive, harness
from dynsqueeze.harness import HomodyneRecordSet
from dynsqueeze.tables import (
    MOMENTS_COLUMNS,
    label_for_angle,
    read_moments,
    read_moments_csv,
    read_table,
    trials_from_moments,
    write_moments_csv,
    write_moments_files,
    write_simplified_csv,
    write_theory_csv,
)

SMALL = RunConfig(n_trials=300, bins_per_period=20, seed=11)


def test_grid_spans_two_periods():
    tr = generate_traces(RunConfig())
    assert len(tr.time_us) == 200
    assert tr.time_us[1] - tr.time_us[0] == pytest.approx(0.01)
    assert tr.time_us[-1] == pytest.approx(1.99)
    # sine control: one full period repeats halfway through
    assert tr.kappa[:100] == pytest.approx(tr.kappa[100:], abs=1e-9)


def test_control_amplitude_bound():
    for waveform in ("sine", "square"):
        # 500 bins a period at 0.146 MHz: a bin width of 0.0137 us
        cfg = RunConfig(
            control_waveform=waveform, control_frequency_mhz=1.0 / (500 * 0.0137),
            bins_per_period=500, n_periods=2,
        )
        k = generate_traces(cfg).kappa
        assert len(k) == 1000
        assert np.max(np.abs(k)) <= 2.0 + 1e-12


def test_sine_control_hits_extremes_on_default_grid():
    tr = generate_traces(RunConfig())
    assert np.max(tr.kappa) == pytest.approx(2.0, abs=1e-12)
    assert np.min(tr.kappa) == pytest.approx(-2.0, abs=1e-12)
    assert np.min(np.abs(tr.kappa)) == pytest.approx(0.0, abs=1e-12)


def test_square_control_levels():
    cfg = RunConfig(control_waveform="square")
    tr = generate_traces(cfg)
    nonzero = tr.kappa[tr.kappa != 0.0]
    assert set(np.round(nonzero, 12)) == {-2.0, 2.0}


@pytest.mark.parametrize("bpp", [2, 4, 7, 98, 100, 1000])
def test_square_control_edges(bpp):
    # each period: ceil(bpp/2) bins at +A, then the rest at -A, none at 0;
    # a bin exactly on a half-period boundary starts the new half (at 98 bins
    # some boundary phases land an ulp short of a multiple of pi)
    tr = generate_traces(RunConfig(control_waveform="square", bins_per_period=bpp))
    high = -(-bpp // 2)
    want = np.array([2.0] * high + [-2.0] * (bpp - high))
    assert np.array_equal(tr.kappa, np.tile(want, 2))


def test_custom_control_tiles():
    cfg = RunConfig(
        control_waveform="custom",
        control_samples=[0.0, 2.0, -2.0],
        bins_per_period=3,
        n_periods=2,
    )
    tr = generate_traces(cfg)
    assert tr.kappa == pytest.approx([0.0, 2.0, -2.0, 0.0, 2.0, -2.0])


def test_input_modulation_trace():
    tr = generate_traces(RunConfig())
    want = 3.0 * np.sin(2.0 * np.pi * 5.0 * tr.time_us)
    assert tr.mean_x == pytest.approx(want, abs=1e-12)
    assert tr.mean_p == pytest.approx(np.zeros_like(want), abs=1e-12)


def test_run_output_states_match_closed_form():
    states = run_output_states(SMALL)
    tr = generate_traces(SMALL)
    vx = db_to_variance(SMALL.ancilla_db)
    for b in (0, 7, 13, 39):
        want = closed_form_output(
            make_coherent(tr.mean_x[b], tr.mean_p[b]),
            GateParams.exact(tr.kappa[b], ancilla_vx=vx),
        )
        assert np.allclose(states[b].cov, want.cov, atol=1e-12)
        assert np.allclose(states[b].mean, want.mean, atol=1e-12)


# Off-default hardware: a lossy feed-forward detector, a reversed sign and a
# fixed gain, and the look-up-table electronics of the records-pwl workload.
HARDWARE_CONFIGS = {
    "default": RunConfig(),
    "records-pwl": RunConfig(use_pwl_electronics=True, n_trials=2000),
    "lossy": RunConfig(hd1_efficiency=0.8, feedforward_sign=-1, feedforward_gain_override=0.5),
}


@pytest.mark.parametrize("name", HARDWARE_CONFIGS)
def test_theory_traces_match_pipeline_at_configured_operating_point(name):
    cfg = HARDWARE_CONFIGS[name]
    states = run_output_states(cfg)
    th = theory_traces(cfg)
    for angle in MEASUREMENT_ANGLES:
        np.testing.assert_allclose(
            th.mean[angle], quadrature_mean(states, angle), rtol=1e-9, atol=1e-12
        )
        np.testing.assert_allclose(
            th.variance[angle], quadrature_variance(states, angle), rtol=1e-9, atol=0.0
        )


def test_output_states_match_theory_at_extreme_ancilla_squeezing():
    # The ancilla's p variance runs from 5e7 to 2e11 here, where the symplectic
    # spectrum of a two-mode covariance is lost to rounding.  Only the one-mode
    # output is checked, and it must still agree with the closed form.
    for db in range(-80, -117, -2):
        cfg = replace(SMALL, ancilla_db=float(db))
        states, th = run_output_states(cfg), theory_traces(cfg)
        for angle in MEASUREMENT_ANGLES:
            np.testing.assert_allclose(
                quadrature_mean(states, angle), th.mean[angle], rtol=1e-12, atol=1e-15
            )
            np.testing.assert_allclose(
                quadrature_variance(states, angle), th.variance[angle], rtol=1e-12, atol=0.0
            )


def test_run_experiment_shapes_and_determinism():
    a = run_experiment(SMALL)
    b = run_experiment(SMALL)
    assert a.angles == MEASUREMENT_ANGLES
    assert a.n_trials == 300
    for angle in MEASUREMENT_ANGLES:
        assert a.samples[angle].shape == (300, 40)
        assert np.array_equal(a.samples[angle], b.samples[angle])
    c = run_experiment(SMALL, seed=12)
    assert not np.array_equal(a.samples[0.0], c.samples[0.0])
    assert c.seed == 12


def test_angle_streams_are_independent():
    rec = run_experiment(SMALL)
    assert not np.array_equal(rec.samples[0.0], rec.samples[np.pi / 2.0])


def test_moments_near_theory():
    cfg = RunConfig(n_trials=4000, bins_per_period=25, seed=3)
    est = estimate_moments(run_experiment(cfg))
    th = theory_traces(cfg)
    for angle in MEASUREMENT_ANGLES:
        z_var = np.abs(est.variance[angle] - th.variance[angle]) / est.se_var[angle]
        z_mean = np.abs(est.mean[angle] - th.mean[angle]) / est.se_mean[angle]
        # 50 bins per angle; 6 sigma keeps the false-alarm rate negligible
        assert np.max(z_var) < 6.0
        assert np.max(z_mean) < 6.0


def test_estimate_moments_formulas():
    samples = np.array([[1.0, 0.0], [3.0, 4.0], [5.0, 2.0], [7.0, 2.0]])
    rec = HomodyneRecordSet(
        np.array([0.0, 1.0]), np.array([0.5, -0.5]),
        {0.0: samples, np.pi / 2.0: samples, np.pi / 4.0: samples},
        seed=0, config_digest="d",
    )
    est = estimate_moments(rec)
    assert est.mean[0.0] == pytest.approx([4.0, 2.0])
    assert est.variance[0.0] == pytest.approx(samples.var(axis=0, ddof=1))
    assert est.se_mean[0.0] == pytest.approx(np.sqrt(est.variance[0.0] / 4.0))
    assert est.se_var[0.0] == pytest.approx(est.variance[0.0] * np.sqrt(2.0 / 3.0))


def test_estimate_moments_needs_two_trials():
    rec = HomodyneRecordSet(
        np.array([0.0]), np.array([0.0]),
        {a: np.zeros((1, 1)) for a in MEASUREMENT_ANGLES},
        seed=0, config_digest="d",
    )
    with pytest.raises(ValueError):
        estimate_moments(rec)


def test_record_set_validates_shapes():
    with pytest.raises(ValueError):
        HomodyneRecordSet(
            np.zeros(3), np.zeros(3),
            {0.0: np.zeros((5, 3)), np.pi / 2.0: np.zeros((5, 2))},
            seed=0, config_digest="d",
        )
    with pytest.raises(ValueError):
        HomodyneRecordSet(
            np.zeros(3), np.zeros(2), {0.0: np.zeros((5, 3))}, seed=0, config_digest="d"
        )


def test_record_set_refuses_no_blocks_and_blocks_that_are_not_real_numbers():
    with pytest.raises(ValueError, match="^no sample blocks$"):
        HomodyneRecordSet(np.zeros(3), np.zeros(3), {}, seed=0, config_digest="d")
    for bad in (np.zeros((5, 3), complex), np.zeros((5, 3), object), np.zeros((5, 3), bool)):
        with pytest.raises(ValueError, match=r"^samples at angle 0\.5 are not real numbers$"):
            HomodyneRecordSet(
                np.zeros(3), np.zeros(3), {0.0: np.zeros((5, 3)), 0.5: bad}, seed=0,
                config_digest="d",
            )


def test_record_set_round_trip(tmp_path):
    rec = run_experiment(SMALL)
    path = tmp_path / "records.npz"
    rec.save(path)
    back = HomodyneRecordSet.load(path)
    assert back.seed == rec.seed
    assert back.config_digest == rec.config_digest
    assert np.array_equal(back.time_us, rec.time_us)
    for angle in MEASUREMENT_ANGLES:
        assert np.array_equal(back.samples[angle], rec.samples[angle])


def test_records_and_streamed_blocks_match_pinned_sha256():
    # The records of a 2000-bin x 150-trial run, pinned before the shots were
    # drawn from standard normals, and again when the gate's matrix products
    # moved from BLAS to np.einsum, which rounds some loc and scale by an ulp.
    cfg = RunConfig(bins_per_period=1000, n_periods=2, n_trials=150, seed=99)
    pin = "857842a8cbc463d421f58537f0af73daef5282bc042998afdf8b079c9d639d15"
    rec = run_experiment(cfg)
    digest = hashlib.sha256()
    for angle in MEASUREMENT_ANGLES:
        digest.update(np.ascontiguousarray(rec.samples[angle]))
    assert digest.hexdigest() == pin


def test_shot_blocks_equal_generator_normal_bit_for_bit():
    # Records are standard normals scaled and shifted in place; they must be
    # the numbers Generator.normal(loc, scale) draws.  A platform that fused
    # loc + scale * z into one FMA would fail here before the SHA-256 pin.
    cfg = RunConfig(use_pwl_electronics=True, bins_per_period=40, n_trials=90, seed=17)
    states = run_output_states(cfg)
    children = np.random.SeedSequence(cfg.seed).spawn(len(MEASUREMENT_ANGLES))
    rec = run_experiment(cfg)
    for angle, child in zip(MEASUREMENT_ANGLES, children):
        loc = quadrature_mean(states, angle)
        scale = np.sqrt(quadrature_variance(states, angle))
        assert np.ptp(loc) > 0.1
        assert angle == 0.0 or np.ptp(scale) > 0.1  # the gate leaves var(x) alone
        want = np.random.default_rng(child).normal(loc, scale, size=(cfg.n_trials, cfg.n_bins))
        assert rec.samples[angle].tobytes() == want.tobytes()


def _ks_statistic(a, b):
    """Two-sample Kolmogorov-Smirnov statistic: the largest gap between the ECDFs."""
    a, b = np.sort(a), np.sort(b)
    at = np.concatenate([a, b])
    gap = np.searchsorted(a, at, side="right") / a.size - np.searchsorted(b, at, side="right") / b.size
    return float(np.max(np.abs(gap)))


def _standardized_moments(est, states):
    """Pooled (mean - mu) / sqrt(v / n) and (n - 1) var / v over angles and bins."""
    n = est.n_trials
    z, q = [], []
    for angle in MEASUREMENT_ANGLES:
        mu, v = quadrature_mean(states, angle), quadrature_variance(states, angle)
        z.append((est.mean[angle] - mu) / np.sqrt(v / n))
        q.append((n - 1) * est.variance[angle] / v)
    return np.concatenate(z), np.concatenate(q)


# 12 000 values per sample: 200 seeds x 20 bins x 3 angles.
DIST_SEEDS = 200
DIST_CFG = RunConfig(bins_per_period=10, n_periods=2, n_trials=50)


def test_streamed_moments_follow_the_law_of_the_records_moments():
    # simulate_moments draws each bin's sample mean and variance from their
    # exact law; they must be distributed as the moments of drawn records.
    # The two routes take disjoint seeds, so the samples are independent.
    # Critical value: 1.95 * sqrt(2 / N), the asymptotic 0.1 % two-sample KS
    # bound for two samples of N each.  Scaling the streamed variance by 1.05
    # moves the chi-square statistic by about 0.1, far beyond it.
    states = run_output_states(DIST_CFG)
    streamed = [_standardized_moments(simulate_moments(DIST_CFG, s), states)
                for s in range(DIST_SEEDS)]
    stored = [_standardized_moments(estimate_moments(run_experiment(DIST_CFG, s)), states)
              for s in range(DIST_SEEDS, 2 * DIST_SEEDS)]
    n_values = DIST_SEEDS * DIST_CFG.n_bins * len(MEASUREMENT_ANGLES)
    critical = 1.95 * np.sqrt(2.0 / n_values)
    for k, name in enumerate(("standardized mean", "chi-square of the variance")):
        a = np.concatenate([pair[k] for pair in streamed])
        b = np.concatenate([pair[k] for pair in stored])
        assert a.size == b.size == n_values
        assert _ks_statistic(a, b) < critical, name


def test_streamed_moments_reach_a_trillion_trials():
    cfg = RunConfig(bins_per_period=5, n_periods=2, n_trials=10**12, seed=5)
    est = simulate_moments(cfg)
    th = theory_traces(cfg)
    assert est.n_trials == 10**12
    for angle in MEASUREMENT_ANGLES:
        assert np.all(np.isfinite(est.mean[angle])) and np.all(np.isfinite(est.variance[angle]))
        assert np.array_equal(est.se_var[angle], est.variance[angle] * np.sqrt(2.0 / (10**12 - 1)))
        assert np.array_equal(est.se_mean[angle], np.sqrt(est.variance[angle] / 10**12))
        # se_var is about 1.4e-6 of the variance; the theory is the law's centre
        assert np.max(np.abs(est.variance[angle] - th.variance[angle]) / est.se_var[angle]) < 6.0


def test_compressed_records_are_refused_and_restore_as_saved(tmp_path):
    # only the first version wrote np.savez_compressed; no member is inflated
    rec = run_experiment(SMALL)
    old, new = tmp_path / "old.npz", tmp_path / "new.npz"
    np.savez_compressed(old, **_members(rec))
    with pytest.raises(ValueError) as info:
        HomodyneRecordSet.load(old)
    assert str(info.value) == f"{old}: member meta is stored compressed"
    with zipfile.ZipFile(tmp_path / "one.npz", "w") as zf:  # only samples_1 deflated
        for name, array in _members(rec).items():
            npy = io.BytesIO()
            np.lib.format.write_array(npy, array)
            kind = zipfile.ZIP_DEFLATED if name == "samples_1" else zipfile.ZIP_STORED
            zf.writestr(f"{name}.npy", npy.getvalue(), compress_type=kind)
    with pytest.raises(ValueError, match=re.escape("member samples_1 is stored compressed")):
        HomodyneRecordSet.load(tmp_path / "one.npz")
    with np.load(old) as a:  # the re-store recipe README gives
        np.savez(new, **a)
    rec.save(tmp_path / "saved.npz")
    assert new.read_bytes() == (tmp_path / "saved.npz").read_bytes()
    assert np.array_equal(HomodyneRecordSet.load(new).samples[rec.angles[1]],
                          rec.samples[rec.angles[1]])


def _members(rec) -> dict:
    """The arrays ``rec.save`` writes, by member name."""
    return {
        "meta": np.array(json.dumps({"seed": rec.seed, "config_digest": rec.config_digest})),
        "time_us": rec.time_us, "kappa": rec.kappa,
        **{f"samples_{i}": rec.samples[a] for i, a in enumerate(rec.angles)},
        "angles": np.array(rec.angles),
    }


def _savez(path, rec, samples):
    """``np.savez`` of ``rec``'s members with ``samples`` as its blocks."""
    meta = json.dumps({"seed": rec.seed, "config_digest": rec.config_digest})
    np.savez(
        path, meta=np.array(meta), time_us=rec.time_us, kappa=rec.kappa,
        **{f"samples_{i}": samples[a] for i, a in enumerate(rec.angles)},
        angles=np.array(rec.angles),
    )


@pytest.mark.parametrize("change", ["replaced", "rewritten"])
def test_loaded_records_refuse_an_archive_changed_after_load(tmp_path, change):
    path = tmp_path / "records.npz"
    run_experiment(SMALL).save(path)
    back = HomodyneRecordSet.load(path)
    if change == "replaced":
        run_experiment(SMALL, 12).save(path)  # the same size, a new file
    else:  # the same bytes written into the same file, a second later
        data, st = path.read_bytes(), path.stat()
        with path.open("r+b") as f:
            f.write(data)
        os.utime(path, ns=(st.st_atime_ns, st.st_mtime_ns + 10**9))
    with pytest.raises(ValueError, match=re.escape(f"{path}: the archive changed")):
        back.samples[0.0]
    with pytest.raises(ValueError, match=re.escape(f"{path}: the archive changed")):
        estimate_moments(back)


def test_loaded_records_name_a_member_that_fails_its_crc(tmp_path):
    # every member is read through at load, where zipfile checks its CRC
    rec = run_experiment(SMALL)
    path = tmp_path / "records.npz"
    rec.save(path)
    data = bytearray(path.read_bytes())
    second = rec.samples[rec.angles[1]].tobytes()
    data[data.index(second) + len(second) // 2] ^= 0x10
    path.write_bytes(data)
    with pytest.raises(ValueError, match=re.escape(f"{path}: member samples_1 fails its CRC")):
        HomodyneRecordSet.load(path)


def _flip_last_byte(path, array) -> None:
    """Flip bit 0 of the last byte of ``array``'s data, which the file at ``path`` holds once."""
    data, raw = bytearray(path.read_bytes()), array.tobytes()
    assert data.count(raw) == 1
    data[data.index(raw) + len(raw) - 1] ^= 0x01
    path.write_bytes(data)


@pytest.mark.parametrize(
    "member", ["meta", "time_us", "kappa", "samples_0", "samples_1", "samples_2", "angles"]
)
def test_load_names_any_member_that_fails_its_crc(tmp_path, member):
    # zipfile's own CRC error, a BadZipFile, is no ValueError and names no file
    rec = run_experiment(SMALL)
    path = tmp_path / "records.npz"
    rec.save(path)
    _flip_last_byte(path, _members(rec)[member])
    with pytest.raises(ValueError) as info:
        HomodyneRecordSet.load(path)
    assert str(info.value) == f"{path}: member {member} fails its CRC check"


def test_a_corrupted_archive_is_refused_though_no_block_is_read(tmp_path, monkeypatch):
    rec = run_experiment(SMALL)
    path = tmp_path / "records.npz"
    rec.save(path)
    _flip_last_byte(path, rec.samples[rec.angles[2]])
    monkeypatch.setattr(archive.ArchiveBlocks, "_read", None)  # any block read raises TypeError
    monkeypatch.setattr(archive.ArchiveBlocks, "rows", None)
    with pytest.raises(ValueError, match=re.escape(f"{path}: member samples_2 fails its CRC")):
        HomodyneRecordSet.load(path)


def test_load_refuses_a_member_that_ends_before_its_data(tmp_path):
    # a header that gives one row, or element, more than the member holds: a
    # map of a block would take the next member's bytes for that row, and
    # numpy's reader of a small member raised an EOF error naming no file
    rec = run_experiment(SMALL)
    fmt = np.lib.format
    for short in ("samples_0", "time_us"):
        path = tmp_path / f"{short}.npz"
        with zipfile.ZipFile(path, "w") as zf:
            for name, array in _members(rec).items():
                with zf.open(f"{name}.npy", "w") as fh:
                    header = fmt.header_data_from_array_1_0(array)
                    if name == short:
                        header["shape"] = (len(array) + 1, *array.shape[1:])
                    fmt.write_array_header_1_0(fh, header)
                    fh.write(array.tobytes())
        with pytest.raises(ValueError) as info:
            HomodyneRecordSet.load(path)
        assert str(info.value) == f"{path}: member {short} ends early"


@pytest.mark.parametrize("meta, message", [
    ('5', "member meta is not a JSON object"),
    ('{seed: 1}', "member meta is not a JSON object"),
    ('{"seed": "x", "config_digest": "d"}', "meta key 'seed' is 'x', not an integer >= 0"),
    ('{"seed": [1], "config_digest": "d"}', "meta key 'seed' is [1], not an integer >= 0"),
    ('{"seed": 1.7, "config_digest": "d"}', "meta key 'seed' is 1.7, not an integer >= 0"),
    ('{"seed": -3, "config_digest": "d"}', "meta key 'seed' is -3, not an integer >= 0"),
    ('{"seed": true, "config_digest": "d"}', "meta key 'seed' is True, not an integer >= 0"),
], ids=["number", "not-json", "string-seed", "list-seed", "float-seed", "negative-seed",
        "bool-seed"])
def test_load_refuses_a_meta_that_gives_no_seed_the_cli_takes(tmp_path, meta, message):
    # each used to raise TypeError, a bare JSON or int() error, or to load
    # a seed that --seed refuses (-3) or that was not the one written (1.7)
    path = tmp_path / "records.npz"
    np.savez(path, **{**_members(run_experiment(SMALL)), "meta": np.array(meta)})
    with pytest.raises(ValueError) as info:
        HomodyneRecordSet.load(path)
    assert str(info.value) == f"{path}: {message}"


@pytest.mark.parametrize("member", ["time_us", "kappa"])
def test_load_refuses_a_trace_that_is_not_a_list_of_real_numbers(tmp_path, member):
    # a 0-d time_us raised TypeError: len() of unsized object
    members = _members(run_experiment(SMALL))
    members[member] = np.array(0.5)
    path = tmp_path / "records.npz"
    np.savez(path, **members)
    with pytest.raises(ValueError) as info:
        HomodyneRecordSet.load(path)
    assert str(info.value) == f"{path}: member {member} is not a 1-D array of real numbers"


def test_loaded_records_save_onto_their_own_archive(tmp_path):
    rec = run_experiment(SMALL)
    path = tmp_path / "records.npz"
    rec.save(path)
    back = HomodyneRecordSet.load(path)
    angle = back.angles[1]
    block = back.samples[angle].copy()
    block[5, 1] += 1.0
    back.samples[angle] = block
    back.save(path)
    _savez(tmp_path / "savez.npz", rec, {**rec.samples, angle: block})
    assert path.read_bytes() == (tmp_path / "savez.npz").read_bytes()
    assert sorted(p.name for p in tmp_path.iterdir()) == ["records.npz", "savez.npz"]
    assert back.samples[angle] is block
    with pytest.raises(ValueError, match="changed"):
        back.samples[back.angles[0]]  # the archive it was loaded from is gone


def test_a_save_that_fails_midway_leaves_the_old_archive(tmp_path):
    rec = run_experiment(SMALL)
    path = tmp_path / "records.npz"
    rec.save(path)
    before = path.read_bytes()

    def blocks():
        yield rec.angles[0], archive._copied(rec.samples[rec.angles[0]])
        raise RuntimeError("interrupted")

    with pytest.raises(RuntimeError, match="interrupted"):
        archive.write_records(path, rec.time_us, rec.kappa, blocks(), rec.seed, "d")
    assert path.read_bytes() == before
    assert [p.name for p in tmp_path.iterdir()] == ["records.npz"]


@pytest.mark.parametrize("content", ["text", "truncated"])
def test_load_names_a_file_that_is_not_an_archive(tmp_path, content):
    path = tmp_path / "records.npz"
    run_experiment(SMALL).save(path)
    data = path.read_bytes()
    path.write_bytes(b"not a zip archive" if content == "text" else data[: len(data) // 2])
    with pytest.raises(ValueError, match=re.escape(f"{path}: File is not a zip file")):
        HomodyneRecordSet.load(path)


@pytest.mark.parametrize("missing, message", [
    ("meta", "There is no item named 'meta.npy' in the archive"),
    ("samples_1", "There is no item named 'samples_1.npy' in the archive"),
    ("config_digest", "meta has no 'config_digest' key"),
], ids=["meta", "samples_1", "config_digest"])
def test_load_names_what_a_zip_that_is_not_a_records_archive_lacks(tmp_path, missing, message):
    rec = run_experiment(SMALL)
    members = {
        "meta": np.array(json.dumps({"seed": rec.seed, "config_digest": rec.config_digest})),
        "time_us": rec.time_us, "kappa": rec.kappa,
        **{f"samples_{i}": rec.samples[a] for i, a in enumerate(rec.angles)},
        "angles": np.array(rec.angles),
    }
    if missing == "config_digest":
        members["meta"] = np.array(json.dumps({"seed": rec.seed}))
    else:
        del members[missing]
    path = tmp_path / "records.npz"
    np.savez(path, **members)
    with pytest.raises(ValueError, match=re.escape(f"{path}: {message}")):
        HomodyneRecordSet.load(path)


def test_load_refuses_an_angle_that_comes_twice(tmp_path):
    # keyed by angle, the second block would replace the first unseen
    rec = run_experiment(SMALL)
    path = tmp_path / "records.npz"
    np.savez(
        path, meta=np.array(json.dumps({"seed": rec.seed, "config_digest": rec.config_digest})),
        time_us=rec.time_us, kappa=rec.kappa, samples_0=rec.samples[0.0],
        samples_1=rec.samples[0.0] + 1.0, angles=np.array([0.0, 0.0]),
    )
    with pytest.raises(ValueError, match=re.escape(f"{path}: angle 0.0 comes more than once")):
        HomodyneRecordSet.load(path)


def test_load_refuses_a_sample_member_beyond_the_listed_angles(tmp_path):
    # read by index up to len(angles), samples_1 would be dropped unseen
    rec = run_experiment(SMALL)
    path = tmp_path / "records.npz"
    np.savez(
        path, meta=np.array(json.dumps({"seed": rec.seed, "config_digest": rec.config_digest})),
        time_us=rec.time_us, kappa=rec.kappa, samples_0=rec.samples[0.0],
        samples_1=rec.samples[0.0] + 1.0, angles=np.array([0.0]),
    )
    with pytest.raises(
        ValueError, match=re.escape(f"{path}: member samples_1 is not listed in angles")
    ):
        HomodyneRecordSet.load(path)


@pytest.mark.parametrize(
    "angles", [np.array(["x", "y", "z"]), np.array(0.0), np.zeros((3, 1)), np.array([1j, 0, 0])],
    ids=["strings", "scalar", "column", "complex"],
)
def test_load_refuses_angles_that_are_not_a_list_of_real_numbers(tmp_path, angles):
    # float() of each would raise a message naming neither the file nor the member
    rec = run_experiment(SMALL)
    path = tmp_path / "records.npz"
    np.savez(
        path, meta=np.array(json.dumps({"seed": rec.seed, "config_digest": rec.config_digest})),
        time_us=rec.time_us, kappa=rec.kappa,
        **{f"samples_{i}": rec.samples[a] for i, a in enumerate(MEASUREMENT_ANGLES)},
        angles=angles,
    )
    with pytest.raises(
        ValueError, match=re.escape(f"{path}: member angles is not a 1-D array of real numbers")
    ):
        HomodyneRecordSet.load(path)


@pytest.mark.parametrize("layout", ["fortran", "float32", "big-endian", "3-D", "object"])
def test_load_refuses_a_sample_member_that_is_not_a_c_ordered_float64_block(tmp_path, layout):
    # blocks are read and mapped as C-ordered float64 rows only: read so, an
    # object block's bytes would become pointers, and any other layout's
    # bytes other numbers
    rec = run_experiment(SMALL)
    block = rec.samples[0.0]
    samples = {**rec.samples, 0.0: {
        "fortran": np.asfortranarray(block), "float32": block.astype(np.float32),
        "big-endian": block.astype(">f8"), "3-D": block[:, :, None],
        "object": block.astype(object),
    }[layout]}
    path = tmp_path / "records.npz"
    _savez(path, rec, samples)
    with pytest.raises(ValueError) as info:
        HomodyneRecordSet.load(path)
    assert str(info.value) == f"{path}: member samples_0 is not a C-ordered 2-D float64 block"


def test_load_refuses_angles_that_list_no_angle(tmp_path):
    # it used to load as far as the record set, which named no file
    members = {n: a for n, a in _members(run_experiment(SMALL)).items() if n[:8] != "samples_"}
    path = tmp_path / "records.npz"
    np.savez(path, **{**members, "angles": np.array([], float)})
    with pytest.raises(ValueError) as info:
        HomodyneRecordSet.load(path)
    assert str(info.value) == f"{path}: member angles lists no angle"


def test_loaded_records_describe_themselves_from_the_headers(tmp_path):
    rec = run_experiment(SMALL)
    path = tmp_path / "records.npz"
    rec.save(path)
    back = HomodyneRecordSet.load(path)
    path.write_bytes(b"")  # any block read from here on fails
    shapes = {a: (SMALL.n_trials, SMALL.n_bins) for a in MEASUREMENT_ANGLES}
    assert repr(back.samples) == f"ArchiveBlocks({str(path)!r}, shapes={shapes!r})"
    assert f"samples={back.samples!r}" in repr(back)
    assert back.angles == rec.angles and back.n_trials == SMALL.n_trials
    assert 0.0 in back.samples and len(back.samples) == 3
    with pytest.raises(ValueError, match="changed"):
        back.samples[0.0]


def test_saved_records_are_uncompressed(tmp_path):
    rec = run_experiment(SMALL)
    path = tmp_path / "records.npz"
    rec.save(path)
    raw = 8 * len(MEASUREMENT_ANGLES) * SMALL.n_trials * SMALL.n_bins
    assert raw <= path.stat().st_size < raw + 8192


def test_saved_records_match_np_savez_byte_for_byte(tmp_path):
    rec = run_experiment(SMALL)
    rec.save(tmp_path / "records")  # like np.savez, save appends .npz
    meta = json.dumps({"seed": rec.seed, "config_digest": rec.config_digest})
    np.savez(
        tmp_path / "savez.npz", meta=np.array(meta), time_us=rec.time_us, kappa=rec.kappa,
        **{f"samples_{i}": rec.samples[a] for i, a in enumerate(rec.angles)},
        angles=np.array(rec.angles),
    )
    assert (tmp_path / "records.npz").read_bytes() == (tmp_path / "savez.npz").read_bytes()


@pytest.mark.parametrize("layout", ["fortran", "strided", "float32", "transposed"])
def test_saved_records_not_in_c_order_match_np_savez_byte_for_byte(tmp_path, layout):
    # any block is written as its C-ordered float64 copy, and its moments
    # are those of the archive loaded back, bit for bit
    rec = run_experiment(SMALL)
    order = {
        "fortran": np.asfortranarray, "strided": lambda b: np.repeat(b, 2, axis=1)[:, ::2],
        "float32": lambda b: b.astype(np.float32), "transposed": lambda b: b.T.copy().T,
    }
    samples = {a: order[layout](b) for a, b in rec.samples.items()}
    rec = HomodyneRecordSet(rec.time_us, rec.kappa, samples, rec.seed, rec.config_digest)
    rec.save(tmp_path / "records.npz")
    copies = {a: np.ascontiguousarray(b, dtype=float) for a, b in samples.items()}
    _savez(tmp_path / "savez.npz", rec, copies)
    assert (tmp_path / "records.npz").read_bytes() == (tmp_path / "savez.npz").read_bytes()
    got = estimate_moments(HomodyneRecordSet.load(tmp_path / "records.npz"))
    want = estimate_moments(rec)
    for angle in MEASUREMENT_ANGLES:
        assert got.mean[angle].tobytes() == want.mean[angle].tobytes()
        assert got.variance[angle].tobytes() == want.variance[angle].tobytes()


def test_a_set_of_zero_trial_blocks_saves_and_loads(tmp_path):
    rec = run_experiment(SMALL)
    empty = {a: np.empty((0, SMALL.n_bins), np.float32) for a in rec.angles}
    HomodyneRecordSet(rec.time_us, rec.kappa, empty, rec.seed, rec.config_digest).save(
        tmp_path / "records.npz"
    )
    _savez(tmp_path / "savez.npz", rec, {a: b.astype(float) for a, b in empty.items()})
    assert (tmp_path / "records.npz").read_bytes() == (tmp_path / "savez.npz").read_bytes()
    back = HomodyneRecordSet.load(tmp_path / "records.npz")
    assert back.n_trials == 0 and back.samples[rec.angles[0]].shape == (0, SMALL.n_bins)


def test_simulate_records_writes_and_reduces_the_in_memory_records(tmp_path):
    cfg = RunConfig(use_pwl_electronics=True, bins_per_period=20, n_trials=300, seed=4)
    est = simulate_records(cfg, tmp_path / "streamed.npz")
    rec = run_experiment(cfg)
    rec.save(tmp_path / "memory.npz")
    assert (tmp_path / "streamed.npz").read_bytes() == (tmp_path / "memory.npz").read_bytes()
    want = estimate_moments(rec)
    assert est.n_trials == want.n_trials == cfg.n_trials
    for field in ("time_us", "kappa"):
        assert np.array_equal(getattr(est, field), getattr(want, field))
    for field in ("mean", "variance", "se_mean", "se_var"):
        got, ref = getattr(est, field), getattr(want, field)
        assert list(got) == list(ref) == list(MEASUREMENT_ANGLES)
        for angle in MEASUREMENT_ANGLES:
            assert got[angle].tobytes() == ref[angle].tobytes(), (field, angle)


def test_simulate_records_reduces_the_archive_it_wrote_at_npz_appended(tmp_path):
    # like save, simulate_records appends .npz; its moments are read from there
    est = simulate_records(SMALL, tmp_path / "records")
    assert [p.name for p in tmp_path.iterdir()] == ["records.npz"]
    want = estimate_moments(HomodyneRecordSet.load(tmp_path / "records.npz"))
    assert est.n_trials == want.n_trials
    for field in ("mean", "variance", "se_mean", "se_var"):
        for angle in MEASUREMENT_ANGLES:
            got, ref = getattr(est, field)[angle], getattr(want, field)[angle]
            assert got.tobytes() == ref.tobytes(), (field, angle)


def test_simulate_records_drops_each_block_before_drawing_the_next(tmp_path, monkeypatch):
    # No block exists to drop: every draw fills one chunk of the row buffer,
    # at most 128 KiB of rows and never a whole block.  tracemalloc could not
    # see a block drawn and freed between its snapshots; this sees each draw.
    filled = []
    default_rng = np.random.default_rng

    class Spy:
        def __init__(self, seed):
            self.rng = default_rng(seed)

        def standard_normal(self, *args, out=None):
            filled.append(out.shape)
            return self.rng.standard_normal(*args, out=out)

    monkeypatch.setattr(np.random, "default_rng", Spy)
    cfg = replace(SMALL, n_trials=2000)  # 409 rows of 40 bins a chunk
    simulate_records(cfg, tmp_path / "records.npz")
    assert filled == 3 * ([(409, 40)] * 4 + [(2000 - 4 * 409, 40)])
    assert HomodyneRecordSet.load(tmp_path / "records.npz").n_trials == 2000


def test_records_memory_guards_count_three_blocks_in_memory_and_none_streamed(tmp_path,
                                                                             monkeypatch):
    # a block of 3.2 MB, so the 128 KiB row buffer and 1.1 kB a bin come to
    # 0.11 block: a guard counting two blocks in memory would admit
    # run_experiment at 2.5, and one counting a block would refuse
    # simulate_records at 0.9
    cfg = replace(SMALL, n_trials=2000, bins_per_period=100)
    block = cfg.n_trials * cfg.n_bins * 8
    monkeypatch.setattr(harness, "_physical_memory", lambda: int(2.5 * block))
    with pytest.raises(ConfigError, match="physical memory"):
        run_experiment(cfg)
    monkeypatch.setattr(harness, "_physical_memory", lambda: int(0.9 * block))
    simulate_records(cfg, tmp_path / "fits.npz")
    monkeypatch.setattr(harness, "_physical_memory", lambda: int(0.1 * block))
    with pytest.raises(ConfigError, match="physical memory"):
        simulate_records(cfg, tmp_path / "too_big.npz")
    assert not (tmp_path / "too_big.npz").exists()


# (n_trials, n_bins): every n_trials of 2, 3, 17, 2000 and 10851 at 4, 5 and
# 200 bins, and up to 301 at 6000.  A 128 KiB chunk holds 81 rows of 200
# bins, so 162 ends on a whole chunk and 2000 and 10851 on a ragged one; it
# holds 2 rows of 6000 bins, and 1 row of 16400.
BLOCK_SHAPES = [
    *((n, m) for n in (2, 3, 17, 2000, 10851) for m in (4, 5, 200)),
    (162, 200), (2, 6000), (3, 6000), (17, 6000), (301, 6000), (3, 16400), (17, 16400),
]


@pytest.mark.parametrize("shape", BLOCK_SHAPES, ids=lambda s: f"{s[0]}x{s[1]}")
def test_block_moments_are_numpy_mean_and_var_bit_for_bit(shape):
    rng = np.random.default_rng(shape)
    # a mean far from zero in some bins, so the deviations cancel digits
    loc, scale = rng.uniform(-1e3, 1e3, shape[1]), rng.uniform(0.1, 10.0, shape[1])
    block = loc + scale * rng.standard_normal(shape)
    mean, variance = archive._row_moments(*archive._copied(block))
    assert mean.tobytes() == block.mean(axis=0).tobytes()
    assert variance.tobytes() == np.var(block, axis=0, ddof=1).tobytes()


@pytest.mark.parametrize("layout", ["fortran", "transposed", "strided", "one-bin", "float32"])
def test_block_moments_off_the_chunked_path_are_numpy_bit_for_bit(layout):
    # numpy reduces these in another order (pairwise down a contiguous
    # column) or dtype; the row buffer reduces each as its C-ordered float64
    # copy, which, two or more bins wide, numpy sums row by row
    z = np.random.default_rng(5).standard_normal((2000, 40)) + 7.0
    block = {
        "fortran": np.asfortranarray(z),
        "transposed": np.ascontiguousarray(z.T).T,
        "strided": z[:, ::2],
        "one-bin": z[:, :1].copy(),
        "float32": z.astype(np.float32),
    }[layout]
    copy = np.ascontiguousarray(block, dtype=float)
    mean, variance = archive._row_moments(*archive._copied(block))
    want = archive._row_moments(*archive._copied(copy))
    assert mean.tobytes() == want[0].tobytes() and variance.tobytes() == want[1].tobytes()
    if copy.shape[1] > 1:
        assert mean.tobytes() == copy.mean(axis=0).tobytes()
        assert variance.tobytes() == np.var(copy, axis=0, ddof=1).tobytes()


def _peak(call):
    """The tracemalloc peak of ``call()``, after one untraced call."""
    call()  # the first call pays for one-off imports and caches
    tracemalloc.start()
    try:
        call()
        return tracemalloc.get_traced_memory()[1]
    finally:
        tracemalloc.stop()


MEMORY_CFG = RunConfig(n_trials=2000, seed=3)
BLOCK = MEMORY_CFG.n_trials * MEMORY_CFG.n_bins * 8  # 3.05 MiB


def test_estimate_moments_allocates_no_block_sized_temporary():
    # in memory, so that no block is read inside the measured call
    records = run_experiment(MEMORY_CFG)
    peak = _peak(lambda: estimate_moments(records))
    assert peak < 0.25 * BLOCK, peak / BLOCK


def test_load_reads_no_block(tmp_path):
    path = tmp_path / "records.npz"
    run_experiment(MEMORY_CFG).save(path)
    peak = _peak(lambda: HomodyneRecordSet.load(path))
    assert peak < 0.1 * BLOCK, peak / BLOCK


def test_moments_of_a_loaded_set_hold_no_block(tmp_path):
    # a loaded set reduces each stored block through the row buffer as it
    # reads it; a block read whole would peak at 1 block or more
    path = tmp_path / "records.npz"
    run_experiment(MEMORY_CFG).save(path)
    peak = _peak(lambda: estimate_moments(HomodyneRecordSet.load(path)))
    assert peak < 0.25 * BLOCK, peak / BLOCK


def _child(script, *args, **kwargs) -> str:
    """The stdout of ``script`` run with ``args`` in a fresh interpreter on this package."""
    src = str(Path(harness.__file__).resolve().parents[1])
    env = {**os.environ, "PYTHONPATH": src, "OPENBLAS_NUM_THREADS": "1"}
    done = subprocess.run([sys.executable, "-c", script, *map(str, args)], capture_output=True,
                          text=True, timeout=120, env=env, **kwargs)
    assert done.returncode == 0, done.stderr
    return done.stdout


# VmHWM is the peak of resident memory, file pages a block maps in included
_READ_BACK = """import hashlib, sys
from dynsqueeze import HomodyneRecordSet, estimate_moments

def peak():
    with open("/proc/self/status") as f:
        return int(next(line for line in f if line.startswith("VmHWM:")).split()[1]) * 1024

records = HomodyneRecordSet.load(sys.argv[1])
for step in (
    lambda: estimate_moments(records),
    lambda: {a: b.shape for a, b in records.samples.items()},
    lambda: {a: hashlib.sha256(b).hexdigest() for a, b in records.samples.items()},
):
    before = peak()
    step()
    print(peak() - before)
"""


def test_reading_a_loaded_set_back_holds_at_most_one_block(tmp_path):
    # estimate_moments reduces each block through the row buffer and maps
    # none; reduced through its map, a block's pages stay resident, about one
    # block, which tracemalloc cannot see.  Each block is a map of its
    # member's pages, read as they are touched: the shapes touch none, and
    # hashing holds one block's pages at a time, though the loop keeps the
    # last block while it takes the next.  A block read into a fresh array
    # peaks near two blocks in each step.
    if not Path("/proc/self/status").exists():
        pytest.skip("needs /proc to read the child's VmHWM")
    path = tmp_path / "records.npz"
    simulate_records(MEMORY_CFG, path)
    moments, shapes, hashes = map(int, _child(_READ_BACK, path).split())
    assert moments < 0.1 * BLOCK, moments / BLOCK
    assert shapes < 0.1 * BLOCK, shapes / BLOCK
    assert hashes < 1.3 * BLOCK, hashes / BLOCK


def test_writes_into_a_loaded_block_stay_private(tmp_path):
    path = tmp_path / "records.npz"
    rec = run_experiment(SMALL)
    rec.save(path)
    before = path.read_bytes()
    back = HomodyneRecordSet.load(path)
    block = back.samples[0.0]
    assert block.flags.writeable
    block[...] = 0.0
    assert path.read_bytes() == before
    assert np.array_equal(back.samples[0.0], rec.samples[0.0])


def test_a_loaded_block_outlives_a_save_onto_its_archive(tmp_path):
    # the writer replaces the archive, so the old file's pages stay behind the map
    path = tmp_path / "records.npz"
    rec = run_experiment(SMALL)
    rec.save(path)
    back = HomodyneRecordSet.load(path)
    blocks = dict(back.samples.items())
    back.samples[0.0] = rec.samples[0.0] + 1.0
    back.save(path)
    for angle in MEASUREMENT_ANGLES:
        assert np.array_equal(blocks[angle], rec.samples[angle])
    assert np.array_equal(HomodyneRecordSet.load(path).samples[0.0], rec.samples[0.0] + 1.0)


def test_an_empty_member_loads_without_a_map(tmp_path, monkeypatch):
    path = tmp_path / "records.npz"
    rec = run_experiment(SMALL)
    _savez(path, rec, {a: np.empty((0, SMALL.n_bins)) for a in rec.angles})
    back = HomodyneRecordSet.load(path)
    monkeypatch.setattr(mmap, "mmap", None)  # any map raises TypeError
    for angle in rec.angles:
        block = back.samples[angle]
        assert block.shape == (0, SMALL.n_bins) and block.dtype == float


_READ_EACH = """import hashlib, sys
from dynsqueeze import HomodyneRecordSet

records = HomodyneRecordSet.load(sys.argv[1])
for angle in records.angles:
    print(hashlib.sha256(records.samples[angle]).hexdigest())
print(open("/proc/self/status").read().split("VmPeak:")[1].split()[0])
"""


def test_a_loaded_block_maps_only_its_member(tmp_path):
    # Under an address-space limit of the child's own plus 1.5 blocks, each
    # block can be read in turn; a map of the whole 3-block file could not.
    resource = pytest.importorskip("resource")
    if not Path("/proc/self/status").exists():
        pytest.skip("needs /proc to read the child's VmPeak")
    cfg = replace(MEMORY_CFG, n_trials=10000)  # 15 MiB blocks
    block = cfg.n_trials * cfg.n_bins * 8
    for n_trials, name in ((2, "small.npz"), (cfg.n_trials, "records.npz")):
        simulate_records(replace(cfg, n_trials=n_trials), tmp_path / name)
    hard = resource.getrlimit(resource.RLIMIT_AS)[1]
    soft = int(_child(_READ_EACH, tmp_path / "small.npz").split()[-1]) * 1024 + int(1.5 * block)
    if hard != resource.RLIM_INFINITY and soft > hard:
        pytest.skip("the hard RLIMIT_AS is below the limit this test sets")
    out = _child(_READ_EACH, tmp_path / "records.npz",
                 preexec_fn=lambda: resource.setrlimit(resource.RLIMIT_AS, (soft, hard))).split()
    with np.load(tmp_path / "records.npz") as data:
        want = [hashlib.sha256(data[f"samples_{i}"]).hexdigest() for i in range(3)]
    assert out[:-1] == want
    assert int(out[-1]) * 1024 <= soft


def test_moments_of_unaligned_loaded_blocks_match_the_in_memory_ones(tmp_path):
    # numpy can sum an unaligned block, as a mapped member is, to other last
    # bits; every block is reduced from aligned rows instead
    rec = run_experiment(replace(SMALL, n_trials=20000))
    blocks = {a: np.asfortranarray(b) for a, b in rec.samples.items()}
    rec = HomodyneRecordSet(rec.time_us, rec.kappa, blocks, rec.seed, rec.config_digest)
    rec.save(tmp_path / "records.npz")
    back = HomodyneRecordSet.load(tmp_path / "records.npz")
    assert not all(back.samples[a].flags.aligned for a in back.angles)
    got, want = estimate_moments(back), estimate_moments(rec)
    for angle in MEASUREMENT_ANGLES:
        assert got.mean[angle].tobytes() == want.mean[angle].tobytes()
        assert got.variance[angle].tobytes() == want.variance[angle].tobytes()


def test_records_memory_does_not_grow_with_trials(tmp_path):
    # at 20000 trials one block is 30.5 MiB and the archive 92 MiB
    def peaks(n_trials):
        cfg, path = RunConfig(n_trials=n_trials, seed=3), tmp_path / f"{n_trials}.npz"
        written = _peak(lambda: simulate_records(cfg, path))
        read = _peak(lambda: estimate_moments(HomodyneRecordSet.load(path)))
        path.unlink()
        return np.array([written, read])

    small, large = peaks(2000), peaks(20000)
    assert np.all(large - small < 1 << 20), (small, large)


def _csv_trials(tmp_path, est):
    """The n_trials of ``est`` written to and read back from moments CSVs."""
    return read_moments(write_moments_files(tmp_path, est)).n_trials


@pytest.mark.parametrize("n", [2, 3, 400, 10851, 10**6, 10**9, 2 * 10**10])
def test_trials_from_moments_recovers_n_exactly_through_csv(tmp_path, n):
    assert _csv_trials(tmp_path, simulate_moments(RunConfig(n_trials=n, seed=3))) == n


def test_trials_from_moments_tolerates_csv_rounding_at_a_trillion_trials(tmp_path):
    n = _csv_trials(tmp_path, simulate_moments(RunConfig(n_trials=10**12, seed=3)))
    assert abs(n - 10**12) < 2e-11 * 10**12


def test_trials_from_moments_rejects_disagreeing_bins():
    v = {0.0: np.array([1.0, 2.0]), np.pi / 2: np.array([1.0, 0.0])}
    se = {a: x * np.sqrt(2.0 / 399.0) for a, x in v.items()}
    assert trials_from_moments(v, se) == 400  # the zero-variance bin carries no n
    se[np.pi / 2] = se[np.pi / 2] * 1.01
    with pytest.raises(ValueError, match="n_trials from 392.*400"):
        trials_from_moments(v, se)
    with pytest.raises(ValueError, match="no bin"):
        trials_from_moments({0.0: np.zeros(2)}, {0.0: np.zeros(2)})


def _streamed_peak(n_trials):
    cfg = RunConfig(n_trials=n_trials)
    return _peak(lambda: simulate_moments(cfg))


def test_streamed_memory_does_not_grow_with_trials():
    assert _streamed_peak(20000) - _streamed_peak(2000) < 1 << 20
    # the records themselves would be 3 x 20000 x 200 doubles (96 MB)
    assert _streamed_peak(20000) < 8 * (1 << 20)


def _ideal_gate_shortcut(cfg: RunConfig, kappa: np.ndarray) -> np.ndarray:
    return 1.0 + 0.5 * kappa**2 * (0.5 + db_to_variance(cfg.ancilla_db))


def test_theory_traces_simplified_matches_full_p_variance():
    cfg = RunConfig()
    th = theory_traces(cfg)
    shortcut = _ideal_gate_shortcut(cfg, th.kappa)
    assert shortcut == pytest.approx(th.variance[np.pi / 2.0], abs=1e-12)
    # and it is genuinely kappa-dependent
    assert np.ptp(shortcut) > 1.0


@pytest.mark.parametrize("name", HARDWARE_CONFIGS)
def test_simplified_csv_holds_the_ideal_gate_shortcut_bit_for_bit(tmp_path, name):
    cfg = HARDWARE_CONFIGS[name]
    th = theory_traces(cfg)
    p = np.pi / 2.0
    shortcut = th._replace(variance={**th.variance, p: _ideal_gate_shortcut(cfg, th.kappa)})
    write_simplified_csv(tmp_path / "simplified.csv", th)
    write_theory_csv(tmp_path / "shortcut.csv", shortcut, p)
    assert (tmp_path / "simplified.csv").read_bytes() == (tmp_path / "shortcut.csv").read_bytes()


def test_theory_traces_where_the_ideal_gate_shortcut_overflows():
    # kappa^2 v_s is 1e300 x 1e10 here; theory_traces no longer computes it
    cfg = RunConfig(ancilla_db=100, control_amplitude=1e150, feedforward_gain_override=1e-3,
                    bins_per_period=4)
    th = theory_traces(cfg)
    assert th.p_variance_simplified is None
    for angle in MEASUREMENT_ANGLES:
        assert np.all(np.isfinite(th.mean[angle])) and np.all(np.isfinite(th.variance[angle]))


@pytest.mark.parametrize("run", [theory_traces, run_output_states, simulate_moments])
def test_every_route_refuses_a_grid_beyond_physical_memory(monkeypatch, run):
    # 10 bins need 11 kB of working set without any shot block
    monkeypatch.setattr(harness, "_physical_memory", lambda: 10_000)
    cfg = RunConfig(bins_per_period=5, n_periods=2)
    with pytest.raises(ConfigError, match="a grid of 10 bins would need .* physical memory"):
        run(cfg)


def test_simulate_moments_refuses_a_drawn_variance_beyond_float_range():
    # the pipeline's p variance is 8.5e307 here, finite in both routes, and a
    # chi-square draw of one degree of freedom above 2.1 scales it past 1.8e308
    cfg = RunConfig(feedforward_gain_override=1.3e154, hd1_efficiency=0.01, n_trials=2,
                    bins_per_period=2)
    assert max(v.max() for v in theory_traces(cfg).variance.values()) > 8e307
    with pytest.raises(ConfigError, match=r"^feedforward_gain_override 1\.3e\+154, n_trials 2 "
                                          "each make the run fail: overflow"):
        simulate_moments(cfg, seed=0)


def test_the_least_memory_limit_bounds_the_run(monkeypatch):
    limits = {"physical memory": 2**40, "the soft RLIMIT_AS": 10_000, "the soft RLIMIT_DATA": 2**30}
    monkeypatch.setattr(harness, "_memory_limits", lambda: limits)
    with pytest.raises(ConfigError, match="a grid of 10 bins .* GiB of the soft RLIMIT_AS$"):
        theory_traces(RunConfig(bins_per_period=5, n_periods=2))


def test_memory_limits_hold_physical_memory_and_only_set_limits():
    limits = harness._memory_limits()
    assert limits["physical memory"] == harness._physical_memory()
    assert all(isinstance(v, int) and v > 0 for v in limits.values())


def test_simulate_records_creates_the_archive_directory_unless_refused(tmp_path, monkeypatch):
    path = tmp_path / "new" / "dir" / "records.npz"
    simulate_records(SMALL, path)
    assert HomodyneRecordSet.load(path).n_trials == SMALL.n_trials
    refused = tmp_path / "refused" / "records.npz"
    need = 8 * SMALL.n_bins * (3 * SMALL.n_trials + 2) + 4096
    monkeypatch.setattr(archive.shutil, "disk_usage", lambda where: _Usage(need - 1))
    with pytest.raises(ConfigError, match=r"^raw records of n_trials 300 x 40 bins would need "
                                          r"0\.0 GiB, more than the 0\.0 GiB free for "):
        simulate_records(SMALL, refused)
    assert not refused.parent.exists()
    monkeypatch.setattr(archive.shutil, "disk_usage", lambda where: _Usage(need))
    monkeypatch.setattr(harness, "_physical_memory", lambda: 10_000)
    with pytest.raises(ConfigError, match="physical memory"):
        simulate_records(SMALL, refused)
    assert not refused.parent.exists()


class _Usage:
    def __init__(self, free):
        self.free = free


def test_records_space_counts_the_archive_within_its_headers(tmp_path):
    for cfg in (SMALL, replace(SMALL, n_trials=2, bins_per_period=2, n_periods=2)):
        simulate_records(cfg, tmp_path / "records.npz")
        data = 8 * cfg.n_bins * (3 * cfg.n_trials + 2)
        assert 0 < (tmp_path / "records.npz").stat().st_size - data < 4096


@pytest.mark.parametrize("run", [simulate_records, run_experiment])
def test_records_whose_sums_could_overflow_are_refused_before_drawing(tmp_path, monkeypatch, run):
    # sigma_p^2 = 3.9e307: one shot is finite, but the sum of n squared
    # deviations is not, nor for two trials
    cfg = RunConfig(feedforward_gain_override=1e154, hd1_efficiency=0.5, ancilla_db=30,
                    control_amplitude=0.01, bins_per_period=5, n_trials=2)
    monkeypatch.setattr(np.random, "default_rng", None)  # a draw would fail otherwise
    monkeypatch.setattr(archive.shutil, "disk_usage", lambda where: _Usage(2**60))
    path = tmp_path / "new" / "records.npz"
    with pytest.raises(ConfigError, match=r"^feedforward_gain_override 1e\+154 makes the run "
                                          r"fail: a sum of 2 shots a bin could overflow$"):
        run(cfg, path) if run is simulate_records else run(cfg)
    assert not path.parent.exists()
    # at 1e150 the rule refuses a million shots but not the default 10851,
    # so n_trials is named too
    many = replace(cfg, feedforward_gain_override=1e150, n_trials=10**6)
    with pytest.raises(ConfigError, match=r"^feedforward_gain_override 1e\+150, n_trials 1000000 "
                                          r"each make the run fail: a sum of 1000000 shots"):
        run(many, path) if run is simulate_records else run(many)
    # theory and simulate, which sum no shot, run on it
    monkeypatch.undo()
    assert np.isfinite(theory_traces(cfg).variance[np.pi / 2]).all()
    assert np.isfinite(simulate_moments(cfg).variance[np.pi / 2]).all()


def test_shot_sums_rule_covers_every_normal_the_ziggurat_draws():
    # numpy's tail draw is r + x with r = 3.654, accepted where
    # x^2 < 2 log(1/u) for a u of at least 2**-53
    largest = 3.6541528853610088 + np.sqrt(2.0 * np.log(2.0**53))
    assert 12.2 < largest < 12.3 < harness._SHOT_REACH
    assert np.abs(np.random.default_rng(0).standard_normal(10**6)).max() < largest


def test_theory_pi4_mean_combines_quadratures():
    th = theory_traces(RunConfig())
    want = (th.mean[0.0] + th.mean[np.pi / 2.0]) / np.sqrt(2.0)
    assert th.mean[np.pi / 4.0] == pytest.approx(want, abs=1e-12)


def test_monte_carlo_converges_at_root_n():
    base = dict(bins_per_period=50, n_periods=2)
    th = theory_traces(RunConfig(**base))

    def rms(n, seed):
        est = estimate_moments(run_experiment(RunConfig(n_trials=n, seed=seed, **base)))
        dev = np.concatenate(
            [est.variance[a] - th.variance[a] for a in MEASUREMENT_ANGLES]
        )
        return float(np.sqrt(np.mean(dev**2)))

    r1, r2, r3 = rms(1000, 21), rms(4000, 22), rms(16000, 23)
    # each quadrupling of trials should halve the RMS deviation
    assert 1.4 < r1 / r2 < 2.9
    assert 1.4 < r2 / r3 < 2.9


def test_label_for_angle():
    assert [label_for_angle(a) for a in MEASUREMENT_ANGLES] == ["x", "p", "pi4"]
    with pytest.raises(ValueError):
        label_for_angle(0.3)


def test_label_for_angle_names_angles_read_back_from_csv(tmp_path):
    est = simulate_moments(SMALL)
    path = tmp_path / "moments.csv"
    read = {}
    for angle in MEASUREMENT_ANGLES:
        write_moments_csv(path, est, angle)
        read[angle] = read_moments_csv(path)["angle"]
    # the CSV keeps 12 significant digits, so pi/2 comes back 4.9e-12 off
    assert read[np.pi / 2.0] == float("1.57079632679") != np.pi / 2.0
    assert [label_for_angle(read[a]) for a in MEASUREMENT_ANGLES] == ["x", "p", "pi4"]


def test_moments_csv_round_trip(tmp_path):
    est = estimate_moments(run_experiment(SMALL))
    path = tmp_path / "moments_x.csv"
    write_moments_csv(path, est, 0.0)
    data = read_moments_csv(path)
    assert data["angle"] == 0.0
    assert data["bin_index"] == pytest.approx(np.arange(40))
    assert data["kappa"] == pytest.approx(est.kappa, rel=1e-11, abs=1e-12)
    assert data["variance"] == pytest.approx(est.variance[0.0], rel=1e-11, abs=1e-12)
    assert data["se_var"] == pytest.approx(est.se_var[0.0], rel=1e-11, abs=1e-12)


def test_theory_csv_has_zero_errors(tmp_path):
    th = theory_traces(SMALL)
    path = tmp_path / "theory_p.csv"
    write_theory_csv(path, th, np.pi / 2.0)
    data = read_moments_csv(path)
    assert data["angle"] == pytest.approx(np.pi / 2.0, abs=1e-11)
    assert np.all(data["se_mean"] == 0.0)
    assert np.all(data["se_var"] == 0.0)


def test_moments_csv_rejects_corruption(tmp_path):
    path = tmp_path / "m.csv"
    path.write_text("angle_rad,bogus\n0,1\n")
    with pytest.raises(ValueError, match="expected header"):
        read_moments_csv(path)
    est = estimate_moments(run_experiment(SMALL))
    good = tmp_path / "good.csv"
    write_moments_csv(good, est, 0.0)
    lines = good.read_text().splitlines()
    lines[3] = lines[3].replace(lines[3].split(",")[0], "0.7853981", 1)
    mixed = tmp_path / "mixed.csv"
    mixed.write_text("\n".join(lines) + "\n")
    with pytest.raises(ValueError, match="mixed angles"):
        read_moments_csv(mixed)


def _edited_moments(tmp_path, edit):
    """A moments file whose list of lines went through ``edit`` in place."""
    est = estimate_moments(run_experiment(SMALL))
    path = tmp_path / "moments_x.csv"
    write_moments_csv(path, est, 0.0)
    lines = path.read_text().splitlines()
    edit(lines)
    path.write_text("\n".join(lines) + "\n")
    return path


def test_read_table_rejects_wrong_header(tmp_path):
    def rename(lines):
        lines[0] = lines[0].replace("kappa", "gain")

    with pytest.raises(ValueError, match=r"moments_x\.csv: expected header angle_rad,"):
        read_table(_edited_moments(tmp_path, rename), MOMENTS_COLUMNS)


def test_read_table_rejects_header_without_rows(tmp_path):
    def drop_rows(lines):
        del lines[1:]

    with pytest.raises(ValueError, match=r"moments_x\.csv: no data rows"):
        read_table(_edited_moments(tmp_path, drop_rows), MOMENTS_COLUMNS)


@pytest.mark.parametrize(
    "edit",
    [lambda row: row.rsplit(",", 1)[0], lambda row: row + ",0", lambda row: ""],
    ids=["short", "long", "blank"],
)
def test_read_table_names_the_row_with_a_wrong_field_count(tmp_path, edit):
    def edit_line_5(lines):
        lines[4] = edit(lines[4])

    with pytest.raises(ValueError, match=r"moments_x\.csv:5: expected 8 fields"):
        read_table(_edited_moments(tmp_path, edit_line_5), MOMENTS_COLUMNS)


def test_read_table_names_the_row_with_a_non_number(tmp_path):
    def spoil_line_3(lines):
        lines[2] = lines[2].rsplit(",", 1)[0] + ",abc"

    with pytest.raises(ValueError, match=r"moments_x\.csv:3: not a number: 'abc'"):
        read_table(_edited_moments(tmp_path, spoil_line_3), MOMENTS_COLUMNS)


def test_read_table_names_the_line_with_a_byte_that_is_not_text(tmp_path):
    path = _edited_moments(tmp_path, lambda lines: None)
    data = path.read_bytes()
    third = data.index(b"\n", data.index(b"\n") + 1) + 1
    path.write_bytes(data[:third] + b"\xff\xfe" + data[third:])
    with pytest.raises(ValueError, match=r"moments_x\.csv:3: not utf-8 text \(invalid start byte\)"):
        read_table(path, MOMENTS_COLUMNS)


@pytest.mark.parametrize("mark", ["\x0c", "\x85", "\u2028"])
def test_read_table_counts_only_newlines_as_line_breaks(tmp_path, mark):
    # str.splitlines breaks at these too, which named line 4, a good row;
    # float() reads "4" followed by any of them as 4
    path = tmp_path / "f.csv"
    path.write_text(f"a,b\n1,2\n3,4{mark}\n5,6\nx,1\n")
    with pytest.raises(ValueError, match=r"f\.csv:5: not a number: 'x'"):
        read_table(path, ("a", "b"))


def test_read_table_rejects_a_blank_first_line(tmp_path):
    # stripped, it numbered every row one line too low: 'x' was named on line 3
    path = tmp_path / "g.csv"
    path.write_text("\na,b\n1,2\nx,1\n")
    with pytest.raises(ValueError, match=r"g\.csv: expected header a,b"):
        read_table(path, ("a", "b"))
