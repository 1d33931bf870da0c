import contextlib
import filecmp
import hashlib
import io
import json
import os
import subprocess
import sys
import tempfile
import tracemalloc
import zipfile
from dataclasses import fields, replace
from pathlib import Path

import numpy as np
import pytest
from hypothesis import example, given, settings

import dynsqueeze
from dynsqueeze import (
    GateCalibrationError,
    SignConventions,
    HomodyneRecordSet,
    RunConfig,
    config_digest,
    estimate_moments,
    load_pwl_table,
    run_experiment,
    save_config,
)
from dynsqueeze import archive, harness
from dynsqueeze.analysis import RESIDUAL_COLUMNS, read_summary_csv, summarize
from dynsqueeze.cli import GAP_NOTE, PWL_TARGETS, main
from dynsqueeze.electronics import TARGETS
from dynsqueeze.tables import read_moments_csv, read_table, write_moments_files

from test_config import wide_configs

SMALL = RunConfig(bins_per_period=5, n_periods=2, n_trials=400, seed=7)

MOMENT_FILES = ("moments_x.csv", "moments_p.csv", "moments_pi4.csv")
THEORY_FILES = ("theory_x.csv", "theory_p.csv", "theory_pi4.csv")


@pytest.fixture
def cfg_path(tmp_path):
    path = tmp_path / "run.json"
    save_config(SMALL, path)
    return path


def _simulate(cfg_path, out, extra=()):
    return main(["simulate", "--config", str(cfg_path), "--out", str(out), *extra])


def test_simulate_writes_moments(cfg_path, tmp_path, capsys):
    out = tmp_path / "sim"
    assert _simulate(cfg_path, out) == 0
    text = capsys.readouterr().out
    assert "sign calibration: beamsplitter +1, lo +1, feedforward +1" in text
    assert config_digest(SMALL) in text
    for name in MOMENT_FILES:
        assert (out / name).exists()
    data = read_moments_csv(out / "moments_p.csv")
    assert data["angle"] == pytest.approx(np.pi / 2.0)
    assert len(data["variance"]) == 10
    assert np.all(np.isfinite(data["variance"]))
    assert not (out / "records.npz").exists()


def test_simulate_is_deterministic(cfg_path, tmp_path):
    a, b, c = tmp_path / "a", tmp_path / "b", tmp_path / "c"
    assert _simulate(cfg_path, a) == 0
    assert _simulate(cfg_path, b) == 0
    assert _simulate(cfg_path, c, ("--seed", "8")) == 0
    for name in MOMENT_FILES:
        assert (a / name).read_bytes() == (b / name).read_bytes()
    assert (a / "moments_x.csv").read_bytes() != (c / "moments_x.csv").read_bytes()


def test_simulate_save_records(cfg_path, tmp_path):
    out = tmp_path / "sim"
    assert _simulate(cfg_path, out, ("--save-records",)) == 0
    records = HomodyneRecordSet.load(out / "records.npz")
    assert records.n_trials == 400
    assert records.config_digest == config_digest(SMALL)


def test_records_beyond_physical_memory_exit_1(tmp_path, capsys, monkeypatch):
    # 1e6 trials x 2e5 bins: 1.6 TB a block and 4.8 TB of archive, which is
    # refused for the disk it needs before the grid is built or --out made.
    # No shot can be drawn, so a run that is not refused fails at once
    # instead of filling the disk.
    monkeypatch.setattr(archive.shutil, "disk_usage", lambda where: _Usage(2**40))
    monkeypatch.setattr(np.random, "default_rng", None)
    huge = tmp_path / "huge.json"
    huge.write_text(json.dumps({"n_trials": 10**6, "bins_per_period": 10**5}))
    out = tmp_path / "out"
    tracemalloc.start()
    try:
        code = _simulate(huge, out, ("--save-records",))
        peak = tracemalloc.get_traced_memory()[1]
    finally:
        tracemalloc.stop()
    err = capsys.readouterr().err
    assert code == 1
    assert err == (f"error: raw records of n_trials 1000000 x 200000 bins would need 4470.4 GiB, "
                   f"more than the 1024.0 GiB free for {out / 'records.npz'}\n")
    assert not out.exists()
    assert peak < 16 * 2**20


def test_save_records_fails_on_an_archive_corrupted_before_its_rename(cfg_path, tmp_path,
                                                                       capsys, monkeypatch):
    # One bit flipped midway through the file, in samples_1, between its write
    # and its rename: the moments are read back from the archive as stored,
    # so its CRC check fails.  Bit 0 of any byte of a shot scales it by 2**16
    # or less, so no sum overflows first.
    rename = os.replace

    def corrupt(src, dst):
        with open(src, "r+b") as f:
            f.seek(os.path.getsize(src) // 2)
            byte = f.read(1)[0]
            f.seek(-1, os.SEEK_CUR)
            f.write(bytes([byte ^ 0x01]))
        rename(src, dst)

    monkeypatch.setattr(archive.os, "replace", corrupt)
    path = tmp_path / "lib" / "records.npz"
    with pytest.raises(ValueError) as info:
        archive.simulate_records(SMALL, path)
    assert str(info.value) == f"{path}: member samples_1 fails its CRC check"
    out = tmp_path / "out"
    assert _simulate(cfg_path, out, ("--save-records",)) == 1
    err = capsys.readouterr().err
    assert err == f"error: {out / 'records.npz'}: member samples_1 fails its CRC check\n"


def test_save_records_fails_on_a_kappa_corrupted_before_its_rename(cfg_path, tmp_path,
                                                                   capsys, monkeypatch):
    # kappa is read whole at load, where zipfile's own CRC error, a
    # BadZipFile, is no ValueError: main would let it out as a traceback.
    # Its last byte is the one before samples_0's local header.
    rename = os.replace

    def corrupt(src, dst):
        with zipfile.ZipFile(src) as zf:
            at = zf.getinfo("samples_0.npy").header_offset - 1
        with open(src, "r+b") as f:
            f.seek(at)
            byte = f.read(1)[0]
            f.seek(at)
            f.write(bytes([byte ^ 0x01]))
        rename(src, dst)

    monkeypatch.setattr(archive.os, "replace", corrupt)
    out = tmp_path / "out"
    assert _simulate(cfg_path, out, ("--save-records",)) == 1
    err = capsys.readouterr().err
    assert err == f"error: {out / 'records.npz'}: member kappa fails its CRC check\n"


class _Usage:
    def __init__(self, free):
        self.free = free


_GUARDED = {
    "simulate": ("simulate",),
    "records": ("simulate", "--save-records"),
    "theory": ("theory",),
}


@pytest.mark.parametrize("argv", list(_GUARDED.values()), ids=list(_GUARDED))
def test_grid_beyond_physical_memory_exits_1(cfg_path, tmp_path, capsys, monkeypatch, argv):
    # 10 bins need 11 kB of working set even without shot blocks
    monkeypatch.setattr(harness, "_physical_memory", lambda: 10_000)
    out = tmp_path / "out"
    assert main([argv[0], "--config", str(cfg_path), "--out", str(out), *argv[1:]]) == 1
    err = capsys.readouterr().err
    assert err.startswith("error:") and f"{SMALL.n_bins} bins" in err
    assert "physical memory" in err
    assert not out.exists()


@pytest.mark.parametrize("command", ["simulate", "theory"])
def test_trillion_bin_grid_exits_1_before_allocating(tmp_path, capsys, command):
    # 2e12 bins at about 1 kB each: petabytes, refused before any array exists
    huge = tmp_path / "huge.json"
    huge.write_text(json.dumps({"bins_per_period": 10**12}))
    out = tmp_path / "out"
    tracemalloc.start()
    try:
        code = main([command, "--config", str(huge), "--out", str(out)])
        peak = tracemalloc.get_traced_memory()[1]
    finally:
        tracemalloc.stop()
    err = capsys.readouterr().err
    assert code == 1
    assert err.startswith("error: a grid of 2000000000000 bins would need")
    assert "Traceback" not in err
    assert not out.exists()
    assert peak < 2**20


def test_theory_under_an_address_space_limit_exits_1(tmp_path):
    # 1e6 bins need about 1 GB, more than a 400 MB RLIMIT_AS lets numpy allocate
    resource = pytest.importorskip("resource")
    cfg, out = tmp_path / "big.json", tmp_path / "out"
    cfg.write_text(json.dumps({"bins_per_period": 500_000}))
    hard = resource.getrlimit(resource.RLIMIT_AS)[1]
    soft = 400 * 2**20 if hard == resource.RLIM_INFINITY else min(400 * 2**20, hard)
    src = str(Path(dynsqueeze.__file__).resolve().parents[1])
    done = subprocess.run(
        [sys.executable, "-m", "dynsqueeze.cli", "theory", "--config", str(cfg), "--out", str(out)],
        capture_output=True, text=True, timeout=120,
        env={**os.environ, "PYTHONPATH": src, "OPENBLAS_NUM_THREADS": "1"},
        preexec_fn=lambda: resource.setrlimit(resource.RLIMIT_AS, (soft, hard)),
    )
    assert done.returncode == 1, done.stderr
    assert done.stderr.startswith("error: a grid of 1000000 bins would need")
    assert "RLIMIT_AS" in done.stderr and done.stderr.count("\n") == 1
    assert not out.exists()


@pytest.mark.parametrize("command", ["simulate", "theory"])
def test_running_out_of_memory_exits_1_naming_the_grid(cfg_path, tmp_path, capsys, monkeypatch,
                                                        command):
    def exhausted(cfg):
        raise MemoryError

    monkeypatch.setattr(harness, "generate_traces", exhausted)
    out = tmp_path / "out"
    assert main([command, "--config", str(cfg_path), "--out", str(out)]) == 1
    assert capsys.readouterr().err == f"error: out of memory on a grid of {SMALL.n_bins} bins\n"
    assert not out.exists()


def test_analyze_refuses_a_theory_file_among_the_moments(cfg_path, tmp_path, capsys):
    # a theory file's se_var is 0 in every bin, so no bin of it carries n
    run, out = tmp_path / "run", tmp_path / "out"
    assert _simulate(cfg_path, run) == 0
    assert main(["theory", "--config", str(cfg_path), "--out", str(run)]) == 0
    capsys.readouterr()
    files = [run / "moments_x.csv", run / "moments_p.csv", run / "theory_pi4.csv"]
    assert main(["analyze", "--out", str(out), "--moments", *map(str, files)]) == 1
    err = capsys.readouterr().err
    assert err.startswith(f"error: {files[2]}: no bin has") and err.count("\n") == 1
    assert not out.exists()


def test_save_records_memory_does_not_grow_with_trials(tmp_path):
    # Each angle's shots are drawn, written and reduced a chunk of rows at a
    # time, so the peak does not grow with n_trials; holding one block would
    # add 27 MiB from 2000 to 20000 trials, at 200 bins.
    def peak(n_trials):
        cfg = tmp_path / f"{n_trials}.json"
        save_config(RunConfig(n_trials=n_trials), cfg)
        tracemalloc.start()
        try:
            assert _simulate(cfg, tmp_path / "out", ("--save-records",)) == 0
            return tracemalloc.get_traced_memory()[1]
        finally:
            tracemalloc.stop()

    peak(2000)  # the first run pays for one-off imports and caches
    small, large = peak(2000), peak(20000)
    assert large - small < 1 << 20, (small, large)


RECORDS_CONFIGS = {
    "default": {},
    "lookup-table": {"use_pwl_electronics": True},
    "lossy": {"hd1_efficiency": 0.8, "feedforward_sign": -1, "feedforward_gain_override": 0.5},
    # the row buffer holds 81 rows of 200 bins, 4 of 4000 and 1 of 16400:
    # 162 trials end on a whole chunk, 2000 and 301 on a ragged one
    "whole-chunks": {"bins_per_period": 100, "n_trials": 162},
    "ragged": {"bins_per_period": 100, "n_trials": 2000},
    "chunked": {"bins_per_period": 2000, "n_trials": 301},
    "row-a-chunk": {"bins_per_period": 8200, "n_trials": 17},
    "two-trials": {"n_trials": 2},
}


@pytest.mark.parametrize("name", sorted(RECORDS_CONFIGS))
def test_save_records_matches_the_in_memory_route_byte_for_byte(tmp_path, name):
    cfg = replace(SMALL, **RECORDS_CONFIGS[name])
    path, out, ref = tmp_path / "run.json", tmp_path / "out", tmp_path / "ref"
    save_config(cfg, path)
    assert _simulate(path, out, ("--seed", "5", "--save-records")) == 0
    records = run_experiment(cfg, 5)
    ref.mkdir()
    records.save(ref / "records.npz")
    write_moments_files(ref, estimate_moments(records))
    for file in ("records.npz", *MOMENT_FILES):
        assert (out / file).read_bytes() == (ref / file).read_bytes(), file
    # the moments of the reloaded records, reduced as they are read, are
    # those of the records in memory, and so the bytes simulate wrote
    streamed = estimate_moments(HomodyneRecordSet.load(out / "records.npz"))
    held = estimate_moments(records)
    for field in ("mean", "variance", "se_mean", "se_var"):
        for angle in records.angles:
            got, want = getattr(streamed, field)[angle], getattr(held, field)[angle]
            assert got.tobytes() == want.tobytes(), (field, angle)
    write_moments_files(tmp_path, streamed)
    for moments in MOMENT_FILES:
        assert (tmp_path / moments).read_bytes() == (out / moments).read_bytes(), moments


def test_theory_outputs_and_gap_note(cfg_path, tmp_path, capsys):
    out = tmp_path / "th"
    assert main(["theory", "--config", str(cfg_path), "--out", str(out)]) == 0
    text = capsys.readouterr().out
    assert "predicted squeezed variance: min" in text
    assert GAP_NOTE in text
    assert "-1.65 dB" in text and "-1.8 dB" in text
    assert sorted(p.name for p in out.iterdir()) == sorted(THEORY_FILES)


@pytest.mark.parametrize("overrides, noted", [
    ({"use_pwl_electronics": True}, True),
    ({"hd1_efficiency": 0.8, "feedforward_sign": -1, "feedforward_gain_override": 0.5}, False),
    ({"ancilla_db": -6.0}, False),
    ({"hd1_efficiency": 0.9}, False),
    ({"feedforward_sign": -1}, False),
    ({"feedforward_gain_override": 1.0}, False),
])
def test_theory_gap_note_only_for_the_gate_it_describes(overrides, noted, tmp_path, capsys):
    path = tmp_path / "run.json"
    save_config(replace(SMALL, **overrides), path)
    assert main(["theory", "--config", str(path), "--out", str(tmp_path / "th")]) == 0
    text = capsys.readouterr().out
    notes = [line for line in text.splitlines() if line.startswith("note:")]
    assert notes == ([GAP_NOTE] if noted else [])


@pytest.mark.parametrize("amplitude", [1e13, 1e15, 1e20, 1e150])
def test_theory_range_at_huge_kappa_is_that_of_the_closed_form(tmp_path, capsys, amplitude):
    # sigma_pi4^2 - (sigma_x^2 + sigma_p^2) / 2 would lose the cross term to
    # rounding here; the closed-form covariance keeps every digit
    path = tmp_path / "huge_kappa.json"
    path.write_text(json.dumps({"control_amplitude": amplitude, "bins_per_period": 5}))
    assert main(["theory", "--config", str(path), "--out", str(tmp_path / "th")]) == 0
    assert ("predicted squeezed variance: min -1.821 dB, max -1.279 dB over 10 bins"
            in capsys.readouterr().out)


def test_theory_range_where_the_covariance_det_overflows(tmp_path, capsys):
    # sigma_p^2 is 3.9e307 and sigma_xp -1.7e154 here, so sigma_x^2 sigma_p^2 and
    # sigma_xp^2 overflow although the state and its det are finite
    path = tmp_path / "big_gain.json"
    path.write_text(json.dumps({"feedforward_gain_override": 1e154, "hd1_efficiency": 0.5,
                                "ancilla_db": 30, "control_amplitude": 0.01, "bins_per_period": 5}))
    assert main(["theory", "--config", str(path), "--out", str(tmp_path / "th")]) == 0
    # eigvalsh of the same covariances gives 26.865 and 26.994 dB
    assert ("predicted squeezed variance: min 26.865 dB, max 26.994 dB over 10 bins"
            in capsys.readouterr().out)


def test_theory_writes_finite_files_where_the_ideal_gate_shortcut_overflows(tmp_path, capsys):
    # the ideal-gate shortcut 1 + (kappa^2 / 2)(1/2 + v_s) overflows here
    path, out = tmp_path / "big_kappa.json", tmp_path / "th"
    path.write_text(json.dumps({"ancilla_db": 100, "control_amplitude": 1e150,
                                "feedforward_gain_override": 1e-3, "bins_per_period": 4}))
    assert main(["theory", "--config", str(path), "--out", str(out)]) == 0
    assert capsys.readouterr().err == ""
    assert sorted(p.name for p in out.iterdir()) == sorted(THEORY_FILES)
    for name in THEORY_FILES:
        assert "inf" not in (out / name).read_text(), name


def test_gain_override_runs_where_sqrt1px2_of_the_amplitude_overflows(tmp_path, capsys):
    # the override replaces sqrt(1 + kappa^2), which overflows at 1e155, so no
    # step of the run takes it
    path, out = tmp_path / "override.json", tmp_path / "out"
    path.write_text(json.dumps({"control_amplitude": 1e155, "feedforward_gain_override": 1.0,
                                "bins_per_period": 5, "n_trials": 200}))
    assert main(["theory", "--config", str(path), "--out", str(out)]) == 0
    assert main(["simulate", "--config", str(path), "--out", str(out)]) == 0
    assert _simulate(path, out, ("--save-records",)) == 0
    assert main(_analyze_argv(out, out, theory=out)) == 0
    assert capsys.readouterr().err == ""


def test_negative_zero_control_sample_writes_the_files_of_zero(tmp_path):
    for name, first in (("plus", 0.0), ("minus", -0.0)):
        path = tmp_path / f"{name}.json"
        path.write_text(json.dumps({"control_waveform": "custom", "control_samples": [first, 1.0],
                                    "bins_per_period": 5, "n_trials": 200}))
        assert main(["theory", "--config", str(path), "--out", str(tmp_path / name)]) == 0
        assert _simulate(path, tmp_path / name) == 0
    for name in (*MOMENT_FILES, *THEORY_FILES):
        assert (tmp_path / "plus" / name).read_bytes() == (tmp_path / "minus" / name).read_bytes()


def test_simulate_at_extreme_ancilla_squeezing(tmp_path, capsys):
    # -100 dB passes; -120 dB is below the ancilla's 1e-12 variance floor,
    # which theory and simulate share, and is refused before --out exists
    path = tmp_path / "strong.json"
    path.write_text(json.dumps({"ancilla_db": -100, "bins_per_period": 5, "n_trials": 200}))
    assert main(["simulate", "--config", str(path), "--out", str(tmp_path / "sim")]) == 0
    path.write_text(json.dumps({"ancilla_db": -120, "bins_per_period": 5, "n_trials": 200}))
    capsys.readouterr()
    for command in (["simulate", "--save-records"], ["theory"]):
        out = tmp_path / "refused"
        assert main([*command, "--config", str(path), "--out", str(out)]) == 1
        assert capsys.readouterr().err.startswith(
            f"error: {path}: ancilla_db must give a finite variance >= 1e-12")
        assert not out.exists()


def test_analyze_with_theory_residuals(cfg_path, tmp_path, capsys):
    sim, th, an = tmp_path / "sim", tmp_path / "th", tmp_path / "an"
    assert _simulate(cfg_path, sim) == 0
    assert main(["theory", "--config", str(cfg_path), "--out", str(th)]) == 0
    argv = ["analyze", "--out", str(an), "--moments"]
    argv += [str(sim / n) for n in MOMENT_FILES]
    argv += ["--theory"] + [str(th / n) for n in THEORY_FILES]
    assert main(argv) == 0
    text = capsys.readouterr().out
    assert "flagged non-positive-definite" in text
    assert (an / "residuals.csv").exists()
    data = read_summary_csv(an / "summary.csv")
    assert len(data["bin_index"]) == 10


# Upper 0.05 % point of the standard normal: the central 99.9 % band.
_Z_HALF_PERMILLE = 3.2905267314919255


def _chi2_per_dof_band(k):
    """Central 99.9 % band of chi2(k) / k, by the Wilson-Hilferty cube-root rule."""
    c = 2.0 / (9.0 * k)
    return tuple((1.0 - c + z * np.sqrt(c)) ** 3 for z in (-_Z_HALF_PERMILLE, _Z_HALF_PERMILLE))


@pytest.mark.parametrize(
    "overrides, extra",
    [
        ({"hd1_efficiency": 0.8, "feedforward_sign": -1, "feedforward_gain_override": 0.5}, ()),
        ({"use_pwl_electronics": True}, ()),
        ({"use_pwl_electronics": True}, ("--save-records",)),
    ],
    ids=["lossy", "pwl", "records-pwl"],
)
def test_residuals_consistent_with_theory_off_default_hardware(tmp_path, overrides, extra):
    # theory runs at the configured operating point, so on these configs the
    # residual z = (moment - theory) / se is standard normal in every bin
    cfg = tmp_path / "run.json"
    save_config(RunConfig(n_trials=2000, **overrides), cfg)
    assert _simulate(cfg, tmp_path, extra) == 0
    assert main(["theory", "--config", str(cfg), "--out", str(tmp_path)]) == 0
    argv = ["analyze", "--out", str(tmp_path), "--moments"]
    argv += [str(tmp_path / n) for n in MOMENT_FILES]
    argv += ["--theory"] + [str(tmp_path / n) for n in THEORY_FILES]
    assert main(argv) == 0
    res = read_table(tmp_path / "residuals.csv", RESIDUAL_COLUMNS)
    moments = [read_moments_csv(tmp_path / n) for n in MOMENT_FILES]
    for kind, se in (("mean", "se_mean"), ("var", "se_var")):
        z = np.concatenate([
            res[f"d_{kind}_{lab}"] / m[se] for lab, m in zip(("x", "p", "pi4"), moments)
        ])
        lo, hi = _chi2_per_dof_band(z.size)
        assert lo < np.mean(z**2) < hi, (kind, np.mean(z**2), (lo, hi))


def test_analyze_accepts_files_in_any_order(cfg_path, tmp_path):
    sim, an = tmp_path / "sim", tmp_path / "an"
    assert _simulate(cfg_path, sim) == 0
    argv = ["analyze", "--out", str(an), "--moments"]
    argv += [str(sim / n) for n in reversed(MOMENT_FILES)]
    assert main(argv) == 0
    assert (an / "summary.csv").exists()


def test_analyze_rejects_duplicate_angle(cfg_path, tmp_path, capsys):
    sim = tmp_path / "sim"
    assert _simulate(cfg_path, sim) == 0
    files = [sim / "moments_x.csv"] * 2 + [sim / "moments_p.csv"]
    rc = main(["analyze", "--out", str(tmp_path), "--moments", *map(str, files)])
    assert rc == 1
    assert "duplicate angle" in capsys.readouterr().err


def test_analyze_rejects_mismatched_grids(cfg_path, tmp_path, capsys):
    sim, sim2 = tmp_path / "sim", tmp_path / "sim2"
    other = tmp_path / "other.json"
    save_config(RunConfig(bins_per_period=4, n_periods=2, n_trials=400, seed=7), other)
    assert _simulate(cfg_path, sim) == 0
    assert _simulate(other, sim2) == 0
    files = [sim / "moments_x.csv", sim / "moments_p.csv", sim2 / "moments_pi4.csv"]
    rc = main(["analyze", "--out", str(tmp_path), "--moments", *map(str, files)])
    assert rc == 1
    assert "different grids" in capsys.readouterr().err


def test_analyze_names_file_and_line_of_a_non_number(cfg_path, tmp_path, capsys):
    sim = tmp_path / "sim"
    assert _simulate(cfg_path, sim) == 0
    bad = sim / "moments_x.csv"
    lines = bad.read_text().splitlines()
    cells = lines[2].split(",")
    cells[5] = "abc"
    lines[2] = ",".join(cells)
    bad.write_text("\n".join(lines) + "\n")
    rc = main(["analyze", "--out", str(tmp_path / "an"), "--moments",
               *(str(sim / n) for n in MOMENT_FILES)])
    assert rc == 1
    assert "moments_x.csv:3: not a number: 'abc'" in capsys.readouterr().err
    assert not (tmp_path / "an" / "summary.csv").exists()


def test_analyze_rejects_a_bin_index_that_is_not_0_to_n(cfg_path, tmp_path, capsys):
    sim = tmp_path / "sim"
    assert _simulate(cfg_path, sim) == 0
    bad = sim / "moments_x.csv"
    lines = bad.read_text().splitlines()
    for row, line in enumerate(lines[1:]):
        cells = line.split(",")
        cells[1] = str(1000 + 7 * row)
        lines[1 + row] = ",".join(cells)
    bad.write_text("\n".join(lines) + "\n")
    assert main(_analyze_argv(sim, tmp_path / "an")) == 1
    err = capsys.readouterr().err
    assert f"error: {bad}: bin_index 1000 on line 2, expected 0" in err
    assert not (tmp_path / "an").exists()


def _analyze_argv(sim, out, theory=None):
    argv = ["analyze", "--out", str(out), "--moments", *(str(sim / n) for n in MOMENT_FILES)]
    if theory is not None:
        argv += ["--theory", *(str(theory / n) for n in THEORY_FILES)]
    return argv


def _set_variance(path, bin_index, text, column=5):
    """Overwrite the variance cell, or another ``column``, of one bin in a moments CSV."""
    lines = path.read_text().splitlines()
    cells = lines[1 + bin_index].split(",")
    cells[column] = text
    lines[1 + bin_index] = ",".join(cells)
    path.write_text("\n".join(lines) + "\n")


@pytest.mark.parametrize("value", ["nan", "inf", "-inf"])
@pytest.mark.parametrize("label", ["x", "pi4"])
def test_analyze_non_finite_variance_exits_1(cfg_path, tmp_path, capsys, label, value):
    sim, an = tmp_path / "sim", tmp_path / "an"
    assert _simulate(cfg_path, sim) == 0
    _set_variance(sim / f"moments_{label}.csv", 4, value)
    assert main(_analyze_argv(sim, an)) == 1
    err = capsys.readouterr().err
    assert f"error: {label} variance of bin 4 is {value}; variances must be finite" in err
    assert not (an / "summary.csv").exists()


@pytest.mark.parametrize(
    "edited, column, value, message",
    [
        ("moments_x.csv", 4, "inf", "x mean of bin 0 is inf; means must be finite"),
        ("theory_x.csv", 5, "nan", "theory x variance of bin 0 is nan; variances must be finite"),
        ("theory_p.csv", 4, "-inf", "theory p mean of bin 0 is -inf; means must be finite"),
    ],
    ids=["measured-mean", "theory-variance", "theory-mean"],
)
def test_analyze_non_finite_mean_or_theory_exits_1(
    cfg_path, tmp_path, capsys, edited, column, value, message
):
    # before, each wrote inf or nan to residuals.csv and exited 0
    sim, an = tmp_path / "sim", tmp_path / "an"
    assert _simulate(cfg_path, sim) == 0
    assert main(["theory", "--config", str(cfg_path), "--out", str(sim)]) == 0
    _set_variance(sim / edited, 0, value, column)
    assert main(_analyze_argv(sim, an, theory=sim)) == 1
    assert f"error: {message}" in capsys.readouterr().err
    assert not an.exists()


@pytest.mark.parametrize("extra", [(), ("--save-records",)], ids=["streamed", "records"])
def test_analyze_recovers_n_trials_from_the_moments(cfg_path, tmp_path, monkeypatch, extra):
    sim = tmp_path / "sim"
    assert _simulate(cfg_path, sim, extra) == 0
    seen = []

    def spy(est, theory):
        seen.append(est.n_trials)
        return summarize(est, theory)

    monkeypatch.setattr("dynsqueeze.analysis.summarize", spy)
    assert main(_analyze_argv(sim, tmp_path / "an")) == 0
    assert seen == [SMALL.n_trials]


def test_analyze_edited_se_var_exits_1(cfg_path, tmp_path, capsys):
    sim, an = tmp_path / "sim", tmp_path / "an"
    assert _simulate(cfg_path, sim) == 0
    path = sim / "moments_pi4.csv"
    lines = path.read_text().splitlines()
    cells = lines[3].split(",")
    cells[7] = repr(1.01 * float(cells[7]))
    lines[3] = ",".join(cells)
    path.write_text("\n".join(lines) + "\n")
    assert main(_analyze_argv(sim, an)) == 1
    err = capsys.readouterr().err
    assert err.startswith("error: variance / se_var implies n_trials from")
    assert not (an / "summary.csv").exists()


def test_analyze_non_utf8_moments_file_exits_1_naming_file_and_line(cfg_path, tmp_path, capsys):
    sim, an = tmp_path / "sim", tmp_path / "an"
    assert _simulate(cfg_path, sim) == 0
    path = sim / "moments_p.csv"
    path.write_bytes(path.read_bytes() + b"\xff\xfe")
    assert main(_analyze_argv(sim, an)) == 1
    # the header and SMALL's 10 rows come first
    assert capsys.readouterr().err == f"error: {path}:12: not utf-8 text (invalid start byte)\n"
    assert not an.exists()


def test_analyze_flags_zero_x_variance(cfg_path, tmp_path, capsys):
    sim, an = tmp_path / "sim", tmp_path / "an"
    assert _simulate(cfg_path, sim) == 0
    _set_variance(sim / "moments_x.csv", 4, "0")
    assert main(_analyze_argv(sim, an)) == 0
    assert "10 bins, 1 flagged non-positive-definite" in capsys.readouterr().out
    data = read_summary_csv(an / "summary.csv")
    assert data["valid"].tolist() == [b != 4 for b in range(10)]
    assert np.isnan(data["sigma_minus2_db"][4]) and np.isnan(data["phi_rad"][4])


# summary.csv and residuals.csv of a fixed-seed 20-bin x 6-trial run.  Five of
# its bins are flagged, so the pin covers both the valid and the NaN rows.
# Bin 7 has sigma_x^2 > sigma_p^2, so it also covers the quarter-turned axis.
_PIN_CONFIG = RunConfig(bins_per_period=10, n_periods=2, n_trials=6, seed=2)
_PIN_SHA256 = {
    "summary.csv": "50421d87c05761a49e537627f0f0acc22643f1343d4bf2536b8a13f05c23e57d",
    "residuals.csv": "0a55f3e4f50cf548cea375d2abadb3f437b3c300d8651044679ad8ff61e3147c",
}


def test_analyze_outputs_match_pinned_sha256(tmp_path, capsys):
    cfg, out = tmp_path / "pin.json", tmp_path / "out"
    save_config(_PIN_CONFIG, cfg)
    assert _simulate(cfg, out) == 0
    assert main(["theory", "--config", str(cfg), "--out", str(out)]) == 0
    capsys.readouterr()
    assert main(_analyze_argv(out, out, theory=out)) == 0
    assert capsys.readouterr().out.splitlines()[-2:] == [
        "20 bins, 5 flagged non-positive-definite",
        "best squeezed variance -16.026 dB",
    ]
    for name, pin in _PIN_SHA256.items():
        assert hashlib.sha256((out / name).read_bytes()).hexdigest() == pin, name


# Modules each subcommand must not load.  Every process pays to compile and
# run what it imports: gate, config and harness (with hashlib's _hashlib, about
# 3.5 MB) cost analyze and circuits 20-30 ms and 4 MB of a fresh process,
# and numpy's unique() imports numpy.ma, 10-15 ms more.  Parsing alone, as
# --help does, loads neither electronics nor numpy.  Only runs that save or
# load raw records load the archive module, about 3.5 ms to compile and run.
_NOT_LOADED = {
    "analyze": {
        "dynsqueeze.gate", "dynsqueeze.config", "dynsqueeze.harness", "dynsqueeze.electronics",
        "dynsqueeze.archive", "hashlib", "numpy.ma",
    },
    "circuits": {"dynsqueeze.gate", "dynsqueeze.harness", "dynsqueeze.archive"},
    "help": {"dynsqueeze.electronics", "numpy"},
    "simulate": {"dynsqueeze.analysis", "dynsqueeze.archive"},
    "theory": {"dynsqueeze.archive"},
}


@pytest.mark.parametrize("command", sorted(_NOT_LOADED))
def test_subcommand_loads_only_what_it_runs(cfg_path, tmp_path, command):
    sim = tmp_path / "sim"
    argv = {
        "analyze": _analyze_argv(sim, tmp_path / "an"),
        "circuits": ["circuits", "--out", str(tmp_path / "c")],
        "help": ["--help"],
        "simulate": ["simulate", "--config", str(cfg_path), "--out", str(tmp_path / "s")],
        "theory": ["theory", "--config", str(cfg_path), "--out", str(tmp_path / "t")],
    }[command]
    if command == "analyze":
        assert _simulate(cfg_path, sim) == 0
    script = (
        "import sys\n"
        "from dynsqueeze import cli\n"
        f"assert cli.main({argv!r}) == 0\n"
        "print(' '.join(sorted(sys.modules)))\n"
    )
    src = str(Path(dynsqueeze.__file__).resolve().parents[1])
    done = subprocess.run(
        [sys.executable, "-c", script], capture_output=True, text=True, check=True,
        env={**os.environ, "PYTHONPATH": src}, timeout=120,
    )
    loaded = set(done.stdout.splitlines()[-1].split())
    assert "dynsqueeze.cli" in loaded
    assert loaded & _NOT_LOADED[command] == set()


def test_analyze_names_the_smaller_variance_sigma_minus(tmp_path, capsys):
    # a +6 dB ancilla leaves sigma_x^2 = 1.245 above sigma_p^2 near kappa = 0
    cfg = tmp_path / "antisqueezed.json"
    save_config(replace(SMALL, ancilla_db=6.0, n_trials=2000), cfg)
    sim = tmp_path / "sim"
    assert _simulate(cfg, sim) == 0
    assert main(_analyze_argv(sim, sim)) == 0
    capsys.readouterr()
    summary = read_summary_csv(sim / "summary.csv")
    valid = summary["valid"]
    assert valid.sum() > 0
    assert np.all(summary["sigma_minus2_db"][valid] <= summary["sigma_plus2_db"][valid])
    assert np.all(np.abs(summary["phi_rad"][valid]) <= np.pi / 2.0)


def test_missing_config_exits_1(tmp_path, capsys):
    rc = main(["simulate", "--config", str(tmp_path / "nope.json"), "--out", str(tmp_path)])
    assert rc == 1
    assert "error:" in capsys.readouterr().err


def test_unknown_config_key_exits_1(tmp_path, capsys):
    path = tmp_path / "bad.json"
    path.write_text(json.dumps({"knaob": 3}))
    rc = main(["theory", "--config", str(path), "--out", str(tmp_path)])
    assert rc == 1
    assert "knaob" in capsys.readouterr().err


def test_removed_delay_key_exits_1(tmp_path, capsys):
    path = tmp_path / "old.json"
    path.write_text(json.dumps({"electronics_latency_ns": 10.0}))
    rc = main(["simulate", "--config", str(path), "--out", str(tmp_path / "sim")])
    assert rc == 1
    assert "electronics_latency_ns" in capsys.readouterr().err
    assert not (tmp_path / "sim").exists()


@pytest.mark.parametrize("raw, names", [
    ({"use_pwl_electronics": True, "feedforward_gain_override": 0.5},
     ("feedforward_gain_override", "use_pwl_electronics")),
    ({"control_waveform": "custom", "control_samples": [0.0, 1.0], "control_phase_rad": 0.3},
     ("control_phase_rad", "control_waveform")),
    ({"pwl_segments": 64, "pwl_lo": -5, "pwl_hi": 7}, ("pwl_segments", "use_pwl_electronics")),
    ({"feedforward_gain_override": -0.5}, ("feedforward_gain_override", "feedforward_sign")),
    ({"feedforward_sign": -1, "feedforward_gain_override": 0},
     ("feedforward_sign", "feedforward_gain_override")),
], ids=["pwl-gain", "custom-phase", "no-tables", "negative-gain", "signed-zero-gain"])
def test_config_field_that_would_be_ignored_exits_1(tmp_path, capsys, raw, names):
    path = tmp_path / "ignored.json"
    path.write_text(json.dumps(raw))
    assert main(["simulate", "--config", str(path), "--out", str(tmp_path / "sim")]) == 1
    err = capsys.readouterr().err
    assert err.startswith("error:") and all(name in err for name in names)
    assert not (tmp_path / "sim").exists()


def test_usage_errors_fold_to_exit_1(capsys):
    assert main([]) == 1
    assert main(["frobnicate"]) == 1
    assert main(["simulate", "--bogus"]) == 1
    assert main(["analyze"]) == 1  # --moments is required
    # flags a subcommand would ignore are refused
    assert main(["theory", "--seed", "3"]) == 1
    assert main(["analyze", "--config", "x.json", "--moments", "a.csv", "b.csv", "c.csv"]) == 1
    assert main(["circuits", "--seed", "3"]) == 1
    capsys.readouterr()


def test_help_exits_0(capsys):
    assert main(["-h"]) == 0
    assert "simulate" in capsys.readouterr().out


def test_target_choices_are_the_electronics_targets():
    assert PWL_TARGETS == tuple(sorted(TARGETS))


def test_calibration_failure_exits_2(cfg_path, tmp_path, monkeypatch, capsys):
    def boom():
        raise GateCalibrationError("forced")

    monkeypatch.setattr("dynsqueeze.gate.calibrate_signs", boom)
    rc = _simulate(cfg_path, tmp_path / "sim")
    assert rc == 2
    assert "internal check failed: forced" in capsys.readouterr().err


def test_calibration_mismatch_exits_2(cfg_path, tmp_path, monkeypatch, capsys):
    # a model built on a convention other than the one calibration singles out
    monkeypatch.setattr("dynsqueeze.gate.CONVENTIONS", SignConventions(1, -1, 1))
    rc = _simulate(cfg_path, tmp_path / "sim")
    assert rc == 2
    err = capsys.readouterr().err
    assert "internal check failed" in err and "(1, -1, 1)" in err
    assert not (tmp_path / "sim" / "moments_x.csv").exists()


@pytest.mark.parametrize("tol, found", [(np.inf, 8), (-1.0, 0)], ids=["all", "none"])
def test_calibration_that_matches_no_single_convention_exits_2(
    cfg_path, tmp_path, monkeypatch, capsys, tol, found
):
    monkeypatch.setattr("dynsqueeze.gate.CALIBRATION_TOL", tol)
    assert _simulate(cfg_path, tmp_path / "sim") == 2
    want = f"internal check failed: expected exactly one sign convention to match, found {found}"
    assert want in capsys.readouterr().err
    assert not (tmp_path / "sim").exists()


def test_config_value_of_the_wrong_type_exits_1(tmp_path, capsys):
    # the string "false" is truthy, and once ran the look-up-table electronics
    path = tmp_path / "string_flag.json"
    path.write_text(json.dumps({"use_pwl_electronics": "false"}))
    assert main(["simulate", "--config", str(path), "--out", str(tmp_path / "sim")]) == 1
    err = capsys.readouterr().err
    assert err.startswith(f"error: {path}: use_pwl_electronics must be true or false")
    assert not (tmp_path / "sim").exists()


@pytest.mark.parametrize("raw, name", [
    ({"ancilla_db": 10**400}, "ancilla_db"),
    ({"control_waveform": "custom", "control_samples": [0, 10**400]}, "control_samples"),
], ids=["float-field", "samples-member"])
def test_integer_beyond_float_range_exits_1(tmp_path, capsys, raw, name):
    path = tmp_path / "huge_int.json"
    path.write_text(json.dumps(raw))
    assert main(["theory", "--config", str(path), "--out", str(tmp_path / "th")]) == 1
    assert capsys.readouterr().err == f"error: {path}: {name} must lie within float range\n"
    assert not (tmp_path / "th").exists()


def test_non_integer_grid_exits_1(tmp_path, capsys):
    path = tmp_path / "bad.json"
    path.write_text(json.dumps({"bins_per_period": 50.5}))
    rc = main(["simulate", "--config", str(path), "--out", str(tmp_path)])
    assert rc == 1
    assert "bins_per_period must be an integer" in capsys.readouterr().err


def test_circuits_writes_both_tables(tmp_path, capsys):
    out = tmp_path / "pwl"
    assert main(["circuits", "--out", str(out), "--segments", "8"]) == 0
    text = capsys.readouterr().out
    assert "max error" in text
    for target in ("arctan", "sqrt1px2"):
        table = load_pwl_table(out / f"pwl_{target}.txt")
        assert table.n_segments == 8
        assert np.all(np.diff(table.xs) > 0)


def test_circuits_prints_the_equal_error_tables_at_the_default_size(tmp_path, capsys):
    assert main(["circuits", "--out", str(tmp_path / "pwl")]) == 0
    text = capsys.readouterr().out
    assert "arctan: 16 segments on [-2, 2], max error 3.014e-03\n" in text
    assert "sqrt1px2: 16 segments on [-2, 2], max error 3.081e-03\n" in text


def test_circuits_single_target(tmp_path):
    out = tmp_path / "pwl"
    rc = main(["circuits", "--out", str(out), "--target", "arctan", "--segments", "4"])
    assert rc == 0
    assert (out / "pwl_arctan.txt").exists()
    assert not (out / "pwl_sqrt1px2.txt").exists()


def test_circuits_above_max_segments_exits_1(tmp_path, capsys):
    out = tmp_path / "pwl"
    rc = main(["circuits", "--out", str(out), "--segments", "1001"])
    assert rc == 1
    assert "n_segments must lie in [1, 1000], got 1001" in capsys.readouterr().err
    assert not out.exists()


def test_config_above_max_segments_exits_1(tmp_path, capsys):
    path = tmp_path / "big.json"
    path.write_text(json.dumps({"use_pwl_electronics": True, "pwl_segments": 1001}))
    for command in ("simulate", "theory"):
        assert main([command, "--config", str(path), "--out", str(tmp_path / "out")]) == 1
        assert "pwl_segments must be <= 1000, got 1001" in capsys.readouterr().err
    assert not (tmp_path / "out").exists()


def test_negative_seed_exits_1_before_calibrating(cfg_path, tmp_path, capsys):
    out = tmp_path / "sim"
    assert _simulate(cfg_path, out, ["--seed", "-1"]) == 1
    captured = capsys.readouterr()
    assert "error: --seed must be >= 0, got -1" in captured.err
    assert "sign calibration" not in captured.out
    assert not out.exists()


def test_circuits_bad_range_exits_1(tmp_path, capsys):
    rc = main(["circuits", "--out", str(tmp_path), "--range", "2", "-2"])
    assert rc == 1
    assert "error:" in capsys.readouterr().err


def test_circuits_takes_a_negative_range_end_in_exponent_form(tmp_path, capsys):
    # argparse reads "-1e6" as an option unless the pattern allows exponents
    out = tmp_path / "pwl"
    rc = main(["circuits", "--target", "arctan", "--range", "-1e6", "1e6", "--out", str(out)])
    assert rc == 0
    assert "[-1e+06, 1e+06], max error 1.967e-02" in capsys.readouterr().out
    for lo, hi in (("-2", "2"), ("-2.0", "2.0"), ("-1.5E+3", "-.5e1")):
        assert main(["circuits", "--range", lo, hi, "--segments", "2", "--out", str(out)]) == 0
        assert f"[{float(lo):g}, {float(hi):g}]" in capsys.readouterr().out


def test_circuits_where_arctan_curvature_overflows_exits_0_quietly(tmp_path, capsys):
    # (1 + x^2)^2 in arctan's f'' overflows from |x| = 1.2e77
    out = tmp_path / "pwl"
    rc = main(["circuits", "--target", "arctan", "--range", "0", "1e200", "--out", str(out)])
    assert rc == 0
    assert capsys.readouterr().err == ""
    assert np.all(np.isfinite(load_pwl_table(out / "pwl_arctan.txt").ys))


def test_circuits_where_the_target_is_not_finite_exits_1_naming_the_range(tmp_path, capsys):
    # sqrt(1 + x^2) overflows from |x| = 1.34e154
    out = tmp_path / "pwl"
    rc = main(["circuits", "--target", "sqrt1px2", "--range", "0", "1e200", "--out", str(out)])
    assert rc == 1
    err = capsys.readouterr().err
    assert err.startswith("error: sqrt1px2 ") and err.count("\n") == 1
    assert "[0, 1e+200]" in err
    assert not out.exists()


def test_theory_on_a_wide_look_up_table_range_exits_0_quietly(tmp_path, capsys):
    # the knots of the phase table pass where arctan's f'' overflows
    path = tmp_path / "wide.json"
    path.write_text(json.dumps({"use_pwl_electronics": True, "pwl_hi": 1e100,
                                "bins_per_period": 4}))
    assert main(["theory", "--config", str(path), "--out", str(tmp_path / "th")]) == 0
    assert capsys.readouterr().err == ""


@pytest.mark.parametrize("raw, name", [
    ({"control_frequency_mhz": 1e-320}, "control_frequency_mhz"),
    ({"input_frequency_mhz": 1e308}, "input_frequency_mhz"),
    ({"control_amplitude": 1e155}, "control_amplitude"),
    ({"feedforward_gain_override": 1.35e154}, "feedforward_gain_override"),
    ({"control_frequency_mhz": 1e307}, "control_frequency_mhz"),
    ({"control_frequency_mhz": 5e307, "bins_per_period": 2}, "control_frequency_mhz"),
    ({"use_pwl_electronics": True, "pwl_hi": 1e200}, "pwl_hi"),
    # on each of these only one route fails, or the two fail differently
    ({"input_x_amplitude": 1e308}, "input_x_amplitude"),
    ({"ancilla_db": 3080}, "ancilla_db"),
    ({"feedforward_gain_override": 1.34e154, "hd1_efficiency": 0.5}, "feedforward_gain_override"),
], ids=["bin-width", "input-phase", "gain", "override-square", "bin-width-zero", "control-phase",
        "table-gain", "x-amplitude", "ancilla-3080-db", "override-at-half-efficiency"])
@pytest.mark.parametrize("command", [["simulate"], ["simulate", "--save-records"], ["theory"]],
                         ids=["simulate", "records", "theory"])
def test_config_that_overflows_the_run_exits_1(tmp_path, capsys, raw, name, command):
    path = tmp_path / "overflow.json"
    path.write_text(json.dumps(raw))
    out = tmp_path / "out"
    assert main([*command, "--config", str(path), "--out", str(out)]) == 1
    err = capsys.readouterr().err
    # RunConfig names the file; the run's refusal names the field and the value
    assert err.startswith((f"error: {path}: {name} ", f"error: {name} {float(raw[name])!r} "))
    assert err.count("\n") == 1
    assert not out.exists()


# sigma_p^2 = 3.9e307: every moment is finite, but not the sums of 10851 shots
SUMS_OVERFLOW = {"feedforward_gain_override": 1e154, "hd1_efficiency": 0.5, "ancilla_db": 30,
                 "control_amplitude": 0.01, "bins_per_period": 5}


def test_records_whose_sums_overflow_exit_1(tmp_path, capsys):
    path = tmp_path / "overflow.json"
    path.write_text(json.dumps(SUMS_OVERFLOW))
    out = tmp_path / "out"
    assert main(["simulate", "--save-records", "--config", str(path), "--out", str(out)]) == 1
    assert capsys.readouterr().err == (
        "error: feedforward_gain_override 1e+154 makes the run fail: "
        "a sum of 10851 shots a bin could overflow\n"
    )
    assert not out.exists()
    # simulate without records and theory sum no shot: they run, to finite files
    for command in ("simulate", "theory"):
        assert main([command, "--config", str(path), "--out", str(out)]) == 0
    assert capsys.readouterr().err == ""
    for csv in out.iterdir():
        assert "inf" not in csv.read_text() and "nan" not in csv.read_text(), csv.name


_VM_PEAK = """import atexit, runpy, sys
status = lambda: open("/proc/self/status").read()
atexit.register(lambda: print(status().split("VmPeak:")[1].split()[0], file=sys.stderr))
sys.argv = ["dynsqueeze", *sys.argv[1:]]
runpy.run_module("dynsqueeze.cli", run_name="__main__")
"""


def test_save_records_under_an_address_space_limit_below_one_block(tmp_path):
    # The limit admits the child's address space on a small run plus half a
    # block of 20000 x 200 shots (32 MB), so only a run that holds no block
    # fits; its 96 MB archive is the in-memory route's, byte for byte.
    resource = pytest.importorskip("resource")
    if not Path("/proc/self/status").exists():
        pytest.skip("needs /proc to read the child's VmPeak")
    src = str(Path(dynsqueeze.__file__).resolve().parents[1])
    env = {**os.environ, "PYTHONPATH": src, "OPENBLAS_NUM_THREADS": "1"}
    hard = resource.getrlimit(resource.RLIMIT_AS)[1]

    def run(cfg, out, soft=None):
        path = tmp_path / "run.json"
        save_config(cfg, path)
        done = subprocess.run(
            [sys.executable, "-c", _VM_PEAK, "simulate", "--save-records", "--config", str(path),
             "--out", str(out)],
            capture_output=True, text=True, timeout=120, env=env,
            preexec_fn=soft and (lambda: resource.setrlimit(resource.RLIMIT_AS, (soft, hard))),
        )
        assert done.returncode == 0, done.stderr
        return int(done.stderr) * 1024

    cfg = RunConfig(n_trials=20000, seed=5)
    soft = run(replace(cfg, n_trials=2000), tmp_path / "small") + cfg.n_trials * cfg.n_bins * 4
    if hard != resource.RLIM_INFINITY and soft > hard:
        pytest.skip("the hard RLIMIT_AS is below the limit this test sets")
    assert run(cfg, tmp_path / "out", soft) <= soft
    run_experiment(cfg, 5).save(tmp_path / "records.npz")
    assert filecmp.cmp(tmp_path / "out" / "records.npz", tmp_path / "records.npz", shallow=False)


_FIELDS = [f.name for f in fields(RunConfig)]


def _main_quietly(argv) -> tuple[int, str]:
    """``main(argv)``'s exit code and stderr; stdout is dropped."""
    err = io.StringIO()
    with contextlib.redirect_stdout(io.StringIO()), contextlib.redirect_stderr(err):
        code = main(argv)
    return code, err.getvalue()


@given(wide_configs())
@settings(max_examples=2000, derandomize=True, deadline=None)
@example({"input_x_amplitude": 1e308, "bins_per_period": 2, "n_periods": 2})
@example({"ancilla_db": 3080, "bins_per_period": 2, "n_periods": 2})
@example({"feedforward_gain_override": 1.34e154, "hd1_efficiency": 0.5,
          "bins_per_period": 2, "n_periods": 2})
@example({"feedforward_sign": -1, "ancilla_db": 88, "bins_per_period": 2, "n_periods": 2})
def test_theory_and_simulate_run_or_refuse_a_config_alike(raw):
    # every config either runs in both commands, to finite files, or is refused
    # by both with one line that names a field, before --out exists.  On the
    # configs of at most 1000 trials, simulate --save-records does the same,
    # and may refuse more, as it also sums the shots.
    commands = {"theory": ["theory"], "simulate": ["simulate"]}
    if raw.get("n_trials", RunConfig().n_trials) <= 1000:
        commands["records"] = ["simulate", "--save-records"]
    with tempfile.TemporaryDirectory() as tmp:
        path = Path(tmp) / "cfg.json"
        path.write_text(json.dumps(raw))
        codes = {}
        for command, argv in commands.items():
            out = Path(tmp) / command
            codes[command], err = _main_quietly([*argv, "--config", str(path), "--out", str(out)])
            if codes[command] == 0:
                assert err == ""
                for csv in out.glob("*.csv"):  # %.12g writes a non-finite value as inf or nan
                    text = csv.read_text()
                    assert "inf" not in text and "nan" not in text, csv.name
            else:
                assert codes[command] == 1, err
                assert err.startswith("error: ") and err.count("\n") == 1, err
                assert any(name in err for name in _FIELDS), err
                assert not out.exists()
        assert codes["theory"] == codes["simulate"] <= codes.get("records", 1), raw
