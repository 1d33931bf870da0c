"""End-to-end acceptance gate for the package.

Each ``test_criterion_NN_*`` function checks one release criterion; the
conftest reporter prints a one-line PASS/FAIL per criterion after the run.

The analytic and Monte Carlo lanes are deliberately separate throughout:
the closed-form lane pins exact numbers, the sampled lane confirms the
repeated-shot pipeline reproduces them within statistical error.  Collapsing
the two would turn every check into a tautology.
"""

import itertools

import numpy as np
import pytest

from dynsqueeze import (
    GateParams,
    MEASUREMENT_ANGLES,
    MomentEstimates,
    RunConfig,
    closed_form_output,
    db_to_variance,
    decompose_shear,
    diagonalize,
    estimate_moments,
    fit_pwl,
    gate_output_state,
    make_coherent,
    max_error,
    quadrature_variance,
    reconstruct_variance_matrix,
    run_experiment,
    run_output_states,
    save_config,
    summarize,
    symplectic_eigenvalues,
    theory_traces,
    variance_to_db,
)
from dynsqueeze.cli import GAP_NOTE, main

from oracles import scan_extrema

ANGLE_X, ANGLE_P, ANGLE_PI4 = MEASUREMENT_ANGLES

# Vacuum input, control held at 0 / +2 / -2: the three operating points the
# squeezing-level criteria quote numbers for.
MC_CONFIG = RunConfig(
    control_waveform="custom",
    control_samples=(0.0, 2.0, -2.0),
    bins_per_period=3,
    n_periods=2,
    input_x_amplitude=0.0,
    n_trials=100_000,
    seed=907,
)


@pytest.fixture(scope="module")
def mc_moments():
    return estimate_moments(run_experiment(MC_CONFIG))


@pytest.fixture(scope="module")
def default_run():
    cfg = RunConfig()
    return cfg, estimate_moments(run_experiment(cfg)), theory_traces(cfg)


def _bins_at(moments, kappa):
    idx = np.flatnonzero(np.abs(moments.kappa - kappa) < 1e-12)
    assert len(idx) >= 2
    return idx


def _mc_matrix(moments, b):
    return reconstruct_variance_matrix(
        moments.variance[ANGLE_X][b],
        moments.variance[ANGLE_P][b],
        moments.variance[ANGLE_PI4][b],
    )


def _as_moments(th):
    zeros = {a: np.zeros_like(th.time_us) for a in MEASUREMENT_ANGLES}
    return MomentEstimates(
        th.time_us, th.kappa, 0, dict(th.mean), dict(th.variance), zeros, zeros
    )


def test_criterion_01_idle_gate_x_squeezing(mc_moments):
    out = gate_output_state(make_coherent(0.0, 0.0), GateParams.exact(0.0))
    analytic_db = variance_to_db(quadrature_variance(out, ANGLE_X))
    assert analytic_db == pytest.approx(-1.28, abs=0.02)
    for b in _bins_at(mc_moments, 0.0):
        mc_db = variance_to_db(mc_moments.variance[ANGLE_X][b])
        assert mc_db == pytest.approx(-1.28, abs=0.15)


def test_criterion_02_full_drive_antisqueezing(mc_moments):
    for kappa in (2.0, -2.0):
        out = gate_output_state(make_coherent(0.0, 0.0), GateParams.exact(kappa))
        assert out.cov[1, 1] == pytest.approx(2.48988, abs=1e-3)
        splus2, _minus2, _phi = diagonalize(out.cov)
        plus_db = variance_to_db(splus2)
        assert 6.97 <= plus_db <= 7.03
        for b in _bins_at(mc_moments, kappa):
            mc_plus2, _, _ = diagonalize(_mc_matrix(mc_moments, b))
            assert variance_to_db(mc_plus2) == pytest.approx(plus_db, abs=0.3)


def test_criterion_03_full_drive_squeezing_and_gap_note(mc_moments, tmp_path, capsys):
    for kappa in (2.0, -2.0):
        out = gate_output_state(make_coherent(0.0, 0.0), GateParams.exact(kappa))
        _plus2, minus2, _phi = diagonalize(out.cov)
        assert variance_to_db(minus2) == pytest.approx(-1.65, abs=0.02)
        for b in _bins_at(mc_moments, kappa):
            _, mc_minus2, _ = diagonalize(_mc_matrix(mc_moments, b))
            assert variance_to_db(mc_minus2) == pytest.approx(-1.65, abs=0.15)
    # the model's reach must be stated, not implied: the theory command prints
    # the measured-hardware gap alongside its own prediction
    assert main(["theory", "--out", str(tmp_path)]) == 0
    text = capsys.readouterr().out
    assert GAP_NOTE in text
    assert "-1.65 dB" in text and "-1.8 dB" in text


# Hardware operating points: (LO phase, gain, feed-forward sign, detector
# efficiency); None is the exact electronics' arctan(kappa) or
# sqrt(1 + kappa^2), so the first point is the ideal gate.
HARDWARE_POINTS = (
    (None, None, 1, 1.0),
    (None, 0.5, -1, 0.8),
    (0.4, 1.3, 1, 0.72),
    (-1.1, 0.0, 1, 1.0),
    (1.0, 2.1, -1, 0.3),
)


def test_criterion_04_pipeline_matches_closed_form():
    kappas = (-2.0, -1.2, -0.5, 0.0, 0.7, 1.5, 2.0)
    ancillas = (0.05, db_to_variance(-3.1), 0.5, 1.1)
    inputs = ((0.0, 0.0), (1.3, -0.7), (-2.0, 3.0))
    # a point that fixes both phase and gain is one operating point at every kappa
    points = {
        (np.arctan(kappa) if theta is None else theta,
         sign * (np.sqrt(1.0 + kappa**2) if gain is None else gain), eta)
        for theta, gain, sign, eta in HARDWARE_POINTS
        for kappa in kappas
    }
    for (theta, gain, eta), vs in itertools.product(sorted(points), ancillas):
        params = GateParams(theta, gain, ancilla_vx=vs, hd1_efficiency=eta)
        for mx, mp in inputs:
            probe = make_coherent(mx, mp)
            pipeline = gate_output_state(probe, params)
            reference = closed_form_output(probe, params)
            assert np.max(np.abs(pipeline.cov - reference.cov)) <= 1e-9
            assert np.max(np.abs(pipeline.mean - reference.mean)) <= 1e-9


def test_criterion_05_shear_decomposition_recomposes():
    for kappa in np.linspace(-3.0, 3.0, 1000):
        d = decompose_shear(float(kappa))
        target = np.array([[1.0, 0.0], [kappa, 1.0]])
        assert np.max(np.abs(d.recompose() - target)) <= 1e-12
        contract, expand = d.squeeze_factors
        assert abs(contract * expand - 1.0) <= 1e-12


def test_criterion_06_principal_axes_match_brute_force():
    n_angles = 10_000
    step = np.pi / n_angles
    for kappa in np.linspace(-2.0, 2.0, 21):
        out = gate_output_state(make_coherent(1.0, -0.5), GateParams.exact(float(kappa)))
        splus2, sminus2, phi = diagonalize(out.cov)
        minval, argmin, maxval, argmax = scan_extrema(out.cov, n_angles)
        assert minval == pytest.approx(sminus2, rel=1e-6, abs=1e-9)
        assert maxval == pytest.approx(splus2, rel=1e-6, abs=1e-9)
        d = abs((argmin - (-phi)) % np.pi)
        assert min(d, np.pi - d) <= step + 1e-12


@pytest.mark.parametrize(
    "signature", ["mean_tracking", "p_variance_modulation", "phi_alternation"]
)
def test_criterion_07_time_resolved_signatures(default_run, signature):
    cfg, est, th = default_run
    kappa = th.kappa
    if signature == "mean_tracking":
        # output p mean is kappa times the output x mean, so their product
        # carries the control sign wherever the input drive is nonzero
        sel = (np.abs(kappa) > 0.1) & (np.abs(th.mean[ANGLE_X]) > 1e-9)
        assert np.count_nonzero(sel) > 100
        assert np.all(
            np.sign(th.mean[ANGLE_P][sel] * th.mean[ANGLE_X][sel]) == np.sign(kappa[sel])
        )
        mx, mp = est.mean[ANGLE_X], est.mean[ANGLE_P]
        confident = (
            sel
            & (np.abs(mx) > 4.0 * est.se_mean[ANGLE_X])
            & (np.abs(mp) > 4.0 * est.se_mean[ANGLE_P])
        )
        assert np.count_nonzero(confident) > 50
        assert np.all(
            np.sign(mp[confident] * mx[confident]) == np.sign(kappa[confident])
        )
    elif signature == "p_variance_modulation":
        # Var_p goes as kappa^2, so it beats at twice the 1 MHz control
        freqs = np.fft.rfftfreq(cfg.n_bins, d=cfg.bin_width_us)
        for series in (th.variance[ANGLE_P], est.variance[ANGLE_P]):
            mag = np.abs(np.fft.rfft(series))
            dominant = 1 + int(np.argmax(mag[1:]))
            assert freqs[dominant] == pytest.approx(2.0, abs=1e-9)
    else:
        th_rows, _ = summarize(_as_moments(th))
        for r in th_rows:
            if abs(r.kappa) > 0.1:
                assert np.sign(r.phi_rad) == np.sign(r.kappa)
        mc_rows, _ = summarize(est)
        votes = [
            np.sign(r.phi_rad) == np.sign(r.kappa)
            for r in mc_rows
            if r.valid and abs(r.kappa) > 0.5
        ]
        assert len(votes) > 50
        assert np.mean(votes) >= 0.98


def test_criterion_08_lookup_table_fidelity():
    theta_fit = fit_pwl("arctan", 16, -2.0, 2.0)
    gain_fit = fit_pwl("sqrt1px2", 16, -2.0, 2.0)
    assert max_error(theta_fit, "arctan") <= 0.01
    assert max_error(gain_fit, "sqrt1px2") <= 0.005

    # running the gate off the tables must stay within first-order sensitivity
    # of the phase and gain errors, so the tables are fit for purpose
    probe = make_coherent(1.5, -0.4)
    h = 1e-6
    for kappa in np.linspace(-2.0, 2.0, 41):
        kappa = float(kappa)

        def cov(theta, gain):
            return gate_output_state(probe, GateParams(theta, gain)).cov

        theta0, gain0 = float(np.arctan(kappa)), float(np.sqrt(1.0 + kappa**2))
        d_theta = float(theta_fit(kappa)) - theta0
        d_gain = float(gain_fit(kappa)) - gain0
        err = np.abs(cov(theta0 + d_theta, gain0 + d_gain) - cov(theta0, gain0))
        j_theta = (cov(theta0 + h, gain0) - cov(theta0 - h, gain0)) / (2.0 * h)
        j_gain = (cov(theta0, gain0 + h) - cov(theta0, gain0 - h)) / (2.0 * h)
        bound = np.abs(j_theta) * abs(d_theta) + np.abs(j_gain) * abs(d_gain)
        assert np.all(err <= 5.0 * bound + 1e-9)


def test_criterion_09_output_states_physical(rng):
    floor = 0.5 - 1e-9
    for state in run_output_states(RunConfig()):
        assert symplectic_eigenvalues(state).min() >= floor
    for state in run_output_states(RunConfig(hd1_efficiency=0.72)):
        assert symplectic_eigenvalues(state).min() >= floor
    for _ in range(200):
        params = GateParams(
            ancilla_vx=float(rng.uniform(0.05, 2.0)),
            feedforward_gain=float(rng.uniform(0.0, 4.0)),
            lo_phase=float(rng.uniform(-np.pi / 2.0, np.pi / 2.0)),
            hd1_efficiency=float(rng.uniform(0.3, 1.0)),
        )
        probe = make_coherent(float(rng.uniform(-3.0, 3.0)), float(rng.uniform(-3.0, 3.0)))
        assert symplectic_eigenvalues(gate_output_state(probe, params)).min() >= floor


def test_criterion_10_deterministic_cli_runs(tmp_path, capsys):
    cfg = RunConfig(bins_per_period=4, n_periods=2, n_trials=250, seed=31)
    cfg_path = tmp_path / "run.json"
    save_config(cfg, cfg_path)
    dirs = [tmp_path / name for name in ("a", "b", "c")]
    for d in dirs[:2]:
        assert main(["simulate", "--config", str(cfg_path), "--out", str(d)]) == 0
    assert (
        main(["simulate", "--config", str(cfg_path), "--out", str(dirs[2]), "--seed", "32"])
        == 0
    )
    capsys.readouterr()
    for name in ("moments_x.csv", "moments_p.csv", "moments_pi4.csv"):
        assert (dirs[0] / name).read_bytes() == (dirs[1] / name).read_bytes()
    assert (dirs[0] / "moments_x.csv").read_bytes() != (dirs[2] / "moments_x.csv").read_bytes()
