from decimal import Decimal, localcontext

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from dynsqueeze import (
    GateParams,
    MEASUREMENT_ANGLES,
    RunConfig,
    closed_form_output,
    diagonalize,
    estimate_moments,
    gate_output_state,
    make_coherent,
    quadrature_variance,
    reconstruct_variance_matrix,
    run_experiment,
    summarize,
    theory_traces,
    variance_to_db,
)
from dynsqueeze.analysis import (
    RESIDUAL_COLUMNS,
    SUMMARY_COLUMNS,
    _spectrum,
    read_summary_csv,
    write_residuals_csv,
    write_summary_csv,
)
from dynsqueeze.tables import MomentEstimates

from oracles import scan_extrema

X, P, PI4 = MEASUREMENT_ANGLES


def _definite(v):
    """Positive-definiteness from the symmetric eigensolver: the test oracle."""
    return np.linalg.eigvalsh(v).min(axis=-1) > 0.0


def test_reconstruction_recovers_gate_cross_term():
    out = gate_output_state(make_coherent(3.0, 0.0), GateParams.exact(2.0, ancilla_vx=0.24494))
    v = reconstruct_variance_matrix(
        quadrature_variance(out, X),
        quadrature_variance(out, P),
        quadrature_variance(out, PI4),
    )
    assert np.allclose(v, out.cov, atol=1e-12)
    assert v[0, 1] == pytest.approx(0.25506, abs=1e-12)


def test_reconstruction_validation():
    with pytest.raises(ValueError):
        reconstruct_variance_matrix(-0.1, 0.5, 0.5)
    with pytest.raises(ValueError):
        reconstruct_variance_matrix(0.5, np.nan, 0.5)
    # inconsistent inputs produce a non-PD matrix, flagged rather than raised
    v = reconstruct_variance_matrix(0.5, 0.5, 5.0)
    assert not _definite(v)


def test_diagonalize_anchor_at_full_strength():
    # frozen from an independent symmetric-eigensolver oracle
    v = np.array([[0.37247, 0.25506], [0.25506, 2.48988]])
    splus2, sminus2, phi = diagonalize(v)
    assert splus2 == pytest.approx(2.5201708129510885, abs=1e-12)
    assert sminus2 == pytest.approx(0.3421791870489126, abs=1e-12)
    assert phi == pytest.approx(0.11820591430006466, abs=1e-12)
    eig = np.sort(np.linalg.eigvalsh(v))
    assert sorted([splus2, sminus2]) == pytest.approx(eig, abs=1e-12)


def test_diagonalize_degenerate_matrix():
    splus2, sminus2, phi = diagonalize(0.5 * np.eye(2))
    assert splus2 == pytest.approx(0.5)
    assert sminus2 == pytest.approx(0.5)
    assert phi == 0.0


def test_diagonalize_validation():
    with pytest.raises(ValueError):
        diagonalize(np.array([[0.5, 0.2], [0.3, 0.5]]))
    with pytest.raises(ValueError):
        diagonalize(np.array([[0.5, 4.5], [4.5, 0.5]]))
    with pytest.raises(ValueError):
        diagonalize(np.eye(3))


@given(
    st.floats(min_value=0.1, max_value=3.0),
    st.floats(min_value=0.1, max_value=3.0),
    st.floats(min_value=-0.95, max_value=0.95),
)
@settings(max_examples=200)
def test_diagonalize_matches_eigensolver(a, b, corr):
    c = corr * np.sqrt(a * b)
    v = np.array([[a, c], [c, b]])
    splus2, sminus2, phi = diagonalize(v)
    eig = np.sort(np.linalg.eigvalsh(v))
    assert sorted([splus2, sminus2]) == pytest.approx(eig, rel=1e-9, abs=1e-12)
    assert splus2 + sminus2 == pytest.approx(a + b, rel=1e-9)
    assert splus2 * sminus2 == pytest.approx(np.linalg.det(v), rel=1e-9)
    assert sminus2 <= splus2
    assert -np.pi / 2.0 < phi <= np.pi / 2.0


@pytest.mark.parametrize("scale", [1e160, 1e200, 1e300])
def test_diagonalize_where_the_det_overflows(scale):
    # a * b and c * c overflow from entries of about 1.3e154; their difference need not
    v = scale * np.array([[1.0, 0.6], [0.6, 2.0]])
    splus2, sminus2, _phi = diagonalize(v)
    assert [sminus2, splus2] == pytest.approx(np.linalg.eigvalsh(v), rel=1e-12, abs=0.0)


# cross terms where a one-line half-angle arctan2 turns phi to -pi/2
_EDGE_CROSS_TERMS = st.sampled_from([0.0, -0.0, 5e-324, -5e-324, 1e-310, -1e-310])


@st.composite
def _symmetric_entries(draw):
    """(a, b, c) of a positive-definite [[a, c], [c, b]], isotropic ones included."""
    a = draw(st.floats(min_value=0.1, max_value=3.0))
    b = draw(st.just(a) | st.floats(min_value=0.1, max_value=3.0))
    corr = st.floats(min_value=-0.95, max_value=0.95)
    return a, b, draw(_EDGE_CROSS_TERMS | corr.map(lambda r: r * np.sqrt(a * b)))


@given(_symmetric_entries())
@settings(max_examples=300)
def test_spectrum_matches_eigensolver_and_scan(entries):
    a, b, c = entries
    v = np.array([[a, c], [c, b]])
    splus2, sminus2, phi = (float(x) for x in _spectrum(*np.array([a, b, c])))
    assert [sminus2, splus2] == pytest.approx(np.linalg.eigvalsh(v), rel=1e-12, abs=0.0)
    assert -np.pi / 2.0 < phi <= np.pi / 2.0
    assert sminus2 <= splus2
    if a == b and c == 0.0:
        assert phi == 0.0
    if splus2 - sminus2 > 1e-3 * splus2:
        # a distinct pair has one minimum axis, at -phi
        _minval, argmin, _maxval, _argmax = scan_extrema(v, 20000)
        d = abs((argmin - (-phi)) % np.pi)
        assert min(d, np.pi - d) < np.pi / 20000 + 1e-12


@pytest.mark.parametrize("kappa", [2.0, 1e4, 1e8, 1e12])
def test_squeezed_variance_keeps_its_digits_at_large_kappa(kappa):
    # sigma_plus^2 / sigma_minus^2 grows as kappa^2; near 1/eps the difference
    # (a + b)/2 - hypot((a - b)/2, c) keeps no digit of sigma_minus^2
    v = gate_output_state(make_coherent(0.0, 0.0), GateParams.exact(kappa)).cov
    with localcontext() as ctx:
        ctx.prec = 60
        a, b, c = (Decimal(float(x)) for x in (v[0, 0], v[1, 1], v[0, 1]))
        exact = (a + b) / 2 - (((a - b) / 2) ** 2 + c * c).sqrt()
    assert diagonalize(v)[1] == pytest.approx(float(exact), rel=1e-12)


# correlations at and around the edge of the physical cone
_NEAR_SINGULAR = st.sampled_from([1.0, -1.0, 1.0 - 1e-9, -1.0 + 1e-9, 1.0 + 1e-9, -1.0 - 1e-9,
                                  1.0 - 1e-15, -1.0 + 1e-15])


@given(st.lists(
    st.tuples(
        st.floats(min_value=-0.5, max_value=3.0),
        st.floats(min_value=-0.5, max_value=3.0),
        _NEAR_SINGULAR | st.floats(min_value=-1.2, max_value=1.2),
    ),
    min_size=1, max_size=40,
))
@settings(max_examples=200)
def test_summarize_flags_exactly_the_non_positive_definite_bins(bins):
    sx2, sp2, corr = (np.array(col) for col in zip(*bins))
    spi4 = corr * np.sqrt(np.abs(sx2 * sp2)) + 0.5 * (sx2 + sp2)
    zeros = {angle: np.zeros(len(bins)) for angle in MEASUREMENT_ANGLES}
    est = MomentEstimates(
        0.01 * np.arange(len(bins)), np.zeros(len(bins)), 0, zeros,
        {X: sx2, P: sp2, PI4: spi4}, zeros, zeros,
    )
    summary, _ = summarize(est)
    c = spi4 - 0.5 * (sx2 + sp2)
    v = np.stack([np.stack([sx2, c], axis=-1), np.stack([c, sp2], axis=-1)], axis=-2)
    # away from singular matrices the eigensolver's sign of the minimum is exact
    clear = np.abs(sx2 * sp2 - c * c) > 1e-12 * np.sum(v * v, axis=(-2, -1))
    assert np.array_equal(summary.valid[clear], _definite(v)[clear])
    assert not summary.valid[(sx2 <= 0.0) | (sp2 <= 0.0)].any()
    assert np.isnan(summary.sigma_xp[(sx2 <= 0.0) | (sp2 <= 0.0)]).all()
    derived = np.stack([summary.sigma_plus2_db, summary.sigma_minus2_db, summary.phi_rad])
    assert np.isfinite(derived[:, summary.valid]).all()
    assert np.isnan(derived[:, ~summary.valid]).all()


@given(
    st.floats(min_value=0.1, max_value=1.0),
    st.floats(min_value=0.0, max_value=2.0),
    st.floats(min_value=-0.9, max_value=0.9),
)
@settings(max_examples=200)
def test_minus_axis_is_minimum_when_p_dominates(a, extra, corr):
    # the label ordering follows the formulas; for sigma_p2 >= sigma_x2 the
    # minus label is the smaller variance and its axis is the argmin
    b = a + extra + 1e-3
    c = corr * np.sqrt(a * b)
    v = np.array([[a, c], [c, b]])
    splus2, sminus2, phi = diagonalize(v)
    assert sminus2 <= splus2 + 1e-12
    minval, argmin, _maxval, _argmax = scan_extrema(v, 20000)
    assert sminus2 == pytest.approx(minval, rel=1e-6, abs=1e-9)
    d = abs((argmin - (-phi)) % np.pi)
    assert min(d, np.pi - d) < np.pi / 20000 + 1e-12


@pytest.mark.parametrize("theta", [0.0, 0.3, -0.3, np.pi / 4.0, -np.pi / 4.0, 1.2, np.pi / 2.0])
def test_minus_axis_is_minimum_when_x_dominates(theta):
    # diag(1.245, 1.0) turned by theta: an ancilla_db = 6 gate near kappa = 0,
    # where sigma_x^2 > sigma_p^2
    c, s = np.cos(theta), np.sin(theta)
    v = np.array([[1.245 * c * c + s * s, 0.245 * c * s], [0.245 * c * s, 1.245 * s * s + c * c]])
    for member in (diagonalize(v), tuple(x[0] for x in diagonalize(v[None]))):
        splus2, sminus2, phi = member
        minval, argmin, maxval, _argmax = scan_extrema(v, 20000)
        assert sminus2 == pytest.approx(minval, rel=1e-6, abs=1e-9)
        assert splus2 == pytest.approx(maxval, rel=1e-6, abs=1e-9)
        assert (sminus2, splus2) == pytest.approx((1.0, 1.245), abs=1e-12)
        assert -np.pi / 2.0 < phi <= np.pi / 2.0
        d = abs((argmin - (-phi)) % np.pi)
        assert min(d, np.pi - d) < np.pi / 20000 + 1e-12


def test_batched_analysis_equals_scalar_calls_on_theory_grid():
    th = theory_traces(RunConfig())
    v = reconstruct_variance_matrix(th.variance[X], th.variance[P], th.variance[PI4])
    assert v.shape == (200, 2, 2)
    plus2, minus2, phi = diagonalize(v)
    for b in range(200):
        one = reconstruct_variance_matrix(
            float(th.variance[X][b]), float(th.variance[P][b]), float(th.variance[PI4][b])
        )
        assert np.array_equal(one, v[b])
        assert diagonalize(one) == (plus2[b], minus2[b], phi[b])


def test_batched_validation_rejects_one_bad_member():
    good = np.stack([0.5 * np.eye(2)] * 4)
    asym, indefinite = good.copy(), good.copy()
    asym[2, 0, 1] = 0.1
    indefinite[1] = [[0.5, 4.5], [4.5, 0.5]]
    for batch in (asym, indefinite):
        with pytest.raises(ValueError):
            diagonalize(batch)
    ones = np.ones(4)
    with pytest.raises(ValueError):
        reconstruct_variance_matrix(ones, np.array([1.0, 1.0, np.nan, 1.0]), ones)
    with pytest.raises(ValueError):
        reconstruct_variance_matrix(np.array([1.0, -1.0, 1.0, 1.0]), ones, ones)


def test_summarize_equals_scalar_calls_on_noisy_input():
    # five trials per bin leave many reconstructed matrices outside the cone
    est = estimate_moments(run_experiment(RunConfig(n_trials=5, seed=3)))
    rows, _ = summarize(est)
    assert 0 < sum(not r.valid for r in rows) < len(rows)
    for b, r in enumerate(rows):
        sx2, sp2, spi4 = (float(est.variance[a][b]) for a in MEASUREMENT_ANGLES)
        assert (r.bin_index, r.time_us, r.kappa) == (b, est.time_us[b], est.kappa[b])
        assert (r.sigma_x2, r.sigma_p2, r.sigma_pi4_2) == (sx2, sp2, spi4)
        v = reconstruct_variance_matrix(sx2, sp2, spi4)
        assert r.sigma_xp == v[0, 1]
        assert r.valid == _definite(v)
        if r.valid:
            splus, sminus, phi = diagonalize(v)
            assert (r.sigma_plus2_db, r.sigma_minus2_db, r.phi_rad) == (
                variance_to_db(splus), variance_to_db(sminus), phi
            )
        else:
            assert np.isnan([r.sigma_plus2_db, r.sigma_minus2_db, r.phi_rad]).all()


def test_scan_extrema_on_known_matrix():
    v = np.array([[2.0, 0.0], [0.0, 0.5]])
    minval, argmin, maxval, argmax = scan_extrema(v, 10000)
    assert minval == pytest.approx(0.5, abs=1e-6)
    assert maxval == pytest.approx(2.0, abs=1e-6)
    assert argmin == pytest.approx(np.pi / 2.0, abs=1e-3)
    assert argmax == pytest.approx(0.0, abs=1e-3)


def _theory_moments(cfg):
    """Package theory traces as if they were measured moments."""
    th = theory_traces(cfg)
    zeros = {a: np.zeros_like(th.time_us) for a in MEASUREMENT_ANGLES}
    return MomentEstimates(
        th.time_us, th.kappa, 0, th.mean, th.variance, zeros, zeros
    ), th


def test_summarize_on_noise_free_traces():
    est, th = _theory_moments(RunConfig())
    rows, residuals = summarize(est, th)
    assert len(rows) == 200
    assert all(r.valid for r in rows)
    # residuals of theory against itself vanish
    for lab in ("x", "p", "pi4"):
        assert np.max(np.abs(residuals[f"d_mean_{lab}"])) < 1e-12
        assert np.max(np.abs(residuals[f"d_var_{lab}"])) < 1e-12
    # phi alternates against kappa: the squeezed axis at -phi tracks -sign(kappa)
    for r in rows:
        if abs(r.kappa) > 0.1:
            assert np.sign(r.phi_rad) == np.sign(r.kappa)
            assert np.sign(-r.phi_rad) == -np.sign(r.kappa)


def test_summarize_flags_non_positive_definite_bins():
    est, _th = _theory_moments(RunConfig(bins_per_period=10))
    # corrupt one bin's pi/4 variance so the reconstructed matrix leaves the cone
    bad = dict(est.variance)
    pi4 = bad[PI4].copy()
    pi4[3] += 50.0
    bad[PI4] = pi4
    est2 = type(est)(est.time_us, est.kappa, est.n_trials, est.mean, bad, est.se_mean, est.se_var)
    rows, _ = summarize(est2)
    assert not rows[3].valid
    assert np.isnan(rows[3].phi_rad)
    assert sum(not r.valid for r in rows) == 1


def test_summarize_grid_mismatch():
    est, th = _theory_moments(RunConfig())
    est2 = type(est)(
        est.time_us + 0.5, est.kappa, est.n_trials, est.mean, est.variance,
        est.se_mean, est.se_var,
    )
    with pytest.raises(ValueError):
        summarize(est2, th)


def test_summarize_requires_all_angles():
    est, _ = _theory_moments(RunConfig())
    partial = {a: est.variance[a] for a in (X, P)}
    est2 = type(est)(est.time_us, est.kappa, 0, est.mean, partial, est.se_mean, est.se_var)
    with pytest.raises(ValueError):
        summarize(est2)


@pytest.mark.parametrize("value", [np.nan, np.inf, -np.inf])
@pytest.mark.parametrize(
    "side, moment, angle, message",
    [
        ("moments", "mean", X, "x mean of bin 3 is {}; means must be finite"),
        ("moments", "mean", PI4, "pi4 mean of bin 3 is {}; means must be finite"),
        ("theory", "mean", P, "theory p mean of bin 3 is {}; means must be finite"),
        ("theory", "variance", X, "theory x variance of bin 3 is {}; variances must be finite"),
    ],
    ids=["mean-x", "mean-pi4", "theory-mean-p", "theory-variance-x"],
)
def test_summarize_rejects_non_finite_means_and_theory(side, moment, angle, message, value):
    est, th = _theory_moments(RunConfig(bins_per_period=4))
    source = est if side == "moments" else th
    edited = dict(getattr(source, moment))
    edited[angle] = edited[angle].copy()
    edited[angle][3] = value
    if side == "moments":
        est = est._replace(**{moment: edited})
    else:
        th = th._replace(**{moment: edited})
    with pytest.raises(ValueError, match=message.format(value)):
        summarize(est, th)


def test_summarize_monte_carlo_recovers_cross_term():
    cfg = RunConfig(
        control_waveform="custom", control_samples=[2.0], bins_per_period=2,
        n_periods=2, input_x_amplitude=0.0, n_trials=60000, seed=5,
    )
    rows, _ = summarize(estimate_moments(run_experiment(cfg)))
    for r in rows:
        assert r.valid
        # true cross term at kappa=2 with the -3.1 dB ancilla is ~0.2551
        assert r.sigma_xp == pytest.approx(0.2551105903157769, abs=0.02)


def test_summary_csv_round_trip(tmp_path):
    noise_free, th = _theory_moments(RunConfig(bins_per_period=10))
    # five trials per bin flag some bins, whose rows carry NaN cells
    noisy = estimate_moments(run_experiment(RunConfig(n_trials=5, seed=3)))
    path = tmp_path / "summary.csv"
    for est in (noise_free, noisy):
        summary, _ = summarize(est)
        write_summary_csv(path, summary)
        data = read_summary_csv(path)
        assert data.dtype.names == SUMMARY_COLUMNS
        assert data.bin_index.dtype.kind == "i" and data.valid.dtype.kind == "b"
        assert np.array_equal(data.bin_index, summary.bin_index)
        assert np.array_equal(data.valid, summary.valid)
        for name in SUMMARY_COLUMNS[1:-1]:
            # the file keeps each cell to 12 significant digits
            kept = [float(f"{value:.12g}") for value in summary[name]]
            np.testing.assert_array_equal(data[name], kept, err_msg=name)
    assert 0 < np.count_nonzero(~data.valid) < len(data)

    _, residuals = summarize(noise_free, th)
    res_path = tmp_path / "residuals.csv"
    write_residuals_csv(res_path, residuals)
    header = res_path.read_text().splitlines()[0]
    assert header.split(",")[:3] == ["bin_index", "time_us", "kappa"]


def test_summaries_are_record_arrays_with_the_csv_columns():
    est, th = _theory_moments(RunConfig(bins_per_period=10))
    summary, residuals = summarize(est, th)
    assert summary.dtype.names == SUMMARY_COLUMNS
    assert residuals.dtype.names == RESIDUAL_COLUMNS
    # the protocol a caller that counts valid bins by record relies on
    assert len(summary) == len(residuals) == 20
    assert [r.valid for r in summary] == summary.valid.tolist() == [True] * 20
    assert summary[7].bin_index == residuals[7].bin_index == 7
    assert np.array_equal(summary["kappa"], est.kappa)


def test_read_summary_rejects_bad_header(tmp_path):
    path = tmp_path / "s.csv"
    path.write_text("nope\n")
    with pytest.raises(ValueError):
        read_summary_csv(path)


def test_read_summary_rejects_short_row(tmp_path):
    est, _ = _theory_moments(RunConfig(bins_per_period=4))
    rows, _ = summarize(est)
    path = tmp_path / "summary.csv"
    write_summary_csv(path, rows)
    lines = path.read_text().splitlines()
    lines[3] = ",".join(lines[3].split(",")[:-2])
    path.write_text("\n".join(lines) + "\n")
    with pytest.raises(ValueError, match=r"summary\.csv:4: expected 11 fields"):
        read_summary_csv(path)
