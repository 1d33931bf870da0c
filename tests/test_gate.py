import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from dynsqueeze import (
    GateCalibrationError,
    GateParams,
    GaussianState,
    calibrate_signs,
    closed_form_output,
    decompose_shear,
    gate_output_state,
    make_coherent,
    symplectic_eigenvalues,
)
from dynsqueeze.gate import CONVENTIONS, SignConventions, _beamsplitter, _output_state

KAPPA_GRID = (-2.0, -1.0, -0.5, 0.0, 0.5, 1.0, 2.0)
VACUUM = make_coherent(0.0, 0.0)


def test_default_phase_and_gain_track_kappa():
    for k in np.linspace(-2.0, 2.0, 81):
        p = GateParams.exact(float(k))
        assert p.lo_phase == pytest.approx(np.arctan(k), abs=1e-15)
        assert abs(p.feedforward_gain**2 - (1.0 + k * k)) < 1e-12


def test_param_overrides_and_validation():
    p = GateParams(0.3, 0.0)
    assert p.lo_phase == 0.3
    assert p.feedforward_gain == 0.0
    assert GateParams(0.3, -1.5).feedforward_gain == -1.5  # the gain carries its sign
    with pytest.raises(ValueError, match="lo_phase"):
        GateParams.exact(np.nan)
    with pytest.raises(ValueError, match="lo_phase"):
        GateParams(np.nan, 1.0)
    with pytest.raises(ValueError, match="feedforward_gain"):
        GateParams(0.3, np.inf)
    with pytest.raises(ValueError, match="feedforward_gain"):
        GateParams(np.array([0.0, 0.3]), np.array([1.0, np.nan]))
    with pytest.raises(ValueError):
        GateParams.exact(1.0, ancilla_vx=0.0)
    # the squeezed-vacuum ancilla's floor, MIN_SQUEEZED_VARIANCE
    with pytest.raises(ValueError, match="ancilla_vx must be finite and >= 1e-12"):
        GateParams.exact(1.0, ancilla_vx=5e-13)
    assert GateParams.exact(1.0, ancilla_vx=1e-12).ancilla_vx == 1e-12
    with pytest.raises(ValueError):
        GateParams.exact(1.0, hd1_efficiency=0.0)
    # one ancilla and one detector serve every bin: each is a real scalar
    for name in ("ancilla_vx", "hd1_efficiency"):
        for value in (np.array([0.3, 0.4]), "0.3", True):
            with pytest.raises(ValueError, match=f"{name} must be a real number"):
                GateParams(0.1, 1.0, **{name: value})


@pytest.mark.parametrize("kappa", KAPPA_GRID)
@pytest.mark.parametrize("vs", (0.05, 0.24494, 0.5, 1.3))
def test_pipeline_matches_closed_form(kappa, vs):
    for state in (VACUUM, make_coherent(3.0, 0.0), make_coherent(1.5, -0.4)):
        params = GateParams.exact(kappa, ancilla_vx=vs)
        a = closed_form_output(state, params)
        b = gate_output_state(state, params)
        assert np.max(np.abs(a.cov - b.cov)) < 1e-12
        assert np.max(np.abs(a.mean - b.mean)) < 1e-12


def test_closed_form_anchor_at_full_strength():
    # V_S = 0.24494 (-3.1 dB), coherent x-displaced input, kappa = 2
    out = closed_form_output(make_coherent(3.0, 0.0), GateParams.exact(2.0, ancilla_vx=0.24494))
    assert np.allclose(
        out.cov, [[0.37247, 0.25506], [0.25506, 2.48988]], atol=1e-12
    )
    assert out.mean == pytest.approx([3.0 / np.sqrt(2.0), 6.0 / np.sqrt(2.0)], abs=1e-12)


def test_closed_form_mean_map():
    out = closed_form_output(make_coherent(1.0, 1.0), GateParams.exact(-1.5))
    assert out.mean == pytest.approx(
        [1.0 / np.sqrt(2.0), np.sqrt(2.0) - 1.5 / np.sqrt(2.0)], abs=1e-12
    )


def test_strong_ancilla_limit_is_shear_after_fixed_squeeze():
    # V_S -> 0: the gate reduces to the shear composed onto a 3 dB x squeeze
    params = GateParams.exact(1.0, ancilla_vx=1e-12)
    out = closed_form_output(VACUUM, params)
    assert np.allclose(out.cov, [[0.25, 0.25], [0.25, 1.25]], atol=1e-9)
    for k in KAPPA_GRID:
        m = np.array([[1.0, 0.0], [k, 1.0]]) @ np.diag([1.0 / np.sqrt(2.0), np.sqrt(2.0)])
        want = m @ (0.5 * np.eye(2)) @ m.T
        got = closed_form_output(VACUUM, GateParams.exact(k, ancilla_vx=1e-12))
        assert np.allclose(got.cov, want, atol=1e-9)


def test_disabled_feedforward_inflates_p_variance():
    # strongly antisqueezed ancilla (V_S = 0.05): without the feed-forward the
    # kept port keeps the ancilla's p noise, (0.5 + 1/(4*0.05)) / 2 = 2.75
    for kappa in (0.0, 1.0):
        params_off = GateParams(np.arctan(kappa), 0.0, ancilla_vx=0.05)
        off = gate_output_state(VACUUM, params_off)
        assert off.cov[1, 1] == pytest.approx(2.75, abs=1e-12)
        on = closed_form_output(VACUUM, GateParams.exact(kappa, ancilla_vx=0.05))
        assert off.cov[1, 1] > on.cov[1, 1]


@pytest.mark.parametrize("sign", (1, -1))
def test_pipeline_beamsplitter_is_symplectic(sign):
    s = _beamsplitter(sign)
    # the symplectic form of (input, ancilla), block-diagonal [[0, 1], [-1, 0]]
    omega = np.kron(np.eye(2), [[0.0, 1.0], [-1.0, 0.0]])
    assert np.max(np.abs(s @ omega @ s.T - omega)) < 1e-12


def test_pipeline_beamsplitter_sum_difference_ports():
    # sum and difference ports, the second flipped by the sign
    r = 1.0 / np.sqrt(2.0)
    for sign in (1, -1):
        assert _beamsplitter(sign) @ [1.0, 0.5, 3.0, -0.5] == pytest.approx(
            [r * 4.0, r * 0.0, sign * r * (1.0 - 3.0), sign * r * (0.5 + 0.5)], abs=1e-12
        )


def test_calibrate_signs_is_unique_and_canonical():
    assert calibrate_signs() == SignConventions(1, 1, 1)
    assert CONVENTIONS == SignConventions(1, 1, 1)


def test_calibrate_signs_refuses_a_model_on_another_convention(monkeypatch):
    monkeypatch.setattr("dynsqueeze.gate.CONVENTIONS", SignConventions(1, -1, 1))
    with pytest.raises(GateCalibrationError, match=r"\(1, 1, 1\) differ .* \(1, -1, 1\)"):
        calibrate_signs()


@pytest.mark.parametrize("tol, found", [(np.inf, 8), (-1.0, 0)], ids=["all", "none"])
def test_calibrate_signs_refuses_anything_but_one_match(monkeypatch, tol, found):
    monkeypatch.setattr("dynsqueeze.gate.CALIBRATION_TOL", tol)
    with pytest.raises(GateCalibrationError) as info:
        calibrate_signs()
    assert str(info.value) == f"expected exactly one sign convention to match, found {found}"


@pytest.mark.parametrize(
    "conv",
    [
        SignConventions(b, lo, f)
        for b in (1, -1)
        for lo in (1, -1)
        for f in (1, -1)
        if (b, lo, f) != (1, 1, 1)
    ],
)
def test_wrong_sign_conventions_are_detectable(conv):
    probe = make_coherent(1.3, -0.7)
    worst = 0.0
    for k in (-2.0, -1.0, 0.5, 2.0):
        params = GateParams.exact(k, ancilla_vx=0.24494)
        got = _output_state(probe, params, conv)
        want = closed_form_output(probe, params)
        worst = max(
            worst,
            float(np.max(np.abs(got.cov - want.cov))),
            float(np.max(np.abs(got.mean - want.mean))),
        )
    assert worst > 1e-6


def test_decomposition_recomposes_to_shear():
    for k in np.linspace(-2.0, 2.0, 41):
        d = decompose_shear(k)
        assert np.max(np.abs(d.recompose() - [[1.0, 0.0], [k, 1.0]])) < 1e-12
        assert d.squeeze_factors[0] * d.squeeze_factors[1] == pytest.approx(1.0, abs=1e-12)
        assert d.lam == pytest.approx(0.5 * np.arctan(k / 2.0), abs=1e-15)


def test_decomposition_anchor_at_kappa_two():
    d = decompose_shear(2.0)
    assert d.lam == pytest.approx(np.pi / 8.0, abs=1e-12)
    assert d.squeeze_factors[0] == pytest.approx(np.sqrt(2.0) - 1.0, abs=1e-12)
    assert d.squeeze_factors[1] == pytest.approx(np.sqrt(2.0) + 1.0, abs=1e-12)
    # the tilted squeeze is symmetric with unit determinant, and the outer
    # factor is a proper rotation
    assert d.tilted_squeeze[0, 1] == d.tilted_squeeze[1, 0]
    assert np.linalg.det(d.tilted_squeeze) == pytest.approx(1.0, abs=1e-12)
    assert np.allclose(d.outer_rotation @ d.outer_rotation.T, np.eye(2), atol=1e-12)


def test_tilted_squeeze_diagonalizes_on_diagonal_axes():
    d = decompose_shear(2.0)
    h = np.array([[1.0, 1.0], [1.0, -1.0]]) / np.sqrt(2.0)
    diag = h @ d.tilted_squeeze @ h
    assert diag[0, 0] == pytest.approx(d.squeeze_factors[1], abs=1e-12)
    assert diag[1, 1] == pytest.approx(d.squeeze_factors[0], abs=1e-12)
    assert abs(diag[0, 1]) < 1e-12


def test_detector_loss_changes_output():
    params_ideal = GateParams.exact(1.0)
    params_lossy = GateParams.exact(1.0, hd1_efficiency=0.8)
    ideal = gate_output_state(VACUUM, params_ideal)
    lossy = gate_output_state(VACUUM, params_lossy)
    assert np.max(np.abs(ideal.cov - lossy.cov)) > 1e-4
    assert symplectic_eigenvalues(lossy).min() >= 0.5 - 1e-9


def test_physicality_check_fails_on_sign_flipped_outputs():
    # a 2x2 covariance and its negative share one det, so nu must see the sign
    flipped = -gate_output_state(VACUUM, GateParams.exact(np.array(KAPPA_GRID))).cov
    nu = symplectic_eigenvalues(flipped)
    assert np.isnan(nu).all()
    assert not nu.min() >= 0.5 - 1e-9  # criterion 09's test
    with pytest.raises(ValueError, match="unphysical"):
        GaussianState(np.zeros((len(KAPPA_GRID), 2)), flipped)


@given(
    st.floats(min_value=-2.0, max_value=2.0),
    st.floats(min_value=0.05, max_value=1.5),
    st.floats(min_value=0.05, max_value=3.0),
    st.floats(min_value=-2.0, max_value=2.0),
    st.just(0.0) | st.floats(min_value=0.0, max_value=2.0),
    st.floats(min_value=-2.0, max_value=2.0),
    st.floats(min_value=-2.0, max_value=2.0),
    st.none() | st.floats(min_value=-np.pi / 2.0, max_value=np.pi / 2.0),
    st.none() | st.floats(min_value=0.0, max_value=3.0),
    st.sampled_from((1, -1)),
    st.floats(min_value=0.01, max_value=1.0),
)
@settings(max_examples=60, deadline=None)
def test_pipeline_matches_closed_form_on_random_inputs(
    kappa, vs, vx, cxp, excess, mx, mp, theta, gain, sign, eta
):
    # any symmetric input covariance with vx > 0 and det >= 1/4 is physical;
    # excess = 0 gives a pure state, excess > 0 a mixed one
    vp = (0.25 + cxp * cxp + excess) / vx
    state = GaussianState([mx, mp], [[vx, cxp], [cxp, vp]])
    # an undrawn phase or gain is the exact electronics' value at kappa
    theta = np.arctan(kappa) if theta is None else theta
    gain = np.sqrt(1.0 + kappa**2) if gain is None else gain
    params = GateParams(theta, sign * gain, ancilla_vx=vs, hd1_efficiency=eta)
    got = gate_output_state(state, params)
    want = closed_form_output(state, params)
    assert np.max(np.abs(got.cov - want.cov)) < 1e-10
    assert np.max(np.abs(got.mean - want.mean)) < 1e-10
