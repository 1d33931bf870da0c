import numpy as np
import pytest

from dynsqueeze import (
    GaussianState,
    apply,
    beamsplitter,
    compose,
    embed,
    homodyne_measure,
    make_coherent,
    make_squeezed_vacuum,
    make_vacuum,
    pure_loss,
    rotation,
    shear,
    squeeze,
    symplectic_eigenvalues,
    tensor,
)


def _condition_via_precision(state, mode, angle, value):
    """Independent conditioning oracle: rotate, invert, marginalize.

    Rotates the measured mode so the measured quadrature becomes its x axis,
    conditions via the precision matrix (two inversions instead of a rank-1
    Schur update), then drops the leftover conjugate quadrature by
    marginalization.
    """
    rotated = apply(embed(rotation(-angle), state.n_modes, (mode,)), state)
    q = 2 * mode
    keep = [i for i in range(2 * state.n_modes) if i != q]
    prec = np.linalg.inv(rotated.cov)
    cond_cov_full = np.linalg.inv(prec[np.ix_(keep, keep)])
    cond_mean_full = rotated.mean[keep] - cond_cov_full @ prec[keep, q] * (
        value - rotated.mean[q]
    )
    # marginalize out the conjugate quadrature of the measured mode
    drop = keep.index(q + 1)
    rest = [i for i in range(len(keep)) if i != drop]
    return cond_mean_full[rest], cond_cov_full[np.ix_(rest, rest)]


def test_vacuum_measurement_leaves_vacuum(rng):
    joint = make_vacuum(2)
    outcome, remaining = homodyne_measure(joint, 1, 0.0, rng)
    assert remaining.n_modes == 1
    assert np.allclose(remaining.cov, 0.5 * np.eye(2), atol=1e-12)
    assert np.allclose(remaining.mean, 0.0, atol=1e-12)
    assert outcome.mode == 1
    assert outcome.angle == 0.0


def test_vacuum_outcome_distribution(rng):
    joint = make_vacuum(2)
    values = []
    for _ in range(8000):
        outcome, _ = homodyne_measure(joint, 1, 0.0, rng)
        values.append(outcome.value)
    values = np.asarray(values)
    n = values.size
    assert abs(values.mean()) < 4.0 * np.sqrt(0.5 / n)
    assert values.var(ddof=1) == pytest.approx(0.5, abs=4.0 * 0.5 * np.sqrt(2.0 / n))


def _epr_pair(vx):
    # one x-squeezed and one p-squeezed mode on a balanced beamsplitter
    pair = tensor(make_squeezed_vacuum(vx), apply(rotation(np.pi / 2.0), make_squeezed_vacuum(vx)))
    return apply(beamsplitter(0.5), pair)


def test_epr_conditioning_beats_local_variance(rng):
    epr = _epr_pair(0.24494)
    # frozen from the precision-matrix oracle below
    assert epr.cov[0, 0] == pytest.approx(0.6327990601780029, abs=1e-12)
    _outcome, remaining = homodyne_measure(epr, 1, 0.0, rng)
    assert remaining.cov[0, 0] == pytest.approx(0.3950701189879714, abs=1e-12)
    assert remaining.cov[0, 0] < 0.5 < epr.cov[0, 0]


@pytest.mark.parametrize("angle", [0.0, 0.7, np.pi / 2.0, 2.8])
def test_conditioning_matches_precision_matrix_oracle(angle, rng):
    state = apply(
        embed(compose(shear(1.2), squeeze(0.5)), 3, (1,)),
        apply(
            embed(beamsplitter(0.3), 3, (0, 2)),
            tensor(tensor(make_coherent(1.0, -0.5), make_squeezed_vacuum(0.2)), make_coherent(0.3, 0.9)),
        ),
    )
    outcome, remaining = homodyne_measure(state, 1, angle, rng)
    mean, cov = _condition_via_precision(state, 1, angle, outcome.value)
    assert remaining.mean == pytest.approx(mean, abs=1e-9)
    assert np.allclose(remaining.cov, cov, atol=1e-9)


def test_law_of_total_covariance(rng):
    # conditional covariance + scatter of conditional means == marginal covariance
    state = apply(beamsplitter(0.5), tensor(make_coherent(0.8, 0.1), make_squeezed_vacuum(0.15)))
    shots = 12000
    means = np.empty((shots, 2))
    cond_cov = None
    for i in range(shots):
        _outcome, remaining = homodyne_measure(state, 0, 0.7, rng)
        means[i] = remaining.mean
        cond_cov = remaining.cov
    marginal = state.cov[2:, 2:]
    total = cond_cov + np.cov(means.T)
    assert np.allclose(total, marginal, rtol=0.05, atol=0.01)
    assert means.mean(axis=0) == pytest.approx(state.mean[2:], abs=0.05)


def test_angle_reduced_modulo_pi():
    r1 = np.random.default_rng(5)
    r2 = np.random.default_rng(5)
    out_a, rem_a = homodyne_measure(make_vacuum(2), 0, 0.3, r1)
    out_b, rem_b = homodyne_measure(make_vacuum(2), 0, 0.3 + np.pi, r2)
    assert out_a.angle == pytest.approx(out_b.angle, abs=1e-12)
    # the reduced angle differs from 0.3 in the last ulp, so the drawn value
    # can too; identical would be asking floats for more than they have
    assert out_a.value == pytest.approx(out_b.value, abs=1e-12)
    assert np.allclose(rem_a.cov, rem_b.cov, atol=1e-12)


def test_single_mode_measurement_returns_no_state(rng):
    outcome, remaining = homodyne_measure(make_coherent(2.0, 0.0), 0, 0.0, rng)
    assert remaining is None
    assert np.isfinite(outcome.value)


def test_degenerate_variance_rejected(rng):
    # physical two-mode squeezed-like covariance with a near-zero x variance
    cov = np.diag([1e-13, 0.25 / 1e-13, 0.5, 0.5])
    state = GaussianState(2, np.zeros(4), cov)
    with pytest.raises(ValueError):
        homodyne_measure(state, 0, 0.0, rng)


def test_measure_mode_out_of_range(rng):
    with pytest.raises(ValueError):
        homodyne_measure(make_vacuum(2), 2, 0.0, rng)


def test_pure_loss_limits():
    state = make_coherent(2.0, -1.0)
    assert np.allclose(pure_loss(state, 0, 1.0).cov, state.cov, atol=1e-15)
    assert np.allclose(pure_loss(state, 0, 1.0).mean, state.mean, atol=1e-15)
    dark = pure_loss(state, 0, 0.0)
    assert np.allclose(dark.mean, 0.0, atol=1e-15)
    assert np.allclose(dark.cov, 0.5 * np.eye(2), atol=1e-15)


def test_pure_loss_interpolates_toward_vacuum():
    state = apply(shear(2.0), make_coherent(2.0, 0.0))
    eta = 0.36
    lossy = pure_loss(state, 0, eta)
    assert lossy.mean == pytest.approx(np.sqrt(eta) * state.mean, abs=1e-12)
    assert np.allclose(lossy.cov, eta * state.cov + (1 - eta) * 0.5 * np.eye(2), atol=1e-12)
    assert symplectic_eigenvalues(lossy).min() >= 0.5 - 1e-9


def test_pure_loss_scales_cross_correlations():
    joint = apply(beamsplitter(0.5), tensor(make_squeezed_vacuum(0.2), apply(rotation(np.pi / 2), make_squeezed_vacuum(0.2))))
    eta = 0.81
    lossy = pure_loss(joint, 0, eta)
    assert np.allclose(lossy.cov[:2, 2:], np.sqrt(eta) * joint.cov[:2, 2:], atol=1e-12)
    assert np.allclose(lossy.cov[2:, 2:], joint.cov[2:, 2:], atol=1e-12)


def test_pure_loss_validation():
    with pytest.raises(ValueError):
        pure_loss(make_vacuum(), 0, 1.2)
    with pytest.raises(ValueError):
        pure_loss(make_vacuum(), 1, 0.5)


def test_measure_rejects_a_batch(rng):
    batch = tensor(make_coherent([1.0, 2.0], [0.0, 0.5]), make_vacuum())
    with pytest.raises(ValueError, match="single state"):
        homodyne_measure(batch, 0, 0.0, rng)
