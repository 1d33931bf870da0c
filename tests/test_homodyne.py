"""Pure loss, the detector-efficiency channel in front of the feed-forward homodyne."""

import numpy as np
import pytest

from dynsqueeze import (
    GaussianState,
    apply,
    beamsplitter,
    make_coherent,
    make_squeezed_vacuum,
    make_vacuum,
    pure_loss,
    symplectic_eigenvalues,
    tensor,
)


def test_pure_loss_limits():
    state = make_coherent(2.0, -1.0)
    assert np.allclose(pure_loss(state, 0, 1.0).cov, state.cov, atol=1e-15)
    assert np.allclose(pure_loss(state, 0, 1.0).mean, state.mean, atol=1e-15)
    dark = pure_loss(state, 0, 0.0)
    assert np.allclose(dark.mean, 0.0, atol=1e-15)
    assert np.allclose(dark.cov, 0.5 * np.eye(2), atol=1e-15)


def test_pure_loss_interpolates_toward_vacuum():
    # the coherent state (2, 0) after the shear x -> x, p -> p + 2 x
    state = GaussianState(1, [2.0, 4.0], [[0.5, 1.0], [1.0, 2.5]])
    eta = 0.36
    lossy = pure_loss(state, 0, eta)
    assert lossy.mean == pytest.approx(np.sqrt(eta) * state.mean, abs=1e-12)
    assert np.allclose(lossy.cov, eta * state.cov + (1 - eta) * 0.5 * np.eye(2), atol=1e-12)
    assert symplectic_eigenvalues(lossy).min() >= 0.5 - 1e-9


def test_pure_loss_scales_cross_correlations():
    # an x-squeezed and a p-squeezed vacuum: the second is the first turned by 90 degrees
    joint = apply(beamsplitter(0.5), tensor(make_squeezed_vacuum(0.2), make_squeezed_vacuum(1.25)))
    eta = 0.81
    lossy = pure_loss(joint, 0, eta)
    assert np.allclose(lossy.cov[:2, 2:], np.sqrt(eta) * joint.cov[:2, 2:], atol=1e-12)
    assert np.allclose(lossy.cov[2:, 2:], joint.cov[2:, 2:], atol=1e-12)


def test_pure_loss_validation():
    with pytest.raises(ValueError):
        pure_loss(make_vacuum(), 0, 1.2)
    with pytest.raises(ValueError):
        pure_loss(make_vacuum(), 1, 0.5)
