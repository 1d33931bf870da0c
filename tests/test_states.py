import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from dynsqueeze import (
    GaussianState,
    db_to_variance,
    make_coherent,
    make_squeezed_vacuum,
    quadrature_mean,
    quadrature_variance,
    symplectic_eigenvalues,
    variance_to_db,
)


def test_vacuum_moments():
    v = make_coherent(0.0, 0.0)
    assert np.array_equal(v.mean, np.zeros(2))
    assert np.array_equal(v.cov, 0.5 * np.eye(2))


def test_coherent_displaces_vacuum():
    c = make_coherent(3.0, -1.5)
    assert np.array_equal(c.mean, [3.0, -1.5])
    assert np.array_equal(c.cov, 0.5 * np.eye(2))


def test_squeezed_vacuum_is_minimum_uncertainty():
    s = make_squeezed_vacuum(0.24494)
    assert s.cov[0, 0] == 0.24494
    assert s.cov[1, 1] == pytest.approx(1.0206581203560057, abs=1e-12)
    assert np.linalg.det(s.cov) == pytest.approx(0.25, abs=1e-15)


@pytest.mark.parametrize("vx", [0.0, -0.3, 1e-13, np.nan, np.inf])
def test_squeezed_vacuum_rejects_degenerate_variance(vx):
    with pytest.raises(ValueError):
        make_squeezed_vacuum(vx)


def test_db_anchors():
    # shot noise is the 0 dB reference
    assert variance_to_db(0.5) == 0.0
    assert db_to_variance(-3.1) == pytest.approx(0.2448894096842231, abs=1e-15)
    assert variance_to_db(0.24494) == pytest.approx(-3.0991029082932386, abs=1e-12)
    with pytest.raises(ValueError):
        variance_to_db(0.0)
    with pytest.raises(ValueError):
        variance_to_db(-1.0)


@given(st.floats(min_value=-30.0, max_value=30.0))
def test_db_round_trip(db):
    assert variance_to_db(db_to_variance(db)) == pytest.approx(db, abs=1e-12)


@pytest.mark.parametrize(
    "mean, cov",
    [
        (np.zeros(2), np.array([[0.5, 0.1], [0.0, 0.5]])),  # asymmetric
        (np.zeros(2), 0.4 * np.eye(2)),  # below vacuum in both quadratures
        (np.zeros(3), 0.5 * np.eye(2)),  # wrong mean shape
        (np.zeros(2), 0.5 * np.eye(4)),  # wrong cov shape
        (np.zeros(4), 0.5 * np.eye(4)),  # two modes
        (np.array([np.nan, 0.0]), 0.5 * np.eye(2)),
        # not positive definite, although each has |det| >= 1/4
        (np.zeros(2), -np.eye(2)),
        (np.zeros(2), -0.6 * np.eye(2)),
        (np.zeros(2), np.array([[0.5, 4.5], [4.5, 0.5]])),
    ],
)
def test_state_construction_rejects_bad_moments(mean, cov):
    with pytest.raises(ValueError):
        GaussianState(mean, cov)


def test_symplectic_eigenvalue_is_nan_unless_positive_definite():
    covs = np.array([0.6 * np.eye(2), -0.6 * np.eye(2), [[0.5, 4.5], [4.5, 0.5]]])
    nu = symplectic_eigenvalues(covs)
    assert nu[0] == pytest.approx(0.6)
    assert np.isnan(nu[1:]).all()


@pytest.mark.parametrize("cov", [np.diag([1e308, 1e308]), [[1.5e308, 1e308], [1e308, 1.5e308]]])
def test_state_with_entries_near_float_max_is_built_as_given(cov):
    # cov + cov.T overflows for both, and a * b and c * c for the second too
    state = GaussianState(np.zeros(2), cov)
    assert np.array_equal(state.cov, cov)


def test_thermal_state_is_physical():
    t = GaussianState(np.zeros(2), 0.6 * np.eye(2))
    assert symplectic_eigenvalues(t) == pytest.approx(0.6)


def test_state_arrays_are_read_only():
    v = make_coherent(0.0, 0.0)
    with pytest.raises(ValueError):
        v.cov[0, 0] = 9.0
    with pytest.raises(ValueError):
        v.mean[0] = 1.0


# vacuum after the shear x -> x, p -> p + 2 x
SHEARED_VACUUM = GaussianState(np.zeros(2), [[0.5, 1.0], [1.0, 2.5]])


def test_quadrature_variance_axes():
    # x, p and the diagonal of a sheared vacuum
    s = SHEARED_VACUUM
    assert quadrature_variance(s, 0.0) == pytest.approx(0.5, abs=1e-12)
    assert quadrature_variance(s, np.pi / 2) == pytest.approx(2.5, abs=1e-12)
    assert quadrature_variance(s, np.pi / 4) == pytest.approx(2.5, abs=1e-12)


def test_quadrature_mean_matches_projection():
    c = make_coherent(1.0, 2.0)
    assert quadrature_mean(c, np.pi / 4) == pytest.approx(3.0 / np.sqrt(2.0), abs=1e-12)


@given(st.floats(min_value=-np.pi, max_value=np.pi))
@settings(max_examples=50)
def test_quadrature_variance_equals_rotated_x_variance(angle):
    # var of the quadrature at `angle` == x variance after rotating by -angle
    s = GaussianState([0.7, -0.2], [[0.25, 0.4], [0.4, 1.64]])
    direct = quadrature_variance(s, angle)
    c, sn = np.cos(angle), np.sin(angle)
    r = np.array([[c, sn], [-sn, c]])
    rotated = r @ s.cov @ r.T
    assert direct == pytest.approx(rotated[0, 0], rel=1e-10, abs=1e-12)


def test_symplectic_eigenvalues_of_pure_states():
    assert symplectic_eigenvalues(make_coherent(0.0, 0.0)) == pytest.approx(0.5)
    assert symplectic_eigenvalues(make_squeezed_vacuum(0.1)) == pytest.approx(0.5)
    assert symplectic_eigenvalues(SHEARED_VACUUM) == pytest.approx(0.5, abs=1e-12)
    # one nu per member of a batch
    batch = make_coherent(np.zeros((2, 3)), 0.0)
    nu = symplectic_eigenvalues(batch)
    assert nu.shape == (2, 3)
    assert nu == pytest.approx(np.full((2, 3), 0.5), abs=1e-15)


@given(
    st.floats(min_value=0.3, max_value=3.0),
    st.sampled_from((1.0, -1.0)),
    st.floats(min_value=-2.0, max_value=2.0),
    st.floats(min_value=-2.0, max_value=2.0),
)
@settings(max_examples=60)
def test_symplectic_eigenvalues_invariant_under_gaussian_unitaries(magnitude, sign, b, c):
    # a mixed state with correlated quadratures
    base = np.array([[0.8, 0.3], [0.3, 1.1]])
    before = symplectic_eigenvalues(base)
    # any real 2x2 matrix of unit determinant is a one-mode Gaussian unitary
    a = sign * magnitude
    s = np.array([[a, b], [c, (1.0 + b * c) / a]])
    moved = s @ base @ s.T
    after = symplectic_eigenvalues(moved)
    assert after == pytest.approx(before, rel=1e-9, abs=1e-9)
    # the eigenvalues of Omega V are +/- i nu
    omega = np.array([[0.0, 1.0], [-1.0, 0.0]])
    assert after == pytest.approx(np.abs(np.linalg.eigvals(omega @ moved)).mean(-1), rel=1e-12)
