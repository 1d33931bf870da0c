import numpy as np
import pytest

from dynsqueeze import (
    SymplecticTransform,
    apply,
    beamsplitter,
    make_coherent,
    make_vacuum,
    symplectic_form,
    tensor,
    variance_to_db,
)

QUARTER_TURN = SymplecticTransform(1, [[0.0, -1.0], [1.0, 0.0]])


@pytest.mark.parametrize(
    "transform",
    [
        beamsplitter(0.5),
        beamsplitter(0.5, orientation=-1),
        beamsplitter(0.25),
        beamsplitter(1.0),
        beamsplitter(0.0),
        beamsplitter(0.1),
        beamsplitter(0.9, orientation=-1),
        beamsplitter(0.25, orientation=-1),
        beamsplitter(1.0, orientation=-1),
        beamsplitter(0.0, orientation=-1),
        beamsplitter(0.7),
    ],
)
def test_generators_are_symplectic(transform):
    n = transform.n_modes
    omega = symplectic_form(n)
    s = transform.matrix
    assert np.max(np.abs(s @ omega @ s.T - omega)) < 1e-12


def test_non_symplectic_matrix_rejected():
    with pytest.raises(ValueError):
        SymplecticTransform(1, np.array([[1.0, 1.0], [0.0, 2.0]]))


def test_transform_validation():
    with pytest.raises(ValueError):
        SymplecticTransform(1, np.eye(4))
    with pytest.raises(ValueError):
        SymplecticTransform(1, [[np.inf, 0.0], [0.0, 1.0]])
    with pytest.raises(ValueError):
        beamsplitter(1.2)
    with pytest.raises(ValueError):
        beamsplitter(0.5, orientation=2)


def test_rotation_action():
    out = apply(QUARTER_TURN, make_coherent(1.0, 2.0))
    assert out.mean == pytest.approx([-2.0, 1.0], abs=1e-12)


def test_squeeze_three_db():
    out = apply(SymplecticTransform(1, np.diag([np.sqrt(0.5), np.sqrt(2.0)])), make_vacuum())
    assert out.cov[0, 0] == pytest.approx(0.25, abs=1e-12)
    assert variance_to_db(out.cov[0, 0]) == pytest.approx(-3.0102999566, abs=1e-9)


def test_shear_on_vacuum_matches_eigensolver_oracle():
    out = apply(SymplecticTransform(1, [[1.0, 0.0], [2.0, 1.0]]), make_vacuum())
    assert np.allclose(out.cov, [[0.5, 1.0], [1.0, 2.5]], atol=1e-12)
    # eigenvalues frozen from numpy's symmetric eigensolver: (3 -+ 2 sqrt(2)) / 2
    eig = np.sort(np.linalg.eigvalsh(out.cov))
    assert eig == pytest.approx([0.08578643762690485, 2.914213562373095], abs=1e-12)


def test_balanced_beamsplitter_sum_difference_ports():
    joint = tensor(make_coherent(1.0, 0.5), make_coherent(3.0, -0.5))
    out = apply(beamsplitter(0.5), joint)
    r = 1.0 / np.sqrt(2.0)
    assert out.mean == pytest.approx(
        [r * 4.0, r * 0.0, r * (1.0 - 3.0), r * (0.5 + 0.5)], abs=1e-12
    )


def test_full_transmission_keeps_first_port():
    joint = tensor(make_coherent(1.0, 2.0), make_coherent(3.0, 4.0))
    out = apply(beamsplitter(1.0), joint)
    # port 2 picks up a parity flip in this convention
    assert out.mean == pytest.approx([1.0, 2.0, -3.0, -4.0], abs=1e-12)


def test_apply_mode_mismatch():
    with pytest.raises(ValueError):
        apply(QUARTER_TURN, make_vacuum(2))
