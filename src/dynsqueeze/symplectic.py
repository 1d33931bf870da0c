"""Symplectic (Gaussian-unitary) transformations acting on quadrature moments.

A transform is a symplectic matrix S: means map as m -> S m, covariances as
C -> S C S^T.  Construction checks S Omega S^T = Omega, so only canonical
transformations can be represented.
"""

from __future__ import annotations

import numpy as np

from .states import GaussianState, Immutable, symplectic_form

SYMPLECTIC_TOL = 1e-10


class SymplecticTransform(Immutable):
    """Linear symplectic map on ``n_modes`` modes.

    Attributes:
        n_modes: Number of modes the map acts on.
        matrix: Symplectic matrix S, shape (2*n_modes, 2*n_modes).
    """

    __slots__ = ("n_modes", "matrix")

    def __init__(self, n_modes: int, matrix) -> None:
        n = n_modes
        if n < 1:
            raise ValueError("transform needs at least one mode")
        s = np.array(matrix, dtype=float)
        if s.shape != (2 * n, 2 * n):
            raise ValueError(f"matrix must have shape ({2 * n}, {2 * n}), got {s.shape}")
        if not np.all(np.isfinite(s)):
            raise ValueError("transform entries must be finite")
        omega = symplectic_form(n)
        if np.max(np.abs(s @ omega @ s.T - omega)) > SYMPLECTIC_TOL:
            raise ValueError("matrix is not symplectic")
        s.setflags(write=False)
        self._set(n_modes, s)


def apply(transform: SymplecticTransform, state: GaussianState) -> GaussianState:
    """Propagate a state through a transform: m -> S m, C -> S C S^T.

    A batched state is propagated member by member through the same transform.
    """
    if transform.n_modes != state.n_modes:
        raise ValueError(
            f"mode count mismatch: transform has {transform.n_modes}, state has {state.n_modes}"
        )
    s = transform.matrix
    mean = state.mean @ s.T
    cov = s @ state.cov @ s.T
    return GaussianState(state.n_modes, mean, 0.5 * (cov + cov.swapaxes(-1, -2)))


def beamsplitter(transmittance: float, orientation: int = 1) -> SymplecticTransform:
    """Two-mode beamsplitter with real coefficients.

    Convention (per quadrature, identically for x and p):

        out1 = sqrt(T) in1 + sqrt(1-T) in2
        out2 = orientation * (sqrt(1-T) in1 - sqrt(T) in2)

    so at T = 1/2 with orientation +1 the outputs are the sum and difference
    ports (in1 +/- in2) / sqrt(2).  ``orientation`` = -1 flips the sign of the
    second output port; both choices are symplectic.
    """
    if not 0.0 <= transmittance <= 1.0:
        raise ValueError(f"transmittance must lie in [0, 1], got {transmittance}")
    if orientation not in (-1, 1):
        raise ValueError("orientation must be +1 or -1")
    a = np.sqrt(transmittance)
    b = np.sqrt(1.0 - transmittance)
    eye = np.eye(2)
    s = np.block([[a * eye, b * eye], [orientation * b * eye, -orientation * a * eye]])
    return SymplecticTransform(2, s)
