"""Symplectic (Gaussian-unitary) transformations acting on quadrature moments.

A transform is a pair (S, d): means map as m -> S m + d, covariances as
C -> S C S^T.  Construction checks S Omega S^T = Omega, so only canonical
transformations can be represented.
"""

from __future__ import annotations

import numpy as np

from .states import GaussianState, Immutable, symplectic_form

SYMPLECTIC_TOL = 1e-10


class SymplecticTransform(Immutable):
    """Affine symplectic map on ``n_modes`` modes.

    Attributes:
        n_modes: Number of modes the map acts on.
        matrix: Symplectic matrix S, shape (2*n_modes, 2*n_modes).
        displacement: Added to the means after the linear part; defaults to zero.
    """

    __slots__ = ("n_modes", "matrix", "displacement")

    def __init__(self, n_modes: int, matrix, displacement=None) -> None:
        n = n_modes
        if n < 1:
            raise ValueError("transform needs at least one mode")
        s = np.array(matrix, dtype=float)
        if s.shape != (2 * n, 2 * n):
            raise ValueError(f"matrix must have shape ({2 * n}, {2 * n}), got {s.shape}")
        d = np.zeros(2 * n) if displacement is None else np.array(displacement, dtype=float)
        if d.shape != (2 * n,):
            raise ValueError(f"displacement must have shape ({2 * n},), got {d.shape}")
        if not (np.all(np.isfinite(s)) and np.all(np.isfinite(d))):
            raise ValueError("transform entries must be finite")
        omega = symplectic_form(n)
        if np.max(np.abs(s @ omega @ s.T - omega)) > SYMPLECTIC_TOL:
            raise ValueError("matrix is not symplectic")
        s.setflags(write=False)
        d.setflags(write=False)
        self._set(n_modes, s, d)


def apply(transform: SymplecticTransform, state: GaussianState) -> GaussianState:
    """Propagate a state through a transform: m -> S m + d, C -> S C S^T.

    A batched state is propagated member by member through the same transform.
    """
    if transform.n_modes != state.n_modes:
        raise ValueError(
            f"mode count mismatch: transform has {transform.n_modes}, state has {state.n_modes}"
        )
    s = transform.matrix
    mean = state.mean @ s.T + transform.displacement
    cov = s @ state.cov @ s.T
    return GaussianState(state.n_modes, mean, 0.5 * (cov + cov.swapaxes(-1, -2)))


def compose(*transforms: SymplecticTransform) -> SymplecticTransform:
    """Compose transforms; the rightmost argument acts first (matrix-product order)."""
    if not transforms:
        raise ValueError("need at least one transform")
    n = transforms[0].n_modes
    if any(t.n_modes != n for t in transforms):
        raise ValueError("all transforms must act on the same number of modes")
    s = np.eye(2 * n)
    d = np.zeros(2 * n)
    for t in reversed(transforms):
        s = t.matrix @ s
        d = t.matrix @ d + t.displacement
    return SymplecticTransform(n, s, d)


def rotation(theta: float) -> SymplecticTransform:
    """Single-mode phase rotation: x -> x cos - p sin, p -> x sin + p cos."""
    c, s = np.cos(theta), np.sin(theta)
    return SymplecticTransform(1, np.array([[c, -s], [s, c]]))


def squeeze(r: float) -> SymplecticTransform:
    """Single-mode squeeze along x: x -> exp(-r) x, p -> exp(r) p.

    Positive r squeezes the x variance by exp(-2r); r = ln(2)/2 is 3 dB.
    """
    return SymplecticTransform(1, np.diag([np.exp(-r), np.exp(r)]))


def shear(kappa: float) -> SymplecticTransform:
    """Single-mode shear x -> x, p -> p + kappa * x (quadratic-phase gate)."""
    return SymplecticTransform(1, np.array([[1.0, 0.0], [kappa, 1.0]]))


def displace(displacement) -> SymplecticTransform:
    """Pure displacement by the given interleaved vector (length 2 * n_modes)."""
    d = np.asarray(displacement, dtype=float)
    if d.ndim != 1 or d.size % 2 != 0 or d.size == 0:
        raise ValueError("displacement must be a flat vector of even length")
    n = d.size // 2
    return SymplecticTransform(n, np.eye(2 * n), d)


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


def embed(transform: SymplecticTransform, n_modes: int, modes) -> SymplecticTransform:
    """Embed a transform into a larger register, acting on the listed modes.

    ``modes`` gives, in order, the target index of each mode of ``transform``;
    remaining modes are untouched.
    """
    modes = tuple(int(m) for m in modes)
    if len(modes) != transform.n_modes:
        raise ValueError(
            f"expected {transform.n_modes} target modes, got {len(modes)}"
        )
    if len(set(modes)) != len(modes):
        raise ValueError("target modes must be distinct")
    if any(not 0 <= m < n_modes for m in modes):
        raise ValueError(f"target modes out of range for {n_modes} modes")
    s = np.eye(2 * n_modes)
    d = np.zeros(2 * n_modes)
    for i, mi in enumerate(modes):
        d[2 * mi : 2 * mi + 2] = transform.displacement[2 * i : 2 * i + 2]
        for j, mj in enumerate(modes):
            s[2 * mi : 2 * mi + 2, 2 * mj : 2 * mj + 2] = transform.matrix[
                2 * i : 2 * i + 2, 2 * j : 2 * j + 2
            ]
    return SymplecticTransform(n_modes, s, d)
