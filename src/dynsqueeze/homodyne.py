"""Homodyne detection and loss channels on Gaussian states.

A homodyne detector at angle a measures x*cos(a) + p*sin(a) of one mode.  The
outcome is Gaussian; the surviving modes collapse to the Schur-complement
conditional state, which is independent of the outcome value for Gaussian
inputs (only the conditional means depend on it).
"""

from __future__ import annotations

import numpy as np

from .states import SHOT_NOISE_VARIANCE, GaussianState, Immutable, quadrature_direction

# Measured-quadrature variances below this make the conditioning singular.
DEGENERATE_VARIANCE_TOL = 1e-12


class HomodyneOutcome(Immutable):
    """One homodyne sample.

    Attributes:
        value: Measured quadrature value.
        angle: Quadrature axis, reduced to [0, pi); 0 is x, pi/2 is p.
        mode: Index of the measured (and removed) mode in the pre-measurement state.
    """

    __slots__ = ("value", "angle", "mode")

    def __init__(self, value: float, angle: float, mode: int) -> None:
        if not 0.0 <= angle < np.pi:
            raise ValueError(f"angle must lie in [0, pi), got {angle}")
        self._set(value, angle, mode)


def homodyne_measure(
    state: GaussianState,
    mode: int,
    angle: float,
    rng: np.random.Generator,
) -> tuple[HomodyneOutcome, GaussianState | None]:
    """Measure one rotated quadrature and condition the remaining modes on it.

    The angle is interpreted modulo pi (a quadrature axis, not a direction).
    The outcome is drawn from N(u.m, u.C.u) with u the quadrature direction;
    the remaining modes get the Schur-complement update

        m' = m_r + c * (q - u.m) / (u.C.u),   C' = C_rr - outer(c, c) / (u.C.u)

    with c = C[rest, :] u.  Measuring the last mode returns ``None`` for the
    remaining state.

    Raises:
        ValueError: If ``state`` is a batch, or the measured variance is below
            1e-12 (singular conditioning).
    """
    if state.batch_shape:
        raise ValueError("homodyne_measure takes a single state, not a batch")
    axis = float(np.mod(angle, np.pi))
    u = quadrature_direction(axis, mode, state.n_modes)
    s2 = float(u @ state.cov @ u)
    if s2 < DEGENERATE_VARIANCE_TOL:
        raise ValueError(f"measured variance {s2:.3g} too small to condition on")
    value = float(rng.normal(u @ state.mean, np.sqrt(s2)))
    outcome = HomodyneOutcome(value, axis, mode)
    if state.n_modes == 1:
        return outcome, None
    keep = [i for i in range(2 * state.n_modes) if i not in (2 * mode, 2 * mode + 1)]
    c = state.cov[keep, :] @ u
    mean = state.mean[keep] + c * (value - float(u @ state.mean)) / s2
    cov = state.cov[np.ix_(keep, keep)] - np.outer(c, c) / s2
    return outcome, GaussianState(state.n_modes - 1, mean, 0.5 * (cov + cov.T))


def pure_loss(state: GaussianState, mode: int, efficiency: float) -> GaussianState:
    """Mix one mode with vacuum on a beamsplitter of the given transmittance.

    Means scale by sqrt(efficiency); the mode's covariance block relaxes toward
    the vacuum value, C -> eta C + (1 - eta)/2 on that block.  A batched state
    is attenuated member by member.
    """
    if not 0.0 <= efficiency <= 1.0:
        raise ValueError(f"efficiency must lie in [0, 1], got {efficiency}")
    if not 0 <= mode < state.n_modes:
        raise ValueError(f"mode {mode} out of range for {state.n_modes} modes")
    root = np.sqrt(efficiency)
    scale = np.ones(2 * state.n_modes)
    scale[2 * mode : 2 * mode + 2] = root
    mean = state.mean * scale
    cov = state.cov * np.outer(scale, scale)
    sl = slice(2 * mode, 2 * mode + 2)
    cov[..., sl, sl] += (1.0 - efficiency) * SHOT_NOISE_VARIANCE * np.eye(2)
    return GaussianState(state.n_modes, mean, cov)
