"""Measurement-based squeezing gate with tunable interaction strength.

The target operation is the shear (quadratic-phase) map x -> x, p -> p + kappa x.
It is realized without an inline nonlinear medium: the input is mixed with a
squeezed-vacuum ancilla on a balanced beamsplitter, one port is read out by a
homodyne detector whose local-oscillator phase tracks theta = arctan(kappa),
and the measured value is fed forward to a p displacement of the other port
with gain g = sqrt(1 + kappa^2).  In the limit of an ideally squeezed ancilla
the input-output relations reduce to

    x_out = (x_in - x_s) / sqrt(2)
    p_out = sqrt(2) p_in + (kappa / sqrt(2)) x_in + (kappa / sqrt(2)) x_s

i.e. the shear composed with a fixed 3 dB x squeeze, plus ancilla noise
(kappa / sqrt(2)) x_s in p and the residual -x_s / sqrt(2) in x.
"""

from __future__ import annotations

from typing import NamedTuple

import numpy as np

from .electronics import TARGETS
from .states import (
    MIN_SQUEEZED_VARIANCE,
    SHOT_NOISE_VARIANCE,
    GaussianState,
    Immutable,
    _is_real,
    _scalar_or_array,
    db_to_variance,
    make_coherent,
    make_squeezed_vacuum,
)

DEFAULT_ANCILLA_VX = db_to_variance(-3.1)

# Pipeline/closed-form agreement threshold used during sign calibration.
CALIBRATION_TOL = 1e-9


class GateCalibrationError(RuntimeError):
    """Raised when the discrete sign sweep does not single out one convention."""


class SignConventions(NamedTuple):
    """Discrete sign choices of the physical model.

    beamsplitter_sign: orientation of the beamsplitter output ports; -1 parity
        flips the kept mode.
    lo_sign: sign of the tracked local-oscillator phase (theta vs -theta).
    feedforward_sign: sign of the electronic gain applied to the measured value.
    """

    beamsplitter_sign: int
    lo_sign: int
    feedforward_sign: int


# Calibrated once against the closed-form moments; see calibrate_signs().
CONVENTIONS = SignConventions(1, 1, 1)


class GateParams(Immutable):
    """Operating point of the gate for one time bin, or for a batch of bins.

    The optics see only what the feed-forward electronics deliver, a phase and
    a signed gain; :meth:`exact` derives both from kappa.  ``lo_phase`` and
    ``feedforward_gain`` may be arrays (one entry per bin), which must
    broadcast together and against the batch axes of the input state.

    Attributes:
        lo_phase: Local-oscillator phase theta of the feed-forward homodyne.
        feedforward_gain: Signed gain f g applied to the measured value.
        ancilla_vx: x variance of the squeezed-vacuum ancilla (shot noise = 0.5),
            a real number of at least MIN_SQUEEZED_VARIANCE.
        hd1_efficiency: Detection efficiency of the feed-forward homodyne, a
            real number in (0, 1].
    """

    __slots__ = ("lo_phase", "feedforward_gain", "ancilla_vx", "hd1_efficiency")

    def __init__(
        self, lo_phase: float | np.ndarray, feedforward_gain: float | np.ndarray,
        ancilla_vx: float = DEFAULT_ANCILLA_VX, hd1_efficiency: float = 1.0,
    ) -> None:
        lo_phase, feedforward_gain = _scalar_or_array(lo_phase), _scalar_or_array(feedforward_gain)
        for name, value in (("lo_phase", lo_phase), ("feedforward_gain", feedforward_gain)):
            if not np.all(np.isfinite(value)):
                raise ValueError(f"{name} must be finite")
        for name, value in (("ancilla_vx", ancilla_vx), ("hd1_efficiency", hd1_efficiency)):
            if not _is_real(value):
                raise ValueError(f"{name} must be a real number, got {value!r}")
        if not np.isfinite(ancilla_vx) or ancilla_vx < MIN_SQUEEZED_VARIANCE:
            raise ValueError(
                f"ancilla_vx must be finite and >= {MIN_SQUEEZED_VARIANCE:g}, got {ancilla_vx}"
            )
        if not 0.0 < hd1_efficiency <= 1.0:
            raise ValueError(f"hd1_efficiency must lie in (0, 1], got {hd1_efficiency}")
        self._set(lo_phase, feedforward_gain, ancilla_vx, hd1_efficiency)

    @classmethod
    def exact(
        cls, kappa: float | np.ndarray,
        ancilla_vx: float = DEFAULT_ANCILLA_VX, hd1_efficiency: float = 1.0,
    ) -> "GateParams":
        """The exact electronics at kappa: theta = arctan(kappa), gain sqrt(1 + kappa^2)."""
        kappa = _scalar_or_array(kappa)
        phase, gain = TARGETS["arctan"][0], TARGETS["sqrt1px2"][0]
        return cls(phase(kappa), gain(kappa), ancilla_vx, hd1_efficiency)


class ShearDecomposition(NamedTuple):
    """Rotation-sandwich form of the shear, shear = R(lam) T(2 lam) R(lam).

    T(2 lam) = [[sec 2lam, tan 2lam], [tan 2lam, sec 2lam]] is a squeeze along
    the +/- pi/4 axes with factors (sec - tan, sec + tan); their product is 1.

    Attributes:
        lam: Half-angle, (1/2) * arctan(kappa / 2).
        outer_rotation: R(lam); the same matrix appears on both sides.
        tilted_squeeze: T(2 lam).
        squeeze_factors: (sec 2lam - tan 2lam, sec 2lam + tan 2lam); for
            kappa > 0 the first factor < 1 contracts the -pi/4 axis.
    """

    lam: float
    outer_rotation: np.ndarray
    tilted_squeeze: np.ndarray
    squeeze_factors: tuple[float, float]

    def recompose(self) -> np.ndarray:
        rot = self.outer_rotation
        return np.einsum("ij,jk->ik", np.einsum("ij,jk->ik", rot, self.tilted_squeeze), rot)


def decompose_shear(kappa: float) -> ShearDecomposition:
    """Split the shear into a tilted squeeze between two equal rotations.

    This is the form the gate implements physically: the measurement plus
    feed-forward enact the tilted squeeze, the rotations are phase shifts.
    """
    lam = 0.5 * np.arctan(kappa / 2.0)
    c, s = np.cos(lam), np.sin(lam)
    rot = np.array([[c, -s], [s, c]])
    sec, tan = 1.0 / np.cos(2 * lam), np.tan(2 * lam)
    tilted = np.array([[sec, tan], [tan, sec]])
    return ShearDecomposition(float(lam), rot, tilted, (sec - tan, sec + tan))


def closed_form_output(state: GaussianState, params: GateParams) -> GaussianState:
    """Output moments at the operating point of ``params``, from the scalar relations.

    With theta the local-oscillator phase, G = f g the signed feed-forward
    gain and eta the detection efficiency, a = G sqrt(eta) sin(theta) and
    b = G sqrt(eta) cos(theta):

        x_out = (x_in - x_s) / sqrt(2)
        p_out = ((1 + b) p_in + (b - 1) p_s + a (x_in + x_s)) / sqrt(2)
                + G sqrt(1 - eta) (sin(theta) x_v + cos(theta) p_v)

    where (x_s, p_s) is the ancilla and (x_v, p_v) the vacuum that detector
    loss lets in.  Means and second moments are propagated term by term,
    independently of the physical pipeline that :func:`gate_output_state`
    builds, so it is the reference the pipeline is checked against for every
    phase, signed gain and efficiency.  At theta = arctan(kappa),
    G = sqrt(1 + kappa^2) and eta = 1 (:meth:`GateParams.exact`) it is the
    ideal gate of the module docstring.  The batch axes of ``state`` and
    ``params`` broadcast together.
    """
    theta, fg = params.lo_phase, params.feedforward_gain
    eta = params.hd1_efficiency
    a = fg * np.sqrt(eta) * np.sin(theta)
    b = fg * np.sqrt(eta) * np.cos(theta)
    vs, vps = params.ancilla_vx, 0.25 / params.ancilla_vx
    loss = 0.5 * fg**2 * (1.0 - eta)  # Var of G sqrt(1 - eta) (sin x_v + cos p_v)
    mx, mp = state.mean[..., 0], state.mean[..., 1]
    vx, vp, cxp = state.cov[..., 0, 0], state.cov[..., 1, 1], state.cov[..., 0, 1]
    mean = np.stack(
        np.broadcast_arrays(mx / np.sqrt(2.0), ((1.0 + b) * mp + a * mx) / np.sqrt(2.0)),
        axis=-1,
    )
    out_vx, out_vp, out_c = np.broadcast_arrays(
        0.5 * (vx + vs),
        0.5 * ((1.0 + b) ** 2 * vp + (b - 1.0) ** 2 * vps + a**2 * (vx + vs)
               + 2.0 * a * (1.0 + b) * cxp) + loss,
        0.5 * (a * (vx - vs) + (1.0 + b) * cxp),
    )
    cov = np.stack(
        [np.stack([out_vx, out_c], axis=-1), np.stack([out_c, out_vp], axis=-1)], axis=-2
    )
    return GaussianState(mean, cov)


def _beamsplitter(sign: int) -> np.ndarray:
    """Balanced beamsplitter on (input, ancilla) as a 4x4 symplectic matrix.

    Per quadrature, identically for x and p, the measured port is
    (in + s) / sqrt(2) and the kept port sign * (in - s) / sqrt(2).
    """
    r, eye = np.sqrt(0.5), np.eye(2)
    return np.block([[r * eye, r * eye], [sign * r * eye, -sign * r * eye]])


def _premeasurement_moments(
    state: GaussianState, params: GateParams, conventions: SignConventions
) -> tuple[np.ndarray, np.ndarray]:
    """Means and covariances of input plus ancilla after the beamsplitter and detector loss.

    Mode 0 is the measured port (sum port for beamsplitter_sign +1), mode 1 the
    kept output port.  The two-mode moments are not checked for physicality:
    a symplectic map or a loss channel keeps a state physical, and with a
    strongly squeezed ancilla rounding alone fails a valid two-mode check.
    The output state's check covers the whole chain.  The beamsplitter acts
    through ``np.einsum``, not ``@``: numpy sends ``@`` to BLAS, whose first
    call pages about 400 kB of native code and buffers into the process to
    multiply 4x4 matrices, while einsum's default ``optimize=False`` runs
    numpy's own loops.
    """
    ancilla = make_squeezed_vacuum(params.ancilla_vx)
    batch = state.batch_shape
    mean = np.concatenate([state.mean, np.broadcast_to(ancilla.mean, batch + (2,))], axis=-1)
    cov = np.zeros(batch + (4, 4))
    cov[..., :2, :2] = state.cov
    cov[..., 2:, 2:] = ancilla.cov
    s = _beamsplitter(conventions.beamsplitter_sign)
    mean = np.einsum("...j,ij->...i", mean, s)
    cov = np.einsum("...ij,kj->...ik", np.einsum("ij,...jk->...ik", s, cov), s)
    cov = 0.5 * (cov + cov.swapaxes(-1, -2))
    eta = params.hd1_efficiency
    if eta < 1.0:
        # pure loss on the measured port: its moments scale by sqrt(eta) and
        # its block relaxes toward vacuum
        root = np.sqrt(eta)
        scale = np.array([root, root, 1.0, 1.0])
        mean = mean * scale
        cov = cov * np.outer(scale, scale)
        cov[..., :2, :2] += (1.0 - eta) * SHOT_NOISE_VARIANCE * np.eye(2)
    return mean, cov


def _feedforward_map(params: GateParams, conventions: SignConventions) -> np.ndarray:
    """Linear map from (measured port, kept port) moments to the output mode.

    The homodyne reads q = sin(l*theta) x_m + cos(l*theta) p_m and the output is
    x_out = x_kept, p_out = p_kept + c * G * q, with G the signed gain of
    ``params`` and c the convention's feed-forward sign.  As a 2x4 matrix this
    is exact for both the ensemble mean and covariance of the record-discarded
    output.
    This record average is the one model of the measurement: no route samples
    a single reading.  Array-valued parameters give a stack of shape (..., 2, 4).
    """
    theta, fg = np.broadcast_arrays(
        conventions.lo_sign * params.lo_phase,
        conventions.feedforward_sign * params.feedforward_gain,
    )
    c = np.zeros(theta.shape + (2, 4))
    c[..., 0, 2] = 1.0
    c[..., 1, 0] = fg * np.sin(theta)
    c[..., 1, 1] = fg * np.cos(theta)
    c[..., 1, 3] = 1.0
    return c


def _output_state(
    state: GaussianState, params: GateParams, conventions: SignConventions
) -> GaussianState:
    """The record-averaged output state of the pipeline under ``conventions``.

    The feed-forward map is applied with ``np.einsum`` for the reason
    :func:`_premeasurement_moments` gives: no product here reaches BLAS.
    """
    mean, cov = _premeasurement_moments(state, params, conventions)
    c = _feedforward_map(params, conventions)
    mean = np.einsum("...ij,...j->...i", c, mean)
    cov = np.einsum("...ij,...kj->...ik", np.einsum("...ij,...jk->...ik", c, cov), c)
    return GaussianState(mean, 0.5 * (cov + cov.swapaxes(-1, -2)))


def gate_output_state(state: GaussianState, params: GateParams) -> GaussianState:
    """Output state of the gate for a Gaussian input, via the physical pipeline.

    Builds ancilla, beamsplitter, homodyne and feed-forward explicitly, then
    averages over the measurement record: the returned mean is deterministic
    and the covariance includes the classical feed-forward contribution, so the
    result describes the ensemble of repeated shots.  At every operating point
    it coincides with :func:`closed_form_output` to float precision.
    """
    return _output_state(state, params, CONVENTIONS)


def calibrate_signs() -> SignConventions:
    """Sweep the 2^3 sign conventions and return the one matching closed form.

    A coherent input with nonzero means on both quadratures over a kappa grid
    separates all eight combinations: a wrong feed-forward or LO sign shows up
    in the output covariance for kappa != 0, a wrong beamsplitter orientation
    flips the output means.  Exactly one combination must survive, and it must
    be CONVENTIONS, the one :func:`gate_output_state` runs on.

    Raises:
        GateCalibrationError: Unless exactly one combination matches and it is CONVENTIONS.
    """
    probe = make_coherent(1.3, -0.7)
    params = GateParams.exact(np.array([-2.0, -1.0, 0.5, 2.0]), ancilla_vx=0.24494)
    want = closed_form_output(probe, params)
    matches = []
    for b in (1, -1):
        for lo in (1, -1):
            for f in (1, -1):
                cand = SignConventions(b, lo, f)
                got = _output_state(probe, params, cand)
                worst = max(
                    float(np.max(np.abs(got.cov - want.cov))),
                    float(np.max(np.abs(got.mean - want.mean))),
                )
                if worst < CALIBRATION_TOL:
                    matches.append(cand)
    if len(matches) != 1:
        raise GateCalibrationError(
            f"expected exactly one sign convention to match, found {len(matches)}"
        )
    if matches[0] != CONVENTIONS:
        raise GateCalibrationError(
            f"calibrated sign conventions {tuple(matches[0])} differ from the "
            f"model's {tuple(CONVENTIONS)}"
        )
    return matches[0]
