"""Gaussian states of a traveling optical mode.

Conventions used throughout the package:

* hbar = 1, so each vacuum quadrature has variance 1/2.
* Quadratures are ordered (x, p).
* Noise powers in dB are quoted relative to shot noise,
  dB = 10 * log10(v / 0.5), so vacuum sits at 0 dB and squeezing is negative.
"""

from __future__ import annotations

import numbers

import numpy as np

SHOT_NOISE_VARIANCE = 0.5

# Covariances whose symplectic spectrum dips below 1/2 - PHYSICALITY_TOL are rejected.
PHYSICALITY_TOL = 1e-9
SYMMETRY_TOL = 1e-10

# Squeezed variances below this are treated as numerically degenerate.
MIN_SQUEEZED_VARIANCE = 1e-12


def _is_real(v) -> bool:
    """Whether ``v`` is a real number: a bool is not one here, although it is an int."""
    return isinstance(v, numbers.Real) and not isinstance(v, bool)


def _scalar_or_array(values) -> float | np.ndarray:
    """A float for a 0-d result, the float array itself otherwise."""
    values = np.asarray(values, dtype=float)
    return float(values) if values.ndim == 0 else values


def variance_to_db(variance: float) -> float:
    """Quadrature variance to dB relative to the shot-noise value 1/2."""
    variance = np.asarray(variance, dtype=float)
    if np.any(variance <= 0.0):
        raise ValueError("variance must be positive to express in dB")
    return _scalar_or_array(10.0 * np.log10(variance / SHOT_NOISE_VARIANCE))


def db_to_variance(db: float) -> float:
    """Inverse of :func:`variance_to_db`."""
    db = np.asarray(db, dtype=float)
    return _scalar_or_array(SHOT_NOISE_VARIANCE * 10.0 ** (db / 10.0))


def symplectic_eigenvalues(cov) -> np.ndarray:
    """Symplectic eigenvalue nu = sqrt(det cov) of a one-mode covariance, or of each in a stack.

    NaN wherever the covariance is not positive definite (sigma_x^2 <= 0 or
    det < 0), so that a check nu >= 1/2 fails there.  A stack of shape
    (..., 2, 2) gives shape (...), one matrix a 0-d value.
    """
    cov = np.asarray(cov.cov if isinstance(cov, GaussianState) else cov, dtype=float)
    a, b, c = cov[..., 0, 0], cov[..., 1, 1], cov[..., 0, 1]
    with np.errstate(all="ignore"):
        det = a * b - c * c
        det = np.where(np.isfinite(det), det, a * (b - c * (c / a)))  # a * b or c * c overflowed
        return np.sqrt(np.where(a > 0.0, det, np.nan))  # and sqrt(det < 0) is NaN


class Immutable:
    """Base of the package's validated records: read-only once ``__init__`` ends.

    Subclasses list their attributes in ``__slots__``, in constructor order,
    and set them all at the end of ``__init__`` through :meth:`_set`.
    Assigning or deleting an attribute afterwards raises ``AttributeError``.
    ``repr`` and pickling go by the slot values; equality and hashing go by
    identity, as most records hold arrays.  A frozen dataclass compiles and
    runs its generated methods when its module is imported, about 1 ms per
    class, and every CLI process pays that.
    """

    __slots__ = ()

    def _set(self, *values) -> None:
        for name, value in zip(self.__slots__, values, strict=True):
            object.__setattr__(self, name, value)

    def __setattr__(self, name, value):
        raise AttributeError(f"cannot assign to field {name!r} of {type(self).__name__}")

    def __delattr__(self, name):
        raise AttributeError(f"cannot delete field {name!r} of {type(self).__name__}")

    def _values(self) -> tuple:
        return tuple(getattr(self, name) for name in self.__slots__)

    def __repr__(self) -> str:
        args = ", ".join(f"{n}={v!r}" for n, v in zip(self.__slots__, self._values()))
        return f"{type(self).__name__}({args})"

    def __reduce__(self):
        return type(self), self._values()


class GaussianState(Immutable):
    """One-mode Gaussian state, or a batch of them, given by quadrature means and covariances.

    Leading axes of ``mean`` and ``cov`` are a batch axis: one state per time
    bin, say.  A state without leading axes is a batch of one.  Both arrays
    are copied and made read-only at construction.  Construction validates
    the whole batch at once: shapes, finiteness, symmetry of every covariance
    (to 1e-10), then positive definiteness and nu = sqrt(det cov) >= 1/2 - 1e-9
    in one test, as :func:`symplectic_eigenvalues` gives NaN for a covariance
    that is not positive definite.
    Indexing or iterating over a batched state yields its members.

    Attributes:
        mean: Quadrature means (x, p), shape (..., 2).
        cov: Quadrature covariance matrices, shape (..., 2, 2).
    """

    __slots__ = ("mean", "cov")

    def __init__(self, mean, cov) -> None:
        mean = np.array(mean, dtype=float)
        cov = np.array(cov, dtype=float)
        if mean.ndim < 1 or mean.shape[-1] != 2:
            raise ValueError(f"mean must have shape (..., 2), got {mean.shape}")
        if cov.shape != mean.shape + (2,):
            raise ValueError(
                f"cov must have shape {mean.shape + (2,)} to match the mean, got {cov.shape}"
            )
        if not (np.all(np.isfinite(mean)) and np.all(np.isfinite(cov))):
            raise ValueError("moments must be finite")
        cov_t = cov.swapaxes(-1, -2)
        if np.max(np.abs(cov - cov_t)) > SYMMETRY_TOL:
            raise ValueError("covariance must be symmetric")
        # 0.5 * (cov + cov_t) to the bit for normal entries, and cannot overflow
        cov = 0.5 * cov + 0.5 * cov_t
        nu_min = float(symplectic_eigenvalues(cov).min())
        if not nu_min >= SHOT_NOISE_VARIANCE - PHYSICALITY_TOL:  # NaN fails too
            raise ValueError(
                f"unphysical covariance: min symplectic eigenvalue {nu_min:.9g} < 1/2"
            )
        mean.setflags(write=False)
        cov.setflags(write=False)
        self._set(mean, cov)

    @property
    def batch_shape(self) -> tuple[int, ...]:
        """Shape of the batch axes; () for a single state."""
        return self.mean.shape[:-1]

    def __getitem__(self, index) -> "GaussianState":
        if not self.batch_shape:
            raise TypeError("a single state cannot be indexed")
        return GaussianState(self.mean[index], self.cov[index])

    def __iter__(self):
        if not self.batch_shape:
            raise TypeError("a single state cannot be iterated over")
        for i in range(self.batch_shape[0]):
            yield self[i]


def make_coherent(x, p) -> GaussianState:
    """Coherent state: vacuum covariance displaced to mean (x, p).

    Array-valued ``x`` and ``p`` (broadcast together) give a batch of states.
    """
    mean = np.stack(np.broadcast_arrays(x, p), axis=-1)
    cov = np.broadcast_to(SHOT_NOISE_VARIANCE * np.eye(2), mean.shape + (2,))
    return GaussianState(mean, cov)


def make_squeezed_vacuum(vx: float) -> GaussianState:
    """Single-mode minimum-uncertainty squeezed vacuum with x variance ``vx``.

    The conjugate variance is fixed by purity, vp = 1 / (4 * vx).  Values of
    ``vx`` below 1e-12 are rejected as degenerate.
    """
    vx = float(vx)
    if not np.isfinite(vx) or vx < MIN_SQUEEZED_VARIANCE:
        raise ValueError(f"squeezed variance must be finite and >= 1e-12, got {vx}")
    return GaussianState(np.zeros(2), np.diag([vx, 1.0 / (4.0 * vx)]))


def quadrature_mean(state: GaussianState, angle: float):
    """Mean of the rotated quadrature x*cos(angle) + p*sin(angle).

    A float for a single state, an array over the batch axes otherwise.  The
    projection is an ``np.einsum``, not ``@``, which numpy would send to BLAS
    and so page its native code in for a product of length 2.
    """
    u = np.array([np.cos(angle), np.sin(angle)])
    return _scalar_or_array(np.einsum("...i,i->...", state.mean, u))


def quadrature_variance(state: GaussianState, angle: float):
    """Variance of the rotated quadrature x*cos(angle) + p*sin(angle).

    angle = 0 gives the x variance, pi/2 the p variance, and pi/4 the variance
    of (x + p) / sqrt(2).  A float for a single state, an array over the batch
    axes otherwise.  Like :func:`quadrature_mean` it contracts with
    ``np.einsum`` rather than ``@``, so that no BLAS code is paged in.
    """
    u = np.array([np.cos(angle), np.sin(angle)])
    return _scalar_or_array(np.einsum("...j,j->...", np.einsum("i,...ij->...j", u, state.cov), u))
