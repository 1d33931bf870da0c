"""Independent reference computations that only the tests use."""

import numpy as np


def scan_extrema(matrix, n_angles: int = 10000) -> tuple[float, float, float, float]:
    """Brute-force scan of the quadrature variance over angles in [0, pi).

    Returns (min_value, argmin_angle, max_value, argmax_angle); used as an
    independent check of ``analysis.diagonalize``.
    """
    v = np.asarray(matrix, dtype=float)
    angles = np.linspace(0.0, np.pi, n_angles, endpoint=False)
    cs, sn = np.cos(angles), np.sin(angles)
    values = v[0, 0] * cs**2 + v[1, 1] * sn**2 + 2.0 * v[0, 1] * cs * sn
    lo, hi = int(np.argmin(values)), int(np.argmax(values))
    return float(values[lo]), float(angles[lo]), float(values[hi]), float(angles[hi])
