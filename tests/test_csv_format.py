"""Byte-level pins of the CSV formats written by the harness and the analysis.

Each test writes one small file through the public writer and compares it
with literal text, so any change to the column order, the number format
(``{:.12g}`` for floats, plain integers for indices and flags) or the line
endings shows up here rather than in a downstream reader.
"""

import numpy as np

from dynsqueeze import MomentEstimates, Residuals, VarianceSummary
from dynsqueeze.analysis import write_residuals_csv, write_summary_csv
from dynsqueeze.harness import write_moments_csv

_P = np.pi / 2.0
_PI4 = np.pi / 4.0
_TIME = np.array([0.0, 0.01, 0.02])
_KAPPA = np.array([0.0, 1.2345678901234567, -2.0])


def test_moments_csv_bytes(tmp_path):
    est = MomentEstimates(
        _TIME, _KAPPA, 400,
        mean={_P: np.array([3.0, -1e-17, 2.5e6])},
        variance={_P: np.array([0.5, 0.123456789012345678, 12.0])},
        se_mean={_P: np.array([0.035355339059327376, 1e-3, 0.17320508075688773])},
        se_var={_P: np.array([0.03540118128048098, 0.0087, 0.8496])},
    )
    path = tmp_path / "moments_p.csv"
    write_moments_csv(path, est, _P)
    assert path.read_text() == (
        "angle_rad,bin_index,time_us,kappa,mean,variance,se_mean,se_var\n"
        "1.57079632679,0,0,0,3,0.5,0.0353553390593,0.0354011812805\n"
        "1.57079632679,1,0.01,1.23456789012,-1e-17,0.123456789012,0.001,0.0087\n"
        "1.57079632679,2,0.02,-2,2500000,12,0.173205080757,0.8496\n"
    )


def test_summary_csv_bytes_with_an_invalid_bin(tmp_path):
    rows = [
        VarianceSummary(0, 0.0, 0.0, 0.5, 0.5, 0.5, 0.0, 0.5, 0.5, 0.0, True),
        VarianceSummary(1, 0.01, 2.0, 0.3, 0.2, 1.9, 1.65, np.nan, np.nan, np.nan, False),
        VarianceSummary(2, 0.02, -2.0, 0.45, 2.1, 0.62, -0.655, 2.3345, 0.2155, -0.3838, True),
    ]
    path = tmp_path / "summary.csv"
    write_summary_csv(path, rows)
    assert path.read_text() == (
        "bin_index,time_us,kappa,sigma_x2,sigma_p2,sigma_pi4_2,sigma_xp,"
        "sigma_plus2_db,sigma_minus2_db,phi_rad,valid\n"
        "0,0,0,0.5,0.5,0.5,0,0,0,0,1\n"
        "1,0.01,2,0.3,0.2,1.9,1.65,nan,nan,nan,0\n"
        "2,0.02,-2,0.45,2.1,0.62,-0.655,6.69223873931,-3.65522729839,-0.3838,1\n"
    )


def test_residuals_csv_bytes(tmp_path):
    res = Residuals(
        _TIME, _KAPPA,
        d_mean={
            0.0: np.array([0.1, -0.2, 0.0]),
            _P: np.array([1e-9, 2.0, -3.5]),
            _PI4: np.array([0.0, 0.0, 1.0 / 3.0]),
        },
        d_variance={
            0.0: np.array([-0.01, 0.02, 0.0]),
            _P: np.array([0.5, -1e-12, 7.0]),
            _PI4: np.array([1.0 / 7.0, 0.0, -0.25]),
        },
    )
    path = tmp_path / "residuals.csv"
    write_residuals_csv(path, res)
    assert path.read_text() == (
        "bin_index,time_us,kappa,d_mean_x,d_mean_p,d_mean_pi4,d_var_x,d_var_p,d_var_pi4\n"
        "0,0,0,0.1,1e-09,0,-0.01,0.5,0.142857142857\n"
        "1,0.01,1.23456789012,-0.2,2,0,0.02,-1e-12,0\n"
        "2,0.02,-2,0,-3.5,0.333333333333,0,7,-0.25\n"
    )
