"""Byte-level pins of the CSV formats written by the harness and the analysis.

Each test writes one small file through the public writer and compares it
with literal text, so any change to the column order, the number format
(``%.12g`` for floats, the same bytes as ``{:.12g}``; plain integers for
indices and flags) or the line endings shows up here rather than in a
downstream reader.  A property test holds the table writer to a per-cell
reference and the reader to ``float`` on what was written.
"""

import tempfile
from pathlib import Path

import numpy as np
from hypothesis import given
from hypothesis import strategies as st

from dynsqueeze import MomentEstimates, variance_to_db
from dynsqueeze.analysis import (
    RESIDUAL_COLUMNS,
    SUMMARY_COLUMNS,
    write_residuals_csv,
    write_summary_csv,
)
from dynsqueeze.tables import read_table, write_moments_csv, write_table

_P = np.pi / 2.0
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


def _summary_records():
    nan, db = np.nan, variance_to_db
    return np.rec.fromrecords([
        (0, 0.0, 0.0, 0.5, 0.5, 0.5, 0.0, db(0.5), db(0.5), 0.0, True),
        (1, 0.01, 2.0, 0.3, 0.2, 1.9, 1.65, nan, nan, nan, False),
        (2, 0.02, -2.0, 0.45, 2.1, 0.62, -0.655, db(2.3345), db(0.2155), -0.3838, True),
    ], names=SUMMARY_COLUMNS)


def test_summary_csv_bytes_with_an_invalid_bin(tmp_path):
    path = tmp_path / "summary.csv"
    write_summary_csv(path, _summary_records())
    assert path.read_text() == (
        "bin_index,time_us,kappa,sigma_x2,sigma_p2,sigma_pi4_2,sigma_xp,"
        "sigma_plus2_db,sigma_minus2_db,phi_rad,valid\n"
        "0,0,0,0.5,0.5,0.5,0,0,0,0,1\n"
        "1,0.01,2,0.3,0.2,1.9,1.65,nan,nan,nan,0\n"
        "2,0.02,-2,0.45,2.1,0.62,-0.655,6.69223873931,-3.65522729839,-0.3838,1\n"
    )


def test_summary_csv_of_no_rows_is_the_header(tmp_path):
    path = tmp_path / "summary.csv"
    write_summary_csv(path, _summary_records()[:0])
    assert path.read_text() == (
        "bin_index,time_us,kappa,sigma_x2,sigma_p2,sigma_pi4_2,sigma_xp,"
        "sigma_plus2_db,sigma_minus2_db,phi_rad,valid\n"
    )


def test_residuals_csv_bytes(tmp_path):
    res = np.rec.fromarrays([
        np.arange(3), _TIME, _KAPPA,
        [0.1, -0.2, 0.0], [1e-9, 2.0, -3.5], [0.0, 0.0, 1.0 / 3.0],
        [-0.01, 0.02, 0.0], [0.5, -1e-12, 7.0], [1.0 / 7.0, 0.0, -0.25],
    ], names=RESIDUAL_COLUMNS)
    path = tmp_path / "residuals.csv"
    write_residuals_csv(path, res)
    assert path.read_text() == (
        "bin_index,time_us,kappa,d_mean_x,d_mean_p,d_mean_pi4,d_var_x,d_var_p,d_var_pi4\n"
        "0,0,0,0.1,1e-09,0,-0.01,0.5,0.142857142857\n"
        "1,0.01,1.23456789012,-0.2,2,0,0.02,-1e-12,0\n"
        "2,0.02,-2,0,-3.5,0.333333333333,0,7,-0.25\n"
    )


_EDGE_FLOATS = (
    0.0, -0.0, 5e-324, -2.2250738585072014e-308, 1e-300, -1e300,
    1.7976931348623157e308, np.nan, np.inf, -np.inf, 0.1, 1.0 / 3.0,
)
_FLOATS = st.one_of(
    st.floats(width=64),
    st.floats(min_value=1e299, max_value=1e301),
    st.floats(min_value=1e-301, max_value=1e-299),
    st.sampled_from(_EDGE_FLOATS),
)
_CELLS = {
    "float": _FLOATS,
    "int": st.integers(-(2**63), 2**63 - 1),
    "bool": st.booleans(),
}
_DTYPES = {"float": float, "int": np.int64, "bool": bool}


@st.composite
def _tables(draw):
    kinds = draw(st.lists(st.sampled_from(sorted(_CELLS)), min_size=1, max_size=6))
    n_rows = draw(st.integers(1, 12))
    values = [draw(st.lists(_CELLS[k], min_size=n_rows, max_size=n_rows)) for k in kinds]
    return kinds, values


def _reference_cell(kind, v):
    return f"{v:.12g}" if kind == "float" else str(int(v))


@given(_tables())
def test_write_table_matches_per_cell_reference_and_reads_back(table):
    kinds, values = table
    columns = [f"c{i}" for i in range(len(kinds))]
    arrays = [np.array(v, dtype=_DTYPES[k]) for k, v in zip(kinds, values)]
    cells = [[_reference_cell(k, x) for x in v] for k, v in zip(kinds, values)]
    want = "".join(",".join(row) + "\n" for row in [columns, *zip(*cells)])
    with tempfile.TemporaryDirectory() as tmp:
        path = Path(tmp) / "t.csv"
        write_table(path, columns, arrays)
        assert path.read_text() == want
        back = read_table(path, columns)
    for col, column_cells in zip(columns, cells):
        got = back[col]
        exact = np.array([float(c) for c in column_cells])
        assert got.dtype == np.float64
        assert np.array_equal(np.isnan(got), np.isnan(exact))
        keep = ~np.isnan(exact)
        assert np.array_equal(got[keep], exact[keep])
        assert np.array_equal(np.signbit(got[keep]), np.signbit(exact[keep]))
