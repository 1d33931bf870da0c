"""A run's per-angle moments and theory files, written and read back as one set.

The set readers take the three files in any order and refuse, with the text
the command line prints, a repeated, missing or foreign angle, files on
different grids and moments whose variances disagree on n_trials.
"""

import re
from dataclasses import replace
from itertools import permutations

import numpy as np
import pytest

from dynsqueeze import MEASUREMENT_ANGLES, RunConfig, simulate_moments, theory_traces
from dynsqueeze.tables import (
    read_moments,
    read_theory,
    write_moments_files,
    write_theory_files,
)

SMALL = RunConfig(n_trials=300, bins_per_period=20, seed=11)


def _printed(a):
    """``a`` as a CSV holds it: each value rounded to 12 significant digits."""
    return np.array([float("%.12g" % v) for v in np.broadcast_to(a, np.shape(a))])


def test_writers_name_one_file_per_angle(tmp_path):
    moments = write_moments_files(tmp_path, simulate_moments(SMALL))
    theory = write_theory_files(tmp_path, theory_traces(SMALL))
    assert [p.name for p in moments] == ["moments_x.csv", "moments_p.csv", "moments_pi4.csv"]
    assert [p.name for p in theory] == ["theory_x.csv", "theory_p.csv", "theory_pi4.csv"]
    assert sorted(tmp_path.iterdir()) == sorted(moments + theory)


@pytest.mark.parametrize("order", list(permutations(range(3))))
def test_read_moments_round_trips_in_any_order(tmp_path, order):
    est = simulate_moments(SMALL)
    paths = write_moments_files(tmp_path, est)
    back = read_moments([paths[i] for i in order])
    assert back.n_trials == est.n_trials
    for name in ("time_us", "kappa"):
        np.testing.assert_array_equal(getattr(back, name), _printed(getattr(est, name)))
    for name in ("mean", "variance", "se_mean", "se_var"):
        assert list(getattr(back, name)) == list(MEASUREMENT_ANGLES)
        for angle in MEASUREMENT_ANGLES:
            np.testing.assert_array_equal(
                getattr(back, name)[angle], _printed(getattr(est, name)[angle]), name
            )


@pytest.mark.parametrize("order", list(permutations(range(3))))
def test_read_theory_round_trips_in_any_order(tmp_path, order):
    th = theory_traces(SMALL)
    paths = write_theory_files(tmp_path, th)
    back = read_theory([paths[i] for i in order])
    for name in ("time_us", "kappa"):
        np.testing.assert_array_equal(getattr(back, name), _printed(getattr(th, name)))
    for name in ("mean", "variance"):
        assert list(getattr(back, name)) == list(MEASUREMENT_ANGLES)
        for angle in MEASUREMENT_ANGLES:
            np.testing.assert_array_equal(
                getattr(back, name)[angle], _printed(getattr(th, name)[angle]), name
            )
    assert back.p_variance_simplified is None


@pytest.fixture
def moments(tmp_path):
    return write_moments_files(tmp_path, simulate_moments(SMALL))


@pytest.mark.parametrize("read", [read_moments, read_theory])
def test_a_repeated_angle_is_refused_naming_the_file(moments, read):
    x, p, _ = moments
    with pytest.raises(ValueError, match=re.escape(f"{x}: duplicate angle 0.0")):
        read([p, x, x])


@pytest.mark.parametrize("read", [read_moments, read_theory])
def test_a_missing_angle_is_refused(moments, read):
    with pytest.raises(ValueError, match="^need one moments file per angle: x, p, pi/4$"):
        read(moments[:2])


def test_an_angle_off_the_run_angles_is_refused_naming_the_file(tmp_path, moments):
    odd = tmp_path / "odd.csv"
    odd.write_text(moments[0].read_text().replace("\n0,", "\n0.3,"))
    message = f"{odd}: angle 0.3 is not one of the run angles"
    with pytest.raises(ValueError, match=re.escape(message)):
        read_moments([*moments[:2], odd])


@pytest.mark.parametrize("read", [read_moments, read_theory])
def test_files_on_different_grids_are_refused(tmp_path, moments, read):
    (tmp_path / "other").mkdir()
    coarse = simulate_moments(replace(SMALL, bins_per_period=10))
    other = write_moments_files(tmp_path / "other", coarse)
    with pytest.raises(ValueError, match="^moments files are on different grids$"):
        read([*moments[:2], other[2]])


def test_moments_of_two_runs_are_refused(tmp_path, moments):
    (tmp_path / "other").mkdir()
    other = write_moments_files(tmp_path / "other", simulate_moments(replace(SMALL, n_trials=301)))
    with pytest.raises(ValueError, match="^variance / se_var implies n_trials from .* the moments "
                                         "files must come from one run$"):
        read_moments([*moments[:2], other[2]])
