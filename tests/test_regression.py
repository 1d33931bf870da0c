"""Regression pin: simulator outputs frozen in a small float64 fixture.

``tests/data/pinned_outputs.npz`` holds the per-angle sample moments of three
16-bin x 500-trial runs (exact electronics, look-up-table electronics, and a
lossy detector with a reversed, reduced feed-forward gain) and the theory
traces on the default grid.  The CSV outputs keep only 12 significant digits,
so they cannot serve as the pin.  Regenerate the fixture only for an intended
change of outputs:

    PYTHONPATH=src python tests/test_regression.py

The tests below the pin hold the batched Gaussian core to the scalar calls it
replaced, member by member, and check that its batch-wide validation still
rejects a single bad member.
"""

from pathlib import Path

import numpy as np
import pytest

from dynsqueeze import (
    MEASUREMENT_ANGLES,
    GateParams,
    GaussianState,
    RunConfig,
    closed_form_output,
    db_to_variance,
    estimate_moments,
    gate_output_state,
    make_coherent,
    quadrature_mean,
    quadrature_variance,
    run_experiment,
    theory_traces,
)
from dynsqueeze.tables import label_for_angle

FIXTURE = Path(__file__).parent / "data" / "pinned_outputs.npz"

PIN_RTOL = 1e-12

_GRID = dict(bins_per_period=8, n_periods=2, n_trials=500, seed=2024)

PIN_CONFIGS = {
    "exact": RunConfig(**_GRID),
    "pwl": RunConfig(use_pwl_electronics=True, **_GRID),
    "lossy": RunConfig(
        hd1_efficiency=0.72, feedforward_gain_override=0.5, feedforward_sign=-1, **_GRID
    ),
}


def pinned_outputs() -> dict[str, np.ndarray]:
    """Every pinned array, keyed ``<run>_<mean|var>_<angle label>``."""
    out = {}
    for name, cfg in PIN_CONFIGS.items():
        est = estimate_moments(run_experiment(cfg))
        for angle in MEASUREMENT_ANGLES:
            lab = label_for_angle(angle)
            out[f"{name}_mean_{lab}"] = est.mean[angle]
            out[f"{name}_var_{lab}"] = est.variance[angle]
    cfg = RunConfig()
    th = theory_traces(cfg)
    for angle in MEASUREMENT_ANGLES:
        lab = label_for_angle(angle)
        out[f"theory_mean_{lab}"] = th.mean[angle]
        out[f"theory_var_{lab}"] = th.variance[angle]
    # the ideal-gate shortcut, kept as the oracle of the theory p variance
    out["theory_p_simplified"] = 1.0 + 0.5 * th.kappa**2 * (0.5 + db_to_variance(cfg.ancilla_db))
    return out


KEYS = [
    f"{run}_{kind}_{label_for_angle(angle)}"
    for run in (*PIN_CONFIGS, "theory")
    for kind in ("mean", "var")
    for angle in MEASUREMENT_ANGLES
] + ["theory_p_simplified"]


@pytest.fixture(scope="module")
def current():
    return pinned_outputs()


@pytest.fixture(scope="module")
def pinned():
    with np.load(FIXTURE) as data:
        return {key: data[key] for key in data.files}


@pytest.mark.parametrize("key", KEYS)
def test_outputs_match_pin(current, pinned, key):
    got, want = current[key], pinned[key]
    assert got.dtype == want.dtype == np.float64
    np.testing.assert_allclose(got, want, rtol=PIN_RTOL, atol=0.0)


def test_pin_covers_every_output(current, pinned):
    assert sorted(current) == sorted(pinned) == sorted(KEYS)


# Operating points off the defaults: free phase and gain, reversed sign and
# detector loss.
_X = np.array([1.3, 0.0, -2.2, 0.4, 3.0])
_P = np.array([-0.7, 0.5, 0.0, 1.1, -0.2])
_THETA = np.array([-1.0, -0.25, 0.1, 0.7, 1.0])
_GAIN = np.array([2.1, 1.0, 0.0, 1.3, 1.9])


def _params(index):
    return GateParams(_THETA[index], -_GAIN[index], ancilla_vx=0.3, hd1_efficiency=0.8)


@pytest.mark.parametrize("route", [gate_output_state, closed_form_output])
@pytest.mark.parametrize("size", [1, len(_THETA)])
def test_batch_equals_scalar_calls(route, size):
    batch = route(make_coherent(_X[:size], _P[:size]), _params(slice(size)))
    assert batch.batch_shape == (size,)
    for i, member in enumerate(batch):
        single = route(make_coherent(_X[i], _P[i]), _params(i))
        assert single.batch_shape == ()
        np.testing.assert_allclose(member.mean, single.mean, rtol=0.0, atol=1e-14)
        np.testing.assert_allclose(member.cov, single.cov, rtol=0.0, atol=1e-14)
        for angle in MEASUREMENT_ANGLES:
            assert isinstance(quadrature_mean(single, angle), float)
            assert quadrature_mean(batch, angle)[i] == pytest.approx(
                quadrature_mean(single, angle), rel=0.0, abs=1e-14
            )
            assert quadrature_variance(batch, angle)[i] == pytest.approx(
                quadrature_variance(single, angle), rel=0.0, abs=1e-14
            )


@pytest.mark.parametrize(
    "defect, message",
    [
        (0.4 * np.eye(2), "unphysical"),
        (np.array([[0.5, 0.1], [0.0, 0.5]]), "symmetric"),
        (np.array([[0.5, 0.0], [0.0, np.inf]]), "finite"),
    ],
)
def test_batch_with_one_bad_member_is_rejected(defect, message):
    cov = np.tile(0.6 * np.eye(2), (6, 1, 1))
    GaussianState(np.zeros((6, 2)), cov)
    cov[4] = defect
    with pytest.raises(ValueError, match=message):
        GaussianState(np.zeros((6, 2)), cov)


if __name__ == "__main__":
    FIXTURE.parent.mkdir(exist_ok=True)
    np.savez(FIXTURE, **pinned_outputs())
    print(f"wrote {FIXTURE}")
