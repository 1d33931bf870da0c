"""The package's record types: validated classes stay immutable, plain ones are named tuples."""

import copy
import dataclasses
import pickle

import numpy as np
import pytest

import dynsqueeze
from dynsqueeze import (
    GateParams,
    GaussianState,
    HomodyneRecordSet,
    MomentEstimates,
    PiecewiseLinearFunction,
    ShearDecomposition,
    TheoryTraces,
)

# name -> (a valid instance, a bad constructor call, the error it raises)
VALIDATED = {
    "GaussianState": (
        lambda: GaussianState([1.0, 0.0], 0.5 * np.eye(2)),
        lambda: GaussianState([0.0, 0.0], 0.1 * np.eye(2)),
        "unphysical covariance",
    ),
    "GateParams": (
        lambda: GateParams(np.array([0.0, 0.785]), 0.5),
        lambda: GateParams(0.785, 1.414, hd1_efficiency=0.0),
        r"hd1_efficiency must lie in \(0, 1\]",
    ),
    "PiecewiseLinearFunction": (
        lambda: PiecewiseLinearFunction([0.0, 1.0], [2.0, 3.0]),
        lambda: PiecewiseLinearFunction([1.0, 0.0], [2.0, 3.0]),
        "strictly ascending",
    ),
    "HomodyneRecordSet": (
        lambda: HomodyneRecordSet(np.zeros(2), np.zeros(2), {0.0: np.zeros((3, 2))}, 1, "d"),
        lambda: HomodyneRecordSet(np.zeros(2), np.zeros(3), {0.0: np.zeros((3, 2))}, 1, "d"),
        "kappa and time grids differ in length",
    ),
}


@pytest.mark.parametrize("name", sorted(VALIDATED))
def test_validated_records_are_immutable(name):
    record = VALIDATED[name][0]()
    for field in type(record).__slots__:
        with pytest.raises(AttributeError):
            setattr(record, field, None)
        with pytest.raises(AttributeError):
            delattr(record, field)
    with pytest.raises(AttributeError):
        record.extra = 1


@pytest.mark.parametrize("name", sorted(VALIDATED))
def test_validated_records_still_reject_bad_input(name):
    _make, bad, message = VALIDATED[name]
    with pytest.raises(ValueError, match=message):
        bad()


@pytest.mark.parametrize("name", sorted(VALIDATED))
def test_validated_records_copy_and_pickle_by_value(name):
    record = VALIDATED[name][0]()
    for clone in (copy.copy(record), copy.deepcopy(record), pickle.loads(pickle.dumps(record))):
        assert type(clone) is type(record)
        assert repr(clone) == repr(record)


@pytest.mark.parametrize("name", sorted(VALIDATED))
def test_validated_records_compare_by_identity(name):
    # most records hold arrays, which have no single truth value, so value
    # equality could not be defined for them
    a, b = VALIDATED[name][0](), VALIDATED[name][0]()
    assert a == a and a != b
    assert hash(a) == hash(a)


def test_validated_records_repr_names_every_slot():
    a = GateParams(0.5, -1.5)
    assert repr(a) == (
        f"GateParams(lo_phase=0.5, feedforward_gain=-1.5, ancilla_vx={a.ancilla_vx!r}, "
        "hd1_efficiency=1.0)"
    )


def test_plain_records_are_named_tuples_in_field_order():
    # perfbench and the CLI build MomentEstimates and TheoryTraces positionally
    assert MomentEstimates._fields == (
        "time_us", "kappa", "n_trials", "mean", "variance", "se_mean", "se_var"
    )
    assert TheoryTraces._fields == (
        "time_us", "kappa", "mean", "variance", "p_variance_simplified"
    )
    assert ShearDecomposition._fields == (
        "lam", "outer_rotation", "tilted_squeeze", "squeeze_factors"
    )


def test_no_public_dataclass_but_run_config():
    # Each frozen dataclass compiles and runs its generated methods when its
    # module is imported, about 1 ms a class; replacing ten of them cut the
    # package import of every CLI process by 8-9 ms (40 interleaved pairs,
    # 2-core VM, with and without a bytecode cache).  RunConfig keeps its
    # dataclass: fields / asdict / replace define the config schema.
    found = [
        name for name in dynsqueeze.__all__
        if dataclasses.is_dataclass(getattr(dynsqueeze, name))
    ]
    assert found == ["RunConfig"]
