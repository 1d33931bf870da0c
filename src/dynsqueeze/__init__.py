"""Gaussian-optics simulator of a measurement-based dynamic squeezing gate.

The gate shears phase space (x -> x, p -> p + kappa x) using only a squeezed
ancilla, a balanced beamsplitter, a phase-tracked homodyne measurement and an
electronic feed-forward displacement; kappa can follow a control waveform in
time.  The package models the Gaussian quantum optics, the analog feed-forward
electronics, a repeated-shot measurement harness and the variance analysis.
"""

from .analysis import (
    diagonalize,
    reconstruct_variance_matrix,
    scan_extrema,
    summarize,
)
from .config import ConfigError, RunConfig, config_digest, load_config, save_config
from .electronics import (
    PiecewiseLinearFunction,
    fit_pwl,
    load_pwl_table,
    max_error,
    save_pwl_table,
)
from .gate import (
    GateCalibrationError,
    GateParams,
    ShearDecomposition,
    SignConventions,
    calibrate_signs,
    closed_form_output,
    decompose_shear,
    gate_output_state,
)
from .harness import (
    MEASUREMENT_ANGLES,
    HomodyneRecordSet,
    MomentEstimates,
    TheoryTraces,
    estimate_moments,
    generate_traces,
    run_experiment,
    run_output_states,
    simulate_moments,
    simulate_records,
    theory_traces,
)
from .states import (
    GaussianState,
    db_to_variance,
    make_coherent,
    make_squeezed_vacuum,
    quadrature_mean,
    quadrature_variance,
    symplectic_eigenvalues,
    variance_to_db,
)

__version__ = "0.1.0"
