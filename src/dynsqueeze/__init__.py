"""Gaussian-optics simulator of a measurement-based dynamic squeezing gate.

The gate shears phase space (x -> x, p -> p + kappa x) using only a squeezed
ancilla, a balanced beamsplitter, a phase-tracked homodyne measurement and an
electronic feed-forward displacement; kappa can follow a control waveform in
time.  The package models the Gaussian quantum optics, the analog feed-forward
electronics, a repeated-shot measurement harness and the variance analysis.

Each public name is imported from its module on first use (PEP 562), so a
process loads only the modules it touches: reading results does not load the
simulator.
"""

import importlib

__version__ = "0.1.0"

# public name -> the module that defines it
_MODULE_OF = {
    name: module
    for module, names in (
        ("analysis", ("diagonalize", "reconstruct_variance_matrix", "summarize")),
        ("config", ("ConfigError", "RunConfig", "config_digest", "load_config", "save_config")),
        ("electronics", (
            "PiecewiseLinearFunction", "fit_pwl", "load_pwl_table", "max_error", "save_pwl_table",
        )),
        ("gate", (
            "GateCalibrationError", "GateParams", "ShearDecomposition", "SignConventions",
            "calibrate_signs", "closed_form_output", "decompose_shear", "gate_output_state",
        )),
        ("harness", (
            "HomodyneRecordSet", "estimate_moments", "generate_traces", "run_experiment",
            "run_output_states", "simulate_moments", "simulate_records", "theory_traces",
        )),
        ("states", (
            "GaussianState", "db_to_variance", "make_coherent", "make_squeezed_vacuum",
            "quadrature_mean", "quadrature_variance", "symplectic_eigenvalues", "variance_to_db",
        )),
        ("tables", ("MEASUREMENT_ANGLES", "MomentEstimates", "TheoryTraces")),
    )
    for name in names
}

__all__ = list(_MODULE_OF)


def __getattr__(name):
    try:
        module = _MODULE_OF[name]
    except KeyError:
        raise AttributeError(f"module {__name__!r} has no attribute {name!r}") from None
    value = getattr(importlib.import_module(f".{module}", __name__), name)
    globals()[name] = value  # later lookups skip this hook
    return value


def __dir__():
    return sorted({*globals(), *_MODULE_OF})
