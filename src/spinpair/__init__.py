"""Decoherence of two coupled spin-1/2 nuclei under correlated dephasing and
independent amplitude damping: channel generators, propagation, simulated
tomography, and noise-rate estimation from decay curves.
"""

from .channels import (
    NoiseParams,
    apply_kraus,
    choi_matrix,
    correlated_mixture,
    full_generator,
    gad_apply,
    gad_generator_single,
    jump_operators,
    lindblad_generator,
    phase_damping_apply,
    phase_damping_generator,
)
from .estimation import (
    ConvergenceError,
    DataError,
    DecayCurve,
    FitReport,
    RateEstimate,
    fit_exponential,
    fit_noise_model,
    gamma3_difference,
    load_curve,
    rate_for_kind,
    save_curve,
    signal_model,
    synthetic_curve,
)
from .evolution import default_time_grid, matrix_exp, propagate, superoperator
from .presets import PRESETS, MeasuredRates, Preset, get_preset
from .spinops import SpinSystem, angular_momentum, free_evolution, hamiltonian, pauli, pulse
from .states import (
    coherence_spectrum,
    coherence_state,
    prepare_target,
    prepare_via_sequence,
    pseudopure_00,
    sq_preparation,
    thermal_state,
    validate_density_matrix,
)
from .tomography import TomographyRecord, fidelity, reconstruct, simulate_readout

__version__ = "0.1.0"

__all__ = [
    "ConvergenceError",
    "DataError",
    "DecayCurve",
    "FitReport",
    "MeasuredRates",
    "NoiseParams",
    "PRESETS",
    "Preset",
    "RateEstimate",
    "SpinSystem",
    "TomographyRecord",
    "angular_momentum",
    "apply_kraus",
    "choi_matrix",
    "coherence_spectrum",
    "coherence_state",
    "correlated_mixture",
    "default_time_grid",
    "fidelity",
    "fit_exponential",
    "fit_noise_model",
    "free_evolution",
    "full_generator",
    "gad_apply",
    "gad_generator_single",
    "gamma3_difference",
    "get_preset",
    "hamiltonian",
    "jump_operators",
    "lindblad_generator",
    "load_curve",
    "matrix_exp",
    "pauli",
    "phase_damping_apply",
    "phase_damping_generator",
    "prepare_target",
    "prepare_via_sequence",
    "propagate",
    "pseudopure_00",
    "pulse",
    "rate_for_kind",
    "reconstruct",
    "save_curve",
    "signal_model",
    "simulate_readout",
    "sq_preparation",
    "superoperator",
    "synthetic_curve",
    "thermal_state",
    "validate_density_matrix",
]
