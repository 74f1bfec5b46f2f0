"""Decoherence of two coupled spin-1/2 nuclei under correlated dephasing and
independent amplitude damping: channel generators, propagation, simulated
tomography, and noise-rate estimation from decay curves.
"""

from .channels import NoiseParams, full_generator, jump_operators, lindblad_generator
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
from .states import coherence_state, prepare_target, pseudopure_00, validate_density_matrix
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
    "coherence_state",
    "default_time_grid",
    "fidelity",
    "fit_exponential",
    "fit_noise_model",
    "free_evolution",
    "full_generator",
    "gamma3_difference",
    "get_preset",
    "hamiltonian",
    "jump_operators",
    "lindblad_generator",
    "load_curve",
    "matrix_exp",
    "pauli",
    "prepare_target",
    "propagate",
    "pseudopure_00",
    "pulse",
    "rate_for_kind",
    "reconstruct",
    "save_curve",
    "signal_model",
    "simulate_readout",
    "superoperator",
    "synthetic_curve",
    "validate_density_matrix",
]
