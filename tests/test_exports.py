"""The package's public names."""

import spinpair


def test_every_exported_name_resolves_once():
    assert len(spinpair.__all__) == len(set(spinpair.__all__))
    for name in spinpair.__all__:
        assert hasattr(spinpair, name), name


def test_public_api_is_pinned():
    # A change to the public API shows up here, in the diff.
    assert sorted(spinpair.__all__) == [
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
