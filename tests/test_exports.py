"""The package's public names, and the names its modules import."""

import ast
from pathlib import Path

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


def test_every_import_in_src_is_used():
    # A name a module imports is read in that module or, in the package
    # itself, re-exported in __all__.
    for path in sorted(Path(spinpair.__file__).parent.glob("*.py")):
        tree = ast.parse(path.read_text(encoding="utf-8"))
        imported = set()
        for node in ast.walk(tree):
            if isinstance(node, ast.Import):
                imported.update((alias.asname or alias.name).split(".")[0] for alias in node.names)
            elif isinstance(node, ast.ImportFrom) and node.module != "__future__":
                imported.update(alias.asname or alias.name for alias in node.names)
        used = {node.id for node in ast.walk(tree) if isinstance(node, ast.Name)}
        exported = set(spinpair.__all__) if path.name == "__init__.py" else set()
        assert imported <= used | exported, (path.name, sorted(imported - used - exported))
