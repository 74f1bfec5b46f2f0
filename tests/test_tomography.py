import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

import oracles
from conftest import random_density_matrix
from spinpair.evolution import propagate
from spinpair.presets import PRESETS
from spinpair.spinops import _EYE2, _single_spin_rotation, pulse
from spinpair.states import COHERENCE_KINDS, coherence_state, prepare_target, validate_density_matrix
from spinpair.tomography import (
    DETECTED_ELEMENTS,
    SETTINGS,
    TomographyRecord,
    _design_matrix,
    fidelity,
    readout_unitary,
    reconstruct,
    simulate_readout,
)


def records_for(rho):
    return [simulate_readout(rho, setting) for setting in SETTINGS]


def test_readout_of_maximally_mixed_state_is_silent():
    for setting in SETTINGS:
        record = simulate_readout(np.eye(4) / 4, setting)
        assert np.abs(np.asarray(record.observables)).max() < 1e-14


def test_readout_reads_sq_element_directly():
    record = simulate_readout(coherence_state("SQ1"), "II")
    # first detected element is (0, 2): real part 1/2, imaginary part 0
    assert record.observables[0] == pytest.approx(0.5)
    assert record.observables[1] == pytest.approx(0.0, abs=1e-14)


def test_dq_coherence_invisible_without_rotation():
    record = simulate_readout(coherence_state("DQ"), "II")
    assert np.abs(np.asarray(record.observables)).max() < 1e-14


def test_observables_bounded():
    rng = np.random.default_rng(40)
    for _ in range(20):
        rho = random_density_matrix(rng)
        for setting in SETTINGS:
            obs = np.asarray(simulate_readout(rho, setting).observables)
            assert np.all(np.abs(obs) <= 1.0 + 1e-12)


def test_readout_rejects_unknown_setting():
    with pytest.raises(ValueError):
        simulate_readout(np.eye(4) / 4, "YY")


def test_design_matrix_full_rank():
    design, basis = _design_matrix()
    assert design.shape == (32, 15)
    assert np.linalg.matrix_rank(design, tol=1e-10) == len(basis) == 15


def test_reconstruct_round_trip():
    rng = np.random.default_rng(41)
    for _ in range(25):
        rho = random_density_matrix(rng)
        rho_hat = reconstruct(records_for(rho))
        assert np.linalg.norm(rho_hat - rho) < 1e-10


def test_reconstruct_zero_records_gives_maximally_mixed():
    records = [TomographyRecord(s, tuple([0.0] * 8)) for s in SETTINGS]
    assert np.allclose(reconstruct(records), np.eye(4) / 4)


def test_reconstruct_with_observable_noise():
    rng = np.random.default_rng(42)
    sigma = 1e-3
    rho = random_density_matrix(rng)
    noisy = [
        TomographyRecord(rec.setting, tuple(np.asarray(rec.observables) + sigma * rng.standard_normal(8)))
        for rec in records_for(rho)
    ]
    err = np.linalg.norm(reconstruct(noisy) - rho)
    assert 1e-5 < err < 20 * sigma


def test_reconstruct_requires_all_settings():
    records = records_for(np.eye(4) / 4)[:3]
    with pytest.raises(ValueError, match="missing"):
        reconstruct(records)


# ----------------------------------------------------------------------
# The constant readout and reconstruction maps against the earlier
# per-call implementation, kept here verbatim as the reference
# (its design-matrix cache replaced by a module constant).
# ----------------------------------------------------------------------


def _reference_readout_unitary(setting: str) -> np.ndarray:
    """The readout rotations built with np.kron."""
    x, y = (_single_spin_rotation(np.pi / 2.0, axis) for axis in ("x", "y"))
    unitaries = {"II": np.eye(4, dtype=complex), "IX": np.kron(_EYE2, x),
                 "IY": np.kron(_EYE2, y), "XX": np.kron(x, x)}
    return unitaries[setting]


def _reference_detected_observables(rho: np.ndarray, setting: str) -> list[float]:
    u = _reference_readout_unitary(setting)
    rotated = u @ rho @ u.conj().T
    obs: list[float] = []
    for r, s in DETECTED_ELEMENTS:
        obs.append(float(rotated[r, s].real))
        obs.append(float(rotated[r, s].imag))
    return obs


def _reference_deviation_basis() -> list[np.ndarray]:
    """15 traceless Hermitian matrices spanning the unit-trace manifold's tangent."""
    basis: list[np.ndarray] = []
    for r in range(4):
        for s in range(r + 1, 4):
            sym = np.zeros((4, 4), dtype=complex)
            sym[r, s] = sym[s, r] = 1.0
            basis.append(sym)
            antisym = np.zeros((4, 4), dtype=complex)
            antisym[r, s] = -1j
            antisym[s, r] = 1j
            basis.append(antisym)
    for k in range(3):
        diag = np.zeros((4, 4), dtype=complex)
        diag[k, k] = 1.0
        diag[k + 1, k + 1] = -1.0
        basis.append(diag)
    return basis


def _reference_design_matrix() -> tuple[np.ndarray, list[np.ndarray]]:
    """Observable response of each deviation-basis element under every setting."""
    basis = _reference_deviation_basis()
    rows = []
    for setting in SETTINGS:
        u = _reference_readout_unitary(setting)
        for r, s in DETECTED_ELEMENTS:
            row_re = np.empty(len(basis))
            row_im = np.empty(len(basis))
            for k, b in enumerate(basis):
                element = (u @ b @ u.conj().T)[r, s]
                row_re[k] = element.real
                row_im[k] = element.imag
            rows.append(row_re)
            rows.append(row_im)
    return np.vstack(rows), basis


_REFERENCE_DESIGN = _reference_design_matrix()


def _reference_reconstruct(records: list[TomographyRecord]) -> np.ndarray:
    by_setting = {rec.setting: rec for rec in records}
    if set(by_setting) != set(SETTINGS):
        missing = sorted(set(SETTINGS) - set(by_setting))
        raise ValueError(f"need one record per setting; missing {missing}")

    design, basis = _REFERENCE_DESIGN

    observed = np.concatenate([np.asarray(by_setting[s].observables) for s in SETTINGS])
    coeffs, _, rank, _ = np.linalg.lstsq(design, observed, rcond=None)
    if rank < len(basis):
        raise ValueError(f"tomography design matrix is rank deficient (rank {rank} < {len(basis)})")

    rho = np.eye(4, dtype=complex) / 4.0
    for c, b in zip(coeffs, basis):
        rho = rho + c * b
    rho = 0.5 * (rho + rho.conj().T)
    return rho / rho.trace().real


@st.composite
def tomography_states(draw):
    """Mixed, pure and scaled-coherence density matrices."""
    rng = np.random.default_rng(draw(st.integers(0, 2**32 - 1)))
    family = draw(st.sampled_from(["mixed", "pure", "scaled coherence"]))
    if family == "mixed":
        return random_density_matrix(rng)
    if family == "pure":
        ket = rng.standard_normal(4) + 1j * rng.standard_normal(4)
        return np.outer(ket, ket.conj()) / np.vdot(ket, ket).real
    epsilon = draw(st.floats(0.0, 1.0))
    kind = draw(st.sampled_from(["ZQ", "DQ", "SQ1", "SQ2"]))
    return (1.0 - epsilon) * np.eye(4) / 4.0 + epsilon * coherence_state(kind)


@settings(max_examples=300, deadline=None)
@given(tomography_states(), st.floats(0.0, 1e-3), st.integers(0, 2**32 - 1))
def test_readout_and_reconstruction_match_reference(rho, noise, seed):
    records = records_for(rho)
    validated = validate_density_matrix(rho)
    for record in records:
        expected = _reference_detected_observables(validated, record.setting)
        assert np.asarray(record.observables).tobytes() == np.asarray(expected).tobytes()
        assert all(type(v) is float for v in record.observables)
    rng = np.random.default_rng(seed)
    noisy = [TomographyRecord(rec.setting, tuple(np.asarray(rec.observables) + noise * rng.uniform(-1, 1, 8)))
             for rec in records]
    for observed in (records, noisy):
        rho_hat = reconstruct(observed)
        assert np.abs(rho_hat - _reference_reconstruct(observed)).max() <= 2e-15
        assert np.array_equal(rho_hat, rho_hat.conj().T)


def test_unknown_and_missing_setting_messages():
    message = "setting must be one of ('II', 'IX', 'IY', 'XX'), got 'YY'"
    with pytest.raises(ValueError) as exc:
        simulate_readout(np.eye(4) / 4, "YY")
    assert str(exc.value) == message
    with pytest.raises(ValueError) as exc:
        readout_unitary("YY")
    assert str(exc.value) == message
    with pytest.raises(ValueError) as exc:
        reconstruct([rec for rec in records_for(np.eye(4) / 4) if rec.setting != "IX"])
    assert str(exc.value) == "need one record per setting; missing ['IX']"


def test_reconstruct_rejects_duplicate_setting():
    # An extra SQ1 II record would otherwise replace the DQ one, or not,
    # depending on where it sits in the list.
    records = records_for(coherence_state("DQ"))
    extra = simulate_readout(coherence_state("SQ1"), "II")
    for position in (0, len(records)):
        with pytest.raises(ValueError) as exc:
            reconstruct(records[:position] + [extra] + records[position:])
        assert str(exc.value) == "need one record per setting; 'II' appears twice"


def test_reconstruct_rejects_unknown_setting():
    records = records_for(np.eye(4) / 4) + [TomographyRecord("ZZ", (0.0,) * 8)]
    with pytest.raises(ValueError) as exc:
        reconstruct(records)
    assert str(exc.value) == "setting must be one of ('II', 'IX', 'IY', 'XX'), got 'ZZ'"


# ----------------------------------------------------------------------
# Fidelity
# ----------------------------------------------------------------------


def test_fidelity_identity():
    rng = np.random.default_rng(43)
    rho = random_density_matrix(rng)
    assert fidelity(rho, rho) == pytest.approx(1.0, abs=1e-10)


def test_fidelity_orthogonal_pure_states():
    ket00 = np.zeros((4, 4)); ket00[0, 0] = 1.0
    ket11 = np.zeros((4, 4)); ket11[3, 3] = 1.0
    assert fidelity(ket00, ket11) == pytest.approx(0.0, abs=1e-12)


def test_fidelity_pure_vs_maximally_mixed():
    ket00 = np.zeros((4, 4)); ket00[0, 0] = 1.0
    assert fidelity(ket00, np.eye(4) / 4) == pytest.approx(0.25, abs=1e-12)


def test_fidelity_symmetric():
    rng = np.random.default_rng(44)
    for _ in range(10):
        a = random_density_matrix(rng)
        b = random_density_matrix(rng)
        assert fidelity(a, b) == pytest.approx(fidelity(b, a), abs=1e-10)


def test_fidelity_unitary_invariance():
    rng = np.random.default_rng(45)
    for _ in range(10):
        a = random_density_matrix(rng)
        b = random_density_matrix(rng)
        u = pulse(rng.uniform(0, np.pi), "y", "both") @ pulse(rng.uniform(0, np.pi), "x", "spin1")
        rotated = fidelity(u @ a @ u.conj().T, u @ b @ u.conj().T)
        assert rotated == pytest.approx(fidelity(a, b), abs=1e-10)


def test_fidelity_pure_state_reduces_to_expectation():
    rng = np.random.default_rng(46)
    ket = rng.standard_normal(4) + 1j * rng.standard_normal(4)
    ket /= np.linalg.norm(ket)
    pure = np.outer(ket, ket.conj())
    mixed = random_density_matrix(rng)
    expected = float((ket.conj() @ mixed @ ket).real)
    assert fidelity(pure, mixed) == pytest.approx(expected, abs=1e-10)


def test_fidelity_bounded_unit_interval():
    rng = np.random.default_rng(47)
    for _ in range(10):
        value = fidelity(random_density_matrix(rng), random_density_matrix(rng))
        assert 0.0 <= value <= 1.0


def test_fidelity_rejects_non_hermitian():
    bad = np.eye(4) / 4 + 0.01j * np.eye(4)
    bad[0, 1] = 0.3
    with pytest.raises(ValueError, match="Hermitian"):
        fidelity(bad, np.eye(4) / 4)


def test_fidelity_rejects_inputs_of_different_shapes():
    for a, b in ((np.eye(2) / 2, np.eye(4) / 4), (np.eye(4) / 4, np.stack([np.eye(4) / 4] * 2))):
        for pair in ((a, b), (b, a)):
            with pytest.raises(ValueError) as exc:
                fidelity(*pair)
            assert str(exc.value) == (f"fidelity requires inputs of one shape, "
                                      f"got {pair[0].shape} and {pair[1].shape}")


@pytest.mark.filterwarnings("error")
def test_fidelity_rejects_non_square_inputs():
    for shape in ((4, 5), (2, 4, 4), (4,), (0, 0), ()):
        rho = np.ones(shape)
        with pytest.raises(ValueError) as exc:
            fidelity(rho, rho)
        assert str(exc.value) == f"fidelity requires non-empty square matrices, got shape {shape}"


# An inf on the diagonal makes the Hermiticity difference compute inf - inf;
# the ValueError comes without numpy's RuntimeWarning.
@pytest.mark.filterwarnings("error")
@pytest.mark.parametrize("value", [np.nan, np.inf, complex(0.0, np.nan), -np.inf])
@pytest.mark.parametrize("entry", [(0, 0), (0, 1)])
def test_fidelity_rejects_non_finite(value, entry):
    bad = np.eye(4, dtype=complex) / 4
    bad[entry] = value
    for pair in ((bad, np.eye(4) / 4), (np.eye(4) / 4, bad)):
        with pytest.raises(ValueError) as exc:
            fidelity(*pair)
        assert str(exc.value) == "fidelity requires finite inputs"


@pytest.mark.filterwarnings("error")
def test_fidelity_rejects_overflowing_non_hermitian_quietly():
    # rho_01 - conj(rho_10) = 3.4e308 overflows to inf, which fails the test.
    bad = np.eye(4, dtype=complex) / 4
    bad[0, 1], bad[1, 0] = 1.7e308, -1.7e308
    with pytest.raises(ValueError, match="fidelity requires Hermitian inputs"):
        fidelity(bad, np.eye(4) / 4)


def _read_out_pipeline_states():
    """I/4, the four coherences, and per preset and target the prepared,
    propagated and reconstructed states of the read-out pipeline."""
    states = [np.eye(4) / 4] + [coherence_state(kind) for kind in COHERENCE_KINDS]
    for preset in PRESETS.values():
        for kind in COHERENCE_KINDS:
            prepared = prepare_target(kind, preset.system, 0.5)
            for t in (0.0, 0.1, 10.0):
                rho = propagate(prepared, preset.noise, t)
                states += [rho, reconstruct(records_for(rho))]
    return states


_PIPELINE_STATES = _read_out_pipeline_states()


def _fidelity_input(rng, pick):
    """A random density matrix of rank pick + 1 for pick < 4, else a pipeline state."""
    if pick >= 4:
        return _PIPELINE_STATES[pick - 4]
    g = rng.standard_normal((4, pick + 1)) + 1j * rng.standard_normal((4, pick + 1))
    # Spread the eigenvalues down to about 1e-16, across PSD_CLAMP_TOL.
    g *= 10.0 ** -rng.uniform(0.0, 8.0, pick + 1)
    rho = g @ g.conj().T
    return rho / rho.trace().real


@settings(max_examples=400, deadline=None, derandomize=True)
@given(st.integers(0, 2**32 - 1), st.integers(0, 3 + len(_PIPELINE_STATES)),
       st.integers(0, 3 + len(_PIPELINE_STATES)))
def test_fidelity_matches_two_root_reference(seed, pick_a, pick_b):
    # One eigh on the stacked pair runs LAPACK on each matrix as two calls would.
    rng = np.random.default_rng(seed)
    a, b = _fidelity_input(rng, pick_a), _fidelity_input(rng, pick_b)
    for pair in ((a, b), (b, a), (a, a)):
        value = fidelity(*pair)
        assert type(value) is float
        assert value.hex() == oracles.fidelity(*pair).hex()


@pytest.mark.filterwarnings("error")
def test_fidelity_check_order_and_non_psd_message():
    mixed = np.eye(4) / 4
    non_psd_a = np.diag([0.6, 0.5, 0.1, -0.2])
    non_psd_b = np.diag([0.7, 0.4, 0.2, -0.3])
    non_hermitian = mixed.astype(complex)
    non_hermitian[0, 1] = 0.3
    non_finite = mixed.astype(complex)
    non_finite[1, 1] = np.nan
    non_psd = "matrix is significantly non-PSD (min eig {})"
    cases = [
        ((non_psd_a, mixed), non_psd.format("-2.000e-01")),
        ((mixed, non_psd_b), non_psd.format("-3.000e-01")),
        # a is checked before b.
        ((non_psd_a, non_psd_b), non_psd.format("-2.000e-01")),
        ((non_psd_b, non_psd_a), non_psd.format("-3.000e-01")),
        ((non_hermitian, non_finite), "fidelity requires Hermitian inputs"),
        ((non_finite, non_hermitian), "fidelity requires finite inputs"),
        # Both inputs' Hermiticity and finiteness come before either PSD check.
        ((non_psd_a, non_hermitian), "fidelity requires Hermitian inputs"),
        ((non_psd_a, non_finite), "fidelity requires finite inputs"),
    ]
    for pair, message in cases:
        for implementation in (fidelity, oracles.fidelity):
            with pytest.raises(ValueError) as exc:
                implementation(*pair)
            assert str(exc.value) == message
    # Eigenvalues down to -1e-8 are clamped to zero, not rejected.
    slightly_negative = np.diag([0.5, 0.5, 0.0, -1e-9])
    value = fidelity(slightly_negative, mixed)
    assert value == oracles.fidelity(slightly_negative, mixed) == pytest.approx(0.5, abs=1e-15)
