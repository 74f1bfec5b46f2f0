import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from conftest import random_density_matrix
from spinpair.spinops import _EYE2, _single_spin_rotation, pulse
from spinpair.states import coherence_state, validate_density_matrix
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
    assert np.abs(reconstruct(records) - _reference_reconstruct(records)).max() <= 2e-15

    rng = np.random.default_rng(seed)
    noisy = [TomographyRecord(rec.setting, tuple(np.asarray(rec.observables) + noise * rng.uniform(-1, 1, 8)))
             for rec in records]
    assert np.abs(reconstruct(noisy) - _reference_reconstruct(noisy)).max() <= 2e-15


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
