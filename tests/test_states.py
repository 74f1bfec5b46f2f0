import math

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from conftest import random_density_matrix
from spinpair.spinops import SpinSystem, pulse
from spinpair.states import (
    MAX_HALF_DELAY_PHASE,
    coherence_spectrum,
    coherence_state,
    prepare_target,
    prepare_via_sequence,
    pseudopure_00,
    sq_preparation,
    thermal_state,
    validate_density_matrix,
)
from spinpair.tomography import fidelity

BTC = SpinSystem(nu1=4602.4, nu2=4287.0, j12=4.2, name="BTC acid")


def test_thermal_state_limits():
    assert np.allclose(thermal_state(0.0), np.eye(4) / 4)
    assert np.allclose(thermal_state(1.0), np.diag([0.5, 0.25, 0.25, 0.0]))


def test_thermal_state_is_diagonal():
    rho = thermal_state(0.37)
    assert np.allclose(rho, np.diag(np.diag(rho)))
    validate_density_matrix(rho)


def test_thermal_state_rejects_bad_epsilon():
    with pytest.raises(ValueError):
        thermal_state(-0.1)
    with pytest.raises(ValueError):
        thermal_state(1.5)


def test_pseudopure_limits_and_interpolation():
    assert np.allclose(pseudopure_00(1.0), np.diag([1.0, 0, 0, 0]))
    assert np.allclose(pseudopure_00(0.0), np.eye(4) / 4)
    assert np.allclose(pseudopure_00(0.4), np.diag([0.55, 0.15, 0.15, 0.15]))
    with pytest.raises(ValueError):
        pseudopure_00(2.0)


def test_coherence_state_elements():
    dq = coherence_state("DQ")
    expected_dq = np.zeros((4, 4), dtype=complex)
    for r, s in ((0, 0), (0, 3), (3, 0), (3, 3)):
        expected_dq[r, s] = 0.5
    assert np.allclose(dq, expected_dq)

    zq = coherence_state("ZQ")
    expected_zq = np.zeros((4, 4), dtype=complex)
    for r, s in ((1, 1), (1, 2), (2, 1), (2, 2)):
        expected_zq[r, s] = 0.5
    assert np.allclose(zq, expected_zq)


@pytest.mark.parametrize("kind", ["ZQ", "DQ", "SQ1", "SQ2"])
def test_coherence_states_pure_and_valid(kind):
    rho = coherence_state(kind)
    validate_density_matrix(rho)
    assert np.allclose(rho @ rho, rho, atol=1e-12)


def test_coherence_state_rejects_unknown_kind():
    with pytest.raises(ValueError):
        coherence_state("TQ")


def test_coherence_spectrum_examples():
    dq = coherence_spectrum(coherence_state("DQ"))
    assert dq[2] == pytest.approx(0.25, abs=1e-12)
    assert dq[-2] == pytest.approx(0.25, abs=1e-12)
    assert dq[0] == pytest.approx(0.5, abs=1e-12)
    assert dq[1] == dq[-1] == 0.0

    zq = coherence_spectrum(coherence_state("ZQ"))
    assert zq[0] == pytest.approx(1.0, abs=1e-12)
    assert zq[1] == zq[-1] == zq[2] == zq[-2] == 0.0

    mixed = coherence_spectrum(np.eye(4) / 4)
    assert mixed[0] == pytest.approx(0.25, abs=1e-12)
    assert sum(v for k, v in mixed.items() if k != 0) == 0.0


def test_coherence_spectrum_hermitian_symmetry():
    rng = np.random.default_rng(11)
    for _ in range(10):
        spectrum = coherence_spectrum(random_density_matrix(rng))
        assert spectrum[1] == pytest.approx(spectrum[-1], abs=1e-12)
        assert spectrum[2] == pytest.approx(spectrum[-2], abs=1e-12)


def test_total_weight_invariant_under_unitaries():
    rng = np.random.default_rng(12)
    for _ in range(10):
        rho = random_density_matrix(rng)
        total = sum(coherence_spectrum(rho).values())
        u = pulse(rng.uniform(0, np.pi), rng.choice(["x", "y"]), rng.choice(["spin1", "spin2", "both"]))
        rotated = u @ rho @ u.conj().T
        assert sum(coherence_spectrum(rotated).values()) == pytest.approx(total, abs=1e-12)


@pytest.mark.parametrize("target", ["ZQ", "DQ"])
def test_prepare_via_sequence_reaches_target(target):
    rho = prepare_via_sequence(target, BTC, 1.0)
    validate_density_matrix(rho)
    assert fidelity(rho, coherence_state(target)) >= 0.999


def test_prepare_via_sequence_unpolarized_input():
    for target in ("ZQ", "DQ"):
        assert np.allclose(prepare_via_sequence(target, BTC, 0.0), np.eye(4) / 4, atol=1e-12)


def test_prepare_via_sequence_affine_in_epsilon():
    epsilon = 0.3
    for target in ("ZQ", "DQ"):
        full = prepare_via_sequence(target, BTC, 1.0)
        partial = prepare_via_sequence(target, BTC, epsilon)
        expected = (1 - epsilon) * np.eye(4) / 4 + epsilon * full
        assert np.allclose(partial, expected, atol=1e-12)


def test_prepare_via_sequence_rejects_zero_coupling():
    system = SpinSystem(nu1=100.0, nu2=400.0, j12=0.0)
    with pytest.raises(ValueError, match="J12"):
        prepare_via_sequence("DQ", system, 1.0)


def test_prepare_via_sequence_frame_independent():
    # The echo refocuses the chemical shifts, so any rotating-frame choice
    # yields the same prepared state.
    for nu_rf in (0.0, BTC.nu1, 5000.0):
        rho = prepare_via_sequence("DQ", BTC, 1.0, nu_rf=nu_rf)
        assert fidelity(rho, coherence_state("DQ")) >= 0.999


@pytest.mark.parametrize("kind", ["SQ1", "SQ2"])
def test_sq_preparation(kind):
    rho = sq_preparation(kind, 1.0)
    assert fidelity(rho, coherence_state(kind)) >= 0.999


def test_validate_density_matrix_rejections():
    with pytest.raises(ValueError, match="Hermitian"):
        validate_density_matrix(np.eye(4) / 4 + 1e-6 * np.array([[0, 1j, 0, 0]] + [[0] * 4] * 3))
    with pytest.raises(ValueError, match="trace"):
        validate_density_matrix(np.eye(4) / 2)
    with pytest.raises(ValueError, match="positive"):
        validate_density_matrix(np.diag([1.1, -0.1, 0.0, 0.0]))
    with pytest.raises(ValueError, match="4x4"):
        validate_density_matrix(np.eye(2) / 2)


def _reference_validate_density_matrix(
    rho: np.ndarray,
    *,
    herm_tol: float = 1e-12,
    trace_tol: float = 1e-12,
    eig_floor: float = -1e-10,
) -> np.ndarray:
    """Validate Hermiticity, unit trace, and positivity; return as complex array."""
    rho = np.asarray(rho, dtype=complex)
    if rho.shape != (4, 4):
        raise ValueError(f"density matrix must be 4x4, got shape {rho.shape}")
    finite = np.isfinite(rho)
    if not finite.all():
        bad = [(int(r), int(s)) for r, s in np.argwhere(~finite)]
        raise ValueError(f"density matrix has non-finite entries at {bad}")
    herm_dev = float(np.abs(rho - rho.conj().T).max())
    if herm_dev > herm_tol:
        raise ValueError(f"density matrix not Hermitian (deviation {herm_dev:.3e})")
    trace_dev = abs(rho.trace() - 1.0)
    if trace_dev > trace_tol:
        raise ValueError(f"density matrix trace != 1 (deviation {trace_dev:.3e})")
    min_eig = float(np.linalg.eigvalsh(0.5 * (rho + rho.conj().T)).min())
    if min_eig < eig_floor:
        raise ValueError(f"density matrix not positive semidefinite (min eig {min_eig:.3e})")
    return rho


HERM_TOL, TRACE_TOL, EIG_FLOOR = 1e-12, 1e-12, -1e-10
NON_FINITE = (np.nan, np.inf, -np.inf, complex(0.0, np.inf), complex(np.inf, np.nan),
              complex(0.25, np.nan))


@st.composite
def validator_inputs(draw):
    """Matrices on every side of each check the validator makes.

    Entries stay within a few units, so neither validator overflows."""
    rng = np.random.default_rng(draw(st.integers(0, 2**32 - 1)))
    family = draw(st.sampled_from(["random", "hermitian", "density", "shape"]))
    if family == "shape":
        shape = draw(st.sampled_from([(3, 3), (4,), (16,), (4, 5), (0,), (2, 4, 5), (2, 3, 4, 4)]))
        return rng.standard_normal(shape) + 1j * rng.standard_normal(shape)
    if family == "density":
        # Eigenvalues with the smallest near the positivity floor.
        low = EIG_FLOOR * draw(st.floats(0.0, 2.0))
        rest = rng.dirichlet(np.ones(3)) * (1.0 - low)
        u, _ = np.linalg.qr(rng.standard_normal((4, 4)) + 1j * rng.standard_normal((4, 4)))
        rho = (u * np.concatenate(([low], rest))) @ u.conj().T
    else:
        rho = rng.uniform(-2, 2, (4, 4)) + 1j * rng.uniform(-2, 2, (4, 4))
        if family == "hermitian":
            rho = 0.5 * (rho + rho.conj().T)
            rho = rho / rho.trace().real
    hermiticity = draw(st.sampled_from(["as built", "exact", "perturbed"]))
    if hermiticity == "exact":
        rho = 0.5 * (rho + rho.conj().T)  # the eigvalsh fast branch
    elif hermiticity == "perturbed":
        # Anti-Hermitian perturbation: Hermiticity deviation up to 2 herm_tol.
        k = rng.standard_normal((4, 4)) + 1j * rng.standard_normal((4, 4))
        k = k - k.conj().T
        rho = rho + k * (draw(st.floats(0.0, 2.0)) * HERM_TOL / np.abs(2 * k).max())
    if draw(st.booleans()):
        # Trace offset near the trace tolerance, on one diagonal entry.
        i = draw(st.integers(0, 3))
        rho[i, i] += draw(st.floats(-2.0, 2.0)) * TRACE_TOL
    finiteness = draw(st.sampled_from(["finite", "finite", "finite", "non-finite"]))
    for _ in range(draw(st.integers(1, 3)) if finiteness == "non-finite" else 0):
        r, c = draw(st.integers(0, 3)), draw(st.integers(0, 3))
        rho[r, c] = draw(st.sampled_from(NON_FINITE))
        if draw(st.booleans()):
            rho[c, r] = draw(st.sampled_from(NON_FINITE))  # the mirrored entry too
    return np.asfortranarray(rho) if draw(st.booleans()) else rho


def _verdict(validate, rho):
    try:
        return "accept", validate(rho)
    except ValueError as exc:
        return "reject", str(exc)


# An inf entry makes the new Hermiticity difference compute inf - inf, which
# numpy reports as a RuntimeWarning before the ValueError is raised.
@pytest.mark.filterwarnings("ignore:invalid value encountered:RuntimeWarning")
@settings(max_examples=400, deadline=None)
@given(validator_inputs())
def test_validate_density_matrix_matches_reference(rho):
    expected, detail = _verdict(_reference_validate_density_matrix, rho.copy())
    verdict, got = _verdict(validate_density_matrix, rho.copy())
    assert verdict == expected
    if verdict == "reject":
        assert got == detail
    else:
        assert np.array_equal(got, detail)


def _first_failure(states):
    """The per-state loop a stack's verdict must match: None, or the first
    failing state's index and message."""
    for k, rho in enumerate(states):
        verdict, detail = _verdict(validate_density_matrix, rho.copy())
        if verdict == "reject":
            return k, detail
    return None


# Diagonal states whose trace deviation sits on the tolerance, so that only
# the single check's own arithmetic gives its verdict.  The first is over it
# summed pairwise (1.00009e-12) but under it summed left to right
# (0.99987e-12), as ndarray.trace sums a non-contiguous stack.  The second is
# over it by hypot, as abs of one complex scalar rounds, but np.abs of a
# complex array rounds its deviation to exactly 1e-12.
TRACE_EDGES = (
    np.diag([0.15214618998111995, 0.1811666817173778, 0.5956312448981398, 0.0710558834043624]) + 0j,
    np.diag([0.250000000000009, 0.25, 0.25, 0.25]) + 2.499901390442079e-13j * np.eye(4),
)


def _state_index_fastest(stack):
    """The same stack laid out with the state index varying fastest in memory."""
    return np.ascontiguousarray(stack.transpose(1, 2, 0)).transpose(2, 0, 1)


# Stacks mix the validator's edge cases with valid states, so that whole
# stacks are accepted and rejections fall at every index.
stack_states = st.one_of(
    validator_inputs().filter(lambda rho: rho.shape == (4, 4)),
    st.integers(0, 2**32 - 1).map(lambda seed: random_density_matrix(np.random.default_rng(seed))),
    st.sampled_from(TRACE_EDGES),
)


@pytest.mark.filterwarnings("ignore:invalid value encountered:RuntimeWarning")
@settings(max_examples=300, deadline=None)
@given(st.lists(stack_states, min_size=1, max_size=8), st.booleans())
def test_validate_stack_matches_per_state_loop(states, state_index_fastest):
    stack = np.stack(states)
    if state_index_fastest:
        stack = _state_index_fastest(stack)
    failure = _first_failure(states)
    verdict, got = _verdict(validate_density_matrix, stack)
    if failure is None:
        assert verdict == "accept"
        assert got.shape == stack.shape and np.array_equal(got, stack)
    else:
        k, detail = failure
        assert verdict == "reject"
        assert got == f"state {k}: {detail}"


def test_validate_empty_stack():
    got = validate_density_matrix(np.zeros((0, 4, 4)))
    assert got.shape == (0, 4, 4) and got.dtype == complex


@pytest.mark.parametrize("edge", TRACE_EDGES)
@pytest.mark.parametrize("state_index_fastest", [False, True])
def test_stack_trace_check_rounds_like_single_check(edge, state_index_fastest):
    with pytest.raises(ValueError, match=r"^density matrix trace != 1"):
        validate_density_matrix(edge)
    stack = np.stack([np.eye(4) / 4, edge])
    if state_index_fastest:
        stack = _state_index_fastest(stack)
    with pytest.raises(ValueError, match=r"^state 1: density matrix trace != 1"):
        validate_density_matrix(stack)


def test_stack_positivity_check_takes_the_hermitian_part():
    # A state within herm_tol of Hermitian whose Hermitian part has its least
    # eigenvalue just under the floor, while the lower triangle that eigvalsh
    # reads would pass alone: the stack check must hand eigvalsh the
    # Hermitian part, as the single check does.
    rng = np.random.default_rng(11)
    u, _ = np.linalg.qr(rng.standard_normal((4, 4)) + 1j * rng.standard_normal((4, 4)))
    k = rng.standard_normal((4, 4)) + 1j * rng.standard_normal((4, 4))
    k = (k - k.conj().T) * (0.45 * HERM_TOL / np.abs(k - k.conj().T).max())

    def state(low):
        return (u * np.array([low, 0.3, 0.3, 0.4 - low])) @ u.conj().T + k

    # Sign k so that the lower triangle's least eigenvalue lies above the
    # Hermitian part's, whatever rounding the LAPACK build brings.
    if np.linalg.eigvalsh(state(EIG_FLOOR))[0] < np.linalg.eigvalsh(state(EIG_FLOOR) - k)[0]:
        k = -k

    lo, hi = EIG_FLOOR - 1e-11, EIG_FLOOR + 1e-11
    for _ in range(60):
        mid = 0.5 * (lo + hi)
        rho = state(mid)
        lo, hi = (mid, hi) if np.linalg.eigvalsh(0.5 * (rho + rho.conj().T))[0] < EIG_FLOOR else (lo, mid)
    edge = state(lo)
    assert np.linalg.eigvalsh(edge)[0] >= EIG_FLOOR
    with pytest.raises(ValueError, match=r"^density matrix not positive semidefinite"):
        validate_density_matrix(edge)
    with pytest.raises(ValueError, match=r"^state 1: density matrix not positive semidefinite"):
        validate_density_matrix(np.stack([np.eye(4) / 4, edge]))


def test_single_state_functions_reject_stacks():
    from spinpair.channels import apply_kraus
    from spinpair.tomography import simulate_readout

    stack = np.stack([np.eye(4) / 4] * 4)
    for call in (coherence_spectrum, lambda rho: simulate_readout(rho, "II"),
                 lambda rho: apply_kraus(rho, [np.eye(4)])):
        with pytest.raises(ValueError, match=r"must be 4x4, got shape \(4, 4, 4\)"):
            call(stack)


@pytest.mark.parametrize("target", ["ZQ", "DQ"])
@pytest.mark.parametrize("system, nu_rf", [
    (SpinSystem(nu1=100.0, nu2=400.0, j12=1e-308), None),  # 1/(2 J12) overflows the phase
    (SpinSystem(nu1=100.0, nu2=400.0, j12=5e-324), None),
    (SpinSystem(nu1=1.7e308, nu2=1.6e308, j12=4.2), None),  # the shift midpoint overflows
    (BTC, 1e308),
    (BTC, 1e16),  # finite, but the echo leaves a rounding error of the phase
])
def test_prepare_rejects_infinite_phase(target, system, nu_rf):
    with pytest.raises(ValueError, match=r"phase of each half must be at most 1048576 rad \(J12 = "
                                         r".*, nu_rf = .* Hz\)$"):
        prepare_target(target, system, 1.0, nu_rf)


@pytest.mark.parametrize("target", ["ZQ", "DQ"])
def test_prepare_phase_bound_keeps_the_echo_exact(target):
    # Just inside the bound the frame frequency moves the state by rounding only.
    # The largest |H| entry grows by 2 pi rad/s per Hz of frame offset, over
    # half the delay, tau / 2 = 1 / (4 J12).
    phase_per_hz = math.pi / (2.0 * BTC.j12)
    nu_rf = 0.5 * (BTC.nu1 + BTC.nu2) + 0.9 * MAX_HALF_DELAY_PHASE / phase_per_hz
    moved = prepare_target(target, BTC, 1.0, nu_rf) - prepare_target(target, BTC, 1.0)
    assert np.abs(moved).max() < 1e-10
