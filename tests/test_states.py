import math
import warnings

import numpy as np
import pytest
from hypothesis import example, given, settings
from hypothesis import strategies as st

from conftest import TRACE_EDGES
from spinpair.evolution import default_time_grid, propagate
from spinpair.presets import PRESETS
from spinpair.spinops import SpinSystem, angular_momentum, free_evolution, hamiltonian, pulse
from spinpair.states import (
    COHERENCE_KINDS,
    MAX_HALF_DELAY_PHASE,
    coherence_state,
    prepare_target,
    pseudopure_00,
    validate_density_matrix,
)
from spinpair.tomography import fidelity

BTC = SpinSystem(nu1=4602.4, nu2=4287.0, j12=4.2, name="BTC acid")


def test_pseudopure_limits_and_interpolation():
    assert np.allclose(pseudopure_00(1.0), np.diag([1.0, 0, 0, 0]))
    assert np.allclose(pseudopure_00(0.0), np.eye(4) / 4)
    assert np.allclose(pseudopure_00(0.4), np.diag([0.55, 0.15, 0.15, 0.15]))
    for epsilon in (-0.1, 1.5, 2.0):
        with pytest.raises(ValueError, match=r"^epsilon must lie in \[0, 1\], got "):
            pseudopure_00(epsilon)
    with pytest.raises(ValueError, match=r"^epsilon: must be a finite real number, got nan$"):
        pseudopure_00(math.nan)


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


@pytest.mark.filterwarnings("error")
def test_prepare_target_rejects_unknown_kind():
    # The kind is checked first, with coherence_state's message, before the
    # epsilon = 0 warning.
    message = r"kind must be one of \('ZQ', 'DQ', 'SQ1', 'SQ2'\), got 'XQ'$"
    for epsilon in (1.0, 0.0):
        with pytest.raises(ValueError, match=message):
            prepare_target("XQ", BTC, epsilon)
    with pytest.raises(ValueError, match=message):
        coherence_state("XQ")


@pytest.mark.parametrize("target", ["ZQ", "DQ"])
def test_prepare_via_sequence_reaches_target(target):
    rho = prepare_target(target, BTC, 1.0)
    validate_density_matrix(rho)
    assert fidelity(rho, coherence_state(target)) >= 0.999


def test_prepare_via_sequence_unpolarized_input():
    for target in ("ZQ", "DQ"):
        with pytest.warns(UserWarning, match="^epsilon = 0: "):
            rho = prepare_target(target, BTC, 0.0)
        assert np.allclose(rho, np.eye(4) / 4, atol=1e-12)


def test_prepare_via_sequence_affine_in_epsilon():
    epsilon = 0.3
    for target in ("ZQ", "DQ"):
        full = prepare_target(target, BTC, 1.0)
        partial = prepare_target(target, BTC, epsilon)
        expected = (1 - epsilon) * np.eye(4) / 4 + epsilon * full
        assert np.allclose(partial, expected, atol=1e-12)


def test_prepare_via_sequence_rejects_zero_coupling():
    system = SpinSystem(nu1=100.0, nu2=400.0, j12=0.0)
    with pytest.raises(ValueError, match="J12"):
        prepare_target("DQ", system, 1.0)


def test_prepare_target_check_order():
    # The kind fails first, then the ZQ/DQ phase rule, then epsilon: the CLI
    # blames the system for any ValueError left once kind and epsilon pass.
    uncoupled = SpinSystem(nu1=100.0, nu2=400.0, j12=0.0)
    with pytest.raises(ValueError, match="^kind must be one of "):
        prepare_target("XQ", uncoupled, 1.5)
    for target in ("ZQ", "DQ"):
        with pytest.raises(ValueError, match=rf"^{target} preparation evolves freely .*\(J12 = 0, "):
            prepare_target(target, uncoupled, 1.5)
    for target, system in (("DQ", BTC), ("SQ1", uncoupled), ("SQ2", uncoupled)):
        with pytest.raises(ValueError, match=r"^epsilon must lie in \[0, 1\], got 1.5$"):
            prepare_target(target, system, 1.5)


@pytest.mark.filterwarnings("error")
def test_prepare_target_warns_only_after_every_check():
    # A call that fails the phase rule raises its ValueError, not the
    # epsilon = 0 warning, even when warnings are errors.
    uncoupled = SpinSystem(nu1=100.0, nu2=400.0, j12=0.0)
    for target in ("ZQ", "DQ"):
        with pytest.raises(ValueError, match=rf"^{target} preparation evolves freely"):
            prepare_target(target, uncoupled, 0.0)
    # A call that passes every check warns exactly once, at its caller.
    for target in ("ZQ", "DQ", "SQ1", "SQ2"):
        with warnings.catch_warnings(record=True) as caught:
            warnings.simplefilter("always")
            prepare_target(target, BTC, 0.0)
        assert [(w.category, str(w.message), w.filename) for w in caught] == [
            (UserWarning, "epsilon = 0: the deviation part is empty and the prepared state is the "
                          "maximally mixed state", __file__)]


def test_prepare_via_sequence_refocuses_shifts():
    # The echo refocuses the chemical shifts, so only J12 shapes the state:
    # shift pairs at any offset and spacing prepare the same DQ state.
    reference = prepare_target("DQ", BTC, 1.0)
    for nu1, nu2 in ((0.0, BTC.nu2), (BTC.nu1, 5000.0), (-3e4, 2e4)):
        rho = prepare_target("DQ", SpinSystem(nu1=nu1, nu2=nu2, j12=BTC.j12), 1.0)
        assert np.abs(rho - reference).max() < 1e-12


@pytest.mark.parametrize("kind", ["SQ1", "SQ2"])
def test_sq_preparation(kind):
    rho = prepare_target(kind, BTC, 1.0)
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


# Finite entries at 1e308 scale: the sum or difference of two of them, or the
# modulus of one, may overflow.
HUGE = (1.5e308, -1.5e308, 1e308, 8e307, complex(1.5e308, 1.5e308), complex(8e307, -8e307),
        complex(-1e308, 1e308), complex(0.0, -1.5e308))


@st.composite
def validator_inputs(draw):
    """Matrices on every side of each check the validator makes: the shape,
    finiteness, Hermiticity and the trace, the Gershgorin threshold
    EIG_FLOOR / 2 and the positivity floor EIG_FLOOR.

    Entries stay within a few units, except for the 1e308-scale ones."""
    rng = np.random.default_rng(draw(st.integers(0, 2**32 - 1)))
    family = draw(st.sampled_from(["random", "hermitian", "density", "coherence", "mixture", "diagonal",
                                   "shape"]))
    if family == "shape":
        shape = draw(st.sampled_from([(3, 3), (4,), (16,), (4, 5), (0,), (2, 4, 5), (2, 3, 4, 4)]))
        return rng.standard_normal(shape) + 1j * rng.standard_normal(shape)
    if family == "density":
        # Eigenvalues with the smallest near the positivity floor.
        low = EIG_FLOOR * draw(st.floats(0.0, 2.0))
        rest = rng.dirichlet(np.ones(3)) * (1.0 - low)
        u, _ = np.linalg.qr(rng.standard_normal((4, 4)) + 1j * rng.standard_normal((4, 4)))
        rho = (u * np.concatenate(([low], rest))) @ u.conj().T
    elif family == "coherence":
        rho = coherence_state(draw(st.sampled_from(COHERENCE_KINDS)))
    elif family == "mixture":
        # (1 - epsilon) I/4 + epsilon |psi><psi|, psi a coherence or a random ket.
        kind = draw(st.sampled_from(COHERENCE_KINDS + ("random",)))
        if kind == "random":
            ket = rng.standard_normal(4) + 1j * rng.standard_normal(4)
            pure = np.outer(ket, ket.conj()) / np.vdot(ket, ket).real
        else:
            pure = coherence_state(kind)
        epsilon = draw(st.floats(0.0, 1.0))
        rho = (1.0 - epsilon) * np.eye(4) / 4.0 + epsilon * pure
    elif family == "diagonal":
        # Least entry in [2 EIG_FLOOR, 0]; near-diagonal ones add Hermitian
        # off-diagonal entries of up to 2 |EIG_FLOOR|, so the discs' lower
        # edges fall on both sides of EIG_FLOOR / 2.
        low = EIG_FLOOR * draw(st.floats(0.0, 2.0))
        rest = rng.dirichlet(np.ones(3)) * (1.0 - low)
        rho = np.diag(rng.permutation(np.concatenate(([low], rest)))).astype(complex)
        if draw(st.booleans()):
            off = np.triu(rng.standard_normal((4, 4)) + 1j * rng.standard_normal((4, 4)), 1)
            off = off + off.conj().T
            rho = rho + off * (draw(st.floats(0.0, 2.0)) * -EIG_FLOOR / np.abs(off).max())
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
    finiteness = draw(st.sampled_from(["finite", "finite", "finite", "non-finite", "huge"]))
    values = NON_FINITE if finiteness == "non-finite" else HUGE
    for _ in range(draw(st.integers(1, 3)) if finiteness != "finite" else 0):
        r, c = draw(st.integers(0, 3)), draw(st.integers(0, 3))
        rho[r, c] = draw(st.sampled_from(values))
        mirror = draw(st.sampled_from(["none", "drawn", "adjoint"]))
        if mirror == "drawn":
            rho[c, r] = draw(st.sampled_from(values))
        elif mirror == "adjoint":
            rho[c, r] = np.conj(rho[r, c])  # Hermitian at this pair
    return np.asfortranarray(rho) if draw(st.booleans()) else rho


def _verdict(validate, rho):
    try:
        return "accept", validate(rho)
    except ValueError as exc:
        return "reject", str(exc)


def _reference_sees_overflow(rho, detail):
    """Whether the reference hands eigvalsh a Hermitian part that overflowed.

    The reference forms (rho + rho^H) / 2 even for an exactly Hermitian rho,
    so 1e308-scale entries reach its eigvalsh as inf, and its verdict (nan
    accepted, or LAPACK's "did not converge") says nothing about rho."""
    if rho.shape != (4, 4) or not np.isfinite(rho).all():
        return False
    if isinstance(detail, str) and detail.startswith(("density matrix not Hermitian", "density matrix trace")):
        return False
    with np.errstate(over="ignore", invalid="ignore"):
        return not np.isfinite(0.5 * (rho + rho.conj().T)).all()


def _overflowing_pair(r, c):
    """I/4 with an exactly Hermitian pair 1e308 (1 + i) at (r, c) and a 1e-13i
    non-Hermitian nudge at (1, 1), so that the Hermitian part is formed.  The
    sum rho + rho^H overflows; eigvalsh of half that sum returns nan at
    (2, 3) and does not converge at (0, 1) and (0, 3)."""
    rho = np.eye(4, dtype=complex) / 4
    rho[r, c], rho[c, r] = 1e308 * (1 + 1j), 1e308 * (1 - 1j)
    rho[1, 1] += 1e-13j
    return rho


@settings(max_examples=400, deadline=None)
@given(validator_inputs())
@example(_overflowing_pair(2, 3))
@example(_overflowing_pair(0, 1))
@example(_overflowing_pair(0, 3))
def test_validate_density_matrix_matches_reference(rho):
    # The reference warns on 1e308-scale entries; the validator must not.
    with np.errstate(all="ignore"):
        expected, detail = _verdict(_reference_validate_density_matrix, rho.copy())
    verdict, got = _verdict(validate_density_matrix, rho.copy())
    if _reference_sees_overflow(rho, detail):
        assert verdict == "reject"
        return
    assert verdict == expected
    if verdict == "reject":
        assert got == detail
    else:
        assert np.array_equal(got, detail)


@pytest.mark.filterwarnings("error")
@pytest.mark.parametrize("entry, message", [
    (1.5e308, r"min eig -1\.500e\+308"),
    (complex(1.5e308, 1.5e308), r"min eig nan"),  # the norm overflows and LAPACK returns nan
])
def test_validate_rejects_exactly_hermitian_overflow(entry, message):
    # An exactly Hermitian, unit-trace matrix with one 1e308-scale pair goes
    # to eigvalsh as it is, and fails positivity without a warning.
    rho = np.eye(4, dtype=complex) / 4
    rho[0, 1], rho[1, 0] = entry, np.conj(entry)
    with pytest.raises(ValueError, match=rf"^density matrix not positive semidefinite \({message}\)$"):
        validate_density_matrix(rho)


def test_validate_reports_unconverged_eigvalsh_as_not_positive(monkeypatch):
    def unconverged(matrix):
        raise np.linalg.LinAlgError("Eigenvalues did not converge")

    monkeypatch.setattr(np.linalg, "eigvalsh", unconverged)
    rho = np.diag([0.5, 0.5, 0.25, -0.25]).astype(complex)
    with pytest.raises(ValueError, match=r"^density matrix not positive semidefinite \(min eig nan\)$"):
        validate_density_matrix(rho)


def _pipeline_states():
    """The paper's states: the four coherences, each preset's prepared
    targets at three polarizations, and those propagated over the CLI grid."""
    states = [coherence_state(kind) for kind in COHERENCE_KINDS]
    for preset in PRESETS.values():
        for kind in COHERENCE_KINDS:
            for epsilon in (0.05, 0.5, 1.0):
                rho = prepare_target(kind, preset.system, epsilon)
                states.append(rho)
                states.extend(propagate(rho, preset.noise, default_time_grid()))
    return states


def test_discs_decide_the_pipeline_states_without_eigvalsh(monkeypatch):
    states = _pipeline_states()
    calls = []
    eigvalsh = np.linalg.eigvalsh
    monkeypatch.setattr(np.linalg, "eigvalsh", lambda a: calls.append(a) or eigvalsh(a))
    for rho in states:
        assert validate_density_matrix(rho) is rho
    assert calls == []
    # |++><++| is a state, but its discs reach down to -1/2: eigvalsh decides.
    plus = np.full((4, 4), 0.25, dtype=complex)
    assert validate_density_matrix(plus) is plus
    assert len(calls) == 1


@pytest.mark.parametrize("edge", TRACE_EDGES)
@pytest.mark.parametrize("fortran_order", [False, True])
def test_stack_trace_check_rounds_like_single_check(edge, fortran_order):
    # The trace is summed pairwise from four entries, whatever the layout.
    if fortran_order:
        edge = np.asfortranarray(edge)
    with pytest.raises(ValueError, match=r"^density matrix trace != 1"):
        validate_density_matrix(edge)


def test_stack_positivity_check_takes_the_hermitian_part():
    # A state within herm_tol of Hermitian whose Hermitian part has its least
    # eigenvalue just under the floor, while the lower triangle that eigvalsh
    # reads would pass alone: the check must hand eigvalsh the Hermitian part.
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


@pytest.mark.parametrize("shape", [(0, 4, 4), (1, 4, 4), (3, 4, 4)])
def test_validate_rejects_stacks(shape):
    stack = np.broadcast_to(np.eye(4) / 4, shape)
    with pytest.raises(ValueError, match=rf"^density matrix must be 4x4, got shape \({shape[0]}, 4, 4\)$"):
        validate_density_matrix(stack)


def test_single_state_functions_reject_stacks():
    from spinpair.tomography import simulate_readout

    stack = np.stack([np.eye(4) / 4] * 4)
    with pytest.raises(ValueError, match=r"must be 4x4, got shape \(4, 4, 4\)"):
        simulate_readout(stack, "II")


@pytest.mark.parametrize("target", ["ZQ", "DQ"])
@pytest.mark.parametrize("system", [
    SpinSystem(nu1=100.0, nu2=400.0, j12=1e-308),  # 1/(2 J12) overflows the phase
    SpinSystem(nu1=100.0, nu2=400.0, j12=5e-324),
    SpinSystem(nu1=1.7e308, nu2=1.6e308, j12=4.2),  # finite, but far above the bound
    SpinSystem(nu1=1.7e308, nu2=-1.7e308, j12=4.2),  # 2 pi (nu1 - frame) overflows
])
def test_prepare_rejects_infinite_phase(target, system):
    with pytest.raises(ValueError, match=r"phase of each half must be at most 1048576 rad \(J12 = "
                                         r".*, nu1 = .*, nu2 = .* Hz\)$"):
        prepare_target(target, system, 1.0)


@pytest.mark.parametrize("target", ["ZQ", "DQ"])
def test_prepare_phase_bound_keeps_the_echo_exact(target):
    # In the midpoint frame the largest |H| entry is pi |nu1 - nu2| + pi J12 / 2
    # rad/s, turned over half the delay, tau / 2 = 1 / (4 J12).  Just inside the
    # bound the echo cancels the shift phases down to rounding; just outside
    # it the shifts are rejected.
    def at(fraction, j12=4.2):
        offset = fraction * MAX_HALF_DELAY_PHASE * 4.0 * j12 / math.pi - 0.5 * j12
        return SpinSystem(nu1=BTC.nu2 + offset, nu2=BTC.nu2, j12=j12)

    moved = prepare_target(target, at(0.9), 1.0) - coherence_state(target)
    assert np.abs(moved).max() < 1e-10
    with pytest.raises(ValueError, match="phase of each half must be at most"):
        prepare_target(target, at(1.01), 1.0)


def _echo_reference(kind, system, epsilon):
    """ZQ/DQ preparation with the half-delay from free_evolution's eigh."""
    h = hamiltonian(system, 0.5 * system.nu1 + 0.5 * system.nu2)
    half = free_evolution(h, 1.0 / (4.0 * abs(system.j12)))
    refocus = pulse(np.pi, "x", "both")
    select = pulse(np.pi / 2.0, "-x" if kind == "ZQ" else "x", "spin1")
    u = select @ refocus @ half @ refocus @ half @ pulse(np.pi / 2.0, "y", "both")
    return u @ pseudopure_00(epsilon) @ u.conj().T


def _hamiltonian_rebuilt(system, nu_rf):
    i1z, i2z = angular_momentum(1, "z"), angular_momentum(2, "z")
    two_pi = 2.0 * np.pi
    return (-two_pi * (system.nu1 - nu_rf) * i1z - two_pi * (system.nu2 - nu_rf) * i2z
            + two_pi * system.j12 * (i1z @ i2z))


def _echo_systems():
    cases = [(preset.system, epsilon) for preset in PRESETS.values() for epsilon in (0.05, 0.5, 1.0)]
    rng = np.random.default_rng(17)
    for k in range(200):
        j12 = rng.choice([-1.0, 1.0]) * 10.0 ** rng.uniform(-2.0, 3.0)
        # Every fourth system turns 0.9 of the bound, the others a log-uniform
        # share of it, large enough that |nu1 - nu2| > 10 |J12| (no warning).
        fraction = 0.9 if k % 4 == 0 else 10.0 ** rng.uniform(-4.5, math.log10(0.9))
        offset = fraction * MAX_HALF_DELAY_PHASE * 4.0 * abs(j12) / math.pi - 0.5 * abs(j12)
        nu2 = rng.uniform(-1.0, 1.0) * 10.0 ** rng.uniform(0.0, 8.0)
        system = SpinSystem(nu1=nu2 + rng.choice([-1.0, 1.0]) * offset, nu2=nu2, j12=j12)
        cases.append((system, float(rng.uniform(0.01, 1.0))))
    return cases


def test_elementwise_half_delay_is_the_echo():
    for system, epsilon in _echo_systems():
        for kind in ("ZQ", "DQ"):
            assert np.array_equal(prepare_target(kind, system, epsilon),
                                  _echo_reference(kind, system, epsilon)), (kind, system)
        for nu_rf in (0.0, 0.5 * system.nu1 + 0.5 * system.nu2):
            assert hamiltonian(system, nu_rf).tobytes() == _hamiltonian_rebuilt(system, nu_rf).tobytes()
