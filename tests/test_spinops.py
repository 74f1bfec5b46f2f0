import math

import numpy as np
import pytest

from spinpair.spinops import (
    SpinSystem,
    _kron2,
    angular_momentum,
    free_evolution,
    hamiltonian,
    pauli,
    pulse,
)
from spinpair.states import pseudopure_00


def test_kron2_equals_np_kron_bit_for_bit():
    rng = np.random.default_rng(48)
    for _ in range(500):
        a, b = rng.standard_normal((2, 2, 2)) + 1j * rng.standard_normal((2, 2, 2))
        assert _kron2(a, b).tobytes() == np.kron(a, b).tobytes()


def test_pauli_z_diagonals():
    assert np.allclose(pauli(1, "z"), np.diag([1, 1, -1, -1]))
    assert np.allclose(pauli(2, "z"), np.diag([1, -1, 1, -1]))


@pytest.mark.parametrize("spin", [1, 2])
@pytest.mark.parametrize("axis", ["x", "y", "z"])
def test_pauli_hermitian_involution(spin, axis):
    op = pauli(spin, axis)
    assert np.allclose(op, op.conj().T)
    assert np.allclose(op @ op, np.eye(4))


def test_pauli_commutation_across_spins():
    a = pauli(1, "x")
    b = pauli(2, "y")
    assert np.allclose(a @ b, b @ a)


def test_pauli_rejects_bad_arguments():
    with pytest.raises(ValueError):
        pauli(3, "x")
    with pytest.raises(ValueError):
        pauli(1, "w")


def test_angular_momentum_is_half_pauli():
    for spin in (1, 2):
        for axis in ("x", "y", "z"):
            assert np.allclose(angular_momentum(spin, axis), pauli(spin, axis) / 2)


def test_hamiltonian_on_resonance_no_coupling():
    system = SpinSystem(nu1=100.0, nu2=350.0, j12=0.0)
    h = hamiltonian(system, nu_rf=100.0)
    expected = -2 * np.pi * (350.0 - 100.0) * angular_momentum(2, "z")
    assert np.allclose(h, expected)


def test_hamiltonian_btc_parameters_accepted():
    system = SpinSystem(nu1=4602.4, nu2=4287.0, j12=4.2, name="BTC acid")
    h = hamiltonian(system, nu_rf=0.5 * (4602.4 + 4287.0))
    assert np.allclose(h, np.diag(np.diag(h)))
    assert np.allclose(h, h.conj().T)
    assert system.j12 == 4.2


def test_hamiltonian_diagonal_and_traceless():
    system = SpinSystem(nu1=-120.0, nu2=80.0, j12=5.0)
    h = hamiltonian(system, nu_rf=12.0)
    assert np.allclose(h, np.diag(np.diag(h)))
    assert abs(np.trace(h)) < 1e-9


def test_hamiltonian_linear_in_frequencies():
    nu_rf = 0.0
    a = SpinSystem(nu1=100.0, nu2=250.0, j12=3.0)
    b = SpinSystem(nu1=40.0, nu2=700.0, j12=11.0)
    combined = SpinSystem(nu1=a.nu1 + b.nu1, nu2=a.nu2 + b.nu2, j12=a.j12 + b.j12)
    # Offsets add linearly only for a fixed rotating frame; the frame term
    # itself enters twice, so compare against the zero-frequency frame.
    assert np.allclose(
        hamiltonian(combined, nu_rf),
        hamiltonian(a, nu_rf) + hamiltonian(b, nu_rf),
        atol=1e-9,
    )


def test_spin_system_warns_when_not_weakly_coupled():
    with pytest.warns(UserWarning, match="weak-coupling"):
        SpinSystem(nu1=10.0, nu2=20.0, j12=9.0)


def test_spin_system_rejects_equal_shifts():
    with pytest.raises(ValueError):
        SpinSystem(nu1=50.0, nu2=50.0, j12=2.0)


def test_pulse_pi_inverts_population():
    rho = pseudopure_00(1.0)
    u = pulse(np.pi, "x", "both")
    flipped = u @ rho @ u.conj().T
    assert np.allclose(flipped, np.diag([0, 0, 0, 1.0]), atol=1e-12)


def test_pulse_zero_angle_is_identity():
    assert np.allclose(pulse(0.0, "y", "spin1"), np.eye(4))


def test_pulse_half_pi_y_creates_sq_superposition():
    ket00 = np.array([1, 0, 0, 0], dtype=complex)
    out = pulse(np.pi / 2, "y", "spin1") @ ket00
    expected = np.array([1, 0, 1, 0], dtype=complex) / np.sqrt(2)
    assert np.allclose(out, expected, atol=1e-12)


def test_pulse_negative_axis_inverts_rotation():
    u = pulse(0.77, "x", "spin2")
    v = pulse(0.77, "-x", "spin2")
    assert np.allclose(u @ v, np.eye(4), atol=1e-12)


def test_pulse_unitarity_random():
    rng = np.random.default_rng(42)
    for _ in range(50):
        angle = rng.uniform(-4 * np.pi, 4 * np.pi)
        axis = rng.choice(["x", "-x", "y", "-y"])
        target = rng.choice(["spin1", "spin2", "both"])
        u = pulse(angle, axis, target)
        assert np.abs(u @ u.conj().T - np.eye(4)).max() <= 1e-12


def test_pulse_rejects_bad_arguments():
    with pytest.raises(ValueError):
        pulse(1.0, "z", "both")
    with pytest.raises(ValueError):
        pulse(1.0, "x", "everything")
    with pytest.raises(ValueError):
        pulse(np.nan, "x", "both")


def test_free_evolution_zero_time():
    system = SpinSystem(nu1=100.0, nu2=350.0, j12=5.0)
    h = hamiltonian(system, 0.0)
    assert np.allclose(free_evolution(h, 0.0), np.eye(4))


def test_free_evolution_diagonal_phases():
    h = np.diag([1.0, -2.0, 0.5, 3.0]).astype(complex)
    tau = 0.37
    u = free_evolution(h, tau)
    assert np.allclose(u, np.diag(np.exp(-1j * np.diag(h) * tau)))


def test_free_evolution_j_coupling_quarter_phases():
    # tau = 1/(2J) under the pure coupling term gives phases of magnitude pi/4
    # with the (-, +, +, -) pattern; oracle evaluated from the diagonal directly.
    j = 7.3
    h = 2 * np.pi * j * (angular_momentum(1, "z") @ angular_momentum(2, "z"))
    u = free_evolution(h, 1.0 / (2 * j))
    expected = np.diag(np.exp(-1j * np.diag(h) * (1.0 / (2 * j))))
    assert np.allclose(u, expected, atol=1e-12)
    pattern = np.exp(-1j * np.pi / 4 * np.array([1, -1, -1, 1]))
    assert np.allclose(np.diag(u), pattern, atol=1e-12)


def test_free_evolution_unitary_random():
    rng = np.random.default_rng(3)
    for _ in range(20):
        system = SpinSystem(nu1=rng.uniform(50, 500), nu2=rng.uniform(600, 900), j12=rng.uniform(1, 4))
        u = free_evolution(hamiltonian(system, 0.0), rng.uniform(0, 0.2))
        assert np.abs(u @ u.conj().T - np.eye(4)).max() <= 1e-12


def test_free_evolution_rejects_negative_time_and_nonhermitian():
    for tau in (-0.1, math.nan, math.inf):
        with pytest.raises(ValueError, match="tau must be finite and non-negative"):
            free_evolution(np.eye(4), tau)
    with pytest.raises(ValueError, match="Hermitian"):
        free_evolution(np.array([[0, 1], [0, 0]], dtype=complex), 0.1)
    # 10 rad/s off Hermitian, but within allclose's default rtol of a 1e6 entry.
    h = np.diag([1e6, 2e6, 3e6, 4e6]).astype(complex)
    h[0, 1], h[1, 0] = 1e6 + 10.0, 1e6
    with pytest.raises(ValueError, match="Hermitian"):
        free_evolution(h, 0.1)


def test_echo_sandwich_cancels_chemical_shift():
    system = SpinSystem(nu1=150.0, nu2=-80.0, j12=7.0)
    h_full = hamiltonian(system, 0.0)
    h_j_only = 2 * np.pi * system.j12 * (angular_momentum(1, "z") @ angular_momentum(2, "z"))
    tau = 0.0123
    refocus = pulse(np.pi, "x", "both")
    half = free_evolution(h_full, tau / 2)
    echo = refocus @ half @ refocus @ half
    plain_j = free_evolution(h_j_only, tau)

    u_excite = pulse(np.pi / 2, "y", "both")
    rho0 = u_excite @ pseudopure_00(1.0) @ u_excite.conj().T
    rho_echo = echo @ rho0 @ echo.conj().T
    rho_j = plain_j @ rho0 @ plain_j.conj().T
    assert np.abs(np.abs(rho_echo) - np.abs(rho_j)).max() < 1e-12
