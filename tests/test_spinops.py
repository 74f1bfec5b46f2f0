import dataclasses
import math
import re

import numpy as np
import pytest

from oracles import suggested_times
from spinpair.channels import NoiseParams
from spinpair.estimation import KIND_DQ, KIND_ZQ, fit_noise_model, synthetic_curve
from spinpair.evolution import default_time_grid
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


@pytest.mark.filterwarnings("error")
def test_spin_system_stores_numpy_numbers_as_plain_floats():
    # The shift difference overflows to inf quietly, as it does for Python floats.
    system = SpinSystem(np.float64(1.7e308), np.float64(-1.7e308), 1)
    assert [type(v) for v in (system.nu1, system.nu2, system.j12)] == [float] * 3
    assert system == SpinSystem(1.7e308, -1.7e308, 1.0)


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


@pytest.mark.filterwarnings("error")
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
    # H - H^H overflows to inf, and inf - inf on an infinite diagonal is nan: both fail quietly.
    for h in (np.array([[1e308, 1.7e308], [-1.7e308, 0.0]]), np.diag([np.inf, 1.0])):
        with pytest.raises(ValueError, match="^free_evolution requires a Hermitian generator$"):
            free_evolution(h, 0.1)


@pytest.mark.parametrize("shape", [(4, 3), (3, 4), (0, 0), (4,), (2, 4, 4)])
def test_free_evolution_rejects_non_square_h(shape):
    with pytest.raises(ValueError, match=rf"^free_evolution requires a non-empty square H, "
                                         rf"got shape {re.escape(str(shape))}$"):
        free_evolution(np.zeros(shape), 0.1)


@pytest.mark.filterwarnings("error")
@pytest.mark.parametrize("system, nu_rf", [
    (SpinSystem(nu1=1.7e308, nu2=-1.7e308, j12=1.0), 0.0),  # 2 pi (nu1 - nu_rf) overflows
    (SpinSystem(nu1=2.8e307, nu2=-2.8e307, j12=5e306), 0.0),  # each 2 pi nu is finite, an entry is not
    (SpinSystem(nu1=1.0, nu2=2.0, j12=0.1), -1.7e308),  # nu1 - nu_rf is finite, 2 pi times it is not
])
def test_hamiltonian_rejects_overflow(system, nu_rf):
    with pytest.raises(ValueError, match=r"^hamiltonian overflows in rad/s \(nu1 = .*, nu2 = .*, "
                                         r"J12 = .*, nu_rf = .* Hz\)$"):
        hamiltonian(system, nu_rf)


def test_hamiltonian_raises_exactly_where_its_formula_overflows():
    # Near the largest float, hamiltonian either raises or returns the
    # formula's matrix bit for bit, and the formula is finite just when it returns.
    i1z, i2z = angular_momentum(1, "z"), angular_momentum(2, "z")
    two_pi = 2.0 * np.pi
    rng = np.random.default_rng(29)
    raised = 0
    for _ in range(2000):
        with np.errstate(over="ignore"):
            nu1, nu2, nu_rf = (rng.choice([-1.0, 1.0], 3) * 10.0 ** rng.uniform(306.0, 308.2, 3)).tolist()
        j12 = float(rng.choice([-1.0, 1.0]) * 10.0 ** rng.uniform(300.0, 307.5))
        if not all(map(math.isfinite, (nu1, nu2, nu_rf))) or abs(nu1 - nu2) < 10.0 * abs(j12):
            continue
        system = SpinSystem(nu1=nu1, nu2=nu2, j12=j12)
        with np.errstate(over="ignore", invalid="ignore"):
            expected = (-two_pi * (system.nu1 - nu_rf) * i1z - two_pi * (system.nu2 - nu_rf) * i2z
                        + two_pi * system.j12 * (i1z @ i2z))
        try:
            h = hamiltonian(system, nu_rf)
        except ValueError:
            raised += 1
            assert not np.isfinite(expected).all()
        else:
            assert h.tobytes() == expected.tobytes()
    assert 100 < raised < 1900


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


# ----------------------------------------------------------------------
# One finite-number rule for every scalar argument
# ----------------------------------------------------------------------

_BTC_NOISE = NoiseParams(3.741, 3.048, 5.876, 0.264, 0.255)
_ZQ_DQ = [synthetic_curve(kind, _BTC_NOISE, suggested_times(kind, _BTC_NOISE)) for kind in (KIND_ZQ, KIND_DQ)]
_FIXED = {"gamma1": 3.741, "gamma2": 3.048, "Gamma1": 0.264}

# Each scalar argument, keyed by the name its ValueError gives, as a call of its value.
SCALAR_ARGUMENTS = {
    "SpinSystem.nu1": lambda v: SpinSystem(v, 400.0, 4.0),
    "SpinSystem.nu2": lambda v: SpinSystem(100.0, v, 4.0),
    "SpinSystem.j12": lambda v: SpinSystem(100.0, 400.0, v),
    "NoiseParams.gamma1": lambda v: NoiseParams(v, 2.0, 0.0, 1.0, 1.0),
    "NoiseParams.gamma2": lambda v: NoiseParams(2.0, v, 0.0, 1.0, 1.0),
    "NoiseParams.gamma3": lambda v: NoiseParams(2.0, 2.0, v, 1.0, 1.0),
    "NoiseParams.Gamma1": lambda v: NoiseParams(2.0, 2.0, 0.0, v, 1.0),
    "NoiseParams.Gamma2": lambda v: NoiseParams(2.0, 2.0, 0.0, 1.0, v),
    "NoiseParams.nbar": lambda v: NoiseParams(2.0, 2.0, 0.0, 1.0, 1.0, v),
    "nu_rf": lambda v: hamiltonian(SpinSystem(100.0, 400.0, 4.0), v),
    "angle": lambda v: pulse(v, "x", "both"),
    "epsilon": pseudopure_00,
    "start": lambda v: default_time_grid(start=v),
    "stop": lambda v: default_time_grid(stop=v),
    "fixed rate 'Gamma2'": lambda v: fit_noise_model(_ZQ_DQ, fixed={**_FIXED, "Gamma2": v}),
}

NOT_FINITE_REAL = {
    "nan": math.nan,
    "inf": math.inf,
    "-inf": -math.inf,
    "np.float64 nan": np.float64(math.nan),
    "10**400": 10**400,
    "-10**400": -(10**400),
    "1+1j": 1 + 1j,
    "1+0j": 1 + 0j,
    "numeric str": "1.0",
    "None": None,
}


@pytest.mark.filterwarnings("error")
@pytest.mark.parametrize("value", NOT_FINITE_REAL.values(), ids=NOT_FINITE_REAL.keys())
@pytest.mark.parametrize("name", SCALAR_ARGUMENTS)
def test_scalar_argument_must_be_a_finite_real_number(name, value):
    if name.startswith("fixed rate"):
        message = rf"^{re.escape(name)} = .* must be a finite non-negative number$"
    else:
        message = rf"^{re.escape(name)}: must be a finite real number, got "
    with pytest.raises(ValueError, match=message):
        SCALAR_ARGUMENTS[name](value)


def _bits(result):
    """`result` with its floats as hex digits and its arrays as bytes, so that == is bitwise."""
    if isinstance(result, np.ndarray):
        return result.dtype.str, result.shape, result.tobytes()
    if hasattr(result, "to_dict"):
        return _bits(result.to_dict())
    if dataclasses.is_dataclass(result):
        return _bits(dataclasses.asdict(result))
    if isinstance(result, dict):
        return {key: _bits(item) for key, item in result.items()}
    if isinstance(result, float):
        return "float", result.hex()
    return result


@pytest.mark.filterwarnings("error")
@pytest.mark.parametrize("name, value", [
    *((name, 1.0) for name in SCALAR_ARGUMENTS if name not in ("NoiseParams.nbar", "stop")),
    ("NoiseParams.gamma3", -3.0), ("NoiseParams.Gamma1", 0.0), ("nu_rf", 4445.0), ("angle", -3.0),
    ("epsilon", 0.0), ("stop", 12.0), ("fixed rate 'Gamma2'", 0.0),
])
def test_real_argument_of_each_type_gives_the_float_result(name, value):
    # Python ints and bools, and numpy's integer and float scalars, are the
    # float they equal, bit for bit.
    call = SCALAR_ARGUMENTS[name]
    expected = _bits(call(value))
    same = [int(value), np.float64(value), np.int64(value), *([bool(value)] if value in (0.0, 1.0) else [])]
    for variant in same:
        assert _bits(call(variant)) == expected, repr(variant)
