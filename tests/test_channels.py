import math
from dataclasses import asdict
from fractions import Fraction

import numpy as np
import pytest
from hypothesis import assume, given, settings
from hypothesis import strategies as st

from conftest import random_cp_params, random_density_matrix
from spinpair.channels import (
    NoiseParams,
    NotCompletelyPositive,
    apply_kraus,
    choi_matrix,
    correlated_mixture,
    devectorize,
    full_generator,
    gad_apply,
    gad_generator_single,
    is_trace_preserving_generator,
    jump_operators,
    lindblad_generator,
    phase_damping_apply,
    phase_damping_generator,
    preserves_hermiticity,
    trace_functional,
    vectorize,
)
from spinpair.evolution import matrix_exp, superoperator
from spinpair.spinops import SIGMA, pauli


def random_rho2(rng):
    a = rng.standard_normal((2, 2)) + 1j * rng.standard_normal((2, 2))
    rho = a @ a.conj().T
    return rho / rho.trace().real


def pd_kraus(gamma, t):
    """Dephasing Kraus pair {sqrt(1-p) I, sqrt(p) sigma_z} with 1-2p = exp(-gamma t)."""
    p = 0.5 * (1.0 - np.exp(-gamma * t))
    return [np.sqrt(1 - p) * np.eye(2), np.sqrt(p) * SIGMA["z"]]


def gad_kraus_high_t(rate, t):
    """Standard GAD Kraus family at nbar = 1/2."""
    lam = 1.0 - np.exp(-rate * t)
    root = np.sqrt(0.5)
    return [
        root * np.array([[1, 0], [0, np.sqrt(1 - lam)]]),
        root * np.array([[0, np.sqrt(lam)], [0, 0]]),
        root * np.array([[np.sqrt(1 - lam), 0], [0, 1]]),
        root * np.array([[0, 0], [np.sqrt(lam), 0]]),
    ]


# ----------------------------------------------------------------------
# NoiseParams
# ----------------------------------------------------------------------


def test_noise_params_defaults_and_dict():
    p = NoiseParams(1.0, 2.0, 0.5, 0.1, 0.2)
    assert p.nbar == 0.5
    assert asdict(p)["gamma3"] == 0.5


def test_noise_params_rejects_negative_rates():
    with pytest.raises(ValueError):
        NoiseParams(-1.0, 1.0, 0.0, 0.0, 0.0)
    with pytest.raises(ValueError):
        NoiseParams(1.0, 1.0, 0.0, -0.5, 0.0)


def test_noise_params_gamma3_bounds():
    NoiseParams(1.0, 1.0, -1.9, 0.0, 0.0)  # negative gamma3 allowed within bounds
    with pytest.raises(ValueError, match="gamma3"):
        NoiseParams(1.0, 1.0, 2.5, 0.0, 0.0)
    with pytest.raises(ValueError, match="gamma3"):
        NoiseParams(1.0, 1.0, -2.5, 0.0, 0.0)


def test_noise_params_strict_cp_condition():
    NoiseParams(1.0, 1.0, 1.9, 0.0, 0.0)
    NoiseParams(1.0, 1.0, -2.0, 0.0, 0.0)  # on the boundary
    # Diagonal-rate condition holds but the dephasing rate matrix is indefinite.
    with pytest.raises(NotCompletelyPositive, match=r"^\|gamma3\| = 3 exceeds 2 sqrt\(gamma1 gamma2\), "
                       "so the generator is not completely positive$"):
        NoiseParams(4.0, 0.25, 3.0, 0.0, 0.0)
    # Square roots: gamma3^2 and 4 gamma1 gamma2 would both underflow to 0.
    NoiseParams(1e-300, 1e-300, 2e-300, 0.0, 0.0)
    with pytest.raises(ValueError, match="gamma3"):
        NoiseParams(1e-300, 1e-300, 2.1e-300, 0.0, 0.0)
    NoiseParams(1e-300, 4e-300, 4e-300, 0.0, 0.0)
    with pytest.raises(NotCompletelyPositive, match="gamma3"):
        NoiseParams(1e-300, 4e-300, 4.1e-300, 0.0, 0.0)
    # Subnormal rates: 2 sqrt(1) sqrt(3) = 3.46 units of 5e-324 would round to 4.
    with pytest.raises(NotCompletelyPositive):
        NoiseParams(5e-324, 3 * 5e-324, 4 * 5e-324, 0.0, 0.0)
    NoiseParams(5e-324, 3 * 5e-324, 3 * 5e-324, 0.0, 0.0)
    for name in ("btc", "cytosine", "coumarin"):
        from spinpair.presets import get_preset

        NoiseParams(**asdict(get_preset(name).noise))


def test_noise_params_diagonal_clause_guards_rounding():
    # 2 sqrt(2) sqrt(2) rounds to 4.000000000000001, so gamma3 at that value
    # passes the square-root test while gamma1 + gamma2 - gamma3 < 0; without
    # the diagonal clause the ZQ or DQ rate of the closed form would be
    # negative, and that coherence would grow.
    g3 = 2.0 * np.sqrt(2.0) * np.sqrt(2.0)
    assert g3 > 4.0 and 2.0 + 2.0 - g3 < 0
    for sign in (1.0, -1.0):
        with pytest.raises(ValueError, match="negative diagonal decay rate"):
            NoiseParams(2.0, 2.0, sign * g3, 0.0, 0.0)
    # The boundary itself is admissible and builds a generator.
    assert full_generator(NoiseParams(2.0, 2.0, 4.0, 0.0, 0.0)).real.max() == 0.0


# Dephasing rates from subnormals through 1e-300 to 1e300.
_rate = st.one_of(
    st.just(0.0),
    st.integers(1, 2**20).map(lambda k: k * 5e-324),  # subnormal
    st.floats(0.5, 2.0).map(lambda x: x * 1e-300),
    st.floats(0.0, 1e300, allow_subnormal=True),
    st.floats(0.5, 2.0).map(lambda x: x * 1e300),
)


@st.composite
def _dephasing_rates(draw):
    """(gamma1, gamma2, gamma3) with gamma3 often near the CP boundary."""
    g1, g2 = draw(_rate), draw(_rate)
    bound = 2.0 * math.sqrt(g1) * math.sqrt(g2)
    near = st.sampled_from([1.0, 1.0 - 1e-12, 1.0 + 1e-12, 1.0 - 1e-9, 1.0 + 1e-9]) | st.floats(0.5, 1.5)
    g3 = draw(st.one_of(_rate, near.map(lambda f: f * bound)))
    return g1, g2, -g3 if draw(st.booleans()) else g3


@settings(max_examples=2000, deadline=None, derandomize=True)
@given(_dephasing_rates())
def test_noise_params_cp_verdict_matches_exact_oracle(rates):
    # Exact rational arithmetic: gamma3^2 <= 4 gamma1 gamma2 and
    # gamma1 + gamma2 >= |gamma3|.  Verdicts may differ only within 1e-12
    # relative of the boundary |gamma3| = 2 sqrt(gamma1 gamma2).
    g1, g2, g3 = (Fraction(r) for r in rates)
    square, bound_square = g3 * g3, 4 * g1 * g2
    exact = square <= bound_square and g1 + g2 >= abs(g3)
    margin = Fraction(1e-12)
    if (1 - margin) ** 2 * bound_square <= square <= (1 + margin) ** 2 * bound_square:
        return
    try:
        NoiseParams(*rates, 0.0, 0.0)
        admitted = True
    except ValueError:
        admitted = False
    assert admitted == exact


# ----------------------------------------------------------------------
# Kraus application
# ----------------------------------------------------------------------


def test_apply_kraus_identity_channel():
    rng = np.random.default_rng(0)
    rho = random_density_matrix(rng)
    assert np.allclose(apply_kraus(rho, [np.eye(4)]), rho)


def test_apply_kraus_bit_flip():
    rng = np.random.default_rng(1)
    rho = random_density_matrix(rng)
    x1 = pauli(1, "x")
    assert np.allclose(apply_kraus(rho, [x1]), x1 @ rho @ x1)


def test_apply_kraus_preserves_trace():
    rng = np.random.default_rng(2)
    rho = random_density_matrix(rng)
    kraus = [np.kron(e, np.eye(2)) for e in pd_kraus(1.3, 0.4)]
    out = apply_kraus(rho, kraus)
    assert out.trace().real == pytest.approx(1.0, abs=1e-12)


def test_apply_kraus_rejects_incomplete_set():
    rho = np.eye(4) / 4
    with pytest.raises(ValueError, match="completeness"):
        apply_kraus(rho, [0.5 * np.eye(4)])


def test_correlated_mixture_limits():
    rng = np.random.default_rng(3)
    rho = random_density_matrix(rng)
    singles = pd_kraus(2.0, 0.3)
    product = [np.kron(a, b) for a in singles for b in singles]
    same_index = [np.kron(a, a) for a in singles]
    norm = np.sqrt(sum(np.trace(e.conj().T @ e).real for e in same_index) / 4.0)
    correlated = [e / norm for e in same_index]

    assert np.allclose(correlated_mixture(rho, product, correlated, 0.0), apply_kraus(rho, product))
    assert np.allclose(correlated_mixture(rho, product, correlated, 1.0), apply_kraus(rho, correlated))
    halfway = correlated_mixture(rho, product, correlated, 0.5)
    assert np.allclose(halfway, 0.5 * apply_kraus(rho, product) + 0.5 * apply_kraus(rho, correlated))


def test_correlated_mixture_identity_families():
    rng = np.random.default_rng(4)
    rho = random_density_matrix(rng)
    identity = [np.eye(4)]
    assert np.allclose(correlated_mixture(rho, identity, identity, 0.5), rho)


def test_correlated_mixture_rejects_bad_mu():
    rho = np.eye(4) / 4
    with pytest.raises(ValueError, match="mu"):
        correlated_mixture(rho, [np.eye(4)], [np.eye(4)], 1.5)


# ----------------------------------------------------------------------
# Single-spin phase damping
# ----------------------------------------------------------------------


def test_phase_damping_examples():
    rho = np.array([[0.6, 0.5], [0.5, 0.4]], dtype=complex)
    assert np.allclose(phase_damping_apply(rho, 1.7, 0.0), rho)
    out = phase_damping_apply(rho, 1.0, np.log(2.0))
    assert out[0, 1] == pytest.approx(0.25)
    assert out[0, 0] == pytest.approx(0.6)
    late = phase_damping_apply(rho, 1.0, 1e6)
    assert abs(late[0, 1]) < 1e-15
    assert np.allclose(np.diag(late), np.diag(rho))


def test_phase_damping_matches_kraus():
    rng = np.random.default_rng(5)
    rho = random_rho2(rng)
    gamma, t = 0.8, 0.9
    assert np.allclose(
        phase_damping_apply(rho, gamma, t),
        sum(e @ rho @ e.conj().T for e in pd_kraus(gamma, t)),
        atol=1e-12,
    )


def test_phase_damping_generator_matrix():
    assert np.allclose(phase_damping_generator(0.0), np.zeros((4, 4)))
    assert np.allclose(phase_damping_generator(2.0), np.diag([0.0, -2.0, -2.0, 0.0]))
    with pytest.raises(ValueError):
        phase_damping_generator(-1.0)


def test_phase_damping_generator_exponentiates_to_map():
    rng = np.random.default_rng(6)
    for _ in range(10):
        rho = random_rho2(rng)
        gamma = rng.uniform(0.0, 3.0)
        t = rng.uniform(0.0, 2.0)
        via_generator = devectorize(matrix_exp(phase_damping_generator(gamma) * t) @ vectorize(rho))
        assert np.abs(via_generator - phase_damping_apply(rho, gamma, t)).max() < 1e-10


# ----------------------------------------------------------------------
# Generalized amplitude damping
# ----------------------------------------------------------------------


def test_gad_apply_identity_at_zero_time():
    rng = np.random.default_rng(7)
    rho = random_rho2(rng)
    assert np.allclose(gad_apply(rho, 1.4, 0.3, 0.0), rho)


def test_gad_apply_fixed_points():
    rho = np.array([[0.9, 0.2], [0.2, 0.1]], dtype=complex)
    hot = gad_apply(rho, 1.0, 0.5, 1e4)
    assert np.allclose(hot, np.eye(2) / 2, atol=1e-12)
    cold = gad_apply(rho, 1.0, 0.0, 1e4)
    assert np.allclose(cold, np.diag([1.0, 0.0]), atol=1e-12)


def test_gad_apply_preserves_trace_and_hermiticity():
    rng = np.random.default_rng(8)
    for _ in range(5):
        rho = random_rho2(rng)
        out = gad_apply(rho, rng.uniform(0, 2), rng.uniform(0, 1), rng.uniform(0, 3))
        assert out.trace().real == pytest.approx(1.0, abs=1e-12)
        assert np.abs(out - out.conj().T).max() < 1e-12


def test_gad_generator_single_matrix():
    expected = -1.0 * np.array(
        [
            [0.5, 0.0, 0.0, -0.5],
            [0.0, 0.5, 0.0, 0.0],
            [0.0, 0.0, 0.5, 0.0],
            [-0.5, 0.0, 0.0, 0.5],
        ]
    )
    assert np.allclose(gad_generator_single(1.0), expected)
    assert np.allclose(gad_generator_single(0.0), np.zeros((4, 4)))


def test_gad_generator_single_exponentiates_to_map():
    rng = np.random.default_rng(9)
    for _ in range(10):
        rho = random_rho2(rng)
        rate = rng.uniform(0.0, 3.0)
        t = rng.uniform(0.0, 2.0)
        via_generator = devectorize(matrix_exp(gad_generator_single(rate) * t) @ vectorize(rho))
        assert np.abs(via_generator - gad_apply(rho, rate, 0.5, t)).max() < 1e-10


def spin_embedding(spin):
    """Embed a single-spin operator on the given spin of the pair."""
    return (lambda m: np.kron(m, np.eye(2))) if spin == 1 else (lambda m: np.kron(np.eye(2), m))


def damping_only(rate, spin):
    return NoiseParams(0.0, 0.0, 0.0, rate if spin == 1 else 0.0, rate if spin == 2 else 0.0)


def test_gad_generator_lifted_stationary_state():
    z = full_generator(NoiseParams(0, 0, 0, 1.7, 0.6))
    assert np.abs(z @ vectorize(np.eye(4) / 4)).max() < 1e-14
    assert np.allclose(full_generator(damping_only(0.0, 1)), np.zeros((16, 16)))


@pytest.mark.parametrize("spin", [1, 2])
def test_gad_generator_matches_lindblad_form(spin):
    rate = 1.3
    lower = np.array([[0, 1], [0, 0]], dtype=complex)
    raise_ = lower.T.conj()
    embed = spin_embedding(spin)
    ops = [np.sqrt(rate / 2) * embed(lower), np.sqrt(rate / 2) * embed(raise_)]
    assert np.abs(full_generator(damping_only(rate, spin)) - lindblad_generator(ops)).max() < 1e-12


@pytest.mark.parametrize("spin", [1, 2])
def test_gad_generator_lift_matches_two_spin_kraus(spin):
    rng = np.random.default_rng(10 + spin)
    rho = random_density_matrix(rng)
    rate, t = 0.9, 0.7
    kraus = [spin_embedding(spin)(e) for e in gad_kraus_high_t(rate, t)]
    via_superop = devectorize(matrix_exp(full_generator(damping_only(rate, spin)) * t) @ vectorize(rho))
    assert np.abs(via_superop - apply_kraus(rho, kraus)).max() < 1e-10


# ----------------------------------------------------------------------
# Correlated dephasing and the full generator
# ----------------------------------------------------------------------


def test_correlated_dephasing_zero_rates():
    # eigh of the zero Kossakowski matrix gives zero dephasing operators.
    for op in jump_operators(NoiseParams(0, 0, 0, 0.3, 0.4))[:2]:
        assert np.array_equal(op, np.zeros((4, 4)))


def test_correlated_dephasing_explicit_diagonal():
    z = full_generator(NoiseParams(1.0, 2.0, 2.0, 0.0, 0.0))
    expected = np.diag(
        [0, -2, -1, -5, -2, 0, -1, -1, -1, -1, 0, -2, -5, -1, -2, 0]
    ).astype(complex)
    assert np.allclose(z, expected)


def test_correlated_dephasing_symmetric_rates():
    gamma = 0.8
    z = np.diag(full_generator(NoiseParams(gamma, gamma, 0.0, 0.0, 0.0))).real
    # single-quantum positions decay at gamma, ZQ and DQ at 2 gamma
    for idx in (1, 2, 7, 11, 13, 14, 4, 8):
        assert z[idx] == pytest.approx(-gamma)
    for idx in (3, 6, 9, 12):
        assert z[idx] == pytest.approx(-2 * gamma)


def test_correlated_dephasing_reduces_to_independent_channels():
    rng = np.random.default_rng(12)
    rho = random_density_matrix(rng)
    g1, g2, t = 1.1, 0.4, 0.6
    kraus = [np.kron(a, b) for a in pd_kraus(g1, t) for b in pd_kraus(g2, t)]
    flow = matrix_exp(full_generator(NoiseParams(g1, g2, 0.0, 0.0, 0.0)) * t)
    via_superop = devectorize(flow @ vectorize(rho))
    assert np.abs(via_superop - apply_kraus(rho, kraus)).max() < 1e-10


def test_correlated_dephasing_matches_lindblad_decomposition():
    # Three operators sqrt(k1) sz1, sqrt(k2) sz2 and sqrt(kc) (sz1 + sz2)
    # carry the same Kossakowski matrix when gamma3 >= 0 and
    # min(gamma1, gamma2) >= gamma3 / 2.
    g1, g2, g3 = 2.0, 3.0, 1.0
    sz1, sz2 = pauli(1, "z"), pauli(2, "z")
    ops = [np.sqrt(g1 / 2 - g3 / 4) * sz1, np.sqrt(g2 / 2 - g3 / 4) * sz2, np.sqrt(g3 / 4) * (sz1 + sz2)]
    direct = full_generator(NoiseParams(g1, g2, g3, 0.0, 0.0))
    assert np.abs(direct - lindblad_generator(ops)).max() < 1e-12


def test_full_generator_zero_rates():
    assert np.allclose(full_generator(NoiseParams(0, 0, 0, 0, 0)), np.zeros((16, 16)))


def test_full_generator_rejects_finite_temperature():
    # The constructor is the one nbar check, so no generator, superoperator
    # or propagation is ever built at nbar != 1/2.
    for nbar in (0.05, 0.0, 1.0, 2.0):
        with pytest.raises(ValueError, match=rf"^nbar = {nbar} is not supported: the generator "
                                             r"models the infinite-temperature limit nbar = 0\.5$"):
            full_generator(NoiseParams(1.0, 1.0, 0.5, 0.2, 0.3, nbar=nbar))


def test_full_generator_pure_gad_stationary():
    z = full_generator(NoiseParams(0, 0, 0, 0.7, 1.1))
    assert np.abs(z @ vectorize(np.eye(4) / 4)).max() < 1e-14


def test_full_generator_is_sum_of_parts():
    p = NoiseParams(1.2, 0.8, 0.5, 0.3, 0.4)
    total = full_generator(p)
    parts = (
        full_generator(NoiseParams(p.gamma1, p.gamma2, p.gamma3, 0.0, 0.0))
        + full_generator(damping_only(p.Gamma1, 1))
        + full_generator(damping_only(p.Gamma2, 2))
    )
    assert np.allclose(total, parts)


def test_full_generator_distinguishes_spins():
    # Only spin 2 damped: the spin-2 coherence rho_01 decays directly at
    # Gamma2/2 while the spin-1 coherence rho_02 only couples to its partner.
    z = full_generator(NoiseParams(0, 0, 0, 0.0, 2.0))
    rho = np.zeros((4, 4), dtype=complex)
    rho[0, 1] = rho[1, 0] = 0.3
    np.fill_diagonal(rho, 0.25)
    t = 0.6
    out = devectorize(matrix_exp(z * t) @ vectorize(rho))
    assert out[0, 1] == pytest.approx(0.3 * np.exp(-1.0 * t), abs=1e-12)

    z_swapped = full_generator(NoiseParams(0, 0, 0, 2.0, 0.0))
    out_swapped = devectorize(matrix_exp(z_swapped * t) @ vectorize(rho))
    # With only spin 1 damped, rho_01 couples to rho_23 (initially zero)
    # through the damping of spin 1, giving a slower bi-exponential decay.
    expected = 0.3 * 0.5 * (1.0 + np.exp(-2.0 * t))
    assert out_swapped[0, 1] == pytest.approx(expected, abs=1e-12)


def test_full_generator_trace_and_hermiticity_preservation():
    rng = np.random.default_rng(13)
    for _ in range(20):
        z = full_generator(random_cp_params(rng))
        assert is_trace_preserving_generator(z)
        assert preserves_hermiticity(z, random_density_matrix(rng))


def test_full_generator_flow_is_completely_positive():
    rng = np.random.default_rng(14)
    for _ in range(10):
        z = full_generator(random_cp_params(rng))
        for t in (0.01, 0.1, 1.0):
            choi = choi_matrix(matrix_exp(z * t))
            assert np.abs(choi - choi.conj().T).max() < 1e-10
            assert np.linalg.eigvalsh(choi).min() >= -1e-10


# Rates over four decades, 1e-2 to 1e2 1/s; gamma3 often exactly on the CP
# boundary |gamma3| = 2 sqrt(gamma1) sqrt(gamma2), which no random_cp_params
# draw reaches.
_decade_rate = st.floats(-2.0, 2.0).map(lambda e: 10.0**e)


@st.composite
def _admissible_params(draw):
    g1, g2 = draw(_decade_rate), draw(_decade_rate)
    fraction = draw(st.sampled_from([1.0, -1.0, 1.0 - 1e-12, -(1.0 - 1e-12), 0.0]) | st.floats(-1.0, 1.0))
    g3 = fraction * 2.0 * math.sqrt(g1) * math.sqrt(g2)
    damping = st.just(0.0) | _decade_rate
    try:
        return NoiseParams(g1, g2, g3, draw(damping), draw(damping))
    except ValueError:  # the diagonal clause, where the boundary rounds up
        assume(False)


@settings(max_examples=150, deadline=None, derandomize=True)
@given(_admissible_params(), st.floats(-3.0, 1.0).map(lambda e: 10.0**e))
def test_generator_completely_positive_on_admissible_region(params, t):
    ops = jump_operators(params)
    assert all(np.all(np.isfinite(op)) for op in ops)
    z = full_generator(params)
    assert is_trace_preserving_generator(z)
    assert preserves_hermiticity(z, random_density_matrix(np.random.default_rng(16)))
    flow = matrix_exp(z * t)
    assert np.linalg.eigvalsh(choi_matrix(flow)).min() >= -1e-10
    assert np.abs(flow - superoperator(params, t)[0]).max() <= 1e-10


def test_choi_matrix_of_identity_superop():
    choi = choi_matrix(np.eye(16))
    omega = np.zeros(16)
    omega[[0, 5, 10, 15]] = 1.0
    assert np.allclose(choi, np.outer(omega, omega))


def test_trace_functional_shape():
    w = trace_functional(4)
    assert w.shape == (16,)
    assert np.flatnonzero(w).tolist() == [0, 5, 10, 15]


def test_vectorize_round_trip():
    rng = np.random.default_rng(15)
    rho = random_density_matrix(rng)
    assert np.allclose(devectorize(vectorize(rho)), rho)
    assert vectorize(rho)[1] == rho[0, 1]
    with pytest.raises(ValueError):
        devectorize(np.zeros(7))
