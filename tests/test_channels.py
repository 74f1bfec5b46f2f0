import json
import math
import pickle
from dataclasses import FrozenInstanceError, asdict, replace
from fractions import Fraction

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from conftest import admissible_params, random_cp_params, random_density_matrix
from oracles import choi_matrix, gad_apply, kraus_sum, phase_damping_apply
from spinpair.channels import (
    NoiseParams,
    NotCompletelyPositive,
    full_generator,
    jump_operators,
    lindblad_generator,
    vectorize,
)
from spinpair.estimation import KIND_DQ, KIND_ZQ, rate_for_kind
from spinpair.evolution import matrix_exp, propagate, superoperator
from spinpair.spinops import SIGMA, pauli
from spinpair.states import coherence_state

# Row vector summing the vec positions of diag(rho): a generator preserves the
# trace when it is a left null vector.
TRACE = np.eye(4).ravel()


def random_rho2(rng):
    a = rng.standard_normal((2, 2)) + 1j * rng.standard_normal((2, 2))
    rho = a @ a.conj().T
    return rho / rho.trace().real


def pd_kraus(gamma, t):
    """Dephasing Kraus pair {sqrt(1-p) I, sqrt(p) sigma_z} with 1-2p = exp(-gamma t)."""
    p = 0.5 * (1.0 - np.exp(-gamma * t))
    return [np.sqrt(1 - p) * np.eye(2), np.sqrt(p) * SIGMA["z"]]


def pd_generator(gamma):
    """Single-spin dephasing generator from its one jump operator."""
    return lindblad_generator([np.sqrt(gamma / 2) * SIGMA["z"]])


def gad_generator(rate, nbar=0.5):
    """Single-spin generalized amplitude-damping generator from sigma_-, sigma_+."""
    lower = np.array([[0, 1], [0, 0]], dtype=complex)
    return lindblad_generator([np.sqrt((1 - nbar) * rate) * lower, np.sqrt(nbar * rate) * lower.T])


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


@settings(max_examples=200, deadline=None)
@given(admissible_params() | st.integers(0, 2**32 - 1).map(lambda seed: random_cp_params(np.random.default_rng(seed))))
def test_noise_params_coherence_rates_are_rate_for_kind(params):
    # The memo is rate_for_kind's ZQ and DQ rows, bit for bit: RATE_TABLE stays their one source.
    expected = (rate_for_kind(KIND_ZQ, params), rate_for_kind(KIND_DQ, params))
    assert [r.hex() for r in params._coherence_rates] == [r.hex() for r in expected]


def test_noise_params_rate_memo_is_invisible():
    # The memo changes no value semantics of the frozen dataclass, so no
    # report built from asdict (fit_report.json) changes either.
    fresh, memo = NoiseParams(1.3, 0.7, 0.4, 0.9, 1.6), NoiseParams(1.3, 0.7, 0.4, 0.9, 1.6)
    rates = memo._coherence_rates
    assert memo == fresh and hash(memo) == hash(fresh) and repr(memo) == repr(fresh)
    assert asdict(memo) == asdict(fresh)
    assert json.dumps(asdict(memo)) == json.dumps(asdict(fresh))
    assert replace(memo) == replace(fresh)
    moved = replace(memo, gamma3=-0.4)
    assert moved._coherence_rates == (rate_for_kind(KIND_ZQ, moved), rate_for_kind(KIND_DQ, moved))
    assert moved._coherence_rates == rates[::-1]
    for copy in (pickle.loads(pickle.dumps(memo)), pickle.loads(pickle.dumps(fresh))):
        assert copy == fresh and hash(copy) == hash(fresh) and repr(copy) == repr(fresh)
        assert asdict(copy) == asdict(fresh)
        assert copy._coherence_rates == rates
    with pytest.raises(FrozenInstanceError):
        memo.gamma3 = 0.0


@pytest.mark.filterwarnings("error")
def test_noise_params_stores_numpy_rates_as_plain_floats():
    # Python floats overflow quietly in the propagator's arithmetic; the same
    # rates as np.float64 used to raise numpy's "overflow encountered".
    p = NoiseParams(np.float64(1e300), 1.0, 0, np.float64(1e300), 1.0)
    rho = propagate(coherence_state("DQ"), p, 1e10)
    assert np.array_equal(rho, propagate(coherence_state("DQ"),
                                         NoiseParams(1e300, 1.0, 0.0, 1e300, 1.0), 1e10))
    assert [type(v) for v in asdict(p).values()] == [float] * 6


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
    assert np.allclose(pd_generator(0.0), np.zeros((4, 4)))
    assert np.allclose(pd_generator(2.0), np.diag([0.0, -2.0, -2.0, 0.0]))


def test_phase_damping_generator_exponentiates_to_map():
    rng = np.random.default_rng(6)
    for _ in range(10):
        rho = random_rho2(rng)
        gamma = rng.uniform(0.0, 3.0)
        t = rng.uniform(0.0, 2.0)
        via_generator = (matrix_exp(pd_generator(gamma) * t) @ vectorize(rho)).reshape(2, 2)
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
    assert np.allclose(gad_generator(1.0), expected)
    assert np.allclose(gad_generator(0.0), np.zeros((4, 4)))
    # At any nbar, rho00 gains from rho11 at (1 - nbar) Gamma and loses at nbar Gamma.
    rate, nbar = 1.4, 0.2
    populations = [[-nbar * rate, (1 - nbar) * rate], [nbar * rate, -(1 - nbar) * rate]]
    assert np.allclose(gad_generator(rate, nbar)[np.ix_([0, 3], [0, 3])], populations)
    assert np.allclose(np.diag(gad_generator(rate, nbar))[1:3], -rate / 2)


def test_gad_generator_single_exponentiates_to_map():
    rng = np.random.default_rng(9)
    for _ in range(10):
        rho = random_rho2(rng)
        rate = rng.uniform(0.0, 3.0)
        t = rng.uniform(0.0, 2.0)
        nbar = rng.uniform(0.0, 1.0)
        via_generator = (matrix_exp(gad_generator(rate, nbar) * t) @ vectorize(rho)).reshape(2, 2)
        assert np.abs(via_generator - gad_apply(rho, rate, nbar, t)).max() < 1e-10


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
    flow = matrix_exp(full_generator(damping_only(rate, spin)) * t)
    via_superop = (flow @ vectorize(rho)).reshape(4, 4)
    assert np.abs(via_superop - kraus_sum(rho, kraus)).max() < 1e-10


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
    via_superop = (flow @ vectorize(rho)).reshape(4, 4)
    assert np.abs(via_superop - kraus_sum(rho, kraus)).max() < 1e-10


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
        with pytest.raises(ValueError, match=rf"^nbar = {nbar} is not supported: the closed-form "
                                             r"propagator models only the infinite-temperature "
                                             r"limit nbar = 0\.5$"):
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
    out = (matrix_exp(z * t) @ vectorize(rho)).reshape(4, 4)
    assert out[0, 1] == pytest.approx(0.3 * np.exp(-1.0 * t), abs=1e-12)

    z_swapped = full_generator(NoiseParams(0, 0, 0, 2.0, 0.0))
    out_swapped = (matrix_exp(z_swapped * t) @ vectorize(rho)).reshape(4, 4)
    # With only spin 1 damped, rho_01 couples to rho_23 (initially zero)
    # through the damping of spin 1, giving a slower bi-exponential decay.
    expected = 0.3 * 0.5 * (1.0 + np.exp(-2.0 * t))
    assert out_swapped[0, 1] == pytest.approx(expected, abs=1e-12)


def assert_trace_and_hermiticity_preserved(z, rho):
    assert np.abs(TRACE @ z).max() <= 1e-12
    out = (z @ vectorize(rho)).reshape(4, 4)
    assert np.abs(out - out.conj().T).max() <= 1e-12


def test_full_generator_trace_and_hermiticity_preservation():
    rng = np.random.default_rng(13)
    for _ in range(20):
        z = full_generator(random_cp_params(rng))
        assert_trace_and_hermiticity_preserved(z, random_density_matrix(rng))


def test_full_generator_flow_is_completely_positive():
    rng = np.random.default_rng(14)
    for _ in range(10):
        z = full_generator(random_cp_params(rng))
        for t in (0.01, 0.1, 1.0):
            choi = choi_matrix(matrix_exp(z * t))
            assert np.abs(choi - choi.conj().T).max() < 1e-10
            assert np.linalg.eigvalsh(choi).min() >= -1e-10


@settings(max_examples=150, deadline=None, derandomize=True)
@given(admissible_params(), st.floats(-3.0, 1.0).map(lambda e: 10.0**e))
def test_generator_completely_positive_on_admissible_region(params, t):
    ops = jump_operators(params)
    assert all(np.all(np.isfinite(op)) for op in ops)
    z = full_generator(params)
    assert_trace_and_hermiticity_preserved(z, random_density_matrix(np.random.default_rng(16)))
    flow = matrix_exp(z * t)
    assert np.linalg.eigvalsh(choi_matrix(flow)).min() >= -1e-10
    assert np.abs(flow - superoperator(params, t)[0]).max() <= 1e-10


def test_choi_matrix_of_identity_superop():
    choi = choi_matrix(np.eye(16))
    omega = np.zeros(16)
    omega[[0, 5, 10, 15]] = 1.0
    assert np.allclose(choi, np.outer(omega, omega))


def test_vectorize_round_trip():
    rng = np.random.default_rng(15)
    rho = random_density_matrix(rng)
    assert np.array_equal(vectorize(rho).reshape(4, 4), rho)
    assert vectorize(rho)[1] == rho[0, 1]
