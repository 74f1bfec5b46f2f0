import math
import re
import tracemalloc

import numpy as np
import pytest
import scipy.linalg
from hypothesis import assume, example, given, settings
from hypothesis import strategies as st

from conftest import TRACE_EDGES, admissible_params, random_cp_params, random_density_matrix
from oracles import choi_matrix, propagate_by_basis, superoperator_by_basis
from spinpair.channels import NoiseParams, NotCompletelyPositive, full_generator, vectorize
from spinpair.estimation import rate_for_kind
from spinpair.evolution import (
    default_time_grid,
    matrix_exp,
    propagate,
    superoperator,
)
from spinpair.presets import PRESETS
from spinpair.states import EIG_FLOOR, HERM_TOL, TRACE_TOL, coherence_state, validate_density_matrix

BTC_LIKE = NoiseParams(3.741, 3.048, 5.876, 0.264, 0.255)


# ----------------------------------------------------------------------
# matrix_exp
# ----------------------------------------------------------------------


def test_matrix_exp_zero_and_diagonal():
    assert np.allclose(matrix_exp(np.zeros((5, 5))), np.eye(5))
    d = np.diag([0.3, -1.2, 2.0 + 1.0j])
    assert np.allclose(matrix_exp(d), np.diag(np.exp(np.diag(d))), atol=1e-13)


def test_matrix_exp_inverse_property():
    rng = np.random.default_rng(21)
    for scale in (0.5, 3.0, 12.0):
        m = scale * (rng.standard_normal((8, 8)) + 1j * rng.standard_normal((8, 8))) / 8
        product = matrix_exp(m) @ matrix_exp(-m)
        assert np.abs(product - np.eye(8)).max() < 1e-10


def test_matrix_exp_against_scipy():
    rng = np.random.default_rng(22)
    for norm_target in (1.0, 20.0, 100.0):
        m = rng.standard_normal((16, 16)) + 1j * rng.standard_normal((16, 16))
        m *= norm_target / np.linalg.norm(m, 1)
        ours = matrix_exp(m)
        reference = scipy.linalg.expm(m)
        rel = np.abs(ours - reference).max() / max(np.abs(reference).max(), 1.0)
        assert rel < 1e-11


def test_matrix_exp_rejects_bad_input():
    with pytest.raises(ValueError):
        matrix_exp(np.zeros((3, 4)))
    with pytest.raises(ValueError):
        matrix_exp(np.array([[np.inf, 0], [0, 0]]))


# ----------------------------------------------------------------------
# propagate
# ----------------------------------------------------------------------


def test_propagate_zero_time_is_identity():
    rng = np.random.default_rng(23)
    rho = random_density_matrix(rng)
    assert np.abs(propagate(rho, BTC_LIKE, 0.0) - rho).max() < 1e-12


def test_propagate_long_time_reaches_maximally_mixed():
    rng = np.random.default_rng(24)
    rho = random_density_matrix(rng)
    params = NoiseParams(1.0, 0.8, 0.3, 0.9, 1.2)
    out = propagate(rho, params, 1e3)
    assert np.abs(out - np.eye(4) / 4).max() < 1e-8


@pytest.mark.filterwarnings("error")
def test_propagate_rejects_negative_time():
    for t in (-0.5, np.nan, np.inf, [0.1, -0.5], [0.1, np.nan]):
        with pytest.raises(ValueError, match="finite and non-negative"):
            propagate(np.eye(4) / 4, BTC_LIKE, t)
    # A complex time must not lose its imaginary part, nor a huge int raise OverflowError.
    for t, dtype in ((1j, "complex128"), (10**400, "object"), (np.array([0.1, 0.2j]), "complex128"),
                     (np.complex128(0.5), "complex128")):
        message = rf"^t must be real \(bool, integer or float\), got dtype {dtype}$"
        with pytest.raises(ValueError, match=message):
            propagate(np.eye(4) / 4, BTC_LIKE, t)
        with pytest.raises(ValueError, match=message):
            superoperator(BTC_LIKE, t)


@pytest.mark.parametrize("kind", ["ZQ", "DQ"])
def test_propagate_matches_analytic_solution(kind):
    rng = np.random.default_rng(25)
    times = np.geomspace(1e-3, 5.0, 16)
    for _ in range(10):
        params = random_cp_params(rng)
        gen = full_generator(params)
        rho0 = coherence_state(kind)
        for t in times:
            numeric = (matrix_exp(gen * t) @ vectorize(rho0)).reshape(4, 4)
            closed_form = propagate(rho0, params, t)
            assert np.abs(numeric - closed_form).max() < 1e-10


def test_propagate_sq_coupling_closed_form():
    # Amplitude damping couples the spin-1 coherence (0,2) to its partner
    # (1,3): starting from the SQ1 state the element is bi-exponential,
    # (1/4) exp(-(gamma1 + Gamma1/2) t) (1 + exp(-Gamma2 t)).
    params = NoiseParams(1.3, 0.7, 0.4, 0.9, 1.6)
    rho0 = coherence_state("SQ1")
    for t in (0.0, 0.2, 0.8, 2.0):
        out = propagate(rho0, params, t)
        common = params.gamma1 + 0.5 * params.Gamma1
        expected = 0.25 * np.exp(-common * t) * (1.0 + np.exp(-params.Gamma2 * t))
        assert out[0, 2].real == pytest.approx(expected, abs=1e-12)
        partner = 0.25 * np.exp(-common * t) * (1.0 - np.exp(-params.Gamma2 * t))
        assert out[1, 3].real == pytest.approx(partner, abs=1e-12)


def test_propagate_semigroup_property():
    rng = np.random.default_rng(26)
    rho = random_density_matrix(rng)
    params = random_cp_params(rng)
    once = propagate(rho, params, 0.7 + 0.4)
    twice = propagate(propagate(rho, params, 0.7), params, 0.4)
    assert np.abs(once - twice).max() < 1e-10


def test_propagate_purity_monotone():
    rng = np.random.default_rng(27)
    params = random_cp_params(rng)
    rho = coherence_state("DQ")
    purities = []
    for t in np.linspace(0.0, 2.0, 21):
        out = propagate(rho, params, t)
        purities.append(float(np.trace(out @ out).real))
    diffs = np.diff(purities)
    assert np.all(diffs <= 1e-12)


def test_propagate_outputs_positive_states():
    rng = np.random.default_rng(28)
    for _ in range(5):
        params = random_cp_params(rng)
        rho = random_density_matrix(rng)
        for t in (0.05, 0.5, 2.0):
            out = propagate(rho, params, t)
            assert np.linalg.eigvalsh(out).min() >= -1e-10


def test_propagate_rejects_finite_temperature():
    # The rates are turned away when they are built, before propagate runs.
    with pytest.raises(ValueError, match=r"^nbar = 0\.05 is not supported"):
        propagate(np.eye(4) / 4, NoiseParams(1.0, 1.0, 0.5, 0.2, 0.3, nbar=0.05), 0.1)


def test_propagate_rejects_non_finite_state():
    rho = np.eye(4, dtype=complex) / 4
    rho[1, 2] = np.nan
    with pytest.raises(ValueError, match=r"non-finite entries at \[\(1, 2\)\]"):
        propagate(rho, BTC_LIKE, 0.1)


# Rates outside the completely positive region (gamma3^2 > 4 gamma1 gamma2),
# though inside |gamma3| <= gamma1 + gamma2: their map drives |++><++| out of
# the positive cone.
NON_CP = (1.0, 0.01, 1.0, 0.0, 0.0)
PLUS = np.full((4, 4), 0.25, dtype=complex)


def test_propagate_rejects_non_cp_rates_at_entry():
    # The rejection happens when the rates are built, before propagate runs.
    for rho, t in ((PLUS, 1.0), (coherence_state("ZQ"), 0.0), (PLUS, [0.5, 1.0])):
        with pytest.raises(NotCompletelyPositive, match="not completely positive"):
            propagate(rho, NoiseParams(*NON_CP), t)


def test_propagate_check_order():
    # The rates are checked when they are built; then the shape of rho0, its
    # content, then t.
    bad = np.eye(4, dtype=complex) / 2
    with pytest.raises(NotCompletelyPositive):
        propagate(np.eye(2) / 2, NoiseParams(*NON_CP), -1.0)
    with pytest.raises(ValueError, match=r"must be 4x4, got shape \(2, 2\)"):
        propagate(np.eye(2) / 2, BTC_LIKE, -1.0)
    with pytest.raises(ValueError, match=r"^density matrix trace != 1"):
        propagate(bad, BTC_LIKE, -1.0)
    with pytest.raises(ValueError, match="t must be finite"):
        propagate(np.eye(4) / 4, BTC_LIKE, [0.5, -1.0])


def test_propagate_batched_shape():
    rho = coherence_state("SQ2")
    assert propagate(rho, BTC_LIKE, 0.3).shape == (4, 4)
    assert propagate(rho, BTC_LIKE, [0.3]).shape == (1, 4, 4)
    assert propagate(rho, BTC_LIKE, np.linspace(0.0, 1.0, 7)).shape == (7, 4, 4)
    with pytest.raises(ValueError, match="1-D"):
        propagate(rho, BTC_LIKE, np.zeros((2, 2)))


@pytest.mark.parametrize("t", [1e4, 1e8])
def test_propagate_exact_at_long_times(t):
    # Every preset and target: the trace stays 1 within 1e-12 and the state
    # is a Hermitian, positive semidefinite matrix at I/4.
    for preset in PRESETS.values():
        for kind in ("ZQ", "DQ", "SQ1", "SQ2"):
            out = propagate(coherence_state(kind), preset.noise, t)
            assert abs(np.trace(out) - 1.0) <= 1e-12
            assert np.abs(out - out.conj().T).max() <= 1e-12
            assert np.linalg.eigvalsh(out).min() >= -1e-12
            assert np.abs(out - np.eye(4) / 4).max() < 1e-12


def test_superoperator_invariants():
    params = NoiseParams(1.0, 1.0, 0.5, 0.2, 0.3)
    superop = superoperator(params, 0.4)[0]
    w = np.eye(4).ravel()
    assert np.abs(w @ superop - w).max() < 1e-12
    choi = choi_matrix(superop)
    assert np.linalg.eigvalsh(choi).min() >= -1e-10


def test_superoperator_assembly():
    # The closed-form entries sit exactly where exp(Z t) is non-zero: 16 in
    # the population block, 4 in each of the four single-quantum pairs and
    # the 4 ZQ/DQ diagonal entries.
    params = NoiseParams(1.3, 0.7, 0.4, 0.9, 1.6)
    superop = superoperator(params, [0.0, 0.5])
    assert superop.shape == (2, 16, 16)
    assert superop.dtype == np.float64
    assert np.array_equal(superop[0], np.eye(16))
    numeric = scipy.linalg.expm(full_generator(params) * 0.5)
    assert np.array_equal(superop[1] != 0, np.abs(numeric) > 1e-14)
    assert np.count_nonzero(superop[1]) == 36


@pytest.mark.parametrize("t", [[], np.zeros(0), np.array([], dtype=int)])
def test_empty_time_grid(t):
    assert propagate(coherence_state("DQ"), BTC_LIKE, t).shape == (0, 4, 4)
    assert superoperator(BTC_LIKE, t).shape == (0, 16, 16)


def test_propagate_peak_memory_is_one_complex_stack():
    # exp(Z t) is gathered straight into the complex stack the product
    # reads: no float stack and no cast copy of it on top.
    t = np.linspace(0.0, 10.0, 2001)
    rho = coherence_state("DQ")
    propagate(rho, BTC_LIKE, t[:3])
    tracemalloc.start()
    try:
        propagate(rho, BTC_LIKE, t)
        peak = tracemalloc.get_traced_memory()[1]
    finally:
        tracemalloc.stop()
    assert peak <= 1.25 * t.size * 16 * 16 * 16


def _assert_same_bits(out, expected):
    assert out.dtype == expected.dtype and out.shape == expected.shape
    assert np.array_equal(out, expected)
    assert out.tobytes() == expected.tobytes()  # signed zeros too


def test_propagate_matches_basis_reference_on_the_longest_grid():
    # The longest grid a config may ask for.  Each state is a product of its
    # own 16x16 block, so the reference is built in blocks of the grid.
    t = default_time_grid(points=100_000)
    rho = random_density_matrix(np.random.default_rng(7))
    out = propagate(rho, BTC_LIKE, t)
    for start in range(0, t.size, 10_000):
        _assert_same_bits(out[start:start + 10_000], propagate_by_basis(rho, BTC_LIKE, t[start:start + 10_000]))


# ----------------------------------------------------------------------
# Property tests over admissible rates and times in [0, 1e8] s, and over
# the float range
# ----------------------------------------------------------------------

params_strategy = st.integers(0, 2**32 - 1).map(lambda seed: random_cp_params(np.random.default_rng(seed)))
states_strategy = st.integers(0, 2**32 - 1).map(lambda seed: random_density_matrix(np.random.default_rng(seed)))
times_strategy = st.floats(0.0, 1e8)
wide_times = st.floats(-300.0, 300.0).map(lambda e: 10.0**e)


@st.composite
def wide_params(draw):
    """Completely positive rates log-uniform over 1e-300 to 1e300, given as
    Python floats, np.float64 or ints (from 1); gamma3 often on the boundary
    |gamma3| = 2 sqrt(gamma1) sqrt(gamma2), and damping often off."""
    cast = draw(st.sampled_from([float, np.float64, int]))
    rate = st.floats(0.0 if cast is int else -300.0, 300.0).map(lambda e: 10.0**e)
    g1, g2 = draw(rate), draw(rate)
    fraction = draw(st.sampled_from([1.0, -1.0, 0.0]) | st.floats(-1.0, 1.0))
    g3 = fraction * 2.0 * math.sqrt(g1) * math.sqrt(g2)
    damping = st.just(0.0) | rate
    try:
        return NoiseParams(*(cast(r) for r in (g1, g2, g3, draw(damping), draw(damping))))
    except ValueError:  # the boundary, where its float rounds up
        assume(False)


@pytest.mark.filterwarnings("error")
@settings(max_examples=80, deadline=None)
@given(params_strategy | wide_params(), states_strategy, times_strategy | wide_times)
@example(NoiseParams(1e63, 1e63, 2e63, 0.0, 1.0), random_density_matrix(np.random.default_rng(0)), 1.0)
def test_property_trace_hermiticity_positivity(params, rho, t):
    out = propagate(rho, params, t)
    assert abs(np.trace(out) - 1.0) <= 1e-12
    assert np.abs(out - out.conj().T).max() <= 1e-12
    assert np.linalg.eigvalsh(out).min() >= -1e-10
    superop = superoperator(params, t)[0]
    w = np.eye(4).ravel()
    assert np.abs(w @ superop - w).max() <= 1e-12
    assert np.linalg.eigvalsh(choi_matrix(superop)).min() >= -1e-10


@st.composite
def _rho0(draw):
    """A random mixed or pure state, or one at the validator's edges: a trace
    offset inside the tolerance, a TRACE_EDGES state just outside it, or a
    least eigenvalue at or around EIG_FLOOR."""
    rng = np.random.default_rng(draw(st.integers(0, 2**32 - 1)))
    family = draw(st.sampled_from(["mixed", "pure", "trace", "trace edge", "eigenvalue"]))
    if family == "trace edge":
        return draw(st.sampled_from(TRACE_EDGES))
    if family == "pure":
        ket = rng.standard_normal(4) + 1j * rng.standard_normal(4)
        return np.outer(ket, ket.conj()) / (ket.conj() @ ket).real
    if family == "eigenvalue":
        low = EIG_FLOOR * draw(st.sampled_from([1.0, 1.0 - 1e-6, 1.0 + 1e-6]) | st.floats(0.0, 2.0))
        u, _ = np.linalg.qr(rng.standard_normal((4, 4)) + 1j * rng.standard_normal((4, 4)))
        return (u * np.concatenate(([low], rng.dirichlet(np.ones(3)) * (1.0 - low)))) @ u.conj().T
    rho = random_density_matrix(rng)
    if family == "trace":
        # At most 0.99 of the tolerance: the flow's rounding moves the trace
        # by a few ulps of 1, and test_propagate_at_the_trace_tolerance
        # covers the last hundredth.
        i = draw(st.integers(0, 3))
        rho[i, i] += draw(st.floats(-0.99, 0.99)) * TRACE_TOL
    return rho


@settings(max_examples=300, deadline=None, derandomize=True)
@given(admissible_params(), _rho0(), times_strategy | st.lists(times_strategy, min_size=1, max_size=8))
def test_property_outputs_pass_the_validator(params, rho0, t):
    # propagate validates rho0 only: every state it returns must pass the
    # validator with its exact tolerances.
    try:
        validate_density_matrix(rho0)
    except ValueError as exc:
        with pytest.raises(ValueError, match=re.escape(str(exc)) + "$"):
            propagate(rho0, params, t)
        return
    for state in np.reshape(propagate(rho0, params, t), (-1, 4, 4)):
        validate_density_matrix(state)


float_times = times_strategy | wide_times
scalar_times = float_times | float_times.map(np.float64) | st.integers(0, 10**6) | st.booleans()


@st.composite
def time_grids(draw):
    """A 1-D grid of 2 to 1,200 times: t = 0 and a log grid from 1 ms to up
    to 1e300, consecutive integers or alternating bools."""
    size = draw(st.integers(2, 1200))
    kind = draw(st.sampled_from(["float", "int", "bool"]))
    if kind == "int":
        return np.arange(size) * draw(st.integers(1, 10**6))
    if kind == "bool":
        return np.arange(size) % 2 == 1
    stop = draw(st.floats(-2.0, 300.0).map(lambda e: 10.0**e))
    return np.concatenate(([0.0], np.geomspace(1e-3, stop, size - 1)))


@settings(max_examples=80, deadline=None)
@given(params_strategy | wide_params(), _rho0(),
       scalar_times | st.lists(scalar_times, min_size=1, max_size=8) | time_grids())
def test_property_matches_basis_reference(params, rho0, t):
    # Gathering exp(Z t) in the caller's dtype places the same values as the
    # basis matmul, and the complex stack equals numpy's cast of the float
    # one, so every output keeps its bits.
    _assert_same_bits(superoperator(params, t), superoperator_by_basis(params, t))
    try:
        expected = propagate_by_basis(rho0, params, t)
    except ValueError as exc:
        with pytest.raises(ValueError, match=re.escape(str(exc)) + "$"):
            propagate(rho0, params, t)
        return
    _assert_same_bits(propagate(rho0, params, t), expected)


def test_propagate_at_the_trace_tolerance():
    # rho0 with the largest trace the validator accepts.  The flow keeps the
    # trace only to its rounding, so outputs may sit a few ulps past the
    # tolerance; they are returned, with the trace of rho0 to 4 ulps.
    rho0 = random_density_matrix(np.random.default_rng(0))
    rho0[0, 0] += TRACE_TOL
    while True:
        try:
            validate_density_matrix(rho0)
            break
        except ValueError:
            rho0[0, 0] = np.nextafter(rho0[0, 0].real, 0.0)
    for state in propagate(rho0, BTC_LIKE, np.geomspace(1e-2, 1e2, 5)):
        assert abs(np.trace(state) - np.trace(rho0)) <= 4 * np.finfo(float).eps
        assert np.abs(state - state.conj().T).max() <= HERM_TOL
        assert np.linalg.eigvalsh(state)[0] >= EIG_FLOOR


@pytest.mark.filterwarnings("error")
@settings(max_examples=80, deadline=None)
@given(params_strategy | wide_params(), states_strategy, times_strategy | wide_times, times_strategy | wide_times)
def test_property_semigroup(params, rho, t1, t2):
    once = propagate(rho, params, t1 + t2)
    twice = propagate(propagate(rho, params, t1), params, t2)
    assert np.abs(once - twice).max() < 1e-10


@settings(max_examples=40, deadline=None)
@given(params_strategy, states_strategy, st.lists(times_strategy, min_size=1, max_size=8))
def test_property_batched_equals_scalar(params, rho, times):
    batched = propagate(rho, params, np.array(times))
    assert batched.shape == (len(times), 4, 4)
    for k, t in enumerate(times):
        assert np.array_equal(batched[k], propagate(rho, params, t))


@settings(max_examples=60, deadline=None)
@given(params_strategy, states_strategy, st.floats(0.0, 100.0))
def test_property_matches_scipy_expm(params, rho, t):
    reference = (scipy.linalg.expm(full_generator(params) * t) @ vectorize(rho)).reshape(4, 4)
    assert np.abs(propagate(rho, params, t) - reference).max() <= 1e-10


# ----------------------------------------------------------------------
# Closed-form decay of the ZQ and DQ states
# ----------------------------------------------------------------------


def test_analytic_states_at_zero_time():
    for kind in ("ZQ", "DQ"):
        assert np.allclose(propagate(coherence_state(kind), BTC_LIKE, 0.0), coherence_state(kind), atol=1e-14)


def test_analytic_zq_with_damping_off_freezes_populations():
    params = NoiseParams(1.4, 0.9, 0.7, 0.0, 0.0)
    t = 0.8
    rho = propagate(coherence_state("ZQ"), params, t)
    assert np.allclose(np.diag(rho).real, [0.0, 0.5, 0.5, 0.0], atol=1e-14)
    expected = 0.5 * np.exp(-t * (params.gamma1 + params.gamma2 - params.gamma3))
    assert rho[1, 2].real == pytest.approx(expected, abs=1e-14)


def test_analytic_states_long_time_limit():
    for kind in ("ZQ", "DQ"):
        assert np.abs(propagate(coherence_state(kind), BTC_LIKE, 1e4) - np.eye(4) / 4).max() < 1e-12


def test_analytic_rate_difference_is_twice_gamma3():
    rng = np.random.default_rng(29)
    for _ in range(10):
        params = random_cp_params(rng)
        t = rng.uniform(0.1, 1.0)
        zq = propagate(coherence_state("ZQ"), params, t)[1, 2].real
        dq = propagate(coherence_state("DQ"), params, t)[0, 3].real
        assert np.log(zq / dq) == pytest.approx(2.0 * params.gamma3 * t, rel=1e-9, abs=1e-9)


def test_analytic_states_are_valid_density_matrices():
    rng = np.random.default_rng(30)
    for _ in range(5):
        params = random_cp_params(rng)
        for kind in ("ZQ", "DQ"):
            for rho in propagate(coherence_state(kind), params, [0.0, 0.3, 2.5]):
                validate_density_matrix(rho)


def test_analytic_state_rejects_negative_time_and_bad_kind():
    with pytest.raises(ValueError):
        propagate(coherence_state("ZQ"), BTC_LIKE, -1.0)
    with pytest.raises(ValueError):
        rate_for_kind("XQ", BTC_LIKE)


def test_default_time_grid():
    grid = default_time_grid()
    assert grid[0] == 0.0
    assert grid.size == 65
    assert np.all(np.diff(grid) > 0)
    with pytest.raises(ValueError):
        default_time_grid(start=0.0)
