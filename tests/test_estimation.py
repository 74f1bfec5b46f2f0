import itertools
import json
import math
from unittest import mock

import numpy as np
import pytest
from hypothesis import assume, given, settings
from hypothesis import strategies as st

import estimation_reference as reference
from conftest import random_cp_params
from oracles import suggested_times
from spinpair.channels import NoiseParams, full_generator
from spinpair.estimation import (
    CURVE_KINDS,
    KIND_DQ,
    KIND_SQ1,
    KIND_SQ2,
    KIND_T1_SPIN1,
    KIND_T1_SPIN2,
    KIND_ZQ,
    MAX_ITERATIONS,
    PINNING_KIND,
    RATE_TABLE,
    ConvergenceError,
    DataError,
    DecayCurve,
    RateEstimate,
    _initial_guess,
    _levenberg_marquardt,
    fit_exponential,
    fit_noise_model,
    gamma3_difference,
    load_curve,
    rate_for_kind,
    save_curve,
    signal_model,
    synthetic_curve,
)
from spinpair.evolution import default_time_grid

BTC_LIKE = NoiseParams(3.741, 3.048, 5.876, 0.264, 0.255)

ALL_KINDS = (KIND_T1_SPIN1, KIND_T1_SPIN2, KIND_SQ1, KIND_SQ2, KIND_ZQ, KIND_DQ)


def six_curves(params, noise_sigma=0.0, rng=None, points=24):
    return [
        synthetic_curve(kind, params, suggested_times(kind, params, points=points),
                        noise_sigma=noise_sigma, rng=rng)
        for kind in ALL_KINDS
    ]


# ----------------------------------------------------------------------
# Signal models
# ----------------------------------------------------------------------


def test_signal_model_at_zero_time():
    for kind in (KIND_SQ1, KIND_SQ2, KIND_ZQ, KIND_DQ):
        assert signal_model(kind, BTC_LIKE, 0.0) == pytest.approx(1.0)
    for kind in (KIND_T1_SPIN1, KIND_T1_SPIN2):
        assert signal_model(kind, BTC_LIKE, 0.0) == pytest.approx(-1.0)


def test_signal_model_zq_unit_rate():
    params = NoiseParams(1, 1, 1, 0, 0)
    t = np.linspace(0, 3, 7)
    assert np.allclose(signal_model(KIND_ZQ, params, t), np.exp(-t))


def test_signal_model_dq_zq_ratio():
    rng = np.random.default_rng(50)
    params = random_cp_params(rng)
    t = np.linspace(0.1, 2.0, 9)
    ratio = signal_model(KIND_DQ, params, t) / signal_model(KIND_ZQ, params, t)
    assert np.allclose(ratio, np.exp(-2 * params.gamma3 * t), rtol=1e-12)


def test_signal_model_rejects_negative_time():
    for t in (-0.1, math.nan, [0.0, math.nan]):
        with pytest.raises(ValueError, match="^t must be non-negative"):
            signal_model(KIND_ZQ, BTC_LIKE, t)


@pytest.mark.filterwarnings("error::RuntimeWarning")
def test_signal_model_is_quiet_when_the_exponent_overflows():
    # -R t overflows to -inf at t = 1e308, and exp(-inf) = 0 is the decayed value.
    t = np.array([0.0, 1.0, 1e308])
    assert signal_model(KIND_T1_SPIN1, BTC_LIKE, t)[-1] == 1.0
    assert signal_model(KIND_DQ, BTC_LIKE, t)[-1] == 0.0


def test_rate_for_kind_mapping():
    assert rate_for_kind(KIND_SQ1, BTC_LIKE) == BTC_LIKE.gamma1
    assert rate_for_kind(KIND_SQ2, BTC_LIKE) == BTC_LIKE.gamma2
    assert rate_for_kind(KIND_T1_SPIN1, BTC_LIKE) == BTC_LIKE.Gamma1
    assert rate_for_kind(KIND_T1_SPIN2, BTC_LIKE) == BTC_LIKE.Gamma2
    zq = BTC_LIKE.gamma1 + BTC_LIKE.gamma2 - BTC_LIKE.gamma3 + 0.5 * (BTC_LIKE.Gamma1 + BTC_LIKE.Gamma2)
    assert rate_for_kind(KIND_ZQ, BTC_LIKE) == pytest.approx(zq)


def test_rate_for_kind_examples():
    zero = NoiseParams(0, 0, 0, 0, 0)
    assert rate_for_kind(KIND_ZQ, zero) == 0.0
    assert rate_for_kind(KIND_DQ, zero) == 0.0
    ones = NoiseParams(1, 1, 1, 0, 0)
    assert rate_for_kind(KIND_ZQ, ones) == pytest.approx(1.0)
    assert rate_for_kind(KIND_DQ, ones) == pytest.approx(3.0)
    # The row's sum would round the damping part away; the rate keeps it.
    assert rate_for_kind(KIND_ZQ, NoiseParams(1e63, 1e63, 2e63, 0.0, 1.0)) == 0.5
    assert rate_for_kind(KIND_DQ, NoiseParams(1e63, 1e63, -2e63, 1.0, 0.0)) == 0.5
    for bad in ("XQ", "zq", None):
        with pytest.raises(ValueError, match="unknown curve kind"):
            rate_for_kind(bad, ones)


def test_rate_for_kind_difference_identity():
    rng = np.random.default_rng(31)
    for _ in range(10):
        params = random_cp_params(rng)
        diff = rate_for_kind(KIND_DQ, params) - rate_for_kind(KIND_ZQ, params)
        assert diff == pytest.approx(2.0 * params.gamma3, rel=1e-12, abs=1e-12)


def test_rate_table_matches_generator():
    # The ZQ/DQ rows are minus the generator's diagonal at the vec entries of
    # rho[1, 2] and rho[0, 3] (row-major), and bit for bit the closed form
    # gamma1 + gamma2 + (Gamma1 + Gamma2) / 2 -/+ gamma3; every other row
    # returns the one rate its kind pins.
    assert set(RATE_TABLE) == set(CURVE_KINDS)
    assert PINNING_KIND == {"gamma1": KIND_SQ1, "gamma2": KIND_SQ2,
                            "Gamma1": KIND_T1_SPIN1, "Gamma2": KIND_T1_SPIN2}
    rng = np.random.default_rng(32)
    for _ in range(50):
        params = random_cp_params(rng)
        diagonal = np.diag(full_generator(params))
        base = params.gamma1 + params.gamma2 + 0.5 * (params.Gamma1 + params.Gamma2)
        for kind, (r, s), closed_form in ((KIND_ZQ, (1, 2), base - params.gamma3),
                                          (KIND_DQ, (0, 3), base + params.gamma3)):
            rate = rate_for_kind(kind, params)
            assert abs(rate + diagonal[4 * r + s]) <= 1e-12
            assert rate == closed_form
        for name, kind in PINNING_KIND.items():
            assert rate_for_kind(kind, params) == getattr(params, name)


# ----------------------------------------------------------------------
# DecayCurve validation
# ----------------------------------------------------------------------


def test_decay_curve_rejects_non_monotone_times():
    with pytest.raises(DataError, match="strictly increasing"):
        DecayCurve(KIND_ZQ, [0.0, 0.2, 0.2, 0.4], [1.0, 0.9, 0.8, 0.7])


@pytest.mark.filterwarnings("error")
def test_decay_curve_compares_extreme_times_without_overflow():
    assert len(DecayCurve(KIND_ZQ, [-1e308, 1e308], [1.0, 0.5])) == 2
    with pytest.raises(DataError, match=r"violated at sample 1\)"):
        DecayCurve(KIND_ZQ, [1e308, -1e308], [1.0, 0.5])


@pytest.mark.parametrize("times, sample", [
    ([0.0, 0.1, 0.2, 0.2, 0.1, 0.5], 3),
    ([0.0, 0.1, 0.2, 0.3, 0.4, -0.5], 5),
])
def test_decay_curve_names_the_first_violation(times, sample):
    with pytest.raises(DataError, match=rf"violated at sample {sample}\)"):
        DecayCurve(KIND_ZQ, times, np.linspace(1.0, 0.5, len(times)))


def test_decay_curve_rejects_bad_sigmas():
    with pytest.raises(DataError, match="sigmas"):
        DecayCurve(KIND_ZQ, [0.0, 0.1, 0.2, 0.3], [1.0, 0.9, 0.8, 0.7], [0.1, -0.1, 0.1, 0.1])


@pytest.mark.parametrize("column", ["times", "signals", "sigmas"])
@pytest.mark.parametrize("value", [np.nan, np.inf, -np.inf])
def test_decay_curve_rejects_non_finite_values(column, value):
    arrays = {"times": [0.0, 0.1, 0.2, 0.3], "signals": [1.0, 0.9, 0.8, 0.7],
              "sigmas": [0.1, 0.1, 0.1, 0.1]}
    arrays[column][3] = value
    with pytest.raises(DataError, match="must be finite"):
        DecayCurve(KIND_ZQ, arrays["times"], arrays["signals"], arrays["sigmas"])


def test_decay_curve_rejects_unknown_kind():
    with pytest.raises(DataError, match="kind"):
        DecayCurve("TQ", [0.0, 0.1], [1.0, 0.9])


# ----------------------------------------------------------------------
# Single-curve fits
# ----------------------------------------------------------------------


def test_fit_exponential_exact_recovery():
    t = np.linspace(0.0, 2.0, 16)
    curve = DecayCurve(KIND_ZQ, t, np.exp(-2.0 * t))
    estimate = fit_exponential(curve)
    assert estimate.rate == pytest.approx(2.0, abs=1e-9)
    assert estimate.stderr < 1e-7
    assert estimate.amplitude == pytest.approx(1.0, abs=1e-9)


def test_fit_exponential_btc_sq1_rate():
    rate = 3.741
    t = np.linspace(0.0, 1.0, 20)
    curve = DecayCurve(KIND_SQ1, t, np.exp(-rate * t))
    estimate = fit_exponential(curve)
    assert estimate.rate == pytest.approx(rate, rel=1e-9)


def test_fit_exponential_recovery_kind():
    rate = 0.264
    t = np.linspace(0.0, 12.0, 24)
    curve = DecayCurve(KIND_T1_SPIN1, t, 1.0 - 2.0 * np.exp(-rate * t))
    estimate = fit_exponential(curve)
    assert estimate.rate == pytest.approx(rate, rel=1e-9)
    assert estimate.amplitude == pytest.approx(1.0, rel=1e-9)


@pytest.mark.parametrize("kind", ALL_KINDS)
def test_noiseless_fit_starts_at_its_optimum(monkeypatch, kind):
    # The start reads every sample, so a noiseless curve starts where the fit
    # ends and the fit stops at its first gradient test.
    import spinpair.estimation as estimation

    iterations = []

    def counted(residual_jac, x0):
        result = _levenberg_marquardt(residual_jac, x0)
        iterations.append(result[5])
        return result

    monkeypatch.setattr(estimation, "_levenberg_marquardt", counted)
    rate = rate_for_kind(kind, BTC_LIKE)
    curve = synthetic_curve(kind, BTC_LIKE, suggested_times(kind, BTC_LIKE), amplitude=0.7)
    amplitude, start = _initial_guess(curve)
    assert start == pytest.approx(rate, rel=1e-12)
    assert amplitude == pytest.approx(0.7, rel=1e-12)
    assert fit_exponential(curve).rate == pytest.approx(rate, rel=1e-12)
    assert iterations == [1]


@pytest.mark.parametrize(
    "kind, signals, start",
    [
        (KIND_ZQ, [0.8, -0.5, -0.2, -0.1], (0.8, 1.0)),
        (KIND_ZQ, [-1.0, -0.5, -0.2, -0.1], (1.0, 1.0)),
        # y = (A - s) / 2 with A = 1 is positive at the first sample alone.
        (KIND_T1_SPIN1, [-1.0, 1.0, 1.0, 1.0], (1.0, 1.0)),
        # The weights of all samples but the first underflow to 0: the
        # steepest rate.
        (KIND_ZQ, [1.0, 1e-200, 1e-250, 1e-300], (1.0, 1e3)),
    ],
    ids=["coherence-one", "coherence-none", "recovery-one", "weight-on-one"],
)
def test_start_without_a_resolvable_slope(kind, signals, start):
    # Fewer than two samples with y > 0 start at the default rate 1.0.
    assert _initial_guess(DecayCurve(kind, [0.0, 0.1, 0.2, 0.3], signals)) == start


@pytest.mark.parametrize("kind", [KIND_T1_SPIN1, KIND_SQ1])
def test_start_amplitude_takes_the_unclamped_slope(kind):
    # A rate of 1e-7 1/s starts where the line puts it, with no bound in
    # seconds.  The amplitude is read off that line: one of a slope clamped to
    # 1e-4 would, over a mean time of 1e7 s, be off by exp(1e3) and overflow.
    slow = NoiseParams(1e-7, 1.0, 0.0, 1e-7, 1.0)
    t = np.linspace(0.0, 3e7, 50)
    amplitude, rate = _initial_guess(synthetic_curve(kind, slow, t, amplitude=0.8))
    assert amplitude == pytest.approx(0.8, rel=1e-9)
    assert rate == pytest.approx(1e-7, rel=1e-9)


def test_recovery_fit_starts_in_the_positive_basin():
    # Half an e-folding at 10 % noise.  The first two samples read a steep
    # rate, from which the fit ran to R = 2.4e4 1/s with A = -0.303; the start
    # from every sample lies near the truth, and so does the fit.
    t = suggested_times(KIND_T1_SPIN1, BTC_LIKE, points=120, decades=0.5)
    curve = synthetic_curve(KIND_T1_SPIN1, BTC_LIKE, t, amplitude=0.55, noise_sigma=0.1,
                            rng=np.random.default_rng(3))
    estimate = fit_exponential(curve)
    assert estimate.amplitude == pytest.approx(0.55, rel=0.05)
    assert abs(estimate.rate - BTC_LIKE.Gamma1) <= 3.0 * estimate.stderr


@pytest.mark.parametrize("signals", [[0.0, -0.0, 0.0, -0.0], [-0.0, 0.0, 0.0, 0.0]])
def test_fit_exponential_signed_zeros_are_a_constant_signal(signals):
    # 0.0 == -0.0, so a curve of signed zeros is constant whichever comes first.
    curve = DecayCurve(KIND_ZQ, [0.0, 0.1, 0.2, 0.3], signals)
    with pytest.raises(DataError, match="ZQ: constant signal, decay rate undetermined"):
        fit_exponential(curve)


def test_fit_noise_model_with_the_callers_estimates_is_the_same_fit():
    # Handing in fit_exponential's estimates changes no bit of the report.
    rng = np.random.default_rng(25)
    times = {kind: np.linspace(0.0, 3.0 / rate_for_kind(kind, BTC_LIKE), 40) for kind in CURVE_KINDS}
    curves = [synthetic_curve(kind, BTC_LIKE, times[kind], noise_sigma=0.01, rng=rng)
              for kind in CURVE_KINDS]
    individual = {curve.kind: fit_exponential(curve) for curve in curves}
    expected = fit_noise_model(curves).to_dict()
    assert _exact(fit_noise_model(curves, individual=individual).to_dict()) == _exact(expected)


@pytest.mark.parametrize("kind", [KIND_SQ1, KIND_T1_SPIN2])
def test_fit_noise_model_moves_a_zero_start_rate(kind):
    # A caller's rate of 0 is a start like any other: the fit moves it.
    curves = [synthetic_curve(k, BTC_LIKE, suggested_times(k, BTC_LIKE)) for k in CURVE_KINDS]
    individual = {curve.kind: fit_exponential(curve) for curve in curves}
    individual[kind] = RateEstimate(0.0, 0.1, 0.0, individual[kind].amplitude)
    fitted = fit_noise_model(curves, individual=individual).params
    for name in PINNING_KIND:
        assert getattr(fitted, name) == pytest.approx(getattr(BTC_LIKE, name), rel=1e-8)
    assert fitted.gamma3 == pytest.approx(BTC_LIKE.gamma3, rel=1e-8)


def test_fit_noise_model_refuses_a_joint_rate_below_zero():
    # Gamma2's own T1 curve fits 9.6e-5, but the joint optimum puts Gamma2
    # below zero: a rate outside the model, refused as fit_exponential
    # refuses one.
    params = NoiseParams(0.015, 0.03, -0.003, 0.003, 0.0015)
    rng = np.random.default_rng(32)
    curves = [synthetic_curve(kind, params, default_time_grid(), noise_sigma=0.05, rng=rng)
              for kind in CURVE_KINDS]
    with pytest.raises(ConvergenceError, match="positivity constraints: .*Gamma2"):
        fit_noise_model(curves)


GROWING_DQ = DecayCurve(KIND_DQ, [0.0, 1.0, 2.0, 3.0, 4.0], [1.0, 2.0, 4.0, 8.0, 16.0])
GROWING_MESSAGE = "DQ: fitted decay rate -0.693147 per unit of t is negative; the curve grows"
BTC_FIXED = {name: getattr(BTC_LIKE, name) for name in PINNING_KIND}


def _btc_zq():
    return synthetic_curve(KIND_ZQ, BTC_LIKE, suggested_times(KIND_ZQ, BTC_LIKE))


@pytest.mark.parametrize(
    "individual, message",
    [
        (None, GROWING_MESSAGE),
        # The caller's estimates are checked as given, not fitted again.
        ({KIND_ZQ: RateEstimate(-3.0, 0.1, 0.0), KIND_DQ: RateEstimate(12.182, 0.1, 0.0)},
         "ZQ: fitted decay rate -3 per unit of t is negative; the curve grows"),
    ],
    ids=["fitted", "callers"],
)
def test_fit_noise_model_refuses_a_negative_rate(individual, message):
    # With the other four rates fixed, gamma3 alone would fit the ZQ curve.
    with pytest.raises(DataError) as excinfo:
        fit_noise_model([_btc_zq(), GROWING_DQ], fixed=BTC_FIXED, individual=individual)
    assert str(excinfo.value) == message


@pytest.mark.parametrize("kinds", [(KIND_ZQ,), (KIND_ZQ, KIND_DQ, KIND_SQ1)],
                         ids=["missing", "extra"])
def test_fit_noise_model_individual_must_cover_the_curves_kinds(kinds):
    zq = _btc_zq()
    estimate = fit_exponential(zq)
    dq = synthetic_curve(KIND_DQ, BTC_LIKE, suggested_times(KIND_DQ, BTC_LIKE))
    with pytest.raises(ValueError) as excinfo:
        fit_noise_model([zq, dq], fixed=BTC_FIXED, individual=dict.fromkeys(kinds, estimate))
    assert str(excinfo.value) == (f"individual estimates are of kinds {tuple(sorted(kinds))}; "
                                  "expected the curves' kinds ('DQ', 'ZQ')")


def test_synthetic_curve_noise_is_the_multiplicative_draw():
    # One draw of rng per sample scales the model signal; sigma = 0 draws nothing.
    t = np.linspace(0.0, 1.0, 65)
    clean = synthetic_curve(KIND_DQ, BTC_LIKE, t, amplitude=0.7).signals
    rng = np.random.default_rng(4)
    noisy = synthetic_curve(KIND_DQ, BTC_LIKE, t, amplitude=0.7, noise_sigma=0.02, rng=rng)
    z = np.random.default_rng(4).standard_normal(t.size)
    assert np.array_equal(noisy.signals, clean * (1.0 + 0.02 * z))
    state = rng.bit_generator.state
    assert np.array_equal(synthetic_curve(KIND_DQ, BTC_LIKE, t, amplitude=0.7, rng=rng).signals, clean)
    assert rng.bit_generator.state == state


@pytest.mark.filterwarnings("error")
@pytest.mark.parametrize("sigma, message", [
    (float("nan"), "noise_sigma must be non-negative, got nan"),
    (-0.01, "noise_sigma must be non-negative, got -0.01"),
    (1e308, "noise_sigma = 1e+308 overflows the noisy signal"),
], ids=["nan", "negative", "overflow"])
def test_synthetic_curve_rejects_bad_noise_sigma(sigma, message):
    t = np.linspace(0.0, 1.0, 65)
    with pytest.raises(ValueError) as exc:
        synthetic_curve(KIND_DQ, BTC_LIKE, t, noise_sigma=sigma, rng=np.random.default_rng(0))
    assert str(exc.value) == message


def test_fit_exponential_with_multiplicative_noise():
    # Multiplicative noise is heteroscedastic, so the per-point sigmas feed
    # the weighted fit; the quoted stderr then has proper coverage.
    rng = np.random.default_rng(51)
    t = np.linspace(0.0, 2.0, 24)
    truth = np.exp(-2.0 * t)
    within = 0
    estimates = []
    for _ in range(200):
        signals = truth * (1.0 + 0.01 * rng.standard_normal(t.size))
        curve = DecayCurve(KIND_ZQ, t, signals, sigmas=0.01 * truth)
        estimate = fit_exponential(curve)
        estimates.append(estimate)
        if abs(estimate.rate - 2.0) <= 3.0 * estimate.stderr:
            within += 1
    assert within >= 196
    mean_rate = np.mean([e.rate for e in estimates])
    pooled = np.mean([e.stderr for e in estimates])
    assert abs(mean_rate - 2.0) < 0.5 * pooled


def test_fit_exponential_time_scale_equivariance():
    t = np.linspace(0.0, 2.0, 16)
    signals = np.exp(-1.7 * t)
    base = fit_exponential(DecayCurve(KIND_ZQ, t, signals)).rate
    scaled = fit_exponential(DecayCurve(KIND_ZQ, 10.0 * t, signals)).rate
    assert scaled == pytest.approx(base / 10.0, rel=1e-8)


_time_factor = st.floats(-15.0, 15.0).map(lambda e: 10.0**e)


def _scaled_times(curve, factor):
    return DecayCurve(curve.kind, factor * curve.times, curve.signals, curve.sigmas)


def _same_rate(unit_rate, unit_stderr, scaled_rate, factor, noisy):
    """A fit of times x factor gives the unit-scale rate / factor: within 1e-5
    of the unit fit's stderr on a noisy curve, within 1e-12 relative on a
    noiseless one."""
    tolerance = 1e-5 * unit_stderr if noisy else 1e-12 * abs(unit_rate)
    assert abs(scaled_rate * factor - unit_rate) <= tolerance


@settings(max_examples=200, deadline=None, derandomize=True)
@given(st.sampled_from(ALL_KINDS), _time_factor, st.sampled_from([0.0, 0.02]),
       st.integers(0, 2**32 - 1))
def test_fit_exponential_is_invariant_to_the_time_unit(kind, factor, sigma, seed):
    # The start reads its rate off the data, in the data's own time unit, so
    # a curve in ns fits as it does in s: no start bound assumes seconds.
    curve = synthetic_curve(kind, BTC_LIKE, suggested_times(kind, BTC_LIKE), amplitude=0.8,
                            noise_sigma=sigma, rng=np.random.default_rng(seed))
    try:
        unit = fit_exponential(curve)
    except (DataError, ConvergenceError):
        assume(False)
    scaled = fit_exponential(_scaled_times(curve, factor))
    _same_rate(unit.rate, unit.stderr, scaled.rate, factor, sigma > 0)


@settings(max_examples=100, deadline=None, derandomize=True)
@given(_time_factor, st.sampled_from([0.0, 0.02]), st.integers(0, 2**32 - 1))
def test_fit_noise_model_is_invariant_to_the_time_unit(factor, sigma, seed):
    # Each free rate starts at its pinning curve's rate, with no floor in 1/s.
    curves = six_curves(BTC_LIKE, noise_sigma=sigma, rng=np.random.default_rng(seed))
    try:
        unit = fit_noise_model(curves)
    except (DataError, ConvergenceError):
        assume(False)
    scaled = fit_noise_model([_scaled_times(curve, factor) for curve in curves])
    _same_rate(unit.params.gamma3, unit.stderr["gamma3"], scaled.params.gamma3, factor, sigma > 0)


def test_fit_exponential_slow_rate_in_seconds():
    # 1e-7 1/s over three e-foldings: from a start clamped to 1e-4 1/s the
    # model is 0 past t = 0, and the fit stopped there with a stderr of 1e50.
    t = np.linspace(0.0, 3e7, 24)
    estimate = fit_exponential(DecayCurve(KIND_ZQ, t, np.exp(-1e-7 * t)))
    assert estimate.rate == pytest.approx(1e-7, rel=1e-12)
    assert estimate.stderr < 1e-18


def test_fit_exponential_signal_scale_invariance():
    t = np.linspace(0.0, 2.0, 16)
    signals = np.exp(-1.7 * t)
    base = fit_exponential(DecayCurve(KIND_ZQ, t, signals))
    scaled = fit_exponential(DecayCurve(KIND_ZQ, t, 37.0 * signals))
    assert scaled.rate == pytest.approx(base.rate, rel=1e-8)
    assert scaled.amplitude == pytest.approx(37.0 * base.amplitude, rel=1e-8)


def test_fit_exponential_weighted():
    t = np.linspace(0.0, 2.0, 16)
    curve = DecayCurve(KIND_ZQ, t, np.exp(-0.8 * t), sigmas=np.full(16, 0.01))
    estimate = fit_exponential(curve)
    assert estimate.rate == pytest.approx(0.8, rel=1e-9)


def test_fit_exponential_rejections():
    t = np.linspace(0.0, 1.0, 10)
    with pytest.raises(DataError, match="4 samples"):
        fit_exponential(DecayCurve(KIND_ZQ, [0.0, 0.1, 0.2], [1.0, 0.9, 0.8]))
    with pytest.raises(DataError, match="constant"):
        fit_exponential(DecayCurve(KIND_ZQ, t, np.ones(10)))
    with pytest.raises(DataError) as excinfo:
        fit_exponential(GROWING_DQ)
    assert str(excinfo.value) == GROWING_MESSAGE


def test_rate_estimate_validation():
    with pytest.raises(ValueError):
        RateEstimate(np.nan, 0.1, 0.0)
    with pytest.raises(ValueError):
        RateEstimate(1.0, -0.1, 0.0)


_decade_rate = st.floats(-2.0, math.log10(300.0)).map(lambda e: 10.0**e)


@st.composite
def _cp_rates(draw):
    """Admissible rates spread over four decades, 1e-2 to 3e2 1/s."""
    g1, g2 = draw(_decade_rate), draw(_decade_rate)
    g3 = draw(st.floats(-1.0, 1.0)) * 2.0 * math.sqrt(g1) * math.sqrt(g2)
    try:
        return NoiseParams(g1, g2, g3, draw(_decade_rate), draw(_decade_rate))
    except ValueError:  # the diagonal clause, where the boundary rounds up
        assume(False)


@settings(max_examples=100, deadline=None, derandomize=True)
@given(_cp_rates())
def test_fits_recover_curves_that_underflow(params):
    # On the default grid a fast coherence decays to exact zeros; every
    # noise-free curve still fits back to its table rate, and the joint fit
    # to every rate (gamma3, which may be near 0, on the scale gamma1 + gamma2).
    curves = [synthetic_curve(kind, params, default_time_grid()) for kind in ALL_KINDS]
    for curve in curves:
        assert fit_exponential(curve).rate == pytest.approx(rate_for_kind(curve.kind, params), rel=1e-6)
    fitted = fit_noise_model(curves).params
    for name in ("gamma1", "gamma2", "Gamma1", "Gamma2"):
        assert getattr(fitted, name) == pytest.approx(getattr(params, name), rel=1e-6)
    assert abs(fitted.gamma3 - params.gamma3) <= 1e-6 * (params.gamma1 + params.gamma2)


def test_fit_exponential_non_convergence(monkeypatch):
    import spinpair.estimation as estimation

    monkeypatch.setattr(estimation, "MAX_ITERATIONS", 1)
    rng = np.random.default_rng(54)
    t = np.linspace(0.0, 2.0, 24)
    signals = np.exp(-2.0 * t) * (1.0 + 0.05 * rng.standard_normal(t.size))
    signals = np.abs(signals) + 1e-6
    with pytest.raises(ConvergenceError, match="converge"):
        fit_exponential(DecayCurve(KIND_ZQ, t, signals))


# Recovered by its first sample after t = 0: every rate above about 400 1/s
# fits it alike, so exp(-R t) underflows at t > 0 and the rate column is 0.
UNRESOLVED_T1 = DecayCurve(KIND_T1_SPIN1, [0.0, 2.0, 4.0, 6.0, 8.0], [-1.0, 1.01, 0.99, 1.0, 1.005])
UNRESOLVED = "the samples do not resolve every fitted parameter; J^T J is singular at the optimum"


def test_fit_exponential_unresolved_rate_is_convergence_error():
    # Not a rate of 2.6e42 1/s with a standard error of 0.
    with pytest.raises(ConvergenceError) as excinfo:
        fit_exponential(UNRESOLVED_T1)
    assert str(excinfo.value) == f"{KIND_T1_SPIN1}: {UNRESOLVED}"


def test_fit_noise_model_unresolved_rate_is_convergence_error():
    # Started from the unresolved T1 rate, Gamma1's column of the joint
    # Jacobian is 0 too; the joint fit does not report Gamma1 +/- 0.
    zq, dq = _btc_zq(), synthetic_curve(KIND_DQ, BTC_LIKE, suggested_times(KIND_DQ, BTC_LIKE))
    individual = {KIND_ZQ: fit_exponential(zq), KIND_DQ: fit_exponential(dq),
                  KIND_T1_SPIN1: RateEstimate(2.5596019744744742e42, 0.0, 0.0148, 1.001)}
    fixed = {name: BTC_FIXED[name] for name in ("gamma1", "gamma2", "Gamma2")}
    with pytest.raises(ConvergenceError) as excinfo:
        fit_noise_model([zq, dq, UNRESOLVED_T1], fixed=fixed, individual=individual)
    assert str(excinfo.value) == f"joint fit: {UNRESOLVED}"


def test_recovery_fits_never_report_a_zero_stderr():
    # Noisy recovery curves on coarse grids, where the first sample after
    # t = 0 has often recovered: a fit either returns a stderr > 0 for its
    # non-zero residual, or raises.
    rng = np.random.default_rng(28)
    returned = 0
    for _ in range(300):
        rate = 10.0 ** rng.uniform(-1.0, 1.0)
        times = rng.uniform(0.5, 20.0) / rate * np.arange(rng.integers(4, 61))
        curve = synthetic_curve(KIND_T1_SPIN1, NoiseParams(0, 0, 0, rate, 0), times,
                                noise_sigma=rng.choice([0.001, 0.01, 0.05]), rng=rng)
        try:
            estimate = fit_exponential(curve)
        except (DataError, ConvergenceError):
            continue
        returned += 1
        assert estimate.stderr > 0 or estimate.residual_norm == 0
    assert returned >= 150


def test_levenberg_marquardt_reports_no_descent():
    def residual_jac(x):
        # Finite at the start and inf at every other point, so no step lowers the cost.
        return np.array([1.0 if x[0] == 0.0 else np.inf]), np.ones((1, 1))

    x, _, _, converged, reason, iterations = _levenberg_marquardt(residual_jac, [0.0])
    assert (x.tolist(), converged, reason, iterations) == ([0.0], False, "no_descent", 1)


def test_levenberg_marquardt_never_stops_on_a_nan_gradient():
    # The gradient is (0, nan): a max-abs test that dropped the nan would stop
    # on "gradient" at once.  Every nan step is accepted at an equal cost.
    def residual_jac(x):
        return np.array([1.0]), np.array([[0.0, np.nan]])

    x, _, _, converged, reason, iterations = _levenberg_marquardt(residual_jac, [0.0, 0.0])
    assert (np.isnan(x).all(), converged, reason, iterations) == (
        True, False, "max_iterations", MAX_ITERATIONS)


def test_levenberg_marquardt_reports_no_descent_once_damping_overflows():
    # Each iteration rejects 59 trials and accepts the 60th, so damping grows
    # about 1e59 / 3 per iteration, and the Jacobian shrinks to match, so the
    # step does not vanish.  In the sixth iteration damping overflows to inf;
    # inf * 0 then puts nan off the diagonal, every trial point is nan, and
    # the fit ends in no_descent at the last accepted point.
    calls = itertools.count()
    trials = []

    def residual_jac(x):
        n = next(calls)
        trials.append(x.tolist())
        if n % 60 == 0 and np.isfinite(x).all():
            k = n // 60
            jac = np.array([[0.0, 0.0], [10.0 ** (89 - 58.5 * min(k, 4)), 0.0]])
            return np.array([1e153 * (1 - 1e-3 * k), 1e145]), jac
        return np.array([2e153, 1e145]), np.array([[0.0, 0.0], [1.0, 0.0]])

    x, _, _, converged, reason, iterations = _levenberg_marquardt(residual_jac, [0.0, 0.0])
    assert (x.tolist(), converged, reason, iterations) == (
        [-4.512498266295972, 0.0], False, "no_descent", 6)
    assert len(trials) == 1 + 6 * 60 and np.isnan(trials[-1]).all()


def test_levenberg_marquardt_stops_on_a_vanishing_step():
    # The step of about 1e7 is below STEP_TOL relative to x = 1e20, while the
    # gradient, also about 1e7, is far above GRADIENT_TOL.
    def residual_jac(x):
        return x - (1e20 + 1e7), np.eye(1)

    x, _, _, converged, reason, iterations = _levenberg_marquardt(residual_jac, [1e20])
    assert (x.tolist(), converged, reason, iterations) == ([1.0000000000000998e20], True, "step", 1)


# ----------------------------------------------------------------------
# Difference estimator
# ----------------------------------------------------------------------


@pytest.mark.parametrize(
    "zq, dq, expected",
    [
        ((0.430, 0.062), (12.182, 1.289), 5.876),
        ((0.189, 0.004), (6.975, 0.465), 3.393),
        ((4.247, 0.267), (21.594, 0.897), 8.6735),
    ],
)
def test_gamma3_difference_measured_rates(zq, dq, expected):
    estimate = gamma3_difference(
        RateEstimate(zq[0], zq[1], 0.0), RateEstimate(dq[0], dq[1], 0.0)
    )
    assert estimate.rate == pytest.approx(expected, abs=1e-12)
    assert estimate.stderr == pytest.approx(0.5 * np.hypot(zq[1], dq[1]), rel=1e-12)


def test_gamma3_difference_fit_identity():
    rng = np.random.default_rng(52)
    for _ in range(5):
        params = random_cp_params(rng)
        zq = fit_exponential(synthetic_curve(KIND_ZQ, params, suggested_times(KIND_ZQ, params)))
        dq = fit_exponential(synthetic_curve(KIND_DQ, params, suggested_times(KIND_DQ, params)))
        assert gamma3_difference(zq, dq).rate == pytest.approx(params.gamma3, abs=1e-8)


# ----------------------------------------------------------------------
# Joint fit
# ----------------------------------------------------------------------


def test_fit_noise_model_noiseless_round_trip():
    report = fit_noise_model(six_curves(BTC_LIKE))
    assert report.converged
    for name in ("gamma1", "gamma2", "gamma3", "Gamma1", "Gamma2"):
        fitted = getattr(report.params, name)
        truth = getattr(BTC_LIKE, name)
        assert fitted == pytest.approx(truth, rel=1e-6)
    assert max(report.per_curve_residuals.values()) < 1e-10


def test_fit_noise_model_reduced_matches_difference():
    params = NoiseParams(1.5, 2.5, 1.2, 0.3, 0.4)
    curves = [
        synthetic_curve(KIND_ZQ, params, suggested_times(KIND_ZQ, params)),
        synthetic_curve(KIND_DQ, params, suggested_times(KIND_DQ, params)),
    ]
    fixed = {"gamma1": 1.5, "gamma2": 2.5, "Gamma1": 0.3, "Gamma2": 0.4}
    report = fit_noise_model(curves, fixed=fixed)
    assert report.fixed == ("Gamma1", "Gamma2", "gamma1", "gamma2")
    assert report.params.gamma3 == pytest.approx(report.consistency.gamma3_difference, abs=1e-8)
    assert report.params.gamma3 == pytest.approx(params.gamma3, abs=1e-8)


def test_fit_noise_model_consistency_diagnostic_signs():
    # Rates pinned at values that over-predict the multiple-quantum decay:
    # the diagnostic must surface equal positive mismatches on both curves.
    zq_curve = synthetic_curve(KIND_ZQ, NoiseParams(0.215, 0.215, 0, 0, 0),
                               np.linspace(0, 6, 24))
    dq_curve = synthetic_curve(KIND_DQ, NoiseParams(6.091, 6.091, 0, 0, 0),
                               np.linspace(0, 0.25, 24))
    fixed = {"gamma1": 3.741, "gamma2": 3.048, "Gamma1": 0.264, "Gamma2": 0.255}
    report = fit_noise_model([zq_curve, dq_curve], fixed=fixed)
    c = report.consistency
    assert c.zq_rate_measured == pytest.approx(0.430, abs=1e-6)
    assert c.dq_rate_measured == pytest.approx(12.182, abs=1e-6)
    base = 3.741 + 3.048 + 0.5 * (0.264 + 0.255)
    assert c.zq_rate_predicted == pytest.approx(base - c.gamma3_difference, abs=1e-9)
    assert c.dq_rate_predicted == pytest.approx(base + c.gamma3_difference, abs=1e-9)
    assert c.zq_rate_mismatch == pytest.approx(c.dq_rate_mismatch, abs=1e-6)
    assert c.zq_rate_mismatch > 0


def test_fit_noise_model_monte_carlo_bias():
    rng = np.random.default_rng(53)
    estimates = []
    for _ in range(50):
        report = fit_noise_model(six_curves(BTC_LIKE, noise_sigma=0.02, rng=rng))
        estimates.append((report.params.gamma3, report.stderr["gamma3"]))
    bias = np.mean([e[0] for e in estimates]) - BTC_LIKE.gamma3
    pooled = np.mean([e[1] for e in estimates])
    assert abs(bias) < 0.5 * pooled


def test_fit_noise_model_fully_weighted():
    rng = np.random.default_rng(55)
    curves = []
    for kind in ALL_KINDS:
        t = suggested_times(kind, BTC_LIKE)
        clean = signal_model(kind, BTC_LIKE, t)
        noisy = clean * (1.0 + 0.01 * rng.standard_normal(t.size))
        curves.append(DecayCurve(kind, t, noisy, sigmas=np.maximum(0.01 * np.abs(clean), 1e-6)))
    report = fit_noise_model(curves)
    assert report.converged
    assert report.params.gamma3 == pytest.approx(BTC_LIKE.gamma3, abs=4 * report.stderr["gamma3"])
    assert report.stderr["gamma3"] > 0


def test_fit_noise_model_missing_mandatory_curve():
    curves = [synthetic_curve(KIND_ZQ, BTC_LIKE, suggested_times(KIND_ZQ, BTC_LIKE))]
    with pytest.raises(DataError, match="DQ"):
        fit_noise_model(curves)


def test_fit_noise_model_missing_rate_information():
    curves = [
        synthetic_curve(KIND_ZQ, BTC_LIKE, suggested_times(KIND_ZQ, BTC_LIKE)),
        synthetic_curve(KIND_DQ, BTC_LIKE, suggested_times(KIND_DQ, BTC_LIKE)),
    ]
    with pytest.raises(DataError, match="gamma1"):
        fit_noise_model(curves, fixed={"gamma2": 1.0, "Gamma1": 0.1, "Gamma2": 0.1})


def test_fit_noise_model_checks_its_pins_before_fitting(monkeypatch):
    # Each rate's role is decided before any curve is fitted, so a missing
    # pin is reported ahead of the growing DQ curve, and nothing is fitted.
    import spinpair.estimation as estimation

    fitted = []

    def counted(curve):
        fitted.append(curve.kind)
        return fit_exponential(curve)

    monkeypatch.setattr(estimation, "fit_exponential", counted)
    with pytest.raises(DataError) as excinfo:
        fit_noise_model([_btc_zq(), GROWING_DQ], fixed={"gamma2": 1.0, "Gamma1": 0.1, "Gamma2": 0.1})
    assert str(excinfo.value) == "rate 'gamma1' has no curve of kind 'SQ1' and no fixed value"
    assert fitted == []


def test_fit_noise_model_refuses_mixed_weights_before_fitting(monkeypatch):
    # Sigmas on ZQ alone would weight ZQ by 1/sigma and the others by 1, and
    # every stderr would then follow the size of ZQ's sigmas.
    import spinpair.estimation as estimation

    curves = six_curves(BTC_LIKE, noise_sigma=0.02, rng=np.random.default_rng(28))
    zq = curves[ALL_KINDS.index(KIND_ZQ)]
    curves[ALL_KINDS.index(KIND_ZQ)] = DecayCurve(KIND_ZQ, zq.times, zq.signals,
                                                  0.02 * np.abs(zq.signals))
    fitted = []

    def counted(curve):
        fitted.append(curve.kind)
        return fit_exponential(curve)

    monkeypatch.setattr(estimation, "fit_exponential", counted)
    with pytest.raises(DataError) as excinfo:
        fit_noise_model(curves)
    assert str(excinfo.value) == (
        "mixed weights: sigmas on some curves but not on T1_inversion_recovery_spin1, "
        "T1_inversion_recovery_spin2, SQ1, SQ2, DQ; a joint fit weights every curve or none")
    assert fitted == []


def test_fit_noise_model_rejects_fixed_gamma3():
    with pytest.raises(ValueError, match="gamma3"):
        fit_noise_model(six_curves(BTC_LIKE), fixed={"gamma3": 1.0})


def test_fit_noise_model_rejects_duplicate_kind():
    curve = synthetic_curve(KIND_ZQ, BTC_LIKE, suggested_times(KIND_ZQ, BTC_LIKE))
    with pytest.raises(DataError, match="duplicate"):
        fit_noise_model([curve, curve])


@pytest.mark.parametrize(
    "fixed, message",
    [
        ({"bogus": 1.0}, "fixed rate 'bogus' is unknown; expected one of "
                         "('gamma1', 'gamma2', 'Gamma1', 'Gamma2')"),
        ({"Gamma1": float("nan")}, "fixed rate 'Gamma1' = nan must be a finite non-negative number"),
        ({"gamma2": -0.5}, "fixed rate 'gamma2' = -0.5 must be a finite non-negative number"),
        ({"gamma1": None}, "fixed rate 'gamma1' = None must be a finite non-negative number"),
    ],
)
def test_fit_noise_model_rejects_bad_fixed_rate(monkeypatch, fixed, message):
    import spinpair.estimation as estimation

    # Rejected at entry, before any curve is fitted.
    monkeypatch.setattr(estimation, "fit_exponential", None)
    curves = [synthetic_curve(kind, BTC_LIKE, suggested_times(kind, BTC_LIKE))
              for kind in (KIND_ZQ, KIND_DQ)]
    fixed = {"gamma1": 3.741, "gamma2": 3.048, "Gamma1": 0.264, "Gamma2": 0.255, **fixed}
    with pytest.raises(ValueError) as excinfo:
        fit_noise_model(curves, fixed=fixed)
    assert str(excinfo.value) == message


def _exact(value):
    """`value` with each float as its hex digits and type name, so that == is bitwise."""
    if isinstance(value, float):
        return type(value).__name__, value.hex()
    if isinstance(value, dict):
        return {key: _exact(item) for key, item in value.items()}
    if isinstance(value, (list, tuple)):
        return [_exact(item) for item in value]
    return value


def _outcome(fit, *args, **kwargs):
    try:
        result = fit(*args, **kwargs)
    except Exception as exc:
        return type(exc), str(exc)
    return _exact(vars(result) if isinstance(result, RateEstimate) else result.to_dict())


@st.composite
def _fit_inputs(draw):
    """Curves of a CP model with per-kind sizes and spans, noise, weights, and
    one of: all rates fitted, a fixed subset (with or without its curves), or
    ZQ and DQ alone with the other four rates fixed (some of them off)."""
    unit = st.floats(0.0, 1.0)
    g1, g2 = 0.05 + 10 * draw(unit), 0.05 + 10 * draw(unit)
    params = NoiseParams(g1, g2, (1.9 * draw(unit) - 0.95) * 2.0 * np.sqrt(g1 * g2),
                         0.01 + 2 * draw(unit), 0.01 + 2 * draw(unit))
    sigma = draw(st.sampled_from([0.0, 0.02, 0.02 * draw(unit)]))
    weighted = draw(st.booleans())
    rng = np.random.default_rng(draw(st.integers(0, 2**32 - 1)))
    mode = draw(st.sampled_from(["all", "subset", "zq_dq"]))
    fixed, dropped = {}, set()
    for name, kind in PINNING_KIND.items():
        if mode == "zq_dq" or (mode == "subset" and draw(st.booleans())):
            fixed[name] = getattr(params, name) * draw(st.sampled_from([1.0, 1.0, 1.5]))
            if mode == "zq_dq" or draw(st.booleans()):
                dropped.add(kind)
    curves = []
    for kind in CURVE_KINDS:
        size, span = draw(st.integers(4, 200)), 0.5 + 4.5 * draw(unit)
        times = np.linspace(0.0, span / rate_for_kind(kind, params), size)
        curve = synthetic_curve(kind, params, times, amplitude=0.5 + draw(unit),
                                noise_sigma=sigma, rng=rng)
        if weighted:
            sigmas = max(sigma, 1e-3) * np.abs(curve.signals) + 1e-6
            curve = DecayCurve(kind, curve.times, curve.signals, sigmas)
        if kind not in dropped:
            curves.append(curve)
    return curves, fixed or None


@settings(max_examples=150, deadline=None, derandomize=True)
@given(_fit_inputs())
def test_fits_match_reference(inputs):
    # The fits before the one-pass joint model and the lean iteration loop,
    # kept verbatim: every estimate, report value and error must match bit for bit
    # from the same start, so the reference starts from the package's seed.
    curves, fixed = inputs
    with mock.patch.object(reference, "_initial_guess", _initial_guess):
        for curve in curves:
            assert _outcome(fit_exponential, curve) == _outcome(reference.fit_exponential, curve)
        assert (_outcome(fit_noise_model, curves, fixed=fixed)
                == _outcome(reference.fit_noise_model, curves, fixed=fixed))


# ----------------------------------------------------------------------
# CSV / JSON interchange
# ----------------------------------------------------------------------


def test_load_curve_two_column(tmp_path):
    path = tmp_path / "zq.csv"
    path.write_text("# comment\nt,signal\n0,1\n0.1,0.8\n0.2,0.64\n0.3,0.5\n", encoding="utf-8")
    curve = load_curve(path, KIND_ZQ)
    assert curve.sigmas is None
    assert len(curve) == 4
    assert curve.signals[2] == pytest.approx(0.64)


def test_load_curve_three_column(tmp_path):
    path = tmp_path / "dq.csv"
    path.write_text("t,signal,sigma\n0,1,0.01\n0.1,0.8,0.01\n0.2,0.6,0.02\n0.3,0.5,0.02\n",
                    encoding="utf-8")
    curve = load_curve(path, KIND_DQ)
    assert curve.sigmas is not None
    assert curve.sigmas[-1] == pytest.approx(0.02)


def test_load_curve_rejects_non_monotone_with_line_number(tmp_path):
    path = tmp_path / "bad.csv"
    path.write_text("t,signal\n0,1\n0.2,0.8\n0.1,0.7\n0.4,0.6\n", encoding="utf-8")
    with pytest.raises(DataError, match=r"bad\.csv:4"):
        load_curve(path, KIND_ZQ)


def test_load_curve_rejects_bad_header_and_values(tmp_path):
    bad_header = tmp_path / "h.csv"
    bad_header.write_text("time,value\n0,1\n", encoding="utf-8")
    with pytest.raises(DataError, match="header"):
        load_curve(bad_header, KIND_ZQ)

    bad_value = tmp_path / "v.csv"
    bad_value.write_text("t,signal\n0,1\n0.1,oops\n", encoding="utf-8")
    with pytest.raises(DataError, match=r"v\.csv:3"):
        load_curve(bad_value, KIND_ZQ)

    empty = tmp_path / "e.csv"
    empty.write_text("# nothing\n", encoding="utf-8")
    with pytest.raises(DataError, match="no data"):
        load_curve(empty, KIND_ZQ)


def test_save_and_reload_curve(tmp_path):
    curve = synthetic_curve(KIND_DQ, BTC_LIKE, suggested_times(KIND_DQ, BTC_LIKE))
    path = tmp_path / "round.csv"
    save_curve(curve, path)
    back = load_curve(path, KIND_DQ)
    assert np.allclose(back.times, curve.times)
    assert np.allclose(back.signals, curve.signals)


def test_fit_report_to_dict():
    # The CLI writes this dict as fit_report.json, so it must survive JSON.
    payload = json.loads(json.dumps(fit_noise_model(six_curves(BTC_LIKE)).to_dict()))
    assert payload["converged"] is True
    assert payload["gamma3"] == pytest.approx(BTC_LIKE.gamma3, rel=1e-6)
    assert "stderr_gamma3" in payload
    assert "residual_norm_ZQ" in payload
    assert payload["zq_rate_mismatch"] == pytest.approx(0.0, abs=1e-6)
