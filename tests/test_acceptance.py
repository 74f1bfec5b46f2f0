"""Acceptance suite: every criterion at its stated tolerance, one pass line
per criterion (run with -v; each test name identifies its criterion)."""

import time

import numpy as np
import pytest

from conftest import random_cp_params, random_density_matrix
from spinpair.channels import (
    NoiseParams,
    choi_matrix,
    devectorize,
    full_generator,
    gad_apply,
    gad_generator_single,
    is_trace_preserving_generator,
    phase_damping_apply,
    phase_damping_generator,
    preserves_hermiticity,
    vectorize,
)
from spinpair.estimation import (
    KIND_DQ,
    KIND_ZQ,
    RateEstimate,
    fit_noise_model,
    gamma3_difference,
    suggested_times,
    synthetic_curve,
)
from spinpair.evolution import matrix_exp, propagate
from spinpair.presets import PRESETS
from spinpair.states import coherence_state, prepare_via_sequence
from spinpair.tomography import SETTINGS, fidelity, reconstruct, simulate_readout

BTC_LIKE = NoiseParams(3.741, 3.048, 5.876, 0.264, 0.255)

MEASURED_MQ_RATES = {
    "btc": ((0.430, 0.062), (12.182, 1.289), 5.876),
    "cytosine": ((0.189, 0.004), (6.975, 0.465), 3.393),
    "coumarin": ((4.247, 0.267), (21.594, 0.897), 8.6735),
}


def _passed(criterion, detail):
    print(f"ACCEPTANCE {criterion} PASS: {detail}")


def test_criterion_01_table_gamma3_reproduction():
    start = time.perf_counter()
    results = {}
    for name, ((zq, zq_err), (dq, dq_err), expected) in MEASURED_MQ_RATES.items():
        estimate = gamma3_difference(
            RateEstimate(zq, zq_err, 0.0), RateEstimate(dq, dq_err, 0.0)
        )
        results[name] = estimate.rate
        assert abs(estimate.rate - expected) <= 1e-3
    elapsed = time.perf_counter() - start
    assert elapsed < 1e-3
    _passed(1, f"gamma3 = {results} within 1e-3, {elapsed * 1e6:.0f} us")


def test_criterion_02_analytic_numeric_equivalence():
    start = time.perf_counter()
    rng = np.random.default_rng(101)
    times = np.geomspace(1e-3, 5.0, 16)
    worst = 0.0
    for _ in range(100):
        params = random_cp_params(rng)
        gen = full_generator(params)
        for kind in (KIND_ZQ, KIND_DQ):
            rho0 = coherence_state(kind)
            for t in times:
                numeric = devectorize(matrix_exp(gen * t) @ vectorize(rho0))
                diff = np.abs(propagate(rho0, params, t) - numeric).max()
                worst = max(worst, float(diff))
    elapsed = time.perf_counter() - start
    assert worst <= 1e-10
    assert elapsed < 10.0
    _passed(2, f"max |closed form - numeric| = {worst:.2e} over 100 params x 16 times, {elapsed:.1f} s")


def test_criterion_03_cptp_property_suite():
    start = time.perf_counter()
    rng = np.random.default_rng(102)
    params_list = [random_cp_params(rng) for _ in range(40)]
    params_list += [preset.noise for preset in PRESETS.values()]
    params_list.append(BTC_LIKE)
    worst_eig = 0.0
    for params in params_list:
        gen = full_generator(params)
        assert is_trace_preserving_generator(gen, tol=1e-12)
        assert preserves_hermiticity(gen, random_density_matrix(rng), tol=1e-12)
        for t in (0.01, 0.1, 1.0):
            choi = choi_matrix(matrix_exp(gen * t))
            min_eig = float(np.linalg.eigvalsh(choi).min())
            worst_eig = min(worst_eig, min_eig)
            assert min_eig >= -1e-10
    elapsed = time.perf_counter() - start
    assert elapsed < 10.0
    _passed(3, f"{len(params_list)} generators CPTP, worst Choi eigenvalue {worst_eig:.2e}, {elapsed:.1f} s")


def test_criterion_04_single_spin_channel_oracles():
    rng = np.random.default_rng(103)
    worst = 0.0
    for _ in range(50):
        a = rng.standard_normal((2, 2)) + 1j * rng.standard_normal((2, 2))
        rho = a @ a.conj().T
        rho /= rho.trace().real
        rate = rng.uniform(0.1, 3.0)
        t = rng.uniform(0.0, 2.0)
        pd_gen = devectorize(matrix_exp(phase_damping_generator(rate) * t) @ vectorize(rho))
        pd_map = phase_damping_apply(rho, rate, t)
        gad_gen = devectorize(matrix_exp(gad_generator_single(rate) * t) @ vectorize(rho))
        gad_map = gad_apply(rho, rate, 0.5, t)
        worst = max(worst, float(np.abs(pd_gen - pd_map).max()), float(np.abs(gad_gen - gad_map).max()))
    assert worst <= 1e-10
    _passed(4, f"generator-vs-Kraus max deviation {worst:.2e} on 50 states")


def test_criterion_05_preparation_fidelity():
    values = {}
    for name, preset in PRESETS.items():
        for target in (KIND_ZQ, KIND_DQ):
            rho = prepare_via_sequence(target, preset.system, 1.0)
            fid = fidelity(rho, coherence_state(target))
            values[f"{name}/{target}"] = round(fid, 6)
            assert fid >= 0.999
    _passed(5, f"ideal-pulse preparation fidelities {values}")


def test_criterion_06_tomography_round_trip():
    rng = np.random.default_rng(104)
    worst = 0.0
    for _ in range(100):
        rho = random_density_matrix(rng)
        records = [simulate_readout(rho, s) for s in SETTINGS]
        err = float(np.linalg.norm(reconstruct(records) - rho))
        worst = max(worst, err)
    assert worst <= 1e-10
    _passed(6, f"max Frobenius reconstruction error {worst:.2e} on 100 states")


def _btc_like_curves(noise_sigma=0.0, rng=None):
    return [
        synthetic_curve(kind, BTC_LIKE, suggested_times(kind, BTC_LIKE),
                        noise_sigma=noise_sigma, rng=rng)
        for kind in (
            "T1_inversion_recovery_spin1",
            "T1_inversion_recovery_spin2",
            "SQ1",
            "SQ2",
            KIND_ZQ,
            KIND_DQ,
        )
    ]


def test_criterion_07_fit_round_trip_and_monte_carlo():
    report = fit_noise_model(_btc_like_curves())
    worst_rel = 0.0
    for name in ("gamma1", "gamma2", "gamma3", "Gamma1", "Gamma2"):
        rel = abs(getattr(report.params, name) - getattr(BTC_LIKE, name)) / getattr(BTC_LIKE, name)
        worst_rel = max(worst_rel, rel)
        assert rel <= 1e-6

    rng = np.random.default_rng(105)
    gamma3_estimates = []
    gamma3_stderrs = []
    for _ in range(200):
        noisy = fit_noise_model(_btc_like_curves(noise_sigma=0.02, rng=rng))
        gamma3_estimates.append(noisy.params.gamma3)
        gamma3_stderrs.append(noisy.stderr["gamma3"])
    bias = float(np.mean(gamma3_estimates)) - BTC_LIKE.gamma3
    pooled = float(np.mean(gamma3_stderrs))
    assert abs(bias) < 0.5 * pooled
    _passed(7, f"noiseless recovery rel err {worst_rel:.1e}; MC bias {bias:+.4f} vs 0.5*stderr {0.5 * pooled:.4f}")


def test_criterion_08_model_consistency_diagnostic():
    zq_curve = synthetic_curve(
        KIND_ZQ, NoiseParams(0.215, 0.215, 0.0, 0.0, 0.0), np.linspace(0.0, 7.0, 24)
    )
    dq_curve = synthetic_curve(
        KIND_DQ, NoiseParams(6.091, 6.091, 0.0, 0.0, 0.0), np.linspace(0.0, 0.25, 24)
    )
    fixed = {"gamma1": 3.741, "gamma2": 3.048, "Gamma1": 0.264, "Gamma2": 0.255}
    report = fit_noise_model([zq_curve, dq_curve], fixed=fixed)
    c = report.consistency
    assert c is not None
    base = 3.741 + 3.048 + 0.5 * (0.264 + 0.255)  # 7.0485
    assert c.zq_rate_predicted == pytest.approx(base - c.gamma3_difference, abs=1e-9)
    assert c.dq_rate_predicted == pytest.approx(base + c.gamma3_difference, abs=1e-9)
    assert c.gamma3_difference == pytest.approx(5.876, abs=1e-6)
    # The 1/T2-pinned model over-predicts both measured rates by the same margin.
    assert c.zq_rate_mismatch == pytest.approx(0.7425, abs=1e-6)
    assert c.dq_rate_mismatch == pytest.approx(0.7425, abs=1e-6)
    assert c.zq_rate_mismatch > 0 and c.dq_rate_mismatch > 0
    _passed(8, f"diagnostic surfaced: predicted {c.zq_rate_predicted:.4f}/{c.dq_rate_predicted:.4f} "
               f"vs measured {c.zq_rate_measured:.3f}/{c.dq_rate_measured:.3f}")


def test_criterion_09_suite_runtime(suite_start):
    elapsed = time.perf_counter() - suite_start
    assert elapsed <= 60.0
    _passed(9, f"suite runtime {elapsed:.1f} s <= 60 s")
