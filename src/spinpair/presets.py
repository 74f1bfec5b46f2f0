"""Built-in molecular presets: spin-system parameters, the measured
relaxation rates of each molecule, and a noise-parameter set that reproduces
the measured multiple-quantum decay rates exactly.
"""

from __future__ import annotations

from dataclasses import dataclass

from .channels import NoiseParams
from .estimation import RateEstimate, gamma3_difference
from .spinops import SpinSystem


@dataclass(frozen=True)
class MeasuredRates:
    """Experimentally measured relaxation rates (1/s) with standard errors.

    t2_rate_1/t2_rate_2 are the single-quantum coherence decay rates of each
    spin; zq_rate/dq_rate the zero- and double-quantum coherence decay rates.
    """

    Gamma1: float
    Gamma1_err: float
    Gamma2: float
    Gamma2_err: float
    t2_rate_1: float
    t2_rate_1_err: float
    t2_rate_2: float
    t2_rate_2_err: float
    zq_rate: float
    zq_rate_err: float
    dq_rate: float
    dq_rate_err: float


@dataclass(frozen=True)
class Preset:
    system: SpinSystem
    rates: MeasuredRates
    noise: NoiseParams


def _mq_consistent_noise(rates: MeasuredRates) -> NoiseParams:
    """Noise parameters reproducing the measured ZQ and DQ rates exactly.

    Gamma's are the measured 1/T1 values and gamma3 the difference estimate;
    the dephasing sum gamma1 + gamma2 is then pinned by the mean of the
    measured multiple-quantum rates and split in proportion to the measured
    1/T2 values.  (The measured 1/T2 rates themselves over-predict the
    multiple-quantum decay; that mismatch is the model-consistency
    diagnostic surfaced by the estimation module.)
    """
    dephasing_sum = 0.5 * (rates.zq_rate + rates.dq_rate) - 0.5 * (rates.Gamma1 + rates.Gamma2)
    t2_sum = rates.t2_rate_1 + rates.t2_rate_2
    gamma1 = dephasing_sum * rates.t2_rate_1 / t2_sum
    return NoiseParams(
        gamma1=gamma1,
        gamma2=dephasing_sum - gamma1,
        gamma3=gamma3_difference(RateEstimate(rates.zq_rate, rates.zq_rate_err, 0.0),
                                 RateEstimate(rates.dq_rate, rates.dq_rate_err, 0.0)).rate,
        Gamma1=rates.Gamma1,
        Gamma2=rates.Gamma2,
    )


def _preset(system: SpinSystem, rates: MeasuredRates) -> Preset:
    return Preset(system=system, rates=rates, noise=_mq_consistent_noise(rates))


PRESETS: dict[str, Preset] = {
    "btc": _preset(
        SpinSystem(nu1=4602.4, nu2=4287.0, j12=4.2, name="BTC acid"),
        MeasuredRates(
            Gamma1=0.264, Gamma1_err=0.004,
            Gamma2=0.255, Gamma2_err=0.003,
            t2_rate_1=3.741, t2_rate_1_err=0.242,
            t2_rate_2=3.048, t2_rate_2_err=0.376,
            zq_rate=0.430, zq_rate_err=0.062,
            dq_rate=12.182, dq_rate_err=1.289,
        ),
    ),
    "cytosine": _preset(
        SpinSystem(nu1=4407.7, nu2=3490.8, j12=7.1, name="Cytosine"),
        MeasuredRates(
            Gamma1=0.153, Gamma1_err=0.002,
            Gamma2=0.152, Gamma2_err=0.014,
            t2_rate_1=1.618, t2_rate_1_err=0.080,
            t2_rate_2=1.891, t2_rate_2_err=0.096,
            zq_rate=0.189, zq_rate_err=0.004,
            dq_rate=6.975, dq_rate_err=0.465,
        ),
    ),
    "coumarin": _preset(
        SpinSystem(nu1=4734.0, nu2=3807.9, j12=9.5, name="Coumarin"),
        MeasuredRates(
            Gamma1=0.210, Gamma1_err=0.004,
            Gamma2=0.135, Gamma2_err=0.002,
            t2_rate_1=6.813, t2_rate_1_err=0.356,
            t2_rate_2=6.761, t2_rate_2_err=0.286,
            zq_rate=4.247, zq_rate_err=0.267,
            dq_rate=21.594, dq_rate_err=0.897,
        ),
    ),
}


def get_preset(name: str) -> Preset:
    try:
        return PRESETS[name]
    except KeyError:
        raise ValueError(f"unknown preset {name!r}; available: {sorted(PRESETS)}") from None
