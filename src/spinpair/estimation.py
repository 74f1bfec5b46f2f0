"""Decay-signal models and noise-rate estimation: single-curve exponential
fitting, the zero-/double-quantum difference estimator for the correlated
dephasing rate, and joint fitting of all five rates to a set of decay curves.

Fits use damped least squares with analytic Jacobians.  Signals are
dimensionless and normalized so the model amplitude is a free nuisance
parameter; weights are 1/sigma when per-point uncertainties are supplied.
"""

from __future__ import annotations

import math
from dataclasses import asdict, dataclass
from itertools import accumulate
from pathlib import Path

import numpy as np

from .channels import NoiseParams
from .spinops import _finite_real

KIND_T1_SPIN1 = "T1_inversion_recovery_spin1"
KIND_T1_SPIN2 = "T1_inversion_recovery_spin2"
KIND_SQ1 = "SQ1"
KIND_SQ2 = "SQ2"
KIND_ZQ = "ZQ"
KIND_DQ = "DQ"

CURVE_KINDS = (KIND_T1_SPIN1, KIND_T1_SPIN2, KIND_SQ1, KIND_SQ2, KIND_ZQ, KIND_DQ)
RECOVERY_KINDS = (KIND_T1_SPIN1, KIND_T1_SPIN2)

RATE_NAMES = ("gamma1", "gamma2", "gamma3", "Gamma1", "Gamma2")

# The decay rate each curve kind probes, as coefficients of RATE_NAMES:
# R_ZQ/DQ = gamma1 + gamma2 -/+ gamma3 + (Gamma1 + Gamma2) / 2.
RATE_TABLE = {
    KIND_SQ1: (1.0, 0.0, 0.0, 0.0, 0.0),
    KIND_SQ2: (0.0, 1.0, 0.0, 0.0, 0.0),
    KIND_T1_SPIN1: (0.0, 0.0, 0.0, 1.0, 0.0),
    KIND_T1_SPIN2: (0.0, 0.0, 0.0, 0.0, 1.0),
    KIND_ZQ: (1.0, 1.0, -1.0, 0.5, 0.5),
    KIND_DQ: (1.0, 1.0, 1.0, 0.5, 0.5),
}

# Each kind's signal is offset + slope * exp(-R t) at unit amplitude.
CURVE_SHAPE = {kind: (1.0, -2.0) if kind in RECOVERY_KINDS else (0.0, 1.0) for kind in CURVE_KINDS}

# Each rate that a single curve kind probes alone, with that pinning kind.
PINNING_KIND = {
    RATE_NAMES[row.index(1.0)]: kind for kind, row in RATE_TABLE.items() if row.count(0.0) == 4
}

MAX_ITERATIONS = 200
# The relative cost, step and gradient tolerances of _levenberg_marquardt's stop tests.
FTOL = 1e-9
XTOL = 1e-12
GTOL = 1e-12
# Signals whose largest magnitude has a binary exponent beyond +/- this are fitted
# scaled by a power of two, so that no squared residual leaves the float range.
SIGNAL_EXPONENT_LIMIT = 64
# The squared column norms of a Jacobian in that band, on the diagonal of J^T J.
_NORMAL_BAND = (2.0 ** (-2 * SIGNAL_EXPONENT_LIMIT), 2.0 ** (2 * SIGNAL_EXPONENT_LIMIT))
# Its upper bound starts an unresolvable slope; tests/estimation_reference.py clamps to both.
RATE_GUESS_BOUNDS = (1e-4, 1e3)


class DataError(ValueError):
    """Malformed or inconsistent decay-curve data."""


class ConvergenceError(RuntimeError):
    """A fit failed to converge within the iteration budget."""


@dataclass(frozen=True)
class DecayCurve:
    """Time-stamped signal samples of one experiment kind."""

    kind: str
    times: np.ndarray
    signals: np.ndarray
    sigmas: np.ndarray | None = None

    def __post_init__(self):
        if self.kind not in CURVE_KINDS:
            raise DataError(f"unknown curve kind {self.kind!r}; expected one of {CURVE_KINDS}")
        object.__setattr__(self, "times", np.asarray(self.times, dtype=float))
        object.__setattr__(self, "signals", np.asarray(self.signals, dtype=float))
        if self.times.ndim != 1 or self.times.shape != self.signals.shape:
            raise DataError("times and signals must be 1-d arrays of equal length")
        if not (np.isfinite(self.times).all() and np.isfinite(self.signals).all()):
            raise DataError("times and signals must be finite")
        increasing = self.times[1:] > self.times[:-1]
        if not increasing.all():
            # argmin finds the first False: the first sample not above its predecessor.
            raise DataError("times must be strictly increasing "
                            f"(violated at sample {increasing.argmin() + 1})")
        if self.sigmas is not None:
            object.__setattr__(self, "sigmas", np.asarray(self.sigmas, dtype=float))
            if self.sigmas.shape != self.times.shape:
                raise DataError("sigmas must match times in length")
            if not np.isfinite(self.sigmas).all():
                raise DataError("sigmas must be finite")
            if np.any(self.sigmas <= 0):
                raise DataError("sigmas must be positive")

    def __len__(self) -> int:
        return self.times.size


@dataclass(frozen=True)
class RateEstimate:
    """Fitted decay rate with standard error and weighted residual norm."""

    rate: float
    stderr: float
    residual_norm: float
    amplitude: float = 1.0

    def __post_init__(self):
        if not math.isfinite(self.rate):
            raise ValueError("rate must be finite")
        if self.stderr < 0:
            raise ValueError("stderr must be non-negative")


@dataclass(frozen=True)
class ModelConsistency:
    """Difference-estimator diagnostic against the individually fitted rates.

    Predicted rates come from the model with the dephasing/damping rates of
    the report and the correlated rate replaced by the difference estimate;
    mismatches are predicted minus measured.
    """

    gamma3_difference: float
    gamma3_difference_stderr: float
    zq_rate_measured: float
    dq_rate_measured: float
    zq_rate_predicted: float
    dq_rate_predicted: float
    zq_rate_mismatch: float
    dq_rate_mismatch: float


@dataclass(frozen=True)
class FitReport:
    """Result of a joint noise-model fit."""

    params: NoiseParams
    stderr: dict[str, float]
    amplitudes: dict[str, float]
    per_curve_residuals: dict[str, float]
    converged: bool
    convergence_reason: str
    iterations: int
    consistency: ModelConsistency
    fixed: tuple[str, ...] = ()

    def to_dict(self) -> dict:
        """Flat JSON-ready view of the report."""
        out: dict = asdict(self.params)
        for name, value in sorted(self.stderr.items()):
            out[f"stderr_{name}"] = value
        for kind, value in sorted(self.amplitudes.items()):
            out[f"amplitude_{kind}"] = value
        for kind, value in sorted(self.per_curve_residuals.items()):
            out[f"residual_norm_{kind}"] = value
        out["converged"] = self.converged
        out["convergence_reason"] = self.convergence_reason
        out["iterations"] = self.iterations
        out["fixed"] = sorted(self.fixed)
        out.update(asdict(self.consistency))
        return out


def _table_rates(coeffs, rates):
    """RATE_TABLE coefficients (one row, or five columns) applied to the five
    rates, in RATE_NAMES order.  The grouping makes a ZQ/DQ row bit for bit
    gamma1 + gamma2 + 0.5 * (Gamma1 + Gamma2) -/+ gamma3."""
    c1, c2, c3, d1, d2 = coeffs
    gamma1, gamma2, gamma3, big_gamma1, big_gamma2 = rates
    return (c1 * gamma1 + c2 * gamma2) + (d1 * big_gamma1 + d2 * big_gamma2) + c3 * gamma3


def rate_for_kind(kind: str, params: NoiseParams) -> float:
    """Model decay rate (1/s) probed by the experiment kind: its RATE_TABLE row,
    and at least its damping part: NoiseParams keeps the dephasing part >= 0,
    but the row's sum drops Gamma where dephasing rates are 2**53 times larger."""
    if kind not in RATE_TABLE:
        raise ValueError(f"unknown curve kind {kind!r}")
    row = RATE_TABLE[kind]
    rates = (params.gamma1, params.gamma2, params.gamma3, params.Gamma1, params.Gamma2)
    return max(_table_rates(row, rates), row[3] * params.Gamma1 + row[4] * params.Gamma2)


def signal_model(kind: str, params: NoiseParams, t) -> np.ndarray:
    """Unit-amplitude signal of the experiment kind at time(s) t.

    Coherence kinds decay as exp(-R t); inversion recovery runs from -1 at
    t = 0 to its unit asymptote as 1 - 2 exp(-Gamma t).
    """
    t = np.asarray(t, dtype=float)
    if not np.all(t >= 0):
        raise ValueError("t must be non-negative and not nan")
    rate = rate_for_kind(kind, params)
    offset, slope = CURVE_SHAPE[kind]
    # -rate t overflows to -inf at long times, and exp(-inf) = 0 is the decayed signal.
    with np.errstate(over="ignore"):
        return offset + slope * np.exp(-rate * t)


def add_noise(signals: np.ndarray, noise_sigma: float,
              rng: np.random.Generator | int | None) -> np.ndarray:
    """`signals` times 1 + noise_sigma z, with z standard normal from
    np.random.default_rng(rng), so `rng` is a Generator, a seed or None.
    noise_sigma = 0 returns `signals` without drawing or loading numpy.random.
    A nan or negative noise_sigma, or one that overflows a finite signal,
    raises ValueError."""
    if not noise_sigma >= 0.0:
        raise ValueError(f"noise_sigma must be non-negative, got {noise_sigma}")
    if noise_sigma == 0.0:
        return signals
    z = np.random.default_rng(rng).standard_normal(signals.size)
    with np.errstate(over="ignore", invalid="ignore"):
        noisy = signals * (1.0 + noise_sigma * z)
    if not np.isfinite(noisy).all() and np.isfinite(signals).all():
        raise ValueError(f"noise_sigma = {noise_sigma:g} overflows the noisy signal")
    return noisy


def synthetic_curve(
    kind: str,
    params: NoiseParams,
    times: np.ndarray,
    amplitude: float = 1.0,
    noise_sigma: float = 0.0,
    rng: np.random.Generator | None = None,
) -> DecayCurve:
    """Model-generated curve, optionally with multiplicative Gaussian noise."""
    times = np.asarray(times, dtype=float)
    signals = add_noise(amplitude * signal_model(kind, params, times), noise_sigma, rng)
    return DecayCurve(kind, times, signals)


# ----------------------------------------------------------------------
# Damped least squares
# ----------------------------------------------------------------------


# A trial point whose model or cost overflows is rejected like any other that
# raises the cost; numpy's overflow warnings would only repeat that.
@np.errstate(over="ignore", invalid="ignore")
def _levenberg_marquardt(residual_jac, x0):
    """Minimize 0.5 ||r(x)||^2 with adaptive damping and analytic Jacobians.

    Returns (x, r, jac, converged, reason, iterations).  The fit converges on
    the first of three stop tests that holds, after MINPACK's (More, Garbow &
    Hillstrom, "User guide for MINPACK-1", ANL-80-74, 1980).  None depends on
    the unit of the residual or of a parameter.  D^2 is the damping diagonal,
    the diagonal of J^T J with 1.0 for entries <= 0, so D holds the norms of
    J's columns.
      - "gradient": ||D x|| is finite, and the projection of r on each
        column of J, |J_j^T r| / ||J_j||, is at most GTOL ||D x||.  MINPACK
        bounds it by GTOL ||r||, a cosine, which a residual at rounding level
        never meets; against ||D x|| a noiseless fit stops here, at its first
        test.
      - "step": a trial step p, accepted or not, has ||D p|| <= XTOL ||D x||.
        The fit stops at x and does not evaluate x + p.
      - "cost": a step was accepted, and both its actual cost reduction and
        the one the linear model predicts, cost - 0.5 ||r + J p||^2, are at
        most FTOL of the cost before it.  The fit stops at x + p.
    Otherwise the fit ends unconverged: on "no_descent" when no damped step
    lowers the cost, or on "max_iterations".  A nan fails every test.
    """
    x = np.asarray(x0, dtype=float).copy()
    r, jac = residual_jac(x)
    cost = 0.5 * float(r @ r)
    damping = 1e-3
    # The damping scale diag(d), d the diagonal of J^T J with 1.0 for entries
    # <= 0, allocated once; each iteration writes its diagonal through a view.
    # damping * scale, not diag(damping * d): should damping overflow, inf * 0
    # puts nan off the diagonal and every trial step fails.
    scale = np.zeros((x.size, x.size))
    scale_diagonal = scale.ravel()[:: x.size + 1]
    iterations = 0
    for iterations in range(1, MAX_ITERATIONS + 1):
        descent = -(jac.T @ r)
        normal = jac.T @ jac
        # d <= 0.0 is False for nan, so a nan entry stays nan.
        diagonal = [1.0 if d <= 0.0 else d for d in normal.diagonal().tolist()]
        scale_diagonal[:] = diagonal
        # The stop tests run on Python floats, with D's entries; hypot forms
        # ||D x|| and ||D p|| without the underflow of a sum of squares.
        norms = [math.sqrt(d) for d in diagonal]
        x_norm = math.hypot(*[n * v for n, v in zip(norms, x.tolist())])
        bound = GTOL * x_norm
        if x_norm < math.inf and all(abs(g) <= bound * n for g, n in zip(descent.tolist(), norms)):
            return x, r, jac, True, "gradient", iterations
        step = None
        for _ in range(60):
            try:
                candidate = np.linalg.solve(normal + damping * scale, descent)
            except np.linalg.LinAlgError:
                damping *= 10.0
                continue
            if math.hypot(*[n * v for n, v in zip(norms, candidate.tolist())]) <= XTOL * x_norm:
                return x, r, jac, True, "step", iterations
            trial = x + candidate
            r_new, jac_new = residual_jac(trial)
            cost_new = 0.5 * float(r_new @ r_new)
            if cost_new <= cost:
                step = candidate
                break
            damping *= 10.0
        if step is None:
            # No damped step lowers the cost, and none falls below XTOL either.
            return x, r, jac, False, "no_descent", iterations
        # The linear model's reduction is needed only where the actual one is small.
        tolerance = FTOL * cost
        settled = cost - cost_new <= tolerance
        if settled:
            linear = r + jac @ step
            settled = cost - 0.5 * float(linear @ linear) <= tolerance
        x, r, jac, cost = trial, r_new, jac_new, cost_new
        damping = max(damping / 3.0, 1e-14)
        if settled:
            return x, r, jac, True, "cost", iterations
    return x, r, jac, False, "max_iterations", iterations


def _signal_scale(signals: np.ndarray, limit: int = SIGNAL_EXPONENT_LIMIT) -> float:
    """1.0 when the largest |signal| has a binary exponent within +/-limit;
    otherwise the power of two that brings it into [0.5, 1), or as near as
    2^1023 brings a subnormal.  A power of two scales exactly, barring
    underflow, and no stop test depends on the scale."""
    exponent = math.frexp(float(np.abs(signals).max()))[1]
    if abs(exponent) <= limit:
        return 1.0
    return math.ldexp(1.0, -max(exponent, -1023))


def _parameter_stderrs(jac: np.ndarray, cost: float, weighted: bool) -> list[float]:
    """Standard errors of the fitted parameters: the square roots of the
    diagonal of the covariance (J^T J)^-1 at the optimum, times
    s^2 = cost / (samples - parameters) unless the fit is weighted, where
    cost is the residuals' sum of squares r @ r; a singular J^T J leaves a
    parameter unresolved: `ConvergenceError`.

    A column of J whose squared norm, its entry on the diagonal of J^T J,
    lies outside 2^(+/-2 SIGNAL_EXPONENT_LIMIT) is first scaled by the power
    of two that brings its largest entry into [0.5, 1), so that J^T J neither
    underflows nor overflows, as it does at times far from the data's own
    unit.  Its stderr is the square root of the scaled variance, scaled back,
    since the variance itself may leave the float range.  Columns in the
    band keep their bits.  A column past about 2^511 still overflows the
    first J^T J, with numpy's warning, before it is scaled."""
    normal = jac.T @ jac
    norms = normal.diagonal().tolist()
    low, high = _NORMAL_BAND
    scales = None
    if not low <= min(norms) or not max(norms) <= high:
        scales = [1.0 if low <= norm <= high else _signal_scale(jac[:, k], 0) for k, norm in enumerate(norms)]
        jac = jac * scales
        normal = jac.T @ jac
    try:
        variances = np.linalg.inv(normal).diagonal().tolist()
    except np.linalg.LinAlgError:
        raise ConvergenceError("the samples do not resolve every fitted parameter; "
                               "J^T J is singular at the optimum") from None
    factor = 1.0 if weighted else cost / max(len(jac) - len(norms), 1)
    stderrs = [math.sqrt(max(variance * factor, 0.0)) for variance in variances]
    return stderrs if scales is None else [stderr * scale for stderr, scale in zip(stderrs, scales)]


# ----------------------------------------------------------------------
# Single-curve fit
# ----------------------------------------------------------------------


# Times near the float limit overflow the weighted sums, and a zero weight
# times an infinite centred time is nan: the slope is then not finite.
@np.errstate(over="ignore", invalid="ignore")
def _initial_guess(curve: DecayCurve) -> tuple[float, float]:
    """Amplitude and rate seed from every sample: a straight line fitted to
    ln y against t by least squares with weights y^2 (Caruana's method with
    Guo's weights; H. Guo, IEEE Signal Process. Mag. 28(5), 134, 2011).

    y is the signal for coherence kinds and (A - s) / 2 for recovery kinds,
    with A = max(s[-1], -s[0]).  On a noiseless curve at t >= 0 both bound
    the amplitude from below, and where A is the amplitude y decays as
    amplitude * exp(-R t).  Only the samples with y > 0 count.  The weights
    are the squares of y scaled by its largest value, so that none
    overflows, and the times are centred on their weighted mean.

    The rate is the line's negated slope, in the curve's own time unit; fewer
    than two samples with y > 0 give 1.0.  A slope that is not finite is one
    the weights cannot resolve (every sample but the largest lies below about
    1e-162 of it, so its weight underflows, or the sums overflow at times near
    the float limit): its rate is the upper bound of RATE_GUESS_BOUNDS.  The
    amplitude is the line of that rate through the weighted mean of (t, ln y),
    at t = 0; a fit whose amplitude overflows there cannot start.
    """
    t, s = curve.times, curve.signals
    if curve.kind in RECOVERY_KINDS:
        # Halved before the difference, which then cannot overflow.
        ceiling = max(float(s[-1]), -float(s[0]))
        y = 0.5 * ceiling - 0.5 * s
    else:
        y = s
    usable = y > 0
    count = np.count_nonzero(usable)
    if count < y.size:
        if count == 0:
            return 1.0, 1.0
        t, y = t[usable], y[usable]
    log_y = np.log(y)
    weights = y / y.max()
    total = float(weights @ weights)
    weights *= weights
    t_mean = float(weights @ t) / total
    log_y_mean = float(weights @ log_y) / total
    t_centred = t - t_mean
    weighted_t = weights * t_centred
    log_y -= log_y_mean
    spread = float(weighted_t @ t_centred)
    if count < 2:
        rate = 1.0
    else:
        # All weight on one sample gives a zero spread, and nan stands for its
        # slope; Python's inf / inf is nan too.
        rate = -float(weighted_t @ log_y) / spread if spread > 0 else math.nan
        if not math.isfinite(rate):
            rate = RATE_GUESS_BOUNDS[1]
    try:
        amplitude = math.exp(log_y_mean + rate * t_mean)
    except OverflowError:
        amplitude = math.inf
    if not math.isfinite(amplitude):
        raise ConvergenceError(f"{curve.kind}: the amplitude extrapolated to t = 0 overflows; "
                               "cannot start the fit")
    return amplitude, rate


def _refuse_growth(kind: str, estimate: RateEstimate) -> None:
    """Every rate of the model is a Lindblad rate, so a negative fitted decay
    rate lies outside it."""
    if estimate.rate < 0:
        raise DataError(f"{kind}: fitted decay rate {estimate.rate:g} per unit of t is negative; "
                        "the curve grows")


def fit_exponential(curve: DecayCurve) -> RateEstimate:
    """Weighted nonlinear least-squares fit of amplitude and decay rate.

    Coherence kinds fit A exp(-R t); recovery kinds fit A (1 - 2 exp(-R t)).
    A negative fitted rate R is a `DataError`: the curve grows.  A rate or
    amplitude the samples cannot resolve is a `ConvergenceError`.
    """
    if len(curve) < 4:
        raise DataError(f"{curve.kind}: need at least 4 samples to fit, got {len(curve)}")
    # 0.0 == -0.0, so signed zeros alone are a constant signal.
    if (curve.signals == curve.signals[0]).all():
        raise DataError(f"{curve.kind}: constant signal, decay rate undetermined")

    # The fit runs on signals and sigmas times `scale`; weighted residuals are
    # free of it, and plain ones are divided by it again at the end.
    scale = _signal_scale(curve.signals)
    weights = None if curve.sigmas is None else 1.0 / (curve.sigmas * scale)
    t, s = curve.times, curve.signals * scale
    offset, slope = CURVE_SHAPE[curve.kind]
    recovery = curve.kind in RECOVERY_KINDS

    def residual_jac(x):
        """Model amplitude * (offset + slope exp(-rate t)), its residual and
        its (d/dA, d/dR) Jacobian columns."""
        amplitude, rate = x.tolist()
        jac = np.empty((t.size, 2))
        # exp(-rate t) is d/dA itself at a coherence kind's offset 0 and slope 1.
        d_amp = np.exp(-rate * t, out=jac[:, 0])
        np.multiply(-slope * amplitude * t, d_amp, out=jac[:, 1])
        if recovery:
            d_amp *= slope
            d_amp += offset
        r = amplitude * d_amp
        r -= s
        if weights is not None:
            r *= weights
            jac *= weights[:, None]
        return r, jac

    amplitude, rate = _initial_guess(curve)
    x0 = [amplitude * scale, rate]
    x, r, jac, converged, _, iterations = _levenberg_marquardt(residual_jac, x0)
    if not converged:
        raise ConvergenceError(f"{curve.kind}: fit did not converge in {iterations} iterations")
    cost = float(r @ r)
    try:
        stderrs = _parameter_stderrs(jac, cost, weighted=curve.sigmas is not None)
    except ConvergenceError as exc:
        raise ConvergenceError(f"{curve.kind}: {exc}") from None
    estimate = RateEstimate(
        rate=float(x[1]),
        stderr=stderrs[1],
        residual_norm=math.sqrt(cost) / (1.0 if weights is not None else scale),
        amplitude=float(x[0]) / scale,
    )
    _refuse_growth(curve.kind, estimate)
    return estimate


def gamma3_difference(r_zq: RateEstimate, r_dq: RateEstimate) -> RateEstimate:
    """Correlated dephasing rate (R_DQ - R_ZQ) / 2 with quadrature stderr."""
    return RateEstimate(
        rate=0.5 * (r_dq.rate - r_zq.rate),
        stderr=0.5 * math.hypot(r_zq.stderr, r_dq.stderr),
        residual_norm=math.hypot(r_zq.residual_norm, r_dq.residual_norm),
    )


def model_consistency(zq: RateEstimate, dq: RateEstimate, gamma1: float, gamma2: float,
                      Gamma1: float, Gamma2: float) -> ModelConsistency:
    """The ZQ/DQ rates of the RATE_TABLE model at the four given rates, with
    gamma3 the difference estimate from `zq` and `dq`, against the measured
    ones.  The rates are plain numbers, not NoiseParams: measured 1/T2 rates
    with the difference estimate need not be completely positive."""
    difference = gamma3_difference(zq, dq)
    values = (gamma1, gamma2, difference.rate, Gamma1, Gamma2)
    zq_predicted = _table_rates(RATE_TABLE[KIND_ZQ], values)
    dq_predicted = _table_rates(RATE_TABLE[KIND_DQ], values)
    return ModelConsistency(
        gamma3_difference=difference.rate,
        gamma3_difference_stderr=difference.stderr,
        zq_rate_measured=zq.rate,
        dq_rate_measured=dq.rate,
        zq_rate_predicted=zq_predicted,
        dq_rate_predicted=dq_predicted,
        zq_rate_mismatch=zq_predicted - zq.rate,
        dq_rate_mismatch=dq_predicted - dq.rate,
    )


# ----------------------------------------------------------------------
# Joint noise-model fit
# ----------------------------------------------------------------------


def fit_noise_model(curves: list[DecayCurve], fixed: dict[str, float] | None = None,
                    individual: dict[str, RateEstimate] | None = None) -> FitReport:
    """Joint weighted least squares of the five noise rates over decay curves.

    ZQ and DQ curves are mandatory.  Each of gamma1, gamma2, Gamma1, Gamma2
    is fitted when its pinning curve (SQ or inversion-recovery) is present
    and the value is not supplied in `fixed`; otherwise it must appear in
    `fixed`.  gamma3 is always fitted, and so are the free rates themselves,
    as `fit_exponential` fits its rate: a fitted rate below zero is a
    `ConvergenceError`.  Every curve carries a free amplitude.
    The start values come from each curve's `fit_exponential` estimate:
    `individual` maps each kind to it when the caller has made them already.
    It must cover exactly the curves' kinds, and its rates meet
    `fit_exponential`'s rule: a negative decay rate is a `DataError`.
    Weights are 1/sigma on every curve or on none: a mix is a `DataError`.
    """
    fixed = dict(fixed or {})
    by_kind: dict[str, DecayCurve] = {}
    for curve in curves:
        if curve.kind in by_kind:
            raise DataError(f"duplicate curve kind {curve.kind!r}")
        by_kind[curve.kind] = curve
    for mandatory in (KIND_ZQ, KIND_DQ):
        if mandatory not in by_kind:
            raise DataError(f"missing mandatory curve kind {mandatory!r}")
    if "gamma3" in fixed:
        raise ValueError("gamma3 is always fitted; remove it from fixed")
    for name, value in fixed.items():
        if name not in PINNING_KIND:
            raise ValueError(f"fixed rate {name!r} is unknown; expected one of {tuple(PINNING_KIND)}")
        try:
            fixed[name] = _finite_real(value, name)
            admissible = fixed[name] >= 0.0
        except ValueError:
            admissible = False
        if not admissible:
            raise ValueError(f"fixed rate {name!r} = {value!r} must be a finite non-negative number")

    # Each rate's role, decided before any curve is fitted: a rate not fixed
    # is fitted, from its pinning curve's estimate, and so needs that curve.
    free = [name for name in PINNING_KIND if name not in fixed]
    for name in free:
        if PINNING_KIND[name] not in by_kind:
            raise DataError(f"rate {name!r} has no curve of kind {PINNING_KIND[name]!r} "
                            "and no fixed value")
    unweighted = [kind for kind, curve in by_kind.items() if curve.sigmas is None]
    if 0 < len(unweighted) < len(by_kind):
        raise DataError(f"mixed weights: sigmas on some curves but not on {', '.join(unweighted)}; "
                        "a joint fit weights every curve or none")

    if individual is None:
        individual = {kind: fit_exponential(curve) for kind, curve in by_kind.items()}
    elif individual.keys() != by_kind.keys():
        raise ValueError(f"individual estimates are of kinds {tuple(sorted(individual))}; "
                         f"expected the curves' kinds {tuple(sorted(by_kind))}")
    else:
        for kind, estimate in individual.items():
            _refuse_growth(kind, estimate)
    difference = gamma3_difference(individual[KIND_ZQ], individual[KIND_DQ])

    # The fit vector x holds the free rates, then gamma3, then one amplitude
    # per kind.  `start` holds the five start values in RATE_NAMES order,
    # `fitted_at` x's rate indices.
    start = [difference.rate] * len(RATE_NAMES)
    for name, value in fixed.items():
        start[RATE_NAMES.index(name)] = value
    for name in free:
        start[RATE_NAMES.index(name)] = individual[PINNING_KIND[name]].rate
    fitted_at = [RATE_NAMES.index(name) for name in (*free, "gamma3")]
    n_rates = len(fitted_at)

    kinds = [kind for kind in CURVE_KINDS if kind in by_kind]
    table = [RATE_TABLE[kind] for kind in kinds]
    # Each kind's coefficients of the fitted rates, which are its rate's partial
    # derivatives: one row per fitted rate, one column per kind.
    fitted_coeffs = np.array([[row[at] for row in table] for at in fitted_at])

    def unpack(xs):
        """The five rates in RATE_NAMES order, from the fit vector as a list."""
        rates = start.copy()
        for i, rate in zip(fitted_at, xs):
            rates[i] = rate
        return rates

    # The curves stacked once in `kinds` order, with each sample's kind, model
    # shape, weight and amplitude entry in the flat Jacobian, so that one pass
    # fills the residual and the Jacobian.  Without sigmas there are no weights.
    stack = [by_kind[kind] for kind in kinds]
    sizes = [len(c) for c in stack]
    sample_kind = np.repeat(np.arange(len(kinds)), sizes)
    t = np.concatenate([c.times for c in stack])
    s = np.concatenate([c.signals for c in stack])
    # The fit runs on every signal and sigma times one `scale`, as fit_exponential's does.
    scale = _signal_scale(s)
    s *= scale
    w = None if unweighted else 1.0 / (np.concatenate([c.sigmas for c in stack]) * scale)
    # RECOVERY_KINDS lead CURVE_KINDS, so their samples lead the stack.
    n_recovery = sum(len(by_kind[kind]) for kind in RECOVERY_KINDS if kind in by_kind)
    offset, slope = np.zeros(t.size), np.ones(t.size)
    offset[:n_recovery], slope[:n_recovery] = CURVE_SHAPE[RECOVERY_KINDS[0]]
    neg_slope = -slope
    amplitude_at = n_rates + sample_kind
    n_params = n_rates + len(kinds)
    amplitude_flat = np.arange(0, t.size * n_params, n_params) + amplitude_at
    # The rate block is built transposed, so that each numpy pass runs along
    # the samples, and copied into the Jacobian's first columns.
    sample_coeffs = np.take(fitted_coeffs, sample_kind, axis=1)

    def residual_jac(x):
        rates = unpack(x.tolist())
        # Model amplitude * (offset + slope exp(-rate t)) and its partials;
        # each kind's rate is negated once, as a Python float.
        neg_rates = np.array([-_table_rates(row, rates) for row in table])[sample_kind]
        amplitude = x[amplitude_at]
        decay = np.exp(neg_rates * t)
        d_amp = offset + slope * decay
        d_rate = neg_slope * amplitude
        d_rate *= t
        d_rate *= decay
        block = sample_coeffs * d_rate
        r = amplitude * d_amp
        r -= s
        if w is not None:
            block *= w
            d_amp *= w
            r *= w
        jac = np.zeros((t.size, n_params))
        np.copyto(jac[:, :n_rates].T, block)
        jac.ravel()[amplitude_flat] = d_amp
        return r, jac

    x0 = [*(start[i] for i in fitted_at), *(individual[kind].amplitude * scale for kind in kinds)]
    x, r, jac, converged, reason, iterations = _levenberg_marquardt(residual_jac, x0)
    if not converged:
        raise ConvergenceError(f"joint fit did not converge in {iterations} iterations")

    try:
        stderrs = _parameter_stderrs(jac, float(r @ r), weighted=w is not None)
    except ConvergenceError as exc:
        raise ConvergenceError(f"joint fit: {exc}") from None
    stderr = {RATE_NAMES[at]: value for at, value in zip(fitted_at, stderrs)}

    try:
        params = NoiseParams(*unpack(x.tolist()))
    except ValueError as exc:
        raise ConvergenceError(f"fitted rates violate positivity constraints: {exc}") from exc

    bounds = [0, *accumulate(sizes)]
    segments = (r[lo:hi] for lo, hi in zip(bounds, bounds[1:]))
    r_unit = 1.0 if w is not None else scale
    per_curve = {kind: math.sqrt(seg @ seg) / r_unit for kind, seg in zip(kinds, segments)}

    return FitReport(
        params=params,
        stderr=stderr,
        amplitudes=dict(zip(kinds, x[n_rates:] / scale)),
        per_curve_residuals=per_curve,
        converged=converged,
        convergence_reason=reason,
        iterations=iterations,
        fixed=tuple(sorted(fixed)),
        consistency=model_consistency(individual[KIND_ZQ], individual[KIND_DQ], params.gamma1,
                                      params.gamma2, params.Gamma1, params.Gamma2),
    )


# ----------------------------------------------------------------------
# CSV / JSON interchange
# ----------------------------------------------------------------------


def _read_text(path: Path, error: type[Exception]) -> str:
    """The UTF-8 text of a file; a fault raises `error` naming the path."""
    try:
        return path.read_text(encoding="utf-8")
    except OSError as exc:
        raise error(f"{path}: cannot read the file ({exc.strerror or exc})") from None
    except UnicodeDecodeError as exc:
        raise error(f"{path}: not UTF-8 text ({exc.reason} at byte {exc.start})") from None


def load_curve(path, kind: str) -> DecayCurve:
    """Read a decay curve from CSV: header `t,signal[,sigma]`, `#` comments."""
    path = Path(path)
    rows: list[tuple[int, list[float]]] = []
    header: list[str] | None = None
    for lineno, raw in enumerate(_read_text(path, DataError).split("\n"), start=1):
        line = raw.strip()
        if not line or line.startswith("#"):
            continue
        fields = [f.strip() for f in line.split(",")]
        if header is None:
            header = [f.lower() for f in fields]
            if header not in (["t", "signal"], ["t", "signal", "sigma"]):
                raise DataError(
                    f"{path}:{lineno}: expected header 't,signal[,sigma]', got {line!r}"
                )
            continue
        if len(fields) != len(header):
            raise DataError(
                f"{path}:{lineno}: expected {len(header)} columns, got {len(fields)}"
            )
        try:
            values = [float(f) for f in fields]
        except ValueError as exc:
            raise DataError(f"{path}:{lineno}: {exc}") from exc
        for name, value in zip(header, values):
            if not math.isfinite(value):
                raise DataError(f"{path}:{lineno}: {name} must be finite, got {value}")
        rows.append((lineno, values))
    if header is None or not rows:
        raise DataError(f"{path}: no data rows")

    times = np.array([r[1][0] for r in rows])
    bad = np.flatnonzero(times[1:] <= times[:-1])
    if bad.size:
        lineno = rows[int(bad[0]) + 1][0]
        raise DataError(f"{path}:{lineno}: times must be strictly increasing")
    signals = np.array([r[1][1] for r in rows])
    sigmas = np.array([r[1][2] for r in rows]) if len(header) == 3 else None
    try:
        return DecayCurve(kind, times, signals, sigmas)
    except DataError as exc:
        raise DataError(f"{path}: {exc}") from exc


def _curve_csv(curve: DecayCurve) -> str:
    """A decay curve as the text of the CSV interchange format."""
    lines = [f"# kind: {curve.kind}"]
    if curve.sigmas is None:
        lines.append("t,signal")
        lines.extend(f"{t:.12g},{s:.12g}" for t, s in zip(curve.times, curve.signals))
    else:
        lines.append("t,signal,sigma")
        lines.extend(
            f"{t:.12g},{s:.12g},{e:.12g}"
            for t, s, e in zip(curve.times, curve.signals, curve.sigmas)
        )
    return "\n".join(lines) + "\n"


def save_curve(curve: DecayCurve, path) -> None:
    """Write a decay curve in the CSV interchange format."""
    Path(path).write_text(_curve_csv(curve), encoding="utf-8")

