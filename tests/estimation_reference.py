"""The damped-least-squares fits as they stood before the one-pass joint
model and the lean Levenberg-Marquardt loop, kept verbatim as the reference
that `test_estimation.py::test_fits_match_reference` holds the package's
fits to, bit for bit.  Do not edit the functions below: they are the
reference, not the program."""

from __future__ import annotations

import math

import numpy as np

from spinpair.channels import NoiseParams
from spinpair.estimation import (
    CURVE_KINDS,
    GRADIENT_TOL,
    KIND_DQ,
    KIND_ZQ,
    MAX_ITERATIONS,
    PINNING_KIND,
    RATE_GUESS_BOUNDS,
    RATE_NAMES,
    RATE_TABLE,
    RECOVERY_KINDS,
    STEP_TOL,
    ConvergenceError,
    DataError,
    DecayCurve,
    FitReport,
    RateEstimate,
    _parameter_covariance,
    _table_rates,
    gamma3_difference,
    model_consistency,
)


# Residuals near 1e300 overflow the cost, so no damped step lowers it and the
# fit reports non-convergence; numpy's overflow warnings would only repeat that.
@np.errstate(over="ignore", invalid="ignore")
def _levenberg_marquardt(residual_jac, x0):
    """Minimize 0.5 ||r(x)||^2 with adaptive damping and analytic Jacobians.

    Returns (x, r, jac, converged, reason, iterations); converged means the
    max-abs gradient fell below GRADIENT_TOL or the step below STEP_TOL.
    """
    x = np.asarray(x0, dtype=float).copy()
    r, jac = residual_jac(x)
    cost = 0.5 * float(r @ r)
    damping = 1e-3
    iterations = 0
    for iterations in range(1, MAX_ITERATIONS + 1):
        gradient = jac.T @ r
        if np.abs(gradient).max() < GRADIENT_TOL:
            return x, r, jac, True, "gradient", iterations
        normal = jac.T @ jac
        scale = np.diag(normal).copy()
        scale[scale <= 0.0] = 1.0
        step = None
        for _ in range(60):
            try:
                candidate = np.linalg.solve(normal + damping * np.diag(scale), -gradient)
            except np.linalg.LinAlgError:
                damping *= 10.0
                continue
            r_new, jac_new = residual_jac(x + candidate)
            cost_new = 0.5 * float(r_new @ r_new)
            if cost_new <= cost:
                step = candidate
                break
            damping *= 10.0
        if step is None:
            # No descent direction left: only possible at a stationary point.
            gradient = jac.T @ r
            return x, r, jac, bool(np.abs(gradient).max() < GRADIENT_TOL), "gradient", iterations
        x = x + step
        r, jac, cost = r_new, jac_new, cost_new
        damping = max(damping / 3.0, 1e-14)
        if np.linalg.norm(step) < STEP_TOL * (np.linalg.norm(x) + STEP_TOL):
            return x, r, jac, True, "step", iterations
    return x, r, jac, False, "max_iterations", iterations


def _initial_guess(curve: DecayCurve) -> tuple[float, float]:
    """Amplitude and rate seed from the first two samples (asymptote-transformed
    for recovery kinds, whose raw signal changes sign).

    The arithmetic is on Python floats, which overflow to inf quietly where
    numpy scalars would print a RuntimeWarning.
    """
    t, s = curve.times, curve.signals
    if curve.kind in RECOVERY_KINDS:
        amplitude = float(s[-1]) if s[-1] > 0 else 1.0
        y0, y1 = (amplitude - float(s[0])) / 2.0, (amplitude - float(s[1])) / 2.0
    else:
        amplitude = float(s[0]) if s[0] > 0 else max(float(np.abs(s).max()), 1.0)
        y0, y1 = float(s[0]), float(s[1])
    t0, t1 = float(t[0]), float(t[1])
    rate = 1.0
    if y0 > 0 and y1 > 0 and t1 > t0:
        ratio = y0 / y1
        if ratio > 0:
            rate = math.log(ratio) / (t1 - t0)
    rate = float(np.clip(rate, *RATE_GUESS_BOUNDS))
    if curve.kind not in RECOVERY_KINDS and t0 > 0:
        try:
            amplitude = float(s[0]) * math.exp(rate * t0)
        except OverflowError:
            amplitude = math.inf
        if math.isinf(amplitude):
            raise ConvergenceError(f"{curve.kind}: the amplitude extrapolated to t = 0 overflows; "
                                   "cannot start the fit")
    return amplitude, rate


def _curve_model(kind: str, t: np.ndarray, amplitude: float, rate: float):
    """Model values and (d/dA, d/dR) partials for one curve kind."""
    decay = np.exp(-rate * t)
    if kind in RECOVERY_KINDS:
        values = amplitude * (1.0 - 2.0 * decay)
        return values, 1.0 - 2.0 * decay, 2.0 * amplitude * t * decay
    values = amplitude * decay
    return values, decay, -amplitude * t * decay


def fit_exponential(curve: DecayCurve) -> RateEstimate:
    """Weighted nonlinear least-squares fit of amplitude and decay rate.

    Coherence kinds fit A exp(-R t); recovery kinds fit A (1 - 2 exp(-R t)).
    """
    if len(curve) < 4:
        raise DataError(f"{curve.kind}: need at least 4 samples to fit, got {len(curve)}")
    if float(np.ptp(curve.signals)) == 0.0:
        raise DataError(f"{curve.kind}: constant signal, decay rate undetermined")
    if curve.kind not in RECOVERY_KINDS and np.any(curve.signals <= 0):
        raise DataError(f"{curve.kind}: coherence-decay signals must be positive")

    weights = 1.0 / curve.sigmas if curve.sigmas is not None else np.ones(len(curve))
    t, s = curve.times, curve.signals

    def residual_jac(x):
        amplitude, rate = x
        values, d_amp, d_rate = _curve_model(curve.kind, t, amplitude, rate)
        r = (values - s) * weights
        jac = np.column_stack((d_amp * weights, d_rate * weights))
        return r, jac

    x0 = np.array(_initial_guess(curve))
    x, r, jac, converged, _, iterations = _levenberg_marquardt(residual_jac, x0)
    if not converged:
        raise ConvergenceError(f"{curve.kind}: fit did not converge in {iterations} iterations")
    cov = _parameter_covariance(r, jac, weighted=curve.sigmas is not None)
    return RateEstimate(
        rate=float(x[1]),
        stderr=float(np.sqrt(max(cov[1, 1], 0.0))),
        residual_norm=float(np.linalg.norm(r)),
        amplitude=float(x[0]),
    )


def fit_noise_model(curves: list[DecayCurve], fixed: dict[str, float] | None = None) -> FitReport:
    """Joint weighted least squares of the five noise rates over decay curves.

    ZQ and DQ curves are mandatory.  Each of gamma1, gamma2, Gamma1, Gamma2
    is fitted when its pinning curve (SQ or inversion-recovery) is present
    and the value is not supplied in `fixed`; otherwise it must appear in
    `fixed`.  gamma3 is always fitted, and so are the free rates themselves;
    every curve carries a free amplitude.
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

    individual = {kind: fit_exponential(curve) for kind, curve in by_kind.items()}
    difference = gamma3_difference(individual[KIND_ZQ], individual[KIND_DQ])

    free: list[str] = []  # fitted besides gamma3, which is always fitted
    values = {"gamma3": difference.rate}
    for name, pinning in PINNING_KIND.items():
        if name in fixed:
            values[name] = float(fixed[name])
        elif pinning in by_kind:
            free.append(name)
            values[name] = max(individual[pinning].rate, 1e-6)
        else:
            raise DataError(
                f"rate {name!r} has no curve of kind {pinning!r} and no fixed value"
            )

    kinds = [kind for kind in CURVE_KINDS if kind in by_kind]
    # The fit vector x holds the free rates, then gamma3, then one amplitude
    # per kind.
    fitted = (*free, "gamma3")
    n_rates = len(fitted)
    fitted_at = [RATE_NAMES.index(name) for name in fitted]
    start = np.array([values[name] for name in RATE_NAMES])
    # The table's columns for the fitted kinds, and each kind's coefficients
    # of the fitted rates, which are its rate's partial derivatives.
    columns = np.array([RATE_TABLE[kind] for kind in kinds]).T
    fitted_coeffs = columns[fitted_at].T

    def unpack(x):
        """The five rates in RATE_NAMES order."""
        rates = start.copy()
        rates[fitted_at] = x[:n_rates]
        return rates

    weights = {
        kind: (1.0 / c.sigmas if c.sigmas is not None else np.ones(len(c)))
        for kind, c in by_kind.items()
    }
    all_weighted = all(by_kind[k].sigmas is not None for k in kinds)

    def residual_jac(x):
        kind_rates = _table_rates(columns, unpack(x))
        blocks_r, blocks_j = [], []
        for j, kind in enumerate(kinds):
            curve = by_kind[kind]
            vals, d_amp, d_rate = _curve_model(kind, curve.times, x[n_rates + j], kind_rates[j])
            w = weights[kind]
            blocks_r.append((vals - curve.signals) * w)
            jac = np.zeros((len(curve), n_rates + len(kinds)))
            jac[:, :n_rates] = np.outer(d_rate, fitted_coeffs[j]) * w[:, None]
            jac[:, n_rates + j] = d_amp * w
            blocks_j.append(jac)
        return np.concatenate(blocks_r), np.vstack(blocks_j)

    x0 = np.concatenate((start[fitted_at], [individual[kind].amplitude for kind in kinds]))
    x, r, jac, converged, reason, iterations = _levenberg_marquardt(residual_jac, x0)
    if not converged:
        raise ConvergenceError(f"joint fit did not converge in {iterations} iterations")

    cov = _parameter_covariance(r, jac, weighted=all_weighted)
    stderr = dict(zip(fitted, np.sqrt(np.maximum(np.diag(cov)[:n_rates], 0.0)).tolist()))

    try:
        params = NoiseParams(**dict(zip(RATE_NAMES, unpack(x).tolist())))
    except ValueError as exc:
        raise ConvergenceError(f"fitted rates violate positivity constraints: {exc}") from exc

    offset = 0
    per_curve: dict[str, float] = {}
    for kind in kinds:
        n = len(by_kind[kind])
        per_curve[kind] = float(np.linalg.norm(r[offset : offset + n]))
        offset += n

    return FitReport(
        params=params,
        stderr=stderr,
        amplitudes={kind: x[n_rates + j] for j, kind in enumerate(kinds)},
        per_curve_residuals=per_curve,
        converged=converged,
        convergence_reason=reason,
        iterations=iterations,
        fixed=tuple(sorted(fixed)),
        consistency=model_consistency(individual[KIND_ZQ], individual[KIND_DQ], params.gamma1,
                                      params.gamma2, params.Gamma1, params.Gamma2),
    )
