"""Decay-signal models and noise-rate estimation: single-curve exponential
fitting, the zero-/double-quantum difference estimator for the correlated
dephasing rate, and joint fitting of all five rates to a set of decay curves.

Fits use damped least squares with analytic Jacobians.  Signals are
dimensionless and normalized so the model amplitude is a free nuisance
parameter; weights are 1/sigma when per-point uncertainties are supplied.
"""

from __future__ import annotations

import json
import math
from dataclasses import dataclass
from pathlib import Path

import numpy as np

from .channels import NoiseParams
from .evolution import coherence_decay_rate

KIND_T1_SPIN1 = "T1_inversion_recovery_spin1"
KIND_T1_SPIN2 = "T1_inversion_recovery_spin2"
KIND_SQ1 = "SQ1"
KIND_SQ2 = "SQ2"
KIND_ZQ = "ZQ"
KIND_DQ = "DQ"

CURVE_KINDS = (KIND_T1_SPIN1, KIND_T1_SPIN2, KIND_SQ1, KIND_SQ2, KIND_ZQ, KIND_DQ)
RECOVERY_KINDS = (KIND_T1_SPIN1, KIND_T1_SPIN2)
COHERENCE_CURVE_KINDS = (KIND_SQ1, KIND_SQ2, KIND_ZQ, KIND_DQ)

# Rate parameter pinned by each single-rate experiment kind.
_KIND_PARAM = {
    KIND_SQ1: "gamma1",
    KIND_SQ2: "gamma2",
    KIND_T1_SPIN1: "Gamma1",
    KIND_T1_SPIN2: "Gamma2",
}

_RATE_NAMES = ("gamma1", "gamma2", "gamma3", "Gamma1", "Gamma2")

MAX_ITERATIONS = 200
GRADIENT_TOL = 1e-10
STEP_TOL = 1e-12
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
        if np.any(np.diff(self.times) <= 0):
            bad = int(np.flatnonzero(np.diff(self.times) <= 0)[0]) + 1
            raise DataError(f"times must be strictly increasing (violated at sample {bad})")
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
        if not np.isfinite(self.rate):
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
    fixed: tuple[str, ...] = ()
    consistency: ModelConsistency | None = None

    def to_dict(self) -> dict:
        """Flat JSON-ready view of the report."""
        out: dict = dict(self.params.as_dict())
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
        if self.consistency is not None:
            c = self.consistency
            out.update(
                gamma3_difference=c.gamma3_difference,
                gamma3_difference_stderr=c.gamma3_difference_stderr,
                zq_rate_measured=c.zq_rate_measured,
                dq_rate_measured=c.dq_rate_measured,
                zq_rate_predicted=c.zq_rate_predicted,
                dq_rate_predicted=c.dq_rate_predicted,
                zq_rate_mismatch=c.zq_rate_mismatch,
                dq_rate_mismatch=c.dq_rate_mismatch,
            )
        return out


def rate_for_kind(kind: str, params: NoiseParams) -> float:
    """Model decay rate probed by the experiment kind."""
    if kind == KIND_ZQ or kind == KIND_DQ:
        return coherence_decay_rate(kind, params)
    if kind in _KIND_PARAM:
        return getattr(params, _KIND_PARAM[kind])
    raise ValueError(f"unknown curve kind {kind!r}")


def signal_model(kind: str, params: NoiseParams, t) -> np.ndarray:
    """Unit-amplitude signal of the experiment kind at time(s) t.

    Coherence kinds decay as exp(-R t); inversion recovery runs from -1 at
    t = 0 to its unit asymptote as 1 - 2 exp(-Gamma t).
    """
    t = np.asarray(t, dtype=float)
    if np.any(t < 0):
        raise ValueError("t must be non-negative")
    rate = rate_for_kind(kind, params)
    if kind in RECOVERY_KINDS:
        return 1.0 - 2.0 * np.exp(-rate * t)
    return np.exp(-rate * t)


def suggested_times(kind: str, params: NoiseParams, points: int = 24, decades: float = 3.0) -> np.ndarray:
    """Linear sample grid covering ~`decades` e-foldings of the kind's decay."""
    rate = max(rate_for_kind(kind, params), 1e-6)
    return np.linspace(0.0, decades / rate, points)


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
    signals = amplitude * signal_model(kind, params, times)
    if noise_sigma > 0.0:
        if rng is None:
            rng = np.random.default_rng()
        signals = signals * (1.0 + noise_sigma * rng.standard_normal(times.size))
    return DecayCurve(kind, times, signals)


# ----------------------------------------------------------------------
# Damped least squares
# ----------------------------------------------------------------------


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


def _parameter_covariance(r: np.ndarray, jac: np.ndarray, weighted: bool) -> np.ndarray:
    """Covariance of the fitted parameters from the Jacobian at the optimum."""
    normal = jac.T @ jac
    try:
        cov = np.linalg.inv(normal)
    except np.linalg.LinAlgError:
        cov = np.linalg.pinv(normal)
    if not weighted:
        dof = max(r.size - jac.shape[1], 1)
        cov = cov * (float(r @ r) / dof)
    return cov


# ----------------------------------------------------------------------
# Single-curve fit
# ----------------------------------------------------------------------


def _initial_guess(curve: DecayCurve) -> tuple[float, float]:
    """Amplitude and rate seed from the first two samples (asymptote-transformed
    for recovery kinds, whose raw signal changes sign)."""
    t, s = curve.times, curve.signals
    if curve.kind in RECOVERY_KINDS:
        amplitude = s[-1] if s[-1] > 0 else 1.0
        transformed = (amplitude - s) / 2.0
    else:
        amplitude = s[0] if s[0] > 0 else max(float(np.abs(s).max()), 1.0)
        transformed = s
    rate = 1.0
    if transformed[0] > 0 and transformed[1] > 0 and t[1] > t[0]:
        ratio = transformed[0] / transformed[1]
        if ratio > 0:
            rate = math.log(ratio) / (t[1] - t[0])
    rate = float(np.clip(rate, *RATE_GUESS_BOUNDS))
    if curve.kind not in RECOVERY_KINDS and t[0] > 0:
        amplitude = float(s[0] * math.exp(rate * t[0]))
    return float(amplitude), rate


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


def gamma3_difference(r_zq: RateEstimate, r_dq: RateEstimate) -> RateEstimate:
    """Correlated dephasing rate (R_DQ - R_ZQ) / 2 with quadrature stderr."""
    return RateEstimate(
        rate=0.5 * (r_dq.rate - r_zq.rate),
        stderr=0.5 * math.hypot(r_zq.stderr, r_dq.stderr),
        residual_norm=math.hypot(r_zq.residual_norm, r_dq.residual_norm),
    )


# ----------------------------------------------------------------------
# Joint noise-model fit
# ----------------------------------------------------------------------


def _rate_partials(kind: str) -> dict[str, float]:
    """d(rate)/d(param) for the kind's model decay rate."""
    if kind == KIND_ZQ:
        return {"gamma1": 1.0, "gamma2": 1.0, "gamma3": -1.0, "Gamma1": 0.5, "Gamma2": 0.5}
    if kind == KIND_DQ:
        return {"gamma1": 1.0, "gamma2": 1.0, "gamma3": 1.0, "Gamma1": 0.5, "Gamma2": 0.5}
    return {_KIND_PARAM[kind]: 1.0}


def _rate_from_values(kind: str, values: dict[str, float]) -> float:
    partials = _rate_partials(kind)
    return sum(coeff * values[name] for name, coeff in partials.items())


def fit_noise_model(curves: list[DecayCurve], fixed: dict[str, float] | None = None) -> FitReport:
    """Joint weighted least squares of the five noise rates over decay curves.

    ZQ and DQ curves are mandatory.  Each of gamma1, gamma2, Gamma1, Gamma2
    is fitted when its pinning curve (SQ or inversion-recovery) is present
    and the value is not supplied in `fixed`; otherwise it must appear in
    `fixed`.  gamma3 is always fitted.  The non-negative rates are
    reparameterized as squares; every curve carries a free amplitude.
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

    free: list[str] = []
    values: dict[str, float] = {}
    for name in ("gamma1", "gamma2", "Gamma1", "Gamma2"):
        pinning = next(k for k, p in _KIND_PARAM.items() if p == name)
        if name in fixed:
            values[name] = float(fixed[name])
        elif pinning in by_kind:
            free.append(name)
            values[name] = max(individual[pinning].rate, 1e-6)
        else:
            raise DataError(
                f"rate {name!r} has no curve of kind {pinning!r} and no fixed value"
            )
    free.append("gamma3")
    values["gamma3"] = difference.rate

    kinds = [kind for kind in CURVE_KINDS if kind in by_kind]
    n_rates = len(free)

    def unpack(x):
        rates = dict(values)
        for i, name in enumerate(free):
            rates[name] = x[i] ** 2 if name != "gamma3" else x[i]
        amplitudes = {kind: x[n_rates + j] for j, kind in enumerate(kinds)}
        return rates, amplitudes

    weights = {
        kind: (1.0 / c.sigmas if c.sigmas is not None else np.ones(len(c)))
        for kind, c in by_kind.items()
    }
    all_weighted = all(by_kind[k].sigmas is not None for k in kinds)

    def residual_jac(x):
        rates, amplitudes = unpack(x)
        blocks_r, blocks_j = [], []
        for j, kind in enumerate(kinds):
            curve = by_kind[kind]
            rate = _rate_from_values(kind, rates)
            vals, d_amp, d_rate = _curve_model(kind, curve.times, amplitudes[kind], rate)
            w = weights[kind]
            blocks_r.append((vals - curve.signals) * w)
            jac = np.zeros((len(curve), n_rates + len(kinds)))
            partials = _rate_partials(kind)
            for i, name in enumerate(free):
                if name not in partials:
                    continue
                chain = 1.0 if name == "gamma3" else 2.0 * x[i]
                jac[:, i] = d_rate * partials[name] * chain * w
            jac[:, n_rates + j] = d_amp * w
            blocks_j.append(jac)
        return np.concatenate(blocks_r), np.vstack(blocks_j)

    x0 = np.empty(n_rates + len(kinds))
    for i, name in enumerate(free):
        x0[i] = values[name] if name == "gamma3" else math.sqrt(values[name])
    for j, kind in enumerate(kinds):
        x0[n_rates + j] = individual[kind].amplitude

    x, r, jac, converged, reason, iterations = _levenberg_marquardt(residual_jac, x0)
    if not converged:
        raise ConvergenceError(f"joint fit did not converge in {iterations} iterations")

    rates, amplitudes = unpack(x)
    cov = _parameter_covariance(r, jac, weighted=all_weighted)
    stderr: dict[str, float] = {}
    for i, name in enumerate(free):
        chain = 1.0 if name == "gamma3" else 2.0 * abs(x[i])
        stderr[name] = float(np.sqrt(max(cov[i, i], 0.0)) * chain)

    try:
        params = NoiseParams(
            gamma1=rates["gamma1"],
            gamma2=rates["gamma2"],
            gamma3=rates["gamma3"],
            Gamma1=rates["Gamma1"],
            Gamma2=rates["Gamma2"],
        )
    except ValueError as exc:
        raise ConvergenceError(f"fitted rates violate positivity constraints: {exc}") from exc

    offset = 0
    per_curve: dict[str, float] = {}
    for kind in kinds:
        n = len(by_kind[kind])
        per_curve[kind] = float(np.linalg.norm(r[offset : offset + n]))
        offset += n

    predicted = dict(rates)
    predicted["gamma3"] = difference.rate
    consistency = ModelConsistency(
        gamma3_difference=difference.rate,
        gamma3_difference_stderr=difference.stderr,
        zq_rate_measured=individual[KIND_ZQ].rate,
        dq_rate_measured=individual[KIND_DQ].rate,
        zq_rate_predicted=_rate_from_values(KIND_ZQ, predicted),
        dq_rate_predicted=_rate_from_values(KIND_DQ, predicted),
        zq_rate_mismatch=_rate_from_values(KIND_ZQ, predicted) - individual[KIND_ZQ].rate,
        dq_rate_mismatch=_rate_from_values(KIND_DQ, predicted) - individual[KIND_DQ].rate,
    )

    return FitReport(
        params=params,
        stderr=stderr,
        amplitudes=amplitudes,
        per_curve_residuals=per_curve,
        converged=converged,
        convergence_reason=reason,
        iterations=iterations,
        fixed=tuple(sorted(fixed)),
        consistency=consistency,
    )


# ----------------------------------------------------------------------
# CSV / JSON interchange
# ----------------------------------------------------------------------


def load_curve(path, kind: str) -> DecayCurve:
    """Read a decay curve from CSV: header `t,signal[,sigma]`, `#` comments."""
    path = Path(path)
    rows: list[tuple[int, list[float]]] = []
    header: list[str] | None = None
    with open(path, encoding="utf-8") as handle:
        for lineno, raw in enumerate(handle, start=1):
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
    bad = np.flatnonzero(np.diff(times) <= 0)
    if bad.size:
        lineno = rows[int(bad[0]) + 1][0]
        raise DataError(f"{path}:{lineno}: times must be strictly increasing")
    signals = np.array([r[1][1] for r in rows])
    sigmas = np.array([r[1][2] for r in rows]) if len(header) == 3 else None
    try:
        return DecayCurve(kind, times, signals, sigmas)
    except DataError as exc:
        raise DataError(f"{path}: {exc}") from exc


def save_curve(curve: DecayCurve, path) -> None:
    """Write a decay curve in the CSV interchange format."""
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
    Path(path).write_text("\n".join(lines) + "\n", encoding="utf-8")


def save_report(report: FitReport, path) -> None:
    """Serialize a FitReport as a flat JSON object."""
    Path(path).write_text(
        json.dumps(report.to_dict(), indent=2, sort_keys=True) + "\n", encoding="utf-8"
    )
