"""Command-line front end: state preparation and tomography reports, decay
sweeps, noise-model fitting, and the per-molecule rate reports.

Exit codes: 0 success, 2 configuration error, 3 data error, 4 fit
non-convergence.  Outputs carry no timestamps, so identical configuration
and seed produce byte-identical files.
"""

from __future__ import annotations

import argparse
import json
import sys
import warnings
from dataclasses import MISSING, asdict, dataclass, field, fields
from pathlib import Path

import numpy as np

from . import estimation
from .channels import NoiseParams, NotCompletelyPositive
from .estimation import (
    CURVE_KINDS,
    ConvergenceError,
    DataError,
    DecayCurve,
    RateEstimate,
    _curve_csv,
    _read_text,
    add_noise,
    fit_exponential,
    fit_noise_model,
    gamma3_difference,
    load_curve,
    model_consistency,
    signal_model,
)
from .evolution import default_time_grid, propagate
from .plotting import Series, render_decay_plot
from .presets import PRESETS, Preset, get_preset
from .spinops import SpinSystem, _finite_real
from .states import COHERENCE_KINDS, MAXIMALLY_MIXED, coherence_state, prepare_target
from .tomography import SETTINGS, fidelity, reconstruct, simulate_readout

# Most times one config may ask for: a `decay` over that many points peaks at
# about 450 MB, most of it the (T, 16, 16) complex stack of exp(Z t) that
# propagation multiplies by vec rho0 (410 MB at T = 100,001).
MAX_TIME_POINTS = 100_000


class ConfigError(ValueError):
    """Invalid run configuration."""


@dataclass
class RunConfig:
    system: SpinSystem | None = None
    noise: NoiseParams | None = None
    epsilon: float = 1.0
    time_grid: np.ndarray = field(default_factory=default_time_grid)
    seed: int = 0
    noise_sigma: float = 0.0

    def require_system(self) -> SpinSystem:
        if self.system is None:
            raise ConfigError("no spin system configured; pass --preset or a config with 'system'")
        return self.system

    def require_noise(self) -> NoiseParams:
        if self.noise is None:
            raise ConfigError("no noise rates configured; pass --preset or a config with 'noise'")
        return self.noise


def _number(value, field: str) -> float:
    """A config number: a finite JSON number, not a string or a boolean."""
    if isinstance(value, bool):
        raise ConfigError(f"{field}: expected a number, got {value!r}")
    try:
        return _finite_real(value, field)
    except ValueError as exc:
        raise ConfigError(str(exc)) from None


def _integer(value, field: str) -> int:
    """A config integer: a JSON integer, not a float or a boolean."""
    if isinstance(value, bool) or not isinstance(value, int):
        raise ConfigError(f"{field}: expected an integer, got {value!r}")
    return value


def _preset(name: str, field: str = "") -> Preset:
    """The named preset; an unknown name is a config error, prefixed with `field`."""
    try:
        return get_preset(name)
    except ValueError as exc:
        raise ConfigError(f"{field}{exc}") from None


def _read(value, field: str, known, expected: str) -> dict:
    """`value` if it is an object with only `known` keys; else a config error naming `field`."""
    if not isinstance(value, dict):
        raise ConfigError(f"{field}: {expected}")
    unknown = sorted(set(value) - set(known))
    if unknown:
        raise ConfigError(f"{field}: unknown config fields {unknown}")
    return value


def _build(cls, value, field: str, expected: str):
    """A SpinSystem or NoiseParams from a config object keyed by its dataclass
    fields: one without a default is required, and all but `name` are numbers."""
    value = _read(value, field, [spec.name for spec in fields(cls)], expected)
    kwargs = {}
    for spec in fields(cls):
        if spec.name in value:
            raw = value[spec.name]
            kwargs[spec.name] = str(raw) if spec.name == "name" else _number(raw, f"{field}.{spec.name}")
        elif spec.default is MISSING:
            raise ConfigError(f"{field}: missing field {spec.name!r}")
    try:
        return cls(**kwargs)
    except NotCompletelyPositive as exc:
        raise ConfigError(f"noise.gamma3: {exc}") from None
    except ValueError as exc:
        raise ConfigError(f"{field}: {exc}") from None


def _parse_system(value) -> SpinSystem:
    if isinstance(value, str):
        return _preset(value, "system: ").system
    with warnings.catch_warnings(record=True) as caught:
        warnings.simplefilter("always")
        system = _build(SpinSystem, value, "system",
                        "expected a preset name or an object with nu1/nu2/j12")
    for warning in caught:
        print(f"warning: system: {warning.message}", file=sys.stderr)
    return system


def _parse_time_grid(value) -> np.ndarray:
    """A list of seconds, or default_time_grid's keyword arguments; either
    form must give at least 2 strictly increasing, non-negative times."""
    if isinstance(value, list):
        if len(value) > MAX_TIME_POINTS:
            raise ConfigError(f"time_grid: at most {MAX_TIME_POINTS} times, got {len(value)}")
        grid = np.array([_number(v, f"time_grid[{i}]") for i, v in enumerate(value)], dtype=float)
    else:
        value = _read(value, "time_grid", ("start", "stop", "points"),
                      "expected a list of seconds or {start, stop, points}")
        spacing = {key: (_integer if key == "points" else _number)(value[key], f"time_grid.{key}")
                   for key in ("start", "stop", "points") if key in value}
        if spacing.get("points", 0) > MAX_TIME_POINTS:
            raise ConfigError(f"time_grid.points: at most {MAX_TIME_POINTS}, got {spacing['points']}")
        try:
            grid = default_time_grid(**spacing)
        except ValueError as exc:
            raise ConfigError(f"time_grid: {exc}") from None
    if grid.size < 2 or np.any(grid[1:] <= grid[:-1]) or grid[0] < 0:
        raise ConfigError("time_grid: must hold at least 2 strictly increasing, non-negative seconds")
    return grid


def load_config(args) -> RunConfig:
    """Resolve the run configuration from preset, config file, and flags."""
    config = RunConfig()
    if args.preset:
        preset = _preset(args.preset)
        config.system = preset.system
        config.noise = preset.noise
    if args.config:
        path = Path(args.config)
        text = _read_text(path, ConfigError)
        try:
            raw = json.loads(text)
        except (ValueError, RecursionError) as exc:  # also too deep, or too many digits
            raise ConfigError(f"{path}: invalid JSON ({exc})") from None
        raw = _read(raw, str(path), [spec.name for spec in fields(RunConfig)],
                    "top-level config must be an object")
        if "system" in raw:
            config.system = _parse_system(raw["system"])
        if "noise" in raw:
            config.noise = _build(NoiseParams, raw["noise"], "noise",
                                  "expected an object with gamma1..Gamma2 rates in 1/s")
        if "epsilon" in raw:
            config.epsilon = _number(raw["epsilon"], "epsilon")
            if not 0.0 <= config.epsilon <= 1.0:
                raise ConfigError("epsilon: must lie in [0, 1]")
        if "time_grid" in raw:
            config.time_grid = _parse_time_grid(raw["time_grid"])
        if "seed" in raw:
            config.seed = _integer(raw["seed"], "seed")
        if "noise_sigma" in raw:
            config.noise_sigma = _number(raw["noise_sigma"], "noise_sigma")
            if config.noise_sigma < 0:
                raise ConfigError("noise_sigma: must be non-negative")
    if getattr(args, "seed", None) is not None:
        config.seed = args.seed
    if config.seed < 0:
        raise ConfigError(f"seed: must be non-negative, got {config.seed}")
    return config


def _matrix_json(rho: np.ndarray) -> list[list[list[float]]]:
    """Nested [re, im] pairs for a complex matrix."""
    return [[[float(v.real), float(v.imag)] for v in row] for row in np.asarray(rho, dtype=complex)]


def _json(payload: dict) -> str:
    return json.dumps(payload, indent=2, sort_keys=True) + "\n"


def _write(out: str, outputs: dict) -> list[Path]:
    """Create the --out directory, write each named output's text into it, and
    return the paths written.  An OSError leaves none of them and names --out
    and the file."""
    path = Path(out)
    written: list[Path] = []
    try:
        path.mkdir(parents=True, exist_ok=True)
        for name, content in outputs.items():
            path = Path(out, name)
            path.write_text(content, encoding="utf-8")
            written.append(path)
    except OSError as exc:
        for done in written:
            done.unlink(missing_ok=True)
        raise ConfigError(f"--out: cannot write {path} ({exc.strerror or exc})") from None
    return written


def _read_out(args, config: RunConfig) -> tuple[np.ndarray, list, np.ndarray, float]:
    """The read-out step of `prepare` and `tomo`: prepare the target, evolve it
    for `tomo --time` under the noise model, read out the four settings and
    reconstruct.  --time and the noise it needs are checked before any work.
    Returns the state read out, the records, the reconstruction and its
    fidelity against the target scaled by epsilon."""
    time = getattr(args, "time", None)
    if time is not None:
        if not np.isfinite(time) or time < 0:
            raise ConfigError(f"--time must be a finite, non-negative number of seconds, got {time}")
        noise = config.require_noise()
    system = config.require_system()
    with warnings.catch_warnings():
        # The epsilon = 0 warning is printed below in the CLI's own words.
        warnings.filterwarnings("ignore", "epsilon = 0:", UserWarning)
        try:
            state = prepare_target(args.target, system, config.epsilon)
        except ValueError as exc:
            # Targets and epsilon are checked already: only the ZQ/DQ delay's
            # phase rule is left to fail.  J12 = 0 is to blame, or with
            # J12 != 0 the system as a whole: its shift offsets relative to
            # J12, all of which the message prints.
            field = "system" if system.j12 else "system.j12"
            raise ConfigError(f"{field}: {exc}") from None
    if config.epsilon == 0.0:
        print("warning: epsilon = 0, the deviation part is empty; "
              "comparing against the maximally mixed state", file=sys.stderr)
    if time is not None:
        state = propagate(state, noise, time)
    records = [simulate_readout(state, s) for s in SETTINGS]
    reconstructed = reconstruct(records)
    target = (1.0 - config.epsilon) * MAXIMALLY_MIXED + config.epsilon * coherence_state(args.target)
    fid = fidelity(reconstructed, target)
    return state, records, reconstructed, fid


def cmd_prepare(args) -> tuple[str, dict]:
    config = load_config(args)
    state, _, reconstructed, fid = _read_out(args, config)
    payload = {
        "target": args.target,
        "epsilon": config.epsilon,
        "fidelity": fid,
        "state": _matrix_json(state),
        "reconstructed": _matrix_json(reconstructed),
    }
    return (f"prepared {args.target} (epsilon = {config.epsilon:g}): "
            f"fidelity vs target = {fid:.6f}\n",
            {f"state_{args.target}.json": _json(payload)})


def _decay_signals(kind: str, config: RunConfig, times: np.ndarray) -> np.ndarray:
    """Normalized decay signal on the grid.

    Coherence kinds propagate the prepared state under the full generator and
    read the magnitude of the element joining the two basis states the
    coherence superposes; the inversion-recovery kinds use the closed-form
    recovery signal, since the infinite-temperature model relaxes to zero net
    magnetization rather than to the thermal value the experimental procedure
    rides on.
    """
    noise = config.require_noise()
    if kind in COHERENCE_KINDS:
        rho0 = coherence_state(kind)
        r, s = np.flatnonzero(rho0.diagonal())
        # exp(Z 0) is exactly the identity, so a t = 0 row reads exactly 1.0.
        return np.abs(propagate(rho0, noise, times)[:, r, s]) / abs(rho0[r, s])
    return signal_model(kind, noise, times)


def cmd_decay(args) -> tuple[str, dict]:
    config = load_config(args)
    times = config.time_grid
    signals = _decay_signals(args.kind, config, times)
    try:
        signals = add_noise(signals, config.noise_sigma, config.seed)
    except ValueError as exc:
        raise ConfigError(f"noise_sigma: {exc}") from None
    curve = DecayCurve(args.kind, times, signals)
    if args.format == "json":
        payload = {"kind": args.kind, "t": [float(v) for v in times],
                   "signal": [float(v) for v in signals]}
        return "", {f"decay_{args.kind}.json": _json(payload)}
    return "", {f"decay_{args.kind}.csv": _curve_csv(curve)}


def cmd_tomo(args) -> tuple[str, dict]:
    config = load_config(args)
    _, records, reconstructed, fid = _read_out(args, config)
    payload = {
        "target": args.target,
        "epsilon": config.epsilon,
        "time": args.time if args.time is not None else 0.0,
        "fidelity_vs_target": fid,
        "matrix": _matrix_json(reconstructed),
        "records": {rec.setting: list(rec.observables) for rec in records},
    }
    text = f"tomography of {args.target}: fidelity vs target = {fid:.6f}\n"
    if args.out is None:
        return text + _json(payload), {}
    return text, {f"tomo_{args.target}.json": _json(payload)}


def _parse_curve_args(pairs: list[str]) -> dict[str, Path]:
    paths: dict[str, Path] = {}
    for pair in pairs:
        kind, sep, path = pair.partition("=")
        if not sep:
            raise ConfigError(f"--curve expects KIND=PATH, got {pair!r}")
        if kind not in CURVE_KINDS:
            raise ConfigError(f"--curve: unknown kind {kind!r}; expected one of {CURVE_KINDS}")
        if kind in paths:
            raise ConfigError(f"--curve: duplicate kind {kind!r}")
        paths[kind] = Path(path)
    return paths


def _fit_plot(curves: dict[str, DecayCurve], rates: dict[str, float],
              amplitudes: dict[str, float]) -> str:
    """Overlay of data points and fitted curves on log-linear axes.

    Recovery-kind curves are shown as the recovery gap (A - s)/2 = A e^(-Rt)
    so every fitted series is a positive exponential; data points <= 0 fall
    off the log axis.
    """
    series: list[Series] = []
    for kind, curve in sorted(curves.items()):
        amplitude = amplitudes.get(kind, 1.0)
        if kind in estimation.RECOVERY_KINDS:
            data_y = (amplitude - curve.signals) / 2.0
            label = f"{kind} (recovery gap)"
        else:
            data_y = curve.signals
            label = kind
        series.append(Series(label=f"{label} data", x=list(curve.times), y=list(data_y), style="points"))
        dense = np.linspace(curve.times[0], curve.times[-1], 128)
        # -R t overflows to -inf on a long grid, and exp(-inf) = 0 is the decayed fit.
        with np.errstate(over="ignore"):
            fit_y = amplitude * np.exp(-rates[kind] * dense)
        series.append(Series(label=f"{label} fit", x=list(dense), y=list(fit_y), style="line"))
    return render_decay_plot(series)


def cmd_fit(args) -> tuple[str, dict]:
    config = load_config(args)
    paths = _parse_curve_args(args.curve)
    for mandatory in ("ZQ", "DQ"):
        if mandatory not in paths:
            raise DataError(f"fit requires a {mandatory} curve (--curve {mandatory}=PATH)")
    curves = {kind: load_curve(path, kind) for kind, path in paths.items()}
    fixed: dict[str, float] = {}
    if args.mode == "joint":
        for name, kind in estimation.PINNING_KIND.items():
            if kind not in curves:
                if config.noise is None:
                    raise DataError(
                        f"joint fit without a {kind} curve needs --preset/--config noise "
                        f"to fix {name}"
                    )
                fixed[name] = getattr(config.noise, name)

    estimates = {}  # both modes fit each curve once
    for kind, curve in curves.items():
        try:
            estimates[kind] = fit_exponential(curve)
        except (DataError, ConvergenceError) as exc:  # name the curve's file
            raise type(exc)(f"{paths[kind]}: {exc}") from None

    if args.mode == "difference":
        diff = gamma3_difference(estimates["ZQ"], estimates["DQ"])
        payload: dict = {
            "mode": "difference",
            "gamma3": diff.rate,
            "gamma3_stderr": diff.stderr,
        }
        for kind, est in sorted(estimates.items()):
            payload[f"{kind}_rate"] = est.rate
            payload[f"{kind}_rate_stderr"] = est.stderr
            payload[f"{kind}_amplitude"] = est.amplitude
        if config.noise is not None:
            # The payload holds the measured rates already.
            rates = {name: getattr(config.noise, name) for name in estimation.PINNING_KIND}
            consistency = asdict(model_consistency(estimates["ZQ"], estimates["DQ"], **rates))
            payload.update(rates, **{key: value for key, value in consistency.items()
                                     if key.endswith(("_predicted", "_mismatch"))})
        fitted_rates = {kind: est.rate for kind, est in estimates.items()}
        fitted_amplitudes = {kind: est.amplitude for kind, est in estimates.items()}
        text = (f"gamma3 = {diff.rate:.6g} +/- {diff.stderr:.3g} per unit of t "
                "(difference estimator)\n")
    else:
        report = fit_noise_model(list(curves.values()), fixed=fixed, individual=estimates)
        payload = {"mode": "joint", **report.to_dict()}
        fitted_rates = {
            kind: estimation.rate_for_kind(kind, report.params) for kind in curves
        }
        fitted_amplitudes = report.amplitudes
        text = (f"joint fit converged ({report.convergence_reason}, "
                f"{report.iterations} iterations): gamma3 = {report.params.gamma3:.6g} per unit of t\n")

    try:
        svg = _fit_plot(curves, fitted_rates, fitted_amplitudes)
    except ValueError as exc:  # no sample or fitted value is positive
        raise DataError(f"{Path(args.out, 'fit_plot.svg')}: {exc}") from None
    return text, {"fit_report.json": _json(payload), "fit_plot.svg": svg}


def _report_entry(name: str) -> dict:
    preset = _preset(name)
    rates = preset.rates
    # Model prediction with the measured 1/T2 dephasing and 1/T1 damping rates.
    consistency = asdict(model_consistency(
        RateEstimate(rates.zq_rate, rates.zq_rate_err, 0.0),
        RateEstimate(rates.dq_rate, rates.dq_rate_err, 0.0),
        rates.t2_rate_1, rates.t2_rate_2, rates.Gamma1, rates.Gamma2,
    ))
    return {
        "preset": name,
        "molecule": preset.system.name,
        "gamma3": consistency.pop("gamma3_difference"),
        "gamma3_stderr": consistency.pop("gamma3_difference_stderr"),
        **consistency,
        "noise": asdict(preset.noise),
    }


def cmd_report(args) -> tuple[str, dict]:
    names = sorted(PRESETS) if args.preset in (None, "all") else [args.preset]
    entries = [_report_entry(name) for name in names]
    text = "".join(
        f"{e['molecule']}: gamma3 = {e['gamma3']:.6g} +/- {e['gamma3_stderr']:.3g} 1/s "
        f"(ZQ {e['zq_rate_measured']:g}, DQ {e['dq_rate_measured']:g})\n"
        for e in entries
    )
    if args.format == "json":
        return text, {"report.json": _json({"molecules": entries})}
    lines = ["preset,molecule,gamma3,gamma3_stderr,zq_rate,dq_rate"]
    lines.extend(
        f"{e['preset']},{e['molecule']},{e['gamma3']:.12g},{e['gamma3_stderr']:.12g},"
        f"{e['zq_rate_measured']:.12g},{e['dq_rate_measured']:.12g}"
        for e in entries
    )
    return text, {"report.csv": "\n".join(lines) + "\n"}


def build_parser() -> argparse.ArgumentParser:
    parser = argparse.ArgumentParser(
        prog="spinpair",
        description="Two-spin decoherence simulation and noise-rate estimation",
    )
    sub = parser.add_subparsers(dest="command", required=True)

    flags = {
        "--config": dict(help="JSON run configuration"),
        "--preset": dict(help=f"built-in molecule preset: {', '.join(sorted(PRESETS))}"),
        "--out": dict(help="output directory"),
        "--seed": dict(type=int, help="random seed override"),
    }

    def add_flags(p, *names, **extra):
        for name in names:
            p.add_argument(name, **flags[name], **extra)

    p_prepare = sub.add_parser("prepare", help="simulate state preparation and report fidelity")
    add_flags(p_prepare, "--config", "--preset", "--out")
    p_prepare.add_argument("--target", choices=COHERENCE_KINDS, required=True)
    p_prepare.set_defaults(func=cmd_prepare)

    p_decay = sub.add_parser("decay", help="sweep a decay curve and write CSV")
    add_flags(p_decay, "--config", "--preset")
    add_flags(p_decay, "--out", required=True)
    add_flags(p_decay, "--seed")
    p_decay.add_argument("--kind", choices=CURVE_KINDS, required=True)
    p_decay.add_argument("--format", choices=("csv", "json"), default="csv")
    p_decay.set_defaults(func=cmd_decay)

    p_tomo = sub.add_parser("tomo", help="simulate tomography of a prepared state")
    add_flags(p_tomo, "--config", "--preset", "--out")
    p_tomo.add_argument("--target", choices=COHERENCE_KINDS, required=True)
    p_tomo.add_argument("--time", type=float, help="evolve under the noise model before readout")
    p_tomo.set_defaults(func=cmd_tomo)

    p_fit = sub.add_parser("fit", help="estimate noise rates from decay-curve CSVs")
    add_flags(p_fit, "--config", "--preset")
    add_flags(p_fit, "--out", required=True)
    p_fit.add_argument("--curve", action="append", default=[], metavar="KIND=PATH",
                       help="decay curve CSV (repeatable)")
    p_fit.add_argument("--mode", choices=("difference", "joint"), default="difference")
    p_fit.set_defaults(func=cmd_fit)

    p_report = sub.add_parser("report", help="per-molecule correlated-dephasing report")
    add_flags(p_report, "--preset", "--out")
    p_report.add_argument("--format", choices=("json", "csv"), default="json")
    p_report.set_defaults(func=cmd_report)

    return parser


def main(argv: list[str] | None = None) -> int:
    """Run one subcommand.  It renders its stdout text and its named outputs;
    only when every check has passed and every output is written does this
    print the text and one `wrote <path>` line per file."""
    parser = build_parser()
    args = parser.parse_args(argv)
    try:
        text, outputs = args.func(args)
        written = [] if args.out is None else _write(args.out, outputs)
    except ConfigError as exc:
        print(f"config error: {exc}", file=sys.stderr)
        return 2
    except DataError as exc:
        print(f"data error: {exc}", file=sys.stderr)
        return 3
    except ConvergenceError as exc:
        print(f"fit error: {exc}", file=sys.stderr)
        return 4
    sys.stdout.write(text + "".join(f"wrote {path}\n" for path in written))
    return 0


def entry_point() -> None:
    sys.exit(main())


if __name__ == "__main__":
    entry_point()
