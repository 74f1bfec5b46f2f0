"""Seeded workloads of the spinpair benchmark and their correctness oracles.

Every workload is a closed loop with one client.  For op number i,
``make_op(i)`` draws the inputs from the seed outside the timed region,
``run(op)`` makes the timed calls into spinpair, and ``check(op, result)``
compares the result with an oracle that does not use the code under test.
``check`` returns None for a correct result and otherwise a message that
names the fault.  ``points(op)`` is the number of time points the op
processes, the base of ``points_per_s``.

The program's functions are looked up on their modules at every op, never
bound once, so the traced run sees the wrappers it installs on them.
"""

from __future__ import annotations

import contextlib
import hashlib
import io
import json
import math
import os
import shutil
import subprocess
import sys
from dataclasses import dataclass, field
from pathlib import Path

import numpy as np

import spinpair.cli
import spinpair.estimation
import spinpair.evolution
import spinpair.states
import spinpair.tomography
from spinpair.channels import NoiseParams
from spinpair.presets import PRESETS

PRESET_NAMES = tuple(sorted(PRESETS))
COHERENCE_KINDS = ("ZQ", "DQ", "SQ1", "SQ2")
RECOVERY_KINDS = ("T1_inversion_recovery_spin1", "T1_inversion_recovery_spin2")
CURVE_KINDS = RECOVERY_KINDS + ("SQ1", "SQ2", "ZQ", "DQ")
SETTINGS = ("II", "IX", "IY", "XX")

# Absolute tolerance of every propagated element against its oracle.
STATE_TOL = 1e-10
# Tomography round trip: reconstruction against the propagated state.
TOMO_TOL = 1e-9
# Noiseless fits recover gamma3 to this relative error; the base is
# max(|gamma3|, 1e-3 * (gamma1 + gamma2)), so that a gamma3 near zero is
# judged on the scale of the dephasing rates it is drawn against.
NOISELESS_REL_TOL = 1e-6
# Noisy fits land within this many reported standard errors of gamma3.
# The noise is multiplicative and the fits unweighted, so the reported
# stderr is only approximate and |error| / stderr has a heavy tail: over
# 27,000 noisy ops, 0.3 % of the difference estimates exceeded 4 and the
# largest ratio was 6.0.
NOISY_STDERR_MULTIPLE = 10.0
# Warm-up ops draw their inputs from op numbers far above any run's, so
# they share no inputs, and no cache entries, with the timed ops.
WARMUP_BASE = 2**31
# Time of the trace-drift probe: propagation this long raises today.
LONG_TIME_S = 1e4


# ----------------------------------------------------------------------
# Seeded inputs
# ----------------------------------------------------------------------


def op_rng(seed: int, i: int, stream: int = 0) -> np.random.Generator:
    return np.random.default_rng([seed, stream, i])


def stratified_log_uniform(seed: int, stream: int, i: int, lo: float, hi: float,
                           strata: int = 16) -> float:
    """Log-uniform draw in [lo, hi], stratified over blocks of `strata` ops.

    Each block of consecutive ops visits every stratum once in a seeded
    order, so the mix of sizes in a run, and with it the work per second,
    does not depend on the seed.
    """
    block, slot = divmod(i, strata)
    rng = np.random.default_rng([seed, stream, block])
    stratum = rng.permutation(strata)[slot]
    u = (stratum + rng.uniform(size=strata)[slot]) / strata
    return float(math.exp(math.log(lo) + u * (math.log(hi) - math.log(lo))))


def random_cp_params(rng: np.random.Generator, rate_scale: float = 3.0) -> NoiseParams:
    """Noise rates inside the strictly completely positive region, drawn as
    the test suite's sampler draws them."""
    gamma1 = rng.uniform(0.05, 1.0) * rate_scale
    gamma2 = rng.uniform(0.05, 1.0) * rate_scale
    gamma3 = rng.uniform(-0.95, 0.95) * 2.0 * math.sqrt(gamma1 * gamma2)
    return NoiseParams(gamma1=gamma1, gamma2=gamma2, gamma3=gamma3,
                       Gamma1=rng.uniform(0.0, 1.0), Gamma2=rng.uniform(0.0, 1.0))


def log_grid(stop: float, size: int) -> np.ndarray:
    """`size` times: t = 0 and a log-spaced grid from 1 ms to `stop`."""
    return np.concatenate(([0.0], np.geomspace(1e-3, stop, size - 1)))


# ----------------------------------------------------------------------
# Independent physics oracles
# ----------------------------------------------------------------------

_KETS = {
    "ZQ": np.array([0, 1, 1, 0]) / math.sqrt(2),
    "DQ": np.array([1, 0, 0, 1]) / math.sqrt(2),
    "SQ1": np.array([1, 0, 1, 0]) / math.sqrt(2),
    "SQ2": np.array([1, 1, 0, 0]) / math.sqrt(2),
}
# Sigma-z eigenvalue of each spin in the basis |00>, |01>, |10>, |11>.
_Z1 = np.array([1, 1, -1, -1])
_Z2 = np.array([1, -1, 1, -1])
# Element whose magnitude is each coherence kind's decay signal.
SIGNAL_ELEMENT = {"ZQ": (1, 2), "DQ": (0, 3), "SQ1": (0, 2), "SQ2": (0, 1)}


def pure_state(kind: str) -> np.ndarray:
    ket = _KETS[kind].astype(complex)
    return np.outer(ket, ket.conj())


def coherence_rate(kind: str, p: NoiseParams) -> float:
    """The paper's ZQ/DQ decay rate R = gamma1 + gamma2 -/+ gamma3 + (Gamma1 + Gamma2)/2."""
    sign = -1.0 if kind == "ZQ" else 1.0
    return p.gamma1 + p.gamma2 + sign * p.gamma3 + 0.5 * (p.Gamma1 + p.Gamma2)


def closed_form_states(kind: str, p: NoiseParams, times: np.ndarray) -> np.ndarray:
    """(T, 4, 4) states evolved from the pure ZQ or DQ state, in closed form.

    The spin-spin correlation <z1 z2> starts at -1 (ZQ) or +1 (DQ) and relaxes
    at Gamma1 + Gamma2; the coherence element decays as exp(-R t).
    """
    times = np.asarray(times, dtype=float)
    corr = (-1.0 if kind == "ZQ" else 1.0) * np.exp(-(p.Gamma1 + p.Gamma2) * times)
    out = np.zeros((times.size, 4, 4), dtype=complex)
    for b in range(4):
        out[:, b, b] = 0.25 * (1.0 + _Z1[b] * _Z2[b] * corr)
    r, s = SIGNAL_ELEMENT[kind]
    out[:, r, s] = out[:, s, r] = 0.5 * np.exp(-coherence_rate(kind, p) * times)
    return out


def lindblad_generator(p: NoiseParams) -> np.ndarray:
    """16x16 generator on the row-major vec of rho, built from the physics.

    Dephasing damps element (r, s) at g1 (d1/2)^2 + g2 (d2/2)^2 + g3 (d1/2)(d2/2)
    with d_i = z_i(r) - z_i(s); infinite-temperature amplitude damping of
    spin i is the pair of jump operators sqrt(Gamma_i / 2) sigma_+- on it.
    """
    d1 = (_Z1[:, None] - _Z1[None, :]) / 2.0
    d2 = (_Z2[:, None] - _Z2[None, :]) / 2.0
    gen = np.diag(-(p.gamma1 * d1**2 + p.gamma2 * d2**2 + p.gamma3 * d1 * d2).reshape(16)).astype(complex)
    eye2, eye4 = np.eye(2), np.eye(4)
    lower = np.array([[0.0, 0.0], [1.0, 0.0]])
    for rate, lift in ((p.Gamma1, lambda a: np.kron(a, eye2)), (p.Gamma2, lambda a: np.kron(eye2, a))):
        for jump in (lower, lower.T):
            op = math.sqrt(rate / 2.0) * lift(jump)
            opd_op = op.conj().T @ op
            gen += np.kron(op, op.conj()) - 0.5 * (np.kron(opd_op, eye4) + np.kron(eye4, opd_op.T))
    return gen


def expm_state(rho0: np.ndarray, p: NoiseParams, t: float) -> np.ndarray:
    from scipy.linalg import expm

    return (expm(lindblad_generator(p) * t) @ rho0.reshape(16)).reshape(4, 4)


def state_faults(states: np.ndarray, tol: float = STATE_TOL) -> str | None:
    """Trace and Hermiticity of a (T, 4, 4) stack of density matrices."""
    trace_dev = float(np.abs(np.trace(states, axis1=1, axis2=2) - 1.0).max())
    if trace_dev > tol:
        return f"trace deviates from 1 by {trace_dev:.3e}"
    herm_dev = float(np.abs(states - states.conj().transpose(0, 2, 1)).max())
    if herm_dev > tol:
        return f"state not Hermitian (deviation {herm_dev:.3e})"
    return None


def max_dev(a: np.ndarray, b: np.ndarray) -> float:
    return float(np.abs(np.asarray(a) - np.asarray(b)).max())


def long_time_error_ratio() -> float:
    """Share of preset x target states whose propagation to LONG_TIME_S raises.

    Today every one of them raises the trace-drift ValueError; the probe runs
    outside the timed ops so the workloads measure only ops that succeed.
    """
    errors = attempts = 0
    for name in PRESET_NAMES:
        preset = PRESETS[name]
        for target in COHERENCE_KINDS:
            attempts += 1
            try:
                spinpair.evolution.propagate(pure_state(target), preset.noise, LONG_TIME_S)
            except ValueError:
                errors += 1
    return errors / attempts


# ----------------------------------------------------------------------
# sweep
# ----------------------------------------------------------------------


@dataclass
class SweepOp:
    kind: str
    params: NoiseParams
    times: np.ndarray
    rho0: np.ndarray
    sample: np.ndarray


class Sweep:
    """One op propagates one coherence state over a log grid, point by point."""

    name = "sweep"
    sweeps = True

    def __init__(self, seed: int):
        self.seed = seed

    def warmup_ops(self) -> list[SweepOp]:
        """A short ZQ and SQ1 sweep: the code paths of every op at a fixed cost."""
        return [SweepOp(kind, random_cp_params(op_rng(self.seed, WARMUP_BASE + k)),
                        log_grid(10.0, 65), pure_state(kind), np.arange(2))
                for k, kind in enumerate(("ZQ", "SQ1"))]

    def make_op(self, i: int) -> SweepOp:
        rng = op_rng(self.seed, i)
        kind = COHERENCE_KINDS[i % 4]
        size = int(round(stratified_log_uniform(self.seed, 1, i, 65, 1000)))
        stop = stratified_log_uniform(self.seed, 2, i, 10.0, 1000.0)
        params = random_cp_params(rng)
        sample = rng.choice(size, size=2, replace=False)
        return SweepOp(kind, params, log_grid(stop, size), pure_state(kind), sample)

    def run(self, op: SweepOp) -> np.ndarray:
        propagate = spinpair.evolution.propagate
        out = np.empty((op.times.size, 4, 4), dtype=complex)
        for k, t in enumerate(op.times):
            out[k] = propagate(op.rho0, op.params, t)
        return out

    def points(self, op: SweepOp) -> int:
        return op.times.size

    def check(self, op: SweepOp, out: np.ndarray) -> str | None:
        fault = state_faults(out)
        if fault:
            return f"{op.kind}: {fault}"
        if op.kind in ("ZQ", "DQ"):
            dev = max_dev(out, closed_form_states(op.kind, op.params, op.times))
            if dev > STATE_TOL:
                return f"{op.kind}: closed-form deviation {dev:.3e}"
            return None
        for k in op.sample:
            dev = max_dev(out[k], expm_state(op.rho0, op.params, op.times[k]))
            if dev > STATE_TOL:
                return f"{op.kind}: expm deviation {dev:.3e} at t = {op.times[k]:g} s"
        return None


# ----------------------------------------------------------------------
# fit
# ----------------------------------------------------------------------


@dataclass
class FitOp:
    params: NoiseParams
    sigma: float
    times: dict[str, np.ndarray]
    noise_rng: np.random.Generator


class Fit:
    """One op synthesizes six curves and runs both estimators on them."""

    name = "fit"
    SIGMAS = (0.0, 0.005, 0.02)

    def __init__(self, seed: int):
        self.seed = seed

    def warmup_ops(self) -> list[FitOp]:
        return [self.make_op(WARMUP_BASE + k) for k in range(3)]

    def make_op(self, i: int) -> FitOp:
        rng = op_rng(self.seed, i)
        params = random_cp_params(rng)
        times = {}
        for k, kind in enumerate(CURVE_KINDS):
            size = int(round(stratified_log_uniform(self.seed, 10 + k, i, 24, 200)))
            rate = _curve_rate(kind, params)
            times[kind] = np.linspace(0.0, 3.0 / rate, size)
        noise_rng = np.random.default_rng(rng.integers(2**63))
        return FitOp(params, self.SIGMAS[i % 3], times, noise_rng)

    def run(self, op: FitOp):
        est = spinpair.estimation
        curves = [est.synthetic_curve(kind, op.params, op.times[kind], noise_sigma=op.sigma,
                                      rng=op.noise_rng)
                  for kind in CURVE_KINDS]
        by_kind = {c.kind: c for c in curves}
        diff = est.gamma3_difference(est.fit_exponential(by_kind["ZQ"]),
                                     est.fit_exponential(by_kind["DQ"]))
        return diff, est.fit_noise_model(curves)

    def points(self, op: FitOp) -> int:
        return sum(t.size for t in op.times.values())

    def check(self, op: FitOp, result) -> str | None:
        diff, report = result
        true = op.params.gamma3
        if not report.converged:
            return f"sigma {op.sigma}: joint fit not converged ({report.convergence_reason})"
        estimates = {"difference": (diff.rate, diff.stderr),
                     "joint": (report.params.gamma3, report.stderr["gamma3"])}
        for label, (value, stderr) in estimates.items():
            if op.sigma == 0.0:
                scale = max(abs(true), 1e-3 * (op.params.gamma1 + op.params.gamma2))
                if abs(value - true) > NOISELESS_REL_TOL * scale:
                    return f"noiseless {label} gamma3 {value!r} != {true!r}"
            elif not abs(value - true) <= NOISY_STDERR_MULTIPLE * stderr:
                return (f"sigma {op.sigma}: {label} gamma3 {value:.6g} is "
                        f"{abs(value - true) / stderr:.1f} stderr from {true:.6g}")
        return None


def _curve_rate(kind: str, p: NoiseParams) -> float:
    if kind in ("ZQ", "DQ"):
        return coherence_rate(kind, p)
    return {"SQ1": p.gamma1, "SQ2": p.gamma2,
            RECOVERY_KINDS[0]: p.Gamma1, RECOVERY_KINDS[1]: p.Gamma2}[kind]


# ----------------------------------------------------------------------
# tomo
# ----------------------------------------------------------------------


@dataclass
class TomoOp:
    preset: str
    target: str
    t: float
    epsilon: float


class Tomo:
    """One op prepares, propagates (a cache hit), reads out and reconstructs."""

    name = "tomo"
    TIMES = (0.0, 0.1, 1.0, 10.0)

    def __init__(self, seed: int):
        self.seed = seed
        self._evolved: dict[tuple[str, str, float], np.ndarray] = {}

    def warmup_ops(self) -> list[TomoOp]:
        """The first cycle of ops, which fills the propagator cache for all."""
        return [self.make_op(k) for k in range(3 * 4 * len(self.TIMES))]

    def make_op(self, i: int) -> TomoOp:
        rng = op_rng(self.seed, i)
        return TomoOp(PRESET_NAMES[i % 3], COHERENCE_KINDS[(i // 3) % 4],
                      self.TIMES[(i // 12) % 4], float(rng.uniform(0.05, 1.0)))

    def run(self, op: TomoOp):
        states, tomo = spinpair.states, spinpair.tomography
        preset = PRESETS[op.preset]
        prepared = states.prepare_target(op.target, preset.system, op.epsilon)
        rho = spinpair.evolution.propagate(prepared, preset.noise, op.t)
        records = [tomo.simulate_readout(rho, s) for s in SETTINGS]
        reconstructed = tomo.reconstruct(records)
        return rho, reconstructed, tomo.fidelity(reconstructed, rho)

    def points(self, op: TomoOp) -> int:
        return 1

    def expected(self, op: TomoOp) -> np.ndarray:
        """(1 - eps) I/4 + eps * (pure target evolved); I/4 is a fixed point."""
        key = (op.preset, op.target, op.t)
        if key not in self._evolved:
            noise = PRESETS[op.preset].noise
            if op.target in ("ZQ", "DQ"):
                self._evolved[key] = closed_form_states(op.target, noise, np.array([op.t]))[0]
            else:
                self._evolved[key] = expm_state(pure_state(op.target), noise, op.t)
        return (1.0 - op.epsilon) * np.eye(4) / 4.0 + op.epsilon * self._evolved[key]

    def check(self, op: TomoOp, result) -> str | None:
        rho, reconstructed, fid = result
        label = f"{op.preset} {op.target} t={op.t:g}"
        dev = max_dev(rho, self.expected(op))
        if dev > TOMO_TOL:
            return f"{label}: propagated state deviates by {dev:.3e}"
        dev = max_dev(reconstructed, rho)
        if dev > TOMO_TOL:
            return f"{label}: reconstruction deviates by {dev:.3e}"
        if not fid >= 1.0 - TOMO_TOL:
            return f"{label}: fidelity {fid!r} < 1 - {TOMO_TOL:g}"
        return None


# ----------------------------------------------------------------------
# cli
# ----------------------------------------------------------------------

CLI_STEPS = tuple(f"decay:{k}" for k in CURVE_KINDS) + (
    "fit:difference", "fit:joint", "tomo", "prepare", "report")


@dataclass
class CliOp:
    preset: str
    step: str
    argv: list[str]
    out: Path
    points: int


@dataclass
class CliResult:
    returncode: int
    stderr: str
    digests: dict[str, str] = field(default_factory=dict)


@dataclass
class CliPlan:
    """Per-preset inputs drawn once from the seed, so every argv repeats."""

    grid: np.ndarray
    epsilon: float
    tomo_target: str
    tomo_time: float
    prepare_target: str


class Cli:
    """One op is one `python -m spinpair.cli` command of the documented
    pipeline; the ops cycle over the steps of one preset, then the next."""

    name = "cli"
    # The CLI's default grid size, the same for every preset so that every
    # preset's pipeline is the same work; the seed draws the grid's stop.
    GRID_POINTS = 64

    def __init__(self, seed: int, root: Path, work: Path):
        self.root = root
        self.work = work
        self.env = dict(os.environ, PYTHONPATH=str(root / "src"))
        rng = op_rng(seed, 0, stream=99)
        self.first_preset = int(rng.integers(3))
        self.plans: dict[str, CliPlan] = {}
        self.digests: dict[str, dict[str, str]] = {}
        self.oracle = Tomo(seed)
        for name in PRESET_NAMES:
            stop = float(rng.uniform(5.0, 20.0))
            plan = CliPlan(
                grid=log_grid(stop, self.GRID_POINTS + 1),
                epsilon=float(rng.uniform(0.05, 1.0)),
                tomo_target=COHERENCE_KINDS[int(rng.integers(4))],
                tomo_time=float(rng.choice([0.1, 1.0, 10.0])),
                prepare_target=COHERENCE_KINDS[int(rng.integers(4))],
            )
            self.plans[name] = plan
            config = {"epsilon": plan.epsilon,
                      "time_grid": {"start": 1e-3, "stop": stop, "points": self.GRID_POINTS}}
            (work / name).mkdir(parents=True, exist_ok=True)
            (work / name / "config.json").write_text(json.dumps(config), encoding="utf-8")

    def warmup_ops(self) -> list[CliOp]:
        return [self.make_op(CLI_STEPS.index("report"))]

    def _rel(self, path: Path) -> str:
        return os.path.relpath(path, self.root)

    def make_op(self, i: int) -> CliOp:
        cycle, slot = divmod(i, len(CLI_STEPS))
        preset = PRESET_NAMES[(self.first_preset + cycle) % 3]
        plan = self.plans[preset]
        base = self.work / preset
        step = CLI_STEPS[slot]
        command, _, arg = step.partition(":")
        out = base / step.replace(":", "_")
        common = ["--preset", preset, "--config", self._rel(base / "config.json"),
                  "--out", self._rel(out)]
        n = plan.grid.size
        if command == "decay":
            return CliOp(preset, step, ["decay", *common, "--kind", arg], out, n)
        if command == "fit":
            kinds = ("ZQ", "DQ") if arg == "difference" else CURVE_KINDS
            curves = [f"--curve={k}={self._rel(base / f'decay_{k}' / f'decay_{k}.csv')}"
                      for k in kinds]
            return CliOp(preset, step, ["fit", *common, "--mode", arg, *curves], out,
                         n * len(kinds))
        if command == "tomo":
            return CliOp(preset, step, ["tomo", *common, "--target", plan.tomo_target,
                                        "--time", repr(plan.tomo_time)], out, 1)
        if command == "prepare":
            return CliOp(preset, step, ["prepare", *common, "--target", plan.prepare_target],
                         out, 0)
        return CliOp(preset, step, ["report", "--preset", preset, "--out", self._rel(out)],
                     out, 0)

    def _digests(self, op: CliOp) -> dict[str, str]:
        if not op.out.is_dir():
            return {}
        return {path.name: hashlib.sha256(path.read_bytes()).hexdigest()
                for path in sorted(op.out.iterdir())}

    def run(self, op: CliOp) -> CliResult:
        shutil.rmtree(op.out, ignore_errors=True)
        proc = subprocess.run([sys.executable, "-m", "spinpair.cli", *op.argv],
                              cwd=self.root, env=self.env, capture_output=True,
                              text=True, timeout=120)
        return CliResult(proc.returncode, proc.stderr, self._digests(op))

    def run_in_process(self, op: CliOp) -> CliResult:
        """The same argv through `spinpair.cli.main` in this process."""
        shutil.rmtree(op.out, ignore_errors=True)
        err = io.StringIO()
        cwd = os.getcwd()
        os.chdir(self.root)
        try:
            with contextlib.redirect_stdout(io.StringIO()), contextlib.redirect_stderr(err):
                try:
                    code = spinpair.cli.main(op.argv)
                except SystemExit as exc:
                    code = exc.code if isinstance(exc.code, int) else 1
        finally:
            os.chdir(cwd)
        return CliResult(code, err.getvalue(), self._digests(op))

    def points(self, op: CliOp) -> int:
        return op.points

    def check(self, op: CliOp, result: CliResult) -> str | None:
        label = f"{op.preset} {op.step}"
        if result.returncode != 0:
            return f"{label}: exit {result.returncode}: {result.stderr.strip()[-300:]}"
        key = " ".join(op.argv).replace(self._rel(self.work), "<work>")
        seen = self.digests.setdefault(key, result.digests)
        if seen != result.digests:
            return f"{label}: output digests differ between runs of the same argv"
        try:
            return self._check_outputs(op)
        except (OSError, ValueError, KeyError, IndexError) as exc:
            return f"{label}: unreadable output: {exc!r}"

    def _check_outputs(self, op: CliOp) -> str | None:
        preset = PRESETS[op.preset]
        plan = self.plans[op.preset]
        label = f"{op.preset} {op.step}"
        command, _, arg = op.step.partition(":")
        if command == "decay":
            return _check_decay_csv(op.out / f"decay_{arg}.csv", arg, preset.noise, plan.grid, label)
        if command == "fit":
            report = json.loads((op.out / "fit_report.json").read_text(encoding="utf-8"))
            field_name = "gamma3" if arg == "difference" else "gamma3_difference"
            true = preset.noise.gamma3
            if abs(report[field_name] - true) > NOISELESS_REL_TOL * abs(true):
                return f"{label}: {field_name} {report[field_name]!r} != preset {true!r}"
            if arg == "joint" and report["converged"] is not True:
                return f"{label}: joint fit not converged"
            if not (op.out / "fit_plot.svg").read_text(encoding="utf-8").startswith("<svg"):
                return f"{label}: fit_plot.svg is not an SVG document"
            return None
        if command in ("tomo", "prepare"):
            if command == "tomo":
                target, t, name, key = plan.tomo_target, plan.tomo_time, "tomo", "matrix"
            else:
                target, t, name, key = plan.prepare_target, 0.0, "state", "reconstructed"
            payload = json.loads((op.out / f"{name}_{target}.json").read_text(encoding="utf-8"))
            matrix = payload[key]
            rho = np.array([[complex(re, im) for re, im in row] for row in matrix])
            expected = self.oracle.expected(TomoOp(op.preset, target, t, plan.epsilon))
            dev = max_dev(rho, expected)
            if dev > TOMO_TOL:
                return f"{label}: reconstructed state deviates by {dev:.3e}"
            return None
        payload = json.loads((op.out / "report.json").read_text(encoding="utf-8"))
        gamma3 = payload["molecules"][0]["gamma3"]
        true = 0.5 * (preset.rates.dq_rate - preset.rates.zq_rate)
        if abs(gamma3 - true) > 1e-12 * abs(true):
            return f"{label}: report gamma3 {gamma3!r} != {true!r}"
        return None


def _check_decay_csv(path: Path, kind: str, noise: NoiseParams, grid: np.ndarray,
                     label: str) -> str | None:
    """Times must be the configured grid as printed; signals the closed form
    (ZQ, DQ, recovery) or the expm oracle (SQ) within STATE_TOL."""
    rows = [line.split(",") for line in path.read_text(encoding="utf-8").splitlines()
            if line and not line.startswith("#")]
    if rows[0] != ["t", "signal"]:
        return f"{label}: header {rows[0]!r}"
    printed_t = [r[0] for r in rows[1:]]
    if printed_t != [f"{t:.12g}" for t in grid]:
        return f"{label}: time column differs from the configured grid"
    signal = np.array([float(r[1]) for r in rows[1:]])
    if kind in ("ZQ", "DQ"):
        expected = np.exp(-coherence_rate(kind, noise) * grid)
    elif kind in RECOVERY_KINDS:
        expected = 1.0 - 2.0 * np.exp(-_curve_rate(kind, noise) * grid)
    else:
        r, s = SIGNAL_ELEMENT[kind]
        rho0 = pure_state(kind)
        index = np.array([0, grid.size // 2, grid.size - 1])
        expected = np.array([abs(expm_state(rho0, noise, grid[k])[r, s]) / abs(rho0[r, s])
                             for k in index])
        signal = signal[index]
    dev = max_dev(signal, expected)
    if dev > STATE_TOL:
        return f"{label}: signal deviates from the oracle by {dev:.3e}"
    return None


WORKLOADS = {w.name: w for w in (Sweep, Fit, Tomo, Cli)}
