"""spinpair benchmark: one seeded, closed-loop workload per run, one client.

    python3 perfbench/run.py --workload {sweep,fit,tomo,cli} --seed N --seconds S --trace {0,1}

Run from the root of a source checkout; the program is imported from `src/`.
With `--trace 0` the run times ops for S seconds and reports the end-to-end
metrics.  With `--trace 1` it alternates untraced and traced blocks and
reports the per-layer metrics of `tracer.py`.  Every result is checked
against an oracle outside the timed region; failures are logged to stderr.
The last line of stdout is one JSON object with the keys `correct`,
`attempted`, `failed` and `metrics`.  See perfbench/README.md.
"""

import time

PROCESS_START = time.perf_counter()

import os  # noqa: E402

# One thread for every BLAS/OpenMP pool, set before numpy loads and
# inherited by every child process.
THREAD_PINNING = {"OMP_NUM_THREADS": "1", "OPENBLAS_NUM_THREADS": "1", "MKL_NUM_THREADS": "1"}
os.environ.update(THREAD_PINNING)

import argparse  # noqa: E402
import json  # noqa: E402
import platform  # noqa: E402
import resource  # noqa: E402
import shutil  # noqa: E402
import statistics  # noqa: E402
import subprocess  # noqa: E402
import sys  # noqa: E402
from pathlib import Path  # noqa: E402

import numpy as np  # noqa: E402

ROOT = Path(__file__).resolve().parent.parent
SRC = ROOT / "src"

TRACE_BLOCKS = 10
SETUP_PROBES = 2
IMPORT_PROBES = 3
MAX_LOGGED_FAILURES = 20
REFERENCE_INTERVAL = 0.02
# Reference-kernel time that scaled times are quoted at: about the kernel's
# time on an undisturbed 2-vCPU Xeon, so that scaled times read as real ones there.
REFERENCE_S = 6.5e-4


def parse_args(argv=None):
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument("--workload", required=True, choices=("sweep", "fit", "tomo", "cli"))
    parser.add_argument("--seed", type=int, required=True)
    parser.add_argument("--seconds", type=float, default=10.0)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    parser.add_argument("--setup-probe", action="store_true",
                        help="set up, print the set-up time and exit (used by the run itself)")
    return parser.parse_args(argv)


def import_program():
    """Import spinpair from this checkout's src/, or exit 2 if it is absent."""
    if not (SRC / "spinpair" / "__init__.py").is_file():
        print(f"error: no spinpair sources under {SRC}; run from a source checkout",
              file=sys.stderr)
        sys.exit(2)
    sys.path.insert(0, str(SRC))
    import spinpair

    if Path(spinpair.__file__).resolve().parent != SRC / "spinpair":
        print(f"error: imported spinpair from {spinpair.__file__}, not {SRC}", file=sys.stderr)
        sys.exit(2)


class Failures:
    def __init__(self):
        self.count = 0

    def log(self, index: int, message: str) -> None:
        self.count += 1
        if self.count <= MAX_LOGGED_FAILURES:
            print(f"FAIL op {index}: {message}", file=sys.stderr)
        elif self.count == MAX_LOGGED_FAILURES + 1:
            print("FAIL ... further failures counted, not logged", file=sys.stderr)


class Block:
    """Latencies, points and machine reference times of the ops of one stretch."""

    def __init__(self):
        self.latencies: list[float] = []
        self.points: list[int] = []
        self.references: list[float] = []

    @property
    def busy(self) -> float:
        return sum(self.latencies)

    def scaled_latencies(self) -> list[float]:
        """Latencies at the machine speed where the reference kernel takes REFERENCE_S."""
        return [lat * REFERENCE_S / ref for lat, ref in zip(self.latencies, self.references)]

    def extend(self, other: "Block") -> None:
        self.latencies += other.latencies
        self.points += other.points
        self.references += other.references


_REFERENCE_MATRIX = np.random.default_rng(0).standard_normal((16, 16)) + 4.0 * np.eye(16) + 0j
_REFERENCE_STATE = np.eye(4, dtype=complex) / 4.0


def machine_reference() -> float:
    """Best of three timings of a fixed kernel of the small dense operations
    spinpair's ops are made of: 16x16 products and solves, 4x4 Hermiticity
    and eigenvalue checks, Kronecker products.  It uses no spinpair code, so
    a change to the program does not move it; the machine's speed does."""
    best = float("inf")
    for _ in range(3):
        start = time.perf_counter()
        m = _REFERENCE_MATRIX
        for _ in range(10):
            m = np.linalg.solve(_REFERENCE_MATRIX, m @ _REFERENCE_MATRIX + 2.0 * np.eye(16))
            rho = _REFERENCE_STATE + 0.0
            np.abs(rho - rho.conj().T).max()
            np.linalg.eigvalsh(0.5 * (rho + rho.conj().T)).min()
            np.kron(np.eye(2), np.eye(2))
        best = min(best, time.perf_counter() - start)
    return best


def run_ops(wl, call, first: int, seconds: float, failures: Failures) -> Block:
    """Closed loop: make, time, then check one op at a time until `seconds` pass.

    The reference kernel is timed before an op whenever REFERENCE_INTERVAL
    has passed since it last ran, and each op records the latest time.
    """
    block = Block()
    index = first
    deadline = time.perf_counter() + seconds
    referenced_at = -float("inf")
    while time.perf_counter() < deadline or not block.latencies:
        if time.perf_counter() - referenced_at >= REFERENCE_INTERVAL:
            reference = machine_reference()
            referenced_at = time.perf_counter()
        op = wl.make_op(index)
        start = time.perf_counter()
        try:
            result = call(op)
        except Exception as exc:  # an op that raises is a failed op, not a crash
            block.latencies.append(time.perf_counter() - start)
            failures.log(index, f"{type(exc).__name__}: {exc}")
        else:
            block.latencies.append(time.perf_counter() - start)
            fault = wl.check(op, result)
            if fault:
                failures.log(index, fault)
        block.points.append(wl.points(op))
        block.references.append(reference)
        index += 1
    return block


def warm_up(wl, failures: Failures) -> int:
    """Run the workload's warm-up ops untimed; returns how many ran."""
    ops = wl.warmup_ops()
    for op in ops:
        try:
            result = wl.run(op)
        except Exception as exc:
            failures.log(-1, f"warm-up: {type(exc).__name__}: {exc}")
            continue
        fault = wl.check(op, result)
        if fault:
            failures.log(-1, f"warm-up: {fault}")
    return len(ops)


def make_workload(name: str, seed: int, work: Path):
    import workloads

    cls = workloads.WORKLOADS[name]
    return cls(seed, ROOT, work) if name == "cli" else cls(seed)


def child_env() -> dict:
    return dict(os.environ, PYTHONPATH=str(SRC))


def child_value(argv: list[str]) -> float:
    """The number a child process prints on its last line."""
    proc = subprocess.run(argv, cwd=ROOT, env=child_env(), capture_output=True,
                          text=True, timeout=120, check=True)
    return float(proc.stdout.strip().splitlines()[-1])


def timed_import_s(module: str) -> float:
    """Median time of `import module` in a fresh interpreter."""
    code = f"import time; t = time.perf_counter(); import {module}; print(time.perf_counter() - t)"
    return statistics.median(child_value([sys.executable, "-c", code])
                             for _ in range(IMPORT_PROBES))


def percentile_ms(latencies: list[float], q: float) -> float:
    ordered = sorted(latencies)
    pos = q * (len(ordered) - 1)
    lo = int(pos)
    hi = min(lo + 1, len(ordered) - 1)
    return 1e3 * (ordered[lo] + (ordered[hi] - ordered[lo]) * (pos - lo))


def context(args) -> dict:
    import numpy
    import scipy

    cpu = "unknown"
    try:
        with open("/proc/cpuinfo", encoding="utf-8") as handle:
            for line in handle:
                if line.startswith("model name"):
                    cpu = line.split(":", 1)[1].strip()
                    break
    except OSError:
        pass
    src_lines = sum(len(p.read_text(encoding="utf-8").splitlines())
                    for p in sorted(SRC.rglob("*.py")))
    return {
        "workload": args.workload, "seed": args.seed, "seconds": args.seconds,
        "trace": args.trace, "python": platform.python_version(),
        "numpy": numpy.__version__, "scipy": scipy.__version__,
        "cpu_model": cpu, "nproc": os.cpu_count(),
        "affinity": len(os.sched_getaffinity(0)), "thread_pinning": THREAD_PINNING,
        "src_lines": src_lines,
    }


def end_to_end(args, wl, setup_s: float, failures: Failures):
    whole = run_ops(wl, wl.run, 0, args.seconds, failures)
    if args.workload == "cli":
        peak_kb = resource.getrusage(resource.RUSAGE_CHILDREN).ru_maxrss
    else:
        peak_kb = resource.getrusage(resource.RUSAGE_SELF).ru_maxrss
    probe = [sys.executable, str(Path(__file__).resolve()), "--workload", args.workload,
             "--seed", str(args.seed), "--setup-probe"]
    setups = [setup_s] + [child_value(probe) for _ in range(SETUP_PROBES)]
    scaled = whole.scaled_latencies()
    n = len(scaled)
    metrics = {
        "setup_s": (statistics.median(setups), "s"),
        "throughput_ops_s": (n / sum(scaled), "1/s"),
        "latency_p50_ms": (percentile_ms(scaled, 0.5), "ms"),
        "latency_p90_ms": (percentile_ms(scaled, 0.9), "ms"),
        "peak_rss_mb": (peak_kb / 1024.0, "MB"),
        "points_per_s": (sum(whole.points) / sum(scaled), "1/s"),
    }
    p90 = metrics["latency_p90_ms"][0]
    notes = {
        "samples": n,
        "samples_beyond_p90": sum(1 for x in scaled if 1e3 * x > p90),
        "setup_samples_s": setups,
        "reference_median_us": 1e6 * statistics.median(whole.references),
        "unscaled": {"throughput_ops_s": n / whole.busy,
                     "latency_p50_ms": percentile_ms(whole.latencies, 0.5),
                     "latency_p90_ms": percentile_ms(whole.latencies, 0.9),
                     "points_per_s": sum(whole.points) / whole.busy},
    }
    return n, metrics, notes


def per_layer(args, wl, failures: Failures):
    from tracer import Tracer

    tracer = Tracer()
    call = getattr(wl, "run_in_process", wl.run)
    plain, traced = Block(), Block()
    index = 0
    for b in range(TRACE_BLOCKS):
        is_traced = b % 2 == 1
        if is_traced:
            tracer.install()
        try:
            block = run_ops(wl, call, index, args.seconds / TRACE_BLOCKS, failures)
        finally:
            if is_traced:
                tracer.uninstall()
        index += len(block.latencies)
        (traced if is_traced else plain).extend(block)
    metrics = tracer.per_op(len(traced.latencies))
    per_point = {"le128": [], "gt512": []}
    if getattr(wl, "sweeps", False):
        for lat, pts in zip(plain.scaled_latencies(), plain.points):
            if pts <= 128:
                per_point["le128"].append(1e3 * lat / pts)
            elif pts > 512:
                per_point["gt512"].append(1e3 * lat / pts)
    for band, values in per_point.items():
        metrics[f"evolution.sweep_ms_per_point.{band}"] = (
            statistics.median(values) if values else 0.0, "ms/point")
    metrics["cli.numpy_import_s"] = (timed_import_s("numpy"), "s")
    metrics["cli.import_s"] = (timed_import_s("spinpair.cli"), "s")
    metrics["trace_overhead_ratio"] = (
        (len(traced.latencies) / sum(traced.scaled_latencies()))
        / (len(plain.latencies) / sum(plain.scaled_latencies())), "ratio")
    notes = {
        "traced_ops": len(traced.latencies), "untraced_ops": len(plain.latencies),
        "sweep_ms_per_point_samples": {k: len(v) for k, v in per_point.items()},
    }
    return len(plain.latencies) + len(traced.latencies), metrics, notes


def pin_to_current_cpu() -> None:
    """Keep this process, and the children it starts, on the CPU it runs on,
    so that the reference kernel and every op, also a `cli` command, run on
    the same CPU."""
    try:
        with open("/proc/self/stat", encoding="utf-8") as handle:
            cpu = int(handle.read().rsplit(")", 1)[1].split()[36])
        os.sched_setaffinity(0, {cpu})
    except (OSError, ValueError, IndexError):
        pass


def main(argv=None) -> int:
    args = parse_args(argv)
    import_program()
    pin_to_current_cpu()
    work = ROOT / ".perfbench_work" / f"{args.workload}-{os.getpid()}"
    work.mkdir(parents=True, exist_ok=True)
    try:
        failures = Failures()
        wl = make_workload(args.workload, args.seed, work)
        warmed = warm_up(wl, failures)
        setup_s = (time.perf_counter() - PROCESS_START) * REFERENCE_S / machine_reference()
        if args.setup_probe:
            print(setup_s)
            return 0
        if args.trace:
            attempted, metrics, notes = per_layer(args, wl, failures)
        else:
            attempted, metrics, notes = end_to_end(args, wl, setup_s, failures)
        attempted += warmed
        import workloads

        long_time = workloads.long_time_error_ratio()
        if args.trace:
            metrics["evolution.long_time_error_ratio"] = (long_time, "ratio")
        else:
            notes["long_time_error_ratio"] = long_time
        if args.workload == "cli":
            notes["output_sha256"] = wl.digests
        print("context " + json.dumps(context(args), sort_keys=True))
        print("notes " + json.dumps(notes, sort_keys=True))
        print(f"failed_ratio = {failures.count / attempted:.6g} ratio "
              f"({failures.count} of {attempted} ops)")
        for name, (value, unit) in metrics.items():
            print(f"{name} = {value:.6g} {unit}")
        result = {
            "correct": failures.count == 0,
            "attempted": attempted,
            "failed": failures.count,
            "metrics": {name: {"value": value, "unit": unit}
                        for name, (value, unit) in metrics.items()},
        }
        print(json.dumps(result))
        return 0
    finally:
        shutil.rmtree(work, ignore_errors=True)
        try:
            work.parent.rmdir()
        except OSError:
            pass


if __name__ == "__main__":
    sys.exit(main())
