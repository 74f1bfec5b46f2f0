"""Self-test of the benchmark harness.

    python3 perfbench/selftest.py

Checks that a deliberately corrupted result counts as a failure for every
workload's oracle, that an op which raises is counted and logged, that the
tracer restores what it wraps, that a tiny run of each workload in each
mode emits exactly the metrics BENCHMARK.json names, and that the benchmark
exits non-zero without a result where the program's sources are missing.
Exits 1 if any check fails.
"""

from __future__ import annotations

import contextlib
import io
import json
import shutil
import subprocess
import sys
from pathlib import Path

import run

run.import_program()

import numpy as np  # noqa: E402

import spinpair.evolution  # noqa: E402
import workloads  # noqa: E402
from tracer import Tracer  # noqa: E402

ROOT = run.ROOT
WORK = ROOT / ".perfbench_work" / "selftest"
RESULTS: list[tuple[str, bool]] = []


def expect(name: str, ok: bool) -> None:
    RESULTS.append((name, ok))
    print(f"{'PASS' if ok else 'FAIL'} {name}")


def first_op(wl, predicate):
    i = 0
    while not predicate(wl.make_op(i)):
        i += 1
    return wl.make_op(i)


def corrupted_results() -> None:
    sweep = workloads.Sweep(7)
    for kind in ("ZQ", "SQ1"):
        op = first_op(sweep, lambda o, kind=kind: o.kind == kind and o.times.size < 200)
        out = sweep.run(op)
        expect(f"sweep {kind}: correct result passes", sweep.check(op, out) is None)
        k = int(op.sample[0])
        bad = out.copy()
        bad[k, 0, 2] += 1e-8
        bad[k, 2, 0] += 1e-8
        expect(f"sweep {kind}: wrong element fails", sweep.check(op, bad) is not None)
        bad = out.copy()
        bad[k, 0, 0] += 1e-8
        expect(f"sweep {kind}: wrong trace fails", sweep.check(op, bad) is not None)

    fit = workloads.Fit(7)
    for sigma in fit.SIGMAS:
        op = first_op(fit, lambda o, sigma=sigma: o.sigma == sigma)
        diff, report = fit.run(op)
        expect(f"fit sigma {sigma}: correct result passes", fit.check(op, (diff, report)) is None)
        shift = 1e-4 * abs(op.params.gamma3) if sigma == 0.0 else 20.0 * diff.stderr
        wrong = type(diff)(diff.rate + shift, diff.stderr, diff.residual_norm)
        expect(f"fit sigma {sigma}: wrong gamma3 fails", fit.check(op, (wrong, report)) is not None)

    tomo = workloads.Tomo(7)
    op = tomo.make_op(5)
    rho, reconstructed, fid = tomo.run(op)
    expect("tomo: correct result passes", tomo.check(op, (rho, reconstructed, fid)) is None)
    bad = reconstructed.copy()
    bad[0, 1] += 1e-6
    bad[1, 0] += 1e-6
    expect("tomo: wrong reconstruction fails", tomo.check(op, (rho, bad, fid)) is not None)
    expect("tomo: low fidelity fails", tomo.check(op, (rho, reconstructed, 1.0 - 1e-6)) is not None)


def corrupted_cli_outputs() -> None:
    cli = workloads.Cli(7, ROOT, WORK / "cli")
    op = first_op(cli, lambda o: o.step == "decay:ZQ")
    result = cli.run(op)
    expect("cli: correct decay passes", cli.check(op, result) is None)
    path = op.out / "decay_ZQ.csv"
    text = path.read_text(encoding="utf-8")
    row = text.splitlines()[5]
    last_digit = "1" if row[-1] != "1" else "2"
    path.write_text(text.replace(row, row[:-1] + last_digit, 1), encoding="utf-8")
    expect("cli: changed last output byte changes the digest",
           cli.check(op, workloads.CliResult(0, "", cli._digests(op))) is not None)
    t, signal = row.split(",")
    path.write_text(text.replace(row, f"{t},{float(signal) * 1.001:.12g}", 1), encoding="utf-8")
    expect("cli: changed signal fails the oracle", cli._check_outputs(op) is not None)
    expect("cli: non-zero exit fails", cli.check(op, workloads.CliResult(2, "config error")) is not None)


class Raising:
    """A workload whose every op raises."""

    def make_op(self, i):
        return i

    def run(self, op):
        raise ValueError("deliberate")

    def check(self, op, result):
        return None

    def points(self, op):
        return 1


def harness_counts_raising_ops() -> None:
    failures = run.Failures()
    with contextlib.redirect_stderr(io.StringIO()):
        block = run.run_ops(Raising(), Raising().run, 0, 0.01, failures)
    expect("harness: every raising op is a failure",
           failures.count == len(block.latencies) > 0)


def tracer_restores() -> None:
    original = spinpair.evolution.propagate
    tracer = Tracer()
    tracer.install()
    try:
        wrapped = spinpair.evolution.propagate is not original
        try:
            spinpair.evolution.propagate(np.eye(4), None, 0.0)
        except Exception:
            pass
    finally:
        tracer.uninstall()
    expect("tracer: wraps and restores", wrapped and spinpair.evolution.propagate is original)
    expect("tracer: counts a raising call as an error",
           tracer.totals["evolution.propagate"][2] == 1)


def tiny_runs() -> None:
    spec = json.loads((ROOT / "BENCHMARK.json").read_text(encoding="utf-8"))
    for trace, group in ((0, "end_to_end"), (1, "per_layer")):
        wanted = {m["name"]: m["unit"] for m in spec[group]}
        for workload in (w["name"] for w in spec["workloads"]):
            proc = subprocess.run(
                [sys.executable, str(ROOT / "perfbench" / "run.py"), "--workload", workload,
                 "--seed", "3", "--seconds", "1", "--trace", str(trace)],
                cwd=ROOT, capture_output=True, text=True, timeout=180)
            try:
                result = json.loads(proc.stdout.strip().splitlines()[-1])
            except (IndexError, json.JSONDecodeError):
                result = {}
            got = {k: v["unit"] for k, v in result.get("metrics", {}).items()}
            expect(f"tiny {workload} trace {trace}: exits 0, correct, every {group} metric",
                   proc.returncode == 0 and result.get("correct") is True and got == wanted
                   and set(result) == {"correct", "attempted", "failed", "metrics"})


def refuses_without_sources() -> None:
    bare = WORK / "bare"
    shutil.copytree(ROOT / "perfbench", bare / "perfbench",
                    ignore=shutil.ignore_patterns("__pycache__"))
    shutil.copy(ROOT / "BENCHMARK.json", bare / "BENCHMARK.json")
    proc = subprocess.run([sys.executable, "perfbench/run.py", "--workload", "sweep",
                           "--seed", "1", "--seconds", "1", "--trace", "0"],
                          cwd=bare, capture_output=True, text=True, timeout=180)
    expect("no sources: non-zero exit and no result",
           proc.returncode != 0 and not proc.stdout.strip())


def main() -> int:
    WORK.mkdir(parents=True, exist_ok=True)
    try:
        corrupted_results()
        corrupted_cli_outputs()
        harness_counts_raising_ops()
        tracer_restores()
        refuses_without_sources()
        tiny_runs()
    finally:
        shutil.rmtree(WORK, ignore_errors=True)
    failed = [name for name, ok in RESULTS if not ok]
    print(f"{len(RESULTS) - len(failed)} of {len(RESULTS)} checks passed")
    return 1 if failed else 0


if __name__ == "__main__":
    sys.exit(main())
