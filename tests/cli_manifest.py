"""Fingerprint the CLI's outputs: run a fixed matrix of 72 commands, each as
`python -m spinpair.cli` in one temporary directory, and print one SHA-256
line for each output file, stdout, stderr and exit code.

    PYTHONPATH=src python tests/cli_manifest.py > manifest.txt

Two manifests made from two checkouts, or from one checkout under two
PYTHONHASHSEED values, must be identical wherever the outputs are meant to
be: `diff` them.  Paths are relative to the temporary directory, so its
name reaches no output.  The script is not collected as a test.
"""

from __future__ import annotations

import hashlib
import json
import os
import subprocess
import sys
import tempfile
from dataclasses import asdict
from pathlib import Path

import spinpair
from spinpair.presets import PRESETS as TABLE

PRESETS = ("btc", "cytosine", "coumarin")
KINDS = ("T1_inversion_recovery_spin1", "T1_inversion_recovery_spin2", "SQ1", "SQ2", "ZQ", "DQ")
TARGETS = ("ZQ", "DQ", "SQ1", "SQ2")


def write_configs(root: Path) -> None:
    """Per preset, one config that states the system and the noise as objects,
    with a {start, stop, points} grid and multiplicative noise, and one with
    a list grid; then the faulty inputs of the failing commands."""
    for name in PRESETS:
        preset = TABLE[name]
        objects = {
            "system": asdict(preset.system),
            "noise": asdict(preset.noise),
            "epsilon": 0.8,
            "time_grid": {"start": 1e-3, "stop": 12.0, "points": 48},
            "seed": 7,
            "noise_sigma": 0.01,
        }
        (root / f"{name}.json").write_text(json.dumps(objects), encoding="utf-8")
        listed = {"time_grid": [0.0, 0.01, 0.1, 0.5, 1.0, 2.5, 5.0]}
        (root / f"{name}_list.json").write_text(json.dumps(listed), encoding="utf-8")
    (root / "directory.json").mkdir()
    (root / "latin1.json").write_bytes(b'{"epsilon": 0.5\xff}')
    (root / "negative.csv").write_text("t,signal\n0,-1\n1,-0.5\n2,-0.25\n3,-0.125\n",
                                       encoding="utf-8")
    (root / "growing.csv").write_text("t,signal\n0,1\n1,2\n2,4\n3,8\n4,16\n", encoding="utf-8")
    (root / "short.csv").write_text("t,signal\n0,1\n1,0.5\n2,0.25\n", encoding="utf-8")
    (root / "recovered.csv").write_text("t,signal\n0,-1.0\n2,1.01\n4,0.99\n6,1.0\n8,1.005\n",
                                        encoding="utf-8")
    (root / "weighted.csv").write_text("t,signal,sigma\n0,1,0.01\n1,0.65,0.01\n2,0.42,0.01\n"
                                       "3,0.28,0.01\n4,0.18,0.01\n", encoding="utf-8")
    (root / "out" / "fault_out_collision" / "report.json").mkdir(parents=True)


def commands() -> list[tuple[str, list[str]]]:
    """(id, argv) of the 72 commands, in the order they run.  Each writes to
    out/<id>; fit reads the curves that decay wrote.  The last nine fail."""
    matrix = []
    for p in PRESETS:
        for kind in KINDS:
            matrix.append((f"{p}/decay_{kind}", ["decay", "--config", f"{p}.json", "--kind", kind]))
        matrix.append((f"{p}/decay_ZQ_json", ["decay", "--preset", p, "--config", f"{p}_list.json",
                                              "--kind", "ZQ", "--format", "json"]))
        zq_dq = [f"--curve={k}=out/{p}/decay_{k}/decay_{k}.csv" for k in ("ZQ", "DQ")]
        every = [f"--curve={k}=out/{p}/decay_{k}/decay_{k}.csv" for k in KINDS]
        matrix += [
            (f"{p}/fit_difference", ["fit", "--config", f"{p}.json", *zq_dq]),
            (f"{p}/fit_difference_bare", ["fit", *zq_dq]),
            (f"{p}/fit_joint", ["fit", "--preset", p, "--mode", "joint", *every]),
        ]
        for target in TARGETS:
            matrix.append((f"{p}/prepare_{target}",
                           ["prepare", "--config", f"{p}.json", "--target", target]))
        for target in TARGETS:
            matrix.append((f"{p}/tomo_{target}",
                           ["tomo", "--preset", p, "--target", target, "--time", "1"]))
        matrix.append((f"{p}/report", ["report", "--preset", p]))
        matrix.append((f"{p}/report_csv", ["report", "--preset", p, "--format", "csv"]))
    matrix += [
        ("report_all", ["report"]),
        ("report_all_csv", ["report", "--format", "csv"]),
    ]
    faults = [
        ("fault_config_directory", ["prepare", "--preset", "btc", "--target", "DQ",
                                    "--config", "directory.json"]),
        ("fault_config_not_utf8", ["prepare", "--preset", "btc", "--target", "DQ",
                                   "--config", "latin1.json"]),
        ("fault_out_collision", ["report", "--preset", "btc"]),
        ("fault_fit_nothing_to_plot", ["fit", "--curve=ZQ=negative.csv",
                                       "--curve=DQ=negative.csv"]),
        ("fault_fit_growing", ["fit", "--curve=ZQ=growing.csv", "--curve=DQ=growing.csv"]),
        ("fault_fit_joint_growing", ["fit", "--mode", "joint", "--preset", "btc",
                                     "--curve=ZQ=out/btc/decay_ZQ/decay_ZQ.csv",
                                     "--curve=DQ=growing.csv"]),
        ("fault_fit_too_few_samples", ["fit", "--curve=ZQ=short.csv",
                                       "--curve=DQ=out/btc/decay_DQ/decay_DQ.csv"]),
        ("fault_fit_unresolved_rate", ["fit", "--curve=ZQ=out/btc/decay_ZQ/decay_ZQ.csv",
                                       "--curve=DQ=out/btc/decay_DQ/decay_DQ.csv",
                                       "--curve=T1_inversion_recovery_spin1=recovered.csv"]),
        ("fault_fit_joint_mixed_weights", ["fit", "--mode", "joint", "--preset", "btc",
                                           "--curve=ZQ=weighted.csv",
                                           "--curve=DQ=out/btc/decay_DQ/decay_DQ.csv"]),
    ]
    return [(ident, [*argv, "--out", f"out/{ident}"]) for ident, argv in matrix] + [
        ("report_stdout", ["report", "--preset", "all"]),
    ] + [(ident, [*argv, "--out", f"out/{ident}"]) for ident, argv in faults]


def digest(data: bytes) -> str:
    return hashlib.sha256(data).hexdigest()


def main() -> int:
    # The commands run the spinpair this script imports, wherever it lies.
    env = dict(os.environ, PYTHONPATH=str(Path(spinpair.__file__).resolve().parents[1]))
    with tempfile.TemporaryDirectory() as tmp:
        root = Path(tmp)
        write_configs(root)
        for ident, argv in commands():
            run = subprocess.run([sys.executable, "-m", "spinpair.cli", *argv], cwd=root, env=env,
                                 capture_output=True, check=False)
            print(f"{digest(str(run.returncode).encode())}  {ident} exit {run.returncode}")
            print(f"{digest(run.stdout)}  {ident} stdout")
            print(f"{digest(run.stderr)}  {ident} stderr")
            out = root / "out" / ident
            for path in sorted(path for path in out.rglob("*") if path.is_file()):
                print(f"{digest(path.read_bytes())}  {ident} {path.relative_to(out)}")
    return 0


if __name__ == "__main__":
    sys.exit(main())
