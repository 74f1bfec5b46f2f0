import json
import math
import os
import subprocess
import sys
import warnings
from dataclasses import asdict
from pathlib import Path

import numpy as np
import pytest

import spinpair
from conftest import random_cp_params
from oracles import suggested_times
from spinpair.channels import NoiseParams
from spinpair.cli import MAX_TIME_POINTS, _report_entry, main
from spinpair.estimation import (
    DecayCurve,
    KIND_DQ,
    KIND_SQ1,
    KIND_SQ2,
    KIND_T1_SPIN1,
    KIND_T1_SPIN2,
    KIND_ZQ,
    fit_exponential,
    load_curve,
    rate_for_kind,
    synthetic_curve,
    save_curve,
)
from spinpair.presets import PRESETS, MeasuredRates, Preset

ALL_KINDS = (KIND_T1_SPIN1, KIND_T1_SPIN2, KIND_SQ1, KIND_SQ2, KIND_ZQ, KIND_DQ)


def write_config(tmp_path, **fields):
    path = tmp_path / "config.json"
    path.write_text(json.dumps(fields), encoding="utf-8")
    return str(path)


def measured_rate_curves(tmp_path, zq_rate=0.430, dq_rate=12.182):
    """CSV pair decaying at the two measured multiple-quantum rates."""
    paths = {}
    for kind, rate in ((KIND_ZQ, zq_rate), (KIND_DQ, dq_rate)):
        t = np.linspace(0.0, 3.0 / rate, 24)
        curve = synthetic_curve(kind, NoiseParams(rate / 2, rate / 2, 0, 0, 0), t)
        path = tmp_path / f"{kind.lower()}.csv"
        save_curve(curve, path)
        paths[kind] = str(path)
    return paths


# ----------------------------------------------------------------------
# prepare
# ----------------------------------------------------------------------


@pytest.mark.parametrize("target", ["ZQ", "DQ", "SQ1"])
def test_prepare_reports_high_fidelity(tmp_path, capsys, target):
    code = main(["prepare", "--preset", "btc", "--target", target, "--out", str(tmp_path)])
    assert code == 0
    out = capsys.readouterr().out
    fid = float(out.split("fidelity vs target = ")[1].split()[0])
    assert fid >= 0.999
    payload = json.loads((tmp_path / f"state_{target}.json").read_text(encoding="utf-8"))
    assert payload["fidelity"] >= 0.999
    assert len(payload["state"]) == 4
    assert len(payload["state"][0][0]) == 2  # [re, im] pairs


@pytest.mark.filterwarnings("error")
def test_prepare_with_zero_polarization(tmp_path, capsys):
    # prepare and tomo share one read-out step, so both warn, in the CLI's
    # words only: the library's epsilon = 0 warning is not raised.
    config = write_config(tmp_path, epsilon=0.0)
    for command in ("prepare", "tomo"):
        code = main([command, "--preset", "btc", "--target", "DQ", "--config", config])
        assert code == 0
        captured = capsys.readouterr()
        assert "fidelity vs target = 1.000000" in captured.out
        assert captured.err == ("warning: epsilon = 0, the deviation part is empty; "
                                "comparing against the maximally mixed state\n")


@pytest.mark.filterwarnings("error")
def test_read_out_passes_other_warnings_through(monkeypatch):
    # Only the epsilon = 0 warning is re-worded; any other warning from the
    # preparation reaches the caller.
    def warning_prepare_target(*args):
        warnings.warn("overflow encountered in multiply", RuntimeWarning)

    monkeypatch.setattr("spinpair.cli.prepare_target", warning_prepare_target)
    with pytest.raises(RuntimeWarning, match="overflow"):
        main(["prepare", "--preset", "btc", "--target", "DQ"])


# ----------------------------------------------------------------------
# decay
# ----------------------------------------------------------------------


def test_decay_zq_matches_pure_dephasing(tmp_path):
    config = write_config(
        tmp_path,
        noise={"gamma1": 1.0, "gamma2": 1.0, "gamma3": 0.0, "Gamma1": 0.0, "Gamma2": 0.0},
        time_grid={"start": 1e-3, "stop": 2.0, "points": 32},
    )
    code = main(["decay", "--kind", "ZQ", "--config", config, "--out", str(tmp_path)])
    assert code == 0
    curve = load_curve(tmp_path / "decay_ZQ.csv", KIND_ZQ)
    assert np.abs(curve.signals - np.exp(-2.0 * curve.times)).max() < 1e-9
    assert curve.times[0] == 0.0
    assert curve.signals[0] == 1.0


def test_decay_dq_half_life_matches_measured_rate(tmp_path):
    code = main(["decay", "--kind", "DQ", "--preset", "btc", "--out", str(tmp_path)])
    assert code == 0
    curve = load_curve(tmp_path / "decay_DQ.csv", KIND_DQ)
    estimate = fit_exponential(curve)
    assert estimate.rate == pytest.approx(12.182, rel=1e-6)
    assert np.log(2.0) / estimate.rate == pytest.approx(0.0569, abs=1e-4)


def test_decay_t1_kind_uses_recovery_model(tmp_path):
    code = main(["decay", "--kind", KIND_T1_SPIN1, "--preset", "btc", "--out", str(tmp_path)])
    assert code == 0
    curve = load_curve(tmp_path / f"decay_{KIND_T1_SPIN1}.csv", KIND_T1_SPIN1)
    assert curve.signals[0] == pytest.approx(-1.0)
    estimate = fit_exponential(curve)
    assert estimate.rate == pytest.approx(0.264, rel=1e-6)


def test_decay_deterministic_and_reingestible(tmp_path):
    out_a = tmp_path / "a"
    out_b = tmp_path / "b"
    config = write_config(tmp_path, noise_sigma=0.01, seed=7)
    for out in (out_a, out_b):
        assert main(["decay", "--kind", "DQ", "--preset", "btc", "--config", config,
                     "--out", str(out)]) == 0
    bytes_a = (out_a / "decay_DQ.csv").read_bytes()
    bytes_b = (out_b / "decay_DQ.csv").read_bytes()
    assert bytes_a == bytes_b
    load_curve(out_a / "decay_DQ.csv", KIND_DQ)  # format self-consistency


def test_decay_json_format(tmp_path):
    code = main(["decay", "--kind", "SQ1", "--preset", "btc", "--format", "json",
                 "--out", str(tmp_path)])
    assert code == 0
    payload = json.loads((tmp_path / "decay_SQ1.json").read_text(encoding="utf-8"))
    assert payload["kind"] == "SQ1"
    assert payload["signal"][0] == 1.0


def out_required(command):
    """The last stderr line argparse prints when `command` is run without --out."""
    return f"spinpair {command}: error: the following arguments are required: --out\n"


def test_decay_without_out_is_config_error(tmp_path, capsys, monkeypatch):
    monkeypatch.chdir(tmp_path)
    with pytest.raises(SystemExit) as exit_info:
        main(["decay", "--kind", "ZQ", "--preset", "btc"])
    assert exit_info.value.code == 2
    out, err = capsys.readouterr()
    assert (out, err.splitlines(keepends=True)[-1]) == ("", out_required("decay"))
    assert list(tmp_path.iterdir()) == []


def test_decay_without_out_fails_before_propagating(tmp_path, capsys, monkeypatch):
    import spinpair.cli as cli_module

    def explode(*args):
        raise AssertionError("propagate called before --out was checked")

    monkeypatch.setattr(cli_module, "propagate", explode)
    monkeypatch.chdir(tmp_path)
    with pytest.raises(SystemExit) as exit_info:
        main(["decay", "--kind", "ZQ", "--preset", "btc"])
    assert exit_info.value.code == 2
    assert capsys.readouterr().err.endswith(out_required("decay"))
    assert list(tmp_path.iterdir()) == []


# ----------------------------------------------------------------------
# tomo
# ----------------------------------------------------------------------


def test_tomo_emits_matrix_and_fidelity(tmp_path):
    code = main(["tomo", "--preset", "btc", "--target", "ZQ", "--out", str(tmp_path)])
    assert code == 0
    payload = json.loads((tmp_path / "tomo_ZQ.json").read_text(encoding="utf-8"))
    assert payload["fidelity_vs_target"] >= 0.999
    matrix = payload["matrix"]
    assert matrix[1][2][0] == pytest.approx(0.5, abs=1e-9)
    assert set(payload["records"]) == {"II", "IX", "IY", "XX"}


def test_tomo_after_evolution(tmp_path):
    code = main(["tomo", "--preset", "btc", "--target", "DQ", "--time", "0.1",
                 "--out", str(tmp_path)])
    assert code == 0
    payload = json.loads((tmp_path / "tomo_DQ.json").read_text(encoding="utf-8"))
    # DQ element decayed by exp(-R t) with the preset's DQ rate of 12.182/s
    expected = 0.5 * np.exp(-12.182 * 0.1)
    assert payload["matrix"][0][3][0] == pytest.approx(expected, abs=1e-6)
    assert payload["fidelity_vs_target"] < 0.999


@pytest.mark.parametrize("time", ["1e7", "1e300"])
def test_tomo_after_long_evolution(tmp_path, time):
    code = main(["tomo", "--preset", "btc", "--target", "DQ", "--time", time,
                 "--out", str(tmp_path)])
    assert code == 0
    payload = json.loads((tmp_path / "tomo_DQ.json").read_text(encoding="utf-8"))
    # fully relaxed to the maximally mixed state
    assert np.allclose([[v[0] for v in row] for row in payload["matrix"]], np.eye(4) / 4, atol=1e-9)


@pytest.mark.parametrize("time", ["nan", "inf", "-inf"])
def test_tomo_non_finite_time_is_config_error(capsys, time):
    assert main(["tomo", "--preset", "btc", "--target", "DQ", f"--time={time}"]) == 2
    assert "--time" in capsys.readouterr().err


# ----------------------------------------------------------------------
# fit
# ----------------------------------------------------------------------


def test_fit_difference_mode_reproduces_gamma3(tmp_path, capsys):
    paths = measured_rate_curves(tmp_path)
    config = write_config(
        tmp_path,
        noise={"gamma1": 3.741, "gamma2": 3.048, "gamma3": 5.876,
               "Gamma1": 0.264, "Gamma2": 0.255},
    )
    code = main([
        "fit", "--mode", "difference", "--config", config,
        "--curve", f"ZQ={paths[KIND_ZQ]}", "--curve", f"DQ={paths[KIND_DQ]}",
        "--out", str(tmp_path),
    ])
    assert code == 0
    payload = json.loads((tmp_path / "fit_report.json").read_text(encoding="utf-8"))
    assert payload["gamma3"] == pytest.approx(5.876, abs=1e-6)
    assert payload["zq_rate_mismatch"] == pytest.approx(0.7425, abs=1e-4)
    assert payload["dq_rate_mismatch"] == pytest.approx(0.7425, abs=1e-4)
    svg = (tmp_path / "fit_plot.svg").read_text(encoding="utf-8")
    assert svg.startswith("<svg")
    assert "<polyline" in svg and "<circle" in svg


@pytest.mark.parametrize("mode", ["difference", "joint"])
def test_fit_reads_back_decay_curves_that_underflow(tmp_path, mode):
    # e^(-152 t) underflows on the default grid, so the DQ CSV ends in exact
    # zeros; fit takes the simulator's own output back.
    noise = {"gamma1": 50.0, "gamma2": 40.0, "gamma3": 60.0, "Gamma1": 2.0, "Gamma2": 2.0}
    config = write_config(tmp_path, noise=noise)
    for kind in (KIND_ZQ, KIND_DQ):
        assert main(["decay", "--kind", kind, "--config", config, "--out", str(tmp_path)]) == 0
    assert load_curve(tmp_path / "decay_DQ.csv", KIND_DQ).signals[-1] == 0.0
    code = main(["fit", "--mode", mode, "--config", config, "--curve", f"ZQ={tmp_path / 'decay_ZQ.csv'}",
                 "--curve", f"DQ={tmp_path / 'decay_DQ.csv'}", "--out", str(tmp_path / "out")])
    assert code == 0
    payload = json.loads((tmp_path / "out" / "fit_report.json").read_text(encoding="utf-8"))
    assert payload["gamma3"] == pytest.approx(60.0, rel=1e-6)


def test_fit_outputs_byte_identical_across_runs(tmp_path):
    paths = measured_rate_curves(tmp_path)
    out_a, out_b = tmp_path / "a", tmp_path / "b"
    for out in (out_a, out_b):
        assert main(["fit", "--preset", "btc", "--mode", "difference",
                     "--curve", f"ZQ={paths[KIND_ZQ]}", "--curve", f"DQ={paths[KIND_DQ]}",
                     "--out", str(out)]) == 0
    assert (out_a / "fit_report.json").read_bytes() == (out_b / "fit_report.json").read_bytes()
    assert (out_a / "fit_plot.svg").read_bytes() == (out_b / "fit_plot.svg").read_bytes()
    svg = (out_a / "fit_plot.svg").read_text(encoding="utf-8")
    assert "timestamp" not in svg.lower()


def test_fit_joint_mode_full_curve_set(tmp_path):
    params = NoiseParams(3.741, 3.048, 5.876, 0.264, 0.255)
    curve_args = []
    for kind in ALL_KINDS:
        curve = synthetic_curve(kind, params, suggested_times(kind, params))
        path = tmp_path / f"{kind}.csv"
        save_curve(curve, path)
        curve_args += ["--curve", f"{kind}={path}"]
    code = main(["fit", "--mode", "joint", *curve_args, "--out", str(tmp_path)])
    assert code == 0
    payload = json.loads((tmp_path / "fit_report.json").read_text(encoding="utf-8"))
    assert payload["converged"] is True
    assert payload["gamma3"] == pytest.approx(5.876, rel=1e-6)
    residuals = [v for k, v in payload.items() if k.startswith("residual_norm_")]
    assert max(residuals) <= 1e-8


def test_fit_missing_dq_curve_is_data_error(tmp_path, capsys):
    paths = measured_rate_curves(tmp_path)
    code = main(["fit", "--curve", f"ZQ={paths[KIND_ZQ]}", "--out", str(tmp_path)])
    assert code == 3
    assert "DQ" in capsys.readouterr().err


def test_fit_rejects_unknown_kind(tmp_path, capsys):
    code = main(["fit", "--curve", "QQ=whatever.csv", "--out", str(tmp_path)])
    assert code == 2


def _fit_steep_zq(tmp_path, rows):
    """Run `fit` on a ZQ CSV of the given rows and a well-behaved DQ curve."""
    paths = measured_rate_curves(tmp_path)
    zq = tmp_path / "steep.csv"
    zq.write_text("t,signal\n" + rows, encoding="utf-8")
    return main(["fit", "--curve", f"ZQ={zq}", "--curve", f"DQ={paths[KIND_DQ]}",
                 "--out", str(tmp_path / "out")])


OVERFLOW_LINE = ("fit error: {zq}: ZQ: the amplitude extrapolated to t = 0 overflows; "
                 "cannot start the fit\n")


@pytest.mark.filterwarnings("error")
def test_fit_overflowing_start_is_fit_error(tmp_path, capsys):
    # The first two samples give a steep decay, which extrapolated from t = 1 s
    # back to t = 0 overflows the starting amplitude.  No numpy warning may
    # fire on the way: stderr holds the documented line alone.
    assert _fit_steep_zq(tmp_path, "1.0,1e300\n4.2,5e-324\n400,1\n1e300,0.5\n") == 4
    assert capsys.readouterr().err == OVERFLOW_LINE.format(zq=tmp_path / "steep.csv")


@pytest.mark.filterwarnings("error")
def test_fit_overflowing_start_product_is_fit_error(tmp_path, capsys):
    # A gentle decay from a huge first sample: exp(R t0) is finite, but its
    # product with the first sample is not.
    assert _fit_steep_zq(tmp_path, "0.1,1e308\n1,1e300\n2,1e299\n3,1e298\n") == 4
    assert capsys.readouterr().err == OVERFLOW_LINE.format(zq=tmp_path / "steep.csv")


@pytest.mark.filterwarnings("error")
def test_fit_start_rate_overflow_is_quiet(tmp_path, capsys):
    # log(s0 / s1) / (t1 - t0) overflows for a 5e-324 s first step; the seed
    # rate is clipped to its bound without a numpy warning.
    code = _fit_steep_zq(tmp_path, "0,1\n5e-324,1e-300\n1,0.5\n2,0.25\n")
    assert (code, capsys.readouterr().err) == (0, "")


@pytest.mark.filterwarnings("error")
@pytest.mark.filterwarnings("error")
def test_fit_takes_signals_near_the_float_limit(tmp_path, capsys):
    # Signals near 1e300, whose squared residuals would overflow the cost, are
    # fitted scaled by a power of two: ZQ decays at 5 ln 10 per unit of t, and
    # DQ at 12.182, with no numpy warning.
    assert _fit_steep_zq(tmp_path, "1,1e300\n2,1e295\n3,1e290\n4,1e285\n") == 0
    assert capsys.readouterr().out.startswith("gamma3 = 0.334537 +/- ")
    report = json.loads((tmp_path / "out" / "fit_report.json").read_text(encoding="utf-8"))
    assert report["ZQ_rate"] == pytest.approx(5.0 * math.log(10.0), rel=1e-12)
    assert report["ZQ_amplitude"] == pytest.approx(1e305, rel=1e-12)


@pytest.mark.filterwarnings("error")
def test_long_grid_overflow_is_quiet(tmp_path, capsys):
    # -R t overflows to -inf at t = 1e308, and exp(-inf) = 0 is the decayed
    # value: decay and both fit modes (the fit plot) write it without a
    # numpy warning.
    noise = {"gamma1": 1.0, "gamma2": 1.0, "gamma3": 0.5, "Gamma1": 10.0, "Gamma2": 0.2}
    config = write_config(tmp_path, noise=noise, time_grid=[0.0, 1.0, 1e308])
    assert main(["decay", "--kind", KIND_T1_SPIN1, "--config", config, "--out", str(tmp_path)]) == 0
    assert load_curve(tmp_path / f"decay_{KIND_T1_SPIN1}.csv", KIND_T1_SPIN1).signals[-1] == 1.0
    t = np.linspace(0.0, 2.0, 23)
    curves = []
    for kind, rate in ((KIND_ZQ, 0.430), (KIND_DQ, 12.182)):
        save_curve(DecayCurve(kind, np.append(t, 1e308), np.append(np.exp(-rate * t), 0.0)),
                   tmp_path / f"{kind}.csv")
        curves += ["--curve", f"{kind}={tmp_path / f'{kind}.csv'}"]
    for mode in ("difference", "joint"):
        out = tmp_path / mode
        assert main(["fit", "--mode", mode, "--preset", "btc", *curves, "--out", str(out)]) == 0
        payload = json.loads((out / "fit_report.json").read_text(encoding="utf-8"))
        assert payload["gamma3"] == pytest.approx(5.876, rel=1e-9)
    assert capsys.readouterr().err == ""


def test_fit_fits_each_curve_once(tmp_path, monkeypatch):
    # Both modes fit every curve once, before the growing-curve rule; the
    # joint fit starts from those estimates and does not fit the curves again.
    import spinpair.cli as cli_module
    import spinpair.estimation as estimation

    fitted = []

    def counting(curve):
        fitted.append(curve.kind)
        return fit_exponential(curve)

    monkeypatch.setattr(cli_module, "fit_exponential", counting)
    monkeypatch.setattr(estimation, "fit_exponential", counting)
    paths = measured_rate_curves(tmp_path)
    for mode in ("difference", "joint"):
        fitted.clear()
        assert main(["fit", "--mode", mode, "--preset", "btc", "--curve", f"ZQ={paths[KIND_ZQ]}",
                     "--curve", f"DQ={paths[KIND_DQ]}", "--out", str(tmp_path / mode)]) == 0
        assert fitted == [KIND_ZQ, KIND_DQ]


def test_fit_without_out_fails_before_fitting(tmp_path, capsys, monkeypatch):
    # This ZQ curve cannot converge, but the missing --out is found first.
    import spinpair.cli as cli_module

    def explode(*args, **kwargs):
        raise AssertionError("a curve was read or fitted before --out was checked")

    for name in ("load_curve", "fit_exponential", "fit_noise_model"):
        monkeypatch.setattr(cli_module, name, explode)
    paths = measured_rate_curves(tmp_path)
    zq = tmp_path / "steep.csv"
    zq.write_text("t,signal\n1,1e300\n2,1e295\n3,1e290\n4,1e285\n", encoding="utf-8")
    monkeypatch.chdir(tmp_path)
    before = sorted(tmp_path.rglob("*"))
    for mode in ("difference", "joint"):
        with pytest.raises(SystemExit) as exit_info:
            main(["fit", "--mode", mode, "--curve", f"ZQ={zq}", "--curve", f"DQ={paths[KIND_DQ]}"])
        assert exit_info.value.code == 2
        out, err = capsys.readouterr()
        assert (out, err.splitlines(keepends=True)[-1]) == ("", out_required("fit"))
    assert sorted(tmp_path.rglob("*")) == before


@pytest.mark.filterwarnings("error")
@pytest.mark.parametrize(
    "rows, message",
    [
        ("-1e308,1\n1e308,0.5\n", "{zq}: ZQ: need at least 4 samples to fit, got 2"),
        ("1e308,1\n-1e308,0.5\n", "{zq}:3: times must be strictly increasing"),
    ],
    ids=["increasing", "decreasing"],
)
def test_fit_extreme_times_are_data_error(tmp_path, capsys, rows, message):
    # Neighbouring times are compared, not subtracted, so 1e308 - -1e308
    # never overflows.
    assert _fit_steep_zq(tmp_path, rows) == 3
    zq = tmp_path / "steep.csv"
    assert capsys.readouterr().err == f"data error: {message.format(zq=zq)}\n"


def test_fit_non_convergence_exit_code(tmp_path, capsys, monkeypatch):
    import spinpair.cli as cli_module
    from spinpair.estimation import ConvergenceError

    def explode(curve):
        raise ConvergenceError("synthetic failure")

    monkeypatch.setattr(cli_module, "fit_exponential", explode)
    paths = measured_rate_curves(tmp_path)
    code = main(["fit", "--curve", f"ZQ={paths[KIND_ZQ]}",
                 "--curve", f"DQ={paths[KIND_DQ]}", "--out", str(tmp_path)])
    assert code == 4
    assert "fit error" in capsys.readouterr().err


@pytest.mark.filterwarnings("error")
@pytest.mark.parametrize("mode", ["difference", "joint"])
def test_fit_unresolved_rate_is_fit_error(tmp_path, capsys, mode):
    # The T1 curve has recovered by its first sample after t = 0, so no rate
    # is resolved: exit 4 naming its CSV, not Gamma1 = 2.6e42 +/- 0.
    for kind in (KIND_ZQ, KIND_DQ):
        assert main(["decay", "--preset", "btc", "--kind", kind, "--out", str(tmp_path)]) == 0
    t1 = tmp_path / "t1.csv"
    t1.write_text("t,signal\n0,-1.0\n2,1.01\n4,0.99\n6,1.0\n8,1.005\n", encoding="utf-8")
    capsys.readouterr()
    code = main(["fit", "--mode", mode, "--preset", "btc", "--curve", f"ZQ={tmp_path / 'decay_ZQ.csv'}",
                 "--curve", f"DQ={tmp_path / 'decay_DQ.csv'}", "--curve", f"{KIND_T1_SPIN1}={t1}",
                 "--out", str(tmp_path / "out")])
    assert code == 4
    assert capsys.readouterr() == ("", f"fit error: {t1}: {KIND_T1_SPIN1}: the samples do not resolve "
                                       "every fitted parameter; J^T J is singular at the optimum\n")
    assert not (tmp_path / "out").exists()


def test_fit_mixed_weights_are_refused_in_joint_mode(tmp_path, capsys):
    # Sigmas on ZQ alone: the joint fit would weight ZQ alone, so it exits 3;
    # difference mode fits each curve alone and takes the same CSVs.
    params = NoiseParams(3.741, 3.048, 5.876, 0.264, 0.255)
    rng = np.random.default_rng(28)
    curve_args = []
    for kind in ALL_KINDS:
        curve = synthetic_curve(kind, params, suggested_times(kind, params), noise_sigma=0.02, rng=rng)
        if kind == KIND_ZQ:
            curve = DecayCurve(kind, curve.times, curve.signals, 0.02 * np.abs(curve.signals))
        path = tmp_path / f"{kind}.csv"
        save_curve(curve, path)
        curve_args += ["--curve", f"{kind}={path}"]
    assert main(["fit", "--mode", "joint", *curve_args, "--out", str(tmp_path / "joint")]) == 3
    assert capsys.readouterr() == ("", "data error: mixed weights: sigmas on some curves but not on "
                                       "T1_inversion_recovery_spin1, T1_inversion_recovery_spin2, SQ1, "
                                       "SQ2, DQ; a joint fit weights every curve or none\n")
    assert not (tmp_path / "joint").exists()
    assert main(["fit", "--mode", "difference", *curve_args, "--out", str(tmp_path / "diff")]) == 0


# ----------------------------------------------------------------------
# report and config handling
# ----------------------------------------------------------------------


def test_report_reproduces_table_values(tmp_path):
    code = main(["report", "--out", str(tmp_path)])
    assert code == 0
    payload = json.loads((tmp_path / "report.json").read_text(encoding="utf-8"))
    by_name = {entry["preset"]: entry for entry in payload["molecules"]}
    assert by_name["btc"]["gamma3"] == pytest.approx(5.876, abs=1e-9)
    assert by_name["cytosine"]["gamma3"] == pytest.approx(3.393, abs=1e-9)
    assert by_name["coumarin"]["gamma3"] == pytest.approx(8.6735, abs=1e-9)
    assert by_name["btc"]["zq_rate_mismatch"] == pytest.approx(0.7425, abs=1e-9)


def test_report_csv_format(tmp_path):
    code = main(["report", "--format", "csv", "--out", str(tmp_path)])
    assert code == 0
    lines = (tmp_path / "report.csv").read_text(encoding="utf-8").splitlines()
    assert lines[0].startswith("preset,molecule,gamma3")
    assert len(lines) == 4


def test_report_entry_matches_hand_written_formula(monkeypatch):
    # The report's diagnostic, written out by hand as it was before it came
    # from the shared rate table.  np.hypot and math.hypot may round the
    # stderr differently in the last bit.
    rng = np.random.default_rng(62)
    for _ in range(50):
        params = random_cp_params(rng)
        errs = rng.uniform(0.001, 0.5, 6)
        rates = MeasuredRates(
            Gamma1=params.Gamma1, Gamma1_err=errs[0], Gamma2=params.Gamma2, Gamma2_err=errs[1],
            t2_rate_1=params.gamma1, t2_rate_1_err=errs[2],
            t2_rate_2=params.gamma2, t2_rate_2_err=errs[3],
            zq_rate=rate_for_kind(KIND_ZQ, params) * rng.uniform(0.9, 1.1), zq_rate_err=errs[4],
            dq_rate=rate_for_kind(KIND_DQ, params) * rng.uniform(0.9, 1.1), dq_rate_err=errs[5],
        )
        monkeypatch.setitem(PRESETS, "random", Preset(PRESETS["btc"].system, rates, params))
        entry = _report_entry("random")
        base = rates.t2_rate_1 + rates.t2_rate_2 + 0.5 * (rates.Gamma1 + rates.Gamma2)
        gamma3 = 0.5 * (rates.dq_rate - rates.zq_rate)
        expected = {
            "preset": "random",
            "molecule": "BTC acid",
            "gamma3": gamma3,
            "zq_rate_measured": rates.zq_rate,
            "dq_rate_measured": rates.dq_rate,
            "zq_rate_predicted": base - gamma3,
            "dq_rate_predicted": base + gamma3,
            "zq_rate_mismatch": base - gamma3 - rates.zq_rate,
            "dq_rate_mismatch": base + gamma3 - rates.dq_rate,
            "noise": asdict(params),
        }
        stderr = entry.pop("gamma3_stderr")
        assert entry == expected
        assert stderr == pytest.approx(0.5 * float(np.hypot(rates.zq_rate_err, rates.dq_rate_err)),
                                       rel=3e-16, abs=0.0)


def test_unknown_preset_is_config_error(capsys):
    assert main(["prepare", "--preset", "benzene", "--target", "DQ"]) == 2
    assert "unknown preset" in capsys.readouterr().err


def test_malformed_config_is_config_error(tmp_path, capsys):
    bad = tmp_path / "bad.json"
    bad.write_text("{not json", encoding="utf-8")
    assert main(["prepare", "--config", str(bad), "--target", "DQ"]) == 2
    assert "invalid JSON" in capsys.readouterr().err


def test_unknown_config_field_is_config_error(tmp_path, capsys):
    # The echo makes the prepared state independent of the rotating frame, so
    # no config field sets it: nu_rf is unknown like any other misspelling.
    for field, value in (("epsilonn", 0.5), ("nu_rf", 0.0)):
        config = write_config(tmp_path, **{field: value})
        assert main(["prepare", "--preset", "btc", "--config", config, "--target", "DQ"]) == 2
        assert capsys.readouterr().err == f"config error: {config}: unknown config fields {[field]}\n"


def test_config_system_object(tmp_path, capsys):
    config = write_config(
        tmp_path,
        system={"nu1": 4407.7, "nu2": 3490.8, "j12": 7.1, "name": "Cytosine"},
    )
    code = main(["prepare", "--config", config, "--target", "DQ"])
    assert code == 0
    assert "fidelity vs target" in capsys.readouterr().out


def test_config_overrides_preset_noise(tmp_path):
    config = write_config(
        tmp_path,
        noise={"gamma1": 1.0, "gamma2": 1.0, "gamma3": 0.0, "Gamma1": 0.0, "Gamma2": 0.0},
        time_grid=[0.0, 0.1, 0.2, 0.4, 0.8],
    )
    code = main(["decay", "--kind", "DQ", "--preset", "btc", "--config", config,
                 "--out", str(tmp_path)])
    assert code == 0
    curve = load_curve(tmp_path / "decay_DQ.csv", KIND_DQ)
    assert np.allclose(curve.times, [0.0, 0.1, 0.2, 0.4, 0.8])
    # config noise replaced the preset's: DQ rate is 2, not 12.182
    assert np.abs(curve.signals - np.exp(-2.0 * curve.times)).max() < 1e-9


def test_joint_fit_outside_cp_region_is_fit_error(tmp_path, capsys):
    # gamma1 = 4 and gamma2 = 0.25 fixed; the ZQ/DQ curves pin gamma3 = 3,
    # which meets |gamma3| <= gamma1 + gamma2 but exceeds 2 sqrt(gamma1 gamma2) = 2.
    paths = measured_rate_curves(tmp_path, zq_rate=4.25 - 3.0, dq_rate=4.25 + 3.0)
    config = write_config(tmp_path, noise={"gamma1": 4.0, "gamma2": 0.25, "gamma3": 0.0,
                                           "Gamma1": 0.0, "Gamma2": 0.0})
    code = main(["fit", "--mode", "joint", "--config", config, "--curve", f"ZQ={paths[KIND_ZQ]}",
                 "--curve", f"DQ={paths[KIND_DQ]}", "--out", str(tmp_path / "out")])
    assert code == 4
    assert capsys.readouterr().err == (
        "fit error: fitted rates violate positivity constraints: |gamma3| = 3 exceeds "
        "2 sqrt(gamma1 gamma2), so the generator is not completely positive\n"
    )
    assert not (tmp_path / "out" / "fit_report.json").exists()


def test_config_finite_temperature_nbar_is_config_error(tmp_path, capsys):
    config = write_config(
        tmp_path,
        noise={"gamma1": 1.0, "gamma2": 1.0, "gamma3": 0.0, "Gamma1": 0.1, "Gamma2": 0.1,
               "nbar": 0.05},
    )
    code = main(["decay", "--kind", "DQ", "--preset", "btc", "--config", config,
                 "--out", str(tmp_path)])
    assert code == 2
    assert capsys.readouterr().err == (
        "config error: noise: nbar = 0.05 is not supported: the closed-form propagator models "
        "only the infinite-temperature limit nbar = 0.5\n"
    )
    assert not (tmp_path / "decay_DQ.csv").exists()


@pytest.mark.parametrize("rates, message", [
    ((4.0, 0.25, 3.0), "noise.gamma3: |gamma3| = 3 exceeds 2 sqrt(gamma1 gamma2), so the "
                       "generator is not completely positive"),
    ((1.0, 1.0, -2.5), "noise: correlated dephasing rate gamma3 yields a negative diagonal decay "
                       "rate (|gamma3| > gamma1 + gamma2): generator is not completely positive"),
    ((-1.0, 1.0, 0.0), "noise: NoiseParams.gamma1 must be non-negative"),
])
def test_inadmissible_noise_config_message(tmp_path, capsys, rates, message):
    noise = dict(zip(("gamma1", "gamma2", "gamma3"), rates), Gamma1=0.1, Gamma2=0.1)
    config = write_config(tmp_path, noise=noise)
    assert main(["tomo", "--target", "ZQ", "--time", "1", "--config", config]) == 2
    assert capsys.readouterr() == ("", f"config error: {message}\n")


@pytest.mark.parametrize(
    "fields, flags, name",
    [
        ({"seed": "abc"}, [], "seed"),
        ({"epsilon": "abc"}, [], "epsilon"),
        ({"epsilon": 1.5}, [], "epsilon"),
        ({"time_grid": [0.0, float("nan"), 1.0]}, [], "time_grid[1]"),
        ({"time_grid": {"stop": float("inf")}}, [], "time_grid.stop"),
        ({"seed": 1.5}, [], "seed"),
        ({"seed": True}, [], "seed"),
        ({"noise_sigma": float("nan")}, [], "noise_sigma"),
        ({"time_grid": {"points": 8.7}}, [], "time_grid.points"),
        ({"noise_sigma": 0.1}, ["--seed", "-1"], "seed"),
        ({"seed": -1}, [], "seed"),
        ({"time_grid": {"points": MAX_TIME_POINTS + 1}}, [], "time_grid.points"),
        ({"time_grid": [float(t) for t in range(MAX_TIME_POINTS + 1)]}, [], "time_grid"),
        # Neighbouring times are compared, not subtracted, so this does not overflow.
        ({"time_grid": [1e308, -1e308]}, [], "time_grid"),
        # The log grid's rule is the list's: geomspace repeats a time here.
        ({"time_grid": {"start": 1.0, "stop": 1.0000000000000004, "points": 10}}, [], "time_grid"),
        # 1e308 times a draw beyond 1.8 overflows, without numpy's warning.
        ({"noise_sigma": 1e308}, [], "noise_sigma"),
        # A JSON integer beyond the float range is not finite.
        ({"epsilon": 10**400}, [], "epsilon"),
        ({"time_grid": {"start": 10**400}}, [], "time_grid.start"),
        ({"time_grid": {"stop": -10**400}}, [], "time_grid.stop"),
        ({"time_grid": [0.0, 10**400]}, [], "time_grid[1]"),
        ({"noise_sigma": 10**400}, [], "noise_sigma"),
        ({"system": {"nu1": 10**400, "nu2": 400.0, "j12": 4.2}}, [], "system.nu1"),
        ({"noise": {**asdict(PRESETS["btc"].noise), "Gamma2": 10**400}}, [], "noise.Gamma2"),
        # A number written as a string is not a number.
        ({"epsilon": "0.5"}, [], "epsilon"),
        ({"time_grid": ["0", "1"]}, [], "time_grid[0]"),
        ({"time_grid": {"start": "0.001"}}, [], "time_grid.start"),
        ({"noise_sigma": "0.1"}, [], "noise_sigma"),
        ({"system": {"nu1": "100", "nu2": 400.0, "j12": 4.2}}, [], "system.nu1"),
        ({"noise": {**asdict(PRESETS["btc"].noise), "gamma3": "0"}}, [], "noise.gamma3"),
    ],
)
@pytest.mark.filterwarnings("error")
def test_bad_config_value_is_config_error(tmp_path, capsys, fields, flags, name):
    # json.dumps writes nan and inf as the NaN and Infinity that json.loads reads.
    config = write_config(tmp_path, **fields)
    code = main(["decay", "--kind", "DQ", "--preset", "btc", "--config", config,
                 "--out", str(tmp_path), *flags])
    assert code == 2
    assert f"config error: {name}:" in capsys.readouterr().err
    assert not (tmp_path / "decay_DQ.csv").exists()


@pytest.mark.parametrize("value", ["nan", "inf"])
def test_fit_non_finite_csv_value_is_data_error(tmp_path, capsys, value):
    paths = measured_rate_curves(tmp_path)
    zq = Path(paths[KIND_ZQ])
    lines = zq.read_text(encoding="utf-8").splitlines()
    lines[4] = lines[4].split(",")[0] + f",{value}"  # line 5, the third data row
    zq.write_text("\n".join(lines) + "\n", encoding="utf-8")
    code = main(["fit", "--mode", "difference", "--curve", f"ZQ={zq}",
                 "--curve", f"DQ={paths[KIND_DQ]}", "--out", str(tmp_path / "out")])
    assert code == 3
    assert f"{zq}:5: signal must be finite" in capsys.readouterr().err


@pytest.mark.parametrize("problem", ["missing", "directory", "not UTF-8"])
def test_fit_unreadable_csv_is_data_error(tmp_path, capsys, problem):
    paths = measured_rate_curves(tmp_path)
    zq = tmp_path / "zq_bad.csv"
    if problem == "directory":
        zq.mkdir()
    elif problem == "not UTF-8":
        zq.write_bytes(b"t,signal\n0,1\n1,\xff\xfe\n")
    code = main(["fit", "--mode", "difference", "--curve", f"ZQ={zq}",
                 "--curve", f"DQ={paths[KIND_DQ]}", "--out", str(tmp_path / "out")])
    assert code == 3
    assert f"data error: {zq}:" in capsys.readouterr().err
    assert not (tmp_path / "out" / "fit_report.json").exists()


UNCOUPLED = {"nu1": 100.0, "nu2": 400.0, "j12": 0}
NOISE = {"gamma1": 1.0, "gamma2": 1.0, "gamma3": 0.5, "Gamma1": 0.1, "Gamma2": 0.1}


@pytest.mark.parametrize(
    "argv, fields, name",
    [
        (["prepare", "--target", "ZQ"], {"system": UNCOUPLED}, "system.j12"),
        (["tomo", "--target", "DQ"], {"system": UNCOUPLED}, "system.j12"),
        (["prepare", "--target", "SQ1", "--out", "/dev/null/x"], {}, "--out"),
        (["tomo", "--target", "SQ1", "--out", "{tmp}/file"], {}, "--out"),
        (["prepare", "--target", "SQ2", "--out", "{tmp}/file/sub"], {}, "--out"),
        (["prepare", "--target", "DQ"], {"epsilon": True}, "epsilon"),
        (["tomo", "--target", "DQ"], {"system": {**UNCOUPLED, "j12": True}}, "system.j12"),
        (["tomo", "--target", "DQ"], {"system": {**UNCOUPLED, "nu1": False}}, "system.nu1"),
        (["tomo", "--target", "DQ", "--time", "1"], {"noise": {**NOISE, "gamma3": True}},
         "noise.gamma3"),
        (["tomo", "--target", "DQ"], {"noise": {**NOISE, "nbar": True}}, "noise.nbar"),
        (["tomo", "--target", "DQ"], {"time_grid": {"start": True}}, "time_grid.start"),
        # With J12 != 0 the phase over the 1/(2 |J12|) delay comes from the shift
        # offsets relative to J12, so the system is named: a tiny J12 overflows
        # it, and so does a shift midpoint (the default frame) that overflows.
        (["prepare", "--target", "DQ"], {"system": {**UNCOUPLED, "j12": 1e-308}}, "system"),
        (["tomo", "--target", "DQ"], {"system": {**UNCOUPLED, "j12": 1e-308}}, "system"),
        (["prepare", "--target", "ZQ"], {"system": {**UNCOUPLED, "j12": 5e-324}}, "system"),
        (["tomo", "--target", "ZQ"], {"system": {"nu1": 1e9, "nu2": 2e9, "j12": 1e-300}},
         "system"),
        (["prepare", "--target", "ZQ"], {"system": {"nu1": 1.7e308, "nu2": 1.6e308, "j12": 4.2}},
         "system"),
        # Rates outside the completely positive region drive this state out of
        # the positive cone.
        (["tomo", "--target", "ZQ", "--time=1e300"],
         {"system": {"nu1": 0, "nu2": 5e-324, "j12": 1e-308},
          "noise": {"gamma1": 0, "gamma2": 1e300, "gamma3": 1e300, "Gamma1": 0, "Gamma2": 1e-308}},
         "noise.gamma3"),
        # Shifts far apart relative to J12: 2 pi (nu1 - frame) overflows in the
        # midpoint frame, or stays finite but above the bound.
        (["prepare", "--target", "DQ"], {"system": {"nu1": 1.7e308, "nu2": -1.7e308, "j12": 4.2}},
         "system"),
        (["tomo", "--target", "ZQ", "--time", "0.1"],
         {"system": {"nu1": 1.7e308, "nu2": -1.7e308, "j12": 4.2}}, "system"),
        (["prepare", "--target", "ZQ"], {"system": {"nu1": 5.7e6, "nu2": 4287.0, "j12": 4.2}},
         "system"),
        (["tomo", "--target", "DQ"], {"system": {"nu1": -1e9, "nu2": 1e9, "j12": 4.2}}, "system"),
        # A negative tiny J12 overflows the phase as a positive one does.
        (["prepare", "--target", "DQ"], {"system": {**UNCOUPLED, "j12": -1e-308}}, "system"),
        # The phase rule fails after --time and its noise pass, and epsilon = 0
        # does not hide it.
        (["tomo", "--target", "DQ", "--time", "0.1"], {"system": UNCOUPLED}, "system.j12"),
        (["prepare", "--target", "ZQ"], {"system": UNCOUPLED, "epsilon": 0.0}, "system.j12"),
        (["tomo", "--target", "ZQ", "--time", "0.1"], {"system": {**UNCOUPLED, "j12": 1e-308}},
         "system"),
        (["prepare", "--target", "DQ"], {"system": UNCOUPLED}, "system.j12"),
        # J12 is fine; the shifts are far apart.
        (["prepare", "--target", "ZQ"], {"system": {"nu1": 1e9, "nu2": 2e9, "j12": 4.2}},
         "system"),
    ],
)
def test_config_boundary_is_config_error(tmp_path, capsys, argv, fields, name):
    (tmp_path / "file").write_text("not a directory\n", encoding="utf-8")
    config = write_config(tmp_path, **fields)
    argv = [arg.format(tmp=tmp_path) for arg in argv]
    code = main([*argv, "--preset", "btc", "--config", config])
    assert code == 2
    assert f"config error: {name}:" in capsys.readouterr().err


@pytest.mark.parametrize(
    "fields, where, key",
    [
        ({"epsilonn": 0.5}, None, "epsilonn"),
        ({"system": {**UNCOUPLED, "J12": 4.2}}, "system", "J12"),
        ({"noise": {**NOISE, "nbar_typo": 0.5}}, "noise", "nbar_typo"),
        ({"time_grid": {"stop": 5.0, "point": 10}}, "time_grid", "point"),
    ],
)
def test_unknown_key_in_any_config_object_is_config_error(tmp_path, capsys, fields, where, key):
    config = write_config(tmp_path, **fields)
    out = tmp_path / "out"
    assert main(["decay", "--kind", "DQ", "--preset", "btc", "--config", config,
                 "--out", str(out)]) == 2
    assert capsys.readouterr() == ("", f"config error: {where or config}: "
                                       f"unknown config fields {[key]}\n")
    assert not out.exists()


@pytest.mark.parametrize(
    "argv, code, message",
    [
        (["prepare", "--target", "DQ", "--config", "{tmp}/missing.json"], 2,
         "config error: {tmp}/missing.json: cannot read the file (No such file or directory)"),
        (["prepare", "--target", "DQ", "--config", "{tmp}/list.json"], 2,
         "config error: {tmp}/list.json: top-level config must be an object"),
        (["fit", "--curve", "ZQ", "--out", "{tmp}/out"], 2,
         "config error: --curve expects KIND=PATH, got 'ZQ'"),
        (["fit", "--curve", "ZQ={tmp}/a.csv", "--curve", "ZQ={tmp}/b.csv", "--out", "{tmp}/out"], 2,
         "config error: --curve: duplicate kind 'ZQ'"),
        (["fit", "--mode", "joint", "--curve", "ZQ={tmp}/zq.csv", "--curve", "DQ={tmp}/dq.csv",
          "--out", "{tmp}/out"], 3,
         "data error: joint fit without a SQ1 curve needs --preset/--config noise to fix gamma1"),
        (["report", "--preset", "benzene"], 2,
         "config error: unknown preset 'benzene'; available: ['btc', 'coumarin', 'cytosine']"),
        # --time and the noise it needs are checked before the state is prepared.
        (["tomo", "--target", "DQ", "--time", "1"], 2,
         "config error: no noise rates configured; pass --preset or a config with 'noise'"),
        (["tomo", "--target", "DQ", "--time", "-1"], 2,
         "config error: --time must be a finite, non-negative number of seconds, got -1.0"),
    ],
    ids=["missing-config", "config-not-object", "curve-without-equals", "duplicate-curve",
         "joint-fit-without-pin", "report-unknown-preset", "tomo-time-without-noise",
         "tomo-negative-time-without-system"],
)
def test_cli_error_branch_exit_code_and_message(tmp_path, capsys, argv, code, message):
    (tmp_path / "list.json").write_text("[]\n", encoding="utf-8")
    measured_rate_curves(tmp_path)  # zq.csv and dq.csv
    assert main([arg.format(tmp=tmp_path) for arg in argv]) == code
    assert capsys.readouterr() == ("", message.format(tmp=tmp_path) + "\n")
    assert not (tmp_path / "out" / "fit_report.json").exists()


NEGATIVE_CSV = b"t,signal\n0,-1\n1,-0.5\n2,-0.25\n3,-0.125\n"
GROWING_CSV = b"t,signal\n0,1\n1,2\n2,4\n3,8\n4,16\n"
LONG_INTEGER = '{"seed": ' + "1" * 5000 + "}"
DEEP_LIST = "[" * 100_000 + "]" * 100_000


def json_error(text):
    """What json.loads says of a text it cannot parse."""
    try:
        json.loads(text)
    except (ValueError, RecursionError) as exc:
        return str(exc)


# Each file the CLI reads or writes: a fault names the path, prints nothing on
# stdout and writes nothing.
@pytest.mark.parametrize(
    "argv, files, code, message",
    [
        (["prepare", "--target", "DQ", "--config", "{tmp}/config"], {"config": None}, 2,
         "config error: {tmp}/config: cannot read the file (Is a directory)"),
        (["prepare", "--target", "DQ", "--config", "{tmp}/config"],
         {"config": b'{"epsilon": 0.5\xff}'}, 2,
         "config error: {tmp}/config: not UTF-8 text (invalid start byte at byte 15)"),
        (["prepare", "--target", "DQ", "--config", "{tmp}/config"],
         {"config": LONG_INTEGER.encode()}, 2,
         f"config error: {{tmp}}/config: invalid JSON ({json_error(LONG_INTEGER)})"),
        (["tomo", "--target", "DQ", "--config", "{tmp}/config"], {"config": DEEP_LIST.encode()}, 2,
         f"config error: {{tmp}}/config: invalid JSON ({json_error(DEEP_LIST)})"),
        (["decay", "--kind", "ZQ"], {"out/decay_ZQ.csv": None}, 2,
         "config error: --out: cannot write {tmp}/out/decay_ZQ.csv (Is a directory)"),
        (["decay", "--kind", "DQ", "--format", "json"], {"out/decay_DQ.json": None}, 2,
         "config error: --out: cannot write {tmp}/out/decay_DQ.json (Is a directory)"),
        (["fit", "--curve", "ZQ={tmp}/neg.csv", "--curve", "DQ={tmp}/neg.csv"],
         {"neg.csv": NEGATIVE_CSV}, 3, "data error: {tmp}/out/fit_plot.svg: nothing to plot"),
        (["fit", "--mode", "joint", "--curve", "ZQ={tmp}/neg.csv", "--curve", "DQ={tmp}/neg.csv"],
         {"neg.csv": NEGATIVE_CSV}, 3, "data error: {tmp}/out/fit_plot.svg: nothing to plot"),
        (["fit", "--curve", "ZQ={tmp}/zq.csv", "--curve", "DQ={tmp}/grow.csv"],
         {"grow.csv": GROWING_CSV}, 3,
         "data error: {tmp}/grow.csv: DQ: fitted decay rate -0.693147 per unit of t is negative; the curve grows"),
        # The other rates are fixed from the preset, so the joint fit itself
        # would converge on gamma3 from the ZQ curve alone.
        (["fit", "--mode", "joint", "--curve", "ZQ={tmp}/zq.csv", "--curve", "DQ={tmp}/grow.csv"],
         {"grow.csv": GROWING_CSV}, 3,
         "data error: {tmp}/grow.csv: DQ: fitted decay rate -0.693147 per unit of t is negative; the curve grows"),
        # The report is written first, and removed when the plot cannot be.
        (["fit", "--curve", "ZQ={tmp}/zq.csv", "--curve", "DQ={tmp}/dq.csv"],
         {"out/fit_plot.svg": None}, 2,
         "config error: --out: cannot write {tmp}/out/fit_plot.svg (Is a directory)"),
        (["report"], {"out/report.json": None}, 2,
         "config error: --out: cannot write {tmp}/out/report.json (Is a directory)"),
        (["report", "--format", "csv"], {"out/report.csv": None}, 2,
         "config error: --out: cannot write {tmp}/out/report.csv (Is a directory)"),
        (["prepare", "--target", "ZQ"], {"out/state_ZQ.json": None}, 2,
         "config error: --out: cannot write {tmp}/out/state_ZQ.json (Is a directory)"),
        (["tomo", "--target", "SQ1"], {"out/tomo_SQ1.json": None}, 2,
         "config error: --out: cannot write {tmp}/out/tomo_SQ1.json (Is a directory)"),
    ],
    ids=["config-directory", "config-not-utf8", "config-long-integer", "config-too-deep",
         "decay-csv-collision", "decay-json-collision", "fit-nothing-to-plot",
         "joint-fit-nothing-to-plot", "fit-growing-curve", "joint-fit-growing-curve",
         "fit-plot-collision", "report-collision",
         "report-csv-collision", "prepare-collision", "tomo-collision"],
)
def test_file_fault_names_the_path_and_writes_nothing(tmp_path, capsys, argv, files, code,
                                                      message):
    measured_rate_curves(tmp_path)  # zq.csv and dq.csv
    for name, content in files.items():
        path = tmp_path / name
        path.parent.mkdir(exist_ok=True)
        if content is None:
            path.mkdir()
        else:
            path.write_bytes(content)
    before = sorted(tmp_path.rglob("*"))
    argv = [*argv, "--preset", "btc", "--out", "{tmp}/out"]
    assert main([arg.format(tmp=tmp_path) for arg in argv]) == code
    assert capsys.readouterr() == ("", message.format(tmp=tmp_path) + "\n")
    assert sorted(tmp_path.rglob("*")) == before


@pytest.mark.filterwarnings("error")
def test_weak_coupling_is_a_warning_line(tmp_path, capsys):
    config = write_config(tmp_path, system={"nu1": 100, "nu2": 101, "j12": 4.2})
    assert main(["prepare", "--target", "SQ1", "--config", config]) == 0
    assert capsys.readouterr().err == (
        "warning: system: |nu1 - nu2| = 1 Hz is not large compared to J12 = 4.2 Hz; "
        "the weak-coupling Hamiltonian may be inaccurate\n"
    )


# Each subcommand declares only the flags it reads; these pairs are not declared.
@pytest.mark.parametrize(
    "command, flag",
    [
        ("prepare", "--seed 5"),
        ("prepare", "--nu-rf 3"),
        ("tomo", "--seed 5"),
        ("tomo", "--nu-rf 3"),
        ("decay", "--nu-rf 3"),
        ("fit", "--seed 5"),
        ("fit", "--nu-rf 3"),
        ("report", "--config /nonexistent"),
        ("report", "--seed 5"),
        ("report", "--nu-rf 3"),
    ],
)
def test_undeclared_flag_exits_2_and_writes_nothing(tmp_path, capsys, command, flag):
    paths = measured_rate_curves(tmp_path)
    argv = {
        "prepare": ["prepare", "--target", "DQ"],
        "tomo": ["tomo", "--target", "DQ"],
        "decay": ["decay", "--kind", "DQ"],
        "fit": ["fit", "--curve", f"ZQ={paths[KIND_ZQ]}", "--curve", f"DQ={paths[KIND_DQ]}"],
        "report": ["report"],
    }[command]
    out = tmp_path / "out"
    with pytest.raises(SystemExit) as exit_info:
        main([*argv, "--preset", "btc", "--out", str(out), *flag.split()])
    assert exit_info.value.code == 2
    assert f"unrecognized arguments: {flag}" in capsys.readouterr().err
    assert not out.exists()


@pytest.mark.parametrize("target", ["SQ1", "SQ2"])
def test_sq_preparation_needs_no_coupling(tmp_path, target):
    config = write_config(tmp_path, system=UNCOUPLED)
    assert main(["prepare", "--target", target, "--config", config, "--out", str(tmp_path)]) == 0
    assert main(["tomo", "--target", target, "--config", config, "--out", str(tmp_path)]) == 0


def test_tomo_without_out_prints_payload(capsys):
    code = main(["tomo", "--preset", "btc", "--target", "SQ2"])
    assert code == 0
    out = capsys.readouterr().out
    assert '"matrix"' in out
    assert "fidelity vs target" in out


def test_missing_system_is_config_error(capsys):
    assert main(["prepare", "--target", "DQ"]) == 2
    assert "no spin system" in capsys.readouterr().err


@pytest.mark.parametrize(
    "argv, code, message",
    [
        (["report", "--preset", "btc"], 0, ""),
        (["report", "--preset", "nope"], 2,
         "config error: unknown preset 'nope'; available: ['btc', 'coumarin', 'cytosine']\n"),
        (["fit", "--curve", "ZQ=missing.csv", "--curve", "DQ=missing.csv", "--out", "out"], 3,
         "data error: missing.csv: cannot read the file (No such file or directory)\n"),
    ],
    ids=["success", "config-error", "data-error"],
)
def test_shell_sees_documented_exit_status(tmp_path, argv, code, message):
    # `python -m spinpair.cli` exits through entry_point, as the console script does.
    env = dict(os.environ, PYTHONPATH=str(Path(spinpair.__file__).resolve().parents[1]))
    run = subprocess.run([sys.executable, "-m", "spinpair.cli", *argv], cwd=tmp_path, env=env,
                         capture_output=True, text=True, check=False)
    assert run.returncode == code
    assert run.stderr == message


def test_decay_without_noise_leaves_numpy_random_unloaded(tmp_path):
    # numpy loads numpy.random on first use, which costs each CLI run about 10 ms.
    code = ("import sys; from spinpair.cli import main; "
            "main(['decay', '--preset', 'btc', '--kind', 'DQ', '--out', 'out']); "
            "print('numpy.random' in sys.modules)")
    env = dict(os.environ, PYTHONPATH=str(Path(spinpair.__file__).resolve().parents[1]))
    run = subprocess.run([sys.executable, "-c", code], cwd=tmp_path, env=env, capture_output=True,
                         text=True, check=True)
    assert run.stdout.splitlines()[-1] == "False"
