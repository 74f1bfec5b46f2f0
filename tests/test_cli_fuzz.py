"""Fuzz the CLI boundary: configs built from edge numbers and wrong types,
and small CSV files, must end in a documented exit code, never a traceback
or a numpy RuntimeWarning, and a command that fails must print nothing on
stdout and leave no --out directory behind."""

import contextlib
import io
import json
import tempfile
import warnings
from pathlib import Path

from hypothesis import example, given, settings
from hypothesis import strategies as st

from spinpair.cli import main
from spinpair.estimation import CURVE_KINDS

EDGE_NUMBERS = (0, -0.0, 5e-324, 1e-308, 1e300, -1e300, 1.0, 0.5, 4.2, 400.0, -1.0)
WRONG_TYPES = (True, False, "1", None, [], {})

value = st.sampled_from(EDGE_NUMBERS + WRONG_TYPES)
number = st.sampled_from(EDGE_NUMBERS)


def _optional(**fields):
    return st.fixed_dictionaries({}, optional=fields)


RATE_FIELDS = ("gamma1", "gamma2", "gamma3", "Gamma1", "Gamma2")

# Any field may hold any value, wrong types included, and any object may
# hold one unknown key.
any_config = _optional(
    system=st.one_of(st.sampled_from(["btc", "benzene"]), value,
                     _optional(nu1=value, nu2=value, j12=value, J12=value)),
    noise=st.one_of(value, _optional(nbar=value, nbar_typo=value,
                                     **{name: value for name in RATE_FIELDS})),
    epsilon=value,
    time_grid=st.one_of(value, st.lists(value, max_size=8),
                        _optional(start=value, stop=value, points=value, point=value)),
    seed=value,
    noise_sigma=value,
    epsilonn=value,
)
# Well-typed configs whose every number is an edge number.
number_config = st.fixed_dictionaries(
    {
        "system": st.fixed_dictionaries({"nu1": number, "nu2": number, "j12": number}),
        "noise": st.fixed_dictionaries({name: number for name in RATE_FIELDS}),
    },
    optional={
        "epsilon": number,
        "time_grid": st.one_of(
            st.lists(number, min_size=2, max_size=8).map(sorted),
            _optional(start=number, stop=number, points=st.integers(-1, 64)),
        ),
        "seed": st.integers(-1, 3),
        "noise_sigma": number,
    },
)
config = st.one_of(any_config, number_config)

csv_field = st.one_of(number.map(repr), st.sampled_from(["", "x", "nan", "inf", "1e999"]))
csv_row = st.lists(csv_field, min_size=1, max_size=3).map(",".join)
csv_text = st.one_of(
    st.lists(csv_row, max_size=6).map(lambda rows: "\n".join(["t,signal", *rows]) + "\n"),
    st.lists(st.tuples(number, number), max_size=6).map(
        lambda rows: "t,signal\n" + "".join(f"{t!r},{s!r}\n" for t, s in sorted(rows))),
)


def run(argv, fields, csvs, use_preset):
    """Exit code of main() on argv with the config and CSV files written to a
    temporary directory; a RuntimeWarning raises.  A non-zero exit must not
    have printed anything on stdout or made the --out directory."""
    with tempfile.TemporaryDirectory() as tmp:
        root = Path(tmp)
        (root / "config.json").write_text(json.dumps(fields), encoding="utf-8")
        argv = [*argv, "--config", str(root / "config.json"), "--out", str(root / "out")]
        if use_preset:
            argv += ["--preset", "coumarin"]
        for kind, text in csvs.items():
            (root / f"{kind}.csv").write_text(text, encoding="utf-8")
            argv.append(f"--curve={kind}={root / f'{kind}.csv'}")
        stdout = io.StringIO()
        with warnings.catch_warnings(), contextlib.redirect_stdout(stdout), \
                contextlib.redirect_stderr(io.StringIO()):
            warnings.simplefilter("ignore")
            warnings.simplefilter("error", RuntimeWarning)
            code = main(argv)
        assert code == 0 or not (root / "out").exists(), f"exit {code} left --out behind"
        assert code == 0 or stdout.getvalue() == "", f"exit {code} printed {stdout.getvalue()!r}"
        return code


@st.composite
def state_commands(draw):
    """An argv of prepare or tomo, tomo with or without a --time."""
    command = draw(st.sampled_from(["prepare", "tomo"]))
    argv = [command, "--target", draw(st.sampled_from(["ZQ", "DQ", "SQ1", "SQ2"]))]
    if command == "tomo" and draw(st.booleans()):
        argv.append(f"--time={draw(number)!r}")
    return argv


@st.composite
def curve_commands(draw):
    """An argv of decay or fit, and the CSV files fit reads."""
    if draw(st.booleans()):
        return ["decay", "--kind", draw(st.sampled_from(CURVE_KINDS))], {}
    kinds = ["ZQ", "DQ", *draw(st.lists(st.sampled_from(CURVE_KINDS[:4]), unique=True))]
    argv = ["fit", "--mode", draw(st.sampled_from(["difference", "joint"]))]
    return argv, {kind: draw(csv_text) for kind in kinds}


@settings(max_examples=150, deadline=None, derandomize=True)
@given(state_commands(), config, st.booleans())
def test_prepare_and_tomo_end_in_documented_exit_code(argv, fields, use_preset):
    assert run(argv, fields, {}, use_preset) in (0, 2, 3, 4)


# No sample of either curve is positive, so the fit's plot has nothing on its
# log axis; the derandomized draws never make this case.
NEGATIVE = "t,signal\n0,-1\n1,-0.5\n2,-0.25\n3,-0.125\n"


@settings(max_examples=150, deadline=None, derandomize=True)
@given(curve_commands(), config, st.booleans())
@example((["fit", "--mode", "difference"], {"ZQ": NEGATIVE, "DQ": NEGATIVE}), {}, False)
@example((["fit", "--mode", "joint"], {"ZQ": NEGATIVE, "DQ": NEGATIVE}), {}, True)
def test_decay_and_fit_end_in_documented_exit_code(command, fields, use_preset):
    argv, csvs = command
    assert run(argv, fields, csvs, use_preset) in (0, 2, 3, 4)
