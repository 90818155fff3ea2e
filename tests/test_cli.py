import csv
import functools
import io
import json
import math
import os
import re
import subprocess
import sys
import warnings
from contextlib import redirect_stderr, redirect_stdout
from pathlib import Path

import numpy as np
import pytest
from hypothesis import HealthCheck, given, settings, strategies as st

import phasekit
import phasekit.io
from phasekit.angles import TWO_PI, circ_distance
from phasekit.cli import dispatch
from phasekit.experiments import ESTIMATOR_WINDOWS, EXPERIMENT_KINDS
from phasekit.io import MAX_RECORD_LENGTH, load_weights_csv
from phasekit.windows import WINDOW_KINDS, make_window


def read_csv_rows(path):
    with open(path, newline="") as fh:
        return list(csv.DictReader(fh))


def test_dist_on_grid(tmp_path):
    out = tmp_path / "d.csv"
    code = dispatch(["dist", "--qubits", "3", "--window", "rect",
                     "--phase-frac", "0.375", "--output", str(out)])
    assert code == 0
    rows = read_csv_rows(out)
    assert len(rows) == 8
    assert float(rows[3]["value"]) == 1.0
    assert sum(float(r["value"]) for r in rows) == pytest.approx(1.0, abs=1e-10)


def test_record_length_needs_flag(tmp_path):
    code = dispatch(["dist", "--record-length", "100", "--phase-frac", "0.1",
                     "--output", str(tmp_path / "x.csv")])
    assert code == 2
    code = dispatch(["dist", "--record-length", "100", "--allow-any-n",
                     "--phase-frac", "0.1", "--output", str(tmp_path / "x.csv")])
    assert code == 0


def test_length_is_exclusive():
    assert dispatch(["dist", "--qubits", "3", "--record-length", "8",
                     "--phase-frac", "0.1"]) == 2
    assert dispatch(["dist", "--phase-frac", "0.1"]) == 2


def test_unknown_subcommand_exits_2():
    assert dispatch(["frobnicate"]) == 2


def test_window_subcommand(tmp_path):
    out = tmp_path / "w.csv"
    assert dispatch(["window", "--qubits", "2", "--window", "cosine",
                     "--output", str(out)]) == 0
    rows = read_csv_rows(out)
    assert [float(r["value"]) for r in rows] == pytest.approx([0.0, 0.5, 1 / np.sqrt(2), 0.5])


def test_custom_window_from_csv(tmp_path):
    weights = tmp_path / "w.csv"
    weights.write_text("3.0\n4.0\n")
    out = tmp_path / "win.csv"
    assert dispatch(["window", "--record-length", "2", "--window", "custom",
                     "--weights-csv", str(weights), "--output", str(out)]) == 0
    rows = read_csv_rows(out)
    assert [float(r["value"]) for r in rows] == [0.6, 0.8]
    assert dispatch(["window", "--record-length", "4", "--window", "custom"]) == 2


@pytest.mark.parametrize("command", [
    ["dist", "--phase-frac", "0.1"],
    ["sample", "--phase-frac", "0.1", "--shots", "5"],
])
def test_custom_window_length_must_match_record_length(tmp_path, command, capsys):
    weights = tmp_path / "w.csv"
    weights.write_text("1\n2\n3\n")
    custom = ["--window", "custom", "--weights-csv", str(weights)]
    assert dispatch([*command, "--qubits", "2", *custom]) == 2
    assert ("usage error: --weights-csv holds 3 weights, but the record length is 4"
            in capsys.readouterr().err)
    assert dispatch([*command, "--record-length", "3", "--allow-any-n", *custom]) == 0


@pytest.mark.parametrize("command", [
    ["window"],
    ["dist", "--phase-frac", "0.1"],
    ["sample", "--phase-frac", "0.1", "--shots", "5"],
])
@pytest.mark.parametrize("window", ["rect", "cosine", None])
def test_weights_csv_needs_the_custom_window(command, window, capsys):
    # The file is never opened: a built-in window would otherwise drop it unread.
    chosen = [] if window is None else ["--window", window]
    assert dispatch([*command, "--qubits", "2", *chosen,
                     "--weights-csv", "unread.csv"]) == 2
    assert capsys.readouterr().err == "usage error: --weights-csv needs --window custom\n"


UNPRICEABLE = "cannot be priced: it has fewer than two nonzero weights, so its FI is 0"


@pytest.mark.parametrize("argv, message", [
    (["window", "--qubits", "1", "--window", "bartlett"],
     "triangular window is degenerate at n_points=2"),
    (["dist", "--qubits", "1", "--window", "bartlett", "--phase-frac", "0.1"],
     "triangular window is degenerate at n_points=2"),
    (["sample", "--qubits", "1", "--window", "bartlett", "--phase-frac", "0.1",
      "--shots", "3"], "triangular window is degenerate at n_points=2"),
    (["crb", "--qubits", "1", "--windows", "bartlett"],
     "triangular window is degenerate at n_points=2"),
    (["crb", "--qubits", "1", "--windows", "cosine"], f"the cosine window at N=2 {UNPRICEABLE}"),
    (["crb", "--record-length", "3", "--allow-any-n", "--windows", "bartlett"],
     f"the bartlett window at N=3 {UNPRICEABLE}"),
    (["crb", "--qubits", "3,1", "--windows", "rect,cosine"],
     f"the cosine window at N=2 {UNPRICEABLE}"),
    (["experiment", "rmse-vs-shots", "--qubits", "1", "--estimators", "mean-cosine"],
     f"the cosine window at N=2 {UNPRICEABLE}"),
    (["experiment", "rmse-vs-shots", "--qubits", "1", "--estimators", "mean-bartlett"],
     "triangular window is degenerate at n_points=2"),
    (["experiment", "scatter", "--qubits", "1", "--estimators", "mean-bartlett"],
     "triangular window is degenerate at n_points=2"),
])
def test_a_window_degenerate_at_its_length_is_a_usage_error(argv, message):
    # Decided from the arguments before any work: no seed line, no output.
    assert _run_cli(argv) == (2, "", f"usage error: {message}\n")


@pytest.mark.parametrize("command", [
    ["window", "--window", "cosine"],
    ["dist", "--window", "cosine", "--phase-frac", "0.1"],
    ["sample", "--window", "cosine", "--phase-frac", "0.1", "--shots", "3"],
    ["experiment", "scatter", "--estimators", "mean-cosine", "--trials", "3"],
])
def test_cosine_at_two_points_runs_where_nothing_is_priced(command):
    code, out, _ = _run_cli([*command, "--qubits", "1"])
    assert code == 0 and out


def test_weights_csv_beyond_the_length_bound_is_rejected(tmp_path, capsys):
    weights = tmp_path / "w.csv"
    weights.write_text("1\n" * (MAX_RECORD_LENGTH + 2))
    assert dispatch(["dist", "--qubits", "20", "--phase-frac", "0.1", "--window", "custom",
                     "--weights-csv", str(weights)]) == 1
    assert f"error: weights CSV: more than {MAX_RECORD_LENGTH} weights" in capsys.readouterr().err


@pytest.mark.parametrize("qubits", [3, 7])
@pytest.mark.parametrize("kind", ["rect", "cosine", "bartlett"])
def test_window_csv_reads_back_as_custom_weights(tmp_path, kind, qubits):
    weights = tmp_path / "w.csv"
    assert dispatch(["window", "--qubits", str(qubits), "--window", kind,
                     "--format", "csv", "--output", str(weights)]) == 0
    assert np.array_equal(load_weights_csv(weights), make_window(kind, 2 ** qubits).weights)
    dist = ["dist", "--qubits", str(qubits), "--phase-frac", "0.1"]
    custom, builtin = tmp_path / "custom.csv", tmp_path / "builtin.csv"
    assert dispatch([*dist, "--window", "custom", "--weights-csv", str(weights),
                     "--output", str(custom)]) == 0
    assert dispatch([*dist, "--window", kind, "--output", str(builtin)]) == 0
    values = [[float(r["value"]) for r in read_csv_rows(path)] for path in (custom, builtin)]
    np.testing.assert_allclose(values[0], values[1], rtol=0, atol=1e-12)
    # Equal bytes hold for cosine only: rect's built-in distribution is the
    # closed form while custom goes through the FFT, and renormalizing
    # Bartlett's weights moves last bits at some N (8 and 1024).
    if kind == "cosine":
        assert custom.read_bytes() == builtin.read_bytes()


@pytest.mark.parametrize("text, message", [
    ("1e308\n1e308\n", "window weights are too large to normalize: their norm overflows"),
    ("hello\nworld\n", "weights CSV: expected one number per row after an optional "
                        "header, or the columns y,value"),
    ("", "weights CSV: 0 weights, expected 2 to 1048576"),
    ("5\n", "weights CSV: 1 weights, expected 2 to 1048576"),
    ("1\nnan\n", "weights CSV: weights must be finite"),
    ("1\n\n2\n", "weights CSV: expected one number per row"),
    ("y,value\n0,1\n0,2\n", "weights CSV: repeated y=0"),
    ("y,value\n0,1\n2,2\n", "weights CSV: y=2 outside [0, 2)"),
    ("y,value\n0,1\n1\n", "weights CSV: every row must be an integer y and a weight"),
    ("y,value\n0,1\n1,inf\n", "weights CSV: weights must be finite"),
    # A byte that is not UTF-8, written through surrogateescape.
    ("1\n\udcff\n", "weights CSV: 'utf-8' codec can't decode byte 0xff"),
    ("y,value\n0,1\n1,\udcff\n", "weights CSV: 'utf-8' codec can't decode byte 0xff"),
])
def test_malformed_weights_csv_is_one_error_line(tmp_path, capsys, text, message):
    weights = tmp_path / "w.csv"
    weights.write_text(text, encoding="utf-8", errors="surrogateescape")
    with warnings.catch_warnings(record=True) as caught:
        warnings.simplefilter("always")
        assert dispatch(["dist", "--qubits", "1", "--phase-frac", "0.1", "--window", "custom",
                         "--weights-csv", str(weights)]) == 1
    assert caught == []
    err = capsys.readouterr().err
    assert err.startswith(f"error: {message}")
    assert err.count("\n") == 1 and "Warning" not in err


@pytest.mark.parametrize("command", [["dist"], ["sample", "--shots", "5"]])
@pytest.mark.parametrize("phase, message", [
    (["--phase-frac", "1e308"], "--phase-frac must give a finite phase"),
    (["--phase-frac", "nan"], "--phase-frac must give a finite phase"),
    (["--phase-rad", "inf"], "--phase-rad must give a finite phase"),
    (["--phase-rad=-inf"], "--phase-rad must give a finite phase"),
])
def test_non_finite_phase_is_one_usage_error_line(command, phase, message, capsys):
    # 2*pi * 1e308 overflows to inf; it is rejected before np.mod would warn.
    with warnings.catch_warnings(record=True) as caught:
        warnings.simplefilter("always")
        assert dispatch([*command, "--qubits", "3", *phase]) == 2
    assert caught == []
    assert capsys.readouterr().err == f"usage error: {message}\n"


@pytest.mark.parametrize("command", [["dist"], ["sample", "--shots", "5"]])
@pytest.mark.parametrize("flag, beyond, within", [
    ("--phase-rad", [1e20, -float(np.nextafter(2.0 ** 34, np.inf))], [2.0 ** 34, -2.0 ** 34]),
    ("--phase-frac", [3e9, -1e300], [2.7e9, -2.7e9]),
])
def test_phase_beyond_the_library_bound_is_one_usage_error_line(command, flag, beyond, within,
                                                                capsys):
    # checks.MAX_PHASE = 2**34 rad bounds the phase in radians before it is wrapped.
    for value in beyond:
        assert dispatch([*command, "--qubits", "3", f"{flag}={value!r}"]) == 2
        assert capsys.readouterr().err == \
            f"usage error: {flag} must give a phase in [-2**34, 2**34] rad\n"
    for value in within:
        assert dispatch([*command, "--qubits", "3", f"{flag}={value!r}"]) == 0


def _run_cli(argv) -> tuple[int, str, str]:
    """dispatch(argv) in process: its exit code, stdout and stderr.  Any
    warning it raises fails the test."""
    out, err = io.StringIO(), io.StringIO()
    with warnings.catch_warnings(record=True) as caught, redirect_stdout(out), \
            redirect_stderr(err):
        warnings.simplefilter("always")
        code = dispatch(argv)
    assert caught == []
    return code, out.getvalue(), err.getvalue()


@settings(max_examples=60, deadline=None)
@given(command=st.sampled_from([["dist"], ["sample", "--shots", "3"]]),
       flag=st.sampled_from(["--phase-rad", "--phase-frac"]), value=st.floats(),
       qubits=st.integers(1, 6), offset=st.booleans())
def test_phase_grammar(command, flag, value, qubits, offset):
    """Any float for either phase flag: exit 2 with one usage line exactly
    when the phase in radians is not finite or beyond 2**34, else exit 0."""
    phase = value if flag == "--phase-rad" else TWO_PI * value
    rejected = not math.isfinite(phase) or abs(phase) > 2.0 ** 34
    argv = [*command, "--qubits", str(qubits), f"{flag}={value!r}"]
    code, out, err = _run_cli(argv + ["--offset-half-cell"] * offset)
    assert code == (2 if rejected else 0)
    if rejected:
        assert err.startswith("usage error: ") and err.count("\n") == 1
    assert "nan" not in out and "inf" not in out


LISTS = dict(min_size=1, max_size=3)
# Plain weights, or weights that may be zero, subnormal, huge or not finite.
WEIGHTS = st.sampled_from([st.floats(-4, 4), st.one_of(
    st.floats(-4, 4), st.sampled_from([0.0, 5e-324, 1e-300, 1e300]), st.floats())])
PHASE = st.one_of(st.floats(-2, 2), st.floats())
QUBITS = st.sampled_from([1, 2, 3, 4, 5, 6, 0])


def _output_argv(data, weights_path) -> list[str]:
    """A window, dist, sample or crb argv of small sizes; every value in
    --flag=value form, so that argparse reads a negative one as a value."""
    command = data.draw(st.sampled_from(["window", "dist", "sample", "crb"]))
    if command == "crb":
        qubits = data.draw(st.lists(QUBITS, **LISTS))
        windows = data.draw(st.lists(st.sampled_from(WINDOW_KINDS), **LISTS))
        shots = data.draw(st.lists(st.integers(0, 20), **LISTS))
        argv = [command, f"--qubits={','.join(map(str, qubits))}",
                f"--windows={','.join(windows)}", f"--shots-list={','.join(map(str, shots))}",
                *data.draw(st.sampled_from([[], [], ["--grid-size=15"], ["--grid-size=16"]]))]
    else:
        qubits = data.draw(QUBITS)
        window = data.draw(st.sampled_from([None, *WINDOW_KINDS]))
        argv = [command, f"--qubits={qubits}", *[f"--window={window}"] * (window is not None)]
        # Mostly a file for a custom window, and sometimes one for another.
        if (window == "custom") == data.draw(st.sampled_from([True, True, True, False])):
            weight = data.draw(WEIGHTS)
            weights = data.draw(st.lists(weight, min_size=2 ** qubits, max_size=2 ** qubits)
                                | st.lists(weight, max_size=70))
            weights_path.write_text("".join(f"{w!r}\n" for w in weights))
            argv.append(f"--weights-csv={weights_path}")
    if command in ("dist", "sample"):
        flag = data.draw(st.sampled_from(["--phase-frac", "--phase-rad"]))
        argv.append(f"{flag}={data.draw(PHASE)!r}")
        argv += ["--offset-half-cell"] * data.draw(st.booleans())
    if command == "sample":
        argv += [f"--shots={data.draw(st.integers(0, 20))}",
                 f"--seed={data.draw(st.integers())}"]
    return argv + data.draw(st.sampled_from([[], ["--format=csv"], ["--format=json"]]))


@settings(max_examples=150, deadline=None,
          suppress_health_check=[HealthCheck.function_scoped_fixture])
@given(data=st.data())
def test_output_path_fuzz(tmp_path, data):
    """Any small window, dist, sample or crb run: exit 0, 1 or 2; one error
    line on failure; no nan or inf printed; --output F holds what stdout shows."""
    argv = _output_argv(data, tmp_path / "weights.csv")
    code, out, err = _run_cli(argv)
    assert code in (0, 1, 2)
    if code:
        assert out == ""
        assert re.fullmatch(r"(usage )?error: [^\n]*\n", err)
    else:
        assert err == "".join(f"seed: {a.removeprefix('--seed=')}\n"
                              for a in argv if a.startswith("--seed="))
        assert not re.search("nan|inf", out, re.IGNORECASE)
    target = tmp_path / "out"
    target.unlink(missing_ok=True)
    assert _run_cli([*argv, f"--output={target}"]) == (code, "", err)
    if code == 0:
        assert target.read_bytes() == out.encode()
    else:
        assert not target.exists()


def _mostly(data, good, bad):
    """A draw from good, or about one time in five from bad."""
    return data.draw(bad if data.draw(st.integers(0, 4)) == 4 else good)


# A JSON value of any type, for a field the reader must check.
JSON_ANY = st.one_of(st.none(), st.booleans(), st.integers(), st.floats(), st.text(max_size=3),
                     st.lists(st.integers(0, 8), max_size=2))


def _sample_set_json(data) -> str:
    """Sample-set JSON text: mostly well formed, with any field possibly wrong."""
    n = data.draw(st.sampled_from([2, 4, 8, 16]))
    payload = {
        "n_points": _mostly(data, st.just(n), JSON_ANY),
        "outcomes": _mostly(data, st.lists(st.integers(0, n - 1), min_size=1, max_size=30),
                            st.lists(st.integers(-2, 20) | JSON_ANY, max_size=5) | JSON_ANY),
    }
    # df pairs a set at offset 0 with one at pi/N.
    offset = _mostly(data, st.sampled_from([None, 0.0, math.pi / n]),
                     st.floats(-7, 7) | JSON_ANY)
    if offset is not None:
        payload["offset"] = offset
    text = json.dumps(payload)
    return _mostly(data, st.just(text), st.sampled_from([text[:-1], "", "[]", "null"]))


def _histogram_csv(data) -> str:
    """Histogram CSV text: mostly well formed, with any row possibly wrong."""
    n = _mostly(data, st.sampled_from([2, 4, 8, 16]), st.sampled_from([0, 1, 3]))
    rows = [[y, data.draw(st.integers(0, 30))] for y in data.draw(st.permutations(range(n)))]
    if rows and data.draw(st.integers(0, 4)) == 4:
        data.draw(st.sampled_from(rows))[1] = data.draw(
            st.sampled_from([-1, 2.5, 10 ** 8, "x", "", "nan"]))
    lines = [f"{y},{count}" for y, count in rows]
    lines += _mostly(data, st.just([]), st.lists(st.sampled_from(["0,1", "99,1", "3", ""]),
                                                 min_size=1, max_size=2))
    header = _mostly(data, st.just("y,value"), st.sampled_from(["y,count", ""]))
    return "\n".join([header, *lines]) + "\n"


def _estimate_argv(data, tmp_path) -> list[str]:
    estimator = data.draw(st.sampled_from(["mean", "aml", "df"]))
    inputs = 2 if estimator == "df" else 1
    argv = ["estimate", f"--estimator={estimator}"]
    wrong = st.sampled_from([count for count in (0, 1, 2, 3) if count != inputs])
    for i in range(_mostly(data, st.just(inputs), wrong)):
        if data.draw(st.booleans()):
            path, text = tmp_path / f"in{i}.json", _sample_set_json(data)
        else:
            path, text = tmp_path / f"in{i}.csv", _histogram_csv(data)
        path.write_text(text)
        argv.append(f"--input={path}")
    argv += _mostly(data, st.sampled_from([[], ["--bins-kept=2"], ["--bins-kept=16"]]),
                    st.sampled_from([["--bins-kept=1"], ["--bins-kept=40"]]))
    argv += _mostly(data, st.sampled_from([[], ["--grid-points=3"], ["--grid-points=33"]]),
                    st.sampled_from([["--grid-points=4"], ["--grid-points=32769"],
                                     ["--grid-points=32771"], ["--grid-points=-1"]]))
    return argv + ["--offset-half-cell"] * data.draw(st.booleans())


def _csv_list(data, values) -> str:
    return ",".join(map(str, data.draw(st.lists(values, **LISTS))))


@functools.cache
def _reads(kind, flag: str) -> bool:
    """Whether an experiment run of kind (None: --plot-data) reads --flag,
    asked of the CLI's own rule: an unread flag stops it with a usage error."""
    argv = ["experiment", kind or "--plot-data", "--qubits=7", "--threads=1", f"--{flag}=x"]
    return not _run_cli(argv)[2].endswith(f" never reads --{flag}\n")


def _experiment_argv(data, out_dir) -> list[str]:
    """An experiment argv of small sizes: each value mostly valid."""
    kind = _mostly(data, st.sampled_from(EXPERIMENT_KINDS), st.sampled_from([None, "scatter"]))
    argv = ["experiment", *[kind] * (kind is not None)]
    if kind is None or data.draw(st.integers(0, 9)) == 9:
        argv += ["--plot-data", f"--out-dir={out_dir}"]
    if data.draw(st.booleans()):
        argv.append(f"--qubits={_csv_list(data, QUBITS)}")
    else:
        lengths = st.sampled_from([*range(2, 65)] * 2 + [0, 1])
        argv += [f"--record-length={_csv_list(data, lengths)}", "--allow-any-n"]
    argv.append(f"--shots-list={_csv_list(data, st.sampled_from([*range(1, 21)] + [0]))}")
    # Each list flag is mostly drawn for the runs that read it; the bundle reads neither.
    lists = {"estimators": [*ESTIMATOR_WINDOWS] * 2 + ["hann", ""],
             "windows": [*WINDOW_KINDS] * 2 + ["hann"]}
    for flag, values in lists.items():
        reads = _reads(kind, flag)
        if _mostly(data, st.just(reads), st.just(not reads)):
            argv.append(f"--{flag}={_csv_list(data, st.sampled_from(values))}")
    argv += [f"--trials={_mostly(data, st.integers(1, 20), st.integers(-1, 0))}",
             f"--seed={data.draw(st.integers())}",
             f"--threads={_mostly(data, st.just(1), st.sampled_from([0, 2]))}"]
    if data.draw(st.booleans()):
        cell = _mostly(data, st.integers(0, 3), st.integers(-1, 70))
        argv += ["--phase-policy=cell", f"--cell={cell}"]
    argv += ["--cell-units"] * data.draw(st.booleans())
    return argv + data.draw(st.sampled_from([[], ["--format=csv"], ["--format=json"]]))


@settings(max_examples=100, deadline=None,
          suppress_health_check=[HealthCheck.function_scoped_fixture])
@given(data=st.data())
def test_estimate_and_experiment_fuzz(tmp_path, data):
    """Any estimate on small sample-set JSON or histogram CSV files, and any
    small experiment: exit 0, 1 or 2; on failure empty stdout and one error
    line, after at most the seed line; no nan or inf printed.  An experiment
    reads no file, so its arguments decide each of its errors: exit 2,
    before the seed line."""
    if data.draw(st.booleans()):
        argv = _estimate_argv(data, tmp_path)
    else:
        argv = _experiment_argv(data, tmp_path / "bundle")
    code, out, err = _run_cli(argv)
    assert code in (0, 1, 2)
    if code:
        assert out == ""
        assert re.fullmatch(r"(seed: -?\d+\n)?(usage )?error: [^\n]*\n", err)
        assert argv[0] == "estimate" or (code == 2 and err.startswith("usage error: "))
    assert not re.search("nan|inf", out, re.IGNORECASE)


def test_sample_set_json_beyond_the_outcome_bound_is_rejected(tmp_path, capsys, monkeypatch):
    monkeypatch.setattr(phasekit.model, "MAX_SHOTS", 3)
    path = tmp_path / "s.json"
    estimate = ["estimate", "--estimator", "mean", "--input", str(path)]
    path.write_text('{"n_points": 8, "outcomes": [1, 2, 2]}')
    assert dispatch(estimate) == 0
    path.write_text('{"n_points": 8, "outcomes": [1, 2, 2, 3]}')
    assert dispatch(estimate) == 1
    assert "error: sample-set JSON: more than 3 outcomes" in capsys.readouterr().err


def test_randomized_commands_echo_seed(tmp_path, capsys):
    dispatch(["sample", "--qubits", "3", "--window", "rect", "--shots", "5",
              "--phase-frac", "0.2", "--seed", "77", "--output", str(tmp_path / "s.json")])
    assert "seed: 77" in capsys.readouterr().err
    dispatch(["experiment", "rmse-vs-shots", "--qubits", "4", "--shots-list", "4",
              "--estimators", "df", "--trials", "5", "--seed", "13",
              "--output", str(tmp_path / "e.csv")])
    assert "seed: 13" in capsys.readouterr().err


@pytest.mark.parametrize("argv, message", [
    (["rmse-vs-n", "--qubits", "7.5"], "--qubits must be comma-separated integers"),
    (["rmse-vs-shots", "--qubits", "3", "--trials", "-1"], "trials must be >= 0"),
    (["--plot-data", "--qubits", "7", "--trials", "1000001"], "trials must be <= 1000000"),
    (["--plot-data", "--qubits", "abc"], "--qubits must be comma-separated integers"),
    (["--plot-data", "--qubits", "8"],
     "--plot-data draws its figures at record length 128 (--qubits 7)"),
    (["rmse-vs-shots", "--plot-data", "--qubits", "7"], "--plot-data takes no experiment kind"),
    (["--plot-data", "--qubits", "7", "--shots-list", "zz"],
     "--shots-list must be comma-separated integers"),
    (["rmse-vs-shots", "--qubits", "7", "--trials", "0"],
     "RMSE experiments need at least one trial"),
    (["--plot-data", "--qubits", "7", "--trials", "0"],
     "RMSE experiments need at least one trial"),
])
def test_experiment_usage_error_is_one_stderr_line(argv, message, tmp_path, capsys):
    # The seed is echoed, and the bundle's directory made, only once the
    # run's arguments are known to be valid.
    out_dir = tmp_path / "bundle"
    assert dispatch(["experiment", *argv, "--seed", "4", "--out-dir", str(out_dir)]) == 2
    assert capsys.readouterr().err == f"usage error: {message}\n"
    assert not out_dir.exists()


def test_threads_env_default(tmp_path, monkeypatch):
    monkeypatch.setenv("PHASEKIT_THREADS", "2")
    out = tmp_path / "env.csv"
    assert dispatch(["experiment", "rmse-vs-shots", "--qubits", "4", "--shots-list", "6",
                     "--estimators", "df", "--trials", "40", "--seed", "3",
                     "--output", str(out)]) == 0
    ref = tmp_path / "ref.csv"
    monkeypatch.delenv("PHASEKIT_THREADS")
    assert dispatch(["experiment", "rmse-vs-shots", "--qubits", "4", "--shots-list", "6",
                     "--estimators", "df", "--trials", "40", "--seed", "3",
                     "--output", str(ref)]) == 0
    assert out.read_bytes() == ref.read_bytes()


@pytest.mark.parametrize("argv, message", [
    *[([*command, *lengths], f"{command[0]} takes one record length")
      for command in (["window"], ["dist", "--phase-frac", "0.1"],
                      ["sample", "--phase-frac", "0.1", "--shots", "5"])
      for lengths in (["--qubits", "3,4"], ["--record-length", "8,16"])],
    (["window", "--qubits", "x"], "--qubits must be comma-separated integers"),
])
def test_single_length_usage_error_is_one_stderr_line(argv, message, capsys):
    assert dispatch(argv) == 2
    assert capsys.readouterr().err == f"usage error: {message}\n"


def test_sample_and_estimate_roundtrip(tmp_path):
    phase_frac = 41.5 / 128
    set1, set2 = tmp_path / "s1.json", tmp_path / "s2.json"
    base = ["sample", "--qubits", "7", "--window", "rect", "--shots", "8000",
            "--phase-frac", str(phase_frac)]
    assert dispatch(base + ["--seed", "5", "--output", str(set1)]) == 0
    assert dispatch(base + ["--seed", "6", "--offset-half-cell", "--output", str(set2)]) == 0

    result = tmp_path / "est.json"
    assert dispatch(["estimate", "--estimator", "df", "--input", str(set1),
                     "--input", str(set2), "--output", str(result)]) == 0
    payload = json.loads(result.read_text())
    truth = TWO_PI * phase_frac
    assert circ_distance(payload["spec"]["estimate"], truth) < TWO_PI / 128 / 10
    assert len(payload["spec"]["candidates"]) == 4

    mean_out = tmp_path / "mean.json"
    assert dispatch(["estimate", "--estimator", "mean", "--input", str(set1),
                     "--output", str(mean_out)]) == 0
    mean_payload = json.loads(mean_out.read_text())
    assert circ_distance(mean_payload["spec"]["estimate"], truth) < 0.05

    aml_out = tmp_path / "aml.json"
    assert dispatch(["estimate", "--estimator", "aml", "--input", str(set2),
                     "--output", str(aml_out)]) == 0
    aml_payload = json.loads(aml_out.read_text())
    assert circ_distance(aml_payload["spec"]["estimate"], truth) < TWO_PI / 128


def test_estimate_mean_takes_the_offset_out(tmp_path, capsys):
    # mean read only the outcomes: 2.0800, against 1.9120 by aml (truth 1.8850).
    path = tmp_path / "s.json"
    assert dispatch(["sample", "--qubits", "4", "--window", "cosine", "--phase-frac", "0.3",
                     "--offset-half-cell", "--seed", "3", "--shots", "20000",
                     "--output", str(path)]) == 0
    estimates = {}
    for estimator in ("mean", "aml"):
        assert dispatch(["estimate", "--estimator", estimator, "--input", str(path)]) == 0
        estimates[estimator] = json.loads(capsys.readouterr().out)["spec"]["estimate"]
    truth = TWO_PI * 0.3
    assert circ_distance(estimates["mean"], truth) < 0.01
    assert circ_distance(estimates["mean"], estimates["aml"]) < 0.05


@pytest.mark.parametrize("argv, message", [
    (["estimate", "--estimator", "mean"], "the following arguments are required: --input"),
    (["experiment", "bogus-kind", "--qubits", "3"], "argument kind: invalid choice: 'bogus-kind'"),
    (["window", "--qubits", "3", "--bogus"], "unrecognized arguments: --bogus"),
])
def test_parse_errors_are_one_usage_error_line(argv, message):
    code, out, err = _run_cli(argv)
    assert (code, out) == (2, "")
    assert err.startswith(f"usage error: {message}") and err.count("\n") == 1


def test_help_still_prints_the_usage(capsys):
    assert dispatch(["estimate", "--help"]) == 0
    assert capsys.readouterr().out.startswith("usage: phasekit estimate")


def test_estimate_from_histogram_csv(tmp_path):
    phase_frac = 20.4 / 64
    hist_csv = tmp_path / "h.csv"
    assert dispatch(["sample", "--qubits", "6", "--window", "rect", "--shots", "500",
                     "--phase-frac", str(phase_frac), "--seed", "9",
                     "--format", "csv", "--output", str(hist_csv)]) == 0
    out = tmp_path / "est.json"
    assert dispatch(["estimate", "--estimator", "aml", "--input", str(hist_csv),
                     "--output", str(out)]) == 0
    payload = json.loads(out.read_text())
    assert circ_distance(payload["spec"]["estimate"], TWO_PI * phase_frac) < TWO_PI / 64


def test_estimate_df_needs_two_inputs(tmp_path):
    s = tmp_path / "s.json"
    dispatch(["sample", "--qubits", "4", "--window", "rect", "--shots", "10",
              "--phase-frac", "0.2", "--seed", "1", "--output", str(s)])
    assert dispatch(["estimate", "--estimator", "df", "--input", str(s)]) == 2


def test_crb_subcommand(tmp_path):
    out = tmp_path / "crb.csv"
    assert dispatch(["crb", "--qubits", "7", "--windows", "rect,cosine",
                     "--shots-list", "1,10", "--output", str(out)]) == 0
    rows = read_csv_rows(out)
    assert len(rows) == 4
    rect1 = next(r for r in rows if r["window"] == "rect" and float(r["x"]) == 1)
    cos1 = next(r for r in rows if r["window"] == "cosine" and float(r["x"]) == 1)
    assert float(rect1["sqrt_crb"]) < float(cos1["sqrt_crb"])


def test_experiment_rerun_byte_identical(tmp_path):
    out1, out2 = tmp_path / "a.csv", tmp_path / "b.csv"
    args = ["experiment", "rmse-vs-shots", "--qubits", "6", "--shots-list", "8,16",
            "--estimators", "df", "--trials", "100", "--seed", "42"]
    assert dispatch(args + ["--output", str(out1)]) == 0
    assert dispatch(args + ["--output", str(out2)]) == 0
    assert out1.read_bytes() == out2.read_bytes()


def test_experiment_threads_byte_identical(tmp_path):
    outs = []
    for i, threads in enumerate(("1", "2")):
        out = tmp_path / f"t{i}.csv"
        assert dispatch(["experiment", "rmse-vs-shots", "--qubits", "6",
                         "--shots-list", "12", "--estimators", "df",
                         "--trials", "80", "--seed", "3", "--threads", threads,
                         "--output", str(out)]) == 0
        outs.append(out.read_bytes())
    assert outs[0] == outs[1]


def test_threads_change_no_json_byte(capsys, monkeypatch):
    # The spec that the JSON echoes is the same at every thread count.
    monkeypatch.setattr("os.cpu_count", lambda: 2)
    outs = []
    for threads in ("1", "2"):
        assert dispatch(["experiment", "rmse-vs-shots", "--qubits", "4", "--shots-list", "6",
                         "--trials", "10", "--seed", "3", "--threads", threads,
                         "--format", "json"]) == 0
        outs.append(capsys.readouterr().out)
    assert outs[0] == outs[1]


def test_experiment_requires_kind_or_plot_data():
    assert dispatch(["experiment", "--qubits", "6"]) == 2


def test_scatter_cell_units(tmp_path):
    args = ["experiment", "scatter", "--record-length", "100", "--allow-any-n",
            "--shots-list", "30", "--estimators", "aml", "--trials", "50",
            "--seed", "1", "--phase-policy", "cell", "--cell", "10"]
    rad_out, cell_out = tmp_path / "rad.csv", tmp_path / "cells.csv"
    assert dispatch(args + ["--output", str(rad_out)]) == 0
    assert dispatch(args + ["--cell-units", "--output", str(cell_out)]) == 0
    rad = [float(r["signed_error"]) for r in read_csv_rows(rad_out)]
    cells = [float(r["signed_error"]) for r in read_csv_rows(cell_out)]
    assert len(rad) == 50
    scale = 100 / TWO_PI
    assert all(c == pytest.approx(r * scale, rel=1e-12) for r, c in zip(rad, cells))


@pytest.mark.parametrize("kind", [kind for kind in EXPERIMENT_KINDS if kind != "scatter"])
def test_cell_units_outside_scatter_is_a_usage_error(kind):
    """Only scatter rows, and the bundle's scatter figures, are in cell units:
    any other kind rejects --cell-units before the seed line.  The flags
    every kind reads stay accepted."""
    run = ["experiment", kind, "--qubits", "3", "--shots-list", "4", "--trials", "3",
           "--seed", "5"]
    assert _run_cli(run + ["--cell-units"]) == (
        2, "", "usage error: --cell-units applies only to scatter and --plot-data\n")
    code, out, err = _run_cli(run)
    assert (code, err) == (0, "seed: 5\n") and out


@pytest.mark.parametrize("kind", [*EXPERIMENT_KINDS, "--plot-data"])
@pytest.mark.parametrize("value", ["hann", "rect", "aml"])
def test_a_list_flag_the_kind_never_reads_is_a_usage_error(kind, value, tmp_path, monkeypatch):
    """crb-curve reads --windows and no --estimators; every other kind the
    reverse.  The --plot-data bundle sets its own lists and writes to
    --out-dir, so it reads neither list and no --output.  A flag the run
    never reads is rejected, valid value or not, before the seed line and
    the bundle's directory; a kind's run without it keeps its bytes."""
    monkeypatch.chdir(tmp_path)
    if kind == "--plot-data":
        run = ["experiment", kind, "--qubits", "7", "--trials", "1", "--out-dir", "D"]
        unread = [["--estimators", value], ["--windows", value], ["--output", "x.csv"]]
    else:
        run = ["experiment", kind, "--qubits", "3", "--shots-list", "4", "--trials", "3",
               "--seed", "5"]
        unread = [["--estimators" if kind == "crb-curve" else "--windows", value]]
    for flag, arg in unread:
        assert _run_cli(run + [flag, arg]) == (2, "", f"usage error: {kind} never reads {flag}\n")
    assert not any(tmp_path.iterdir())
    if kind != "--plot-data":
        code, out, err = _run_cli(run)
        assert (code, err) == (0, "seed: 5\n") and out


def test_crb_without_windows_prices_the_default_windows():
    run = ["crb", "--qubits", "5"]
    code, out, err = _run_cli(run)
    assert (code, err) == (0, "") and out.count("\n") == 4
    assert _run_cli(run + ["--windows", "rect,cosine,bartlett"]) == (code, out, err)


def test_plot_data_bundle(tmp_path):
    assert dispatch(["experiment", "--plot-data", "--qubits", "7", "--trials", "40",
                     "--seed", "2", "--out-dir", str(tmp_path)]) == 0
    for name in ("fig3.csv", "fig4.csv", "fig5.csv", "fig6.csv", "fig7.csv"):
        rows = read_csv_rows(tmp_path / name)
        assert rows, name


def test_plot_data_prices_each_window_and_n_once(tmp_path, grids):
    # fig3's curve reuses the prices of the RMSE sweep at N = 128, and so
    # does fig6 at N = 128: 11 grids, not 16.
    assert dispatch(["experiment", "--plot-data", "--qubits", "7", "--trials", "5",
                     "--seed", "2", "--out-dir", str(tmp_path)]) == 0
    assert grids == [("rect", 128), ("cosine", 128), ("bartlett", 128),
                     *[(w, n) for n in (64, 256, 512, 1024) for w in ("rect", "cosine")]]


def test_plot_data_cell_units_rescale_only_the_scatter_figures(tmp_path):
    run = ["--seed", "3", "--trials", "20"]
    for name, extra in (("rad", []), ("cells", ["--cell-units"])):
        assert dispatch(["experiment", "--plot-data", "--qubits", "7", *run, *extra,
                         "--out-dir", str(tmp_path / name)]) == 0
    for fig in ("fig3.csv", "fig5.csv", "fig6.csv"):
        assert (tmp_path / "cells" / fig).read_bytes() == (tmp_path / "rad" / fig).read_bytes()
    # fig4 and fig7 are the aml and df scatter runs of one cell at N = 100.
    for fig, estimator in (("fig4.csv", "aml"), ("fig7.csv", "df")):
        out = tmp_path / f"scatter-{estimator}.csv"
        assert dispatch(["experiment", "scatter", "--record-length", "100", "--allow-any-n",
                         "--shots-list", "30", "--estimators", estimator,
                         "--phase-policy", "cell", "--cell", "10", "--cell-units", *run,
                         "--output", str(out)]) == 0
        assert (tmp_path / "cells" / fig).read_bytes() == out.read_bytes()


def test_module_entry_point_runs_dispatch(tmp_path, capsys):
    """`python -m phasekit.cli` is main(), the installed `phasekit` script."""
    src = str(Path(phasekit.__file__).parents[1])
    env = dict(os.environ, PYTHONPATH=os.pathsep.join([src, os.environ.get("PYTHONPATH", "")]))

    def run(*argv):
        return subprocess.run([sys.executable, "-m", "phasekit.cli", *argv], env=env,
                              cwd=tmp_path, capture_output=True, text=True, timeout=60)

    done = run("window", "--qubits", "2")
    assert done.returncode == 0
    assert dispatch(["window", "--qubits", "2"]) == 0
    assert done.stdout == capsys.readouterr().out
    done = run("window", "--qubits", "x")
    assert done.returncode == 2
    assert done.stderr == "usage error: --qubits must be comma-separated integers\n"


def test_plot_data_cell_with_opposite_two_shot_outcomes(tmp_path, capsys):
    # At seed 5 one of these 2-shot trials reads two opposite outcomes, whose
    # circular mean is undefined; the trial then guesses a uniform phase.
    out = tmp_path / "m.csv"
    assert dispatch(["experiment", "rmse-vs-shots", "--qubits", "4", "--shots-list", "2",
                     "--estimators", "mean-rect", "--trials", "20", "--seed", "5",
                     "--output", str(out)]) == 0
    (row,) = read_csv_rows(out)
    assert 0 < float(row["rmse"]) <= np.pi


@pytest.mark.parametrize("threads", ["-3", "0", "100000"])
def test_threads_outside_cpu_range_is_usage_error(threads, capsys):
    # Rejected before any experiment runs, so no worker process starts.
    assert dispatch(["experiment", "rmse-vs-shots", "--qubits", "4", "--trials", "5",
                     "--threads", threads]) == 2
    assert "--threads must be in [1, " in capsys.readouterr().err


def test_threads_env_must_be_an_integer(monkeypatch, capsys):
    monkeypatch.setenv("PHASEKIT_THREADS", "abc")
    assert dispatch(["experiment", "rmse-vs-shots", "--qubits", "4", "--trials", "5"]) == 2
    assert "--threads: invalid int value: 'abc'" in capsys.readouterr().err


@pytest.mark.parametrize("command", [
    ["experiment", "rmse-vs-shots", "--qubits", "4", "--trials", "5"],
    ["crb", "--qubits", "4"],
])
@pytest.mark.parametrize("shots", ["-5", "0", "4,0", "x"])
def test_bad_shots_list_is_usage_error(command, shots, capsys):
    assert dispatch([*command, "--shots-list", shots]) == 2
    assert "usage error: --shots-list" in capsys.readouterr().err


@pytest.mark.parametrize("rows, message", [
    ("-1,3\n1,5\n", "y=-1 outside [0, 2)"),
    ("0,3\n2,5\n", "y=2 outside [0, 2)"),
    ("0,3\n1,5\n1,2\n", "repeated y=1"),
    ("0,3\n1,2.5\n", "count 2.5 at y=1 is not an integer"),
    ("", "0 rows, expected 2 to 1048576"),
    ("0,3\n", "1 rows, expected 2 to 1048576"),
    ("0,3\n1\n", "every row must be an integer y and a count"),
    ("0,3\nx,1\n", "every row must be an integer y and a count"),
    ("0,3\n1,-2\n", "count -2.0 at y=1 is not an integer in [0, 10000000]"),
    ("0,3\n1,1e300\n", "count 1e+300 at y=1 is not an integer in [0, 10000000]"),
    ("0,6000000\n1,6000000\n", "counts total more than 10000000"),
    pytest.param("0,3\n1," + "1" * 200_000 + "\n", "field larger than field limit",
                 id="field-beyond-the-csv-limit"),
    # A byte that is not UTF-8, written through surrogateescape.
    ("0,3\n1,\udcff\n", "'utf-8' codec can't decode byte 0xff"),
    ("\udcff,3\n1,5\n", "'utf-8' codec can't decode byte 0xff"),
])
def test_malformed_histogram_csv_is_rejected(tmp_path, capsys, rows, message):
    path = tmp_path / "h.csv"
    path.write_text("y,value\n" + rows, encoding="utf-8", errors="surrogateescape")
    assert dispatch(["estimate", "--estimator", "aml", "--input", str(path)]) == 1
    assert f"error: histogram CSV: {message}" in capsys.readouterr().err


@pytest.mark.parametrize("payload, message", [
    ('{"n_points": 8, "offset": NaN, "outcomes": [1, 2, 3]}', "offset nan is not finite"),
    ('{"n_points": 8, "offset": Infinity, "outcomes": [1]}', "offset inf is not finite"),
    ('{"n_points": 8, "offset": 0.0, "outcomes": [1.7, 2.2, 3.9]}',
     "outcomes must be integers"),
    ('{"n_points": 8, "offset": 0.0, "outcomes": [1, true]}', "outcomes must be integers"),
    ('{"n_points": 8, "offset": 0.0, "outcomes": 3}', "outcomes must be integers"),
    ('{"n_points": 8, "offset": 0.0}', "expected an object with n_points and outcomes"),
    ('[1, 2]', "expected an object with n_points and outcomes"),
    ('{"n_points": [4], "offset": 0.0, "outcomes": [1]}', "n_points must be an integer"),
    ('{"n_points": 1, "offset": 0.0, "outcomes": [0]}', "n_points must be >= 2"),
    ('{"n_points": true, "offset": 0.0, "outcomes": [0]}', "n_points must be an integer"),
    ('{"n_points": 2097152, "offset": 0.0, "outcomes": [0]}',
     "n_points must be <= 1048576"),
    ('{"n_points": 8, "offset": null, "outcomes": [1]}', "offset must be a number"),
    ('{"n_points": 8, "offset": "0.5", "outcomes": [1]}', "offset must be a number"),
    pytest.param('{"n_points": 8, "offset": 1' + "0" * 400 + ', "outcomes": [1]}',
                 "offset inf is not finite", id="offset-beyond-the-float-range"),
    # With this offset, estimate --estimator mean printed 0.7234... for a set
    # whose circular mean is pi/2; an offset takes the phase bound.
    ('{"n_points": 8, "offset": 1e300, "outcomes": [1, 2, 2, 3]}',
     "offset must lie in [-2**34, 2**34]"),
    ('{"n_points": 8, "offset": 0.0, "outcomes": [1, 100000000000000000000000000000]}',
     "outcomes outside [0, 8)"),
    ('{"n_points": 8, "offset": 0.0, "outcomes": [-1]}', "outcomes outside [0, 8)"),
    pytest.param("[" * 100_000 + "]" * 100_000, "nested too deeply", id="deep-nesting"),
    ('{"n_points": 8, "outcomes": [1, 2', "Expecting ',' delimiter: line 1 column 34"),
    ("", "Expecting value: line 1 column 1 (char 0)"),
    ('{"n_points": 8, "offset": 0.0, "outcomes": [1]} x', "Extra data: line 1 column 49"),
    # A byte that is not UTF-8, written through surrogateescape.
    ('\udcff{"n_points": 8, "outcomes": [1]}', "'utf-8' codec can't decode byte 0xff"),
    ('{"n_points": 8, "outcomes": [1], "offset": "\udcff"}',
     "'utf-8' codec can't decode byte 0xff"),
])
def test_malformed_sample_set_json_is_rejected(tmp_path, capsys, payload, message):
    path = tmp_path / "s.json"
    path.write_text(payload, encoding="utf-8", errors="surrogateescape")
    assert dispatch(["estimate", "--estimator", "aml", "--input", str(path)]) == 1
    assert f"error: sample-set JSON: {message}" in capsys.readouterr().err


@pytest.mark.parametrize("argv, message", [
    (["experiment", "rmse-vs-shots", "--qubits", "4", "--trials", "-1"],
     "trials must be >= 0"),
    (["experiment", "--plot-data", "--qubits", "7", "--trials", "-1"],
     "trials must be >= 0"),
    (["estimate", "--estimator", "aml", "--input", "unread.json", "--bins-kept", "1"],
     "bins_kept must be >= 2"),
    (["estimate", "--estimator", "aml", "--input", "unread.json", "--grid-points", "4"],
     "grid_points must be odd and >= 3"),
    (["crb", "--qubits", "4", "--grid-size", "4"], "crb_grid_size must be >= 16"),
    (["experiment", "scatter", "--qubits", "4", "--shots-list", "30,40", "--trials", "5"],
     "scatter runs take exactly one N, one N_s and one estimator"),
    (["experiment", "rmse-vs-shots", "--qubits", "4", "--estimators", "foo", "--trials", "5"],
     "unknown estimator 'foo'"),
    (["crb", "--qubits", "4", "--windows", "foo"], "unknown window 'foo'"),
    (["experiment", "crb-curve", "--qubits", "4", "--windows", "rect,custom"],
     "unknown window 'custom'"),
    (["experiment", "rmse-vs-shots", "--qubits", "4", "--estimators", "df",
      "--shots-list", "1", "--trials", "5"],
     "dual-frequency estimation needs at least 2 shots"),
    # Each size is checked before anything is sized from it, so these
    # allocate nothing (2 ** 1000000000 alone would be a 125 MB integer).
    (["window", "--qubits", "21"], "--qubits must be in [1, 20]"),
    (["window", "--qubits", "0"], "--qubits must be in [1, 20]"),
    (["dist", "--qubits", "1000000000", "--phase-frac", "0.1"], "--qubits must be in [1, 20]"),
    (["crb", "--qubits", "4,1000000000"], "--qubits must be in [1, 20]"),
    (["experiment", "rmse-vs-n", "--qubits", "21", "--trials", "5"],
     "--qubits must be in [1, 20]"),
    (["window", "--record-length", "1048577", "--allow-any-n"],
     "record length must be <= 1048576"),
    (["experiment", "rmse-vs-n", "--record-length", "64,2097152", "--trials", "5"],
     "record length must be <= 1048576"),
    (["sample", "--qubits", "4", "--phase-frac", "0.1", "--shots", "10000001"],
     "--shots must be in [1, 10000000]"),
    (["sample", "--qubits", "4", "--phase-frac", "0.1", "--shots", "0"],
     "--shots must be in [1, 10000000]"),
    (["experiment", "rmse-vs-shots", "--qubits", "4", "--shots-list", "30,10000001",
      "--trials", "5"], "--shots-list entries must be in [1, 10000000]"),
    (["crb", "--qubits", "4", "--shots-list", "10000001"],
     "--shots-list entries must be in [1, 10000000]"),
    (["experiment", "rmse-vs-n", "--qubits", "4,x", "--trials", "5"],
     "--qubits must be comma-separated integers"),
    (["crb", "--record-length", "16,y"], "--record-length must be comma-separated integers"),
    (["experiment", "rmse-vs-shots", "--qubits", "4", "--shots-list", "30,z"],
     "--shots-list must be comma-separated integers"),
    (["experiment", "scatter", "--qubits", "4", "--trials", "1000000000000"],
     "trials must be <= 1000000"),
    (["experiment", "--plot-data", "--qubits", "7", "--trials", "1000001"],
     "trials must be <= 1000000"),
    (["crb", "--qubits", "4", "--grid-size", "1000000000000"],
     "crb_grid_size must be <= 65536"),
    (["estimate", "--estimator", "aml", "--input", "unread.json",
      "--grid-points", "1000000000001"], "grid_points must be <= 32769"),
    # The input count is checked before any file is read.
    (["estimate", "--estimator", "aml", "--input", "unread1.json", "--input", "unread2.json"],
     "aml estimation takes exactly one --input file"),
    (["experiment", "scatter", "--record-length", "100", "--allow-any-n", "--shots-list", "30",
      "--estimators", "aml", "--trials", "5", "--phase-policy", "cell", "--cell", "150"],
     "cell_index must be in [0, 100)"),
])
def test_invalid_argument_values_are_usage_errors(argv, message, capsys):
    assert dispatch(argv) == 2
    assert f"usage error: {message}" in capsys.readouterr().err


@pytest.mark.parametrize("argv, message", [
    # --cell is checked under every phase policy, though only the cell policy reads it.
    (["experiment", "scatter", "--qubits", "3", "--trials", "2", "--cell", "-5"],
     "cell_index must be in [0, 8), a cell of every N"),
    (["experiment", "--plot-data", "--qubits", "7", "--trials", "2", "--cell", "128",
      "--out-dir", "unwritten"], "cell_index must be in [0, 128), a cell of every N"),
    # A repeated list entry would run its rows twice.
    (["experiment", "rmse-vs-shots", "--qubits", "3,3", "--shots-list", "4", "--trials", "3"],
     "n_points repeats an entry"),
    (["experiment", "rmse-vs-shots", "--qubits", "3", "--shots-list", "4,4", "--trials", "3"],
     "n_shots repeats an entry"),
    (["experiment", "rmse-vs-shots", "--qubits", "3", "--shots-list", "4", "--trials", "3",
      "--estimators", "df,df"], "estimators repeats an entry"),
    (["crb", "--qubits", "3", "--windows", "rect,rect"], "windows repeats an entry"),
], ids=["cell-uniform", "cell-plot-data", "qubits", "shots-list", "estimators", "windows"])
def test_unread_cell_and_repeated_entries_are_usage_errors(argv, message, tmp_path,
                                                           monkeypatch):
    monkeypatch.chdir(tmp_path)
    assert _run_cli(argv) == (2, "", f"usage error: {message}\n")
    assert not any(tmp_path.iterdir())


def test_plot_data_runs_its_own_cells_whatever_the_in_range_cell(tmp_path):
    """--cell 100 names a cell of N = 128 but not of fig6's N = 64: the
    bundle sets its own cells, so it runs and writes the bytes of --cell 0."""
    written = {}
    for cell in ("0", "100"):
        out_dir = tmp_path / cell
        code, out, _ = _run_cli(["experiment", "--plot-data", "--qubits", "7", "--trials", "2",
                                 "--cell", cell, "--out-dir", str(out_dir)])
        assert (code, out) == (0, "")
        written[cell] = {p.name: p.read_bytes() for p in sorted(out_dir.iterdir())}
    assert written["0"] == written["100"] and len(written["0"]) == 5


@pytest.mark.parametrize("offset", [[], ["--offset-half-cell"]])
def test_df_on_two_histogram_csvs_is_a_usage_error(offset):
    """Both CSVs get the same offset, so the pair cannot form: exit 2 before
    either file is opened (neither exists), not exit 1 after reading both."""
    argv = ["estimate", "--estimator", "df", "--input", "unread1.csv",
            "--input", "unread2.csv", *offset]
    assert _run_cli(argv) == (2, "", "usage error: df estimation needs a sample-set JSON "
                              "--input: two histogram CSVs share one offset, so they "
                              "cannot form a df pair\n")


def test_crb_accepts_one_shot_with_the_default_estimators(capsys):
    # The spec's df shot check covers runs that estimate, not bound curves.
    assert dispatch(["crb", "--qubits", "4", "--shots-list", "1", "--windows", "rect"]) == 0
    assert capsys.readouterr().out.startswith("x,window,sqrt_crb\n1,rect,")


def test_estimate_has_no_format_option(capsys):
    assert dispatch(["estimate", "--estimator", "mean", "--input", "unread.json",
                     "--format", "csv"]) == 2
    assert "unrecognized arguments: --format csv" in capsys.readouterr().err


def test_empty_histogram_csv_is_rejected(tmp_path, capsys):
    path = tmp_path / "h.csv"
    path.write_text("")
    assert dispatch(["estimate", "--estimator", "aml", "--input", str(path)]) == 1
    assert "error: expected histogram CSV with columns y,value" in capsys.readouterr().err
