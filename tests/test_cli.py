import csv
import json
import warnings

import numpy as np
import pytest

import phasekit.io
from phasekit.angles import TWO_PI, circ_distance
from phasekit.cli import dispatch
from phasekit.io import MAX_RECORD_LENGTH, load_weights_csv
from phasekit.windows import make_window


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
])
def test_malformed_weights_csv_is_one_error_line(tmp_path, capsys, text, message):
    weights = tmp_path / "w.csv"
    weights.write_text(text)
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


def test_sample_set_json_beyond_the_outcome_bound_is_rejected(tmp_path, capsys, monkeypatch):
    monkeypatch.setattr(phasekit.io, "MAX_SHOTS", 3)
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
    (["rmse-vs-shots", "--qubits", "3", "--trials", "-1"], "trials must be nonnegative"),
    (["--plot-data", "--qubits", "7", "--trials", "1000001"], "trials must be <= 1000000"),
    (["--plot-data", "--qubits", "abc"], "--qubits must be comma-separated integers"),
    (["--plot-data", "--qubits", "8"],
     "--plot-data draws its figures at record length 128 (--qubits 7)"),
    (["rmse-vs-shots", "--plot-data", "--qubits", "7"], "--plot-data takes no experiment kind"),
    (["--plot-data", "--qubits", "7", "--shots-list", "zz"],
     "--shots-list must be comma-separated integers"),
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


def test_plot_data_bundle(tmp_path):
    assert dispatch(["experiment", "--plot-data", "--qubits", "7", "--trials", "40",
                     "--seed", "2", "--out-dir", str(tmp_path)]) == 0
    for name in ("fig3.csv", "fig4.csv", "fig5.csv", "fig6.csv", "fig7.csv"):
        rows = read_csv_rows(tmp_path / name)
        assert rows, name


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
])
def test_malformed_histogram_csv_is_rejected(tmp_path, capsys, rows, message):
    path = tmp_path / "h.csv"
    path.write_text("y,value\n" + rows)
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
    ('{"n_points": [4], "offset": 0.0, "outcomes": [1]}',
     "n_points must be an integer in [2, 1048576]"),
    ('{"n_points": 1, "offset": 0.0, "outcomes": [0]}',
     "n_points must be an integer in [2, 1048576]"),
    ('{"n_points": true, "offset": 0.0, "outcomes": [0]}',
     "n_points must be an integer in [2, 1048576]"),
    ('{"n_points": 2097152, "offset": 0.0, "outcomes": [0]}',
     "n_points must be an integer in [2, 1048576]"),
    ('{"n_points": 8, "offset": null, "outcomes": [1]}', "offset must be a number"),
    ('{"n_points": 8, "offset": "0.5", "outcomes": [1]}', "offset must be a number"),
    pytest.param('{"n_points": 8, "offset": 1' + "0" * 400 + ', "outcomes": [1]}',
                 "offset inf is not finite", id="offset-beyond-the-float-range"),
    ('{"n_points": 8, "offset": 0.0, "outcomes": [1, 100000000000000000000000000000]}',
     "outcomes outside [0, 8)"),
    ('{"n_points": 8, "offset": 0.0, "outcomes": [-1]}', "outcomes outside [0, 8)"),
    pytest.param("[" * 100_000 + "]" * 100_000, "nested too deeply", id="deep-nesting"),
])
def test_malformed_sample_set_json_is_rejected(tmp_path, capsys, payload, message):
    path = tmp_path / "s.json"
    path.write_text(payload)
    assert dispatch(["estimate", "--estimator", "aml", "--input", str(path)]) == 1
    assert f"error: sample-set JSON: {message}" in capsys.readouterr().err


@pytest.mark.parametrize("argv, message", [
    (["experiment", "rmse-vs-shots", "--qubits", "4", "--trials", "-1"],
     "trials must be nonnegative"),
    (["experiment", "--plot-data", "--qubits", "7", "--trials", "-1"],
     "trials must be nonnegative"),
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
     "record length must be in [2, 1048576]"),
    (["experiment", "rmse-vs-n", "--record-length", "64,2097152", "--trials", "5"],
     "record length must be in [2, 1048576]"),
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
