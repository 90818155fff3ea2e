import csv
import io
import json
import os
import subprocess
import sys
from pathlib import Path

import numpy as np
import pytest
from hypothesis import HealthCheck, given, settings
from hypothesis import strategies as st

import phasekit.checks
import phasekit.io
from phasekit.cli import FIG3_COLUMNS
from phasekit.experiments import (
    ESTIMATOR_WINDOWS,
    EXPERIMENT_KINDS,
    ExperimentSpec,
    ExperimentTable,
)
from phasekit.io import (
    Y_VALUE,
    format_value,
    load_weights_csv,
    read_histogram_csv,
    read_sample_set_json,
    sample_set_to_json,
    save_text,
    write_csv,
    write_values,
)
from phasekit.model import SampleSet, distribution, histogram, sample
from phasekit.windows import BUILTIN_WINDOWS, WINDOW_KINDS, make_cosine


def test_floats_have_17_significant_digits():
    assert format_value(np.pi) == "3.1415926535897931"
    assert float(format_value(0.1 + 0.2)) == 0.1 + 0.2


def test_one_integer_rule_for_files_specs_and_configs():
    assert all(phasekit.checks._is_int(v) for v in (3, -3, np.int64(3), np.uint16(3)))
    assert not any(phasekit.checks._is_int(v) for v in (True, np.bool_(True), 3.0, "3", None))


def test_csv_has_header_and_lf_endings(tmp_path):
    path = tmp_path / "t.csv"
    text = write_csv(["y", "value"], [(0, 0.5), (1, 0.25)])
    save_text(text, path)
    assert text == "y,value\n0,0.5\n1,0.25\n"
    assert "\r" not in path.read_bytes().decode()


def _csv_writer_text(header, rows) -> str:
    # The CSV text csv.writer renders, each value through format_value.
    buf = io.StringIO()
    writer = csv.writer(buf, lineterminator="\n")
    writer.writerow(header)
    for row in rows:
        writer.writerow([format_value(v) for v in row])
    return buf.getvalue()


@pytest.mark.parametrize("values", [
    np.array([0.0, -0.0, 5e-324, 1e308, -1e308, 0.1, 1.0, np.pi]),
    np.array([0, 3, 500, 0, 10**7], dtype=np.int64),
    make_cosine(64).weights,
])
def test_value_listing_equals_the_csv_writer(values):
    # Iterating the array gives the oracle numpy scalars, not Python numbers.
    assert write_values(values) == _csv_writer_text(["y", "value"], enumerate(values))


def _column_names() -> list[str]:
    spec = dict(n_points=(8,), n_shots=(30,), estimators=("df",), trials=1)
    return [c for kind in EXPERIMENT_KINDS
            for c in ExperimentTable(ExperimentSpec(kind=kind, **spec)).columns]


# Every name a table or a listing can carry, as a header or as a field.
NAMES = sorted({*BUILTIN_WINDOWS, *WINDOW_KINDS, *ESTIMATOR_WINDOWS, *EXPERIMENT_KINDS,
                *_column_names(), *Y_VALUE, *FIG3_COLUMNS})
CSV_VALUE = st.one_of(
    st.integers(),
    st.sampled_from([0.0, -0.0, 5e-324, 1e308, -1e308, 0.1]),
    st.floats(allow_nan=False, allow_infinity=False),
    # fig3.csv leaves a missing overlay value empty.
    st.sampled_from([*NAMES, ""]),
)


# Every row phasekit writes has two fields or more; csv.writer quotes a
# lone empty field, which no row is.
@settings(max_examples=150, deadline=None)
@given(data=st.data(), width=st.integers(2, 5))
def test_csv_renderer_equals_the_csv_writer(data, width):
    header = data.draw(st.lists(st.sampled_from(NAMES), min_size=width, max_size=width))
    rows = data.draw(st.lists(st.lists(CSV_VALUE, min_size=width, max_size=width),
                              max_size=6))
    assert write_csv(header, rows) == _csv_writer_text(header, rows)


def test_no_name_a_table_or_listing_carries_needs_quoting():
    # write_csv quotes nothing, so none of these may hold a CSV special character.
    assert len(NAMES) > 20
    assert [name for name in NAMES if set(name) & set(',"\r\n')] == []


def test_distribution_csv_roundtrip_values():
    d = distribution(make_cosine(8), 1.1)
    lines = write_values(d.probs).strip().split("\n")
    assert lines[0] == "y,value"
    values = [float(line.split(",")[1]) for line in lines[1:]]
    np.testing.assert_array_equal(values, d.probs)  # 17 digits round-trip exactly


def test_histogram_csv_roundtrip(tmp_path):
    h = histogram(sample(distribution(make_cosine(16), 0.9), 500, seed=4))
    path = tmp_path / "h.csv"
    save_text(write_values(h.counts), path)
    back = read_histogram_csv(path)
    assert np.array_equal(back.counts, h.counts)
    assert back.total == h.total


def test_sample_set_json_roundtrip(tmp_path):
    s = SampleSet(16, np.array([1, 5, 5, 12]), offset=np.pi / 16)
    path = tmp_path / "s.json"
    save_text(sample_set_to_json(s), path)
    back = read_sample_set_json(path)
    assert back.n_points == 16
    assert back.offset == s.offset
    assert np.array_equal(back.outcomes, s.outcomes)
    payload = json.loads(path.read_text())
    assert set(payload) == {"n_points", "offset", "outcomes"}


# Readers either parse a file or raise ValueError: never another exception.
FUZZ = settings(max_examples=300, deadline=None,
                suppress_health_check=[HealthCheck.function_scoped_fixture])


def test_a_failing_property_test_lets_the_later_tests_run(tmp_path):
    # hypothesis's failure report imports a module that warns on import;
    # under the project's filterwarnings = ["error"] that warning must not
    # abort the session and hide every test after the failing fuzzer.
    (tmp_path / "test_pair.py").write_text(
        "from hypothesis import given, strategies as st\n\n\n"
        "@given(st.integers())\n"
        "def test_fails(x):\n"
        "    assert x < 10\n\n\n"
        "def test_passes():\n"
        "    pass\n")
    config = Path(__file__).resolve().parents[1] / "pyproject.toml"
    proc = subprocess.run(
        [sys.executable, "-m", "pytest", "-q", "-p", "no:cacheprovider", "-c", str(config),
         "--rootdir", str(tmp_path), "test_pair.py"],
        cwd=tmp_path, capture_output=True, text=True, timeout=300)
    assert "INTERNALERROR" not in proc.stdout + proc.stderr
    assert "1 failed, 1 passed" in proc.stdout

CSV_CELL = st.one_of(st.integers(-3, 10).map(str), st.floats().map(repr),
                     st.integers().map(str), st.text(max_size=3))
CSV_TEXT = st.one_of(
    st.text(),
    st.lists(st.lists(CSV_CELL, max_size=3).map(",".join), max_size=8).map(
        lambda rows: "\n".join(["y,value", *rows])),
)
JSON_VALUE = st.recursive(
    st.none() | st.booleans() | st.integers() | st.floats() | st.text(max_size=4),
    lambda inner: st.lists(inner, max_size=4) | st.dictionaries(st.text(max_size=4), inner,
                                                                max_size=4),
    max_leaves=12,
)
SAMPLE_SET = st.fixed_dictionaries(
    {"n_points": st.integers(-2, 40) | JSON_VALUE,
     "outcomes": st.lists(st.integers(-2, 40) | JSON_VALUE, max_size=6) | JSON_VALUE},
    optional={"offset": st.floats() | st.integers() | JSON_VALUE},
)
JSON_TEXT = st.one_of(st.text(), JSON_VALUE.map(json.dumps), SAMPLE_SET.map(json.dumps))


def _parses_or_raises_value_error(reader, path, text):
    path.write_bytes(text.encode("utf-8", "surrogatepass"))
    try:
        reader(path)
    except ValueError:
        pass


@FUZZ
@given(text=CSV_TEXT)
def test_histogram_reader_parses_or_raises_value_error(tmp_path, text):
    _parses_or_raises_value_error(read_histogram_csv, tmp_path / "h.csv", text)


@FUZZ
@given(text=JSON_TEXT)
def test_sample_set_reader_parses_or_raises_value_error(tmp_path, text):
    _parses_or_raises_value_error(read_sample_set_json, tmp_path / "s.json", text)


WEIGHTS_TEXT = st.one_of(
    CSV_TEXT,
    st.tuples(st.sampled_from(["", "weight\n"]), st.lists(CSV_CELL, max_size=8)).map(
        lambda parts: parts[0] + "\n".join(parts[1])),
)


@FUZZ
@given(text=WEIGHTS_TEXT)
def test_weights_reader_parses_or_raises_value_error(tmp_path, text):
    path = tmp_path / "w.csv"
    path.write_bytes(text.encode("utf-8", "surrogatepass"))
    try:
        weights = load_weights_csv(path)
    except ValueError:
        return
    assert weights.dtype == np.float64 and weights.ndim == 1
    assert np.all(np.isfinite(weights))


# Past row MAX_RECORD_LENGTH + 2 a reader must not look: a row there that
# the csv module cannot parse would turn the row-count error into another.
@pytest.mark.parametrize("reader, header, message", [
    (read_histogram_csv, "y,value\n", "histogram CSV: more than 4 rows"),
    (load_weights_csv, "y,value\n", "weights CSV: more than 4 weights"),
    (load_weights_csv, "", "weights CSV: more than 4 weights"),
])
def test_csv_readers_stop_after_the_row_bound(tmp_path, monkeypatch, reader, header, message):
    monkeypatch.setattr(phasekit.io, "MAX_RECORD_LENGTH", 4)
    rows = [f"{y},1" if header else "1" for y in range(6)]
    path = tmp_path / "big.csv"
    path.write_text(header + "\n".join(rows) + "\n")
    with pytest.raises(ValueError, match=message):
        reader(path)
    path.write_text(header + "\n".join([*rows, "x" * 200_000]) + "\n")
    with pytest.raises(ValueError, match=message):
        reader(path)


@pytest.mark.parametrize("reader, text, message", [
    # Parse stops at the header or at the bad row, and the reader with it.
    (read_histogram_csv, "y,count\n0,1\n1,2\n", "expected histogram CSV with columns y,value"),
    (load_weights_csv, "0.5\n0.25\nabc\n0.5\n",
     "weights CSV: expected one number per row after an optional header"),
    # A y,value parser reads on to count the rows, so it meets the long field.
    (read_histogram_csv, "y,value\n0,1\nfoo\n", "histogram CSV: field larger than field limit"),
], ids=["histogram-header", "weights-row", "y-value-counting"])
def test_csv_readers_report_the_first_error(tmp_path, reader, text, message):
    path = tmp_path / "bad.csv"
    # Then a field past the csv module's limit, which it raises on once it is read.
    path.write_text(text + "1," + "x" * (csv.field_size_limit() + 1) + "\n")
    with pytest.raises(ValueError, match=message):
        reader(path)


def test_largest_histogram_csv_is_read_without_a_row_list(tmp_path):
    # Rows are parsed as they are read: the reader holds a few arrays of
    # 2**20 entries, not 2**20 lists of strings (~220 MB).
    path = tmp_path / "h.csv"
    n = phasekit.io.MAX_RECORD_LENGTH
    path.write_text("y,value\n" + "".join(f"{y},{y % 5}\n" for y in range(n)))
    code = ("import resource, sys\n"
            "from phasekit.io import read_histogram_csv\n"
            "before = resource.getrusage(resource.RUSAGE_SELF).ru_maxrss\n"
            "hist = read_histogram_csv(sys.argv[1])\n"
            "growth = resource.getrusage(resource.RUSAGE_SELF).ru_maxrss - before\n"
            "print(hist.n_points, hist.total, growth)\n")
    src = Path(phasekit.io.__file__).resolve().parents[1]
    proc = subprocess.run([sys.executable, "-c", code, str(path)], capture_output=True,
                          text=True, timeout=120, check=True,
                          env={**os.environ, "PYTHONPATH": str(src)})
    n_points, total, growth_kib = map(int, proc.stdout.split())
    assert (n_points, total) == (n, sum(y % 5 for y in range(n)))
    assert growth_kib < 100 * 1024


@FUZZ
@given(n=st.integers(2, 64), data=st.data(),
       offset=st.floats(-2.0 ** 34, 2.0 ** 34))  # the phase bound; test_phases goes beyond
def test_sample_set_json_roundtrip_property(tmp_path, n, data, offset):
    outcomes = data.draw(st.lists(st.integers(0, n - 1), max_size=20))
    path = tmp_path / "s.json"
    save_text(sample_set_to_json(SampleSet(n, np.array(outcomes, dtype=np.int64),
                                           offset=offset)), path)
    back = read_sample_set_json(path)
    assert (back.n_points, back.outcomes.tolist(), back.offset) == (n, outcomes, offset)


@pytest.mark.parametrize("payload", [
    {"n_points": 8, "offset": 0, "outcomes": [0, 7]},
    {"n_points": 2, "outcomes": []},
])
def test_sample_set_json_accepts_integer_and_missing_offsets(tmp_path, payload):
    path = tmp_path / "s.json"
    path.write_text(json.dumps(payload))
    back = read_sample_set_json(path)
    assert back.offset == payload.get("offset", 0.0)
    assert back.outcomes.tolist() == payload["outcomes"]
