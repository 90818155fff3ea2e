"""Every file format phasekit reads or writes.

CSV files are comma-separated with a header row, LF line endings, and
floats printed with 17 significant digits so they round-trip exactly.
Tables and y,value listings in JSON are one top-level object with "spec"
and "rows" keys; a table's columns, in CSV and JSON alike, are the ones
its `columns` property names.  A sample set is its own JSON object
(n_points, offset, outcomes).

Renderers return text and write nothing: table_to_csv and table_to_json
for tables, write_values for a y,value listing (window weights, a
distribution, a histogram) in CSV or JSON, sample_set_to_json for a
sample set, and write_csv and write_json beneath them.  save_text(text,
path) is the one function that writes a file.

Readers:
  read_histogram_csv    y,value CSV of integer counts
  read_sample_set_json  sample-set JSON
  read_sample_set       either of the two, chosen by the .csv suffix
  load_weights_csv      custom window weights: y,value CSV, or one column
                        with an optional header

Each reader returns a value or raises ValueError, whatever the file holds.
A CSV is parsed row by row as it is read, into arrays rather than a list
of rows, up to its MAX_RECORD_LENGTH + 2nd row and no further, and
record lengths above MAX_RECORD_LENGTH and shot or outcome totals above
MAX_SHOTS are rejected, so no file sizes an allocation beyond them.
"""

from __future__ import annotations

import array
import csv
import io as _io
import itertools
import json
import math
import sys
from dataclasses import asdict, is_dataclass

import numpy as np

from .model import Histogram, SampleSet

# The largest record length and shot total that a file or a command-line
# argument may ask for, so that no input sizes an allocation beyond them.
MAX_RECORD_LENGTH = 2 ** 20
MAX_SHOTS = 10 ** 7

Y_VALUE = ["y", "value"]


def format_value(value) -> str:
    if isinstance(value, (float, np.floating)):
        return f"{value:.17g}"
    return str(value)


def save_text(text: str, path) -> None:
    """Write text to path as is (no newline translation)."""
    with open(path, "w", newline="") as fh:
        fh.write(text)


def write_csv(header, rows) -> str:
    """Render rows (sequences or dataclasses) as CSV."""
    buf = _io.StringIO()
    writer = csv.writer(buf, lineterminator="\n")
    writer.writerow(header)
    for row in rows:
        if is_dataclass(row):
            row = [getattr(row, name) for name in header]
        writer.writerow([format_value(v) for v in row])
    return buf.getvalue()


def write_json(spec, rows) -> str:
    """Render {"spec": ..., "rows": [...]} JSON."""
    payload = {"spec": _plain(spec), "rows": [_plain(r) for r in rows]}
    return json.dumps(payload, indent=2) + "\n"


def table_to_csv(table) -> str:
    return write_csv(table.columns, table.rows)


def table_to_json(table) -> str:
    columns = table.columns
    rows = [{c: getattr(r, c) for c in columns} for r in table.rows]
    return write_json(table.spec, rows)


def _plain(obj):
    if is_dataclass(obj) and not isinstance(obj, type):
        obj = asdict(obj)
    if isinstance(obj, dict):
        return {k: _plain(v) for k, v in obj.items()}
    if isinstance(obj, (list, tuple)):
        return [_plain(v) for v in obj]
    if isinstance(obj, np.ndarray):
        return obj.tolist()
    if isinstance(obj, (np.integer,)):
        return int(obj)
    if isinstance(obj, (np.floating,)):
        return float(obj)
    return obj


def write_values(values, spec=None, fmt: str = "csv") -> str:
    """A y,value listing of values: CSV rows, or JSON rows under spec."""
    rows = list(enumerate(values))
    if fmt == "csv":
        return write_csv(Y_VALUE, rows)
    return write_json(spec, [{"y": y, "value": float(v)} for y, v in rows])


def _read_csv(path, what: str, parse):
    """parse(first, rows) of a CSV file: its first row ([] when it is empty)
    and an iterator over the rows after it, read as parse consumes them up to
    row MAX_RECORD_LENGTH + 2 (a header, the largest record, and one row more
    to tell that it is too long)."""
    try:
        with open(path, newline="") as fh:
            rows = itertools.islice(csv.reader(fh), MAX_RECORD_LENGTH + 2)
            try:
                return parse(next(rows, []), rows)
            finally:
                # A malformed row up to the bound outranks parse's own error.
                for _ in rows:
                    pass
    except csv.Error as exc:
        raise ValueError(f"{what}: {exc}") from None


def _check_count(n: int, what: str, unit: str):
    if n > MAX_RECORD_LENGTH:
        raise ValueError(f"{what}: more than {MAX_RECORD_LENGTH} {unit}")
    if n < 2:
        raise ValueError(f"{what}: {n} {unit}, expected 2 to {MAX_RECORD_LENGTH}")


def _parse_y_values(rows, what: str, value_name: str) -> np.ndarray:
    """The values of the y,value rows under the header, indexed by y: each y
    in [0, rows) appears exactly once.

    Rows are parsed as they are read, into two arrays.  Whether a y lies
    below the row count is known only at the end, so the first row that no
    count could accept stops the parsing but not the counting, and the
    error raised is that of the first bad row, as in a check row by row.
    """
    ys, vs = array.array("q"), array.array("d")
    seen = bytearray(MAX_RECORD_LENGTH + 1)
    error = far_y = None
    n = 0
    for n, row in enumerate(rows, 1):
        if error or far_y is not None:
            continue
        try:
            y, v = row
            y, v = int(y), float(v)
        except ValueError:
            error = f"{what}: every row must be an integer y and a {value_name}"
            continue
        if not 0 <= y <= MAX_RECORD_LENGTH:
            far_y = y
        elif seen[y]:
            error = f"{what}: repeated y={y}"
        else:
            seen[y] = 1
            ys.append(y)
            vs.append(v)
    y = np.frombuffer(ys, dtype=np.int64)
    outside = np.flatnonzero(y >= n)
    if outside.size:
        far_y = y[outside[0]]
    if far_y is not None:
        raise ValueError(f"{what}: y={far_y} outside [0, {n})")
    if error:
        raise ValueError(error)
    values = np.empty(n)
    values[y] = np.frombuffer(vs)
    return values


def read_histogram_csv(path) -> Histogram:
    """Histogram from a y,value CSV of integer counts in [0, MAX_SHOTS]."""
    def parse(header, rows):
        if header[:2] != Y_VALUE:
            raise ValueError("expected histogram CSV with columns y,value")
        return _parse_y_values(rows, "histogram CSV", "count")

    values = _read_csv(path, "histogram CSV", parse)
    _check_count(len(values), "histogram CSV", "rows")
    bad = np.flatnonzero(~((values == np.floor(values)) & (values >= 0)
                           & (values <= MAX_SHOTS)))
    if bad.size:
        y = int(bad[0])
        raise ValueError(f"histogram CSV: count {float(values[y])!r} at y={y} "
                         f"is not an integer in [0, {MAX_SHOTS}]")
    counts = values.astype(np.int64)
    total = int(counts.sum())
    if total > MAX_SHOTS:
        raise ValueError(f"histogram CSV: counts total more than {MAX_SHOTS}")
    return Histogram(len(counts), counts, total)


def load_weights_csv(path) -> np.ndarray:
    """Finite custom-window weights: a y,value CSV as `window` writes it, or
    one weight per row after an optional header, 2 to MAX_RECORD_LENGTH in all."""
    def parse(first, rows):
        if first[:2] == Y_VALUE:
            return _parse_y_values(rows, "weights CSV", "weight")
        return _parse_column(first, rows)

    weights = _read_csv(path, "weights CSV", parse)
    _check_count(len(weights), "weights CSV", "weights")
    if not np.all(np.isfinite(weights)):
        raise ValueError("weights CSV: weights must be finite")
    return weights


def _parse_column(first, rows) -> np.ndarray:
    """One weight per row, after an optional header row: the first row is
    one unless it is a single number."""
    weights = array.array("d")
    for i, row in enumerate(itertools.chain([first], rows)):
        try:
            (v,) = row
            weights.append(float(v))
        except ValueError:
            if i == 0:
                continue
            raise ValueError("weights CSV: expected one number per row after an optional "
                             "header, or the columns y,value") from None
    return np.array(weights)


def read_sample_set(path, offset_half_cell: bool = False) -> SampleSet:
    """Sample set from JSON, or expanded from a histogram CSV (a .csv path),
    which carries no offset: offset_half_cell declares one of pi/N."""
    if str(path).endswith(".csv"):
        hist = read_histogram_csv(path)
        outcomes = np.repeat(np.arange(hist.n_points), hist.counts)
        offset = np.pi / hist.n_points if offset_half_cell else 0.0
        return SampleSet(hist.n_points, outcomes, offset=offset)
    return read_sample_set_json(path)


def sample_set_to_json(samples: SampleSet) -> str:
    payload = {
        "n_points": samples.n_points,
        "offset": samples.offset,
        "outcomes": samples.outcomes.tolist(),
    }
    return json.dumps(payload) + "\n"


def read_sample_set_json(path) -> SampleSet:
    """Sample set from JSON: n_points in [2, MAX_RECORD_LENGTH], at most
    MAX_SHOTS integer outcomes in [0, n_points) and a finite offset."""
    try:
        with open(path) as fh:
            payload = json.load(fh)
    except RecursionError:
        raise ValueError("sample-set JSON: nested too deeply") from None
    if not isinstance(payload, dict) or not {"n_points", "outcomes"} <= payload.keys():
        raise ValueError("sample-set JSON: expected an object with n_points and outcomes")
    n = payload["n_points"]
    if not _is_int(n) or not 2 <= n <= MAX_RECORD_LENGTH:
        raise ValueError(
            f"sample-set JSON: n_points must be an integer in [2, {MAX_RECORD_LENGTH}]")
    outcomes = payload["outcomes"]
    if not isinstance(outcomes, list) or not all(_is_int(y) for y in outcomes):
        raise ValueError("sample-set JSON: outcomes must be integers")
    if len(outcomes) > MAX_SHOTS:
        raise ValueError(f"sample-set JSON: more than {MAX_SHOTS} outcomes")
    if not all(0 <= y < n for y in outcomes):
        raise ValueError(f"sample-set JSON: outcomes outside [0, {n})")
    offset = payload.get("offset", 0.0)
    if isinstance(offset, bool) or not isinstance(offset, (int, float)):
        raise ValueError("sample-set JSON: offset must be a number")
    offset = math.inf if abs(offset) > sys.float_info.max else float(offset)
    if not math.isfinite(offset):
        raise ValueError(f"sample-set JSON: offset {offset!r} is not finite")
    return SampleSet(n, np.asarray(outcomes, dtype=np.int64), offset=offset)


def _is_int(value) -> bool:
    return isinstance(value, int) and not isinstance(value, bool)
