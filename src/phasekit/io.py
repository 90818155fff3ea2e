"""Every file format phasekit reads or writes.

CSV files are comma-separated with a header row, LF line endings, and
floats printed with 17 significant digits so they round-trip exactly.
Tables and y,value listings in JSON are one top-level object with "spec"
and "rows" keys; a table's columns, in CSV and JSON alike, are the ones
its `columns` property names.  A sample set is its own JSON object
(n_points, offset, outcomes).  Every file is written through save_text.

Writers: table_to_csv and table_to_json for tables, write_values for a
y,value listing (window weights, a distribution, a histogram) in CSV or
JSON, sample_set_to_json for a sample set.

Readers:
  read_histogram_csv    y,value CSV of integer counts
  read_sample_set_json  sample-set JSON
  read_sample_set       either of the two, chosen by the .csv suffix
  load_weights_csv      custom window weights: y,value CSV, or one column
                        with an optional header

Each reader returns a value or raises ValueError, whatever the file holds.
A CSV is read up to its MAX_RECORD_LENGTH + 2nd row and no further, and
record lengths above MAX_RECORD_LENGTH and shot or outcome totals above
MAX_SHOTS are rejected, so no file sizes an allocation beyond them.
"""

from __future__ import annotations

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


def save_text(text: str, path=None) -> str:
    """Write text to path as is (no newline translation) if given; return it."""
    if path is not None:
        with open(path, "w", newline="") as fh:
            fh.write(text)
    return text


def write_csv(header, rows, path=None) -> str:
    """Render rows (sequences or dataclasses) as CSV; write to path if given."""
    buf = _io.StringIO()
    writer = csv.writer(buf, lineterminator="\n")
    writer.writerow(header)
    for row in rows:
        if is_dataclass(row):
            row = [getattr(row, name) for name in header]
        writer.writerow([format_value(v) for v in row])
    return save_text(buf.getvalue(), path)


def write_json(spec, rows, path=None) -> str:
    """Render {"spec": ..., "rows": [...]} JSON; write to path if given."""
    payload = {"spec": _plain(spec), "rows": [_plain(r) for r in rows]}
    return save_text(json.dumps(payload, indent=2) + "\n", path)


def table_to_csv(table, path=None) -> str:
    return write_csv(table.columns, table.rows, path)


def table_to_json(table, path=None) -> str:
    columns = table.columns
    rows = [{c: getattr(r, c) for c in columns} for r in table.rows]
    return write_json(table.spec, rows, path)


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


def write_values(values, spec=None, fmt: str = "csv", path=None) -> str:
    """A y,value listing of values: CSV rows, or JSON rows under spec."""
    rows = list(enumerate(values))
    if fmt == "csv":
        return write_csv(Y_VALUE, rows, path)
    return write_json(spec, [{"y": y, "value": float(v)} for y, v in rows], path)


def _read_csv_rows(path, what: str) -> list[list[str]]:
    """The rows of a CSV file, read up to row MAX_RECORD_LENGTH + 2 (a header,
    the largest record, and one row more to tell that it is too long)."""
    try:
        with open(path, newline="") as fh:
            return list(itertools.islice(csv.reader(fh), MAX_RECORD_LENGTH + 2))
    except csv.Error as exc:
        raise ValueError(f"{what}: {exc}") from None


def _check_count(n: int, what: str, unit: str):
    if n > MAX_RECORD_LENGTH:
        raise ValueError(f"{what}: more than {MAX_RECORD_LENGTH} {unit}")
    if n < 2:
        raise ValueError(f"{what}: {n} {unit}, expected 2 to {MAX_RECORD_LENGTH}")


def _parse_y_values(rows, what: str, value_name: str) -> np.ndarray:
    """The values of the y,value rows under the header, indexed by y: each y
    in [0, rows) appears exactly once."""
    n = len(rows)
    values = np.empty(n)
    seen = np.zeros(n, dtype=bool)
    for row in rows:
        try:
            y, v = row
            y, v = int(y), float(v)
        except ValueError:
            raise ValueError(
                f"{what}: every row must be an integer y and a {value_name}") from None
        if not 0 <= y < n:
            raise ValueError(f"{what}: y={y} outside [0, {n})")
        if seen[y]:
            raise ValueError(f"{what}: repeated y={y}")
        seen[y] = True
        values[y] = v
    return values


def read_histogram_csv(path) -> Histogram:
    """Histogram from a y,value CSV of integer counts in [0, MAX_SHOTS]."""
    rows = _read_csv_rows(path, "histogram CSV")
    if not rows or rows[0][:2] != Y_VALUE:
        raise ValueError("expected histogram CSV with columns y,value")
    values = _parse_y_values(rows[1:], "histogram CSV", "count")
    _check_count(len(values), "histogram CSV", "rows")
    for y, v in enumerate(values.tolist()):
        if not (v.is_integer() and 0 <= v <= MAX_SHOTS):
            raise ValueError(
                f"histogram CSV: count {v!r} at y={y} is not an integer in [0, {MAX_SHOTS}]")
    counts = values.astype(np.int64)
    total = int(counts.sum())
    if total > MAX_SHOTS:
        raise ValueError(f"histogram CSV: counts total more than {MAX_SHOTS}")
    return Histogram(len(counts), counts, total)


def load_weights_csv(path) -> np.ndarray:
    """Finite custom-window weights: a y,value CSV as `window` writes it, or
    one weight per row after an optional header, 2 to MAX_RECORD_LENGTH in all."""
    rows = _read_csv_rows(path, "weights CSV")
    if rows and rows[0][:2] == Y_VALUE:
        weights = _parse_y_values(rows[1:], "weights CSV", "weight")
    else:
        weights = _parse_column(rows)
    _check_count(len(weights), "weights CSV", "weights")
    if not np.all(np.isfinite(weights)):
        raise ValueError("weights CSV: weights must be finite")
    return weights


def _parse_column(rows) -> np.ndarray:
    """One weight per row, after an optional header row."""
    for body in (rows, rows[1:]):
        try:
            return np.array([float(v) for (v,) in body])
        except ValueError:
            continue
    raise ValueError("weights CSV: expected one number per row after an optional header, "
                     "or the columns y,value")


def read_sample_set(path, offset_half_cell: bool = False) -> SampleSet:
    """Sample set from JSON, or expanded from a histogram CSV (a .csv path),
    which carries no offset: offset_half_cell declares one of pi/N."""
    if str(path).endswith(".csv"):
        hist = read_histogram_csv(path)
        outcomes = np.repeat(np.arange(hist.n_points), hist.counts)
        offset = np.pi / hist.n_points if offset_half_cell else 0.0
        return SampleSet(hist.n_points, outcomes, offset=offset)
    return read_sample_set_json(path)


def sample_set_to_json(samples: SampleSet, path=None) -> str:
    payload = {
        "n_points": samples.n_points,
        "offset": samples.offset,
        "outcomes": samples.outcomes.tolist(),
    }
    return save_text(json.dumps(payload) + "\n", path)


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
