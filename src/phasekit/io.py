"""Every file format phasekit reads or writes.

CSV files are comma-separated with a header row, LF line endings, and
floats printed with 17 significant digits so they round-trip exactly.
Tables and y,value listings in JSON are one top-level object with "spec"
and "rows" keys; a table's columns, in CSV and JSON alike, are the ones
its `columns` property names.  A sample set is its own JSON object
(n_points, offset, outcomes).

Renderers return text and write nothing.  write_csv is the one CSV
renderer and write_json the one table JSON renderer: table_to_csv and
table_to_json give them a table's rows through one projection onto its
columns, and write_values gives them a y,value listing (window weights, a
distribution, a histogram).  sample_set_to_json renders a sample set.
save_text(text, path) is the one function that writes a file.

Readers:
  read_histogram_csv    y,value CSV of integer counts
  read_sample_set_json  sample-set JSON
  read_sample_set       either of the two, chosen by the .csv suffix
  load_weights_csv      custom window weights: y,value CSV, or one column
                        with an optional header

Each reader returns a value or raises ValueError, whatever the file holds;
it reads the file as UTF-8, and its error names the format.
A CSV is parsed row by row as it is read, into arrays rather than a list of
rows, up to its MAX_RECORD_LENGTH + 2nd row.  The first error raised, the
parser's or the csv module's, ends the reading and is the one reported; a
y,value parser reads on to count the rows before it raises its own.  Under
the bounds of checks, re-exported here, a row count or an n_points (by
checks._check_count) lies in [2, MAX_RECORD_LENGTH], and a shot or
outcome total is at most MAX_SHOTS, so no file sizes an allocation beyond them.
"""

from __future__ import annotations

import array
import csv
import itertools
import json
from dataclasses import asdict, is_dataclass

import numpy as np

from .checks import MAX_RECORD_LENGTH, MAX_SHOTS, _check_count, _is_int
from .model import Histogram, SampleSet

Y_VALUE = ["y", "value"]


def format_value(value) -> str:
    return format(value, _format_spec(type(value)))


def _format_spec(kind: type) -> str:
    """A value's format spec by its type: 17 significant digits for a float, else str's."""
    return ".17g" if issubclass(kind, (float, np.floating)) else ""


def save_text(text: str, path) -> None:
    """Write text to path as is (no newline translation)."""
    with open(path, "w", newline="") as fh:
        fh.write(text)


def write_csv(header, rows) -> str:
    """CSV text of the header and rows, each value as format_value prints it.
    Nothing is quoted, and nothing needs to be: no name or number phasekit writes
    holds a comma, a double quote, CR or LF, and no row is one empty field.
    Each run of rows whose values have the same types shares one format string."""
    lines = [",".join(header)]
    for kinds, run in itertools.groupby(rows, lambda row: tuple(map(type, row))):
        render = ",".join(f"{{:{_format_spec(kind)}}}" for kind in kinds).format
        lines += [render(*row) for row in run]
    return "\n".join(lines) + "\n"


def write_json(spec, rows) -> str:
    """Render {"spec": ..., "rows": [...]} JSON; every value is already a JSON type."""
    if is_dataclass(spec):
        spec = asdict(spec)
    return json.dumps({"spec": spec, "rows": rows}, indent=2) + "\n"


def _table_rows(table) -> list[list]:
    """Each row of a table as its values under table.columns, in order."""
    columns = table.columns
    return [[getattr(row, c) for c in columns] for row in table.rows]


def table_to_csv(table) -> str:
    return write_csv(table.columns, _table_rows(table))


def table_to_json(table) -> str:
    columns = table.columns
    return write_json(table.spec, [dict(zip(columns, row)) for row in _table_rows(table)])


def write_values(values, spec=None, fmt: str = "csv") -> str:
    """A y,value listing of values: CSV rows, or JSON rows under spec.

    The values are read as Python numbers, which format_value and float()
    print as their numpy scalars."""
    rows = enumerate(np.asarray(values).tolist())
    if fmt == "csv":
        return write_csv(Y_VALUE, rows)
    return write_json(spec, [{"y": y, "value": float(v)} for y, v in rows])


def _read_csv(path, what: str, parse):
    """parse(first, rows) of a CSV file: its first row ([] when it is empty)
    and the rows after it, read only as parse consumes them, up to row
    MAX_RECORD_LENGTH + 2 (a header, the largest record, one row more to tell
    it is too long); the first error raised, parse's or csv's, is reported."""
    try:
        with open(path, newline="", encoding="utf-8") as fh:
            rows = itertools.islice(csv.reader(fh), MAX_RECORD_LENGTH + 2)
            return parse(next(rows, []), rows)
    except (csv.Error, UnicodeDecodeError) as exc:
        raise ValueError(f"{what}: {exc}") from None


def _check_rows(n: int, what: str, unit: str):
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
    _check_rows(len(values), "histogram CSV", "rows")
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
    _check_rows(len(weights), "weights CSV", "weights")
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
    MAX_SHOTS integer outcomes in [0, n_points) and an offset under the one
    phase rule of checks: a finite real of magnitude at most MAX_PHASE."""
    try:
        with open(path, encoding="utf-8") as fh:
            payload = json.load(fh)
        if not isinstance(payload, dict) or not {"n_points", "outcomes"} <= payload.keys():
            raise ValueError("expected an object with n_points and outcomes")
        n = _check_count(payload["n_points"], "n_points", 2, MAX_RECORD_LENGTH)
        outcomes = payload["outcomes"]
        if not isinstance(outcomes, list) or not all(_is_int(y) for y in outcomes):
            raise ValueError("outcomes must be integers")
        if not all(0 <= y < n for y in outcomes):
            raise ValueError(f"outcomes outside [0, {n})")
        # SampleSet checks the offset by checks._bounded_phase.
        return SampleSet(n, np.asarray(outcomes, dtype=np.int64),
                         offset=payload.get("offset", 0.0))
    except RecursionError:
        raise ValueError("sample-set JSON: nested too deeply") from None
    except ValueError as exc:
        raise ValueError(f"sample-set JSON: {exc}") from None
