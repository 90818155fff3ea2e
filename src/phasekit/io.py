"""CSV/JSON serialization for distributions, samples, histograms and tables.

CSV files are comma-separated with a header row, LF line endings, and
floats printed with 17 significant digits so they round-trip exactly.
Tables and y,value listings in JSON are one top-level object with "spec"
and "rows" keys; a table's columns, in CSV and JSON alike, are the ones
its `columns` property names.  A sample set is its own JSON object
(n_points, offset, outcomes).  Every file is written through save_text.

The readers return a value or raise ValueError, whatever the file holds,
and reject record lengths above MAX_RECORD_LENGTH and shot totals above
MAX_SHOTS, so no file sizes an allocation beyond them.
"""

from __future__ import annotations

import csv
import io as _io
import json
import math
import sys
from dataclasses import asdict, is_dataclass

import numpy as np

from .model import Histogram, PhaseDistribution, SampleSet
from .windows import MAX_RECORD_LENGTH

# The largest shot total that a file or a command-line argument may ask
# for; MAX_RECORD_LENGTH bounds record lengths the same way.
MAX_SHOTS = 10 ** 7


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


def distribution_to_csv(dist: PhaseDistribution, path=None) -> str:
    return write_csv(["y", "value"], list(enumerate(dist.probs)), path)


def histogram_to_csv(hist: Histogram, path=None) -> str:
    return write_csv(["y", "value"], list(enumerate(hist.counts)), path)


def read_histogram_csv(path) -> Histogram:
    """Histogram from a y,value CSV; each y in [0, rows) appears exactly once."""
    try:
        with open(path, newline="") as fh:
            lines = list(csv.reader(fh))
    except csv.Error as exc:
        raise ValueError(f"histogram CSV: {exc}") from None
    if not lines or lines[0][:2] != ["y", "value"]:
        raise ValueError("expected histogram CSV with columns y,value")
    try:
        pairs = [(int(y), float(v)) for y, v in lines[1:]]
    except ValueError:
        raise ValueError("histogram CSV: every row must be an integer y and a count") from None
    n = len(pairs)
    if not 2 <= n <= MAX_RECORD_LENGTH:
        raise ValueError(f"histogram CSV: {n} rows, expected 2 to {MAX_RECORD_LENGTH}")
    counts = np.zeros(n, dtype=np.int64)
    seen = np.zeros(n, dtype=bool)
    for y, v in pairs:
        if not 0 <= y < n:
            raise ValueError(f"histogram CSV: y={y} outside [0, {n})")
        if seen[y]:
            raise ValueError(f"histogram CSV: repeated y={y}")
        if not (v.is_integer() and 0 <= v <= MAX_SHOTS):
            raise ValueError(
                f"histogram CSV: count {v!r} at y={y} is not an integer in [0, {MAX_SHOTS}]")
        seen[y] = True
        counts[y] = int(v)
    total = int(counts.sum())
    if total > MAX_SHOTS:
        raise ValueError(f"histogram CSV: counts total more than {MAX_SHOTS}")
    return Histogram(n, counts, total)


def sample_set_to_json(samples: SampleSet, path=None) -> str:
    payload = {
        "n_points": samples.n_points,
        "offset": samples.offset,
        "outcomes": samples.outcomes.tolist(),
    }
    return save_text(json.dumps(payload) + "\n", path)


def read_sample_set_json(path) -> SampleSet:
    """Sample set from JSON: n_points in [2, MAX_RECORD_LENGTH], integer
    outcomes in [0, n_points) and a finite offset."""
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
