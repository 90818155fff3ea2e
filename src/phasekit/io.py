"""CSV/JSON serialization for distributions, samples, histograms and tables.

CSV files are comma-separated with a header row, LF line endings, and
floats printed with 17 significant digits so they round-trip exactly.
JSON files are one top-level object with "spec" and "rows" keys.
"""

from __future__ import annotations

import csv
import io as _io
import json
import math
from dataclasses import asdict, fields, is_dataclass

import numpy as np

from .model import Histogram, PhaseDistribution, SampleSet

# Columns whose values vary run to run and would break byte-identical
# reruns; they are kept on the in-memory rows but never serialized.
NONDETERMINISTIC_FIELDS = ("wall_time",)


def format_value(value) -> str:
    if isinstance(value, (float, np.floating)):
        return f"{value:.17g}"
    return str(value)


def write_csv(header, rows, path=None) -> str:
    """Render rows (sequences or dataclasses) as CSV; write to path if given."""
    buf = _io.StringIO()
    writer = csv.writer(buf, lineterminator="\n")
    writer.writerow(header)
    for row in rows:
        if is_dataclass(row):
            row = [getattr(row, name) for name in header]
        writer.writerow([format_value(v) for v in row])
    text = buf.getvalue()
    if path is not None:
        with open(path, "w", newline="") as fh:
            fh.write(text)
    return text


def write_json(spec, rows, path=None) -> str:
    """Render {"spec": ..., "rows": [...]} JSON; write to path if given."""
    payload = {"spec": _plain(spec), "rows": [_plain(r) for r in rows]}
    text = json.dumps(payload, indent=2) + "\n"
    if path is not None:
        with open(path, "w", newline="") as fh:
            fh.write(text)
    return text


def table_header(row) -> list[str]:
    """Serializable column names of a dataclass row, in declaration order."""
    return [f.name for f in fields(row) if f.name not in NONDETERMINISTIC_FIELDS]


def table_to_csv(table, path=None) -> str:
    header = table_header(table.rows[0]) if table.rows else _header_from_spec(table)
    return write_csv(header, table.rows, path)


def table_to_json(table, path=None) -> str:
    rows = [{k: v for k, v in asdict(r).items() if k not in NONDETERMINISTIC_FIELDS}
            for r in table.rows]
    return write_json(table.spec, rows, path)


def _header_from_spec(table):
    # Empty tables still need a header; recover it from the row type annotation.
    from . import experiments

    row_types = {
        "scatter": experiments.ScatterRow,
        "crb-curve": experiments.CrbRow,
    }
    row_type = row_types.get(table.spec.kind, experiments.ExperimentRow)
    return [f.name for f in fields(row_type) if f.name not in NONDETERMINISTIC_FIELDS]


def _plain(obj):
    if is_dataclass(obj) and not isinstance(obj, type):
        obj = asdict(obj)
    if isinstance(obj, dict):
        return {k: _plain(v) for k, v in obj.items() if k not in NONDETERMINISTIC_FIELDS}
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
    with open(path, newline="") as fh:
        reader = csv.reader(fh)
        header = next(reader)
        if header[:2] != ["y", "value"]:
            raise ValueError("expected histogram CSV with columns y,value")
        pairs = [(int(y), float(v)) for y, v in reader]
    n = len(pairs)
    counts = np.zeros(n, dtype=np.int64)
    seen = np.zeros(n, dtype=bool)
    for y, v in pairs:
        if not 0 <= y < n:
            raise ValueError(f"histogram CSV: y={y} outside [0, {n})")
        if seen[y]:
            raise ValueError(f"histogram CSV: repeated y={y}")
        if not v.is_integer():
            raise ValueError(f"histogram CSV: count {v!r} at y={y} is not an integer")
        seen[y] = True
        counts[y] = int(v)
    return Histogram(n, counts, int(counts.sum()))


def sample_set_to_json(samples: SampleSet, path=None) -> str:
    payload = {
        "n_points": samples.n_points,
        "offset": samples.offset,
        "outcomes": samples.outcomes.tolist(),
    }
    text = json.dumps(payload) + "\n"
    if path is not None:
        with open(path, "w", newline="") as fh:
            fh.write(text)
    return text


def read_sample_set_json(path) -> SampleSet:
    """Sample set from JSON; outcomes must be integers and the offset finite."""
    with open(path) as fh:
        payload = json.load(fh)
    if not isinstance(payload, dict) or not {"n_points", "outcomes"} <= payload.keys():
        raise ValueError("sample-set JSON: expected an object with n_points and outcomes")
    outcomes = payload["outcomes"]
    if not isinstance(outcomes, list) or not all(isinstance(y, int) and not isinstance(y, bool) for y in outcomes):
        raise ValueError("sample-set JSON: outcomes must be integers")
    offset = float(payload.get("offset", 0.0))
    if not math.isfinite(offset):
        raise ValueError(f"sample-set JSON: offset {offset!r} is not finite")
    return SampleSet(
        n_points=int(payload["n_points"]),
        outcomes=np.asarray(outcomes, dtype=np.int64),
        offset=offset,
    )
