"""Type predicates of every boundary: files, specs, configs and the count
arguments of the public functions."""

from __future__ import annotations

import math
import numbers

import numpy as np


def _is_int(value) -> bool:
    """A Python or numpy integer, never a bool: files, specs and configs alike."""
    return isinstance(value, (int, np.integer)) and not isinstance(value, bool)


def _is_real(value) -> bool:
    """A real number (numpy's too), never a bool."""
    return isinstance(value, numbers.Real) and not isinstance(value, bool)


def _finite_float(value, name: str) -> float:
    """value as a Python float; ValueError unless it is a finite real (an
    integer beyond the float range is not finite)."""
    if not _is_real(value):
        raise ValueError(f"{name} must be a number")
    try:
        result = float(value)
    except OverflowError:
        result = math.inf
    if not math.isfinite(result):
        raise ValueError(f"{name} {result!r} is not finite")
    return result


def _check_count(value, name: str, least: int) -> None:
    """Raise ValueError unless value is an integer of at least least."""
    if not _is_int(value):
        raise ValueError(f"{name} must be an integer")
    if value < least:
        raise ValueError(f"{name} must be >= {least}")
