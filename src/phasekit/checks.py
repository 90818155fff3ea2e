"""The rules of every boundary: files, specs, configs, stored arrays, counts
and phases.  _check_count is the one integer-range rule of every record
length, shot count, trial count, grid size and master seed (the library's
and the command line's), _bounded_phase the one rule of every phase and
offset, and the bounds below hold for every file, command-line argument and
call, so none sizes an allocation beyond them.  BLOCK_BYTES is the one
memory budget: a block of trials and a block of Fisher phases are each
sized to it.
"""

from __future__ import annotations

import math
import numbers

import numpy as np

MAX_RECORD_LENGTH = 2 ** 20
MAX_SHOTS = 10 ** 7

# A master seed is a 64-bit word: rng keeps only its low 64 bits.
MAX_SEED = 2 ** 64 - 1
# Memory budget of one block of trials (experiments) or of Fisher phases:
# 2 MiB, the per-core L2 of the 2-core test machine.  Every block pays a
# fixed cost, so 1 MiB blocks ran the figure tables about 10 % slower.
BLOCK_BYTES = 1 << 21

# Largest magnitude of a phase or offset, in radians, that enters a
# computation: the largest power of two whose double spacing (2^-18 rad)
# still resolves one cell 2*pi/N at N = MAX_RECORD_LENGTH (6.0e-6 rad).
# Beyond it a phase no longer names a cell; near 1e308, n * phase overflows.
MAX_PHASE = 2.0 ** 34


def _is_int(value) -> bool:
    """A Python or numpy integer, never a bool: files, specs and configs alike."""
    return isinstance(value, (int, np.integer)) and not isinstance(value, bool)


def _is_real(value) -> bool:
    """A real number (numpy's too), never a bool."""
    return isinstance(value, numbers.Real) and not isinstance(value, bool)


def _bounded_phase(value, name: str) -> float:
    """value as a Python float; ValueError unless it is a finite real (an
    integer beyond the float range is not finite) of magnitude at most
    MAX_PHASE.  The one rule of every phase and offset."""
    if not _is_real(value):
        raise ValueError(f"{name} must be a number")
    try:
        result = float(value)
    except OverflowError:
        result = math.inf if value > 0 else -math.inf
    if not math.isfinite(result):
        raise ValueError(f"{name} {result!r} is not finite")
    if abs(result) > MAX_PHASE:
        raise ValueError(f"{name} must lie in [-2**34, 2**34]")
    return result


def _check_count(value, name: str, least: int, most: int | None = None) -> int:
    """value as a Python int; ValueError unless it is an integer in
    [least, most] (no upper bound when most is None)."""
    if not _is_int(value):
        raise ValueError(f"{name} must be an integer")
    value = int(value)
    if value < least:
        raise ValueError(f"{name} must be >= {least}")
    if most is not None and value > most:
        raise ValueError(f"{name} must be <= {most}")
    return value


def _frozen(values, dtype) -> np.ndarray:
    """A read-only copy of values as dtype; the caller's array stays writable."""
    array = np.array(values, dtype=dtype)
    array.setflags(write=False)
    return array
