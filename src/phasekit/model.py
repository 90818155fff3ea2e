"""Exact outcome statistics of windowed phase readout, and seeded sampling.

For a window alpha and effective phase phi + delta, the probability of
reading outcome y from an N-point register is

    f(y) = (1/N) * | sum_n alpha_n * exp(j*n*(phi + delta - 2*pi*y/N)) |^2

The flat window admits the closed form sin^2(N*t/2) / (N^2 * sin^2(t/2)),
used up to RECT_CLOSED_FORM_MAX_N at a phase reduced into [0, 2*pi + pi/N];
longer flat records and general windows are evaluated with an FFT, which
is the same sum computed exactly.  The optional offset delta models a
half-cell frequency shift of the register (implemented physically by
per-qubit phase rotations); it enters the statistics only through
phi + delta.

Counts follow checks._check_count: n_points in [2, MAX_RECORD_LENGTH], a
histogram's total in [0, MAX_SHOTS] (at most MAX_SHOTS outcomes make a
sample set) and sample's n_shots in [1, MAX_SHOTS].  Every phase and offset,
stored or computed with, follows checks._bounded_phase: a finite real of
magnitude at most MAX_PHASE, stored as a Python float.
Each value type keeps a read-only copy of its array, not the caller's.
"""

from __future__ import annotations

from dataclasses import dataclass

import numpy as np

from .angles import TWO_PI, wrap_two_pi
from .checks import MAX_RECORD_LENGTH, MAX_SHOTS, _bounded_phase, _check_count, _frozen
from .rng import make_generator
from .windows import WindowVector

PROB_SUM_TOL = 1e-10

# |sin(t/2)| below this switches the closed form to its removable-singularity
# limit (value 1); keeps on-grid phases exact in double precision.
_SINGULARITY_EPS = 1e-9

# Longest record whose rect rows take the closed form; longer ones take the
# FFT (worst |sum(p) - 1| 6.7e-16 over 32 phases at 2**20).  The closed
# form's worst |sum(p) - 1| over 1000 uniform phases and 1000 within 2.2e-9
# rad of the grid (where its limit 1 misses 1 - N^2 t^2 / 12) is 5.6e-12 at
# 2**12 and 2.2e-11 at 2**13, against PROB_SUM_TOL / 10 (x86-64, numpy 2.4).
RECT_CLOSED_FORM_MAX_N = 2 ** 12


@dataclass(frozen=True, eq=False)
class PhaseDistribution:
    """Outcome probability vector for one (window, phase, offset) triple."""

    n_points: int
    phase: float
    offset: float
    probs: np.ndarray

    def __post_init__(self):
        n = _check_count(self.n_points, "n_points", 2, MAX_RECORD_LENGTH)
        p = _frozen(self.probs, np.float64)
        if p.shape != (n,):
            raise ValueError("probs must have length n_points")
        if not np.all(np.isfinite(p)):
            raise ValueError("probabilities must be finite")
        total = float(p.sum())
        if abs(total - 1.0) > PROB_SUM_TOL:
            raise ValueError(f"probabilities sum to {total!r}, not 1")
        if p.min() < -1e-15:
            raise ValueError("negative probability beyond roundoff")
        object.__setattr__(self, "probs", p)
        object.__setattr__(self, "n_points", n)
        for name in ("phase", "offset"):
            object.__setattr__(self, name, _bounded_phase(getattr(self, name), name))


@dataclass(frozen=True, eq=False)
class SampleSet:
    """Measurement outcomes y_i in {0..N-1}, with the offset they were drawn under."""

    n_points: int
    outcomes: np.ndarray
    offset: float = 0.0

    def __post_init__(self):
        n = _check_count(self.n_points, "n_points", 2, MAX_RECORD_LENGTH)
        y = np.asarray(self.outcomes)
        if y.ndim != 1:  # a scalar or a nested list has no outcome order
            raise ValueError("outcomes must be a one-dimensional sequence")
        # An empty list is a float array; any other float would be truncated.
        if y.size and not np.issubdtype(y.dtype, np.integer):
            raise ValueError("outcomes must be integers")
        if y.size > MAX_SHOTS:  # a histogram of them could not hold the total
            raise ValueError(f"more than {MAX_SHOTS} outcomes")
        y = _frozen(y, np.int64)
        if y.size and (y.min() < 0 or y.max() >= n):
            raise ValueError("outcomes outside [0, n_points)")
        object.__setattr__(self, "n_points", n)
        object.__setattr__(self, "outcomes", y)
        # Stored as a Python float, as JSON needs.
        object.__setattr__(self, "offset", _bounded_phase(self.offset, "offset"))

    def __len__(self):
        return self.outcomes.size


@dataclass(frozen=True, eq=False)
class Histogram:
    """Outcome counts z over {0..N-1}; total is the shot count."""

    n_points: int
    counts: np.ndarray
    total: int

    def __post_init__(self):
        n = _check_count(self.n_points, "n_points", 2, MAX_RECORD_LENGTH)
        # The AML grid is sized from the total.
        total = _check_count(self.total, "total", 0, MAX_SHOTS)
        z = np.asarray(self.counts)
        if z.shape != (n,):
            raise ValueError("counts must have length n_points")
        if z.dtype.kind not in "iuf" or not np.all(np.isfinite(z) & (z == np.floor(z))):
            raise ValueError("counts must be integers")
        if z.min() < 0:
            raise ValueError("counts must be nonnegative")
        # Counts of at most MAX_SHOTS sum exactly in any of these dtypes.
        if z.max() > total or int(z.sum()) != total:
            raise ValueError("counts do not sum to total")
        object.__setattr__(self, "counts", _frozen(z, np.int64))
        object.__setattr__(self, "n_points", n)
        object.__setattr__(self, "total", total)


def distribution(window: WindowVector, phase: float, offset: float = 0.0) -> PhaseDistribution:
    """Exact outcome distribution for a window at effective phase phase + offset."""
    # The sum takes the checked floats, so a float32 phase is not summed in float32.
    phase, offset = _bounded_phase(phase, "phase"), _bounded_phase(offset, "offset")
    probs = distribution_rows(window, np.array([phase + offset]))[0]
    return PhaseDistribution(window.n_points, phase, offset, probs)


def distribution_rows(window: WindowVector, effective: np.ndarray) -> np.ndarray:
    """(T, N) outcome probabilities, one row per effective phase; each is
    >= +0.0 by construction (a square over a positive N^2 s^2, or |fft|^2 / N)."""
    if window.kind == "rect":
        # The uniform and cell policies stay in this range, so only phases
        # they never draw are reduced before 2*pi*y/N is subtracted.
        outside = (effective < 0.0) | (effective > TWO_PI + np.pi / window.n_points)
        if outside.any():
            effective = np.where(outside, wrap_two_pi(effective), effective)
        if window.n_points <= RECT_CLOSED_FORM_MAX_N:
            return _rect_probs(window.n_points, effective)
    return _window_probs(window.weights, effective)


def _rect_probs(n: int, effective: np.ndarray) -> np.ndarray:
    """sin(n*h)**2 / ((n*n*s)*s), s = sin(h), in place and in this order (it
    fixes the bytes); s is 1 and the result 1 on the grid."""
    half = np.subtract(effective[:, None], TWO_PI * np.arange(n) / n)
    half *= 0.5
    s = np.sin(half)
    work = np.abs(s)
    on_grid = work < _SINGULARITY_EPS
    np.copyto(s, 1.0, where=on_grid)
    half *= n
    probs = np.sin(half, out=half)
    np.square(probs, out=probs)
    np.multiply(s, n * n, out=work)
    work *= s
    probs /= work
    np.copyto(probs, 1.0, where=on_grid)
    return probs


def _window_probs(weights: np.ndarray, effective: np.ndarray) -> np.ndarray:
    """|fft(weights * exp(1j * effective * n))|**2 / N per row, in one complex
    buffer: each step is the ufunc, with the operand order, of that
    expression, so the bytes are the same."""
    n = weights.shape[0]
    ramp = np.multiply(1j * effective[:, None], np.arange(n))
    np.exp(ramp, out=ramp)
    np.multiply(weights, ramp, out=ramp)
    # fft[y] = sum_n ramp_n * exp(-2j*pi*n*y/N), exactly the amplitude sum
    probs = np.abs(np.fft.fft(ramp, axis=1, out=ramp))
    np.square(probs, out=probs)
    probs /= n
    return probs


def sample(dist: PhaseDistribution, n_shots: int, seed) -> SampleSet:
    """Draw n_shots i.i.d. outcomes by inverse CDF; bit-reproducible per seed.

    seed is an integer, or a np.random.Generator whose stream the draw
    continues (so several sample sets can share one stream).
    """
    n_shots = _check_count(n_shots, "n_shots", 1, MAX_SHOTS)
    rng = seed if isinstance(seed, np.random.Generator) else make_generator(seed)
    probs = np.maximum(dist.probs, 0.0)[None, :]
    outcomes = sample_rows(probs, rng.random(n_shots)[None, :])[0]
    return SampleSet(dist.n_points, outcomes, offset=dist.offset)


def sample_rows(probs: np.ndarray, u: np.ndarray) -> np.ndarray:
    """(T, S) outcomes in [0, N): row t inverts the CDF of the nonnegative probs[t],
    normalized to end at exactly 1.0, at the uniforms u[t] < 1 (one searchsorted per row)."""
    cdf = np.cumsum(probs, axis=1)
    last = cdf[:, -1:].copy()
    if not np.all(last > 0.0):
        raise ValueError("degenerate distribution: no positive probability mass")
    cdf /= last
    outcomes = np.empty(u.shape, dtype=np.int64)
    for row_cdf, row_u, row_out in zip(cdf, u, outcomes):
        row_out[:] = row_cdf.searchsorted(row_u, "right")
    return outcomes


def histogram(samples: SampleSet) -> Histogram:
    """Count occurrences of each outcome."""
    counts = histogram_rows(samples.outcomes[None, :], samples.n_points)[0]
    return Histogram(samples.n_points, counts, int(counts.sum()))


def histogram_rows(outcomes: np.ndarray, n_points: int) -> np.ndarray:
    """(T, N) counts of the (T, S) outcomes, from one bincount over row * N + y."""
    rows = outcomes.shape[0]
    flat = (outcomes + n_points * np.arange(rows)[:, None]).ravel()
    return np.bincount(flat, minlength=rows * n_points).reshape(rows, n_points)
