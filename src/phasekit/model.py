"""Exact outcome statistics of windowed phase readout, and seeded sampling.

For a window alpha and effective phase phi + delta, the probability of
reading outcome y from an N-point register is

    f(y) = (1/N) * | sum_n alpha_n * exp(j*n*(phi + delta - 2*pi*y/N)) |^2

The flat window admits the closed form sin^2(N*t/2) / (N^2 * sin^2(t/2));
general windows are evaluated with an FFT, which is the same sum computed
exactly.  The optional offset delta models a half-cell frequency shift of
the register (implemented physically by per-qubit phase rotations); it
enters the statistics only through phi + delta.
"""

from __future__ import annotations

import operator
from dataclasses import dataclass

import numpy as np

from .angles import TWO_PI
from .checks import _check_count, _finite_float
from .rng import make_generator
from .windows import WindowVector

PROB_SUM_TOL = 1e-10

# |sin(t/2)| below this switches the closed form to its removable-singularity
# limit (value 1); keeps on-grid phases exact in double precision.
_SINGULARITY_EPS = 1e-9


@dataclass(frozen=True, eq=False)
class PhaseDistribution:
    """Outcome probability vector for one (window, phase, offset) triple."""

    n_points: int
    phase: float
    offset: float
    probs: np.ndarray

    def __post_init__(self):
        p = np.asarray(self.probs, dtype=np.float64)
        if p.shape != (self.n_points,):
            raise ValueError("probs must have length n_points")
        if not np.all(np.isfinite(p)):
            raise ValueError("probabilities must be finite")
        total = float(p.sum())
        if abs(total - 1.0) > PROB_SUM_TOL:
            raise ValueError(f"probabilities sum to {total!r}, not 1")
        if p.min() < -1e-15:
            raise ValueError("negative probability beyond roundoff")
        p.setflags(write=False)
        object.__setattr__(self, "probs", p)
        object.__setattr__(self, "n_points", p.shape[0])  # a Python int, as JSON needs
        for name in ("phase", "offset"):
            object.__setattr__(self, name, _finite_float(getattr(self, name), name))


@dataclass(frozen=True, eq=False)
class SampleSet:
    """Measurement outcomes y_i in {0..N-1}, with the offset they were drawn under."""

    n_points: int
    outcomes: np.ndarray
    offset: float = 0.0

    def __post_init__(self):
        object.__setattr__(self, "n_points", operator.index(self.n_points))
        y = np.asarray(self.outcomes, dtype=np.int64)
        if y.size and (y.min() < 0 or y.max() >= self.n_points):
            raise ValueError("outcomes outside [0, n_points)")
        y.setflags(write=False)
        object.__setattr__(self, "outcomes", y)
        # A finite real, stored as a Python float, as JSON needs.
        object.__setattr__(self, "offset", _finite_float(self.offset, "offset"))

    def __len__(self):
        return self.outcomes.size


@dataclass(frozen=True, eq=False)
class Histogram:
    """Outcome counts z over {0..N-1}; total is the shot count."""

    n_points: int
    counts: np.ndarray
    total: int

    def __post_init__(self):
        z = np.asarray(self.counts, dtype=np.int64)
        if z.shape != (self.n_points,):
            raise ValueError("counts must have length n_points")
        if z.min() < 0:
            raise ValueError("counts must be nonnegative")
        if int(z.sum()) != self.total:
            raise ValueError("counts do not sum to total")
        z.setflags(write=False)
        object.__setattr__(self, "counts", z)
        object.__setattr__(self, "n_points", z.shape[0])


def distribution(window: WindowVector, phase: float, offset: float = 0.0) -> PhaseDistribution:
    """Exact outcome distribution for a window at effective phase phase + offset."""
    # Checked before the sum; the sum keeps the caller's types.
    _finite_float(phase, "phase")
    _finite_float(offset, "offset")
    probs = distribution_rows(window, np.array([phase + offset]))[0]
    return PhaseDistribution(window.n_points, phase, offset, probs)


def distribution_rows(window: WindowVector, effective: np.ndarray) -> np.ndarray:
    """(T, N) outcome probabilities, one row per effective phase, clipped at 0."""
    n = window.n_points
    if window.kind == "rect":
        probs = _rect_probs(n, effective)
    else:
        probs = _window_probs(window.weights, effective)
    return np.maximum(probs, 0.0, out=probs)


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
    n = weights.shape[0]
    ramp = weights * np.exp(1j * effective[:, None] * np.arange(n))
    # fft[y] = sum_n ramp_n * exp(-2j*pi*n*y/N), exactly the amplitude sum
    return np.abs(np.fft.fft(ramp, axis=1)) ** 2 / n


def sample(dist: PhaseDistribution, n_shots: int, seed) -> SampleSet:
    """Draw n_shots i.i.d. outcomes by inverse CDF; bit-reproducible per seed.

    seed is an integer, or a np.random.Generator whose stream the draw
    continues (so several sample sets can share one stream).
    """
    _check_count(n_shots, "n_shots", 1)
    rng = seed if isinstance(seed, np.random.Generator) else make_generator(seed)
    probs = np.maximum(dist.probs, 0.0)[None, :]
    outcomes = sample_rows(probs, rng.random(n_shots)[None, :])[0]
    return SampleSet(dist.n_points, outcomes, offset=dist.offset)


def sample_rows(probs: np.ndarray, u: np.ndarray) -> np.ndarray:
    """(T, S) outcomes: row t inverts the CDF of the nonnegative probs[t] at
    the uniforms u[t] (row-normalized cumsum, one searchsorted per row)."""
    cdf = np.cumsum(probs, axis=1)
    last = cdf[:, -1:].copy()
    if not np.all(last > 0.0):
        raise ValueError("degenerate distribution: no positive probability mass")
    cdf /= last
    outcomes = np.empty(u.shape, dtype=np.int64)
    for row_cdf, row_u, row_out in zip(cdf, u, outcomes):
        row_out[:] = row_cdf.searchsorted(row_u, "right")
    np.minimum(outcomes, cdf.shape[1] - 1, out=outcomes)
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
