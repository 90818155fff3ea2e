"""Phase estimators: circular sample mean, sinc-refined ML, and dual-frequency.

The sinc-refined estimator (AML) takes the histogram peak as a rough
estimate and then grid-searches a sinc-approximated log-likelihood within
one resolution cell of it.  Its weakness is the mirror ambiguity: data
from a phase at displacement d from the nearest grid line looks almost
identical to data from the reflected phase at -d, so a fraction of
estimates lands on the wrong side.

The dual-frequency estimator removes the ambiguity by running AML twice,
once on samples taken as-is and once on samples taken with a half-cell
(pi/N) frequency offset.  Each run contributes its refined estimate and
the mirror of that estimate across the run's own grid line; the two grids
are staggered by half a cell, so only the true phase shows up in both
candidate pairs.  The final estimate is the circular midpoint of the
closest cross-run pair.
"""

from __future__ import annotations

import math
from dataclasses import dataclass
from typing import NamedTuple

import numpy as np

from .angles import TWO_PI, circ_distance, circ_midpoint, wrap_two_pi
from .checks import MAX_RECORD_LENGTH, MAX_SHOTS, _bounded_phase, _check_count, _is_real
from .model import Histogram, SampleSet, histogram_rows

# Offsets within this of 0 resp. pi/N identify the two sample sets of the
# dual-frequency estimator.
_OFFSET_TOL = 1e-9

# Scale factor of the default O(sqrt(N_s)) refinement-grid rule.  The grid
# step is 4*pi/(N*N_g) over a fixed two-cell span, so with N_g ~ 8*sqrt(N_s)
# the step stays below the statistical error at every shot count and the
# refinement never becomes the accuracy floor.
GRID_RULE_CONSTANT = 8.0

# Largest explicit refinement grid.  It stays above the default rule's
# grid at checks.MAX_SHOTS shots, ceil(8*sqrt(10**7)) = 25299.
MAX_GRID_POINTS = 2 ** 15 + 1

# What np.sinc divides by in place of a zero pi*x, so that sinc(0) is 1.0.
_EPS = np.finfo(np.float64).eps


@dataclass(frozen=True)
class EstimatorConfig:
    """Tuning knobs shared by the grid-search estimators.

    bins_kept:    number of highest-count histogram bins entering the
                  objective (ties broken toward the smaller index), in
                  [2, MAX_RECORD_LENGTH].
    grid_points:  explicit odd grid size in [3, MAX_GRID_POINTS] for the
                  refinement search, or None for the default rule
                  max(9, ceil(8*sqrt(N_s))) forced odd.
                  The search spans two resolution cells, so the step is
                  4*pi/(N*N_g); the constant 8 keeps that step below the
                  per-set statistical error, whose cell-units size falls
                  as 1/sqrt(N_s), so refinement noise never dominates.
    sinc_floor:   |sinc| is clamped here before the log so that grid points
                  colliding with a sinc zero stay finite.
    """

    bins_kept: int = 8
    grid_points: int | None = None
    sinc_floor: float = 1e-12

    def __post_init__(self):
        # Counts are stored as Python ints: N * N_g in a numpy int32 overflows.
        # No record length has more bins than MAX_RECORD_LENGTH to keep.
        object.__setattr__(self, "bins_kept",
                           _check_count(self.bins_kept, "bins_kept", 2, MAX_RECORD_LENGTH))
        if self.grid_points is not None:
            grid_points = _check_count(self.grid_points, "grid_points", 3, MAX_GRID_POINTS)
            if grid_points % 2 == 0:
                raise ValueError("grid_points must be odd and >= 3")
            object.__setattr__(self, "grid_points", grid_points)
        if not _is_real(self.sinc_floor):
            raise ValueError("sinc_floor must be a number")
        if not 0.0 < self.sinc_floor < 1.0:
            raise ValueError("sinc_floor must be in (0, 1)")

    def resolve_grid_points(self, n_samples: int) -> int:
        if self.grid_points is not None:
            return self.grid_points
        g = max(9, math.ceil(GRID_RULE_CONSTANT * math.sqrt(max(n_samples, 0))))
        return g if g % 2 == 1 else g + 1


DEFAULT_CONFIG = EstimatorConfig()


def split_shot_counts(n_shots: int) -> tuple[int, int]:
    """Shot split for the dual-frequency estimator: first set gets ceil(N_s/2)."""
    n_shots = _check_count(n_shots, "n_shots", 1, MAX_SHOTS)
    if n_shots < 2:
        raise ValueError("dual-frequency estimation needs at least 2 shots")
    first = (n_shots + 1) // 2
    return first, n_shots - first


@dataclass(frozen=True)
class AmlResult:
    """Rough and refined estimates, both in the frame of the data's offset."""

    rough: float
    refined: float
    correction: float


@dataclass(frozen=True, eq=False)
class CandidateSet:
    """The four intermediate dual-frequency candidates, reduced to [0, 2*pi)."""

    u: np.ndarray

    def __post_init__(self):
        u = wrap_two_pi(np.asarray(self.u, dtype=np.float64))
        if u.shape != (4,):
            raise ValueError("candidate vector must have exactly 4 entries")
        u.setflags(write=False)
        object.__setattr__(self, "u", u)


@dataclass(frozen=True)
class DualFrequencyResult:
    """Estimate plus diagnostics of the matching step."""

    estimate: float
    candidates: CandidateSet
    matched_pair: tuple[int, int]
    aml_set1: AmlResult
    aml_set2: AmlResult


def circular_sample_mean(samples: SampleSet) -> float:
    """Circular mean of the naive per-sample phases 2*pi*y_i/N."""
    if len(samples) == 0:
        raise ValueError("sample set is empty")
    means, defined = circular_mean_rows(samples.outcomes[None, :], samples.n_points)
    if not defined[0]:
        raise ValueError("circular mean undefined: zero resultant vector")
    return float(means[0])


def circular_mean_rows(outcomes: np.ndarray, n_points: int):
    """Circular means of the (T, S) outcome rows, and which of them are defined.

    A row whose resultant vector vanishes (|R| < 1e-12 * S) has no mean;
    its entry in the first array is then meaningless.  Each shot's unit
    vector is looked up in a table of the N values exp(2j*pi*y/N), computed
    by the same expression as for a single outcome.
    """
    unit_vectors = np.exp(2j * np.pi * np.arange(n_points) / n_points)
    resultant = unit_vectors[outcomes].sum(axis=1)
    defined = np.abs(resultant) >= 1e-12 * outcomes.shape[1]
    return wrap_two_pi(np.angle(resultant)), defined


def rough_estimate(hist: Histogram) -> float:
    """Phase of the highest-count bin, 2*pi*argmax(z)/N (ties: smallest index)."""
    if hist.total < 1:
        raise ValueError("histogram is empty")
    return float(_rough_rows(hist.counts[None, :])[0])


def aml_objective(
    hist: Histogram,
    phase: float,
    offset: float = 0.0,
    config: EstimatorConfig = DEFAULT_CONFIG,
) -> float:
    """Sinc-approximated log-likelihood of a phase hypothesis.

    Only the config.bins_kept highest-count bins contribute.  The bin
    displacement N*(phase + offset)/(2*pi) - k is wrapped to [-N/2, N/2).
    """
    # The sum takes the checked floats, so a float32 phase is not summed in float32.
    phase, offset = _bounded_phase(phase, "phase"), _bounded_phase(offset, "offset")
    bins, counts, width = _top_bins(hist.counts[None, :], config.bins_kept)
    position = hist.n_points * (phase + offset) / TWO_PI
    return float(_objective(np.array([[position]]), bins, counts, width,
                            hist.n_points, config.sinc_floor)[0, 0])


def aml_estimate(
    hist: Histogram,
    offset: float = 0.0,
    config: EstimatorConfig = DEFAULT_CONFIG,
) -> AmlResult:
    """Histogram-peak estimate refined by a sinc grid search within one cell.

    Both returned phases estimate phi + offset (the effective phase the
    data was drawn under); the caller maps back to the phi frame.  The
    grid has resolve_grid_points(total) points spaced 4*pi/(N*N_g) around
    the rough estimate, so the rough value itself is always a grid point
    and the search never leaves [rough - 2*pi/N, rough + 2*pi/N].  offset is
    checked by the phase rule and not read: the counts already carry it, and
    callers pin the signature.
    """
    _bounded_phase(offset, "offset")
    rough, correction = aml_rows(hist.counts[None, :], hist.total, config)
    return _aml_result(rough[0], correction[0])


def _aml_result(rough, correction) -> AmlResult:
    rough, correction = float(rough), float(correction)
    return AmlResult(rough=rough, refined=float(wrap_two_pi(rough + correction)),
                     correction=correction)


def aml_rows(counts: np.ndarray, total: int, config: EstimatorConfig = DEFAULT_CONFIG):
    """Rough estimates and grid corrections of (T, N) histograms of `total` counts each.

    The objective is evaluated as (T, G, K) tensors, one per group of rows
    with the same number K of nonzero kept bins, so that each contraction
    with the counts is a (G, K) @ (K,) product as for a single histogram;
    padding K with zero counts would change the BLAS summation and could
    flip near-tie argmaxes.
    """
    if total < 1:
        raise ValueError("histogram is empty")
    n = counts.shape[1]
    rough = _rough_rows(counts)
    n_grid = config.resolve_grid_points(total)
    half = (n_grid - 1) // 2
    offsets = (2.0 * TWO_PI / (n * n_grid)) * np.arange(-half, half + 1)

    bins, kept, width = _top_bins(counts, config.bins_kept)
    positions = n * (rough[:, None] + offsets) / TWO_PI
    scores = _objective(positions, bins, kept, width, n, config.sinc_floor)
    return rough, offsets[np.argmax(scores, axis=1)]


def dual_frequency_estimate(
    set1: SampleSet,
    set2: SampleSet,
    config: EstimatorConfig = DEFAULT_CONFIG,
) -> float:
    """Ambiguity-free phase estimate from two half-cell-offset sample sets."""
    return dual_frequency_details(set1, set2, config).estimate


def dual_frequency_details(
    set1: SampleSet,
    set2: SampleSet,
    config: EstimatorConfig = DEFAULT_CONFIG,
) -> DualFrequencyResult:
    """Dual-frequency estimate with candidates and matching diagnostics.

    One input set must carry offset 0 and the other offset pi/N; argument
    order is irrelevant because the offset travels with the set.  The
    candidate vector is

        u = [r1 + e1,  r1 - e1,  r2' + e2,  r2' - e2]

    where (r1, e1) come from the plain set, (r2psi, e2) from the offset
    set, and r2' = r2psi - pi/N maps the offset-frame rough onto the
    half-staggered grid in the plain frame.  Candidates 3 and 4 are thus
    the offset run's refined estimate and its mirror, both expressed in
    the plain frame.  The closest pair across runs (never within a run)
    is matched; its circular midpoint is the estimate.
    """
    plain, shifted = _identify_sets(set1, set2)
    if len(plain) == 0 or len(shifted) == 0:
        raise ValueError("both sample sets must be nonempty")
    if plain.n_points != shifted.n_points:
        raise ValueError("sample sets must share the record length")
    n = plain.n_points
    match = dual_frequency_rows(histogram_rows(plain.outcomes[None, :], n), len(plain),
                                histogram_rows(shifted.outcomes[None, :], n), len(shifted),
                                config)
    return DualFrequencyResult(
        estimate=float(match.estimate[0]),
        candidates=CandidateSet(match.candidates[0]),
        matched_pair=_pair_indices(int(match.pair[0])),
        aml_set1=_aml_result(match.rough1[0], match.correction1[0]),
        aml_set2=_aml_result(match.rough2[0], match.correction2[0]),
    )


class DualFrequencyRows(NamedTuple):
    """Per-row arrays of the dual-frequency match; pair indexes _CROSS_PAIRS."""

    rough1: np.ndarray
    correction1: np.ndarray
    rough2: np.ndarray
    correction2: np.ndarray
    candidates: np.ndarray
    pair: np.ndarray
    estimate: np.ndarray


def dual_frequency_rows(
    counts1: np.ndarray,
    total1: int,
    counts2: np.ndarray,
    total2: int,
    config: EstimatorConfig = DEFAULT_CONFIG,
) -> DualFrequencyRows:
    """Dual-frequency match of T plain (counts1) and T offset (counts2) histograms."""
    half_cell = np.pi / counts1.shape[1]
    rough1, correction1 = aml_rows(counts1, total1, config)
    rough2, correction2 = aml_rows(counts2, total2, config)
    rough2_plain = wrap_two_pi(rough2 - half_cell)
    u = wrap_two_pi(np.stack([
        rough1 + correction1,
        rough1 - correction1,
        rough2_plain + correction2,
        rough2_plain - correction2,
    ], axis=1))
    pair = _closest_cross_pairs(u)
    rows = np.arange(u.shape[0])
    first, second = _CROSS_PAIRS[pair].T
    estimate = circ_midpoint(u[rows, first], u[rows, second])
    return DualFrequencyRows(rough1, correction1, rough2, correction2, u, pair, estimate)


def _identify_sets(set1: SampleSet, set2: SampleSet) -> tuple[SampleSet, SampleSet]:
    """Sort the two sets into (offset 0, offset pi/N) by their recorded offsets."""
    def is_plain(s):
        return circ_distance(s.offset, 0.0) < _OFFSET_TOL

    def is_shifted(s):
        return circ_distance(s.offset, np.pi / s.n_points) < _OFFSET_TOL

    if is_plain(set1) and is_shifted(set2):
        return set1, set2
    if is_plain(set2) and is_shifted(set1):
        return set2, set1
    raise ValueError("need one sample set at offset 0 and one at offset pi/N")


# Cross-run candidate pairs (i in {0,1}, j in {2,3}) in tie-break order.
_CROSS_PAIRS = np.array([(0, 2), (0, 3), (1, 2), (1, 3)])


def _closest_cross_pair(u: np.ndarray) -> tuple[int, int]:
    """Index pair (i in {0,1}, j in {2,3}) minimizing circular distance."""
    return _pair_indices(int(_closest_cross_pairs(np.asarray(u)[None, :])[0]))


def _closest_cross_pairs(u: np.ndarray) -> np.ndarray:
    """Row-wise index into _CROSS_PAIRS of the closest pair; ties go to the first."""
    return np.argmin(circ_distance(u[:, _CROSS_PAIRS[:, 0]], u[:, _CROSS_PAIRS[:, 1]]), axis=1)


def _pair_indices(pair: int) -> tuple[int, int]:
    i, j = _CROSS_PAIRS[pair]
    return int(i), int(j)


def _rough_rows(counts: np.ndarray) -> np.ndarray:
    return TWO_PI * np.argmax(counts, axis=1) / counts.shape[1]


def _top_bins(counts: np.ndarray, bins_kept: int):
    """Per row: the bins_kept highest-count bins (ties: smaller index), their
    counts as floats, and how many of them are nonzero (a prefix of each row)."""
    order = np.argsort(-counts, axis=1, kind="stable")[:, :bins_kept]
    kept = np.take_along_axis(counts, order, axis=1)
    return order, kept.astype(np.float64), np.count_nonzero(kept, axis=1)


def _objective(positions, bins, counts, width, n_points, sinc_floor):
    """Objective at (T, G) bin positions N*phi/(2*pi), from each row's first
    width[t] kept bins and counts (as returned by _top_bins).

    Each group's terms are computed in place.  Harness positions lie
    within one cell of a bin in [0, N); any position within [-N/2, N] keeps
    delta + N/2 inside [-N, 2N), where _mod_in_place needs no np.mod.
    """
    half = n_points / 2.0
    in_range = bool(positions.min(initial=0.0) >= -half
                    and positions.max(initial=0.0) <= n_points)
    scores = np.empty(positions.shape)
    for k in np.unique(width).tolist():
        rows = np.flatnonzero(width == k)
        x = np.subtract(positions[rows, :, None], bins[rows, None, :k])
        x += half
        _mod_in_place(x, n_points, in_range)
        x -= half
        mag = _sinc_in_place(x)
        np.abs(mag, out=mag)
        np.maximum(mag, sinc_floor, out=mag)
        np.log(mag, out=mag)
        scores[rows] = np.matmul(mag, counts[rows, :k, None])[:, :, 0]
    return scores


def _mod_in_place(x, n_points, in_range):
    """Overwrite x with np.mod(x, N); for x in [-N, 2N) (in_range), as x + N
    below 0 and x - N from N on, masks taken first.  That equals np.mod
    except at -0.0, which np.mod makes +0.0: fmod is exact, so np.mod is x
    on [0, N), the same rounded x + N below 0, and the exact x - N
    (Sterbenz) from N on."""
    if not in_range:
        np.mod(x, n_points, out=x)
        return
    below, above = x < 0.0, x >= n_points
    np.add(x, n_points, out=x, where=below)
    np.subtract(x, n_points, out=x, where=above)


def _sinc_in_place(x):
    """np.sinc(x) value for value, by np.sinc's own arithmetic: sin(pi*x) /
    (pi*x), with eps in place of a zero pi*x, so sinc(0) is 1.0.  x is
    overwritten by that divisor."""
    x *= np.pi
    np.copyto(x, _EPS, where=x == 0.0)
    out = np.sin(x)
    out /= x
    return out
