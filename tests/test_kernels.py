"""Byte-identity of the vectorized kernels against their per-item forms.

stream_keys replays numpy's SeedSequence -> PCG64 seeding on uint64
arrays, and uniform_rows draws numpy's stream from any columns of it;
the Fisher grid runs blocks of phases, of any size, through batched
in-place FFTs; the circular mean looks shot vectors up in a table; the
AML objective wraps without np.mod, takes its sinc in place and runs each
step once over one buffer that holds every group's terms; the rect
closed form runs in place, and the FFT distribution in one complex buffer.
Each must give exactly the bytes of the plain computation it replaces.
"""

import functools
import hashlib
import os
import subprocess
import sys
import tracemalloc
from pathlib import Path

import numpy as np
import pytest

import phasekit
from phasekit import experiments, fisher, rng
from phasekit.angles import TWO_PI, wrap_two_pi
from phasekit.estimators import (
    _CROSS_PAIRS,
    _mod_in_place,
    _objective,
    _sinc_in_place,
    _top_bins,
    aml_objective,
    aml_rows,
    circular_mean_rows,
    dual_frequency_details,
    dual_frequency_match,
)
from phasekit.experiments import ExperimentSpec, run_experiment
from phasekit.io import table_to_csv
from phasekit.model import Histogram, SampleSet, _rect_probs, _window_probs, histogram_rows
from phasekit.fisher import NEGLIGIBLE_PROB, fisher_information, fisher_information_grid
from phasekit.rng import CLOSED_FORM_MAX_WORDS, stream_keys, uniform_rows
from phasekit.windows import (BUILTIN_WINDOWS, make_bartlett, make_cosine, make_custom,
                              make_rectangular)

BOUNDARY_SEEDS = [0, 1, 2**32 - 1, 2**32, 2**63, 2**64 - 1]


def _seeds(count: int, seed: int = 2024) -> np.ndarray:
    drawn = np.random.default_rng(seed).integers(0, 2**64, count, dtype=np.uint64,
                                                 endpoint=False)
    return np.concatenate([np.array(BOUNDARY_SEEDS, dtype=np.uint64), drawn])


def _pcg64_raw(seeds: np.ndarray, k: int) -> np.ndarray:
    return np.array([np.random.PCG64(s).random_raw(k) for s in seeds.tolist()],
                    dtype=np.uint64).reshape(len(seeds), k)


def _as_double(raw: np.ndarray) -> np.ndarray:
    # What Generator.random does with one raw word.
    return (raw >> np.uint64(11)) * 2.0 ** -53


def test_raw_words_equal_pcg64_for_many_seeds():
    seeds = _seeds(10_000)
    raw = rng._closed_form_raw(rng._seeded(seeds), 31)
    assert np.array_equal(raw, _pcg64_raw(seeds, 31))


@pytest.mark.parametrize("k", [1, 31, CLOSED_FORM_MAX_WORDS, CLOSED_FORM_MAX_WORDS + 1, 1001])
def test_uniform_rows_equal_pcg64(k):
    seeds = _seeds(1_000 if k <= CLOSED_FORM_MAX_WORDS else 200, seed=k)
    rows = uniform_rows(stream_keys(seeds), k)
    assert rows.shape == (len(seeds), k)
    assert np.array_equal(rows, _as_double(_pcg64_raw(seeds, k)))


@pytest.mark.parametrize("k", [1, 31, CLOSED_FORM_MAX_WORDS, CLOSED_FORM_MAX_WORDS + 1, 1001])
@pytest.mark.parametrize("rows", [128, 1024])
def test_draw_words_bound_the_uniform_rows_peak(k, rows):
    """experiments._block_rows sizes a block from rng._draw_words: it must
    bound what uniform_rows holds per row, on either path, and the
    stream_keys replay of the same rows too."""
    seeds = _seeds(rows - len(BOUNDARY_SEEDS), seed=k)
    uniform_rows(stream_keys(seeds), k)  # the first-use check runs outside the trace
    tracemalloc.start()
    try:
        base = tracemalloc.get_traced_memory()[0]
        uniform_rows(stream_keys(seeds), k)
        peak = tracemalloc.get_traced_memory()[1] - base
    finally:
        tracemalloc.stop()
    assert peak / rows <= 8 * rng._draw_words(k), (peak / rows, rng._draw_words(k))


@pytest.mark.parametrize("k", [1, 31, CLOSED_FORM_MAX_WORDS + 1])
def test_uniform_rows_of_no_seeds(k):
    assert uniform_rows(stream_keys(np.array([], dtype=np.uint64)), k).shape == (0, k)


def test_failed_first_use_check_falls_back_to_the_loop(monkeypatch):
    seeds = _seeds(50)
    expected = _as_double(_pcg64_raw(seeds, 31))
    monkeypatch.setattr(rng, "_streams_checked", None)
    monkeypatch.setattr(rng, "_closed_form_raw",
                        lambda streams, k: np.zeros((streams.shape[1], k), dtype=np.uint64))
    assert np.array_equal(uniform_rows(stream_keys(seeds), 31), expected)
    assert rng._streams_checked is False


def test_failed_replayed_state_check_falls_back_to_the_loop(monkeypatch):
    # A numpy whose PCG64 state setter no longer reproduces its seeding.
    seeds = _seeds(50)
    k = CLOSED_FORM_MAX_WORDS + 1
    expected = _as_double(_pcg64_raw(seeds, k))
    monkeypatch.setattr(rng, "_streams_checked", None)
    monkeypatch.setattr(rng, "_replayed_rows",
                        lambda streams, k: np.zeros((streams.shape[1], k)))
    assert np.array_equal(uniform_rows(stream_keys(seeds), k), expected)
    assert rng._streams_checked is False


@pytest.mark.parametrize("k", [CLOSED_FORM_MAX_WORDS + 1, 1001, 3001])
def test_long_streams_from_the_replayed_state_equal_pcg64(k):
    seeds = _seeds(100, seed=k)
    expected = _as_double(_pcg64_raw(seeds, k))
    streams = stream_keys(seeds)
    assert np.array_equal(rng._replayed_rows(streams, k), expected)
    assert np.array_equal(uniform_rows(streams, k), expected)


@pytest.mark.parametrize("k", [CLOSED_FORM_MAX_WORDS + 1, 1001])
def test_failed_first_use_check_keeps_long_streams_on_the_loop(monkeypatch, k):
    def no_seeding(seeds):
        raise AssertionError("replayed seeding used after a failed first-use check")

    seeds = _seeds(50, seed=k)
    monkeypatch.setattr(rng, "_streams_checked", False)
    monkeypatch.setattr(rng, "_seeded", no_seeding)
    assert np.array_equal(uniform_rows(stream_keys(seeds), k), _as_double(_pcg64_raw(seeds, k)))


@pytest.mark.parametrize("k", [1, 2, 31, CLOSED_FORM_MAX_WORDS, CLOSED_FORM_MAX_WORDS + 1, 1002])
def test_uniform_rows_from_given_stream_keys_keep_the_bytes(k):
    # A chunk replays its seeds once, and each block takes its columns.
    seeds = _seeds(60, seed=k)
    streams = stream_keys(seeds)
    assert streams.shape == (5, len(seeds)) and np.array_equal(streams[0], seeds)
    cols = slice(7, 41)
    block = uniform_rows(streams[:, cols], k)
    assert np.array_equal(block, uniform_rows(stream_keys(seeds[cols]), k))
    assert np.array_equal(block, _as_double(_pcg64_raw(seeds[cols], k)))


@pytest.mark.parametrize("k", [31, 1002])
def test_failed_first_use_check_reads_only_the_seeds(monkeypatch, k):
    seeds = _seeds(50, seed=k)
    stale = stream_keys(seeds)
    stale[1:] = 0
    monkeypatch.setattr(rng, "_streams_checked", False)
    streams = stream_keys(seeds)
    assert streams.shape == (1, len(seeds)) and np.array_equal(streams[0], seeds)
    assert np.array_equal(uniform_rows(stale, k), _as_double(_pcg64_raw(seeds, k)))
    assert np.array_equal(uniform_rows(stale[:, 9:30], k),
                          _as_double(_pcg64_raw(seeds[9:30], k)))


def test_vectorized_streams_pass_the_first_use_check(monkeypatch):
    monkeypatch.setattr(rng, "_streams_checked", None)
    assert rng._streams_match_numpy()


def _reference_fi(weights: np.ndarray, phase: float) -> float:
    """Single-phase Fisher information with length-N inverse FFTs."""
    n = weights.shape[0]
    idx = np.arange(n)
    ramp = weights * np.exp(-1j * phase * idx)
    s = n * np.fft.ifft(ramp)
    v = n * np.fft.ifft(idx * ramp)
    f_scaled = np.abs(s) ** 2
    keep = f_scaled / n >= NEGLIGIBLE_PROB
    if not np.any(keep):
        return 0.0
    imag = np.imag(np.conj(s[keep]) * v[keep])
    return float(4.0 / n * np.sum(imag * imag / f_scaled[keep]))


def _window(kind: str, n: int):
    if kind == "rect":
        return make_rectangular(n)
    if kind == "cosine":
        return make_cosine(n)
    if kind == "bartlett":
        return make_bartlett(n)
    return make_custom(np.random.default_rng(n).random(n) + 0.1)


# The triangular window is undefined at N=2.
@pytest.mark.parametrize("grid_size", [16, 256, 257])
@pytest.mark.parametrize("kind, n", [(kind, n) for kind in ("rect", "cosine", "bartlett", "custom")
                                     for n in (2, 3, 64, 100, 1024, 4096)
                                     if (kind, n) != ("bartlett", 2)])
def test_fisher_grid_equals_per_phase_reference(kind, n, grid_size):
    window = _window(kind, n)
    cell = 2 * np.pi / n
    phases = cell * (np.arange(grid_size) + 0.5) / grid_size
    expected = np.array([_reference_fi(window.weights, p) for p in phases])
    assert fisher_information_grid(window, grid_size).tobytes() == expected.tobytes()


@functools.cache
def _reference_grids(n: int, grid_size: int) -> np.ndarray:
    """Per-phase _reference_fi of rect, cosine, bartlett and custom at the grid."""
    phases = fisher._cell_phases(n, grid_size)
    return np.array([[_reference_fi(_window(kind, n).weights, p) for p in phases]
                      for kind in ("rect", "cosine", "bartlett", "custom")])


# A budget of one phase per block, seven, the default and the whole grid.
@pytest.mark.parametrize("rows", [1, 7, None, "grid"])
@pytest.mark.parametrize("grid_size", [16, 257])
@pytest.mark.parametrize("n", [3, 100, 4096])
def test_fisher_bytes_do_not_depend_on_the_block_budget(n, grid_size, rows, monkeypatch):
    if rows == "grid":
        rows = grid_size
    if rows is not None:
        monkeypatch.setattr(fisher, "FI_BLOCK_ELEMENTS", rows * n)
    windows = [_window(kind, n) for kind in ("rect", "cosine", "bartlett", "custom")]
    grids = fisher._fisher(windows, fisher._cell_phases(n, grid_size))
    assert grids.tobytes() == _reference_grids(n, grid_size).tobytes()


def test_default_fisher_blocks_are_batched():
    # Blocks of 2^14 elements: four phases at N = 4096, so each window's
    # inverse FFT call transforms eight rows.
    assert fisher.FI_BLOCK_ELEMENTS // 4096 == 4


@pytest.mark.parametrize("n", [64, 1024, 4096])
def test_cold_pricing_peak_stays_within_a_trial_block(n):
    tracemalloc.start()
    try:
        base = tracemalloc.get_traced_memory()[0]
        fisher.one_shot_prices(BUILTIN_WINDOWS, n, 256)
        peak = tracemalloc.get_traced_memory()[1] - base
    finally:
        tracemalloc.stop()
    assert fisher._PRICES  # priced here, not read from an earlier test
    assert peak <= experiments.BLOCK_BYTES, peak


def _full_rows(window, grid_size: int) -> int:
    """Grid phases at which every outcome is kept."""
    n = window.n_points
    phases = 2 * np.pi / n * (np.arange(grid_size) + 0.5) / grid_size
    s = n * np.fft.ifft(window.weights * np.exp((-1j * phases)[:, None] * np.arange(n)), axis=1)
    return int(np.sum(np.all(np.abs(s) ** 2 / n >= NEGLIGIBLE_PROB, axis=1)))


@pytest.mark.parametrize("grid_size", [16, 256, 257])
@pytest.mark.parametrize("n", [3, 64, 100, 1024, 4096])
def test_shared_ramp_grid_equals_each_windows_own_grid(n, grid_size):
    windows = [_window(kind, n) for kind in ("rect", "cosine", "bartlett", "custom")]
    grids = fisher._fisher(windows, fisher._cell_phases(n, grid_size))
    assert grids.shape == (len(windows), grid_size)
    for window, row in zip(windows, grids):
        assert row.tobytes() == fisher_information_grid(window, grid_size).tobytes()


def test_shared_ramp_cases_cover_whole_and_masked_row_sums():
    # Whole-row sums (rect), a mix (cosine at 1024) and masked sums only
    # (Bartlett at 1024 and 4096) are all among the cases above.
    assert _full_rows(_window("rect", 1024), 256) == 256
    assert _full_rows(_window("cosine", 1024), 256) == 248
    assert _full_rows(_window("bartlett", 1024), 256) == 0
    assert _full_rows(_window("bartlett", 4096), 256) == 0


def test_shared_ramp_prices_equal_each_windows_own_price():
    windows = [_window(kind, 1024) for kind in ("rect", "cosine", "bartlett", "custom")]
    grids = fisher._fisher(windows, fisher._cell_phases(1024, 256))
    assert [fisher._price(fis) / np.sqrt(3) for fis in grids] == [fisher.avg_sqrt_crb(w, 3)
                                                                   for w in windows]


@pytest.mark.parametrize("kind", ["rect", "cosine", "custom"])
def test_scalar_fisher_information_equals_reference(kind):
    window = _window(kind, 128)
    for phase in (0.0, 0.3, 2 * np.pi / 128, 5.9, -1.2):
        assert fisher_information(window, phase) == _reference_fi(window.weights, phase)


@pytest.mark.parametrize("rows, shots, n", [(8, 1000, 1024), (120, 1000, 1024),
                                            (69, 30, 128), (500, 2, 128), (150, 31, 100)])
def test_circular_mean_table_equals_exp_form(rows, shots, n):
    outcomes = np.random.default_rng(rows + shots).integers(0, n, (rows, shots))
    resultant = np.exp(2j * np.pi * outcomes / n).sum(axis=1)
    means, defined = circular_mean_rows(outcomes, n)
    expected_defined = np.abs(resultant) >= 1e-12 * shots
    assert np.array_equal(defined, expected_defined)
    assert wrap_two_pi(np.angle(resultant)).tobytes() == means.tobytes()


def _wrap_cases(n: int) -> np.ndarray:
    """Values of x = delta + N/2 across (-N, 2N): random, -0.0, tiny negatives
    that round up to N, and the neighbours of -N, 0, N and 2N."""
    edges = [-0.0, 0.0, -5e-324, -1e-300, -1e-17, -np.finfo(float).eps, 1e-300]
    for point in (-n, 0.0, n, 2 * n):
        edges += [np.nextafter(point, -np.inf), np.nextafter(point, np.inf)]
    drawn = np.random.default_rng(n).uniform(-n, 2 * n, 200_000)
    x = np.concatenate([np.array(edges), drawn, np.round(drawn), np.round(drawn, 3)])
    return x[(-n < x) & (x < 2 * n)]


@pytest.mark.parametrize("n", [2, 3, 8, 100, 128, 1024, 2 ** 20])
def test_exact_wrap_equals_np_mod_inside_its_range(n):
    x = _wrap_cases(n)
    wrapped = x.copy()
    _mod_in_place(wrapped, n, in_range=True)
    expected = np.mod(x, n)
    # Only -0.0 differs, and the objective subtracts N/2 next.
    differ = wrapped.view(np.uint64) != expected.view(np.uint64)
    assert np.all(np.signbit(x[differ]) & (x[differ] == 0.0))
    assert (wrapped - n / 2).tobytes() == (expected - n / 2).tobytes()
    assert np.mod(-1e-17, n) == n and wrapped[x == -1e-17][0] == n


def test_wrap_fallback_is_np_mod():
    x = np.array([-1e9, -200.0, -128.0, 256.0, 300.5, 1e12, np.nan, np.inf])
    wrapped = x.copy()
    with np.errstate(invalid="ignore"):
        _mod_in_place(wrapped, 128, in_range=False)
        assert wrapped.tobytes() == np.mod(x, 128).tobytes()


def test_in_place_sinc_equals_np_sinc():
    drawn = np.random.default_rng(7).uniform(-70.0, 70.0, 100_000)
    x = np.concatenate([[0.0, -0.0, 1e-300, -5e-324, 1.0, -3.0, 64.0, 0.5, 1e-9],
                        drawn, np.round(drawn), np.round(drawn, 2)])
    expected = np.sinc(x)
    assert _sinc_in_place(x.copy()).tobytes() == expected.tobytes()
    assert _sinc_in_place(np.zeros(3)).tolist() == [1.0, 1.0, 1.0]


def _rect_probs_oracle(n: int, effective: np.ndarray) -> np.ndarray:
    # The closed form as written before it ran in place.
    half = 0.5 * (effective[:, None] - TWO_PI * np.arange(n) / n)
    s = np.sin(half)
    on_grid = np.abs(s) < 1e-9
    denom = np.where(on_grid, 1.0, s)
    probs = np.sin(n * half) ** 2 / (n * n * denom * denom)
    probs[on_grid] = 1.0
    return probs


def _window_probs_oracle(weights: np.ndarray, effective: np.ndarray) -> np.ndarray:
    # The FFT distribution as written before it ran in one buffer.
    n = weights.shape[0]
    ramp = weights * np.exp(1j * effective[:, None] * np.arange(n))
    return np.abs(np.fft.fft(ramp, axis=1)) ** 2 / n


# Rect records above model.RECT_CLOSED_FORM_MAX_N (2**12) take the FFT too.
@pytest.mark.parametrize("kind, n", [("cosine", 1024), ("bartlett", 1024), ("custom", 300),
                                     ("rect", 2 ** 13)])
@pytest.mark.parametrize("effective", [[0.0], [1e-9], [-1e-9], [TWO_PI - 1e-12], [2.0 ** 34],
                                       [-(2.0 ** 34)], "block"])
def test_in_place_window_probs_equal_the_fft_expression(kind, n, effective):
    if effective == "block":
        effective = np.random.default_rng(n).random(37) * TWO_PI
    effective = np.asarray(effective, dtype=float)
    weights = _window(kind, n).weights
    probs = _window_probs(weights, effective)
    expected = _window_probs_oracle(weights, effective)
    assert probs.view(np.uint64).tobytes() == expected.view(np.uint64).tobytes()


@pytest.mark.parametrize("n", [2, 3, 8, 100, 128, 1024, 4096])
def test_in_place_rect_probs_equal_the_closed_form(n):
    drawn = np.random.default_rng(n).random(300) * TWO_PI
    on_grid = TWO_PI * np.arange(min(n, 50)) / n
    near = (on_grid[:, None] + np.array([1e-12, -1e-12, 1e-10, 1e-8])).ravel()
    effective = np.concatenate([drawn, on_grid, near, [0.0, TWO_PI, -1.0, 7.5]])
    assert _rect_probs(n, effective).tobytes() == _rect_probs_oracle(n, effective).tobytes()


def _objective_oracle(hist: Histogram, phase: float, bins_kept: int = 8,
                      sinc_floor: float = 1e-12) -> float:
    # The objective as written with np.mod and np.sinc.
    order, kept, width = _top_bins(hist.counts[None, :], bins_kept)
    k = int(width[0])
    n = hist.n_points
    delta = n * phase / TWO_PI - order[0, :k]
    delta = np.mod(delta + n / 2.0, n) - n / 2.0
    mag = np.abs(np.sinc(delta))
    return float(np.matmul(np.log(np.maximum(mag, sinc_floor))[None, :],
                           kept[0, :k, None])[0, 0])


@pytest.mark.parametrize("phase", [-1e6, -40.0, -TWO_PI, -3.5, -1e-3, 0.0, 0.7, TWO_PI,
                                   9.0, 123.456, 1e8])
def test_aml_objective_at_any_phase_equals_np_mod(phase):
    # Positions beyond [-N/2, N] take the np.mod fallback; the others the exact wrap.
    counts = np.zeros(32, dtype=np.int64)
    counts[[0, 1, 5, 30, 31]] = [7, 3, 2, 4, 1]
    hist = Histogram(32, counts, 17)
    assert aml_objective(hist, phase) == _objective_oracle(hist, phase)


def _objective_per_group_oracle(positions, bins, counts, width, n_points, sinc_floor):
    # The objective as written before its terms shared one buffer: every
    # step ran once per group of rows with k kept bins, on its own array.
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


def _every_width_block(n: int, n_grid: int):
    """(positions, bins, counts, width) of a block, in shuffled row order,
    whose rows keep every width from 1 to min(8, N), on aml_rows' grid."""
    gen = np.random.default_rng(n * n_grid)
    widths = np.repeat(np.arange(1, min(8, n) + 1), 6)
    counts = gen.integers(1, 40, (widths.size + 6, n))  # the last 6 rows: every bin nonzero
    for row, w in enumerate(widths):
        counts[row, gen.permutation(n)[w:]] = 0
    counts = counts[gen.permutation(len(counts))]
    bins, kept, width = _top_bins(counts, 8)
    assert sorted(set(width.tolist())) == list(range(1, min(8, n) + 1))
    half = (n_grid - 1) // 2
    offsets = (2.0 * TWO_PI / (n * n_grid)) * np.arange(-half, half + 1)
    rough = TWO_PI * np.argmax(counts, axis=1) / n
    return n * (rough[:, None] + offsets) / TWO_PI, bins, kept, width


# Shifts of 0 keep the exact wrap; the others leave [-N/2, N] for np.mod.
@pytest.mark.parametrize("shift", [0.0, -1.0, 0.5, 1e6])
@pytest.mark.parametrize("n_grid", [9, 31, 179, 311])
@pytest.mark.parametrize("n", [2, 3, 100, 128, 1024])
def test_flat_objective_equals_the_per_group_objective(n, n_grid, shift):
    positions, bins, kept, width = _every_width_block(n, n_grid)
    positions = positions + shift * n
    expected = _objective_per_group_oracle(positions, bins, kept, width, n, 1e-12)
    assert _objective(positions, bins, kept, width, n, 1e-12).tobytes() == expected.tobytes()


@pytest.mark.parametrize("n, totals", [(2, (3, 2)), (100, (15, 15)), (128, (15, 15)),
                                       (128, (500, 500)), (1024, (50, 49))])
def test_dual_frequency_details_are_two_aml_rows_and_their_match(n, totals):
    gen = np.random.default_rng(n + totals[0])
    outcomes = [gen.integers(0, n, (40, total)) for total in totals]
    match = dual_frequency_match(*aml_rows(histogram_rows(outcomes[0], n), totals[0]),
                                 *aml_rows(histogram_rows(outcomes[1], n), totals[1]), n)
    for row in range(40):
        details = dual_frequency_details(SampleSet(n, outcomes[0][row]),
                                         SampleSet(n, outcomes[1][row], np.pi / n))
        assert details.estimate == match.estimate[row]
        assert details.candidates.u.tobytes() == match.candidates[row].tobytes()
        assert details.matched_pair == tuple(_CROSS_PAIRS[match.pair[row]])
        for aml, rough, correction in ((details.aml_set1, match.rough1, match.correction1),
                                       (details.aml_set2, match.rough2, match.correction2)):
            assert (aml.rough, aml.correction) == (rough[row], correction[row])


_CELL_CODE = """
import hashlib, sys
from phasekit.experiments import ExperimentSpec, run_experiment
from phasekit.io import table_to_csv
spec = ExperimentSpec(kind="rmse-vs-shots", n_points=(64,), n_shots=(2, 30),
                      estimators=("df", "aml"), trials=300, master_seed=11)
print(hashlib.sha256(table_to_csv(run_experiment(spec)).encode()).hexdigest())
"""


def _cpu_feature(name: str) -> bool:
    try:
        from numpy._core._multiarray_umath import __cpu_features__
    except ImportError:
        return False
    return bool(__cpu_features__.get(name))


@pytest.mark.skipif(not _cpu_feature("X86_V4"), reason="no AVX-512 dispatch to disable")
def test_df_and_aml_cells_do_not_depend_on_avx512_dispatch():
    spec = ExperimentSpec(kind="rmse-vs-shots", n_points=(64,), n_shots=(2, 30),
                          estimators=("df", "aml"), trials=300, master_seed=11)
    expected = hashlib.sha256(table_to_csv(run_experiment(spec)).encode()).hexdigest()
    src = str(Path(phasekit.__file__).resolve().parents[1])
    # Only the child runs without AVX-512: numpy warns about the variable at import.
    env = {**os.environ, "PYTHONPATH": src,
           "NPY_DISABLE_CPU_FEATURES": "X86_V4 AVX512_ICL AVX512_SPR"}
    proc = subprocess.run([sys.executable, "-c", _CELL_CODE], capture_output=True, text=True,
                          timeout=120, check=True, env=env)
    assert proc.stdout.strip() == expected
