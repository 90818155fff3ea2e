"""Byte-identity of the vectorized kernels against their per-item forms.

uniform_rows replays numpy's SeedSequence -> PCG64 seeding and stream on
uint64 arrays; the Fisher grid runs blocks of phases through row-wise
FFTs; the circular mean looks shot vectors up in a table.  Each must give
exactly the bytes of the plain computation it replaces.
"""

import numpy as np
import pytest

from phasekit import fisher, rng
from phasekit.angles import wrap_two_pi
from phasekit.estimators import circular_mean_rows
from phasekit.fisher import NEGLIGIBLE_PROB, fisher_information, fisher_information_grid
from phasekit.rng import CLOSED_FORM_MAX_WORDS, uniform_rows
from phasekit.windows import make_bartlett, make_cosine, make_custom, make_rectangular

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
    state, inc = rng._seeded(seeds)
    raw = rng._closed_form_raw(state, inc, 31)
    assert np.array_equal(raw, _pcg64_raw(seeds, 31))


@pytest.mark.parametrize("k", [1, 31, CLOSED_FORM_MAX_WORDS, CLOSED_FORM_MAX_WORDS + 1, 1001])
def test_uniform_rows_equal_pcg64(k):
    seeds = _seeds(1_000 if k <= CLOSED_FORM_MAX_WORDS else 200, seed=k)
    rows = uniform_rows(seeds, k)
    assert rows.shape == (len(seeds), k)
    assert np.array_equal(rows, _as_double(_pcg64_raw(seeds, k)))


@pytest.mark.parametrize("k", [1, 31, CLOSED_FORM_MAX_WORDS + 1])
def test_uniform_rows_of_no_seeds(k):
    assert uniform_rows(np.array([], dtype=np.uint64), k).shape == (0, k)


def test_failed_first_use_check_falls_back_to_the_loop(monkeypatch):
    seeds = _seeds(50)
    expected = _as_double(_pcg64_raw(seeds, 31))
    monkeypatch.setattr(rng, "_streams_checked", None)
    monkeypatch.setattr(rng, "_uniform_rows_vectorized",
                        lambda seeds, k: np.zeros((len(seeds), k)))
    assert np.array_equal(uniform_rows(seeds, 31), expected)
    assert rng._streams_checked is False


@pytest.mark.parametrize("k", [CLOSED_FORM_MAX_WORDS + 1, 1001])
def test_longer_streams_use_one_pcg64_per_seed(monkeypatch, k):
    # Beyond the closed form there is no vectorized seeding at all.
    def no_seeding(seeds):
        raise AssertionError("vectorized seeding used beyond the closed form")

    seeds = _seeds(50, seed=k)
    monkeypatch.setattr(rng, "_seeded", no_seeding)
    assert np.array_equal(uniform_rows(seeds, k), _as_double(_pcg64_raw(seeds, k)))


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
    grids = fisher._fisher_grids(windows, grid_size)
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
    assert fisher._avg_sqrt_crbs(windows, 3, 256) == [fisher.avg_sqrt_crb(w, 3) for w in windows]


def test_shared_ramp_grid_needs_one_record_length():
    with pytest.raises(ValueError, match="differ in record length"):
        fisher._fisher_grids([make_rectangular(64), make_cosine(128)], 16)
    with pytest.raises(ValueError, match="differ in record length"):
        fisher._avg_sqrt_crbs([make_rectangular(64), make_cosine(128)], 1, 16)


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
