"""Byte-identity of the vectorized kernels against their per-item forms.

uniform_rows replays numpy's SeedSequence -> PCG64 seeding and stream on
uint64 arrays; the Fisher grid runs blocks of phases through row-wise
FFTs; the circular mean looks shot vectors up in a table; the AML
objective wraps without np.mod and takes its sinc in place; the rect
closed form runs in place.  Each must give exactly the bytes of the plain
computation it replaces.
"""

import hashlib
import os
import subprocess
import sys
from pathlib import Path

import numpy as np
import pytest

import phasekit
from phasekit import fisher, rng
from phasekit.angles import TWO_PI, wrap_two_pi
from phasekit.estimators import (
    _mod_in_place,
    _sinc_in_place,
    _top_bins,
    aml_objective,
    circular_mean_rows,
)
from phasekit.experiments import ExperimentSpec, run_experiment
from phasekit.io import table_to_csv
from phasekit.model import Histogram, _rect_probs
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
