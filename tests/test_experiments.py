import json
import multiprocessing.process
import os
import subprocess
import sys
import tracemalloc
from dataclasses import replace
from pathlib import Path

import numpy as np
import pytest

import phasekit.experiments
import phasekit.fisher
from phasekit import rng
from phasekit.angles import TWO_PI, circ_signed_error
from phasekit.estimators import (
    aml_estimate,
    circular_sample_mean,
    dual_frequency_estimate,
    split_shot_counts,
)
from phasekit.experiments import (
    ESTIMATOR_WINDOWS,
    ExperimentRow,
    ExperimentSpec,
    ExperimentTable,
    ScatterTable,
    fit_loglog_slope,
    run_crb_curve,
    run_experiment,
    run_rmse_vs_n,
    run_rmse_vs_shots,
    run_scatter,
    BLOCK_BYTES,
    _block_rows,
    _trial_block,
)
from phasekit.fisher import avg_sqrt_crb
from phasekit.io import table_to_csv, table_to_json
from phasekit.model import distribution, histogram, sample
from phasekit.rng import derive_seed, make_generator, splitmix64
from phasekit.windows import BUILTIN_WINDOWS, make_window


def small_spec(**kw):
    base = dict(kind="rmse-vs-shots", n_points=(64,), n_shots=(8, 16),
                estimators=("df", "mean-cosine"), trials=200, master_seed=7)
    base.update(kw)
    return ExperimentSpec(**base)


def test_spec_validation():
    with pytest.raises(ValueError):
        small_spec(kind="nope")
    with pytest.raises(ValueError):
        small_spec(n_points=())
    with pytest.raises(ValueError):
        small_spec(estimators=("magic",))
    with pytest.raises(ValueError):
        small_spec(n_points=(100,))  # not a power of two
    small_spec(n_points=(100,), allow_any_n=True)
    with pytest.raises(ValueError):
        small_spec(phase_policy="fixed")
    small_spec(phase_policy="fixed", fixed_phases=(0.3,))


def test_row_count_invariant():
    table = run_rmse_vs_shots(small_spec(trials=50))
    assert len(table.rows) == 1 * 2 * 2
    assert all(r.rmse >= 0 and r.sqrt_crb > 0 for r in table.rows)


def test_errors_are_wrapped():
    spec = small_spec(kind="scatter", n_points=(64,), n_shots=(8,),
                      estimators=("df",), trials=100, phase_policy="cell", cell_index=5)
    table = run_scatter(spec)
    assert len(table.rows) == 100
    assert all(abs(r.signed_error) <= np.pi for r in table.rows)
    cell_lo = 2 * np.pi * 5 / 64
    assert all(cell_lo <= r.true_phase < cell_lo + 2 * np.pi / 64 for r in table.rows)


def test_scatter_zero_trials_empty():
    spec = small_spec(kind="scatter", n_points=(64,), n_shots=(8,),
                      estimators=("aml",), trials=0, phase_policy="cell")
    assert run_scatter(spec).rows == []


def test_rerun_is_identical():
    spec = small_spec()
    a = run_rmse_vs_shots(spec)
    b = run_rmse_vs_shots(spec)
    assert [(r.rmse, r.sqrt_crb) for r in a.rows] == [(r.rmse, r.sqrt_crb) for r in b.rows]


def test_worker_count_does_not_change_bytes():
    texts = []
    for jobs in (1, 3):
        spec = small_spec(trials=120, n_jobs=jobs)
        texts.append(table_to_csv(run_rmse_vs_shots(spec)))
    assert texts[0] == texts[1]


def test_no_worker_process_starts(monkeypatch):
    def refuse(self):
        raise AssertionError("a worker process was started")

    monkeypatch.setattr(multiprocessing.process.BaseProcess, "start", refuse)
    texts = [table_to_csv(run_rmse_vs_shots(small_spec(trials=40, n_jobs=jobs)))
             for jobs in (1, 2)]
    assert texts[0] == texts[1]


def test_fixed_phase_policy():
    spec = small_spec(kind="scatter", n_points=(64,), n_shots=(8,), estimators=("aml",),
                      trials=10, phase_policy="fixed", fixed_phases=(1.0, 2.0))
    phases = [r.true_phase for r in run_scatter(spec).rows]
    assert phases == [1.0, 2.0] * 5


def test_crb_curve_rows():
    spec = ExperimentSpec(kind="crb-curve", n_points=(128,), n_shots=(1, 10, 100),
                          windows=("rect", "cosine"), trials=1)
    table = run_crb_curve(spec)
    assert len(table.rows) == 6
    rect = {r.x: r.sqrt_crb for r in table.rows if r.window == "rect"}
    assert rect[100.0] == pytest.approx(rect[1.0] / 10, rel=1e-12)


def test_avg_sqrt_crb_is_the_crb_curve_price_bit_for_bit():
    # avg_sqrt_crb took sqrt(mean(1/(N_s*FI))), the tables divide the one-shot
    # price by sqrt(N_s): 23 of these 63 values differed in the last bit.
    n_points, shots = (64, 128, 1024), (1, 2, 3, 7, 30, 100, 1000)
    table = run_crb_curve(ExperimentSpec(kind="crb-curve", n_points=n_points, n_shots=shots,
                                         trials=1))
    assert [row.sqrt_crb for row in table.rows] == [
        avg_sqrt_crb(make_window(window_id, n), n_shots)
        for n in n_points for window_id in BUILTIN_WINDOWS for n_shots in shots]


def test_both_row_types_store_sqrt_crb_as_a_python_float():
    crb = run_crb_curve(ExperimentSpec(kind="crb-curve", n_points=(16,), n_shots=(1, 7),
                                       windows=("rect", "cosine"), trials=1))
    rmse = run_experiment(small_spec(trials=5))
    assert {type(row.sqrt_crb) for row in crb.rows + rmse.rows} == {float}


def test_run_experiment_dispatch():
    spec = small_spec(trials=20)
    assert run_experiment(spec).rows
    with pytest.raises(ValueError):
        run_rmse_vs_n(spec)  # wrong kind for this runner


def test_fit_loglog_slope_synthetic():
    rows = [ExperimentRow(64, ns, "rect", "df", 3.0 / ns, 0.1, 10)
            for ns in (2, 4, 8, 16, 32)]
    assert fit_loglog_slope(rows, "n_shots") == pytest.approx(-1.0, abs=1e-12)
    rows = [ExperimentRow(64, ns, "rect", "df", 3.0 / np.sqrt(ns), 0.1, 10)
            for ns in (2, 4, 8, 16, 32)]
    assert fit_loglog_slope(rows, "n_shots") == pytest.approx(-0.5, abs=1e-12)


def test_fit_loglog_slope_validation():
    rows = [ExperimentRow(64, 2, "rect", "df", 1.0, 0.1, 10)]
    with pytest.raises(ValueError):
        fit_loglog_slope(rows, "n_shots")
    bad = [ExperimentRow(64, ns, "rect", "df", 0.0, 0.1, 10) for ns in (2, 4, 8)]
    with pytest.raises(ValueError):
        fit_loglog_slope(bad, "n_shots")


def test_fit_loglog_slope_filtering():
    rows = [ExperimentRow(64, ns, "rect", "df", 1.0 / ns, 0.1, 10) for ns in (2, 4, 8)]
    rows += [ExperimentRow(64, ns, "cosine", "mean-cosine", 5.0, 0.1, 10)
             for ns in (2, 4, 8)]
    assert fit_loglog_slope(rows, "n_shots", {"estimator": "df"}) == pytest.approx(-1.0)


def test_seed_derivation_mixing():
    a = derive_seed(7, "rmse-vs-shots", "df", 64, 8, 0)
    b = derive_seed(7, "rmse-vs-shots", "df", 64, 8, 1)
    c = derive_seed(8, "rmse-vs-shots", "df", 64, 8, 0)
    assert len({a, b, c}) == 3
    assert splitmix64(0) != 0
    assert all(0 <= s < 2**64 for s in (a, b, c))


@pytest.mark.parametrize("seed", [np.int64(7), np.int32(7), np.int64(-1), np.uint64(7)])
def test_numpy_integer_seeds_act_as_the_equal_python_int(seed):
    assert derive_seed(seed, "rmse-vs-shots", "df", 64, 8, 0) == \
        derive_seed(int(seed), "rmse-vs-shots", "df", 64, 8, 0)
    index = np.arange(3)
    assert np.array_equal(derive_seed(seed, "df", index), derive_seed(int(seed), "df", index))
    assert make_generator(seed).random(4).tobytes() == \
        make_generator(int(seed)).random(4).tobytes()


def test_float_seeds_are_refused():
    # A bool is no seed either: derive_seed(1, True) returned derive_seed(1, 1).
    for seed in (7.0, np.float64(7.0), True, np.True_):
        with pytest.raises(TypeError):
            derive_seed(seed, "df")
        with pytest.raises(TypeError):
            make_generator(seed)
    # A part is refused too, rather than truncated: derive_seed(1, 2.5) was
    # derive_seed(1, 2).
    for part in (2.5, 2.0, np.float64(2.0), np.arange(3.0), np.array([0.5, 1.5]), True,
                 np.True_, np.array([True, False])):
        with pytest.raises(TypeError):
            derive_seed(1, "df", part)


def test_crb_curve_computes_one_grid_per_window_and_n(grids):
    run_crb_curve(ExperimentSpec(kind="crb-curve", n_points=(64, 128, 256), n_shots=(1,),
                                 windows=("rect", "cosine", "bartlett"), trials=1))
    assert grids == [(w, n) for n in (64, 128, 256) for w in ("rect", "cosine", "bartlett")]


def test_rmse_run_computes_one_grid_per_window_and_n(grids):
    run_rmse_vs_n(ExperimentSpec(
        kind="rmse-vs-n", n_points=(64, 128), n_shots=(4, 8), trials=3,
        estimators=("df", "mean-cosine", "aml", "mean-rect", "mean-bartlett")))
    assert grids == [(w, n) for n in (64, 128) for w in ("rect", "cosine", "bartlett")]


def test_a_repeated_run_computes_no_grid(grids):
    spec = small_spec(trials=5)
    first = table_to_csv(run_experiment(spec))
    assert grids == [("rect", 64), ("cosine", 64)]
    grids.clear()
    assert table_to_csv(run_experiment(spec)) == first
    assert grids == []


def test_rmse_run_and_crb_curve_share_their_prices(grids):
    curve = ExperimentSpec(kind="crb-curve", n_points=(1024,), n_shots=(1, 10, 1000),
                           windows=("rect", "cosine", "bartlett"), trials=1)
    cold = table_to_csv(run_crb_curve(curve))
    phasekit.fisher._PRICES.clear()
    run_rmse_vs_shots(ExperimentSpec(kind="rmse-vs-shots", n_points=(1024,), n_shots=(4,),
                                     estimators=("mean-cosine", "mean-bartlett"), trials=2))
    grids.clear()
    assert table_to_csv(run_crb_curve(curve)) == cold
    assert grids == [("rect", 1024)]


def test_another_crb_grid_size_is_another_price(grids):
    # The Bartlett window's FI varies within a cell, so its price moves with the grid.
    spec = ExperimentSpec(kind="crb-curve", n_points=(128,), n_shots=(1,),
                          windows=("bartlett",), trials=1)
    default = run_crb_curve(spec).rows
    coarse = run_crb_curve(replace(spec, crb_grid_size=64)).rows
    assert grids == [("bartlett", 128), ("bartlett", 128)]
    assert coarse[0].sqrt_crb != default[0].sqrt_crb
    assert run_crb_curve(spec).rows == default
    assert len(grids) == 2


def test_a_failed_pricing_stores_nothing(monkeypatch):
    def degenerate(fis):
        raise ValueError("200 of 256 grid phases have degenerate FI")

    monkeypatch.setattr(phasekit.fisher, "_price", degenerate)
    with pytest.raises(ValueError, match="degenerate FI"):
        run_crb_curve(ExperimentSpec(kind="crb-curve", n_points=(64,), n_shots=(1,),
                                     trials=1))
    assert phasekit.fisher._PRICES == {}


def test_json_emission_shape():
    table = run_rmse_vs_shots(small_spec(trials=20))
    payload = json.loads(table_to_json(table))
    assert set(payload) == {"spec", "rows"}
    assert payload["spec"]["kind"] == "rmse-vs-shots"
    assert len(payload["rows"]) == 4
    assert "wall_time" not in payload["rows"][0]


@pytest.mark.parametrize("spec", [
    small_spec(trials=20),
    small_spec(kind="rmse-vs-n", n_points=(16, 32), n_shots=(8,), trials=20),
    small_spec(kind="scatter", n_shots=(8,), estimators=("df",), trials=20),
    small_spec(kind="crb-curve", windows=("rect", "cosine"), trials=1),
], ids=lambda spec: spec.kind)
def test_one_spec_gives_an_equal_table(spec):
    first = run_experiment(spec)
    assert first.rows
    assert run_experiment(spec) == first


def test_spec_rejects_nonpositive_shot_counts():
    for shots in ((0,), (8, -5)):
        with pytest.raises(ValueError, match="shot count"):
            small_spec(n_shots=shots)


def _reference_trial(spec, window, i):
    """One trial run alone: its own generator and the public scalar functions.

    Returns (phase, estimate, guessed); guessed marks a sample mean with a
    zero resultant, for which the trial takes its next draw as the guess.
    """
    (n,), (n_shots,), (estimator,) = spec.n_points, spec.n_shots, spec.estimators
    rng = make_generator(derive_seed(spec.master_seed, spec.kind, estimator, n, n_shots, i))
    phase = float(rng.random() * TWO_PI)
    if estimator == "df":
        first, second = split_shot_counts(n_shots)
        set1 = sample(distribution(window, phase, 0.0), first, rng)
        set2 = sample(distribution(window, phase, np.pi / n), second, rng)
        return phase, dual_frequency_estimate(set1, set2), False
    draws = sample(distribution(window, phase), n_shots, rng)
    if estimator == "aml":
        return phase, aml_estimate(histogram(draws)).refined, False
    try:
        return phase, circular_sample_mean(draws), False
    except ValueError:
        return phase, rng.random() * TWO_PI, True


@pytest.mark.parametrize("estimator, n, n_shots, seed, guesses", [
    ("df", 64, 30, 3, 0),
    ("aml", 100, 31, 4, 0),
    ("mean-cosine", 64, 9, 5, 0),
    # At seed 12 one 2-shot trial reads two opposite outcomes: no mean exists.
    ("mean-rect", 16, 2, 12, 1),
])
def test_blocks_equal_trials_run_one_by_one(estimator, n, n_shots, seed, guesses):
    spec = ExperimentSpec(kind="scatter", n_points=(n,), n_shots=(n_shots,),
                          estimators=(estimator,), trials=150, master_seed=seed,
                          allow_any_n=True)
    window = make_window(ESTIMATOR_WINDOWS[estimator], n)
    guessed = 0
    for i, row in enumerate(run_scatter(spec).rows):
        phase, estimate, guess = _reference_trial(spec, window, i)
        assert row.true_phase == phase
        assert row.signed_error == circ_signed_error(estimate, phase)
        guessed += guess
    assert guessed == guesses


# df-cell's and the taper cells' shapes, a grid over N and N_s, the
# closed-form corners, where a row draws 62 to 66 words from either rng path,
# and three fixed-policy shapes, whose rows draw no phase: aml's tightest, aml
# at a small N with many kept bins, where the objective's terms are charged
# by the mean kept width, and a sample mean whose 64 words come from the
# closed form though N_s + 2 = 65 would not.
_BUDGET_SHAPES = [("df", 128, 30, "uniform"), ("mean-cosine", 1024, 1000, "uniform"),
                  ("mean-bartlett", 1024, 1000, "uniform")] + [
    (estimator, n, n_shots, "uniform") for estimator in ("df", "aml", "mean-rect", "mean-cosine")
    for n in (2, 8, 64, 1024, 4096) for n_shots in (2, 30, 1000)] + [
    (estimator, n, n_shots, "uniform") for estimator in ("df", "aml", "mean-rect", "mean-cosine")
    for n in (2, 8) for n_shots in (62, 63, 64)] + [
    ("aml", 16, 30, "fixed"), ("aml", 16, 100, "fixed"), ("mean-rect", 2, 63, "fixed")]


def _block_peak(estimator, n, n_shots, policy="uniform"):
    """(rows, traced peak in bytes) of one warm block of _block_rows trials.
    As in _collect_trials, the block takes its columns of its chunk's streams."""
    rows = _block_rows(n, n_shots, estimator)
    spec = ExperimentSpec(kind="scatter", n_points=(n,), n_shots=(n_shots,),
                          estimators=(estimator,), trials=rows, master_seed=5, phase_policy=policy,
                          fixed_phases=(0.1, 1.3, 2.9) if policy == "fixed" else ())
    window = make_window(ESTIMATOR_WINDOWS[estimator], n)
    chunk = BLOCK_BYTES // 256
    assert rows <= chunk
    streams = rng.stream_keys(derive_seed(5, "scatter", estimator, n, n_shots, np.arange(chunk)))
    # stream_keys has run the stream check; the first block fills numpy's caches.
    _trial_block(spec, estimator, window, n, n_shots, 0, streams[:, :rows])
    tracemalloc.start()
    try:
        base = tracemalloc.get_traced_memory()[0]
        _trial_block(spec, estimator, window, n, n_shots, 0, streams[:, :rows])
        peak = tracemalloc.get_traced_memory()[1] - base
    finally:
        tracemalloc.stop()
    return rows, peak


@pytest.mark.parametrize("estimator, n, n_shots, policy", [
    pytest.param(*shape, id="-".join(map(str, shape[:3 if shape[3] == "uniform" else 4])))
    for shape in _BUDGET_SHAPES])
def test_block_peak_stays_within_the_budget(estimator, n, n_shots, policy):
    """One block of _block_rows trials peaks at no more than 1.25 * BLOCK_BYTES
    of traced allocations, unless one trial alone is the block."""
    rows, peak = _block_peak(estimator, n, n_shots, policy)
    assert rows == 1 or peak <= 1.25 * BLOCK_BYTES, (rows, peak)


@pytest.mark.parametrize("estimator, n, n_shots", [
    ("df", 128, 30), ("mean-cosine", 1024, 1000), ("df", 1024, 30), ("aml", 128, 30),
    ("df", 512, 30)])
def test_benchmark_blocks_fill_half_the_budget(estimator, n, n_shots):
    """The benchmark's cell shapes (df-cell, a taper cell, and df and aml
    cells of cli-figures) fill a block to at least half of BLOCK_BYTES; they
    reach 0.89 to 0.94 of it.
    Each block pays a fixed cost, so a stage charge that drifts 2x too high
    halves the blocks, slows the cell and fails here."""
    rows, peak = _block_peak(estimator, n, n_shots)
    assert peak >= 0.5 * BLOCK_BYTES, (rows, peak)


@pytest.mark.parametrize("overrides, message", [
    (dict(kind="crb-curve", windows=("rect", "hann")), "unknown window 'hann'"),
    (dict(kind="crb-curve", windows=("custom",)), "unknown window 'custom'"),
    (dict(crb_grid_size=15), "crb_grid_size must be >= 16"),
    (dict(kind="scatter", n_shots=(8,), estimators=("df", "aml")), "exactly one N"),
    (dict(kind="scatter", n_points=(64, 128), n_shots=(8,), estimators=("aml",)),
     "exactly one N"),
    (dict(n_shots=(1, 8)), "needs at least 2 shots"),
    (dict(kind="scatter", n_shots=(1,), estimators=("df",)), "needs at least 2 shots"),
    # Bounds on what a spec sizes, checked before anything is allocated.
    (dict(trials=10**12), "trials must be <= 1000000"),
    (dict(crb_grid_size=10**12), "crb_grid_size must be <= 65536"),
    (dict(n_points=(64, 2**21)), "record length must be <= 1048576"),
    (dict(n_shots=(8, 10**7 + 1)), "every shot count must be <= 10000000"),
    (dict(kind="crb-curve", n_points=(2**40,), n_shots=(1,), trials=1),
     "record length must be <= 1048576"),
    (dict(kind="crb-curve", n_points=(2**40,), n_shots=(10**12,), trials=1),
     "every shot count must be <= 10000000"),
    (dict(kind="crb-curve", n_points=(64,), n_shots=(10**12,), trials=1),
     "every shot count must be <= 10000000"),
    # Non-integers and non-finite fixed phases, which would otherwise fail
    # late in numpy or write rmse=nan into the table.
    (dict(n_shots=(30.5,)), "every entry of n_shots must be an integer"),
    (dict(n_points=(64.5,)), "every entry of n_points must be an integer"),
    (dict(n_points=(64.5,), allow_any_n=True), "every entry of n_points must be an integer"),
    (dict(trials=20.5), "trials must be an integer"),
    (dict(master_seed=1.5), "master_seed must be an integer"),
    (dict(kind="crb-curve", crb_grid_size=100.5), "crb_grid_size must be an integer"),
    (dict(phase_policy="fixed", fixed_phases=(float("nan"),)), "fixed_phases nan is not finite"),
    (dict(phase_policy="fixed", fixed_phases=(0.5, float("inf"))),
     "fixed_phases inf is not finite"),
    # A cell outside [0, N) would draw true phases outside [0, 2*pi).
    (dict(kind="scatter", n_points=(100,), n_shots=(30,), estimators=("aml",),
          allow_any_n=True, phase_policy="cell", cell_index=100),
     r"cell_index must be in \[0, 100\)"),
    (dict(kind="scatter", n_points=(100,), n_shots=(30,), estimators=("aml",),
          allow_any_n=True, phase_policy="cell", cell_index=-1),
     r"cell_index must be in \[0, 100\)"),
    (dict(kind="rmse-vs-n", n_points=(64, 128), phase_policy="cell", cell_index=64),
     r"cell_index must be in \[0, 64\)"),
    (dict(n_jobs="2"), "n_jobs must be an integer"),
    (dict(n_jobs=1.5), "n_jobs must be an integer"),
    (dict(phase_policy="cell", cell_index=1.5), "cell_index must be an integer"),
    (dict(phase_policy="fixed", fixed_phases=("a",)),
     "every entry of fixed_phases must be a number"),
    # A scatter of no trials is its header; an RMSE of no trials has no value.
    (dict(trials=0), "RMSE experiments need at least one trial"),
    (dict(kind="rmse-vs-n", trials=0), "RMSE experiments need at least one trial"),
    # A list field takes a tuple, list or array and nothing else, whatever the
    # kind reads.
    (dict(n_points=64), "n_points must be a tuple, list or array"),
    (dict(n_shots=8), "n_shots must be a tuple, list or array"),
    (dict(estimators="df"), "estimators must be a tuple, list or array"),
    (dict(windows="rect"), "windows must be a tuple, list or array"),
    (dict(phase_policy="fixed", fixed_phases=1.0),
     "fixed_phases must be a tuple, list or array"),
    (dict(estimators=("df", 5)), "every entry of estimators must be a string"),
    (dict(kind="crb-curve", windows=["rect", None]), "every entry of windows must be a string"),
    (dict(phase_policy="fixed", fixed_phases=(True,)),
     "every entry of fixed_phases must be a number"),
    # A bool is not an integer, and allow_any_n is a bool.
    (dict(trials=True), "trials must be an integer"),
    (dict(master_seed=np.bool_(True)), "master_seed must be an integer"),
    (dict(n_shots=(8, True)), "every entry of n_shots must be an integer"),
    (dict(n_points=(100,), allow_any_n="no"), "allow_any_n must be a bool"),
    # An empty list the kind reads would run nothing.
    (dict(estimators=()), "estimators list must be nonempty"),
    (dict(kind="rmse-vs-n", estimators=[]), "estimators list must be nonempty"),
    (dict(kind="crb-curve", windows=()), "windows list must be nonempty"),
    (dict(phase_policy="nope"), "unknown phase policy 'nope'"),
    (dict(n_points=(1,)), "record length must be >= 2"),
    (dict(n_jobs=0), "n_jobs must be >= 1"),
    # A window the run builds, or prices, degenerate at one of its N.
    (dict(kind="crb-curve", n_points=(8, 2), windows=("rect", "cosine")),
     "the cosine window at N=2 cannot be priced"),
    (dict(kind="crb-curve", n_points=(3,), windows=("bartlett",), allow_any_n=True),
     "the bartlett window at N=3 cannot be priced"),
    (dict(kind="rmse-vs-n", n_points=(2, 64), estimators=("df", "mean-cosine")),
     "the cosine window at N=2 cannot be priced"),
    (dict(n_points=(2,), estimators=("mean-bartlett",)), "triangular window is degenerate"),
    (dict(kind="scatter", n_points=(2,), n_shots=(5,), estimators=("mean-bartlett",)),
     "triangular window is degenerate"),
    # Only the cell policy reads cell_index, but no policy ignores a bad one.
    (dict(cell_index=-5), r"cell_index must be in \[0, 64\), a cell of every N"),
    (dict(cell_index=64), r"cell_index must be in \[0, 64\), a cell of every N"),
    (dict(phase_policy="fixed", fixed_phases=(0.5,), cell_index=10 ** 30),
     r"cell_index must be in \[0, 64\), a cell of every N"),
    # A repeated list entry would run the same rows twice.
    (dict(n_points=(64, 128, 64)), "^n_points repeats an entry$"),
    (dict(n_points=np.array([64, 64])), "^n_points repeats an entry$"),
    (dict(n_shots=(8, np.int64(8))), "^n_shots repeats an entry$"),
    (dict(estimators=("df", "mean-cosine", "df")), "^estimators repeats an entry$"),
    (dict(windows=("rect", "rect")), "^windows repeats an entry$"),
    (dict(kind="crb-curve", windows=("rect", "cosine", "rect")), "^windows repeats an entry$"),
])
def test_spec_rejects_runs_that_cannot_start(overrides, message):
    with pytest.raises(ValueError, match=message):
        small_spec(**overrides)


def test_spec_fixed_phases_may_repeat_and_any_policy_takes_a_cell():
    # A repeated fixed phase weights the cycle the trials run through.
    spec = small_spec(phase_policy="fixed", fixed_phases=(0.5, 0.5, 1.0), cell_index=63)
    assert (spec.fixed_phases, spec.cell_index) == ((0.5, 0.5, 1.0), 63)


def test_spec_bounds_fixed_phases():
    # At 1e20 every trial of every estimator had the same error, -1.8956; at
    # 1e308 the run warned, then failed with "degenerate distribution".
    for phases in ((1e20,), (0.5, np.nextafter(2.0 ** 34, np.inf)), (-1e308,), (-2 ** 35,)):
        with pytest.raises(ValueError, match=r"fixed_phases must lie in \[-2\*\*34, 2\*\*34\]"):
            small_spec(phase_policy="fixed", fixed_phases=phases)
    # Each entry takes the one phase rule in turn; the first that fails names it.
    for phases, message in (((1e308, float("nan")), r"fixed_phases must lie in \[-2\*\*34"),
                            ((float("nan"), 1e308), "fixed_phases nan is not finite")):
        with pytest.raises(ValueError, match=message):
            small_spec(phase_policy="fixed", fixed_phases=phases)
    spec = small_spec(phase_policy="fixed", fixed_phases=(2.0 ** 34, -2 ** 34, 1e8))
    assert spec.fixed_phases == (2.0 ** 34, -2.0 ** 34, 1e8)


def test_spec_accepts_numpy_integers():
    spec = small_spec(trials=20)
    as_numpy = small_spec(n_points=(np.int64(64),), n_shots=(np.int32(8), np.uint16(16)),
                          trials=np.int64(20), master_seed=np.int64(7))
    def table(spec):
        return [(r.n_shots, r.estimator, r.rmse, r.sqrt_crb) for r in run_experiment(spec).rows]

    assert table(as_numpy) == table(spec)
    cell = small_spec(trials=20, phase_policy="cell", cell_index=np.int64(10))
    assert type(cell.cell_index) is int
    assert table(cell) == table(small_spec(trials=20, phase_policy="cell", cell_index=10))


def test_spec_settles_each_field_to_one_python_type():
    spec = small_spec(kind=np.str_("rmse-vs-n"), n_points=np.array([64, 128]),
                      n_shots=[np.int32(8)], estimators=np.array(["df", "aml"]),
                      windows=["rect"], phase_policy=np.str_("fixed"),
                      fixed_phases=np.array([1, 2.5]),
                      trials=np.int64(5), crb_grid_size=np.uint16(64))
    assert spec == small_spec(kind="rmse-vs-n", n_points=(64, 128), n_shots=(8,),
                              estimators=("df", "aml"), windows=("rect",),
                              phase_policy="fixed", fixed_phases=(1.0, 2.5), trials=5,
                              crb_grid_size=64)
    for name in ("n_points", "n_shots", "estimators", "windows", "fixed_phases"):
        assert type(getattr(spec, name)) is tuple
    assert {type(v) for v in spec.n_points + spec.n_shots} == {int}
    assert {type(v) for v in spec.estimators + spec.windows} == {str}
    assert {type(v) for v in spec.fixed_phases} == {float}
    assert type(spec.crb_grid_size) is int and type(spec.allow_any_n) is bool
    assert type(spec.kind) is str and type(spec.phase_policy) is str
    assert hash(spec) == hash(replace(spec)) and replace(spec) == spec
    # A library caller's integer fixed phase echoes as a float: 1.0, not 1.
    echo = json.loads(table_to_json(ExperimentTable(spec)))["spec"]["fixed_phases"]
    assert [(type(v), v) for v in echo] == [(float, 1.0), (float, 2.5)]


def test_spec_shape_checks_follow_the_kind():
    # Windows matter only to crb-curve, estimators only to the runs that estimate.
    small_spec(windows=("hann",))
    ExperimentSpec(kind="crb-curve", n_points=(64,), n_shots=(1,), estimators=("df",))
    small_spec(n_shots=(1, 8), estimators=("aml", "mean-rect"))


def _priced(window_id: str, n: int) -> bool:
    try:
        avg_sqrt_crb(make_window(window_id, n), 1)
    except ValueError:
        return False
    return True


@pytest.mark.parametrize("kind", ["crb-curve", "rmse-vs-shots", "rmse-vs-n"])
def test_spec_rejects_exactly_the_windows_that_cannot_be_priced(kind):
    # The spec's rule, decided from its arguments, against the price itself.
    estimator = {w: e for e, w in ESTIMATOR_WINDOWS.items() if e.startswith("mean-")}
    rejected = []
    for window_id in BUILTIN_WINDOWS:
        for n in range(2, 17):
            fields = (dict(windows=(window_id,)) if kind == "crb-curve"
                      else dict(estimators=(estimator[window_id],)))
            try:
                ExperimentSpec(kind=kind, n_points=(n,), n_shots=(1,), trials=1,
                               allow_any_n=True, **fields)
            except ValueError:
                rejected.append((window_id, n))
            assert ((window_id, n) not in rejected) == _priced(window_id, n)
    assert rejected == [("cosine", 2), ("bartlett", 2), ("bartlett", 3)]


def test_one_table_type_carries_its_columns():
    assert ScatterTable is ExperimentTable
    columns = {kind: ExperimentTable(small_spec(kind=kind, n_shots=(8,), estimators=("df",)))
               .columns for kind in ("rmse-vs-shots", "rmse-vs-n", "scatter", "crb-curve")}
    assert columns == {
        "rmse-vs-shots": ["n_points", "n_shots", "window", "estimator", "rmse",
                          "sqrt_crb", "trials"],
        "rmse-vs-n": ["n_points", "n_shots", "window", "estimator", "rmse",
                      "sqrt_crb", "trials"],
        "scatter": ["true_phase", "signed_error"],
        "crb-curve": ["x", "window", "sqrt_crb"],
    }


@pytest.mark.parametrize("runner, kind", [
    (run_rmse_vs_shots, "rmse-vs-n"),
    (run_rmse_vs_n, "rmse-vs-shots"),
    (run_scatter, "crb-curve"),
    (run_crb_curve, "scatter"),
])
def test_each_runner_rejects_another_kind(runner, kind):
    spec = small_spec(kind=kind, n_shots=(8,), estimators=("df",), trials=2)
    with pytest.raises(ValueError, match="spec.kind must be"):
        runner(spec)


def test_a_cell_derives_and_replays_its_seeds_once(monkeypatch):
    """An 8000-trial df cell runs in 19 blocks of one chunk: one seed
    derivation and one SeedSequence replay, not one of each per block."""
    rng._streams_match_numpy()  # the first-use check replays seeds of its own
    calls = []
    for module, name in ((phasekit.experiments, "derive_seed"), (rng, "_seeded")):
        def counted(*args, _call=getattr(module, name), _name=name):
            calls.append(_name)
            return _call(*args)
        monkeypatch.setattr(module, name, counted)
    spec = ExperimentSpec(kind="rmse-vs-shots", n_points=(128,), n_shots=(30,),
                          estimators=("df",), trials=8000, master_seed=3)
    assert 8000 // _block_rows(128, 30, "df") >= 10 and 8000 <= BLOCK_BYTES // 256
    run_experiment(spec)
    assert sorted(calls) == ["_seeded", "derive_seed"]


def test_a_chunk_seeds_within_one_block_budget():
    """_collect_trials seeds a chunk of BLOCK_BYTES // 256 trials at once: its
    derive_seed call and its stream_keys replay peak at about 240 bytes per
    trial (0.94 BLOCK_BYTES), within one block's budget."""
    chunk = BLOCK_BYTES // 256
    rng.stream_keys(derive_seed(3, "rmse-vs-shots", "df", 128, 30, np.arange(16)))
    tracemalloc.start()
    try:
        base = tracemalloc.get_traced_memory()[0]
        streams = rng.stream_keys(derive_seed(3, "rmse-vs-shots", "df", 128, 30,
                                              np.arange(chunk)))
        peak = tracemalloc.get_traced_memory()[1] - base
    finally:
        tracemalloc.stop()
    assert streams.shape == (5, chunk)
    assert peak <= BLOCK_BYTES, peak


_WARM_TAPER_FAULTS = """
import resource
from phasekit.experiments import ExperimentSpec, run_experiment
spec = ExperimentSpec(kind="rmse-vs-shots", n_points=(1024,), n_shots=(1000,),
                      estimators=("mean-cosine",), trials=200, master_seed=3)
run_experiment(spec)
before = resource.getrusage(resource.RUSAGE_SELF).ru_minflt
run_experiment(spec)
print(resource.getrusage(resource.RUSAGE_SELF).ru_minflt - before)
"""


@pytest.mark.skipif(not sys.platform.startswith("linux"),
                    reason="counts minor page faults as Linux reports them")
def test_warm_taper_cell_keeps_its_heap():
    """A warm mean-cosine cell (N=1024, 1000 shots, 200 trials in 57-row
    blocks) in a fresh process takes 0 or 1 minor page faults.  Before the
    heap note in experiments it took 1250: glibc handed the heap top
    back after each block, and the next block faulted the same pages in
    again.  (A test process has often raised glibc's thresholds already, so
    the cell runs in a child of its own.)"""
    src = str(Path(phasekit.experiments.__file__).resolve().parents[1])
    proc = subprocess.run([sys.executable, "-c", _WARM_TAPER_FAULTS], capture_output=True,
                          text=True, timeout=120, check=True,
                          env={**os.environ, "PYTHONPATH": src})
    faults = int(proc.stdout)
    assert faults < 100, faults
