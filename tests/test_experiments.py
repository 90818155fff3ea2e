import json
import multiprocessing.process
import tracemalloc
from dataclasses import replace

import numpy as np
import pytest

import phasekit.experiments
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
from phasekit.io import table_to_csv, table_to_json
from phasekit.model import distribution, histogram, sample
from phasekit.rng import CLOSED_FORM_MAX_WORDS, derive_seed, make_generator, splitmix64
from phasekit.windows import make_window


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
    rows = [ExperimentRow(64, ns, "rect", "df", 3.0 / ns, 0.1, 10, 0.0)
            for ns in (2, 4, 8, 16, 32)]
    assert fit_loglog_slope(rows, "n_shots") == pytest.approx(-1.0, abs=1e-12)
    rows = [ExperimentRow(64, ns, "rect", "df", 3.0 / np.sqrt(ns), 0.1, 10, 0.0)
            for ns in (2, 4, 8, 16, 32)]
    assert fit_loglog_slope(rows, "n_shots") == pytest.approx(-0.5, abs=1e-12)


def test_fit_loglog_slope_validation():
    rows = [ExperimentRow(64, 2, "rect", "df", 1.0, 0.1, 10, 0.0)]
    with pytest.raises(ValueError):
        fit_loglog_slope(rows, "n_shots")
    bad = [ExperimentRow(64, ns, "rect", "df", 0.0, 0.1, 10, 0.0) for ns in (2, 4, 8)]
    with pytest.raises(ValueError):
        fit_loglog_slope(bad, "n_shots")


def test_fit_loglog_slope_filtering():
    rows = [ExperimentRow(64, ns, "rect", "df", 1.0 / ns, 0.1, 10, 0.0) for ns in (2, 4, 8)]
    rows += [ExperimentRow(64, ns, "cosine", "mean-cosine", 5.0, 0.1, 10, 0.0)
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
    for seed in (7.0, np.float64(7.0)):
        with pytest.raises(TypeError):
            derive_seed(seed, "df")
        with pytest.raises(TypeError):
            make_generator(seed)


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
    phasekit.experiments._PRICES.clear()
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
    def degenerate(windows, n_shots, phase_grid_size):
        raise ValueError("200 of 256 grid phases have degenerate FI")

    monkeypatch.setattr(phasekit.experiments, "_avg_sqrt_crbs", degenerate)
    with pytest.raises(ValueError, match="degenerate FI"):
        run_crb_curve(ExperimentSpec(kind="crb-curve", n_points=(64,), n_shots=(1,),
                                     trials=1))
    assert phasekit.experiments._PRICES == {}


def test_json_emission_shape():
    table = run_rmse_vs_shots(small_spec(trials=20))
    payload = json.loads(table_to_json(table))
    assert set(payload) == {"spec", "rows"}
    assert payload["spec"]["kind"] == "rmse-vs-shots"
    assert len(payload["rows"]) == 4
    assert "wall_time" not in payload["rows"][0]


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


def test_block_budget_bounds_the_closed_form_draw():
    """A block's closed-form draw stays within 2**12 words, for every estimator.

    uniform_rows draws the (T, k) words of a whole block in one pass, so
    _block_rows is the only bound on its temporaries.  k is N_s plus 0, 1
    or 2 extra draws (the phase, and a sample mean's guess).  Record lengths
    are checked one by one up to 2**14; beyond that one trial's arrays take
    more than half of BLOCK_BYTES, so a block is a single trial, which is
    checked around every power of two up to 2**20.
    """
    beyond = [2**p + d for p in range(14, 21) for d in (-1, 0, 1) if 2**p + d <= 2**20]
    worst = 0
    for estimator in ESTIMATOR_WINDOWS:
        for n_shots in range(1, CLOSED_FORM_MAX_WORDS + 1):
            rows = max(_block_rows(n, n_shots, estimator) for n in range(2, 2**14 + 1))
            assert all(_block_rows(n, n_shots, estimator) == 1 for n in beyond)
            for extra in (0, 1, 2):
                if n_shots + extra <= CLOSED_FORM_MAX_WORDS:
                    worst = max(worst, rows * (n_shots + extra))
    assert worst <= 2**12


# df-cell's and the taper cells' shapes, then a grid over N and N_s.
_BUDGET_SHAPES = [("df", 128, 30), ("mean-cosine", 1024, 1000), ("mean-bartlett", 1024, 1000)] + [
    (estimator, n, n_shots) for estimator in ("df", "aml", "mean-rect", "mean-cosine")
    for n in (2, 8, 64, 1024, 4096) for n_shots in (2, 30, 1000)]


@pytest.mark.parametrize("estimator, n, n_shots", _BUDGET_SHAPES)
def test_block_peak_stays_within_the_budget(estimator, n, n_shots):
    """One block of _block_rows trials peaks at no more than 1.25 * BLOCK_BYTES
    of traced allocations, unless one trial alone is the block."""
    rows = _block_rows(n, n_shots, estimator)
    spec = ExperimentSpec(kind="scatter", n_points=(n,), n_shots=(n_shots,),
                          estimators=(estimator,), trials=rows, master_seed=5)
    window = make_window(ESTIMATOR_WINDOWS[estimator], n)
    # The first block runs the stream check and fills numpy's caches.
    _trial_block(spec, estimator, window, n, n_shots, 0, rows)
    tracemalloc.start()
    try:
        base = tracemalloc.get_traced_memory()[0]
        _trial_block(spec, estimator, window, n, n_shots, 0, rows)
        peak = tracemalloc.get_traced_memory()[1] - base
    finally:
        tracemalloc.stop()
    assert rows == 1 or peak <= 1.25 * BLOCK_BYTES, (rows, peak)


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
    (dict(phase_policy="fixed", fixed_phases=(float("nan"),)), "fixed_phases must be finite"),
    (dict(phase_policy="fixed", fixed_phases=(0.5, float("inf"))),
     "fixed_phases must be finite"),
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
])
def test_spec_rejects_runs_that_cannot_start(overrides, message):
    with pytest.raises(ValueError, match=message):
        small_spec(**overrides)


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
