"""One bounded-count rule for every public entry that takes a count.

Each entry below takes a record length, shot count, trial count or grid
size, and checks it by checks._check_count: a bool, a float, a value
below its least and a value above its most raise ValueError naming the
argument, and a numpy integer acts as, and is stored as, the Python int.
"""

import numpy as np
import pytest

from phasekit.checks import MAX_RECORD_LENGTH, MAX_SEED, MAX_SHOTS, _check_count
from phasekit.estimators import MAX_GRID_POINTS, EstimatorConfig, split_shot_counts
from phasekit.experiments import MAX_TRIALS, ExperimentSpec
from phasekit.fisher import MAX_PHASE_GRID, avg_sqrt_crb, crb, fisher_information_grid
from phasekit.model import Histogram, PhaseDistribution, SampleSet, distribution, sample
from phasekit.windows import (
    WindowVector,
    make_bartlett,
    make_cosine,
    make_custom,
    make_rectangular,
    make_window,
)

W = make_rectangular(16)
DIST = distribution(W, 0.3)


def spec(**kw):
    base = dict(kind="rmse-vs-shots", n_points=(64,), n_shots=(8,), estimators=("df",),
                trials=5, allow_any_n=True)
    return ExperimentSpec(**{**base, **kw})


# id: (call of the count, name in its message, least, most, a valid count,
# the count as the result stores it, or None where nothing stores it)
# split_shot_counts "stores" the sum of the two Python ints it returns.
ENTRIES = {
    "make_rectangular": (make_rectangular, "record length", 2, MAX_RECORD_LENGTH, 8,
                         lambda w: w.n_points),
    "make_cosine": (make_cosine, "record length", 2, MAX_RECORD_LENGTH, 8,
                    lambda w: w.n_points),
    "make_bartlett": (make_bartlett, "record length", 2, MAX_RECORD_LENGTH, 8,
                      lambda w: w.n_points),
    "make_window": (lambda n: make_window("cosine", n), "record length", 2,
                    MAX_RECORD_LENGTH, 8, lambda w: w.n_points),
    "WindowVector": (lambda n: WindowVector(n, np.full(4, 0.5)), "record length", 2,
                     MAX_RECORD_LENGTH, 4, lambda w: w.n_points),
    "PhaseDistribution": (lambda n: PhaseDistribution(n, 0.0, 0.0, np.full(4, 0.25)),
                          "n_points", 2, MAX_RECORD_LENGTH, 4, lambda d: d.n_points),
    "SampleSet": (lambda n: SampleSet(n, []), "n_points", 2, MAX_RECORD_LENGTH, 4,
                  lambda s: s.n_points),
    "Histogram.n_points": (lambda n: Histogram(n, np.zeros(4, dtype=int), 0), "n_points",
                           2, MAX_RECORD_LENGTH, 4, lambda h: h.n_points),
    "Histogram.total": (lambda t: Histogram(4, [1, 1, 1, 1], t), "total", 0, MAX_SHOTS, 4,
                        lambda h: h.total),
    "sample": (lambda n: sample(DIST, n, 3), "n_shots", 1, MAX_SHOTS, 5, None),
    "crb": (lambda n: crb(W, 0.3, n), "n_shots", 1, MAX_SHOTS, 5, None),
    "avg_sqrt_crb.n_shots": (lambda n: avg_sqrt_crb(W, n), "n_shots", 1, MAX_SHOTS, 5,
                             None),
    "avg_sqrt_crb.phase_grid_size": (lambda g: avg_sqrt_crb(W, 1, g), "phase_grid_size",
                                     16, MAX_PHASE_GRID, 32, None),
    "fisher_information_grid": (lambda g: fisher_information_grid(W, g), "grid_size", 16,
                                MAX_PHASE_GRID, 32, None),
    "split_shot_counts": (split_shot_counts, "n_shots", 1, MAX_SHOTS, 7, sum),
    "ExperimentSpec.trials": (lambda t: spec(trials=t), "trials", 0, MAX_TRIALS, 5,
                              lambda s: s.trials),
    "ExperimentSpec.n_jobs": (lambda j: spec(n_jobs=j), "n_jobs", 1, None, 2,
                              lambda s: s.n_jobs),
    "ExperimentSpec.crb_grid_size": (lambda g: spec(crb_grid_size=g), "crb_grid_size", 16,
                                     MAX_PHASE_GRID, 32, lambda s: s.crb_grid_size),
    # A list entry's type error names the list; its range error names the quantity.
    "ExperimentSpec.n_points": (lambda n: spec(n_points=(n,)), "n_points|record length", 2,
                                MAX_RECORD_LENGTH, 64, lambda s: s.n_points[0]),
    "ExperimentSpec.n_shots": (lambda n: spec(n_shots=(n,), estimators=("aml",)),
                               "n_shots|shot count", 1, MAX_SHOTS, 8,
                               lambda s: s.n_shots[0]),
    "EstimatorConfig.bins_kept": (lambda b: EstimatorConfig(bins_kept=b), "bins_kept", 2,
                                  MAX_RECORD_LENGTH, 4, lambda c: c.bins_kept),
    "EstimatorConfig.grid_points": (lambda g: EstimatorConfig(grid_points=g), "grid_points",
                                    3, MAX_GRID_POINTS, 9, lambda c: c.grid_points),
    "ExperimentSpec.master_seed": (lambda s: spec(master_seed=s), "master_seed", 0, MAX_SEED,
                                   7, lambda s: s.master_seed),
}


def _bad_values(least, most):
    values = [True, np.True_, 2.5, float(least + 4), least - 1]
    return values if most is None else [*values, most + 1]


@pytest.mark.parametrize("entry", ENTRIES)
def test_count_outside_the_rule_names_the_argument(entry):
    call, name, least, most, _, _ = ENTRIES[entry]
    for bad in _bad_values(least, most):
        with pytest.raises(ValueError, match=f"({name}) must be"):
            call(bad)


@pytest.mark.parametrize("entry", ENTRIES)
def test_numpy_count_is_the_python_int(entry):
    call, _, _, _, valid, stored = ENTRIES[entry]
    result, expected = call(np.int8(valid)), call(valid)
    if stored is None:
        as_bytes = lambda r: np.asarray(getattr(r, "outcomes", r)).tobytes()  # noqa: E731
        assert as_bytes(result) == as_bytes(expected)
    else:
        assert type(stored(result)) is int and stored(result) == stored(expected) == valid


def test_custom_window_length_follows_the_rule():
    with pytest.raises(ValueError):
        make_custom(np.ones(1))
    with pytest.raises(ValueError, match=f"record length must be <= {MAX_RECORD_LENGTH}"):
        make_custom(np.ones(MAX_RECORD_LENGTH + 1))


def test_rule_messages_and_result():
    assert _check_count(np.uint64(7), "x", 0, 7) == 7
    assert type(_check_count(np.int16(3), "x", 0)) is int
    for value, message in ((True, "x must be an integer"), (3.0, "x must be an integer"),
                           ("3", "x must be an integer"), (-1, "x must be >= 0"),
                           (8, "x must be <= 7"), (np.uint64(2**64 - 1), "x must be <= 7")):
        with pytest.raises(ValueError, match=message):
            _check_count(value, "x", 0, 7)
