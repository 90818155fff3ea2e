import json

import numpy as np
import pytest
import scipy.stats

from phasekit.angles import TWO_PI, wrap_two_pi
from phasekit.io import sample_set_to_json
from phasekit.model import (
    RECT_CLOSED_FORM_MAX_N,
    Histogram,
    PhaseDistribution,
    SampleSet,
    _rect_probs,
    _window_probs,
    distribution,
    distribution_rows,
    histogram,
    sample,
    sample_rows,
)
from phasekit.windows import (
    WindowVector,
    make_bartlett,
    make_cosine,
    make_rectangular,
    make_window,
)


def direct_sum_prob(weights, phase, y):
    """Independent O(N) oracle: explicit amplitude sum for one outcome."""
    n = len(weights)
    amp = sum(weights[k] * np.exp(1j * k * (phase - TWO_PI * y / n)) for k in range(n))
    return abs(amp) ** 2 / n


def test_on_grid_point_mass():
    d = distribution(make_rectangular(8), TWO_PI * 3 / 8)
    assert d.probs[3] == 1.0
    assert np.delete(d.probs, 3).max() < 1e-12


def test_on_grid_point_mass_every_bin():
    n = 16
    w = make_rectangular(n)
    for k in range(n):
        d = distribution(w, TWO_PI * k / n)
        assert d.probs[k] == pytest.approx(1.0, abs=1e-12)
        assert np.delete(d.probs, k).max() < 1e-12


def test_mid_cell_mainlobe_pair():
    # frozen from the direct-sum oracle: both mainlobe bins carry 0.4053180695
    d = distribution(make_rectangular(100), TWO_PI * 10.5 / 100)
    assert d.probs[10] == pytest.approx(0.40531806954768174, rel=1e-12)
    assert d.probs[11] == pytest.approx(d.probs[10], rel=1e-10)
    assert direct_sum_prob(make_rectangular(100).weights, TWO_PI * 10.5 / 100, 10) == pytest.approx(
        d.probs[10], rel=1e-10
    )


def test_normalization_random_cases():
    rng = np.random.default_rng(1)
    for _ in range(200):
        kind = ("rect", "cosine", "bartlett")[rng.integers(3)]
        n = int(rng.choice([8, 16, 100, 128]))
        d = distribution(make_window(kind, n), rng.random() * TWO_PI)
        assert abs(d.probs.sum() - 1.0) < 1e-10


def test_closed_form_matches_fft():
    rng = np.random.default_rng(2)
    for n in (16, 128):
        rect = make_rectangular(n)
        tapered = make_custom_rect(n)
        for _ in range(100):
            phi = rng.random() * TWO_PI
            a = distribution(rect, phi).probs
            b = distribution(tapered, phi).probs
            assert np.max(np.abs(a - b)) < 1e-10


def make_custom_rect(n):
    # same weights as the flat window but routed through the FFT path
    from phasekit.windows import make_custom

    return make_custom(np.ones(n))


def test_offset_is_phase_shift():
    w = make_cosine(32)
    rng = np.random.default_rng(3)
    for _ in range(20):
        phi = rng.random() * TWO_PI
        delta = np.pi / 32
        a = distribution(w, phi, delta).probs
        b = distribution(w, phi + delta, 0.0).probs
        assert np.max(np.abs(a - b)) < 1e-12


def test_distribution_rejects_nonfinite():
    with pytest.raises(ValueError):
        distribution(make_rectangular(8), np.nan)
    with pytest.raises(ValueError):
        distribution(make_rectangular(8), 0.0, np.inf)


@pytest.mark.parametrize("phase, offset, message", [
    ("x", 0.0, "phase must be a number"), (None, 0.0, "phase must be a number"),
    (0.0, "0.5", "offset must be a number"), (10 ** 400, 0.0, "phase inf is not finite")])
def test_distribution_rejects_what_is_not_a_finite_real(phase, offset, message):
    with pytest.raises(ValueError, match=message):
        distribution(make_rectangular(8), phase, offset)


# Beyond checks.MAX_PHASE = 2**34 rad: the next double, an int, and values
# that gave warnings, NaN or a garbage distribution.
BEYOND_THE_PHASE_BOUND = [np.nextafter(2.0 ** 34, np.inf), -2 ** 35, 1e20, -1e20, 1e308]


@pytest.mark.parametrize("value", BEYOND_THE_PHASE_BOUND)
def test_distribution_bounds_phase_and_offset(value):
    # distribution(make_rectangular(8), 1e308) warned before its ValueError.
    for window in (make_rectangular(8), make_cosine(8)):
        with pytest.raises(ValueError, match=r"phase must lie in \[-2\*\*34, 2\*\*34\]"):
            distribution(window, value)
        with pytest.raises(ValueError, match=r"offset must lie in \[-2\*\*34, 2\*\*34\]"):
            distribution(window, 0.5, value)


def test_distribution_accepts_phases_up_to_the_bound():
    for value in (2.0 ** 34, -2.0 ** 34, 1e8):
        assert distribution(make_cosine(8), value).phase == value
        assert distribution(make_cosine(8), 0.5, value).offset == value


@pytest.mark.parametrize("n, phase", [
    (8, 2.0 ** 34), (8, -2.0 ** 34), (64, 1e6), (64, -7.25), (4096, 2.0 ** 34),
    (2 ** 20, 100.0)])
def test_rect_takes_its_phase_reduced_into_one_turn(n, phase):
    # Unreduced, each phase makes the closed form's sum miss 1 by more than
    # PROB_SUM_TOL (2*pi*y/N is subtracted from it).
    rect, reduced = make_rectangular(n), wrap_two_pi(phase)
    d = distribution(rect, phase)
    assert abs(d.probs.sum() - 1.0) < 1e-12
    assert d.probs.tobytes() == distribution(rect, reduced).probs.tobytes()
    assert np.max(np.abs(d.probs - distribution(make_custom_rect(n), reduced).probs)) < 1e-10


def test_long_rect_records_take_the_fft():
    # The closed form's error grows with N: it sums to 0.9999999998280554 at
    # this phase at 2**20, and to 1.000000000323017 1.9e-9 rad off the grid
    # at 2**15 (its limit 1), both beyond PROB_SUM_TOL.
    for n, phase in ((2 ** 20, 4.583562073612696), (2 ** 15, TWO_PI * 7 / 2 ** 15 + 1.9e-9)):
        assert abs(distribution(make_rectangular(n), phase).probs.sum() - 1.0) < 1e-14
    rng = np.random.default_rng(4)
    for n in (128, RECT_CLOSED_FORM_MAX_N, 2 * RECT_CLOSED_FORM_MAX_N):
        rect = make_rectangular(n)
        # Uniform and cell phases, offset or not, lie in [0, 2*pi + pi/N]
        # and reach either form unreduced.
        effective = np.array([0.0, TWO_PI - 1e-12, TWO_PI + np.pi / n, *rng.uniform(0, TWO_PI, 3)])
        rows = distribution_rows(rect, effective).tobytes()
        closed = n <= RECT_CLOSED_FORM_MAX_N
        expected = _rect_probs(n, effective) if closed else _window_probs(rect.weights, effective)
        assert rows == expected.tobytes()


def test_sampling_point_mass():
    d = distribution(make_rectangular(8), TWO_PI * 3 / 8)
    assert sample(d, 10, seed=123).outcomes.tolist() == [3] * 10


def test_sampling_deterministic():
    d = distribution(make_bartlett(64), 1.234)
    a = sample(d, 1000, seed=99)
    b = sample(d, 1000, seed=99)
    assert np.array_equal(a.outcomes, b.outcomes)
    assert not np.array_equal(a.outcomes, sample(d, 1000, seed=100).outcomes)


def test_sampling_mainlobe_frequency():
    # pair probability 0.8106361391 from the direct-sum oracle; 3 sigma band
    d = distribution(make_rectangular(100), TWO_PI * 10.5 / 100)
    draws = sample(d, 10**6, seed=7)
    p = 0.8106361390953662
    freq = np.isin(draws.outcomes, [10, 11]).mean()
    assert abs(freq - p) < 3 * np.sqrt(p * (1 - p) / 10**6)


def test_sampler_chi_square():
    w = make_cosine(64)
    d = distribution(w, TWO_PI * 10.37 / 64)
    for seed in range(5):
        h = histogram(sample(d, 10**5, seed=seed))
        expected = d.probs * 10**5
        pool = expected >= 10
        f_obs = np.append(h.counts[pool], h.counts[~pool].sum())
        f_exp = np.append(expected[pool], expected[~pool].sum())
        f_exp *= f_obs.sum() / f_exp.sum()
        _, p_value = scipy.stats.chisquare(f_obs, f_exp)
        assert p_value > 1e-3


def test_sample_requires_positive_shots():
    d = distribution(make_rectangular(8), 0.3)
    with pytest.raises(ValueError):
        sample(d, 0, seed=1)
    for n_shots in (2.5, 3.0, True, "3"):
        with pytest.raises(ValueError, match="n_shots must be an integer"):
            sample(d, n_shots, 1)
    assert sample(d, np.int64(5), 1).outcomes.tolist() == sample(d, 5, 1).outcomes.tolist()


def test_histogram_counts():
    s = SampleSet(8, np.array([3, 3, 5]))
    h = histogram(s)
    assert h.counts.tolist() == [0, 0, 0, 2, 0, 1, 0, 0]
    assert h.total == 3


def test_histogram_empty():
    h = histogram(SampleSet(8, np.array([], dtype=np.int64)))
    assert h.counts.tolist() == [0] * 8
    assert h.total == 0


def test_histogram_preserves_total():
    d = distribution(make_rectangular(32), 0.77)
    h = histogram(sample(d, 10**4, seed=5))
    assert h.counts.sum() == 10**4


def test_sample_set_validates_range():
    with pytest.raises(ValueError):
        SampleSet(8, np.array([8]))
    with pytest.raises(ValueError):
        SampleSet(8, np.array([-1]))
    # A float outcome was truncated ([1.7] stored [1]); a record length
    # below 2 was accepted.
    for outcomes in ([1.7], [1.0], np.array([2.0, 3.0]), [True]):
        with pytest.raises(ValueError, match="outcomes must be integers"):
            SampleSet(4, outcomes)
    for n_points in (-3, 0, 1):
        with pytest.raises(ValueError, match="n_points must be >= 2"):
            SampleSet(n_points, [])
    assert len(SampleSet(4, [])) == 0
    # More outcomes than a Histogram total may hold (a view: no allocation).
    with pytest.raises(ValueError, match="more than 10000000 outcomes"):
        SampleSet(4, np.broadcast_to(np.int64(0), (10**7 + 1,)))
    assert SampleSet(4, np.array([3], dtype=np.uint8)).outcomes.tolist() == [3]


def test_sample_set_outcomes_are_one_dimensional():
    # [[1, 2], [3, 0]] was accepted: circular_sample_mean of it raised numpy's
    # "truth value ... is ambiguous", and its JSON failed to read back.  A bare
    # 3 made a set of length 1 whose histogram raised IndexError.
    for outcomes in ([[1, 2], [3, 0]], 3, np.int64(3), [[]], np.zeros((0, 2), dtype=np.int64)):
        with pytest.raises(ValueError, match="outcomes must be a one-dimensional sequence"):
            SampleSet(4, outcomes)
    assert SampleSet(4, []).outcomes.shape == (0,)


def test_histogram_validates():
    with pytest.raises(ValueError):
        Histogram(4, np.array([1, 1, 1, 1]), 3)
    with pytest.raises(ValueError):
        Histogram(4, np.array([-1, 1, 1, 2]), 3)
    with pytest.raises(ValueError, match="counts must have length n_points"):
        Histogram(4, np.array([1, 1, 1]), 3)


def test_histogram_counts_are_integer_values():
    # A fractional count was truncated: [0.5, 0.5, 0, 0] stored zeros.
    for counts in ([0.5, 0.5, 0, 0], [1.5, 0.5, 0, 0], [np.nan, 0, 0, 0],
                   [np.inf, 0, 0, 0], ["1", "0", "0", "0"], [True, False, False, False]):
        with pytest.raises(ValueError, match="counts must be integers"):
            Histogram(4, counts, 1)
    # Integral floats are counts, as read_histogram_csv reads them.
    hist = Histogram(4, [2.0, 0.0, 1.0, 0.0], 3)
    assert hist.counts.dtype == np.int64 and hist.counts.tolist() == [2, 0, 1, 0]
    # A count beyond the total cannot sum to it, whatever int64 would make of it.
    for counts in ([1e30, 0, 0, 0], np.array([2**64 - 1, 1, 0, 0], dtype=np.uint64)):
        with pytest.raises(ValueError, match="counts do not sum to total"):
            Histogram(4, counts, 3)


def test_histogram_total_is_a_bounded_count():
    # A float total was stored as is: Histogram(4, [1, 1, 1, 1], 4.0).total == 4.0.
    for total, message in ((4.0, "total must be an integer"), (True, "total must be an integer"),
                           (-1, "total must be >= 0"), (10**7 + 1, "total must be <= 10000000")):
        with pytest.raises(ValueError, match=message):
            Histogram(4, [1, 1, 1, 1], total)
    hist = Histogram(4, [1, 1, 1, 1], np.int64(4))
    assert type(hist.total) is int and hist.total == 4


@pytest.mark.parametrize("build, caller, field", [
    (lambda a: WindowVector(4, a), np.full(4, 0.5), "weights"),
    (lambda a: PhaseDistribution(4, 0.0, 0.0, a), np.full(4, 0.25), "probs"),
    (lambda a: SampleSet(4, a), np.array([1, 2]), "outcomes"),
    (lambda a: Histogram(4, a, 4), np.ones(4, dtype=np.int64), "counts"),
], ids=["WindowVector", "PhaseDistribution", "SampleSet", "Histogram"])
def test_value_types_store_a_read_only_copy(build, caller, field):
    # The caller's array, already of the stored dtype, was frozen in place:
    # a = np.array([1, 2]); SampleSet(4, a); a[0] = 3 raised.
    stored = getattr(build(caller), field)
    caller[0] = caller[1]
    assert not stored.flags.writeable and not np.shares_memory(stored, caller)
    with pytest.raises(ValueError, match="read-only"):
        stored[0] = 0

def test_record_length_is_stored_as_a_python_int():
    samples = SampleSet(np.int64(4), [1, 2])
    hist = Histogram(np.int64(4), np.array([0, 1, 1, 0]), 2)
    dist = PhaseDistribution(np.uint16(4), 0.0, 0.0, np.full(4, 0.25))
    assert {type(x.n_points) for x in (samples, hist, dist)} == {int}
    assert json.loads(sample_set_to_json(samples))["n_points"] == 4
    with pytest.raises(ValueError, match="n_points must be an integer"):
        SampleSet(4.0, [1, 2])


def test_sample_set_offset_is_stored_as_a_python_float():
    samples = SampleSet(4, [1, 2], offset=np.float32(0.5))
    assert type(samples.offset) is float and samples.offset == 0.5
    assert json.loads(sample_set_to_json(samples))["offset"] == 0.5
    assert type(SampleSet(4, [1], offset=np.int64(1)).offset) is float
    for offset, message in (("x", "offset must be a number"), (None, "offset must be a number"),
                            (True, "offset must be a number"),
                            (np.nan, "offset nan is not finite"),
                            (-np.inf, "offset -inf is not finite"),
                            (10 ** 400, "offset inf is not finite")):
        with pytest.raises(ValueError, match=message):
            SampleSet(4, [1, 2], offset=offset)


@pytest.mark.parametrize("probs, message", [
    ([0.5, 0.5, 0.0], "probs must have length n_points"),
    ([0.5, 0.5, 0.5, 0.0], "probabilities sum to 1.5, not 1"),
    ([0.6, 0.5, -0.1, 0.0], "negative probability beyond roundoff"),
    # A NaN sum passes abs(total - 1) > tol, so the sum check alone lets it in.
    ([np.nan] * 4, "probabilities must be finite"),
    ([0.25, np.inf, 0.25, 0.25], "probabilities must be finite"),
    ([0.25, -np.inf, 0.25, 0.25], "probabilities must be finite"),
])
def test_phase_distribution_validates(probs, message):
    with pytest.raises(ValueError, match=message):
        PhaseDistribution(4, 0.0, 0.0, np.array(probs))


def test_phase_distribution_stores_phase_and_offset_as_python_floats():
    dist = PhaseDistribution(4, np.float32(0.5), np.int64(1), np.full(4, 0.25))
    assert (type(dist.phase), type(dist.offset)) == (float, float)
    assert (dist.phase, dist.offset) == (0.5, 1.0)
    assert type(distribution(make_rectangular(8), np.float64(0.3)).phase) is float
    for name in ("phase", "offset"):
        for value, message in (("x", f"{name} must be a number"),
                               (None, f"{name} must be a number"),
                               (True, f"{name} must be a number"),
                               (np.nan, f"{name} nan is not finite"),
                               (-np.inf, f"{name} -inf is not finite"),
                               (10 ** 400, f"{name} inf is not finite")):
            args = {"phase": 0.0, "offset": 0.0, name: value}
            with pytest.raises(ValueError, match=message):
                PhaseDistribution(4, args["phase"], args["offset"], np.full(4, 0.25))


def test_sampler_rejects_a_row_without_mass():
    probs = np.array([[0.5, 0.5, 0.0], [0.0, 0.0, 0.0]])
    with pytest.raises(ValueError, match="no positive probability mass"):
        sample_rows(probs, np.full((2, 3), 0.5))


def test_sampler_rejects_a_nan_row():
    # A NaN total is not <= 0, so only a positive-mass check catches it.
    probs = np.array([[0.5, 0.5, 0.0], [0.5, np.nan, 0.5]])
    with pytest.raises(ValueError, match="no positive probability mass"):
        sample_rows(probs, np.full((2, 3), 0.5))


@pytest.mark.parametrize("n", [2, 3, 7, 64, 1000])
def test_sampled_outcomes_lie_below_n_at_the_extreme_uniforms(n):
    """Each row's normalized CDF ends at exactly 1.0, so searchsorted(u,
    "right") at any u < 1, the largest double below 1 too, names a bin in
    [0, N): no outcome needs clamping."""
    rng = np.random.default_rng(n)
    # Random rows, rows whose last bins carry no mass, and one-hot rows.
    tail_free = rng.random((n, n))
    tail_free[np.arange(n) >= rng.integers(1, n, size=n)[:, None]] = 0.0
    probs = np.vstack([rng.random((n, n)), tail_free, np.eye(n)])
    u = np.tile([0.0, np.nextafter(1.0, 0.0), *rng.random(6)], (len(probs), 1))
    outcomes = sample_rows(probs, u)
    assert ((outcomes >= 0) & (outcomes < n)).all()
    for row, row_u, row_out in zip(probs, u, outcomes):
        cdf = np.cumsum(row)
        assert np.array_equal(row_out, np.searchsorted(cdf / cdf[-1], row_u, "right"))
