import json

import numpy as np
import pytest
import scipy.stats

from phasekit.angles import TWO_PI
from phasekit.io import sample_set_to_json
from phasekit.model import (
    Histogram,
    PhaseDistribution,
    SampleSet,
    distribution,
    histogram,
    sample,
    sample_rows,
)
from phasekit.windows import make_bartlett, make_cosine, make_rectangular, make_window


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


def test_histogram_validates():
    with pytest.raises(ValueError):
        Histogram(4, np.array([1, 1, 1, 1]), 3)
    with pytest.raises(ValueError):
        Histogram(4, np.array([-1, 1, 1, 2]), 3)
    with pytest.raises(ValueError, match="counts must have length n_points"):
        Histogram(4, np.array([1, 1, 1]), 3)


def test_record_length_is_stored_as_a_python_int():
    samples = SampleSet(np.int64(4), [1, 2])
    hist = Histogram(np.int64(4), np.array([0, 1, 1, 0]), 2)
    dist = PhaseDistribution(np.uint16(4), 0.0, 0.0, np.full(4, 0.25))
    assert {type(x.n_points) for x in (samples, hist, dist)} == {int}
    assert json.loads(sample_set_to_json(samples))["n_points"] == 4
    with pytest.raises(TypeError):
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
