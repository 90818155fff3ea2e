import numpy as np
import pytest

from phasekit.angles import TWO_PI, circ_distance, wrap_two_pi
from phasekit.estimators import (
    DEFAULT_CONFIG,
    MAX_GRID_POINTS,
    CandidateSet,
    EstimatorConfig,
    aml_estimate,
    aml_objective,
    circular_sample_mean,
    dual_frequency_details,
    dual_frequency_estimate,
    rough_estimate,
    split_shot_counts,
)
from phasekit.io import MAX_SHOTS
from phasekit.model import Histogram, SampleSet, distribution, histogram, sample
from phasekit.rng import make_generator
from phasekit.windows import make_rectangular


def hist_from_counts(counts):
    counts = np.asarray(counts, dtype=np.int64)
    return Histogram(len(counts), counts, int(counts.sum()))


def noiseless_histogram(n, phase, offset, n_shots=10**5):
    z = np.round(n_shots * distribution(make_rectangular(n), phase, offset).probs)
    return hist_from_counts(z.astype(np.int64))


# --- configuration -------------------------------------------------------

def test_config_validation():
    with pytest.raises(ValueError):
        EstimatorConfig(bins_kept=1)
    with pytest.raises(ValueError):
        EstimatorConfig(grid_points=4)
    with pytest.raises(ValueError):
        EstimatorConfig(grid_points=1)
    with pytest.raises(ValueError):
        EstimatorConfig(sinc_floor=0.0)
    with pytest.raises(ValueError, match=f"grid_points must be <= {MAX_GRID_POINTS}"):
        EstimatorConfig(grid_points=MAX_GRID_POINTS + 2)
    EstimatorConfig(grid_points=MAX_GRID_POINTS)
    # Counts are Python or numpy integers, never floats or bools, and the
    # floor is a real number.
    for kwargs, message in [(dict(bins_kept=2.5), "bins_kept must be an integer"),
                            (dict(bins_kept=True), "bins_kept must be an integer"),
                            (dict(grid_points=3.0), "grid_points must be an integer"),
                            (dict(sinc_floor="x"), "sinc_floor must be a number"),
                            (dict(sinc_floor=True), "sinc_floor must be a number")]:
        with pytest.raises(ValueError, match=message):
            EstimatorConfig(**kwargs)
    # numpy integers are stored as Python ints: N * N_g would overflow an int32.
    config = EstimatorConfig(bins_kept=np.int64(4), grid_points=np.int32(MAX_GRID_POINTS))
    assert config == EstimatorConfig(bins_kept=4, grid_points=MAX_GRID_POINTS)
    assert type(config.bins_kept) is int and type(config.grid_points) is int


def test_grid_bound_admits_the_default_rule_at_the_shot_bound():
    assert DEFAULT_CONFIG.resolve_grid_points(MAX_SHOTS) <= MAX_GRID_POINTS


def test_grid_rule_is_odd_and_grows():
    cfg = EstimatorConfig()
    sizes = [cfg.resolve_grid_points(n) for n in (1, 15, 50, 10**4, 10**5)]
    assert all(g % 2 == 1 and g >= 9 for g in sizes)
    assert sizes == sorted(sizes)
    assert EstimatorConfig(grid_points=11).resolve_grid_points(10**6) == 11


def test_split_shot_counts():
    assert split_shot_counts(30) == (15, 15)
    assert split_shot_counts(7) == (4, 3)
    with pytest.raises(ValueError, match="needs at least 2 shots"):
        split_shot_counts(1)
    # The integer rule: a float was split as (1.0, 1.5), and a uint8 count
    # overflowed in ceil(N_s/2).
    for bad in (2.5, 30.0, np.float64(30.0), True, "30"):
        with pytest.raises(ValueError, match="n_shots must be an integer"):
            split_shot_counts(bad)
    for count in (np.uint8(255), np.int64(7)):
        first, second = split_shot_counts(count)
        assert (first, second) == split_shot_counts(int(count))
        assert type(first) is int and type(second) is int


# --- circular sample mean ------------------------------------------------

def test_sample_mean_constant():
    s = SampleSet(8, np.full(12, 5))
    assert circular_sample_mean(s) == pytest.approx(TWO_PI * 5 / 8, abs=1e-12)


def test_sample_mean_wraps_at_zero():
    # equal mass on 0 and N-1 must average across the wrap point
    s = SampleSet(100, np.array([0, 99] * 10))
    assert circular_sample_mean(s) == pytest.approx(TWO_PI * 99.5 / 100, abs=1e-9)


def test_sample_mean_on_grid_exact():
    d = distribution(make_rectangular(128), TWO_PI * 41 / 128)
    s = sample(d, 10**4, seed=3)
    assert circular_sample_mean(s) == pytest.approx(TWO_PI * 41 / 128, abs=1e-12)


def test_sample_mean_degenerate():
    with pytest.raises(ValueError):
        circular_sample_mean(SampleSet(8, np.array([], dtype=np.int64)))
    with pytest.raises(ValueError):
        circular_sample_mean(SampleSet(8, np.array([0, 4])))  # antipodal


# --- rough estimate ------------------------------------------------------

def test_rough_peak():
    h = hist_from_counts([0, 0, 0, 9, 1, 0, 0, 0])
    assert rough_estimate(h) == pytest.approx(TWO_PI * 3 / 8, abs=1e-15)


def test_rough_tie_breaks_low():
    h = hist_from_counts([0, 0, 5, 0, 0, 5, 0, 0])
    assert rough_estimate(h) == pytest.approx(TWO_PI * 2 / 8, abs=1e-15)


def test_candidate_set_needs_four_entries():
    with pytest.raises(ValueError, match="exactly 4 entries"):
        CandidateSet(np.zeros(3))


def test_rough_empty_rejected():
    with pytest.raises(ValueError):
        rough_estimate(hist_from_counts([0] * 8))
    with pytest.raises(ValueError, match="histogram is empty"):
        aml_estimate(hist_from_counts([0] * 8))


def test_rough_mid_cell_monte_carlo():
    d = distribution(make_rectangular(100), TWO_PI * 10.5 / 100)
    hits = 0
    for seed in range(1000):
        h = histogram(sample(d, 30, seed=seed))
        hits += int(np.argmax(h.counts)) in (10, 11)
    assert hits / 1000 > 0.99


# --- sinc objective ------------------------------------------------------

def test_objective_peak_alignment_is_zero():
    h = hist_from_counts([0, 0, 0, 20, 0, 0, 0, 0])
    assert aml_objective(h, TWO_PI * 3 / 8, 0.0) == pytest.approx(0.0, abs=1e-12)


def test_objective_sinc_zero_clamped():
    h = hist_from_counts([0, 0, 0, 20, 0, 0, 0, 0])
    value = aml_objective(h, TWO_PI * 4 / 8, 0.0)
    assert value == pytest.approx(20 * np.log(DEFAULT_CONFIG.sinc_floor), rel=1e-12)


def test_objective_two_bin_midpoint():
    h = hist_from_counts([0, 0, 7, 7, 0, 0, 0, 0])
    value = aml_objective(h, TWO_PI * 2.5 / 8, 0.0)
    assert value == pytest.approx(14 * np.log(2 / np.pi), rel=1e-12)


@pytest.mark.parametrize("phase, offset, message", [
    (np.nan, 0.0, "phase nan is not finite"),
    (np.inf, 0.0, "phase inf is not finite"),
    (0.3, -np.inf, "offset -inf is not finite"),
    ("x", 0.0, "phase must be a number"),
    (True, 0.0, "phase must be a number"),
    (0.3, None, "offset must be a number"),
])
def test_objective_refuses_a_phase_that_is_not_a_finite_number(phase, offset, message):
    h = hist_from_counts([0, 0, 0, 20, 0, 0, 0, 0])
    with pytest.raises(ValueError, match=message):
        aml_objective(h, phase, offset)


@pytest.mark.parametrize("value", [np.nextafter(2.0 ** 34, np.inf), -2 ** 35, 1e20, 1e308])
def test_objective_bounds_phase_and_offset(value):
    # aml_objective(h, 1e308) returned nan.
    h = hist_from_counts([0, 0, 0, 20, 0, 0, 0, 0])
    with pytest.raises(ValueError, match=r"phase must lie in \[-2\*\*34, 2\*\*34\]"):
        aml_objective(h, value)
    with pytest.raises(ValueError, match=r"offset must lie in \[-2\*\*34, 2\*\*34\]"):
        aml_objective(h, 0.3, value)
    for bound in (2.0 ** 34, -2.0 ** 34):
        assert np.isfinite(aml_objective(h, bound)) and np.isfinite(aml_objective(h, 0.3, bound))


def test_objective_keeps_top_bins_only():
    counts = np.zeros(32, dtype=np.int64)
    counts[:10] = [100, 90, 80, 70, 60, 50, 40, 30, 20, 10]
    h = hist_from_counts(counts)
    full = aml_objective(h, 0.3, 0.0, EstimatorConfig(bins_kept=10))
    trimmed = aml_objective(h, 0.3, 0.0, EstimatorConfig(bins_kept=8))
    assert full != trimmed


# --- refined (AML) estimate ---------------------------------------------

def test_aml_noiseless_on_grid():
    h = hist_from_counts([0, 0, 0, 0, 30, 0, 0, 0])
    res = aml_estimate(h)
    assert res.refined == pytest.approx(TWO_PI * 4 / 8, abs=1e-12)
    assert res.correction == 0.0
    # refined was an np.float64, its repr np.float64(...), beside two floats.
    assert [type(x) for x in (res.rough, res.refined, res.correction)] == [float] * 3


def test_aml_correction_bounded():
    rng = make_generator(4)
    n = 64
    for _ in range(50):
        d = distribution(make_rectangular(n), rng.random() * TWO_PI)
        res = aml_estimate(histogram(sample(d, 25, seed=int(rng.integers(2**60)))))
        assert abs(res.correction) <= TWO_PI / n
        assert 0.0 <= res.rough < TWO_PI
        assert 0.0 <= res.refined < TWO_PI


def test_aml_mid_cell_accuracy():
    # phases in the middle of a cell are the easy regime: 90% of trials
    # within 5x the shot-noise scale
    n, n_shots = 100, 30
    tol = 5 * TWO_PI / (n * np.sqrt(n_shots))
    rng = make_generator(8)
    hits = 0
    trials = 1000
    for i in range(trials):
        phi = TWO_PI * (10.3 + 0.4 * rng.random()) / n
        d = distribution(make_rectangular(n), phi)
        res = aml_estimate(histogram(sample(d, n_shots, seed=int(rng.integers(2**60)))))
        hits += circ_distance(res.refined, phi) < tol
    assert hits / trials >= 0.90


def test_aml_near_grid_mirror_errors():
    # close to a grid line the reflected phase is nearly indistinguishable,
    # so a visible fraction of estimates lands on the mirror side
    n, n_shots = 100, 30
    phi = TWO_PI * 10.05 / n
    mirror = TWO_PI * 9.95 / n
    rng = make_generator(9)
    mirror_side = 0
    for _ in range(1000):
        d = distribution(make_rectangular(n), phi)
        res = aml_estimate(histogram(sample(d, n_shots, seed=int(rng.integers(2**60)))))
        if circ_distance(res.refined, mirror) < circ_distance(res.refined, phi):
            mirror_side += 1
    assert mirror_side >= 10


def exact_ml_phase(hist, n_scan=200_000):
    """Exhaustive-search ML oracle: dense scan of the exact log-likelihood.

    Uses the true outcome law rather than the sinc approximation; viable
    only at small N, which is why it lives in the tests.
    """
    n = hist.n_points
    phases = TWO_PI * np.arange(n_scan) / n_scan
    k = np.nonzero(hist.counts)[0]
    theta = 0.5 * (phases[:, None] - TWO_PI * k[None, :] / n)
    s = np.sin(theta)
    with np.errstate(divide="ignore", invalid="ignore"):
        f = np.where(np.abs(s) < 1e-12, 1.0, np.sin(n * theta) ** 2 / (n * n * s * s))
    loglik = np.log(np.maximum(f, 1e-300)) @ hist.counts[k]
    return float(phases[np.argmax(loglik)])


def test_aml_matches_exact_ml_oracle():
    n, n_shots = 64, 200
    rng = make_generator(12)
    for _ in range(5):
        phi = TWO_PI * (int(rng.integers(0, n)) + 0.2 + 0.6 * rng.random()) / n
        d = distribution(make_rectangular(n), phi)
        h = histogram(sample(d, n_shots, seed=int(rng.integers(2**60))))
        refined = aml_estimate(h).refined
        exact = exact_ml_phase(h)
        assert circ_distance(refined, exact) < 0.1 * TWO_PI / n
        assert circ_distance(exact, phi) < 0.5 * TWO_PI / n


# --- dual-frequency estimator -------------------------------------------

def df_sample_pair(n, phase, n_shots, seed):
    rng = make_generator(seed)
    first, second = split_shot_counts(n_shots)
    w = make_rectangular(n)
    set1 = sample(distribution(w, phase, 0.0), first, rng)
    set2 = sample(distribution(w, phase, np.pi / n), second, rng)
    return set1, set2


def test_df_noiseless_limit():
    n = 128
    phi = TWO_PI * 41.5 / n
    set1, set2 = df_sample_pair(n, phi, 2 * 10**4, seed=21)
    estimate = dual_frequency_estimate(set1, set2)
    assert circ_distance(estimate, phi) < TWO_PI / (n * 50)


def test_df_on_grid():
    n = 128
    phi = TWO_PI * 41 / n
    set1, set2 = df_sample_pair(n, phi, 2 * 10**4, seed=22)
    cfg = DEFAULT_CONFIG
    n_grid = cfg.resolve_grid_points(10**4)
    assert circ_distance(dual_frequency_estimate(set1, set2), phi) <= 4 * np.pi / (n * n_grid)


def test_df_no_mirror_branch():
    # stratified phases across one cell: no dual-frequency estimate may show
    # the linearly growing mirror error of the single-run refinement
    n, n_shots, trials = 100, 30, 500
    rng = make_generator(23)
    worst = 0.0
    for i in range(trials):
        phi = TWO_PI * (10 + (i + rng.random()) / trials) / n
        set1, set2 = df_sample_pair(n, phi, n_shots, seed=int(rng.integers(2**60)))
        worst = max(worst, circ_distance(dual_frequency_estimate(set1, set2), phi))
    assert worst < 1.5 * TWO_PI / n


def test_df_candidate_mirror_structure():
    set1, set2 = df_sample_pair(128, TWO_PI * 41.37 / 128, 60, seed=24)
    details = dual_frequency_details(set1, set2)
    u = details.candidates.u
    r1 = details.aml_set1.rough
    r2_plain = wrap_two_pi(details.aml_set2.rough - np.pi / 128)
    assert circ_distance(u[0] + u[1], 2 * r1) < 1e-9
    assert circ_distance(u[2] + u[3], 2 * r2_plain) < 1e-9
    assert np.all((0 <= u) & (u < TWO_PI))
    assert details.matched_pair[0] in (0, 1) and details.matched_pair[1] in (2, 3)


def test_df_swap_invariant():
    set1, set2 = df_sample_pair(64, TWO_PI * 17.42 / 64, 40, seed=25)
    assert dual_frequency_estimate(set1, set2) == dual_frequency_estimate(set2, set1)


def test_df_requires_one_offset_pair():
    set1, set2 = df_sample_pair(64, 1.0, 40, seed=26)
    with pytest.raises(ValueError):
        dual_frequency_estimate(set1, set1)
    with pytest.raises(ValueError):
        dual_frequency_estimate(set2, set2)


def test_df_rejects_mismatched_n():
    a1, a2 = df_sample_pair(64, 1.0, 40, seed=27)
    b1, b2 = df_sample_pair(128, 1.0, 40, seed=28)
    with pytest.raises(ValueError):
        dual_frequency_estimate(a1, b2)


def test_df_rejects_empty():
    _, set2 = df_sample_pair(64, 1.0, 40, seed=29)
    empty = SampleSet(64, np.array([], dtype=np.int64), offset=0.0)
    with pytest.raises(ValueError):
        dual_frequency_estimate(empty, set2)


def test_df_frame_convention_oracle():
    """Noiseless rounded histograms pin the half-cell frame bookkeeping.

    For every off-grid phase the matched cross-run pair must be uniquely
    close (next-best pair at least 5x farther) and its midpoint must sit on
    the true phase to within a few grid steps.  Shifting the fourth
    candidate by a full cell (the plausible alternative bookkeeping) breaks
    this: for phases in the upper half of a cell the two mirror candidates
    collide and the matched midpoint lands half a cell off.
    """
    n = 128
    cfg = DEFAULT_CONFIG
    rng = make_generator(31)
    alt_failures = 0
    for _ in range(50):
        cell = int(rng.integers(0, n))
        t = 0.1 + 0.8 * rng.random()
        phi = TWO_PI * (cell + t) / n
        h1 = noiseless_histogram(n, phi, 0.0)
        h2 = noiseless_histogram(n, phi, np.pi / n)
        a1 = aml_estimate(h1, 0.0, cfg)
        a2 = aml_estimate(h2, np.pi / n, cfg)
        r2 = a2.rough - np.pi / n
        u = wrap_two_pi(np.array([
            a1.rough + a1.correction, a1.rough - a1.correction,
            r2 + a2.correction, r2 - a2.correction,
        ]))
        dists = sorted(circ_distance(u[i], u[j]) for i in (0, 1) for j in (2, 3))
        step = 4 * np.pi / (n * cfg.resolve_grid_points(h1.total))
        assert dists[1] > 5 * dists[0], "matched pair must be uniquely close"
        midpoint = dual_frequency_estimate(
            SampleSet(n, _expand(h1), 0.0), SampleSet(n, _expand(h2), np.pi / n), cfg
        )
        assert circ_distance(midpoint, phi) <= step, "midpoint must sit on the truth"

        u_alt = wrap_two_pi(np.array([
            a1.rough + a1.correction, a1.rough - a1.correction,
            r2 + a2.correction, r2 - a2.correction + TWO_PI / n,
        ]))
        alt = sorted(circ_distance(u_alt[i], u_alt[j]) for i in (0, 1) for j in (2, 3))
        alt_failures += not (alt[1] > 5 * alt[0])
    assert alt_failures > 10, "alternative bookkeeping should collide frequently"


def _expand(hist):
    return np.repeat(np.arange(hist.n_points), hist.counts)
