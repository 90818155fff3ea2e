"""Classical toolkit for windowed phase-estimation statistics and estimators."""

from .angles import circ_distance, circ_midpoint, circ_signed_error, wrap_pm_pi, wrap_two_pi
from .estimators import (
    AmlResult,
    CandidateSet,
    DualFrequencyResult,
    EstimatorConfig,
    aml_estimate,
    aml_objective,
    circular_sample_mean,
    dual_frequency_details,
    dual_frequency_estimate,
    rough_estimate,
    split_shot_counts,
)
from .experiments import (
    ExperimentSpec,
    ExperimentTable,
    ScatterTable,
    fit_loglog_slope,
    run_crb_curve,
    run_experiment,
    run_rmse_vs_n,
    run_rmse_vs_shots,
    run_scatter,
)
from .fisher import avg_sqrt_crb, crb, fisher_information
from .io import load_weights_csv
from .model import (
    Histogram,
    PhaseDistribution,
    SampleSet,
    distribution,
    histogram,
    sample,
)
from .rng import derive_seed, make_generator, splitmix64
from .windows import (
    WindowVector,
    make_bartlett,
    make_cosine,
    make_custom,
    make_rectangular,
    make_window,
)

__version__ = "0.1.0"
