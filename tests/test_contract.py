"""The public contract that internal refactors must not move.

Pins the names exported by the package, every subcommand's option strings,
the fields of the two user-built config types, the bounds of the count
rule and of a phase, and the tables of window and experiment kinds.  A change here is an API
or CLI change and is made on purpose, together with README.
"""

import argparse
import types
from dataclasses import fields

import phasekit
import phasekit.checks
import phasekit.cli
import phasekit.estimators
import phasekit.experiments
import phasekit.fisher
import phasekit.io
import phasekit.windows
from phasekit.cli import _build_parser
from phasekit.estimators import EstimatorConfig
from phasekit.experiments import ExperimentSpec

PUBLIC_NAMES = [
    "AmlResult", "CandidateSet", "DualFrequencyResult", "EstimatorConfig",
    "ExperimentSpec", "ExperimentTable", "Histogram", "PhaseDistribution",
    "SampleSet", "ScatterTable", "WindowVector", "aml_estimate", "aml_objective",
    "avg_sqrt_crb", "circ_distance", "circ_midpoint", "circ_signed_error",
    "circular_sample_mean", "crb", "derive_seed", "distribution",
    "dual_frequency_details", "dual_frequency_estimate", "fisher_information",
    "fit_loglog_slope", "histogram", "load_weights_csv", "make_bartlett",
    "make_cosine", "make_custom", "make_generator", "make_rectangular",
    "make_window", "rough_estimate", "run_crb_curve", "run_experiment",
    "run_rmse_vs_n", "run_rmse_vs_shots", "run_scatter", "sample",
    "split_shot_counts", "splitmix64", "wrap_pm_pi", "wrap_two_pi",
]

_LENGTH = ["--qubits", "--record-length", "--allow-any-n"]
_WINDOW = ["--window", "--weights-csv"]
_PHASE = ["--phase-frac", "--phase-rad"]
_OUTPUT = ["--format", "--output"]

# Option strings of each subcommand in declaration order; a positional
# argument is listed by its name.
CLI_OPTIONS = {
    "window": ["-h", "--help", *_LENGTH, *_WINDOW, *_OUTPUT],
    "dist": ["-h", "--help", *_LENGTH, *_WINDOW, *_PHASE, "--offset-half-cell", *_OUTPUT],
    "sample": ["-h", "--help", *_LENGTH, *_WINDOW, *_PHASE, "--offset-half-cell",
               "--shots", "--seed", *_OUTPUT],
    "crb": ["-h", "--help", *_LENGTH, "--windows", "--shots-list", "--grid-size", *_OUTPUT],
    "estimate": ["-h", "--help", "--estimator", "--input", "--offset-half-cell",
                 "--bins-kept", "--grid-points", "--output"],
    "experiment": ["-h", "--help", "kind", *_LENGTH, "--shots-list", "--estimators",
                   "--windows", "--trials", "--seed", "--phase-policy", "--cell",
                   "--cell-units", "--threads", "--plot-data", "--out-dir", *_OUTPUT],
}

SPEC_FIELDS = ["kind", "n_points", "n_shots", "estimators", "windows", "trials",
               "master_seed", "phase_policy", "cell_index", "fixed_phases",
               "allow_any_n", "crb_grid_size", "n_jobs"]
CONFIG_FIELDS = ["bins_kept", "grid_points", "sinc_floor"]


def test_public_names_are_pinned():
    names = sorted(name for name, value in vars(phasekit).items()
                   if not name.startswith("_") and not isinstance(value, types.ModuleType))
    assert names == PUBLIC_NAMES


def test_cli_options_are_pinned():
    parser = _build_parser()
    (commands,) = [a for a in parser._actions if isinstance(a, argparse._SubParsersAction)]
    options = {name: [s for action in sub._actions for s in action.option_strings or [action.dest]]
               for name, sub in commands.choices.items()}
    assert options == CLI_OPTIONS


def test_config_fields_are_pinned():
    assert [f.name for f in fields(ExperimentSpec)] == SPEC_FIELDS
    assert [f.name for f in fields(EstimatorConfig)] == CONFIG_FIELDS


def test_count_bounds_are_pinned():
    assert phasekit.checks.MAX_RECORD_LENGTH == 2 ** 20
    assert phasekit.checks.MAX_SHOTS == 10 ** 7
    assert phasekit.experiments.MAX_TRIALS == 10 ** 6
    assert phasekit.fisher.MAX_PHASE_GRID == 2 ** 16
    assert phasekit.estimators.MAX_GRID_POINTS == 2 ** 15 + 1
    # One bound, re-exported rather than redefined, so that it cannot fork.
    for module in (phasekit.io, phasekit.cli):
        assert module.MAX_RECORD_LENGTH is phasekit.checks.MAX_RECORD_LENGTH
        assert module.MAX_SHOTS is phasekit.checks.MAX_SHOTS


def test_budget_and_seed_bound_are_pinned():
    # One memory budget: the trial blocks import it and the Fisher blocks derive from it.
    assert phasekit.checks.BLOCK_BYTES == 2 ** 21
    assert phasekit.experiments.BLOCK_BYTES is phasekit.checks.BLOCK_BYTES
    assert phasekit.fisher.FI_BLOCK_ELEMENTS == phasekit.checks.BLOCK_BYTES // 128 == 2 ** 14
    assert phasekit.checks.MAX_SEED == 2 ** 64 - 1
    assert phasekit.cli.MAX_SEED is phasekit.checks.MAX_SEED


def test_phase_bound_is_pinned():
    assert phasekit.checks.MAX_PHASE == 2.0 ** 34
    assert phasekit.cli.MAX_PHASE is phasekit.checks.MAX_PHASE


def test_kind_tables_are_pinned():
    assert phasekit.windows.WINDOW_KINDS == ("rect", "cosine", "bartlett", "custom")
    # One table of built-in windows, imported rather than restated.
    assert phasekit.experiments.BUILTIN_WINDOWS is phasekit.windows.BUILTIN_WINDOWS
    # The order of the CLI's experiment kind choices.
    assert phasekit.experiments.EXPERIMENT_KINDS == (
        "rmse-vs-shots", "rmse-vs-n", "scatter", "crb-curve")
