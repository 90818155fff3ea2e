"""Command-line front end.

Subcommands: window, dist, sample, crb, estimate, experiment.  Record
length is --qubits M (N = 2^M) or --record-length N, comma-separated for
every command: window, dist and sample take one, crb and experiment a
list.  Non-power-of-two lengths need --allow-any-n.  Phases are entered
as --phase-frac x (phi = 2*pi*x) or --phase-rad r.  Each command renders
only the format it emits.  Exit codes: 0 success, 1 runtime error
(including a malformed input file), 2 argument error (including a value
that ExperimentSpec or EstimatorConfig rejects, a non-integer length
entry, more than one length for window, dist or sample, a phase that is
not finite in radians or beyond checks.MAX_PHASE, a built-in window
degenerate at the record length, a count outside its range by
checks._check_count: a size beyond MAX_QUBITS, checks.MAX_RECORD_LENGTH or
checks.MAX_SHOTS, a --seed outside [0, checks.MAX_SEED], --threads outside
[1, CPUs], a custom window whose --weights-csv length differs from the
record length, --weights-csv without --window custom, an --input count
that the estimator does not take, two histogram CSV inputs for df,
--plot-data with a kind or with a record length other than 128, and an
experiment flag its run never reads: --windows except with crb-curve,
--estimators with crb-curve or --plot-data, --cell-units except with scatter
or --plot-data, --out-dir except with --plot-data, and --output and --format
with --plot-data).  crb and experiment build their ExperimentSpec through
one function, and every file goes through io.save_text.
"""

from __future__ import annotations

import argparse
import os
import sys
from dataclasses import replace
from pathlib import Path

import numpy as np

from .angles import TWO_PI, wrap_two_pi
from .checks import MAX_PHASE, MAX_RECORD_LENGTH, MAX_SEED, MAX_SHOTS, _check_count
from .estimators import (
    DEFAULT_CONFIG,
    EstimatorConfig,
    aml_estimate,
    circular_sample_mean,
    dual_frequency_details,
)
from .experiments import (
    EXPERIMENT_KINDS,
    ExperimentSpec,
    ExperimentTable,
    ScatterRow,
    run_experiment,
)
from .fisher import DEFAULT_PHASE_GRID
from .io import (
    load_weights_csv,
    read_sample_set,
    sample_set_to_json,
    save_text,
    table_to_csv,
    table_to_json,
    write_csv,
    write_json,
    write_values,
)
from .model import distribution, histogram, sample
from .windows import WINDOW_KINDS, make_window

THREADS_ENV = "PHASEKIT_THREADS"

MAX_QUBITS = MAX_RECORD_LENGTH.bit_length() - 1

# The header of the bundle's fig3.csv, the one table the CLI builds itself.
FIG3_COLUMNS = ["n_shots", "window", "sqrt_crb", "rmse_sample_mean"]


class CliError(Exception):
    """Argument-level error; maps to exit code 2."""


class _Parser(argparse.ArgumentParser):
    """An ArgumentParser, and the class of its subparsers, whose parse errors
    raise CliError, so that they print one usage error line like any other."""

    def error(self, message):
        raise CliError(message)


def main() -> None:
    sys.exit(dispatch())


def dispatch(argv=None) -> int:
    """Parse argv, run the subcommand, return the process exit code."""
    try:
        args = _build_parser().parse_args(argv)
        return args.func(args)
    except SystemExit as exc:  # --help
        return int(exc.code or 0)
    except CliError as exc:
        print(f"usage error: {exc}", file=sys.stderr)
        return 2
    except (ValueError, OSError) as exc:
        print(f"error: {exc}", file=sys.stderr)
        return 1


def _build_parser() -> argparse.ArgumentParser:
    parser = _Parser(
        prog="phasekit",
        description="Windowed phase-estimation statistics, bounds and estimators.",
    )
    sub = parser.add_subparsers(dest="command", required=True)

    p = sub.add_parser("window", help="emit window weights")
    _add_length_args(p)
    _add_window_args(p)
    _add_output_args(p)
    p.set_defaults(func=_cmd_window)

    p = sub.add_parser("dist", help="emit the exact outcome distribution")
    _add_length_args(p)
    _add_window_args(p)
    _add_phase_args(p)
    _add_output_args(p)
    p.set_defaults(func=_cmd_dist)

    p = sub.add_parser("sample", help="draw seeded measurement outcomes")
    _add_length_args(p)
    _add_window_args(p)
    _add_phase_args(p)
    p.add_argument("--shots", type=int, required=True)
    p.add_argument("--seed", type=int, default=0)
    _add_output_args(p, default_format="json")
    p.set_defaults(func=_cmd_sample)

    p = sub.add_parser("crb", help="average square-root CRB curves")
    _add_length_args(p)
    p.add_argument("--windows", default=None, help="comma-separated window ids")
    p.add_argument("--shots-list", default="1", help="comma-separated shot counts")
    p.add_argument("--grid-size", type=int, default=DEFAULT_PHASE_GRID)
    _add_output_args(p)
    p.set_defaults(func=_cmd_crb)

    p = sub.add_parser("estimate", help="run an estimator on stored sample sets")
    p.add_argument("--estimator", choices=("mean", "aml", "df"), required=True)
    p.add_argument("--input", action="append", required=True,
                   help="sample-set JSON or histogram CSV (twice for df)")
    p.add_argument("--offset-half-cell", action="store_true",
                   help="declare a pi/N offset for CSV inputs, which carry none; it "
                        "applies to every CSV input, so df needs at least one "
                        "sample-set JSON")
    p.add_argument("--bins-kept", type=int, default=DEFAULT_CONFIG.bins_kept)
    p.add_argument("--grid-points", type=int, default=None)
    p.add_argument("--output", help="output path (default: stdout)")
    p.set_defaults(func=_cmd_estimate)

    p = sub.add_parser("experiment", help="run a Monte-Carlo experiment")
    p.add_argument("kind", nargs="?", choices=EXPERIMENT_KINDS)
    _add_length_args(p)
    p.add_argument("--shots-list", default="30")
    p.add_argument("--estimators", default=None)
    p.add_argument("--windows", default=None)
    p.add_argument("--trials", type=int, default=2000,
                   help="trials per cell; run time grows at most as trials*N*(N_s+2), and "
                        "N dominates: one trial at N=2^20 takes 0.27-0.32 s at 30 or 1000 "
                        "shots, so --qubits 20 --trials 1000000 runs for days")
    p.add_argument("--seed", type=int, default=0)
    p.add_argument("--phase-policy", choices=("uniform", "cell"), default="uniform")
    p.add_argument("--cell", type=int, default=0,
                   help="cell index for the cell policy, in [0, N) for every N under any policy")
    p.add_argument("--cell-units", action="store_true", default=None,
                   help="report scatter errors in units of 2*pi/N (scatter and --plot-data only)")
    # A string default goes through type=int, so a bad environment value is
    # a usage error like a bad --threads.
    p.add_argument("--threads", type=int, default=os.environ.get(THREADS_ENV, "1"),
                   help="accepted and checked against [1, CPUs] for compatibility; "
                        "every run uses one process and no output byte depends on "
                        f"it (default: ${THREADS_ENV}, else 1)")
    p.add_argument("--plot-data", action="store_true",
                   help="emit the standard figure bundle instead of one run")
    p.add_argument("--out-dir")
    # Every kind reads no --format as csv; --plot-data refuses a given one.
    _add_output_args(p, default_format=None)
    p.set_defaults(func=_cmd_experiment)

    return parser


def _add_length_args(p):
    group = p.add_mutually_exclusive_group(required=True)
    group.add_argument("--qubits", help="qubit count; crb and experiment take a "
                                        "comma-separated list")
    group.add_argument("--record-length", help="record length; crb and experiment take a "
                                               "comma-separated list")
    p.add_argument("--allow-any-n", action="store_true",
                   help="permit record lengths that are not powers of two")


def _add_window_args(p):
    p.add_argument("--window", choices=WINDOW_KINDS, default="rect")
    p.add_argument("--weights-csv",
                   help="weights for --window custom, one per outcome of the record "
                        "length: the y,value CSV that `window` writes, or one column "
                        "with an optional header")


def _add_phase_args(p):
    group = p.add_mutually_exclusive_group(required=True)
    group.add_argument("--phase-frac", type=float, help="phase as a fraction of 2*pi")
    group.add_argument("--phase-rad", type=float, help="phase in radians")
    p.add_argument("--offset-half-cell", action="store_true",
                   help="apply the pi/N frequency offset")


def _add_output_args(p, default_format: str | None = "csv"):
    p.add_argument("--format", choices=("csv", "json"), default=default_format)
    p.add_argument("--output", help="output path (default: stdout)")


def _resolve_n_list(args) -> list[int]:
    """The record lengths of --qubits or --record-length; the only reader of both."""
    if args.qubits is not None:
        # Checked before 2 ** q is computed: that power alone can be a huge integer.
        return [2 ** _count(q, "--qubits", 1, MAX_QUBITS)
                for q in _int_list(args.qubits, "--qubits")]
    lengths = _int_list(args.record_length, "--record-length")
    for n in lengths:
        _validated(_check_count, value=n, name="record length", least=2, most=MAX_RECORD_LENGTH)
        if n & (n - 1) != 0 and not args.allow_any_n:
            raise CliError(f"record length {n} is not a power of two (use --allow-any-n)")
    return lengths


def _int_list(text: str, flag: str) -> list[int]:
    """The integers of a comma-separated list; any other entry is a usage error."""
    try:
        return [int(s) for s in text.split(",")]
    except ValueError:
        raise CliError(f"{flag} must be comma-separated integers") from None


def _count(value, flag: str, least: int, most: int, note: str = "") -> int:
    """value by checks._check_count; outside [least, most] a usage error."""
    try:
        return _check_count(value, flag, least, most)
    except ValueError:
        raise CliError(f"{flag} must be in [{least}, {most}]{note}") from None


def _validated(factory, **kwargs):
    """factory(**kwargs), where a ValueError it raises is an argument error."""
    try:
        return factory(**kwargs)
    except ValueError as exc:
        raise CliError(str(exc)) from None


def _resolve_phase(args, n: int) -> tuple[float, float]:
    """The wrapped phase and the --offset-half-cell offset at record length n."""
    # Checked before wrapping: np.mod of inf or nan warns and gives nan.  The
    # bound is the library's: beyond it a double no longer names a cell.
    if args.phase_frac is not None:
        flag, phase = "--phase-frac", TWO_PI * args.phase_frac
    else:
        flag, phase = "--phase-rad", args.phase_rad
    if not np.isfinite(phase):
        raise CliError(f"{flag} must give a finite phase")
    if abs(phase) > MAX_PHASE:
        raise CliError(f"{flag} must give a phase in [-2**34, 2**34] rad")
    return wrap_two_pi(phase), np.pi / n if args.offset_half_cell else 0.0


def _resolve_window(args):
    n, *more = _resolve_n_list(args)
    if more:
        raise CliError(f"{args.command} takes one record length")
    if args.weights_csv is not None and args.window != "custom":
        raise CliError("--weights-csv needs --window custom")
    if args.window == "custom":
        if not args.weights_csv:
            raise CliError("--window custom requires --weights-csv")
        window = make_window("custom", weights=load_weights_csv(args.weights_csv))
        if window.n_points != n:
            raise CliError(f"--weights-csv holds {window.n_points} weights, but the record "
                           f"length is {n}")
        return window
    return _validated(make_window, kind=args.window, n_points=n)


def _emit(args, text: str) -> int:
    """Write text to --output, or to stdout without one."""
    if args.output:
        save_text(text, args.output)
    else:
        sys.stdout.write(text)
    return 0


def _emit_table(args, table) -> int:
    render = table_to_json if args.format == "json" else table_to_csv
    return _emit(args, render(table))


def _cmd_window(args) -> int:
    window = _resolve_window(args)
    spec = {"kind": window.kind, "n_points": window.n_points}
    return _emit(args, write_values(window.weights, spec, args.format))


def _cmd_dist(args) -> int:
    window = _resolve_window(args)
    dist = distribution(window, *_resolve_phase(args, window.n_points))
    spec = {"n_points": window.n_points, "window": window.kind, "phase": dist.phase,
            "offset": dist.offset}
    return _emit(args, write_values(dist.probs, spec, args.format))


def _cmd_sample(args) -> int:
    window = _resolve_window(args)
    n_shots = _count(args.shots, "--shots", 1, MAX_SHOTS)
    phase, offset = _resolve_phase(args, window.n_points)
    seed = _count(args.seed, "--seed", 0, MAX_SEED)
    print(f"seed: {seed}", file=sys.stderr)
    draws = sample(distribution(window, phase, offset), n_shots, seed)
    if args.format == "csv":
        return _emit(args, write_values(histogram(draws).counts))
    return _emit(args, sample_set_to_json(draws))


def _spec(args, kind: str, **run) -> ExperimentSpec:
    """The ExperimentSpec of kind from the length, shot and list arguments (the spec's
    default for a list not given) and the run fields; a value it rejects is an argument error."""
    lists = {name: getattr(args, name).split(",") for name in ("estimators", "windows")
             if getattr(args, name, None) is not None}
    return _validated(
        ExperimentSpec,
        kind=kind,
        n_points=_resolve_n_list(args),
        n_shots=[_count(s, "--shots-list entries", 1, MAX_SHOTS)
                 for s in _int_list(args.shots_list, "--shots-list")],
        allow_any_n=args.allow_any_n,
        **lists,
        **run,
    )


def _cmd_crb(args) -> int:
    spec = _spec(args, "crb-curve", trials=1, crb_grid_size=args.grid_size)
    return _emit_table(args, run_experiment(spec))


def _cmd_estimate(args) -> int:
    config = _validated(EstimatorConfig, bins_kept=args.bins_kept,
                        grid_points=args.grid_points)
    if args.estimator == "df" and len(args.input) != 2:
        raise CliError("df estimation needs exactly two --input files")
    if args.estimator != "df" and len(args.input) != 1:
        raise CliError(f"{args.estimator} estimation takes exactly one --input file")
    # A histogram CSV carries no offset, and --offset-half-cell gives every CSV the same one.
    if args.estimator == "df" and all(path.endswith(".csv") for path in args.input):
        raise CliError("df estimation needs a sample-set JSON --input: two histogram CSVs "
                       "share one offset, so they cannot form a df pair")
    sets = [read_sample_set(path, args.offset_half_cell) for path in args.input]
    if args.estimator == "df":
        details = dual_frequency_details(sets[0], sets[1], config)
        payload = {
            "estimator": "df",
            "estimate": details.estimate,
            "candidates": [float(u) for u in details.candidates.u],
            "matched_pair": list(details.matched_pair),
            "set1": {"rough": details.aml_set1.rough,
                     "correction": details.aml_set1.correction},
            "set2": {"rough": details.aml_set2.rough,
                     "correction": details.aml_set2.correction},
        }
    elif args.estimator == "aml":
        result = aml_estimate(histogram(sets[0]), sets[0].offset, config)
        payload = {
            "estimator": "aml",
            "estimate": float(wrap_two_pi(result.refined - sets[0].offset)),
            "rough": result.rough,
            "refined": result.refined,
            "correction": result.correction,
        }
    else:
        payload = {"estimator": "mean",
                   "estimate": float(wrap_two_pi(circular_sample_mean(sets[0]) - sets[0].offset))}
    return _emit(args, write_json(payload, []))


def _cmd_experiment(args) -> int:
    _count(args.threads, "--threads", 1, os.cpu_count() or 1, " (the number of CPUs)")
    if args.plot_data and args.kind is not None:
        raise CliError("--plot-data takes no experiment kind")
    if not args.plot_data and args.kind is None:
        raise CliError("provide an experiment kind or --plot-data")
    # The flags each run never reads, by kind; the kind None is --plot-data.
    unread = {None: ("estimators", "windows", "output", "format"),
              "scatter": ("windows", "out_dir"),
              "crb-curve": ("estimators", "cell_units", "out_dir")}
    for flag in unread.get(args.kind, ("windows", "cell_units", "out_dir")):
        if getattr(args, flag) is not None:
            raise CliError(f"{args.kind or '--plot-data'} never reads --{flag.replace('_', '-')}")
    # The bundle starts from its RMSE sweep's kind and overrides each figure's fields.
    spec = _spec(args, args.kind or "rmse-vs-shots", trials=args.trials,
                 master_seed=_count(args.seed, "--seed", 0, MAX_SEED),
                 phase_policy=args.phase_policy, cell_index=args.cell)
    if args.plot_data and spec.n_points != (128,):
        raise CliError("--plot-data draws its figures at record length 128 (--qubits 7)")
    print(f"seed: {args.seed}", file=sys.stderr)
    if args.plot_data:
        return _emit_plot_bundle(args, spec)
    table = run_experiment(spec)
    if args.cell_units:
        table = _rescale_scatter(table)
    return _emit_table(args, table)


def _rescale_scatter(table):
    scale = table.spec.n_points[0] / TWO_PI
    rows = [ScatterRow(r.true_phase, r.signed_error * scale) for r in table.rows]
    return ExperimentTable(table.spec, rows)


def _emit_plot_bundle(args, spec: ExperimentSpec) -> int:
    """Write fig3.csv ... fig7.csv: CRB curves, scatter runs and RMSE sweeps.

    The figures keep spec's trials, seed and default windows; each sets its
    own kind, lengths, shots, estimators and phase policy.
    """
    shots_sweep = (2, 4, 8, 16, 30, 50, 70, 100)
    base = replace(spec, n_shots=shots_sweep, phase_policy="uniform", cell_index=0)

    # One RMSE sweep feeds fig3's sample-mean overlay and fig5: a cell's
    # trial seeds depend on the kind, estimator, N and N_s, not on the
    # other estimators of the run.
    rmse_spec = replace(base, estimators=("df", "mean-rect", "mean-cosine", "mean-bartlett"))
    out_dir = Path(args.out_dir or ".")
    out_dir.mkdir(parents=True, exist_ok=True)
    rmse_table = run_experiment(rmse_spec)

    # fig3: sqrt-CRB vs shots for each window, with sample-mean RMSE overlay
    crb_table = run_experiment(replace(base, kind="crb-curve", n_shots=(1,) + shots_sweep))
    rmse_by_key = {(r.window, r.n_shots): r.rmse for r in rmse_table.rows
                   if r.estimator.startswith("mean-")}
    fig3_rows = [
        (int(r.x), r.window, r.sqrt_crb, rmse_by_key.get((r.window, int(r.x)), ""))
        for r in crb_table.rows
    ]
    save_text(write_csv(FIG3_COLUMNS, fig3_rows), out_dir / "fig3.csv")

    # fig4 / fig7: estimator error scatter across one cell at N = 100
    for name, estimator in (("fig4.csv", "aml"), ("fig7.csv", "df")):
        table = run_experiment(replace(
            base, kind="scatter", n_points=(100,), n_shots=(30,), estimators=(estimator,),
            phase_policy="cell", cell_index=10, allow_any_n=True))
        if args.cell_units:
            table = _rescale_scatter(table)
        save_text(table_to_csv(table), out_dir / name)

    # fig5: RMSE vs shots, dual-frequency against the cosine sample mean
    fig5_rows = [r for r in rmse_table.rows if r.estimator in ("df", "mean-cosine")]
    save_text(table_to_csv(ExperimentTable(rmse_table.spec, fig5_rows)), out_dir / "fig5.csv")

    # fig6: RMSE vs record length at a fixed shot count
    fig6_spec = replace(base, kind="rmse-vs-n", n_points=(64, 128, 256, 512, 1024),
                        n_shots=(30,), estimators=("df", "aml", "mean-cosine", "mean-rect"))
    save_text(table_to_csv(run_experiment(fig6_spec)), out_dir / "fig6.csv")

    for name in ("fig3.csv", "fig4.csv", "fig5.csv", "fig6.csv", "fig7.csv"):
        print(f"wrote {out_dir / name}", file=sys.stderr)
    return 0


if __name__ == "__main__":
    main()
