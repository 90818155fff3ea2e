"""Command-line front end.

Subcommands: window, dist, sample, crb, estimate, experiment.  Record
length is given either as --qubits M (N = 2^M) or directly as
--record-length N; non-power-of-two lengths need --allow-any-n.  Phases
are entered as --phase-frac x (phi = 2*pi*x) or --phase-rad r.  Each
command renders only the format it emits.  Exit codes: 0 success, 1
runtime error (including a malformed input file), 2 argument error
(including a value that ExperimentSpec or EstimatorConfig rejects, a
phase that is not finite in radians, a size beyond MAX_QUBITS,
io.MAX_RECORD_LENGTH or io.MAX_SHOTS, a custom window whose
--weights-csv length differs from the record length, an --input count
that the estimator does not take, and --plot-data with a kind or with a
record length other than 128).  crb and experiment build their
ExperimentSpec through one function, and every file goes through
io.save_text.
"""

from __future__ import annotations

import argparse
import os
import sys
from dataclasses import replace
from pathlib import Path

import numpy as np

from .angles import TWO_PI, wrap_two_pi
from .estimators import (
    DEFAULT_CONFIG,
    EstimatorConfig,
    aml_estimate,
    circular_sample_mean,
    dual_frequency_details,
)
from .experiments import (
    BUILTIN_WINDOWS,
    EXPERIMENT_KINDS,
    ExperimentSpec,
    ExperimentTable,
    ScatterRow,
    run_experiment,
)
from .io import (
    MAX_RECORD_LENGTH,
    MAX_SHOTS,
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


class CliError(Exception):
    """Argument-level error detected after parsing; maps to exit code 2."""


def main() -> None:
    sys.exit(dispatch())


def dispatch(argv=None) -> int:
    """Parse argv, run the subcommand, return the process exit code."""
    parser = _build_parser()
    try:
        args = parser.parse_args(argv)
    except SystemExit as exc:
        return int(exc.code or 0)
    try:
        return args.func(args)
    except CliError as exc:
        print(f"usage error: {exc}", file=sys.stderr)
        return 2
    except (ValueError, OSError) as exc:
        print(f"error: {exc}", file=sys.stderr)
        return 1


def _build_parser() -> argparse.ArgumentParser:
    parser = argparse.ArgumentParser(
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
    _add_phase_args(p, required=True)
    p.add_argument("--offset-half-cell", action="store_true",
                   help="apply the pi/N frequency offset")
    _add_output_args(p)
    p.set_defaults(func=_cmd_dist)

    p = sub.add_parser("sample", help="draw seeded measurement outcomes")
    _add_length_args(p)
    _add_window_args(p)
    _add_phase_args(p, required=True)
    p.add_argument("--offset-half-cell", action="store_true")
    p.add_argument("--shots", type=int, required=True)
    p.add_argument("--seed", type=int, default=0)
    _add_output_args(p, default_format="json")
    p.set_defaults(func=_cmd_sample)

    p = sub.add_parser("crb", help="average square-root CRB curves")
    _add_length_args(p, many=True)
    p.add_argument("--windows", default="rect,cosine,bartlett",
                   help="comma-separated window ids")
    p.add_argument("--shots-list", default="1", help="comma-separated shot counts")
    p.add_argument("--grid-size", type=int, default=256)
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
    _add_output_args(p, default_format=None)
    p.set_defaults(func=_cmd_estimate)

    p = sub.add_parser("experiment", help="run a Monte-Carlo experiment")
    p.add_argument("kind", nargs="?", choices=EXPERIMENT_KINDS)
    _add_length_args(p, many=True)
    p.add_argument("--shots-list", default="30")
    p.add_argument("--estimators", default="df")
    p.add_argument("--windows", default="rect,cosine,bartlett")
    p.add_argument("--trials", type=int, default=2000)
    p.add_argument("--seed", type=int, default=0)
    p.add_argument("--phase-policy", choices=("uniform", "cell"), default="uniform")
    p.add_argument("--cell", type=int, default=0, help="cell index for the cell policy")
    p.add_argument("--cell-units", action="store_true",
                   help="report scatter errors in units of 2*pi/N")
    # A string default goes through type=int, so a bad environment value is
    # a usage error like a bad --threads.
    p.add_argument("--threads", type=int, default=os.environ.get(THREADS_ENV, "1"),
                   help="accepted and checked against [1, CPUs] for compatibility; "
                        "every run uses one process and no output byte depends on "
                        f"it (default: ${THREADS_ENV}, else 1)")
    p.add_argument("--plot-data", action="store_true",
                   help="emit the standard figure bundle instead of one run")
    p.add_argument("--out-dir", default=".")
    _add_output_args(p)
    p.set_defaults(func=_cmd_experiment)

    return parser


def _add_length_args(p, many: bool = False):
    group = p.add_mutually_exclusive_group(required=True)
    if many:
        group.add_argument("--qubits", help="qubit count(s), comma-separated")
        group.add_argument("--record-length", help="record length(s), comma-separated")
    else:
        group.add_argument("--qubits", type=int)
        group.add_argument("--record-length", type=int)
    p.add_argument("--allow-any-n", action="store_true",
                   help="permit record lengths that are not powers of two")


def _add_window_args(p):
    p.add_argument("--window", choices=WINDOW_KINDS, default="rect")
    p.add_argument("--weights-csv",
                   help="weights for --window custom, one per outcome of the record "
                        "length: the y,value CSV that `window` writes, or one column "
                        "with an optional header")


def _add_phase_args(p, required: bool):
    group = p.add_mutually_exclusive_group(required=required)
    group.add_argument("--phase-frac", type=float, help="phase as a fraction of 2*pi")
    group.add_argument("--phase-rad", type=float, help="phase in radians")


def _add_output_args(p, default_format: str | None = "csv"):
    if default_format is not None:
        p.add_argument("--format", choices=("csv", "json"), default=default_format)
    p.add_argument("--output", help="output path (default: stdout)")


def _resolve_n_list(args) -> list[int]:
    if args.qubits is not None:
        return [2 ** _check_qubits(q) for q in _int_list(args.qubits, "--qubits")]
    return [_check_length(n, args.allow_any_n)
            for n in _int_list(args.record_length, "--record-length")]


def _int_list(text: str, flag: str) -> list[int]:
    """The integers of a comma-separated list; any other entry is a usage error."""
    try:
        return [int(s) for s in text.split(",")]
    except ValueError:
        raise CliError(f"{flag} must be comma-separated integers") from None


def _check_qubits(q: int) -> int:
    # Checked before 2 ** q is computed: that power alone can be a huge integer.
    if not 1 <= q <= MAX_QUBITS:
        raise CliError(f"--qubits must be in [1, {MAX_QUBITS}]")
    return q


def _check_length(n: int, allow_any: bool) -> int:
    if not 2 <= n <= MAX_RECORD_LENGTH:
        raise CliError(f"record length must be in [2, {MAX_RECORD_LENGTH}]")
    if n & (n - 1) != 0 and not allow_any:
        raise CliError(f"record length {n} is not a power of two (use --allow-any-n)")
    return n


def _resolve_shots(args) -> tuple[int, ...]:
    shots = tuple(_int_list(args.shots_list, "--shots-list"))
    if not all(1 <= s <= MAX_SHOTS for s in shots):
        raise CliError(f"--shots-list entries must be in [1, {MAX_SHOTS}]")
    return shots


def _validated(factory, **kwargs):
    """factory(**kwargs), where a ValueError it raises is an argument error."""
    try:
        return factory(**kwargs)
    except ValueError as exc:
        raise CliError(str(exc)) from None


def _check_threads(args):
    limit = os.cpu_count() or 1
    if not 1 <= args.threads <= limit:
        raise CliError(f"--threads must be in [1, {limit}] (the number of CPUs)")


def _resolve_phase(args) -> float:
    # Checked before wrapping: np.mod of inf or nan warns and gives nan.
    if args.phase_frac is not None:
        flag, phase = "--phase-frac", TWO_PI * args.phase_frac
    else:
        flag, phase = "--phase-rad", args.phase_rad
    if not np.isfinite(phase):
        raise CliError(f"{flag} must give a finite phase")
    return wrap_two_pi(phase)


def _resolve_window(args):
    if args.qubits is not None:
        n = 2 ** _check_qubits(args.qubits)
    else:
        n = _check_length(args.record_length, args.allow_any_n)
    if args.window == "custom":
        if not args.weights_csv:
            raise CliError("--window custom requires --weights-csv")
        window = make_window("custom", weights=load_weights_csv(args.weights_csv))
        if window.n_points != n:
            raise CliError(f"--weights-csv holds {window.n_points} weights, but the record "
                           f"length is {n}")
        return window
    return make_window(args.window, n)


def _emit(args, text: str) -> int:
    """Write text to --output, or to stdout without one."""
    if args.output:
        save_text(text, args.output)
    else:
        sys.stdout.write(text)
    return 0


def _emit_table(args, table) -> int:
    render = table_to_csv if args.format == "csv" else table_to_json
    return _emit(args, render(table))


def _cmd_window(args) -> int:
    window = _resolve_window(args)
    spec = {"kind": window.kind, "n_points": window.n_points}
    return _emit(args, write_values(window.weights, spec, args.format))


def _cmd_dist(args) -> int:
    window = _resolve_window(args)
    offset = np.pi / window.n_points if args.offset_half_cell else 0.0
    dist = distribution(window, _resolve_phase(args), offset)
    spec = {"n_points": window.n_points, "window": window.kind, "phase": dist.phase,
            "offset": dist.offset}
    return _emit(args, write_values(dist.probs, spec, args.format))


def _cmd_sample(args) -> int:
    window = _resolve_window(args)
    offset = np.pi / window.n_points if args.offset_half_cell else 0.0
    if not 1 <= args.shots <= MAX_SHOTS:
        raise CliError(f"--shots must be in [1, {MAX_SHOTS}]")
    phase = _resolve_phase(args)
    print(f"seed: {args.seed}", file=sys.stderr)
    dist = distribution(window, phase, offset)
    draws = sample(dist, args.shots, args.seed)
    if args.format == "csv":
        return _emit(args, write_values(histogram(draws).counts))
    return _emit(args, sample_set_to_json(draws))


def _spec(args, kind: str, **run) -> ExperimentSpec:
    """The ExperimentSpec of kind from the length, shot and window arguments
    and the run fields given; a value it rejects is an argument error."""
    return _validated(
        ExperimentSpec,
        kind=kind,
        n_points=tuple(_resolve_n_list(args)),
        n_shots=_resolve_shots(args),
        windows=tuple(args.windows.split(",")),
        allow_any_n=args.allow_any_n,
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
        payload = {"estimator": "mean", "estimate": circular_sample_mean(sets[0])}
    return _emit(args, write_json(payload, []))


def _cmd_experiment(args) -> int:
    _check_threads(args)
    if args.plot_data and args.kind is not None:
        raise CliError("--plot-data takes no experiment kind")
    if not args.plot_data and args.kind is None:
        raise CliError("provide an experiment kind or --plot-data")
    # The bundle starts from its RMSE sweep's kind and overrides each figure's fields.
    spec = _spec(args, args.kind or "rmse-vs-shots",
                 estimators=tuple(args.estimators.split(",")), trials=args.trials,
                 master_seed=args.seed, phase_policy=args.phase_policy,
                 cell_index=args.cell, n_jobs=args.threads)
    if args.plot_data:
        return _emit_plot_bundle(args, spec)
    print(f"seed: {args.seed}", file=sys.stderr)
    table = run_experiment(spec)
    if args.kind == "scatter" and args.cell_units:
        table = _rescale_scatter(table)
    return _emit_table(args, table)


def _rescale_scatter(table):
    scale = table.spec.n_points[0] / TWO_PI
    rows = [ScatterRow(r.true_phase, r.signed_error * scale) for r in table.rows]
    return ExperimentTable(table.spec, rows)


def _emit_plot_bundle(args, spec: ExperimentSpec) -> int:
    """Write fig3.csv ... fig7.csv: CRB curves, scatter runs and RMSE sweeps.

    Of spec, the figures keep the trials, seed and threads; each sets its
    own kind, lengths, shots, estimators, windows and phase policy.
    """
    if spec.n_points != (128,):
        raise CliError("--plot-data draws its figures at record length 128 (--qubits 7)")
    shots_sweep = (2, 4, 8, 16, 30, 50, 70, 100)
    base = replace(spec, n_shots=shots_sweep, windows=BUILTIN_WINDOWS, phase_policy="uniform")

    # One RMSE sweep feeds fig3's sample-mean overlay and fig5: a cell's
    # trial seeds depend on the kind, estimator, N and N_s, not on the
    # other estimators of the run.
    rmse_spec = replace(base, estimators=("df", "mean-rect", "mean-cosine", "mean-bartlett"))
    print(f"seed: {args.seed}", file=sys.stderr)
    out_dir = Path(args.out_dir)
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
    save_text(write_csv(["n_shots", "window", "sqrt_crb", "rmse_sample_mean"], fig3_rows),
              out_dir / "fig3.csv")

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
