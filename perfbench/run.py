"""phasekit benchmark: end-to-end metrics per workload, or per-layer metrics from a traced run.

    python3 perfbench/run.py --workload {df-cell,taper-bounds,cli-figures,all}
        --seed N --seconds S --trace {0,1} [--trials T]

Every measurement runs in its own fresh process (worker.py) against the
phasekit sources in src/ of this checkout.  The last line of standard output
is one JSON object with the keys correct, attempted, failed and metrics;
the lines before it are a readable report and a run-info block.  See
perfbench/README.md for the workloads and the metrics.
"""

from __future__ import annotations

import argparse
import json
import os
import shutil
import signal
import statistics
import subprocess
import sys
import tempfile
import time
from pathlib import Path

HERE = Path(__file__).resolve().parent
ROOT = HERE.parent
WORKER = HERE / "worker.py"
SCRATCH = ROOT / ".perfbench_tmp"

WORKLOAD_NAMES = ("df-cell", "taper-bounds", "cli-figures")

# Fresh processes that only set up; with the measuring process they give
# setup_s as a median of SETUP_RUNS + 1 samples.
SETUP_RUNS = 5
# One invocation must finish well inside the 180 s it is allowed.
BUDGET_S = 170.0
# A timing gets a tail percentile only when this many samples lie beyond it.
TAIL_SAMPLES = 10
# Nominal seconds of worker.calibrate(), about its median on the 2-core
# machine where the benchmark was defined.  Reported times are scaled to it.
CALIBRATION_REF_S = 0.075

# Per-layer metrics taken from the two-worker traced run of cli-figures;
# spans of the other layers run inside pool workers there and are lost, so
# those come from the one-worker traced run.
PARENT_SIDE = ("experiments.cells", "experiments.us_per_trial", "experiments.pool_starts",
               "experiments.pool_s", "io.calls", "io.self_ms", "io.bytes_written",
               "cli.self_ms")


class BenchError(Exception):
    """The benchmark could not measure (as opposed to the program failing a check)."""


def run_worker(workload, seed, seconds, workdir, deadline, *flags):
    """Run worker.py in a fresh process (and session) and return its JSON result."""
    cmd = [sys.executable, str(WORKER), "--workload", workload, "--seed", str(seed),
           "--seconds", str(seconds), "--workdir", str(workdir), *flags,
           "--spawned-at", repr(time.monotonic())]
    proc = subprocess.Popen(cmd, cwd=ROOT, stdout=subprocess.PIPE, stderr=subprocess.PIPE,
                            text=True, start_new_session=True)
    try:
        out, err = proc.communicate(timeout=max(1.0, deadline - time.monotonic()))
    except subprocess.TimeoutExpired:
        os.killpg(proc.pid, signal.SIGKILL)  # the worker and any pool it started
        proc.communicate()
        raise BenchError(f"{workload} worker exceeded the time budget") from None
    lines = out.strip().splitlines()
    if proc.returncode != 0 or not lines:
        raise BenchError(f"{workload} worker exited with {proc.returncode}:\n{err[-3000:]}")
    return json.loads(lines[-1])


def timing(values):
    """Median with sample count, plus a tail percentile when enough samples lie beyond it."""
    values = sorted(values)
    summary = {"value": statistics.median(values), "n": len(values)}
    if len(values) >= 10 * TAIL_SAMPLES:
        summary["p90"] = statistics.quantiles(values, n=10)[-1]
    return summary


def scaled_walls(run):
    """Iteration wall times at the nominal machine speed."""
    return [w * CALIBRATION_REF_S / c for w, c in zip(run["walls"], run["calibrations"])]


def end_to_end(workload, seed, seconds, deadline, workdir, flags):
    setups = [run_worker(workload, seed, 0, workdir, deadline, *flags, "--setup-only")
              for _ in range(SETUP_RUNS)]
    run = run_worker(workload, seed, seconds, workdir, deadline, *flags)
    setups.append(run)
    metrics = {
        "wall_s": timing(scaled_walls(run) or [0.0]),
        "setup_s": timing([s["setup_s"] * CALIBRATION_REF_S / s["setup_calibration"]
                           for s in setups]),
        "peak_rss_mb": {"value": run["peak_rss_mb"], "n": 1},
        "rmse_over_crb": {"value": run["rmse_over_crb"] or 0.0, "n": 1},
        # Report only:
        "wall_raw_s": {**timing(run["walls"] or [0.0]), "unit": "s"},
        "setup_raw_s": {**timing([s["setup_s"] for s in setups]), "unit": "s"},
        "failed_ratio": {"value": run["failed"] / run["attempted"], "n": run["attempted"],
                         "unit": "ratio"},
    }
    return metrics, [run], {}


def layer_values(trace, walls):
    """Per-layer metric values from one traced run; absent keys are unobserved."""
    spans, counters = trace["spans"], trace["counters"]
    iters = len(walls)
    values = {}

    def calls(name):
        return spans.get(name, [0, 0.0, 0.0])[0]

    def self_s(name):
        return spans.get(name, [0, 0.0, 0.0])[1]

    def per_iter(metric, amount, scale=1.0):
        if amount:
            values[metric] = amount / iters * scale

    def per_call_us(metric, name):
        if calls(name):
            values[metric] = self_s(name) / calls(name) * 1e6

    rect, fft = "model.distribution_rect", "model.distribution_fft"
    per_iter("rng.derive_seed.calls", calls("rng.derive_seed"))
    per_call_us("rng.derive_seed.self_us", "rng.derive_seed")
    per_call_us("rng.make_generator.self_us", "rng.make_generator")
    per_iter("windows.make_window.calls", calls("windows.make_window"))
    per_iter("windows.make_window.self_ms", self_s("windows.make_window"), 1e3)
    per_iter("model.distribution.calls", calls(rect) + calls(fft))
    per_call_us("model.distribution_rect.self_us", rect)
    per_call_us("model.distribution_fft.self_us", fft)
    shots = counters.get("model.sample.shots", 0)
    per_iter("model.sample.shots", shots)
    if shots:
        values["model.sample.self_ns_per_shot"] = self_s("model.sample") / shots * 1e9
    per_call_us("model.histogram.self_us", "model.histogram")
    aml = calls("estimators.aml")
    per_iter("estimators.aml.calls", aml)
    per_call_us("estimators.aml.self_us", "estimators.aml")
    if aml and "aml_estimate" not in trace["observe_errors"]:
        values["estimators.aml.grid_evals"] = counters["estimators.aml.grid_evals"] / iters
        values["estimators.aml.edge_ratio"] = counters.get("estimators.aml.edge_hits", 0) / aml
    per_call_us("estimators.df.self_us", "estimators.df")
    per_call_us("estimators.mean.self_us", "estimators.mean")
    per_iter("fisher.avg_sqrt_crb.calls", calls("fisher.avg_sqrt_crb"))
    per_iter("fisher.avg_sqrt_crb.self_ms", self_s("fisher.avg_sqrt_crb"), 1e3)
    fi = calls("fisher.fisher_information")
    per_iter("fisher.fisher_information.calls", fi)
    per_call_us("fisher.fisher_information.self_us", "fisher.fisher_information")
    per_iter("fisher.fft_calls", 2 * fi)  # computed: two inverse FFTs per FI call
    trials = counters.get("experiments.trials", 0)
    per_iter("experiments.cells", counters.get("experiments.cells", 0))
    if trials:
        values["experiments.us_per_trial"] = counters["experiments.trial_run_s"] / trials * 1e6
        values["experiments.self_us"] = self_s("experiments.run_experiment") / trials * 1e6
    per_iter("experiments.pool_starts", calls("experiments.pool"))
    per_iter("experiments.pool_s", spans.get("experiments.pool", [0, 0.0, 0.0])[2])
    io_spans = [name for name in spans if name.startswith("io.")]
    per_iter("io.calls", sum(calls(n) for n in io_spans))
    per_iter("io.self_ms", sum(self_s(n) for n in io_spans), 1e3)
    per_iter("io.bytes_written", counters.get("io.bytes_written", 0))
    per_iter("cli.self_ms", self_s("cli.dispatch"), 1e3)
    return values


def traced(workload, seed, seconds, deadline, workdir, flags):
    """An untraced and a traced run, each in its own process.

    A workload that uses a process pool gets a second pair at one worker,
    because spans inside pool workers are lost; its other three runs then
    measure for seconds/4 each.
    """
    phase_s = seconds / 2
    plain = run_worker(workload, seed, phase_s, workdir, deadline, *flags)
    threads = plain["threads"]
    if threads > 1:
        phase_s = seconds / 4
    pairs = {threads: (plain, run_worker(workload, seed, phase_s, workdir, deadline,
                                         *flags, "--trace"))}
    if threads > 1:
        one = [*flags, "--threads", "1"]
        pairs[1] = (run_worker(workload, seed, phase_s, workdir, deadline, *one),
                    run_worker(workload, seed, phase_s, workdir, deadline, *one, "--trace"))
    runs = [run for pair in pairs.values() for run in pair]
    missing = sorted({m for _, t in pairs.values() for m in t["trace"]["missing"]})
    errors = {k: v for _, t in pairs.values() for k, v in t["trace"]["observe_errors"].items()}
    extra = {"missing_names": missing, "observe_errors": errors}
    if not all(run["walls"] for run in runs):
        return {}, runs, extra  # no iteration passed its check: nothing to attribute

    def median_wall(run):
        return statistics.median(scaled_walls(run))

    values = layer_values(pairs[1][1]["trace"], pairs[1][1]["walls"])
    if threads > 1:
        parent = layer_values(pairs[threads][1]["trace"], pairs[threads][1]["walls"])
        for metric in PARENT_SIDE:
            values.pop(metric, None)
            if metric in parent:
                values[metric] = parent[metric]
        values["experiments.pool_speedup"] = (
            median_wall(pairs[1][0]) / median_wall(pairs[threads][0]))
    values.update(pairs[1][1]["observations"])
    values["trace.overhead_ratio"] = max(
        median_wall(trace) / median_wall(plain) - 1.0 for plain, trace in pairs.values())
    values["trace.coverage_ratio"] = min(
        sum(s[1] for s in trace["trace"]["spans"].values()) / sum(trace["walls"])
        for _, trace in pairs.values())
    n = len(pairs[1][1]["walls"])
    return {name: {"value": value, "n": n} for name, value in values.items()}, runs, extra


def git_commit():
    if not (ROOT / ".git").exists():
        return None
    try:
        out = subprocess.run(["git", "rev-parse", "HEAD"], cwd=ROOT, capture_output=True,
                             text=True, timeout=10)
    except (OSError, subprocess.TimeoutExpired):
        return None
    return out.stdout.strip() or None


def bench_workload(bench, workload, seed, seconds, trace, trials, deadline):
    """Measure one workload; returns (metrics, attempted, failed, report)."""
    SCRATCH.mkdir(exist_ok=True)
    workdir = Path(tempfile.mkdtemp(prefix=f"{workload}-", dir=SCRATCH))
    flags = ["--trials", str(trials)] if trials else []
    try:
        measure = traced if trace else end_to_end
        raw, runs, extra = measure(workload, seed, seconds, deadline, workdir, flags)
    finally:
        shutil.rmtree(workdir, ignore_errors=True)
    declared = bench["per_layer"] if trace else bench["end_to_end"]
    metrics, unobserved = {}, []
    for m in declared:
        if m["name"] not in raw:
            unobserved.append(m["name"])
        metrics[m["name"]] = {"value": raw.get(m["name"], {"value": 0.0})["value"],
                              "unit": m["unit"]}
    attempted = sum(r["attempted"] for r in runs)
    failed = sum(r["failed"] for r in runs)
    units = {name: m["unit"] for name, m in metrics.items()}
    report = {
        "workload": workload,
        "metrics": {name: {"unit": units.get(name), **m} for name, m in raw.items()},
        "unobserved": unobserved,
        "failures": [f for r in runs for f in r["failures"]],
        "run_info": {
            "nproc": os.cpu_count(), "seed": seed, "trials": runs[0]["trials"],
            "threads": runs[0]["threads"], "seconds": seconds, "trace": trace,
            "git_commit": git_commit(), **runs[0]["versions"],
        },
        **extra,
    }
    return metrics, attempted, failed, report


def print_report(report):
    info = report["run_info"]
    print(f"== {report['workload']}  seed={info['seed']}  trials={info['trials']}  "
          f"threads={info['threads']}  trace={info['trace']}")
    for name, m in report["metrics"].items():
        tail = f"  p90={m['p90']:.6g}" if "p90" in m else ""
        print(f"  {name:36s} {m['value']:14.6g} {m['unit']:8s} n={m['n']}{tail}")
    for name in report["unobserved"]:
        print(f"  {name:36s} {'unobserved':>14s}")
    for failure in report["failures"]:
        print(f"  FAILED: {failure}")
    print("report " + json.dumps(report))


def main(argv=None) -> int:
    p = argparse.ArgumentParser(description="phasekit benchmark")
    p.add_argument("--workload", required=True, choices=WORKLOAD_NAMES + ("all",))
    p.add_argument("--seed", type=int, required=True)
    p.add_argument("--seconds", type=float, required=True)
    p.add_argument("--trace", type=int, choices=(0, 1), default=0)
    p.add_argument("--trials", type=int, default=None,
                   help="trials per cell (default: the workload's reference size)")
    args = p.parse_args(argv)

    if not (ROOT / "src" / "phasekit" / "__init__.py").is_file():
        print(f"error: no phasekit sources under {ROOT / 'src'}", file=sys.stderr)
        return 2
    bench = json.loads((ROOT / "BENCHMARK.json").read_text())
    names = WORKLOAD_NAMES if args.workload == "all" else (args.workload,)
    deadline = time.monotonic() + BUDGET_S * len(names)
    metrics, attempted, failed = {}, 0, 0
    try:
        for name in names:
            wl_metrics, wl_attempted, wl_failed, report = bench_workload(
                bench, name, args.seed, args.seconds, bool(args.trace), args.trials, deadline)
            print_report(report)
            prefix = f"{name}." if args.workload == "all" else ""
            metrics.update({prefix + k: v for k, v in wl_metrics.items()})
            attempted += wl_attempted
            failed += wl_failed
    except BenchError as exc:
        print(f"error: {exc}", file=sys.stderr)
        return 1
    print(json.dumps({"correct": failed == 0, "attempted": attempted, "failed": failed,
                      "metrics": metrics}))
    return 0


if __name__ == "__main__":
    sys.exit(main())
