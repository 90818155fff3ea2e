"""One fresh benchmark process: set up a workload, then time it in a closed loop.

run.py starts this file once per measurement, as

    python3 perfbench/worker.py --workload NAME --seed N --seconds S --workdir DIR
        --spawned-at MONOTONIC [--trials T] [--threads K] [--setup-only] [--trace]

and reads the JSON object on the last line of its standard output.  Set-up
runs from interpreter start to the end of one untimed warm-up call at a
small trial count; it covers the phasekit import and window construction.
"""

from __future__ import annotations

import argparse
import json
import math
import os
import platform
import resource
import statistics
import struct
import sys
import time
import traceback
from pathlib import Path

import numpy as np

HERE = Path(__file__).resolve().parent
SRC = HERE.parent / "src"
REFERENCE = HERE / "reference.json"

CALIBRATION_LOOPS = 900


def calibrate(processes: int = 1) -> float:
    """Mean seconds of a fixed loop run at once in `processes` processes.

    The loop is shaped like one phasekit trial but written without phasekit,
    so no change to phasekit can move it.  The machine's speed drifts by tens
    of percent over tens of seconds when other tenants load it, and the loop
    slows down with it; a timing divided by the calibration taken next to it
    is steadier across runs.  A workload with a pool of K workers keeps K
    cores busy, so it is calibrated with K processes.
    """
    children = []
    for _ in range(processes - 1):
        read_fd, write_fd = os.pipe()
        pid = os.fork()
        if pid == 0:
            os.close(read_fd)
            os.write(write_fd, struct.pack("d", _calibration_loop()))
            os._exit(0)
        os.close(write_fd)
        children.append((pid, read_fd))
    times = [_calibration_loop()]
    for pid, read_fd in children:
        with os.fdopen(read_fd, "rb") as fh:
            times.append(struct.unpack("d", fh.read(8))[0])
        os.waitpid(pid, 0)
    return sum(times) / len(times)


def _calibration_loop() -> float:
    grid = np.arange(128)
    start = time.perf_counter()
    for i in range(CALIBRATION_LOOPS):
        rng = np.random.Generator(np.random.PCG64(i))
        u = rng.random(16)
        p = np.sin(0.5 * (u[0] - 2 * np.pi * grid / 128)) ** 2 + 1e-3
        cdf = np.cumsum(p)
        cdf /= cdf[-1]
        z = np.bincount(np.searchsorted(cdf, u[1:], side="right"), minlength=128)
        top = np.lexsort((grid, -z))[:8]
        delta = np.arange(-22, 23)[:, None] * 0.01 - top[None, :]
        scores = np.log(np.maximum(np.abs(np.sinc(delta)), 1e-12)) @ z[top].astype(float)
        int(np.argmax(scores))
    return time.perf_counter() - start


def measure(workload, seconds: float, reference: str | None = None,
            band: tuple[float, float] | None = None, tracer=None) -> dict:
    """Call the workload until `seconds` have passed (at least once) and check each output.

    An iteration fails when the call raises, when its digest differs from the
    first iteration's or from `reference`, or when rmse_over_crb leaves `band`.
    Only iterations that pass contribute a wall time, and with it the mean of
    the calibrations taken just before and just after it.
    """
    walls, calibrations, failures, observations = [], [], [], {}
    attempted, first, ratio = 0, None, None
    start = time.perf_counter()
    cal_after = calibrate(workload.threads)
    while attempted == 0 or time.perf_counter() - start < seconds:
        cal_before = cal_after
        attempted += 1
        try:
            if tracer is not None:
                tracer.enabled = True
            t0 = time.perf_counter()
            try:
                output = workload.call()
            finally:
                wall = time.perf_counter() - t0
                if tracer is not None:
                    tracer.enabled = False
            cal_after = calibrate(workload.threads)
            digest = workload.digest(output)
            value = workload.rmse_over_crb(output)
            observations = workload.observations(output)
            workload.finish(output)
        except Exception as exc:  # a failing iteration is counted, not fatal
            if not failures:
                traceback.print_exc()
            failures.append(f"iteration {attempted} raised {exc!r}")
            continue
        first = first or digest
        problem = None
        if digest != first:
            problem = "output differs from the first iteration"
        elif reference is not None and digest != reference:
            problem = "output differs from the reference digest"
        elif not math.isfinite(value) or (band and not band[0] <= value <= band[1]):
            problem = f"rmse_over_crb {value!r} outside {band}"
        if problem:
            failures.append(f"iteration {attempted}: {problem}")
            continue
        walls.append(wall)
        calibrations.append(0.5 * (cal_before + cal_after))
        ratio = value
    return {
        "attempted": attempted,
        "failed": len(failures),
        "failures": failures[:5],
        "walls": walls,
        "calibrations": calibrations,
        "digest": first,
        "rmse_over_crb": ratio,
        "observations": observations,
    }


def reference_digest(workload_name: str, seed: int) -> str | None:
    """The digest recorded for (workload, seed) at default size, if any."""
    table = json.loads(REFERENCE.read_text())
    return table["digests"].get(workload_name, {}).get(str(seed))


def peak_rss_mb() -> float:
    """Peak resident memory of this process plus its largest waited-for child."""
    kib = (resource.getrusage(resource.RUSAGE_SELF).ru_maxrss
           + resource.getrusage(resource.RUSAGE_CHILDREN).ru_maxrss)
    return kib / 1024.0


def main(argv=None) -> int:
    p = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    p.add_argument("--workload", required=True)
    p.add_argument("--seed", type=int, required=True)
    p.add_argument("--trials", type=int, default=None)
    p.add_argument("--threads", type=int, default=None)
    p.add_argument("--seconds", type=float, required=True)
    p.add_argument("--workdir", type=Path, required=True)
    p.add_argument("--spawned-at", type=float, required=True)
    p.add_argument("--setup-only", action="store_true")
    p.add_argument("--trace", action="store_true")
    args = p.parse_args(argv)

    sys.path.insert(0, str(SRC))
    import numpy
    import phasekit

    if not Path(phasekit.__file__).resolve().is_relative_to(SRC):
        raise SystemExit(f"phasekit imported from {phasekit.__file__}, not from {SRC}")
    from workloads import WORKLOADS

    cls = WORKLOADS[args.workload]
    trials = args.trials or cls.default_trials
    threads = args.threads or cls.default_threads
    workload = cls(args.seed, trials, threads, args.workdir)
    warm = cls(args.seed, cls.warmup_trials, threads, args.workdir)
    warm.finish(warm.call())
    setup_s = time.monotonic() - args.spawned_at

    result = {
        "setup_s": setup_s,
        "setup_calibration": statistics.median(calibrate() for _ in range(3)),
        "trials": trials,
        "threads": threads,
        "versions": {"python": platform.python_version(), "numpy": numpy.__version__,
                     "phasekit": getattr(phasekit, "__version__", "unknown")},
    }
    if not args.setup_only:
        full_size = trials == cls.default_trials
        tracer = None
        if args.trace:
            from tracer import Tracer, install

            tracer = Tracer()
            install(tracer)
        try:
            result.update(measure(
                workload, args.seconds,
                reference=reference_digest(cls.name, args.seed) if full_size else None,
                band=cls.band if full_size else None,
                tracer=tracer,
            ))
        finally:
            if tracer is not None:
                tracer.restore()
        result["peak_rss_mb"] = peak_rss_mb()
        if tracer is not None:
            result["trace"] = {"spans": tracer.spans, "counters": tracer.counters,
                               "missing": tracer.missing,
                               "observe_errors": tracer.observe_errors}
    print(json.dumps(result))
    return 0


if __name__ == "__main__":
    sys.exit(main())
