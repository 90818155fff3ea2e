"""In-memory span tracer that wraps phasekit's module-level names from outside.

`install` replaces each traced name (a function, or the process-pool class)
with a wrapper that records a span: its start, its end, and the time its
nested spans covered, so every span name gets calls, inclusive time and
self time.  Spans nest through a stack.  A name that a later version of
phasekit no longer has is listed in `missing` and simply never observed;
`restore` puts every original back.

Spans recorded inside pool worker processes stay in those processes and are
lost, so the trial-path layers are traced with one worker.
"""

from __future__ import annotations

import functools
import importlib
import math
import time

import numpy as np

RMSE_KINDS = ("rmse-vs-shots", "rmse-vs-n")

# Exceptions an observer may raise when phasekit's argument or result shapes
# change; the derived counter is then left unobserved instead of crashing.
OBSERVE_ERRORS = (AttributeError, TypeError, IndexError, KeyError, ValueError)


class Tracer:
    def __init__(self):
        self.enabled = False
        self.spans: dict[str, list] = {}  # name -> [calls, self_s, inclusive_s]
        self.counters: dict[str, float] = {}
        self.missing: list[str] = []
        self.observe_errors: dict[str, str] = {}
        self._stack: list[list[float]] = []  # [start, time covered by children]
        self._originals: list[tuple] = []

    # -- recording -----------------------------------------------------------

    def open(self) -> list[float]:
        frame = [time.perf_counter(), 0.0]
        self._stack.append(frame)
        return frame

    def close(self, name: str, frame: list[float]) -> float:
        duration = time.perf_counter() - frame[0]
        if self._stack.pop() is not frame:
            raise RuntimeError("spans closed out of order")
        record = self.spans.setdefault(name, [0, 0.0, 0.0])
        record[0] += 1
        record[1] += duration - frame[1]
        record[2] += duration
        if self._stack:
            self._stack[-1][1] += duration
        return duration

    def count(self, name: str, amount: float = 1) -> None:
        self.counters[name] = self.counters.get(name, 0) + amount

    def _observe(self, name, observe, args, kwargs, result, duration):
        # Observer time is charged to no layer: it is the tracer's own cost.
        start = time.perf_counter()
        try:
            observe(self, args, kwargs, result, duration)
        except OBSERVE_ERRORS as exc:
            self.observe_errors.setdefault(name, repr(exc))
        spent = time.perf_counter() - start
        if self._stack:
            self._stack[-1][1] += spent

    # -- wrapping ------------------------------------------------------------

    def wrap(self, module_name: str, attr: str, name, observe=None) -> None:
        """Trace module.attr; `name` is a span name or a function of the call args."""
        module = importlib.import_module(module_name)
        original = getattr(module, attr, None)
        if original is None:
            self.missing.append(f"{module_name}.{attr}")
            return
        namer = name if callable(name) else (lambda args, kwargs: name)
        tracer = self

        @functools.wraps(original)
        def traced(*args, **kwargs):
            if not tracer.enabled:
                return original(*args, **kwargs)
            frame = tracer.open()
            try:
                result = original(*args, **kwargs)
            finally:
                duration = tracer.close(namer(args, kwargs), frame)
            if observe is not None:
                tracer._observe(attr, observe, args, kwargs, result, duration)
            return result

        self._replace(module, attr, original, traced)

    def wrap_pool(self, module_name: str, attr: str, name: str) -> None:
        """Trace a pool class: one span from construction to shutdown."""
        module = importlib.import_module(module_name)
        original = getattr(module, attr, None)
        if original is None:
            self.missing.append(f"{module_name}.{attr}")
            return
        tracer = self

        class TracedPool(original):
            def __init__(self, *args, **kwargs):
                self._span = tracer.open() if tracer.enabled else None
                super().__init__(*args, **kwargs)

            def shutdown(self, *args, **kwargs):
                try:
                    super().shutdown(*args, **kwargs)
                finally:
                    if self._span is not None:
                        tracer.close(name, self._span)
                        self._span = None

        self._replace(module, attr, original, TracedPool)

    def _replace(self, module, attr, original, replacement):
        setattr(module, attr, replacement)
        self._originals.append((module, attr, original))

    def restore(self) -> None:
        for module, attr, original in reversed(self._originals):
            setattr(module, attr, original)
        self._originals.clear()


# -- what phasekit's layers look like from outside ----------------------------

def _distribution_name(args, kwargs):
    window = args[0] if args else kwargs.get("window")
    kind = getattr(window, "kind", None)
    return "model.distribution_rect" if kind == "rect" else "model.distribution_fft"


def _observe_run(tracer, args, kwargs, result, duration):
    spec = args[0] if args else kwargs["spec"]
    if spec.kind in RMSE_KINDS:
        cells = len(spec.n_points) * len(spec.n_shots) * len(spec.estimators)
    elif spec.kind == "scatter":
        cells = 1
    else:
        return
    tracer.count("experiments.cells", cells)
    tracer.count("experiments.trials", cells * spec.trials)
    tracer.count("experiments.trial_run_s", duration)


def _observe_sample(tracer, args, kwargs, result, duration):
    tracer.count("model.sample.shots", len(result))


def _observe_aml(tracer, args, kwargs, result, duration):
    import phasekit.estimators

    hist = args[0] if args else kwargs["hist"]
    config = args[2] if len(args) > 2 else kwargs.get(
        "config", phasekit.estimators.DEFAULT_CONFIG)
    n_grid = config.resolve_grid_points(hist.total)
    half = (n_grid - 1) // 2
    step = 2.0 * (2.0 * math.pi) / (hist.n_points * n_grid)
    kept = min(config.bins_kept, int(np.count_nonzero(hist.counts)))
    tracer.count("estimators.aml.grid_evals", n_grid * kept)
    if abs(result.correction) >= half * step * (1.0 - 1e-9):
        tracer.count("estimators.aml.edge_hits")


def _observe_csv(tracer, args, kwargs, result, duration):
    # The CLI writes the CSV text it gets back to its --output file.
    tracer.count("io.bytes_written", len(result.encode("utf-8")))


def install(tracer: Tracer) -> None:
    """Wrap every name the harness and the CLI call phasekit's layers through."""
    exp, est = "phasekit.experiments", "phasekit.estimators"
    tracer.wrap(exp, "derive_seed", "rng.derive_seed")
    tracer.wrap(exp, "make_generator", "rng.make_generator")
    tracer.wrap(exp, "make_window", "windows.make_window")
    tracer.wrap(exp, "distribution", _distribution_name)
    tracer.wrap(exp, "sample_with_rng", "model.sample", _observe_sample)
    tracer.wrap(exp, "histogram", "model.histogram")
    tracer.wrap(est, "histogram", "model.histogram")
    tracer.wrap(exp, "aml_estimate", "estimators.aml", _observe_aml)
    tracer.wrap(est, "aml_estimate", "estimators.aml", _observe_aml)
    tracer.wrap(exp, "dual_frequency_estimate", "estimators.df")
    tracer.wrap(exp, "circular_sample_mean", "estimators.mean")
    tracer.wrap(exp, "avg_sqrt_crb", "fisher.avg_sqrt_crb")
    tracer.wrap("phasekit.fisher", "fisher_information", "fisher.fisher_information")
    tracer.wrap(exp, "run_experiment", "experiments.run_experiment", _observe_run)
    tracer.wrap_pool(exp, "ProcessPoolExecutor", "experiments.pool")
    tracer.wrap("phasekit.cli", "dispatch", "cli.dispatch")
    tracer.wrap("phasekit.cli", "run_experiment", "experiments.run_experiment", _observe_run)
    tracer.wrap("phasekit.cli", "table_to_csv", "io.table_to_csv", _observe_csv)
    tracer.wrap("phasekit.cli", "table_to_json", "io.table_to_json")
    tracer.wrap("phasekit.cli", "write_csv", "io.write_csv", _observe_csv)
