"""Seeded Monte-Carlo harness: RMSE sweeps, scatter runs, CRB curves.

Every kind runs through one path: run_experiment and the run_* wrappers
check spec.kind once and hand the spec to the kind's row builder.  The
result is always an ExperimentTable, whose columns are the fields of the
kind's row type.  A row holds no timing, so one spec always gives an
equal table: run_experiment(spec) == run_experiment(spec).
ExperimentSpec stores each list field as a tuple of Python ints, strs or
floats, and kind and phase_policy as a str.  It rejects a run that cannot
start before any work is done: a list field that is not a tuple, list or
array, a cell_index that is not an integer (a bool is not), a count
outside its range by the one rule of checks (master_seed in [0,
checks.MAX_SEED], trials in [0, MAX_TRIALS], n_jobs >= 1, crb_grid_size in
[16, fisher.MAX_PHASE_GRID], each N in [2, checks.MAX_RECORD_LENGTH], each
N_s in [1, checks.MAX_SHOTS]), a non-bool allow_any_n, a fixed phase
outside the one phase rule of checks (a finite real of magnitude at most
MAX_PHASE; entries in order), an empty estimator list (window list for a
CRB curve), an unknown window for a CRB curve, a scatter run over more
than one N, N_s or estimator, df with fewer than 2 shots, a cell_index
outside [0, N) for some N under any phase policy, a repeated entry of
n_points, n_shots, estimators or windows (fixed_phases may repeat, which
weights its cycle), an RMSE kind of no trials, a window the run cannot
build at one of its N, or one it prices (a CRB curve's windows, an RMSE
run's estimator windows) with fewer than two nonzero weights there.

Every trial draws its own generator from a seed derived as
derive_seed(master_seed, kind, estimator, N, N_s, trial_index), so tables
are bit-identical no matter how trials are split into blocks.  Every trial
runs in the calling process: n_jobs starts no worker, and is accepted and
validated (>= 1) for compatibility only, changing no byte.
Per-trial squared errors are aggregated with numpy's pairwise summation
over the trial-indexed array, which fixes the reduction order.

Trials run in blocks of T as array operations, and a block computes the
same bytes as running its trials one at a time, because:

* each trial reads 1 + N_s doubles of its own PCG64 stream (N_s under
  the fixed phase policy): the phase first, then the shots, which df
  splits into a ceil(N_s/2) plain and a floor(N_s/2) offset set.  So the
  block draws one (T, 1 + N_s) matrix with every stream unchanged (one
  column more for a sample mean, below);
* distributions, inverse-CDF sampling and histograms are row-wise numpy
  operations whose rows equal the single-trial results (row-wise FFT and
  the rect closed form, each evaluated in place in the same order of
  operations,
  model.sample_rows, the one sampler behind model.sample, with a row-wise
  cumsum and each row's own searchsorted method);
* the AML objective is contracted with the counts once per group of rows
  with the same number K of nonzero kept bins, so every product is the
  same (G, K) @ (K,) BLAS call as for one histogram (estimators.aml_rows).
  Every group's terms sit in one buffer, each group's a contiguous view,
  and each elementwise step runs once over it, in place: the displacement
  wrap is the exact piecewise form of np.mod (add or subtract N) over the
  range the harness reaches, and the sinc is np.sinc's own arithmetic;
* df reduces each of its two sets to its AML rows as soon as the set's
  histogram exists and then matches them (estimators.dual_frequency_match,
  the end of dual_frequency_rows too), so the plain set's histogram is
  gone before the offset set's distribution is built;
* ties resolve as before: stable argsort for the kept bins, first-index
  argmax and argmin for the grid point and the DF pair.

A block holds about checks.BLOCK_BYTES of arrays, so memory does not grow
with the trial count.  _block_rows charges each row the largest of its
stages: the draw, whose footprint rng._draw_words states, since
rng.uniform_rows draws a whole block in one pass, and the arrays its
estimator builds (fitted to tracemalloc peaks; see there).  A block also
pays a fixed cost whatever its rows: fitting _trial_block's time against
its row count (8 to 384 rows, in process) gives about 0.4-0.7 ms for df
and 0.4-0.5 ms for aml at N=128 and N_s=30, and under 0.1 ms for a sample
mean.  So fewer, larger blocks are faster; checks says why BLOCK_BYTES
stops at 2 MiB.

Seeds are derived and replayed per chunk of at most BLOCK_BYTES // 256
trials (8192), not per block: one derive_seed call and one
rng.stream_keys call give the chunk's (5, T) streams, and each block takes
its columns.  The two peak at about 240 bytes per trial and the chunk
keeps 40, so a chunk stays within one block's budget; every cell of up to
8192 trials is one chunk.  The module also frees one untouched
2 * BLOCK_BYTES array at import (the heap note below the imports), so that
under glibc the blocks of a cell reuse the same heap pages rather than
faulting them in again after each block.

Every CRB column and crb-curve row divides a one-shot price by sqrt(N_s),
taken from fisher.one_shot_prices, the process's one price table: an RMSE
run and a CRB curve in one process share their prices, and a repeated
run computes no Fisher grid.

A sample-mean trial whose resultant vector vanishes (two opposite
outcomes, say) has no mean; it then guesses a uniform phase from the
next double of its own stream.  A sample-mean block draws that double
for every trial along with the others, and a trial with a mean leaves it
unused, so every trial's bytes stay those of the trial run alone.
"""

from __future__ import annotations

from dataclasses import dataclass, field, fields

import numpy as np

from .angles import TWO_PI, circ_signed_error, wrap_two_pi
from .checks import BLOCK_BYTES, MAX_SEED
from .checks import MAX_RECORD_LENGTH, MAX_SHOTS, _bounded_phase, _check_count, _is_int, _is_real
from .estimators import (
    DEFAULT_CONFIG,
    aml_rows,
    circular_mean_rows,
    dual_frequency_match,
    split_shot_counts,
)
from .fisher import DEFAULT_PHASE_GRID, MAX_PHASE_GRID, one_shot_prices
from .model import distribution_rows, histogram_rows, sample_rows
from .rng import _draw_words, derive_seed, stream_keys, uniform_rows
from .windows import BUILTIN_WINDOWS, make_window

# Data window backing each estimator; the same window prices its CRB column.
ESTIMATOR_WINDOWS = {
    "mean-rect": "rect",
    "mean-cosine": "cosine",
    "mean-bartlett": "bartlett",
    "aml": "rect",
    "df": "rect",
}

PHASE_POLICIES = ("uniform", "cell", "fixed")

# Allocated, never touched and freed at once: under glibc's dynamic thresholds
# (mallopt(3)), freeing an mmapped chunk raises the mmap threshold to its size
# and the trim threshold to twice that, both above a block's 2-2.5 MiB, so
# blocks reuse the heap instead of faulting its pages in again.  Under any
# other allocator it is an allocation and nothing more.
np.empty(2 * BLOCK_BYTES, np.uint8)

# Upper bound on the per-trial result arrays a spec can size.
MAX_TRIALS = 10 ** 6


@dataclass(frozen=True)
class ExperimentSpec:
    """Declarative description of one experiment run."""

    kind: str
    n_points: tuple[int, ...]
    n_shots: tuple[int, ...]
    estimators: tuple[str, ...] = ("df",)
    windows: tuple[str, ...] = BUILTIN_WINDOWS  # crb-curve only
    trials: int = 10_000
    master_seed: int = 0
    phase_policy: str = "uniform"
    cell_index: int = 0
    fixed_phases: tuple[float, ...] = ()
    allow_any_n: bool = False
    crb_grid_size: int = DEFAULT_PHASE_GRID
    n_jobs: int = 1  # accepted for compatibility; starts no worker, changes no byte

    def __post_init__(self):
        if self.kind not in EXPERIMENT_KINDS:
            raise ValueError(f"unknown experiment kind {self.kind!r}")
        # Each field gets one Python type before a bound reads it: a float fails
        # deep in numpy, and np.sqrt of a uint16 shot count is a float32.
        # A fixed phase takes the one phase rule, entry by entry in order.
        rules = {int: (_is_int, "an integer", int),
                 float: (_is_real, "a number", lambda v: _bounded_phase(v, "fixed_phases")),
                 str: (lambda v: isinstance(v, str), "a string", str)}
        for name, entry_type in (("n_points", int), ("n_shots", int), ("estimators", str),
                                 ("windows", str), ("fixed_phases", float)):
            is_entry, what, convert = rules[entry_type]
            values = getattr(self, name)
            if not isinstance(values, (tuple, list, np.ndarray)):
                raise ValueError(f"{name} must be a tuple, list or array")
            if not all(is_entry(v) for v in values):
                raise ValueError(f"every entry of {name} must be {what}")
            values = tuple(convert(v) for v in values)
            # A repeat would run its rows twice; fixed phases repeat to weight the cycle.
            if entry_type is not float and len(set(values)) < len(values):
                raise ValueError(f"{name} repeats an entry")
            object.__setattr__(self, name, values)
        for name, least, most in (("master_seed", 0, MAX_SEED), ("trials", 0, MAX_TRIALS),
                                  ("n_jobs", 1, None), ("crb_grid_size", 16, MAX_PHASE_GRID)):
            object.__setattr__(self, name, _check_count(getattr(self, name), name, least, most))
        if not _is_int(self.cell_index):
            raise ValueError("cell_index must be an integer")
        object.__setattr__(self, "cell_index", int(self.cell_index))
        # An np.str_ is a str; anything else fails its name check below.
        for name in ("kind", "phase_policy"):
            value = getattr(self, name)
            if isinstance(value, str):
                object.__setattr__(self, name, str(value))
        if not isinstance(self.allow_any_n, bool):
            raise ValueError("allow_any_n must be a bool")
        if not self.n_points or not self.n_shots:
            raise ValueError("n_points and n_shots lists must be nonempty")
        for n_shots in self.n_shots:
            _check_count(n_shots, "every shot count", 1, MAX_SHOTS)
        # A scatter run of no trials is its header; an RMSE has no value.
        if _KINDS[self.kind][1] is _rmse_rows and self.trials < 1:
            raise ValueError("RMSE experiments need at least one trial")
        if self.phase_policy not in PHASE_POLICIES:
            raise ValueError(f"unknown phase policy {self.phase_policy!r}")
        if self.phase_policy == "fixed" and not self.fixed_phases:
            raise ValueError("fixed phase policy needs fixed_phases")
        for est in self.estimators:
            if est not in ESTIMATOR_WINDOWS:
                raise ValueError(f"unknown estimator {est!r}")
        for n in self.n_points:
            _check_count(n, "record length", 2, MAX_RECORD_LENGTH)
            if not self.allow_any_n and n & (n - 1) != 0:
                raise ValueError(
                    f"record length {n} is not a power of two (set allow_any_n to override)"
                )
        # Every policy checks cell_index; the cell policy's phases must stay in [0, 2*pi).
        if not 0 <= self.cell_index < min(self.n_points):
            raise ValueError(f"cell_index must be in [0, {min(self.n_points)}), "
                             "a cell of every N")
        # Only a crb-curve run prices windows; every other kind runs estimators.
        # An empty list of either would run nothing and return an empty table.
        if self.kind == "crb-curve":
            if not self.windows:
                raise ValueError("windows list must be nonempty")
            for window_id in self.windows:
                if window_id not in BUILTIN_WINDOWS:
                    raise ValueError(f"unknown window {window_id!r}; expected one of "
                                     f"{BUILTIN_WINDOWS}")
        elif not self.estimators:
            raise ValueError("estimators list must be nonempty")
        elif "df" in self.estimators and min(self.n_shots) < 2:
            raise ValueError("dual-frequency estimation needs at least 2 shots")
        if self.kind == "scatter" and not (
                len(self.n_points) == len(self.n_shots) == len(self.estimators) == 1):
            raise ValueError("scatter runs take exactly one N, one N_s and one estimator")
        # Every window the run builds must exist, and one it prices needs two nonzero
        # weights: with fewer its outcome probabilities do not depend on phi, and its FI
        # is 0 at every phase.  A built-in only gains nonzero weights as N grows, so the
        # smallest N decides.
        n = min(self.n_points)
        used = (self.windows if self.kind == "crb-curve"
                else [ESTIMATOR_WINDOWS[est] for est in self.estimators])
        for window_id in dict.fromkeys(used):
            weights = make_window(window_id, n).weights
            if self.kind != "scatter" and np.count_nonzero(weights) < 2:
                raise ValueError(f"the {window_id} window at N={n} cannot be priced: it has "
                                 "fewer than two nonzero weights, so its FI is 0")


@dataclass(frozen=True)
class ExperimentRow:
    n_points: int
    n_shots: int
    window: str
    estimator: str
    rmse: float
    sqrt_crb: float
    trials: int


@dataclass(frozen=True)
class ScatterRow:
    true_phase: float
    signed_error: float


@dataclass(frozen=True)
class CrbRow:
    x: float
    window: str
    sqrt_crb: float


@dataclass(frozen=True)
class ExperimentTable:
    """The rows of one run; their type follows spec.kind."""

    spec: ExperimentSpec
    rows: list = field(default_factory=list)

    @property
    def columns(self) -> list[str]:
        """Field names of the row type, in declaration order."""
        return [f.name for f in fields(_KINDS[self.spec.kind][0])]


# Exported from the package since scatter runs had a table type of their own.
ScatterTable = ExperimentTable


def run_rmse_vs_shots(spec: ExperimentSpec) -> ExperimentTable:
    """RMSE per (N_s, estimator) at fixed record length(s)."""
    return _run(spec, "rmse-vs-shots")


def run_rmse_vs_n(spec: ExperimentSpec) -> ExperimentTable:
    """RMSE per (N, estimator) at fixed shot count(s)."""
    return _run(spec, "rmse-vs-n")


def run_scatter(spec: ExperimentSpec) -> ExperimentTable:
    """One (true_phase, signed_error) row per trial, single (N, N_s, estimator)."""
    return _run(spec, "scatter")


def run_crb_curve(spec: ExperimentSpec) -> ExperimentTable:
    """Average square-root CRB per (window, N or N_s)."""
    return _run(spec, "crb-curve")


def run_experiment(spec: ExperimentSpec) -> ExperimentTable:
    """Dispatch on spec.kind."""
    return _run(spec, spec.kind)


def _run(spec: ExperimentSpec, kind: str) -> ExperimentTable:
    if spec.kind != kind:
        raise ValueError(f"spec.kind must be {kind!r}")
    return ExperimentTable(spec, _KINDS[kind][1](spec))


def fit_loglog_slope(table, x_field: str, where: dict | None = None) -> float:
    """OLS slope of log(rmse) against log(x_field) over the filtered rows."""
    rows = table.rows if hasattr(table, "rows") else list(table)
    if where:
        rows = [r for r in rows if all(getattr(r, k) == v for k, v in where.items())]
    if len(rows) < 3:
        raise ValueError("need at least 3 rows to fit a slope")
    xs = np.array([float(getattr(r, x_field)) for r in rows])
    ys = np.array([r.rmse for r in rows])
    if np.any(xs <= 0) or np.any(ys <= 0):
        raise ValueError("log-log fit requires positive values")
    return float(np.polyfit(np.log(xs), np.log(ys), 1)[0])


def _rmse_rows(spec: ExperimentSpec) -> list[ExperimentRow]:
    rows = []
    for n in spec.n_points:
        prices = one_shot_prices([ESTIMATOR_WINDOWS[e] for e in spec.estimators], n,
                                 spec.crb_grid_size)
        for n_shots in spec.n_shots:
            for estimator in spec.estimators:
                window_id = ESTIMATOR_WINDOWS[estimator]
                _, errors = _collect_trials(spec, estimator, n, n_shots)
                rmse = float(np.sqrt(np.sum(errors * errors) / spec.trials))
                sqrt_crb = float(prices[window_id] / np.sqrt(n_shots))
                rows.append(ExperimentRow(
                    n_points=n,
                    n_shots=n_shots,
                    window=window_id,
                    estimator=estimator,
                    rmse=rmse,
                    sqrt_crb=sqrt_crb,
                    trials=spec.trials,
                ))
    return rows


def _scatter_rows(spec: ExperimentSpec) -> list[ScatterRow]:
    (n,), (n_shots,), (estimator,) = spec.n_points, spec.n_shots, spec.estimators
    phases, errors = _collect_trials(spec, estimator, n, n_shots)
    return [ScatterRow(float(p), float(e)) for p, e in zip(phases, errors)]


def _crb_rows(spec: ExperimentSpec) -> list[CrbRow]:
    vary_n = len(spec.n_points) > 1 and len(spec.n_shots) == 1
    rows = []
    for n in spec.n_points:
        prices = one_shot_prices(spec.windows, n, spec.crb_grid_size)
        for window_id in spec.windows:
            for n_shots in spec.n_shots:
                x = float(n) if vary_n else float(n_shots)
                rows.append(CrbRow(x, window_id, float(prices[window_id] / np.sqrt(n_shots))))
    return rows


# Row type and row builder of each experiment kind; its keys, in this order,
# are EXPERIMENT_KINDS and the CLI's choices.
_KINDS = {
    "rmse-vs-shots": (ExperimentRow, _rmse_rows),
    "rmse-vs-n": (ExperimentRow, _rmse_rows),
    "scatter": (ScatterRow, _scatter_rows),
    "crb-curve": (CrbRow, _crb_rows),
}
EXPERIMENT_KINDS = tuple(_KINDS)


def _collect_trials(spec: ExperimentSpec, estimator: str, n: int, n_shots: int):
    """(true_phases, signed_errors) arrays indexed by trial, in chunks of at most
    BLOCK_BYTES // 256 trials, each seeded once and run in blocks of at most
    _block_rows(n, n_shots, estimator) trials."""
    window = make_window(ESTIMATOR_WINDOWS[estimator], n)
    phases = np.empty(spec.trials)
    errors = np.empty(spec.trials)
    step = _block_rows(n, n_shots, estimator)
    chunk = max(1, BLOCK_BYTES // 256)
    for start in range(0, spec.trials, chunk):
        stop = min(start + chunk, spec.trials)
        streams = stream_keys(derive_seed(spec.master_seed, spec.kind, estimator, n, n_shots,
                                          np.arange(start, stop)))
        for lo in range(start, stop, step):
            hi = min(lo + step, stop)
            phases[lo:hi], errors[lo:hi] = _trial_block(spec, estimator, window, n, n_shots,
                                                        lo, streams[:, lo - start:hi - start])
    return phases, errors


def _block_rows(n: int, n_shots: int, estimator: str) -> int:
    """Trials per block such that the block's arrays stay near BLOCK_BYTES.

    A row draws k = N_s to N_s + 2 uniforms, by the phase policy and the
    estimator (the phase, the shots, a sample mean's guess), and holds
    them to the end.  _row_words charges it, in 8-byte words, the largest
    of three stages that peak at different times:

        draw:          rng._draw_words(k), the uniforms included
        distribution:  k + 3.5N
        objective:     k + 2N + G * (4 + 2K)     (aml and df)

    * 3.5N: the rect closed form takes 3.125N and an FFT window's, built
      in one complex buffer, about 3.2N.  df reduces each set to its AML
      rows before the next stage, so no histogram lives beside it.
      Sampling, the histograms and the circular mean hold less than the
      larger of this stage and the draw;
    * 2N + G * (4 + 2K): the histogram and the argsort behind the kept
      bins, the (rows, G) positions and scores, and the objective's terms
      and their sinc, two buffers of K words per grid point, on the
      per-set grid G = resolve_grid_points(s), s = ceil(N_s/2) for df and
      N_s for aml.  Every row's terms share the buffers, so K is the mean
      number of nonzero kept bins, charged as min(bins_kept, N,
      max(1, 0.75 sqrt(s))): over N from 8 to 4096, uniform phases keep
      2.8-3.0 at s = 15, 3.6-4.1 at 30, 4.4-5.0 at 50, 5.6-6.2 at 100 and
      6.9-7.3 at 500.

    One block's tracemalloc peak per row (seed 5, tools/block_table.py),
    given its chunk's streams, against its charge:

        shape                          rows  peak/row, B   charge, B
        df, N=128, N_s=30               442         4448        4737
        df, N=1024, N_s=30               72        25921       28928
        mean-cosine, N=1024, N_s=1000    57        32630       36688
        mean-cosine, N=4096, N_s=1000    17       106400      122704
        mean-rect, N=2, N_s=62          481         4127        4352
        aml, N=64, N_s=1000              42        43630       49520
        aml, N=4096, N_s=30              18       102742      114944
        aml, N=16, N_s=100, fixed       156        12610       13384

    Over the shapes of the block-budget gate (5 estimators, N from 2 to
    4096, N_s from 2 to 1000, the uniform and the fixed phase policy), a
    block peaks at 0.47 to 1.10 BLOCK_BYTES; the benchmark's cell shapes at
    0.85 to 0.96.
    """
    return max(1, int(BLOCK_BYTES // (8 * _row_words(n, n_shots, estimator))))


def _row_words(n: int, n_shots: int, estimator: str) -> float:
    """The 8-byte words _block_rows charges one row: the largest stage."""
    k = n_shots + 2
    # The closed form's footprint exceeds the per-seed loop's, so the
    # largest of the three possible draws is charged.
    draw = max(map(_draw_words, range(n_shots, k + 1)))
    stage = 3.5 * n
    if not estimator.startswith("mean-"):
        per_set = split_shot_counts(n_shots)[0] if estimator == "df" else n_shots
        n_grid = DEFAULT_CONFIG.resolve_grid_points(per_set)
        kept = min(DEFAULT_CONFIG.bins_kept, n, max(1.0, 0.75 * per_set ** 0.5))
        stage = max(stage, 2 * n + n_grid * (4 + 2 * kept))
    return max(draw, k + stage)


def _trial_block(spec: ExperimentSpec, estimator: str, window, n: int, n_shots: int,
                 lo: int, streams: np.ndarray):
    """(true_phases, signed_errors) of the trials from lo on, one per column of
    streams, their chunk's rng.stream_keys columns, as array operations."""
    index = np.arange(lo, lo + streams.shape[1])
    draws_phase = spec.phase_policy != "fixed"
    # A sample-mean trial also draws the double after its shots: its guess
    # should its resultant vector vanish.
    guesses = estimator.startswith("mean-")
    u = uniform_rows(streams, draws_phase + n_shots + guesses)
    phases = _draw_phases(spec, n, index, u[:, 0])
    shots = u[:, draws_phase:draws_phase + n_shots]
    if estimator == "df":
        # Each set is reduced to its AML rows as soon as its histogram exists,
        # so the plain set's histogram is gone before the offset set's stages.
        first = split_shot_counts(n_shots)[0]
        estimates = dual_frequency_match(*_aml(window, phases, shots[:, :first], n),
                                         *_aml(window, phases + np.pi / n, shots[:, first:], n),
                                         n).estimate
    elif estimator == "aml":
        rough, correction = _aml(window, phases, shots, n)
        estimates = wrap_two_pi(rough + correction)
    else:
        estimates, defined = circular_mean_rows(_sample(window, phases, shots), n)
        estimates[~defined] = u[~defined, -1] * TWO_PI
    return phases, circ_signed_error(estimates, phases)


def _aml(window, effective: np.ndarray, u: np.ndarray, n: int):
    """aml_rows (rough, correction) of the histograms of the uniforms u."""
    return aml_rows(histogram_rows(_sample(window, effective, u), n), u.shape[1], DEFAULT_CONFIG)


def _sample(window, effective: np.ndarray, u: np.ndarray) -> np.ndarray:
    """(T, S) outcomes of the uniforms u at the given effective phases."""
    return sample_rows(distribution_rows(window, effective), u)


def _draw_phases(spec: ExperimentSpec, n: int, index: np.ndarray, u: np.ndarray) -> np.ndarray:
    if spec.phase_policy == "uniform":
        return u * TWO_PI
    if spec.phase_policy == "cell":
        frac = (index + u) / spec.trials
        return TWO_PI * (spec.cell_index + frac) / n
    return np.array(spec.fixed_phases, dtype=np.float64)[index % len(spec.fixed_phases)]
