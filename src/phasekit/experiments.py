"""Seeded Monte-Carlo harness: RMSE sweeps, scatter runs, CRB curves.

Every kind runs through one path: run_experiment and the run_* wrappers
check spec.kind once and hand the spec to the kind's row builder.  The
result is always an ExperimentTable, whose columns name the serialized
fields of the kind's row type; an ExperimentRow's wall_time stays in
memory and is never serialized, because it varies run to run.
ExperimentSpec stores each list field as a tuple of Python ints, strs or
floats, and kind and phase_policy as a str.  It rejects a run that cannot
start before any work is done: a list field that is not a tuple, list or
array, a count, seed or index that is not an integer (a bool is not), a
non-bool allow_any_n, a fixed phase that is not a finite number, an
empty estimator list (window list for a CRB curve), an unknown window for
a CRB curve, a CRB grid below 16 or above MAX_CRB_GRID_SIZE phases, more
than MAX_TRIALS trials, N above io.MAX_RECORD_LENGTH, N_s above
io.MAX_SHOTS, a scatter run over more than one N, N_s or estimator, df
with fewer than 2 shots, a cell-policy cell_index outside [0, N) for some
N, or an RMSE kind of no trials.

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
  operations whose rows equal the single-trial results (row-wise FFT, the
  rect closed form evaluated in place in the same order of operations,
  model.sample_rows, the one sampler behind model.sample, with a row-wise
  cumsum and each row's own searchsorted method);
* the AML objective is contracted with the counts once per group of rows
  with the same number K of nonzero kept bins, so every product is the
  same (G, K) @ (K,) BLAS call as for one histogram (estimators.aml_rows).
  Its terms are computed in place: the displacement wrap is the exact
  piecewise form of np.mod (add or subtract N) over the range the harness
  reaches, and the sinc is np.sinc's own arithmetic;
* ties resolve as before: stable argsort for the kept bins, first-index
  argmax and argmin for the grid point and the DF pair.

A block holds about BLOCK_BYTES of arrays, so memory does not grow with
the trial count.  _block_rows charges each row for the arrays its
estimator builds (fitted to tracemalloc peaks; see there).  It also caps
a block that may draw from the closed form, N_s <= rng.CLOSED_FORM_MAX_WORDS,
at 2**12 // (N_s + 2) rows, since rng.uniform_rows draws a whole block in
one pass and keeps no budget of its own.

Every CRB column and crb-curve row divides a one-shot price by sqrt(N_s):
the average sqrt-CRB of a window at N, a pure function of (window, N,
crb_grid_size).  A price is computed once per (window, N, grid) per
process and kept, so an RMSE run and a CRB curve in one process share
their prices, and a repeated run computes no Fisher grid.

A sample-mean trial whose resultant vector vanishes (two opposite
outcomes, say) has no mean; it then guesses a uniform phase from the
next double of its own stream.  A sample-mean block draws that double
for every trial along with the others, and a trial with a mean leaves it
unused, so every trial's bytes stay those of the trial run alone.
"""

from __future__ import annotations

import time
from dataclasses import dataclass, field, fields

import numpy as np

from .angles import TWO_PI, circ_signed_error, wrap_two_pi
from .checks import _is_int, _is_real
from .estimators import (
    DEFAULT_CONFIG,
    aml_rows,
    circular_mean_rows,
    dual_frequency_rows,
    split_shot_counts,
)
from .fisher import DEFAULT_PHASE_GRID, _avg_sqrt_crbs
from .io import MAX_RECORD_LENGTH, MAX_SHOTS
from .model import distribution_rows, histogram_rows, sample_rows
from .rng import CLOSED_FORM_MAX_WORDS, derive_seed, uniform_rows
from .windows import make_window

EXPERIMENT_KINDS = ("rmse-vs-shots", "rmse-vs-n", "scatter", "crb-curve")

# Data window backing each estimator; the same window prices its CRB column.
ESTIMATOR_WINDOWS = {
    "mean-rect": "rect",
    "mean-cosine": "cosine",
    "mean-bartlett": "bartlett",
    "aml": "rect",
    "df": "rect",
}

PHASE_POLICIES = ("uniform", "cell", "fixed")

# Windows a crb-curve run can price.
BUILTIN_WINDOWS = ("rect", "cosine", "bartlett")

# Memory budget of one block of trials; see _block_rows.
BLOCK_BYTES = 1 << 20

# Upper bounds on what a spec can size: per-trial result arrays, and the
# phase grid of each CRB price (fisher.DEFAULT_PHASE_GRID by default).
MAX_TRIALS = 10 ** 6
MAX_CRB_GRID_SIZE = 2 ** 16

# One-shot price of each (window, N, crb_grid_size) computed in this process;
# see _one_shot_prices.  An entry is one float, and none is ever evicted.
_PRICES: dict[tuple[str, int, int], float] = {}


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
        rules = {int: (_is_int, "an integer"), float: (_is_real, "a number"),
                 str: (lambda v: isinstance(v, str), "a string")}
        for name, convert in (("n_points", int), ("n_shots", int), ("estimators", str),
                              ("windows", str), ("fixed_phases", float)):
            is_entry, what = rules[convert]
            values = getattr(self, name)
            if not isinstance(values, (tuple, list, np.ndarray)):
                raise ValueError(f"{name} must be a tuple, list or array")
            if not all(is_entry(v) for v in values):
                raise ValueError(f"every entry of {name} must be {what}")
            object.__setattr__(self, name, tuple(convert(v) for v in values))
        for name in ("trials", "master_seed", "crb_grid_size", "cell_index", "n_jobs"):
            value = getattr(self, name)
            if not _is_int(value):
                raise ValueError(f"{name} must be an integer")
            object.__setattr__(self, name, int(value))
        # An np.str_ is a str; anything else fails its name check below.
        for name in ("kind", "phase_policy"):
            value = getattr(self, name)
            if isinstance(value, str):
                object.__setattr__(self, name, str(value))
        if not isinstance(self.allow_any_n, bool):
            raise ValueError("allow_any_n must be a bool")
        if not self.n_points or not self.n_shots:
            raise ValueError("n_points and n_shots lists must be nonempty")
        if not np.all(np.isfinite(self.fixed_phases)):
            raise ValueError("fixed_phases must be finite")
        if min(self.n_shots) < 1:
            raise ValueError("every shot count must be >= 1")
        if max(self.n_shots) > MAX_SHOTS:
            raise ValueError(f"every shot count must be <= {MAX_SHOTS}")
        if self.trials < 0:
            raise ValueError("trials must be nonnegative")
        if self.trials > MAX_TRIALS:
            raise ValueError(f"trials must be <= {MAX_TRIALS}")
        # A scatter run of no trials is its header; an RMSE has no value.
        if self.kind in ("rmse-vs-shots", "rmse-vs-n") and self.trials < 1:
            raise ValueError("RMSE experiments need at least one trial")
        if self.phase_policy not in PHASE_POLICIES:
            raise ValueError(f"unknown phase policy {self.phase_policy!r}")
        if self.phase_policy == "fixed" and not self.fixed_phases:
            raise ValueError("fixed phase policy needs fixed_phases")
        for est in self.estimators:
            if est not in ESTIMATOR_WINDOWS:
                raise ValueError(f"unknown estimator {est!r}")
        for n in self.n_points:
            if n < 2:
                raise ValueError("record length must be >= 2")
            if n > MAX_RECORD_LENGTH:
                raise ValueError(f"record length must be <= {MAX_RECORD_LENGTH}")
            if not self.allow_any_n and n & (n - 1) != 0:
                raise ValueError(
                    f"record length {n} is not a power of two (set allow_any_n to override)"
                )
        # Only the cell policy reads cell_index; its phases must stay in [0, 2*pi).
        if self.phase_policy == "cell" and not 0 <= self.cell_index < min(self.n_points):
            raise ValueError(f"cell_index must be in [0, {min(self.n_points)}), "
                             "a cell of every N")
        if self.n_jobs < 1:
            raise ValueError("n_jobs must be >= 1")
        if self.crb_grid_size < 16:
            raise ValueError("crb_grid_size must be >= 16")
        if self.crb_grid_size > MAX_CRB_GRID_SIZE:
            raise ValueError(f"crb_grid_size must be <= {MAX_CRB_GRID_SIZE}")
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


@dataclass(frozen=True)
class ExperimentRow:
    n_points: int
    n_shots: int
    window: str
    estimator: str
    rmse: float
    sqrt_crb: float
    trials: int
    wall_time: float  # varies run to run, so ExperimentTable.columns leaves it out


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
        """Serialized field names of the row type, in declaration order."""
        row_type = _KINDS[self.spec.kind][0]
        return [f.name for f in fields(row_type) if f.name != "wall_time"]


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
    # The windows behind the estimators, in first-use order.
    window_ids = list(dict.fromkeys(ESTIMATOR_WINDOWS[e] for e in spec.estimators))
    for n in spec.n_points:
        prices = dict(zip(window_ids, _one_shot_prices(spec, window_ids, n)))
        for n_shots in spec.n_shots:
            for estimator in spec.estimators:
                start = time.perf_counter()
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
                    wall_time=time.perf_counter() - start,
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
        for window_id, one_shot in zip(spec.windows, _one_shot_prices(spec, spec.windows, n)):
            for n_shots in spec.n_shots:
                x = float(n) if vary_n else float(n_shots)
                rows.append(CrbRow(x, window_id, float(one_shot / np.sqrt(n_shots))))
    return rows


def _one_shot_prices(spec: ExperimentSpec, window_ids, n: int) -> list[float]:
    """One-shot average sqrt-CRB of each window at N, in the order asked.

    The windows not yet in _PRICES are priced in one call that shares each
    block's phase ramp, and stored; a pricing that raises stores nothing.
    """
    keys = [(window_id, n, spec.crb_grid_size) for window_id in window_ids]
    missing = list(dict.fromkeys(key for key in keys if key not in _PRICES))
    if missing:
        windows = [make_window(window_id, n) for window_id, _, _ in missing]
        _PRICES.update(zip(missing, _avg_sqrt_crbs(windows, 1, spec.crb_grid_size)))
    return [_PRICES[key] for key in keys]


# Row type and row builder of each experiment kind.
_KINDS = {
    "rmse-vs-shots": (ExperimentRow, _rmse_rows),
    "rmse-vs-n": (ExperimentRow, _rmse_rows),
    "scatter": (ScatterRow, _scatter_rows),
    "crb-curve": (CrbRow, _crb_rows),
}


def _collect_trials(spec: ExperimentSpec, estimator: str, n: int, n_shots: int):
    """(true_phases, signed_errors) arrays indexed by trial, in blocks of at most
    _block_rows(n, n_shots, estimator) trials."""
    window = make_window(ESTIMATOR_WINDOWS[estimator], n)
    phases = np.empty(spec.trials)
    errors = np.empty(spec.trials)
    step = _block_rows(n, n_shots, estimator)
    for lo in range(0, spec.trials, step):
        hi = min(lo + step, spec.trials)
        phases[lo:hi], errors[lo:hi] = _trial_block(spec, estimator, window, n, n_shots,
                                                    lo, hi)
    return phases, errors


def _block_rows(n: int, n_shots: int, estimator: str) -> int:
    """Trials per block such that the block's arrays stay near BLOCK_BYTES.

    A row draws at most k = N_s + 2 words (the phase, the shots, a sample
    mean's guess).  It is charged, in 8-byte words, the shot arrays that
    stay live plus the larger of two stages that peak at different times:

        sample mean:  2k + max(7N, 2k)
        aml, df:      3k + max(7N, 3N + 5 * G * K)

    * 2k: the uniforms and the outcomes; a mean's unit vectors are the
      other 2k.  3k: the uniforms, the outcomes and the histogram's flat
      index, or the per-seed draw's three (T, k) arrays when k > 64;
    * 7N: the distribution, 6.1N for rect with df's first histogram live
      beside it (an FFT window's takes about 5.3N);
    * 3N + 5GK: the histograms, the kept-bin order and the objective's
      (rows, G, K) tensors on the per-set grid G = resolve_grid_points(s),
      s = ceil(N_s/2) for df and N_s for aml.  Rows are grouped by their
      number of nonzero kept bins, and the largest group holds about s/16
      kept bins per row (0.9 at s = 15 or 30, 1.6 at 50, 4.5 at 100, 7 at
      1000), so K = min(bins_kept, N, max(1, s // 16)).

    One block's tracemalloc peak per row (seeds 5-7) against its charge:

        shape                          rows  peak/row, B   charge, B
        df, N=128, N_s=30               128    4939-5078        7936
        mean-cosine, N=1024, N_s=1000    14        51481       73376
        aml, N=64, N_s=1000               9  45158-48470      106544
        aml, N=4096, N_s=30               4       103018      230144

    The aml and df charges were fitted before the rect distribution and the
    objective ran in place (peaks 7592, 78044-94673 and 201342 B per row),
    and now overstate them.

    A row draws N_s to k words, depending on the phase policy and the
    estimator, and a draw of at most CLOSED_FORM_MAX_WORDS words comes from
    the closed form, which holds about 8k words per row at once.  So a block
    of N_s <= CLOSED_FORM_MAX_WORDS shots also stays within 2**12 // k rows.
    """
    k = n_shots + 2
    if estimator.startswith("mean-"):
        words = 2 * k + max(7 * n, 2 * k)
    else:
        per_set = (n_shots + 1) // 2 if estimator == "df" else n_shots
        n_grid = DEFAULT_CONFIG.resolve_grid_points(per_set)
        kept = min(DEFAULT_CONFIG.bins_kept, n, max(1, per_set // 16))
        words = 3 * k + max(7 * n, 3 * n + 5 * n_grid * kept)
    rows = max(1, BLOCK_BYTES // (8 * words))
    if n_shots <= CLOSED_FORM_MAX_WORDS:
        rows = min(rows, 2 ** 12 // k)
    return rows


def _trial_block(spec: ExperimentSpec, estimator: str, window, n: int, n_shots: int,
                 lo: int, hi: int):
    """(true_phases, signed_errors) of trials lo..hi-1 as array operations."""
    index = np.arange(lo, hi)
    seeds = derive_seed(spec.master_seed, spec.kind, estimator, n, n_shots, index)
    draws_phase = spec.phase_policy != "fixed"
    # A sample-mean trial also draws the double after its shots: its guess
    # should its resultant vector vanish.
    guesses = estimator.startswith("mean-")
    u = uniform_rows(seeds, draws_phase + n_shots + guesses)
    phases = _draw_phases(spec, n, index, u[:, 0])
    shots = u[:, draws_phase:draws_phase + n_shots]
    if estimator == "df":
        first, second = split_shot_counts(n_shots)
        plain = histogram_rows(_sample(window, phases, shots[:, :first]), n)
        shifted = histogram_rows(_sample(window, phases + np.pi / n, shots[:, first:]), n)
        estimates = dual_frequency_rows(plain, first, shifted, second, DEFAULT_CONFIG).estimate
    elif estimator == "aml":
        counts = histogram_rows(_sample(window, phases, shots), n)
        rough, correction = aml_rows(counts, n_shots, DEFAULT_CONFIG)
        estimates = wrap_two_pi(rough + correction)
    else:
        estimates, defined = circular_mean_rows(_sample(window, phases, shots), n)
        estimates[~defined] = u[~defined, -1] * TWO_PI
    return phases, circ_signed_error(estimates, phases)


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
