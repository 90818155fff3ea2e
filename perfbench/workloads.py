"""The benchmark workloads: what each one calls, hashes and checks.

Each workload is built from a seed and a trial count, calls phasekit's
public API once per iteration (`call`), and turns the output into a sha256
digest and the headline `rmse_over_crb` outside the timed region.  Calls go
through module attributes looked up at call time, so the tracer's wrappers
see them.
"""

from __future__ import annotations

import csv
import hashlib
import math
from pathlib import Path

import phasekit.cli
import phasekit.experiments
import phasekit.io
from phasekit.experiments import ExperimentSpec

BUNDLE_FILES = ("fig3.csv", "fig4.csv", "fig5.csv", "fig6.csv", "fig7.csv")


class Workload:
    """One closed-loop workload; subclasses set the class attributes below."""

    name: str
    default_trials: int
    default_threads: int = 1
    warmup_trials: int
    # Plausible range of rmse_over_crb at default_trials; a value outside it
    # fails the iteration.  With few trials the ratio estimates nothing, so
    # the band is only checked at the default size.
    band: tuple[float, float]

    def __init__(self, seed: int, trials: int, threads: int, workdir: Path):
        self.seed = seed
        self.trials = trials
        self.threads = threads
        self.workdir = workdir

    def call(self):
        """The timed call into phasekit; returns its raw output."""
        raise NotImplementedError

    def digest(self, output) -> str:
        raise NotImplementedError

    def rmse_over_crb(self, output) -> float:
        raise NotImplementedError

    def observations(self, output) -> dict:
        """Per-layer values read from the output rather than from spans."""
        return {}

    def finish(self, output) -> None:
        """Release what one iteration left behind (after it was checked)."""


def _table_digest(*tables) -> str:
    h = hashlib.sha256()
    for table in tables:
        h.update(phasekit.io.table_to_csv(table).encode("utf-8"))
    return h.hexdigest()


def _ratio(row) -> float:
    return row.rmse / row.sqrt_crb


class DfCell(Workload):
    """The paper's headline estimator at the reference size: one df cell."""

    name = "df-cell"
    default_trials = 2000
    warmup_trials = 8
    band = (1.0, 1.6)

    def __init__(self, seed, trials, threads, workdir):
        super().__init__(seed, trials, threads, workdir)
        self.spec = ExperimentSpec(
            kind="rmse-vs-shots", n_points=(128,), n_shots=(30,), estimators=("df",),
            trials=trials, master_seed=seed, phase_policy="uniform", n_jobs=1)

    def call(self):
        return phasekit.experiments.run_experiment(self.spec)

    def digest(self, output):
        return _table_digest(output)

    def rmse_over_crb(self, output):
        return _ratio(output.rows[0])


class TaperBounds(Workload):
    """Tapered windows at N=1024 (FFT distributions) plus CRB curves to N=4096."""

    name = "taper-bounds"
    default_trials = 1000
    warmup_trials = 2
    band = (0.9, 1.5)

    def __init__(self, seed, trials, threads, workdir):
        super().__init__(seed, trials, threads, workdir)
        self.rmse_spec = ExperimentSpec(
            kind="rmse-vs-shots", n_points=(1024,), n_shots=(1000,),
            estimators=("mean-cosine", "mean-bartlett"),
            trials=trials, master_seed=seed, phase_policy="uniform", n_jobs=1)
        self.crb_spec = ExperimentSpec(
            kind="crb-curve", n_points=tuple(2 ** k for k in range(6, 13)), n_shots=(1,),
            windows=("rect", "cosine", "bartlett"), trials=1, master_seed=seed)

    def call(self):
        run = phasekit.experiments.run_experiment
        return run(self.rmse_spec), run(self.crb_spec)

    def digest(self, output):
        return _table_digest(*output)

    def rmse_over_crb(self, output):
        (row,) = [r for r in output[0].rows if r.estimator == "mean-cosine"]
        return _ratio(row)


class CliFigures(Workload):
    """The paper's figure tables through the phasekit CLI, in process, with a pool.

    Five `experiment` subcommands write one CSV each, every RMSE and scatter
    cell with its own process pool.  The tables are those of
    `experiment --plot-data --qubits 7` without its sample-mean cells at
    2 to 100 shots: a 2-shot circular mean of two opposite outcomes is
    undefined, and phasekit then aborts the whole bundle at some seeds.
    """

    name = "cli-figures"
    default_trials = 500
    default_threads = 2
    # Below 2 * threads trials the harness skips the pool, so the warm-up
    # touches every module without paying ~30 pool starts.
    warmup_trials = 2
    band = (1.0, 1.6)

    def commands(self, out_dir: Path) -> list[list[str]]:
        """One argv per CSV, in BUNDLE_FILES order."""
        shots = "2,4,8,16,30,50,70,100"
        scatter = ["experiment", "scatter", "--record-length", "100", "--allow-any-n",
                   "--shots-list", "30", "--phase-policy", "cell", "--cell", "10"]
        tables = (
            ["experiment", "crb-curve", "--qubits", "7", "--shots-list", "1," + shots],
            [*scatter, "--estimators", "aml"],
            ["experiment", "rmse-vs-shots", "--qubits", "7", "--shots-list", shots,
             "--estimators", "df"],
            ["experiment", "rmse-vs-n", "--qubits", "6,7,8,9,10", "--shots-list", "30",
             "--estimators", "df,aml,mean-cosine,mean-rect"],
            [*scatter, "--estimators", "df"],
        )
        common = ["--threads", str(self.threads), "--seed", str(self.seed),
                  "--trials", str(self.trials)]
        return [[*argv, *common, "--output", str(out_dir / name)]
                for argv, name in zip(tables, BUNDLE_FILES)]

    def call(self):
        out_dir = self.workdir / "figures"
        out_dir.mkdir(exist_ok=True)
        for argv in self.commands(out_dir):
            code = phasekit.cli.dispatch(argv)
            if code != 0:
                raise RuntimeError(f"phasekit {' '.join(argv[:2])} exited with {code}")
        return out_dir

    def digest(self, output):
        return bundle_digest(output)

    def rmse_over_crb(self, output):
        # df at N=128, N_s=30 is a row of fig5 and of fig6, with independent
        # trials; pooling the two halves the seed-to-seed spread of the ratio.
        first, second = [r for name in ("fig5.csv", "fig6.csv")
                         for r in _read_csv(output / name)
                         if (r["estimator"], r["n_points"], r["n_shots"]) == ("df", "128", "30")]
        mse = (float(first["rmse"]) ** 2 + float(second["rmse"]) ** 2) / 2
        return math.sqrt(mse) / float(first["sqrt_crb"])

    def observations(self, output):
        # fig4 is the AML scatter across one cell at N=100; an error beyond
        # half a cell is a mirror flip.
        rows = _read_csv(output / "fig4.csv")
        half_cell = math.pi / 100
        flips = sum(abs(float(r["signed_error"])) > half_cell for r in rows)
        return {"estimators.aml.flip_ratio": flips / len(rows)}

    def finish(self, output):
        # A later iteration must write its own files, not pass on stale ones.
        for name in BUNDLE_FILES:
            (output / name).unlink(missing_ok=True)


def bundle_digest(out_dir: Path) -> str:
    """sha256 over the five figure CSVs, each prefixed by its file name."""
    h = hashlib.sha256()
    for name in BUNDLE_FILES:
        h.update(name.encode("ascii") + b"\n")
        h.update((Path(out_dir) / name).read_bytes())
    return h.hexdigest()


def _read_csv(path: Path) -> list[dict]:
    with open(path, newline="") as fh:
        return list(csv.DictReader(fh))


WORKLOADS = {w.name: w for w in (DfCell, TaperBounds, CliFigures)}
