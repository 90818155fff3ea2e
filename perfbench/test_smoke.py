"""Smoke test of the benchmark itself, at tiny trial counts.

    python3 -m pytest perfbench -q

It runs every workload plain and traced, and shows that the output checks
catch a corrupted table instead of timing it.
"""

import dataclasses
import json
import math
import os
import shutil
import subprocess
import sys
from pathlib import Path

import numpy as np
import pytest

HERE = Path(__file__).resolve().parent
ROOT = HERE.parent
sys.path.insert(0, str(ROOT / "src"))
sys.path.insert(0, str(HERE))

import phasekit.experiments  # noqa: E402
import phasekit.fisher  # noqa: E402
import phasekit.rng  # noqa: E402
import run  # noqa: E402
import worker  # noqa: E402
from tracer import Tracer, install  # noqa: E402
from workloads import CliFigures, DfCell, bundle_digest  # noqa: E402

BENCH = json.loads((ROOT / "BENCHMARK.json").read_text())
TINY_TRIALS = {"df-cell": 20, "taper-bounds": 4, "cli-figures": 4}


@pytest.fixture
def workdir():
    path = ROOT / ".perfbench_tmp" / f"smoke-{os.getpid()}"
    path.mkdir(parents=True, exist_ok=True)
    yield path
    shutil.rmtree(path, ignore_errors=True)


def run_bench(*args, cwd=ROOT):
    return subprocess.run([sys.executable, "perfbench/run.py", *args], cwd=cwd,
                          capture_output=True, text=True, timeout=180)


@pytest.mark.parametrize("trace", ["0", "1"])
@pytest.mark.parametrize("workload", list(TINY_TRIALS))
def test_workload_reports_every_declared_metric(workload, trace):
    proc = run_bench("--workload", workload, "--seed", "3", "--seconds", "0.5",
                     "--trace", trace, "--trials", str(TINY_TRIALS[workload]))
    assert proc.returncode == 0, proc.stderr
    result = json.loads(proc.stdout.strip().splitlines()[-1])
    assert set(result) == {"correct", "attempted", "failed", "metrics"}
    assert result["correct"] and result["failed"] == 0 and result["attempted"] >= 1
    declared = BENCH["per_layer"] if trace == "1" else BENCH["end_to_end"]
    assert {name: m["unit"] for name, m in result["metrics"].items()} == {
        m["name"]: m["unit"] for m in declared}
    if trace == "1":
        assert result["metrics"]["trace.coverage_ratio"]["value"] >= 0.9
    else:
        assert all(m["value"] > 0 for m in result["metrics"].values())


class CorruptedDfCell(DfCell):
    """Changes the RMSE of the second iteration's table by one ulp."""

    calls = 0

    def call(self):
        table = super().call()
        self.calls += 1
        if self.calls == 2:
            row = table.rows[0]
            row = dataclasses.replace(row, rmse=math.nextafter(row.rmse, math.inf))
            table = dataclasses.replace(table, rows=[row])
        return table


def test_corrupted_output_counts_as_failed(workdir):
    stats = worker.measure(CorruptedDfCell(3, 20, 1, workdir), seconds=1.0)
    assert stats["attempted"] >= 3
    assert stats["failed"] == 1
    assert len(stats["walls"]) == stats["attempted"] - 1


def test_reference_digest_and_band_are_checked(workdir):
    cell = DfCell(3, 20, 1, workdir)
    assert worker.measure(cell, 0)["failed"] == 0
    assert worker.measure(cell, 0, reference="0" * 64)["failed"] == 1
    assert worker.measure(cell, 0, band=(5.0, 6.0))["failed"] == 1


def test_default_size_matches_recorded_reference(workdir):
    cell = DfCell(0, DfCell.default_trials, 1, workdir)
    reference = worker.reference_digest("df-cell", 0)
    assert reference is not None
    assert worker.measure(cell, 0, reference=reference, band=DfCell.band)["failed"] == 0


def test_figures_digest_matches_the_cli_run_directly(workdir):
    figures = CliFigures(3, 4, 2, workdir)
    in_process = figures.digest(figures.call())
    out = workdir / "direct"
    out.mkdir()
    for argv in figures.commands(out):
        subprocess.run([sys.executable, "-m", "phasekit.cli", *argv],
                       env={**os.environ, "PYTHONPATH": str(ROOT / "src")},
                       check=True, capture_output=True, timeout=120)
    assert bundle_digest(out) == in_process


def test_missing_or_uncalled_names_are_unobserved(workdir, monkeypatch):
    # As after a refactor: the FI grid no longer calls fisher_information,
    # and one traced name does not exist.
    exact = phasekit.fisher.fisher_information

    def grid(window, grid_size=phasekit.fisher.DEFAULT_PHASE_GRID):
        cell = 2 * np.pi / window.n_points
        return np.array([exact(window, cell * (i + 0.5) / grid_size)
                         for i in range(grid_size)])

    monkeypatch.setattr(phasekit.fisher, "fisher_information_grid", grid)
    tracer = Tracer()
    tracer.wrap("phasekit.fisher", "fisher_information_batched", "fisher.batched")
    install(tracer)
    try:
        stats = worker.measure(DfCell(3, 10, 1, workdir), 0, tracer=tracer)
    finally:
        tracer.restore()
    assert stats["failed"] == 0
    assert tracer.missing == ["phasekit.fisher.fisher_information_batched"]
    assert phasekit.experiments.derive_seed is phasekit.rng.derive_seed
    values = run.layer_values({"spans": tracer.spans, "counters": tracer.counters,
                               "observe_errors": tracer.observe_errors}, stats["walls"])
    assert values["rng.derive_seed.calls"] == 10
    assert values["fisher.avg_sqrt_crb.calls"] == 1
    for metric in ("fisher.fisher_information.calls", "fisher.fft_calls",
                   "estimators.mean.self_us"):
        assert metric not in values


def test_refuses_to_run_without_the_sources(workdir):
    bare = workdir / "bare"
    shutil.copytree(HERE, bare / "perfbench", ignore=shutil.ignore_patterns("__pycache__"))
    shutil.copy(ROOT / "BENCHMARK.json", bare)
    proc = run_bench("--workload", "df-cell", "--seed", "1", "--seconds", "1",
                     "--trace", "0", cwd=bare)
    assert proc.returncode != 0
    assert proc.stdout.strip() == ""
