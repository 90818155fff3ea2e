"""One row per integer command-line input, each through the one count rule.

Every type=int option and every comma-separated length or shot list goes
through checks._check_count, in the CLI itself or in the spec or config it
builds.  Its least minus one, its most plus one and 10**30 each exit 2 with
one `usage error:` line and nothing else (so no `seed:` line before it), and
an in-range value runs.  A guard derives the inputs from the parser, so a new
one joins the table.
"""

import argparse
import os
import re

import pytest

from phasekit.checks import MAX_RECORD_LENGTH, MAX_SEED, MAX_SHOTS
from phasekit.cli import MAX_QUBITS, _build_parser, dispatch
from phasekit.estimators import MAX_GRID_POINTS
from phasekit.experiments import MAX_TRIALS
from phasekit.fisher import MAX_PHASE_GRID

SCATTER = ["experiment", "scatter", "--qubits=3", "--trials=2"]
# "INPUT" stands for a sample-set JSON at N = 8.
ESTIMATE = ["estimate", "--estimator=mean", "--input=INPUT"]
SAMPLE = ["sample", "--qubits=3", "--phase-frac=0.2", "--shots=5"]

# id: (argv without the input, its flag, least, most, an in-range value)
ENTRIES = {
    "qubits": (["window"], "--qubits", 1, MAX_QUBITS, 3),
    "record-length": (["window"], "--record-length", 2, MAX_RECORD_LENGTH, 8),
    "shots": (["sample", "--qubits=3", "--phase-frac=0.2"], "--shots", 1, MAX_SHOTS, 5),
    "shots-list": (["crb", "--qubits=3"], "--shots-list", 1, MAX_SHOTS, 10),
    "sample-seed": (SAMPLE, "--seed", 0, MAX_SEED, MAX_SEED),
    "experiment-seed": (SCATTER, "--seed", 0, MAX_SEED, MAX_SEED),
    "threads": (SCATTER, "--threads", 1, os.cpu_count() or 1, 1),
    "trials": (["experiment", "scatter", "--qubits=3"], "--trials", 0, MAX_TRIALS, 2),
    "grid-size": (["crb", "--qubits=3"], "--grid-size", 16, MAX_PHASE_GRID, 32),
    "bins-kept": (ESTIMATE, "--bins-kept", 2, MAX_RECORD_LENGTH, 4),
    "grid-points": (ESTIMATE, "--grid-points", 3, MAX_GRID_POINTS, 9),
    "cell": ([*SCATTER, "--phase-policy=cell"], "--cell", 0, 7, 3),
}


def _run(entry, value, tmp_path, capsys):
    argv, flag, *_ = ENTRIES[entry]
    path = tmp_path / "set.json"
    path.write_text('{"n_points": 8, "outcomes": [1, 2, 2]}')
    code = dispatch([a.replace("INPUT", str(path)) for a in argv] + [f"{flag}={value}"])
    return (code, *capsys.readouterr())


BAD = {"least-1": lambda least, most: least - 1, "most+1": lambda least, most: most + 1,
       "10**30": lambda least, most: 10 ** 30}


@pytest.mark.parametrize("bad", BAD)
@pytest.mark.parametrize("entry", ENTRIES)
def test_count_outside_its_range_is_one_usage_error(entry, bad, tmp_path, capsys):
    _, _, least, most, _ = ENTRIES[entry]
    value = BAD[bad](least, most)
    code, out, err = _run(entry, value, tmp_path, capsys)
    assert (code, out) == (2, "")
    assert re.fullmatch(r"usage error: [^\n]*\n", err)


@pytest.mark.parametrize("entry", ENTRIES)
def test_count_in_range_runs(entry, tmp_path, capsys):
    _, flag, _, _, valid = ENTRIES[entry]
    code, out, err = _run(entry, valid, tmp_path, capsys)
    assert code == 0 and out
    if flag == "--seed":
        assert err == f"seed: {valid}\n"


def test_every_integer_input_is_in_the_table():
    """Every type=int option of each command, and every comma-separated
    length or shot flag of any command, has a row."""
    rows = {(argv[0], flag) for argv, flag, *_ in ENTRIES.values()}
    typed, listed = set(), set()
    parser = _build_parser()
    (commands,) = [a for a in parser._actions if isinstance(a, argparse._SubParsersAction)]
    for command, sub in commands.choices.items():
        for action in sub._actions:
            if action.type is int:
                typed.add((command, action.option_strings[0]))
            elif (type(action) is argparse._StoreAction and action.type is None
                  and any(word in action.dest for word in ("qubits", "length", "shots"))):
                listed.add(action.option_strings[0])
    assert typed <= rows
    assert {flag for _, flag in typed} | listed == {flag for _, flag in rows}
