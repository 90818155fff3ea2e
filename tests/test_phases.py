"""One phase rule for every public entry that takes a phase or offset.

Each entry below takes a phase or an offset, and checks it by
checks._bounded_phase: a value that is not a real number (a bool is not),
is not finite (an integer beyond the float range is not) or lies beyond
MAX_PHASE = 2**34 rad raises ValueError naming the argument, and a value up
to the bound, an int or a numpy float acts as, and is stored as, the equal
Python float.
"""

import json
import math
import pickle
import tempfile
from pathlib import Path

import numpy as np
import pytest

from phasekit.checks import MAX_PHASE, _bounded_phase
from phasekit.estimators import AmlResult, aml_estimate, aml_objective
from phasekit.experiments import ExperimentSpec
from phasekit.fisher import crb, fisher_information
from phasekit.io import read_sample_set_json
from phasekit.model import Histogram, PhaseDistribution, SampleSet, distribution
from phasekit.windows import make_cosine, make_rectangular

RECT, COSINE = make_rectangular(8), make_cosine(8)
H = Histogram(8, [0, 0, 3, 5, 1, 0, 0, 0], 9)


def spec(phase):
    # The phase is the second entry: entries are checked one by one.
    return ExperimentSpec(kind="rmse-vs-shots", n_points=(8,), n_shots=(4,),
                          estimators=("mean-cosine",), trials=2, phase_policy="fixed",
                          fixed_phases=(0.5, phase))


def read_json_offset(offset):
    # A numpy scalar is written as the number it holds; JSON has no other form.
    payload = {"n_points": 8, "outcomes": [1, 2, 2, 3],
               "offset": offset.item() if isinstance(offset, np.generic) else offset}
    with tempfile.TemporaryDirectory() as tmp:
        path = Path(tmp, "set.json")
        path.write_text(json.dumps(payload))
        return read_sample_set_json(path)


# id: (call of the phase, name in its message, the phase as the result
# stores it, or None where nothing stores it and the result is a number or
# an AmlResult).  distribution takes rect's closed form and cosine's FFT.
ENTRIES = {
    "distribution.phase": (lambda v: distribution(COSINE, v), "phase", lambda d: d.phase),
    "distribution.offset": (lambda v: distribution(COSINE, 0.5, v), "offset",
                            lambda d: d.offset),
    "distribution.rect.phase": (lambda v: distribution(RECT, v), "phase", lambda d: d.phase),
    "distribution.rect.offset": (lambda v: distribution(RECT, 0.5, v), "offset",
                                 lambda d: d.offset),
    "PhaseDistribution.phase": (lambda v: PhaseDistribution(4, v, 0.0, np.full(4, 0.25)),
                                "phase", lambda d: d.phase),
    "PhaseDistribution.offset": (lambda v: PhaseDistribution(4, 0.0, v, np.full(4, 0.25)),
                                 "offset", lambda d: d.offset),
    "SampleSet": (lambda v: SampleSet(8, [1, 2], v), "offset", lambda s: s.offset),
    "aml_objective.phase": (lambda v: aml_objective(H, v), "phase", None),
    "aml_objective.offset": (lambda v: aml_objective(H, 0.5, v), "offset", None),
    "aml_estimate": (lambda v: aml_estimate(H, v), "offset", None),
    "fisher_information": (lambda v: fisher_information(COSINE, v), "phase", None),
    "crb": (lambda v: crb(COSINE, v, 3), "phase", None),
    "ExperimentSpec.fixed_phases": (spec, "fixed_phases", lambda s: s.fixed_phases[1]),
    "read_sample_set_json": (read_json_offset, "sample-set JSON: offset",
                             lambda s: s.offset),
}

BEYOND = r"must lie in \[-2\*\*34, 2\*\*34\]"

# id: (value, the message after the argument's name)
REJECTED = {
    "True": (True, "must be a number"), "None": (None, "must be a number"),
    "'x'": ("x", "must be a number"), "'0.5'": ("0.5", "must be a number"),
    "nan": (math.nan, "nan is not finite"), "inf": (math.inf, "inf is not finite"),
    "-inf": (-math.inf, "-inf is not finite"), "10**400": (10 ** 400, "inf is not finite"),
    "next(2**34)": (np.nextafter(MAX_PHASE, math.inf), BEYOND), "-2**35": (-2 ** 35, BEYOND),
    "1e20": (1e20, BEYOND), "-1e20": (-1e20, BEYOND), "1e308": (1e308, BEYOND),
    "-1e308": (-1e308, BEYOND),
}

ACCEPTED = {"2**34": MAX_PHASE, "-2**34": -MAX_PHASE, "1e8": 1e8, "int": 3,
            "int -2**34": -2 ** 34, "float32": np.float32(0.5)}


@pytest.mark.parametrize("value", REJECTED)
@pytest.mark.parametrize("entry", ENTRIES)
def test_phase_outside_the_rule_names_the_argument(entry, value):
    call, name, _ = ENTRIES[entry]
    bad, message = REJECTED[value]
    with pytest.raises(ValueError, match=f"{name} {message}"):
        call(bad)


@pytest.mark.parametrize("value", ACCEPTED)
@pytest.mark.parametrize("entry", ENTRIES)
def test_phase_within_the_rule_is_the_python_float(entry, value):
    call, _, stored = ENTRIES[entry]
    phase = ACCEPTED[value]
    result, expected = call(phase), call(float(phase))
    if stored is None:
        numbers = vars(result).values() if isinstance(result, AmlResult) else [result]
        assert all(type(x) is float and math.isfinite(x) for x in numbers)
    else:
        assert type(stored(result)) is float and stored(result) == float(phase)
    # The same result, byte for byte, as for the equal Python float.
    assert pickle.dumps(result) == pickle.dumps(expected)


def test_rule_messages_and_result():
    assert _bounded_phase(np.float32(0.5), "x") == 0.5
    assert type(_bounded_phase(np.int64(-3), "x")) is float
    assert _bounded_phase(-2 ** 34, "x") == -MAX_PHASE
    for value, message in ((np.True_, "x must be a number"), ("1", "x must be a number"),
                           (-10 ** 400, "x -inf is not finite"),
                           (np.float64(np.nan), "x nan is not finite"),
                           (np.nextafter(-MAX_PHASE, -math.inf), f"x {BEYOND}")):
        with pytest.raises(ValueError, match=message):
            _bounded_phase(value, "x")

