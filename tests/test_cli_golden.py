"""Golden bytes of the command line.

Each case runs one subcommand in process and hashes what it writes.  The
sha256 digests were recorded before the table, runner and emitter layers
were collapsed to one of each, and every later version must reproduce them
byte for byte.  `{set1}` and `{set2}` in an argv stand for two sample sets
that `sample` writes first (the plain and the half-cell-offset set).
"""

import hashlib
from pathlib import Path

import pytest

from phasekit.cli import dispatch

BUNDLE_FILES = ("fig3.csv", "fig4.csv", "fig5.csv", "fig6.csv", "fig7.csv")
BUNDLE_DIGEST = "80d4918271c15426dd19be58c681789d102c6e0f23a8bb007b41e7b04a91cade"

SAMPLE = ["sample", "--qubits", "6", "--window", "rect", "--phase-frac", "0.3171",
          "--shots", "25"]
RMSE = ["experiment", "rmse-vs-shots", "--qubits", "5", "--shots-list", "4,9",
        "--estimators", "df,aml,mean-cosine", "--trials", "60", "--seed", "3"]
SCATTER = ["experiment", "scatter", "--record-length", "100", "--allow-any-n",
           "--shots-list", "30", "--estimators", "aml", "--seed", "1",
           "--phase-policy", "cell", "--cell", "10"]
CRB = ["crb", "--qubits", "5,6", "--windows", "rect,cosine,bartlett", "--shots-list", "1,10"]

CASES = {
    "experiment-rmse-vs-shots-csv": RMSE + ["--format", "csv"],
    "experiment-rmse-vs-shots-json": RMSE + ["--format", "json"],
    "experiment-rmse-vs-n-json": ["experiment", "rmse-vs-n", "--qubits", "4,5",
                                 "--shots-list", "12", "--estimators", "df,mean-rect",
                                 "--trials", "30", "--seed", "8", "--format", "json"],
    "experiment-crb-curve-csv": ["experiment", "crb-curve", "--qubits", "5",
                                 "--shots-list", "1,4", "--windows", "cosine,rect"],
    "experiment-scatter-cell-units-csv": SCATTER + ["--trials", "25", "--cell-units"],
    "experiment-scatter-cell-units-json": SCATTER + ["--trials", "25", "--cell-units",
                                                     "--format", "json"],
    "experiment-scatter-empty-json": SCATTER + ["--trials", "0", "--format", "json"],
    "crb-csv": CRB + ["--format", "csv"],
    "crb-json": CRB + ["--format", "json"],
    "window-json": ["window", "--qubits", "4", "--window", "cosine", "--format", "json"],
    "window-csv": ["window", "--qubits", "4", "--window", "bartlett"],
    "dist-json": ["dist", "--qubits", "4", "--window", "bartlett", "--phase-frac", "0.3",
                  "--offset-half-cell", "--format", "json"],
    "dist-csv": ["dist", "--qubits", "4", "--window", "cosine", "--phase-rad", "1.25"],
    "sample-json": SAMPLE + ["--seed", "4", "--format", "json"],
    "sample-csv": SAMPLE + ["--seed", "4", "--format", "csv"],
    "estimate-df": ["estimate", "--estimator", "df", "--input", "{set1}", "--input", "{set2}"],
    "estimate-aml": ["estimate", "--estimator", "aml", "--input", "{set2}"],
    "estimate-mean": ["estimate", "--estimator", "mean", "--input", "{set1}"],
}

DIGESTS = {
    "crb-csv":
        "f68a8fe8b92102840061cf49e75c0a08e28d78943e80e6743b41ccb2fcef33a8",
    "crb-json":
        "fd5fe1eb0978c649c98b85ad31772f92ebc972edead7b54817d7b4a99cc517a0",
    "dist-csv":
        "eef89ae8a32df125ed2ea727ef14eb37f8949b99c6610dd0b1bfd96146015147",
    "dist-json":
        "a7d009dd0fa5b1ac75d450d1d2114cb0b9e494744bdd3130a77f4f8752895b0b",
    "estimate-aml":
        "bd352d322c37156c46e8ec9247de5c2ca5ea285aa5c053d2b3d880b9417cfd15",
    "estimate-df":
        "2f90a0cb89a33522c156a1f6fae0def72c81b76665ee4f21bc1b27938184f388",
    "estimate-mean":
        "bdc9aaf3afd7eb9d6347ddecfaec2e052945f1d9afedc6b5c589c27ca02ac676",
    "experiment-crb-curve-csv":
        "f3dafccd4bee65e834d11e16fbbd36778020fe5f826c40ee839717adf7a2483f",
    "experiment-rmse-vs-n-json":
        "50dde8dd4bce5f66865dd52c793fdafd903858a8ee6282b6b2e085505054f6cf",
    "experiment-rmse-vs-shots-csv":
        "440f3ccd3dd6c6e8e48ef8220c18ef5dfe19cf57d9671c4f9915d65636a05fc0",
    "experiment-rmse-vs-shots-json":
        "33f63f65a37d845302a7f24204dea18fb4ab31e02cb687693c4ccc3630610b4e",
    "experiment-scatter-cell-units-csv":
        "f0013b05ab535dc0aa4edb35e8e9d9d127887439e3e203f71ecd5cd41cfc38ff",
    "experiment-scatter-cell-units-json":
        "03187e1246a63c95af429389204cc22dc54eb4a6a2260039becb3d37d12adb0e",
    "experiment-scatter-empty-json":
        "84f1dfafef963f84a3df9ac671f3281d705f3e0ab1b52a3a5f7f2cdf22667cf2",
    "sample-csv":
        "0880286a7652f8d0b6837a529e2c16f3793c056aa4f59b2df626c040ef716a6f",
    "sample-json":
        "fb99a4d6bbcca1681b4e092cd2a9e956a9ec9fe6f5b151cbdadc38e3776dff70",
    "window-csv":
        "e0822578720a3aba018a02485ff21db686c73d21cfb27825eddbd80151a8b93f",
    "window-json":
        "3d4ee88107e36f91247009df04c18ffc9a69375ee178596c1aba3151471cc6e5",
}


@pytest.fixture
def sets(tmp_path):
    paths = {"set1": tmp_path / "set1.json", "set2": tmp_path / "set2.json"}
    assert dispatch(SAMPLE + ["--seed", "5", "--output", str(paths["set1"])]) == 0
    assert dispatch(SAMPLE + ["--seed", "6", "--offset-half-cell",
                              "--output", str(paths["set2"])]) == 0
    return {k: str(v) for k, v in paths.items()}


def _digest(data: bytes) -> str:
    return hashlib.sha256(data).hexdigest()


@pytest.mark.parametrize("name", sorted(CASES))
def test_output_bytes_match_recorded_digest(name, sets, tmp_path, capsys):
    argv = [arg.format(**sets) for arg in CASES[name]]
    out = tmp_path / "out"
    assert dispatch(argv + ["--output", str(out)]) == 0
    assert _digest(out.read_bytes()) == DIGESTS[name]
    capsys.readouterr()
    assert dispatch(argv) == 0
    assert capsys.readouterr().out.encode("utf-8") == out.read_bytes()


def test_empty_scatter_csv_is_the_header_alone(capsys):
    assert dispatch(SCATTER + ["--trials", "0"]) == 0
    assert capsys.readouterr().out == "true_phase,signed_error\n"


def test_plot_bundle_matches_recorded_digest(tmp_path):
    assert dispatch(["experiment", "--plot-data", "--qubits", "7", "--seed", "42",
                     "--trials", "200", "--out-dir", str(tmp_path)]) == 0
    h = hashlib.sha256()
    for name in BUNDLE_FILES:
        h.update(name.encode("ascii") + b"\n")
        h.update(Path(tmp_path, name).read_bytes())
    assert h.hexdigest() == BUNDLE_DIGEST
