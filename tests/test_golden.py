"""Golden bytes of the Monte-Carlo harness.

The sha256 digests below are of `table_to_csv` output recorded from the
per-trial implementation of the harness (one generator, distribution,
sample and estimate per trial), before trials were batched into blocks.
The batched harness must reproduce them byte for byte.  The cases cover
every estimator, all three phase policies, odd shot counts, record lengths
that are not powers of two, trial counts that are not a multiple of the
block size, and one and two workers.

The scatter-long cases were recorded later, from the batched harness while
it still sized blocks for the AML grid of every estimator (115 rows at
N=64 and N_s=7), and the same bytes came out of 1-row and 461-row blocks.
They run over several blocks at a quarter of the current budget, and
test_cases_span_several_blocks checks their digests there as well.
"""

import hashlib

import numpy as np
import pytest

import phasekit.experiments
from phasekit.experiments import BLOCK_BYTES, ExperimentSpec, _block_rows, run_experiment
from phasekit.io import table_to_csv
from phasekit.rng import derive_seed, make_generator, stream_keys, uniform_rows

ESTIMATORS = ("df", "aml", "mean-rect", "mean-cosine", "mean-bartlett")


def _scatter(**kw):
    base = dict(kind="scatter", n_points=(64,), n_shots=(7,), trials=301, master_seed=3)
    base.update(kw)
    return base


CASES = {
    **{f"scatter-uniform-{est}": _scatter(estimators=(est,)) for est in ESTIMATORS},
    **{f"scatter-cell-{est}": _scatter(
        n_points=(100,), n_shots=(31,), estimators=(est,), trials=150, master_seed=9,
        phase_policy="cell", cell_index=10, allow_any_n=True)
       for est in ("df", "aml", "mean-cosine")},
    **{f"scatter-fixed-{est}": _scatter(
        n_points=(128,), n_shots=(30,), estimators=(est,), trials=40, master_seed=1,
        phase_policy="fixed", fixed_phases=(0.3, 1.7, 5.9))
       for est in ("df", "aml", "mean-bartlett")},
    **{f"scatter-long-{est}": _scatter(estimators=(est,), trials=1001)
       for est in ("df", "mean-cosine")},
    "rmse-vs-shots-all": dict(
        kind="rmse-vs-shots", n_points=(64,), n_shots=(3, 9, 16), estimators=ESTIMATORS,
        trials=257, master_seed=11),
    "rmse-vs-n-any-n": dict(
        kind="rmse-vs-n", n_points=(32, 100), n_shots=(30,), estimators=("df", "aml"),
        trials=90, master_seed=4, allow_any_n=True),
}

DIGESTS = {
    "rmse-vs-n-any-n":
        "a1c376131953d2bac4effa468a6a97e5854b3934ab73717bbfb9d12a3809f5c5",
    "rmse-vs-shots-all":
        "b3b2f31284f6ed2166b772a84a9076769eaab4467349558aa99af8b01dca6095",
    "scatter-cell-aml":
        "58b5555169edc4346e0eb345a42416b6dc51a1160af5095d557dd52a3f110e56",
    "scatter-cell-df":
        "5016e93c3a6601d80b819ff1e9255b3f12dc2f19b909f74e41f2d503acbf8efd",
    "scatter-cell-mean-cosine":
        "57e5a244309f0b5b7af51a356030e8b267e681094152dd7d0c924d5c287417e1",
    "scatter-long-df":
        "cb7d7473d4d17ca59eedbd3f7f3bbb2256ac6ccdf365395c0e6aef4c28a93830",
    "scatter-long-mean-cosine":
        "09024df923a28786242c9556588dceff2218ac4722f899acfea9a258b202e2d0",
    "scatter-fixed-aml":
        "b6939d8332bc4b04f41fccacd1ff86910399f53ceaaf0cd0575a7d9b4eb62ba6",
    "scatter-fixed-df":
        "608e26f6adcb14cdcb69ae5e0ca7421028355fa0031497e37eba5f56b0c4a4b7",
    "scatter-fixed-mean-bartlett":
        "d0f7cb59330a07518a3bfb39f5d8bd5ac7e39a6ee0da9646f1877ff38015e3e3",
    "scatter-uniform-aml":
        "c88e9bbbd467216c5c8efdc6da81f41a65ba070ebe1caf9a608149658ae16440",
    "scatter-uniform-df":
        "1b5141273eceaef06680a6b4152e85788f3235f5239d47274f398008374f0a90",
    "scatter-uniform-mean-bartlett":
        "bf020b2d22fb935a3604056b7cb673becf5c8916b9ea235f01b168a8f02b9260",
    "scatter-uniform-mean-cosine":
        "726440f8de1a8b9fdc2d9fa791964ccf829759cb1c97f2c8cf2b28da020852d2",
    "scatter-uniform-mean-rect":
        "858a53eca11e552eecc6ac23f42e21809ec61c5634d1c0543cdea5f0066ca910",
}


@pytest.mark.parametrize("name", sorted(CASES))
@pytest.mark.parametrize("n_jobs", (1, 2))
def test_table_bytes_match_recorded_digest(name, n_jobs):
    spec = ExperimentSpec(**CASES[name], n_jobs=n_jobs)
    text = table_to_csv(run_experiment(spec))
    assert hashlib.sha256(text.encode("utf-8")).hexdigest() == DIGESTS[name]


def test_cases_span_several_blocks(monkeypatch):
    """At BLOCK_BYTES the long cases fit in two blocks (759 rows each); at a
    quarter of it they span five full blocks and a partial one, and their
    digests hold there too, since no byte depends on the block size."""
    monkeypatch.setattr(phasekit.experiments, "BLOCK_BYTES", BLOCK_BYTES // 4)
    for name in ("scatter-long-df", "scatter-long-mean-cosine"):
        spec = CASES[name]
        rows = _block_rows(spec["n_points"][0], spec["n_shots"][0], spec["estimators"][0])
        assert spec["trials"] > 2 * rows and spec["trials"] % rows != 0
        text = table_to_csv(run_experiment(ExperimentSpec(**spec)))
        assert hashlib.sha256(text.encode("utf-8")).hexdigest() == DIGESTS[name]


@pytest.mark.parametrize("estimator", ("df", "aml", "mean-cosine"))
def test_tables_do_not_depend_on_the_block_size(estimator, monkeypatch):
    spec = ExperimentSpec(**_scatter(estimators=(estimator,), trials=1001))
    tables = []
    for budget in (1, BLOCK_BYTES, 4 * BLOCK_BYTES):  # 1 byte: one trial per block
        monkeypatch.setattr(phasekit.experiments, "BLOCK_BYTES", budget)
        tables.append(table_to_csv(run_experiment(spec)))
    assert tables[0] == tables[1] == tables[2]


@pytest.mark.parametrize("estimator, n_shots", [
    ("df", 7), ("aml", 7), ("mean-cosine", 7), ("mean-bartlett", 100)])
def test_chunks_that_split_blocks_keep_the_bytes(estimator, n_shots, monkeypatch):
    """Each chunk of BLOCK_BYTES // 256 trials is seeded once, and its blocks
    take their slices of it.  A chunk of 97 trials ends on a short block,
    and the bytes stay those of one trial per block and chunk."""
    spec = ExperimentSpec(**_scatter(estimators=(estimator,), n_shots=(n_shots,)))
    monkeypatch.setattr(phasekit.experiments, "BLOCK_BYTES", 1)
    one_per_block = table_to_csv(run_experiment(spec))
    monkeypatch.setattr(phasekit.experiments, "BLOCK_BYTES", 256 * 97)
    step = _block_rows(64, n_shots, estimator)
    assert step > 1 and 97 % step and spec.trials > 3 * 97
    assert table_to_csv(run_experiment(spec)) == one_per_block


@pytest.mark.parametrize("seed", (0, 1, 7, 2**63 + 5, 2**64 - 1))
def test_uniform_rows_equal_generator_draws(seed):
    seeds = np.array([seed, seed ^ 1, 12345], dtype=np.uint64)
    rows = uniform_rows(stream_keys(seeds), 1001)
    for row, s in zip(rows, seeds.tolist()):
        assert np.array_equal(row, make_generator(s).random(1001))


def test_seed_blocks_equal_scalar_derivation():
    index = np.arange(40, 140)
    block = derive_seed(7, "rmse-vs-shots", "df", 128, 30, index)
    assert block.dtype == np.uint64
    assert block.tolist() == [derive_seed(7, "rmse-vs-shots", "df", 128, 30, i)
                              for i in index.tolist()]
