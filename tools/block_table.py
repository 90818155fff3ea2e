"""Print the trial-block table: rows, traced peak and charge per block shape.

    python3 tools/block_table.py

For each shape of the benchmark's cells and of the block-budget gate
(tests/test_experiments.py, _BUDGET_SHAPES), one line gives the rows
experiments._block_rows puts in a block, one warm block's tracemalloc peak
per row, the charge experiments._row_words puts on a row, and the peak as a
share of checks.BLOCK_BYTES.  The peak is measured as the gate measures it,
by its own _block_peak (seed 5).  A stage charge in _row_words is fitted
from this table; the gate asks for at most 1.25 BLOCK_BYTES, and the
benchmark's shapes for at least half of it.  Writes no file.
"""

from __future__ import annotations

import sys
from pathlib import Path

ROOT = Path(__file__).resolve().parents[1]
sys.path[:0] = [str(ROOT / "src"), str(ROOT / "tests")]

from phasekit.checks import BLOCK_BYTES  # noqa: E402
from phasekit.experiments import _row_words  # noqa: E402
from test_experiments import _BUDGET_SHAPES, _block_peak  # noqa: E402

# The cells of perfbench's workloads whose record length is a power of two:
# df-cell, taper-bounds, and cli-figures' fig5 and fig6 (its fig4 and fig7
# scatter at N=100, which the gate's spec would refuse).
BENCHMARK_SHAPES = [("df", 128, 30, "uniform"), ("mean-cosine", 1024, 1000, "uniform"),
                    ("mean-bartlett", 1024, 1000, "uniform")] + [
    ("df", 128, n_shots, "uniform") for n_shots in (2, 4, 8, 16, 50, 70, 100)] + [
    (estimator, n, 30, "uniform") for estimator in ("df", "aml", "mean-cosine", "mean-rect")
    for n in (64, 128, 256, 512, 1024)]


def main() -> int:
    print(f"{'shape':34} {'rows':>5} {'peak/row, B':>12} {'charge, B':>10} {'peak/budget':>11}")
    for title, shapes in (("benchmark", BENCHMARK_SHAPES), ("gate", _BUDGET_SHAPES)):
        print(f"-- {title}")
        for estimator, n, n_shots, policy in dict.fromkeys(shapes):
            rows, peak = _block_peak(estimator, n, n_shots, policy)
            shape = f"{estimator}, N={n}, N_s={n_shots}" + (f", {policy}" if policy != "uniform"
                                                             else "")
            print(f"{shape:34} {rows:5d} {peak / rows:12.0f} "
                  f"{8 * _row_words(n, n_shots, estimator):10.0f} {peak / BLOCK_BYTES:11.2f}")
    return 0


if __name__ == "__main__":
    sys.exit(main())
