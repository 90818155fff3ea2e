"""Fisher information of the phase for any window, and Cramer-Rao bounds.

With s_y = sum_n alpha_n * exp(-j*n*theta_y) and theta_y = phi - 2*pi*y/N,
the single-shot likelihood is f(y) = |s_y|^2 / N and its phase derivative
is (2/N) * Im(conj(s_y) * v_y) with v_y = sum_n n * alpha_n * exp(-j*n*theta_y).
Summing (df/dphi)^2 / f over outcomes gives

    FI(phi) = (4/N) * sum_y Im^2(conj(s_y) * v_y) / |s_y|^2

which is the rank-1 reduction of the commutator form; no N x N matrices
are materialized.  Independent shots add, so the bound for N_s shots is
1 / (N_s * FI(phi)).

One kernel, _fisher, serves every caller: the scalar fisher_information,
the grid and each price.  It takes windows of one record length and runs
the phases in blocks of B = max(1, FI_BLOCK_ELEMENTS // N) phases, where
FI_BLOCK_ELEMENTS = checks.BLOCK_BYTES // 128 = 2^14 (phase, outcome)
elements: 2^14 elements at a power-of-two N up to 2^14, one phase beyond.
A block's tracemalloc peak is 82-100 bytes per element, 1.3-1.6 MB (a cold
pricing of rect, cosine and bartlett at N = 64-4096), under the budget.
Two buffers, allocated once per call, serve every block and window, in
this order:
  - the (B, N) phase ramp exp(-j*phi_i*n), which does not depend on the
    window, is written once per block;
  - each window writes c = weights * ramp into the first B rows of a
    (2B, N) buffer and idx * c into the last B; one row-wise length-N
    inverse FFT over the 2B rows turns them into s and v in place, and N
    times the result is written in place;
  - |s|^2 and the kept outcomes are read from s, then conj(s) is written
    over s and conj(s) * v over v.
A one-row inverse FFT at N = 4096 takes about 80 us, against 42-50 us
per row in calls of 2-8 rows (23 against 11-15 us at N = 1024): batching
removes that per-call cost and nothing else.  It keeps the bytes: a
batched FFT transforms each row as a one-row call does, every other step
is the ufunc of the per-phase expression with its operands in the same
order, and idx is complex from the start, with the values that an
integer idx is cast to in idx * c.  Each phase is then one pairwise
summation over its kept outcomes in order, so a grid of several windows,
the grid of one window and the scalar fisher_information, its one-row
case, all give the bytes of a per-phase computation, whatever B is.

fisher owns the CRB price: _price, the one reduction of a window's FI grid
to a one-shot price, serves avg_sqrt_crb and one_shot_prices, the process's
one price table; N_s shots divide the price by sqrt(N_s) everywhere.
"""

from __future__ import annotations

import numpy as np

from .angles import TWO_PI
from .checks import BLOCK_BYTES, MAX_SHOTS, _bounded_phase, _check_count
from .windows import WindowVector, make_window

# Outcomes with |s_y|^2 / N below this are skipped.  They are not worthless:
# near a simple zero of the amplitude (df/dphi)^2 / f stays finite, so the
# skip undercounts FI, by up to 2.9e-6 relative (Bartlett, N=128, G=256).
NEGLIGIBLE_PROB = 1e-14

# Phases where FI falls below this are reported as unbounded / excluded.
FI_FLOOR = 1e-12

DEFAULT_PHASE_GRID = 256

# Largest phase grid of one price; a grid of G phases allocates G floats per
# window, and the grid is computed whole.
MAX_PHASE_GRID = 2 ** 16

# (phase, outcome) elements of one block of phases: the one budget at 128
# bytes per element, above the measured peak of about 100; see the docstring.
FI_BLOCK_ELEMENTS = BLOCK_BYTES // 128

# one_shot_prices' one-shot price of each (window_id, N, grid_size); none is evicted.
_PRICES: dict[tuple[str, int, int], float] = {}


def fisher_information(window: WindowVector, phase: float) -> float:
    """Single-shot Fisher information of the phase under the given window."""
    phase = _bounded_phase(phase, "phase")
    return float(_fisher([window], np.array([phase]))[0, 0])


def crb(window: WindowVector, phase: float, n_shots: int) -> float:
    """Cramer-Rao bound 1/(N_s * FI) on the phase MSE; inf when FI degenerates."""
    n_shots = _check_count(n_shots, "n_shots", 1, MAX_SHOTS)
    fi = fisher_information(window, phase)
    if fi < FI_FLOOR:
        return float("inf")
    return 1.0 / (n_shots * fi)


def avg_sqrt_crb(
    window: WindowVector,
    n_shots: int,
    phase_grid_size: int = DEFAULT_PHASE_GRID,
) -> float:
    """Root of the CRB averaged over mid-grid phases, never on-grid.

    FI is exactly periodic under phi -> phi + 2*pi/N (cyclic outcome
    relabeling), so the uniform-phase average equals the average over one
    resolution cell; the G points sit at cell fractions (i + 0.5)/G and
    therefore never touch the register grid, where the flat window's FI
    collapses to zero.  Points with FI below FI_FLOOR are excluded; more
    than 10% exclusions is an error.
    """
    phase_grid_size = _check_count(phase_grid_size, "phase_grid_size", 16, MAX_PHASE_GRID)
    n_shots = _check_count(n_shots, "n_shots", 1, MAX_SHOTS)
    price = _price(_fisher([window], _cell_phases(window.n_points, phase_grid_size))[0])
    return float(price / np.sqrt(n_shots))


def one_shot_prices(window_ids, n: int, grid_size: int) -> dict[str, float]:
    """{window_id: avg_sqrt_crb(make_window(window_id, n), 1, grid_size)}.  The windows
    not yet in _PRICES are priced in first-use order by one _fisher call, and kept; a
    pricing that raises keeps nothing."""
    keys = {window_id: (window_id, n, grid_size) for window_id in window_ids}
    missing = [key for key in keys.values() if key not in _PRICES]
    if missing:
        windows = [make_window(window_id, n) for window_id, _, _ in missing]
        grids = _fisher(windows, _cell_phases(n, grid_size))
        _PRICES.update(zip(missing, [_price(fis) for fis in grids]))
    return {window_id: _PRICES[key] for window_id, key in keys.items()}


def _price(fis: np.ndarray) -> float:
    """Root of the mean one-shot CRB over one window's FI grid, FI below FI_FLOOR excluded."""
    kept = fis[fis >= FI_FLOOR]
    excluded = fis.size - kept.size
    if excluded > 0.1 * fis.size:
        raise ValueError(f"{excluded} of {fis.size} grid phases have degenerate FI")
    return float(np.sqrt(np.mean(1.0 / kept)))


def fisher_information_grid(window: WindowVector, grid_size: int = DEFAULT_PHASE_GRID) -> np.ndarray:
    """FI at the in-cell phases (2*pi/N)*(i + 0.5)/G, i = 0..G-1.

    One cell suffices because FI has period 2*pi/N in the phase.
    """
    grid_size = _check_count(grid_size, "grid_size", 16, MAX_PHASE_GRID)
    return _fisher([window], _cell_phases(window.n_points, grid_size))[0]


def _cell_phases(n: int, grid_size: int) -> np.ndarray:
    """The G in-cell phases (2*pi/N)*(i + 0.5)/G of a price or grid."""
    return TWO_PI / n * (np.arange(grid_size) + 0.5) / grid_size


def _fisher(windows: list[WindowVector], phases: np.ndarray) -> np.ndarray:
    """(W, P) FI of each window, all of one record length, at each phase."""
    n = windows[0].n_points
    idx = np.arange(n).astype(complex)  # what int idx * c casts idx to
    step = max(1, min(len(phases), FI_BLOCK_ELEMENTS // n))
    ramps, svs = np.empty((step, n), complex), np.empty((2 * step, n), complex)
    fis = np.empty((len(windows), len(phases)))
    for lo in range(0, len(phases), step):
        b = min(step, len(phases) - lo)
        ramp = np.multiply((-1j * phases[lo:lo + b])[:, None], idx, out=ramps[:b])
        np.exp(ramp, out=ramp)
        rows = svs[:2 * b]
        s, v = rows[:b], rows[b:]
        for window, row in zip(windows, fis[:, lo:lo + b]):
            np.multiply(window.weights, ramp, out=s)  # c_n = alpha_n * e^{-j*n*phi}
            np.multiply(idx, s, out=v)
            # N * ifft(c)[y] = sum_n c_n * exp(+2j*pi*n*y/N), which is exactly
            # s_y = sum_n alpha_n * exp(-j*n*(phi - 2*pi*y/N)); likewise v_y.
            np.multiply(n, np.fft.ifft(rows, axis=1, out=rows), out=rows)
            f_scaled = np.abs(s) ** 2  # = N * f(y)
            keep = f_scaled / n >= NEGLIGIBLE_PROB
            imag = np.multiply(np.conj(s, out=s), v, out=v).imag
            terms = imag * imag / np.where(keep, f_scaled, 1.0)
            # One pairwise sum per phase over its kept outcomes, in order (a
            # phase that keeps nothing sums to 0.0).
            for i in range(len(row)):
                row[i] = np.add.reduce(terms[i][keep[i]])
            row *= 4.0 / n
    return fis
