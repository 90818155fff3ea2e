"""Fisher information of the phase for any window, and Cramer-Rao bounds.

With s_y = sum_n alpha_n * exp(-j*n*theta_y) and theta_y = phi - 2*pi*y/N,
the single-shot likelihood is f(y) = |s_y|^2 / N and its phase derivative
is (2/N) * Im(conj(s_y) * v_y) with v_y = sum_n n * alpha_n * exp(-j*n*theta_y).
Summing (df/dphi)^2 / f over outcomes gives

    FI(phi) = (4/N) * sum_y Im^2(conj(s_y) * v_y) / |s_y|^2

which is the rank-1 reduction of the commutator form; no N x N matrices
are materialized.  Independent shots add, so the bound for N_s shots is
1 / (N_s * FI(phi)).

FI is computed for a block of phases at a time: row-wise length-N inverse
FFTs of a (B, N) block, with B = max(1, FI_BLOCK_ELEMENTS // N), so the
block's complex temporaries stay near 64 KiB each whatever the grid size
(larger blocks cost resident memory and buy no speed).  The block's phase
ramp exp(-j*phi_i*n) does not depend on the window, so it is computed
once per block and shared by every window of that record length priced
in the same call; each window multiplies it by its weights exactly as a
call of its own would.  Rows that keep every outcome are summed whole,
one np.sum along the rows; a row that drops some outcomes is summed over
its kept ones alone.  Either way each row is one pairwise summation over
its kept outcomes in order, so a grid of several windows, the grid of
one window and the scalar fisher_information, its one-row case, all give
the bytes of a per-phase computation.
"""

from __future__ import annotations

import numpy as np

from .angles import TWO_PI
from .checks import MAX_SHOTS, _check_count, _finite_float
from .windows import WindowVector

# Outcomes with |s_y|^2 / N below this contribute nothing in the limit and
# are skipped (both numerator and denominator vanish there).
NEGLIGIBLE_PROB = 1e-14

# Phases where FI falls below this are reported as unbounded / excluded.
FI_FLOOR = 1e-12

DEFAULT_PHASE_GRID = 256

# Largest phase grid of one price; a grid of G phases allocates G floats per
# window, and the grid is computed whole.
MAX_PHASE_GRID = 2 ** 16

# Elements of one (B, N) block of phases; see the module docstring.
FI_BLOCK_ELEMENTS = 1 << 12


def fisher_information(window: WindowVector, phase: float) -> float:
    """Single-shot Fisher information of the phase under the given window."""
    phase = _finite_float(phase, "phase")
    return float(_fisher_rows([window.weights], np.array([phase]))[0, 0])


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
    return _avg_sqrt_crbs([window], n_shots, phase_grid_size)[0]


def _avg_sqrt_crbs(windows: list[WindowVector], n_shots: int,
                   phase_grid_size: int) -> list[float]:
    """avg_sqrt_crb of each window, all of one record length, from one shared grid."""
    phase_grid_size = _check_count(phase_grid_size, "phase_grid_size", 16, MAX_PHASE_GRID)
    n_shots = _check_count(n_shots, "n_shots", 1, MAX_SHOTS)
    prices = []
    for fis in _fisher_grids(windows, phase_grid_size):
        kept = fis[fis >= FI_FLOOR]
        excluded = fis.size - kept.size
        if excluded > 0.1 * fis.size:
            raise ValueError(f"{excluded} of {fis.size} grid phases have degenerate FI")
        prices.append(float(np.sqrt(np.mean(1.0 / (n_shots * kept)))))
    return prices


def fisher_information_grid(window: WindowVector, grid_size: int = DEFAULT_PHASE_GRID) -> np.ndarray:
    """FI at the in-cell phases (2*pi/N)*(i + 0.5)/G, i = 0..G-1.

    One cell suffices because FI has period 2*pi/N in the phase.
    """
    grid_size = _check_count(grid_size, "grid_size", 16, MAX_PHASE_GRID)
    return _fisher_grids([window], grid_size)[0]


def _fisher_grids(windows: list[WindowVector], grid_size: int) -> np.ndarray:
    """(W, G) fisher_information_grid of W windows that share one record length."""
    lengths = {window.n_points for window in windows}
    if len(lengths) > 1:
        raise ValueError(f"windows differ in record length: {sorted(lengths)}")
    grids = np.empty((len(windows), grid_size))
    (n,) = lengths
    phases = TWO_PI / n * (np.arange(grid_size) + 0.5) / grid_size
    step = max(1, FI_BLOCK_ELEMENTS // n)
    weights = [window.weights for window in windows]
    for lo in range(0, grid_size, step):
        grids[:, lo:lo + step] = _fisher_rows(weights, phases[lo:lo + step])
    return grids


def _fisher_rows(weights: list[np.ndarray], phases: np.ndarray) -> np.ndarray:
    """(W, B) FI of each weight vector at each phase, from one shared phase ramp."""
    n = weights[0].shape[0]
    idx = np.arange(n)
    ramp = np.exp((-1j * phases)[:, None] * idx)
    return np.array([_fisher_of_ramp(alpha * ramp, idx) for alpha in weights])


def _fisher_of_ramp(ramp: np.ndarray, idx: np.ndarray) -> np.ndarray:
    """FI of each (B, N) row c_n = alpha_n * e^{-j*n*phi}, from s_y and v_y of every outcome."""
    n = ramp.shape[1]
    # N * ifft(c)[y] = sum_n c_n * exp(+2j*pi*n*y/N), so with c_n = alpha_n * e^{-j*n*phi}
    # this is exactly sum_n alpha_n * exp(-j*n*(phi - 2*pi*y/N)).
    s = n * np.fft.ifft(ramp, axis=1)
    v = n * np.fft.ifft(idx * ramp, axis=1)
    f_scaled = np.abs(s) ** 2  # = N * f(y)
    keep = f_scaled / n >= NEGLIGIBLE_PROB
    imag = np.imag(np.conj(s) * v)
    terms = imag * imag / np.where(keep, f_scaled, 1.0)
    # One pairwise sum per row over its kept outcomes, in order, as for a
    # single phase: whole rows in one call, the others one masked row at a
    # time (a row that keeps nothing sums to 0.0).
    full = keep.all(axis=1)
    sums = np.empty(len(terms))
    sums[full] = np.sum(terms[full], axis=1)
    for i in np.flatnonzero(~full):
        sums[i] = np.sum(terms[i][keep[i]])
    return 4.0 / n * sums
