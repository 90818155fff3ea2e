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
(larger blocks cost resident memory and buy no speed).  Each row's
masked sum stays a separate np.sum over that row's kept outcomes, which
keeps numpy's pairwise summation order: the grid and the scalar
fisher_information, its one-row case, give the bytes of a per-phase
computation.
"""

from __future__ import annotations

import numpy as np

from .angles import TWO_PI
from .windows import WindowVector

# Outcomes with |s_y|^2 / N below this contribute nothing in the limit and
# are skipped (both numerator and denominator vanish there).
NEGLIGIBLE_PROB = 1e-14

# Phases where FI falls below this are reported as unbounded / excluded.
FI_FLOOR = 1e-12

DEFAULT_PHASE_GRID = 256

# Elements of one (B, N) block of phases; see the module docstring.
FI_BLOCK_ELEMENTS = 1 << 12


def fisher_information(window: WindowVector, phase: float) -> float:
    """Single-shot Fisher information of the phase under the given window."""
    if not np.isfinite(phase):
        raise ValueError("phase must be finite")
    return float(_fisher_rows(window.weights, np.array([phase]))[0])


def crb(window: WindowVector, phase: float, n_shots: int) -> float:
    """Cramer-Rao bound 1/(N_s * FI) on the phase MSE; inf when FI degenerates."""
    if n_shots < 1:
        raise ValueError("n_shots must be >= 1")
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
    if phase_grid_size < 16:
        raise ValueError("phase_grid_size must be >= 16")
    if n_shots < 1:
        raise ValueError("n_shots must be >= 1")
    fis = fisher_information_grid(window, phase_grid_size)
    kept = fis[fis >= FI_FLOOR]
    excluded = fis.size - kept.size
    if excluded > 0.1 * fis.size:
        raise ValueError(f"{excluded} of {fis.size} grid phases have degenerate FI")
    return float(np.sqrt(np.mean(1.0 / (n_shots * kept))))


def fisher_information_grid(window: WindowVector, grid_size: int = DEFAULT_PHASE_GRID) -> np.ndarray:
    """FI at the in-cell phases (2*pi/N)*(i + 0.5)/G, i = 0..G-1.

    One cell suffices because FI has period 2*pi/N in the phase.
    """
    cell = TWO_PI / window.n_points
    phases = cell * (np.arange(grid_size) + 0.5) / grid_size
    step = max(1, FI_BLOCK_ELEMENTS // window.n_points)
    return np.concatenate([_fisher_rows(window.weights, phases[lo:lo + step])
                           for lo in range(0, grid_size, step)])


def _fisher_rows(weights: np.ndarray, phases: np.ndarray) -> np.ndarray:
    """FI at each phase, from s_y and v_y of every outcome as (B, N) rows."""
    n = weights.shape[0]
    idx = np.arange(n)
    ramp = weights * np.exp((-1j * phases)[:, None] * idx)
    # N * ifft(c)[y] = sum_n c_n * exp(+2j*pi*n*y/N), so with c_n = alpha_n * e^{-j*n*phi}
    # this is exactly sum_n alpha_n * exp(-j*n*(phi - 2*pi*y/N)).
    s = n * np.fft.ifft(ramp, axis=1)
    v = n * np.fft.ifft(idx * ramp, axis=1)
    f_scaled = np.abs(s) ** 2  # = N * f(y)
    keep = f_scaled / n >= NEGLIGIBLE_PROB
    imag = np.imag(np.conj(s) * v)
    terms = imag * imag / np.where(keep, f_scaled, 1.0)
    # One sum per row over its kept outcomes: pairwise summation over the
    # same elements in the same order as for a single phase.
    return np.array([4.0 / n * np.sum(row[mask]) if mask.any() else 0.0
                     for row, mask in zip(terms, keep)])
