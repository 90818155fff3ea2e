"""Weight vectors applied to the time-domain amplitudes before readout.

A window is a unit-norm real vector of length N.  The flat (rectangular)
window reproduces plain readout statistics; tapered windows trade mainlobe
width against sidelobe level, which is what reshapes the outcome
distribution of off-grid phases.
"""

from __future__ import annotations

from dataclasses import dataclass

import numpy as np

NORM_TOL = 1e-12

WINDOW_KINDS = ("rect", "cosine", "bartlett", "custom")


@dataclass(frozen=True, eq=False)
class WindowVector:
    """Unit-norm real weight vector of length n_points."""

    n_points: int
    weights: np.ndarray
    kind: str = "custom"

    def __post_init__(self):
        w = np.asarray(self.weights, dtype=np.float64)
        if w.ndim != 1 or w.shape[0] != self.n_points:
            raise ValueError(f"weights must be a vector of length {self.n_points}")
        if self.n_points < 2:
            raise ValueError("record length must be at least 2")
        if not np.all(np.isfinite(w)):
            raise ValueError("window weights must be finite")
        norm = float(np.linalg.norm(w))
        if abs(norm - 1.0) > NORM_TOL:
            raise ValueError(f"window is not unit-norm: ||w|| = {norm!r}")
        w.setflags(write=False)
        object.__setattr__(self, "weights", w)


def make_rectangular(n_points: int) -> WindowVector:
    """Flat window, every weight 1/sqrt(N)."""
    _check_length(n_points)
    w = np.full(n_points, 1.0 / np.sqrt(n_points))
    return WindowVector(n_points, w, kind="rect")


def make_cosine(n_points: int) -> WindowVector:
    """Half-sine taper: weight_y = sqrt(2/N) * sin(pi*y/N), y = 0..N-1.

    The first weight is exactly zero under this indexing; the vector is
    unit-norm because sum_y sin^2(pi*y/N) = N/2.
    """
    _check_length(n_points)
    y = np.arange(n_points)
    w = np.sqrt(2.0 / n_points) * np.sin(np.pi * y / n_points)
    return WindowVector(n_points, w, kind="cosine")


def make_bartlett(n_points: int) -> WindowVector:
    """Triangular taper with zero endpoints, L2-normalized.

    Undefined at n_points = 2, where both endpoints are zero and nothing
    is left to normalize.
    """
    _check_length(n_points)
    if n_points == 2:
        raise ValueError("triangular window is degenerate at n_points=2")
    y = np.arange(n_points)
    half = (n_points - 1) / 2.0
    w = 1.0 - np.abs(y - half) / half
    return WindowVector(n_points, _normalized(w), kind="bartlett")


def make_custom(weights) -> WindowVector:
    """Arbitrary real weights, rescaled to unit L2 norm."""
    w = np.asarray(weights, dtype=np.float64)
    if w.ndim != 1 or w.shape[0] < 2:
        raise ValueError("custom window needs at least 2 weights")
    if not np.all(np.isfinite(w)):
        raise ValueError("window weights must be finite")
    return WindowVector(w.shape[0], _normalized(w), kind="custom")


def make_window(kind: str, n_points: int | None = None, weights=None) -> WindowVector:
    """Construct a window by string identifier.

    "rect" | "cosine" | "bartlett" need n_points; "custom" needs weights.
    """
    if kind == "custom":
        if weights is None:
            raise ValueError("custom window requires explicit weights")
        return make_custom(weights)
    if n_points is None:
        raise ValueError(f"window kind {kind!r} requires n_points")
    if kind == "rect":
        return make_rectangular(n_points)
    if kind == "cosine":
        return make_cosine(n_points)
    if kind == "bartlett":
        return make_bartlett(n_points)
    raise ValueError(f"unknown window kind {kind!r}; expected one of {WINDOW_KINDS}")


def _normalized(w: np.ndarray) -> np.ndarray:
    # Finite weights can still overflow the sum of squares; say so instead of
    # letting numpy warn and then dividing by infinity.
    with np.errstate(over="ignore"):
        norm = np.linalg.norm(w)
    if not np.isfinite(norm):
        raise ValueError("window weights are too large to normalize: their norm overflows")
    if norm == 0.0:
        raise ValueError("window weights must not all be zero")
    return w / norm


def _check_length(n_points: int):
    if int(n_points) != n_points or n_points < 2:
        raise ValueError("record length must be an integer >= 2")
