"""Weight vectors applied to the time-domain amplitudes before readout.

A window is a unit-norm real vector of length N.  The flat (rectangular)
window reproduces plain readout statistics; tapered windows trade mainlobe
width against sidelobe level, which is what reshapes the outcome
distribution of off-grid phases.

Every record length is an integer in [2, checks.MAX_RECORD_LENGTH], stored
as a Python int, and a WindowVector keeps a read-only copy of its weights.
"""

from __future__ import annotations

from dataclasses import dataclass

import numpy as np

from .checks import MAX_RECORD_LENGTH, _check_count, _frozen

NORM_TOL = 1e-12

# Below this norm the sum of squares of the weights loses digits to underflow.
_RESCALE_BELOW = 2.0 ** -500


@dataclass(frozen=True, eq=False)
class WindowVector:
    """Unit-norm real weight vector of length n_points."""

    n_points: int
    weights: np.ndarray
    kind: str = "custom"

    def __post_init__(self):
        # A Python int, as JSON needs.
        n = _check_count(self.n_points, "record length", 2, MAX_RECORD_LENGTH)
        w = _frozen(self.weights, np.float64)
        if w.shape != (n,):
            raise ValueError(f"weights must be a vector of length {n}")
        if not np.all(np.isfinite(w)):
            raise ValueError("window weights must be finite")
        if not isinstance(self.kind, str) or self.kind not in WINDOW_KINDS:
            raise ValueError(f"unknown window kind {self.kind!r}; expected one of {WINDOW_KINDS}")
        # The one label a computation reads: distribution prices "rect" by the flat closed form.
        if self.kind == "rect" and not np.all(w == w[0]):
            raise ValueError("a rect window's weights must all be equal")
        with np.errstate(over="ignore"):
            norm = float(np.linalg.norm(w))
        if abs(norm - 1.0) > NORM_TOL:
            raise ValueError(f"window is not unit-norm: ||w|| = {norm!r}")
        object.__setattr__(self, "weights", w)
        object.__setattr__(self, "n_points", n)


def make_rectangular(n_points: int) -> WindowVector:
    """Flat window, every weight 1/sqrt(N)."""
    n_points = _check_count(n_points, "record length", 2, MAX_RECORD_LENGTH)
    w = np.full(n_points, 1.0 / np.sqrt(n_points))
    return WindowVector(n_points, w, kind="rect")


def make_cosine(n_points: int) -> WindowVector:
    """Half-sine taper: weight_y = sqrt(2/N) * sin(pi*y/N), y = 0..N-1.

    The first weight is exactly zero under this indexing; the vector is
    unit-norm because sum_y sin^2(pi*y/N) = N/2.
    """
    n_points = _check_count(n_points, "record length", 2, MAX_RECORD_LENGTH)
    y = np.arange(n_points)
    w = np.sqrt(2.0 / n_points) * np.sin(np.pi * y / n_points)
    return WindowVector(n_points, w, kind="cosine")


def make_bartlett(n_points: int) -> WindowVector:
    """Triangular taper with zero endpoints, L2-normalized.

    Undefined at n_points = 2, where both endpoints are zero and nothing
    is left to normalize.
    """
    n_points = _check_count(n_points, "record length", 2, MAX_RECORD_LENGTH)
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
    """The window of a kind: a built-in one needs n_points and takes no weights,
    "custom" needs weights, and an n_points given with them must be their count."""
    if kind == "custom":
        if weights is None:
            raise ValueError("custom window requires explicit weights")
        window = make_custom(weights)
        if n_points is not None and n_points != window.n_points:
            raise ValueError(f"n_points {n_points!r} differs from the {window.n_points} weights")
        return window
    if n_points is None:
        raise ValueError(f"window kind {kind!r} requires n_points")
    for name, maker in _MAKERS.items():
        if kind == name:
            if weights is not None:
                raise ValueError(f"window kind {kind!r} takes no weights")
            return maker(n_points)
    raise ValueError(f"unknown window kind {kind!r}; expected one of {WINDOW_KINDS}")


# The built-in windows, each kind's maker: the one list of their names.
_MAKERS = {"rect": make_rectangular, "cosine": make_cosine, "bartlett": make_bartlett}
BUILTIN_WINDOWS = tuple(_MAKERS)
WINDOW_KINDS = BUILTIN_WINDOWS + ("custom",)


def _normalized(w: np.ndarray) -> np.ndarray:
    # Finite weights can still overflow the sum of squares; say so instead of
    # letting numpy warn and then dividing by infinity.
    with np.errstate(over="ignore"):
        norm = np.linalg.norm(w)
    if not np.isfinite(norm):
        raise ValueError("window weights are too large to normalize: their norm overflows")
    if norm < _RESCALE_BELOW:
        # The squares underflow or go subnormal: divide by the largest weight first.
        largest = np.max(np.abs(w))
        if largest == 0.0:
            raise ValueError("window weights must not all be zero")
        w = w / largest
        norm = np.linalg.norm(w)
    return w / norm
