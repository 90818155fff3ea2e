import numpy as np
import pytest

from phasekit.angles import TWO_PI
from phasekit.fisher import (
    NEGLIGIBLE_PROB,
    avg_sqrt_crb,
    crb,
    fisher_information,
    fisher_information_grid,
)
from phasekit.model import distribution
from phasekit.windows import make_bartlett, make_cosine, make_custom, make_rectangular

# avg_sqrt_crb for the flat window at N=128, one shot, G=256: frozen from a
# finite-difference run of the likelihood derivative (independent oracle).
GOLDEN_AVG_SQRT_CRB_RECT_128 = 0.013532059917205552


def fd_fisher(window, phase, h=1e-6):
    """Finite-difference oracle: sum (df/dphi)^2 / f over outcomes."""
    fp = distribution(window, phase + h).probs
    fm = distribution(window, phase - h).probs
    f0 = distribution(window, phase).probs
    d = (fp - fm) / (2 * h)
    return float(np.sum(d * d / np.maximum(f0, 1e-300)))


def commutator_fisher(window, phase):
    """Explicit matrix form (1/N) sum |e^H [A, M] e|^2 / (e^H A e)."""
    n = window.n_points
    alpha = window.weights.astype(complex)
    a_mat = np.outer(alpha, alpha.conj())
    m_mat = np.diag(np.arange(n).astype(complex))
    comm = a_mat @ m_mat - m_mat @ a_mat
    total = 0.0
    for y in range(n):
        e = np.exp(1j * np.arange(n) * (phase - TWO_PI * y / n))
        denom = (e.conj() @ a_mat @ e).real
        if denom / n < 1e-14:
            continue
        total += abs(e.conj() @ comm @ e) ** 2 / denom
    return total / n


def test_fd_oracle_agreement():
    rng = np.random.default_rng(2)
    for n in (8, 16, 32):
        for window in (make_rectangular(n), make_cosine(n)):
            for _ in range(20):
                phi = rng.random() * TWO_PI
                fi = fisher_information(window, phi)
                ref = fd_fisher(window, phi)
                assert fi == pytest.approx(ref, rel=1e-5)


def test_fd_oracle_agreement_example():
    w = make_rectangular(16)
    phi = TWO_PI * 3.37 / 16
    assert fisher_information(w, phi) == pytest.approx(fd_fisher(w, phi), rel=1e-6)


def test_matches_commutator_form():
    rng = np.random.default_rng(5)
    for n in (8, 16, 32):
        for window in (make_rectangular(n), make_cosine(n)):
            phi = rng.random() * TWO_PI
            assert fisher_information(window, phi) == pytest.approx(
                commutator_fisher(window, phi), rel=1e-10
            )


def test_cell_shift_invariance():
    rng = np.random.default_rng(6)
    for window in (make_rectangular(32), make_cosine(32)):
        for _ in range(10):
            phi = rng.random() * TWO_PI
            a = fisher_information(window, phi)
            b = fisher_information(window, phi + TWO_PI / 32)
            assert abs(a - b) < 1e-9 * max(a, 1.0)


def test_fisher_nonnegative():
    rng = np.random.default_rng(7)
    for _ in range(50):
        w = make_cosine(int(rng.choice([8, 16, 64])))
        assert fisher_information(w, rng.random() * TWO_PI) >= 0.0


def test_crb_shot_scaling():
    w = make_rectangular(128)
    phi = TWO_PI * 3.37 / 128
    assert crb(w, phi, 2) == pytest.approx(crb(w, phi, 1) / 2, rel=1e-12)
    assert crb(w, phi, 1) / crb(w, phi, 100) == pytest.approx(100.0, rel=1e-12)


def test_crb_from_fd_oracle():
    w = make_rectangular(16)
    phi = TWO_PI * (5 + 0.41) / 16
    assert crb(w, phi, 30) == pytest.approx(1.0 / (30 * fd_fisher(w, phi)), rel=1e-5)


def test_crb_unbounded_on_grid():
    w = make_rectangular(16)
    assert crb(w, TWO_PI * 3 / 16, 10) == np.inf


def test_avg_sqrt_crb_golden():
    value = avg_sqrt_crb(make_rectangular(128), 1)
    assert value == pytest.approx(GOLDEN_AVG_SQRT_CRB_RECT_128, rel=1e-5)


def test_avg_sqrt_crb_shot_scaling():
    w = make_cosine(64)
    assert avg_sqrt_crb(w, 4 * 25) == pytest.approx(avg_sqrt_crb(w, 25) / 2, rel=1e-12)


def test_rect_below_cosine_at_128():
    for n_shots in (1, 10, 100):
        assert avg_sqrt_crb(make_rectangular(128), n_shots) < avg_sqrt_crb(
            make_cosine(128), n_shots
        )


def test_avg_sqrt_crb_rejects_degenerate_window():
    # all weight on the first amplitude: the outcome law does not depend on
    # the phase at all, so FI vanishes identically
    flat_info = make_custom([1.0] + [0.0] * 15)
    assert fisher_information(flat_info, 0.7) == 0.0
    with pytest.raises(ValueError):
        avg_sqrt_crb(flat_info, 10)


@pytest.mark.parametrize("phase", [np.nextafter(2.0 ** 34, np.inf), -2 ** 35, 1e20, 1e308])
def test_fisher_information_bounds_the_phase(phase):
    # At 1e308, fisher_information warned twice and returned 0.0, and crb inf.
    w = make_rectangular(8)
    with pytest.raises(ValueError, match=r"phase must lie in \[-2\*\*34, 2\*\*34\]"):
        fisher_information(w, phase)
    with pytest.raises(ValueError, match=r"phase must lie in \[-2\*\*34, 2\*\*34\]"):
        crb(w, phase, 3)


def test_fisher_information_accepts_phases_up_to_the_bound():
    for phase in (2.0 ** 34, -2.0 ** 34, 1e8):
        assert np.isfinite(fisher_information(make_cosine(8), phase))


def test_bound_arguments_are_checked():
    w = make_rectangular(16)
    for phase, message in ((np.nan, "phase nan is not finite"),
                           (np.inf, "phase inf is not finite"),
                           (True, "phase must be a number"), ("x", "phase must be a number")):
        with pytest.raises(ValueError, match=message):
            fisher_information(w, phase)
    with pytest.raises(ValueError, match="n_shots must be >= 1"):
        crb(w, 0.3, 0)
    with pytest.raises(ValueError, match="n_shots must be >= 1"):
        avg_sqrt_crb(w, 0)
    with pytest.raises(ValueError, match="phase_grid_size must be >= 16"):
        avg_sqrt_crb(w, 1, 15)
    for n_shots in (2.5, 3.0, True, np.float64(3.0), "3"):
        with pytest.raises(ValueError, match="n_shots must be an integer"):
            crb(w, 0.1, n_shots)
        with pytest.raises(ValueError, match="n_shots must be an integer"):
            avg_sqrt_crb(w, n_shots)
    for grid_size in (16.0, np.float32(64.0), False, None):
        with pytest.raises(ValueError, match="phase_grid_size must be an integer"):
            avg_sqrt_crb(w, 1, grid_size)
    # The grid is validated before it is allocated, by one rule for both
    # public grids: 0 returned an empty grid, and 2.5 and -1 reached numpy.
    for grid_size, message in ((2.5, "must be an integer"), (True, "must be an integer"),
                               (0, "must be >= 16"), (-1, "must be >= 16"),
                               (2**16 + 1, "must be <= 65536")):
        with pytest.raises(ValueError, match="grid_size " + message):
            fisher_information_grid(w, grid_size)
        with pytest.raises(ValueError, match="phase_grid_size " + message):
            avg_sqrt_crb(w, 1, grid_size)
    assert fisher_information_grid(w, np.int16(16)).tobytes() == \
        fisher_information_grid(w, 16).tobytes()
    # A numpy integer is an integer, and prices the same bytes.
    assert crb(w, 0.1, np.int64(3)) == crb(w, 0.1, 3)
    assert avg_sqrt_crb(w, np.uint16(3), np.int32(64)) == avg_sqrt_crb(w, 3, 64)


def test_grid_never_on_grid():
    fis = fisher_information_grid(make_rectangular(512), 256)
    assert fis.min() > 0.0
    assert fis.shape == (256,)


def closed_form_fisher(window):
    """4 * sum_n p_n (n - m)^2 with p = w^2 and m = sum_n n p_n, computed centred:
    the FI of a window with real weights symmetric about a centre, at every
    off-grid phase."""
    p = window.weights ** 2
    n = np.arange(window.n_points)
    return 4.0 * np.sum(p * (n - np.sum(n * p)) ** 2)


@pytest.mark.parametrize("make", [make_rectangular, make_cosine, make_bartlett])
@pytest.mark.parametrize("n", [4, 8, 16, 64, 128, 256, 1024, 4096])
def test_builtin_grid_equals_the_closed_form(make, n):
    window = make(n)
    fi = closed_form_fisher(window)
    relative = np.abs(fisher_information_grid(window, 256) - fi) / fi
    # A phase at which an outcome falls below NEGLIGIBLE_PROB undercounts FI
    # by the skipped outcomes' share; every other phase agrees to rounding.
    phases = TWO_PI / n * (np.arange(256) + 0.5) / 256
    s = n * np.fft.ifft(window.weights * np.exp((-1j * phases)[:, None] * np.arange(n)), axis=1)
    whole = np.all(np.abs(s) ** 2 / n >= NEGLIGIBLE_PROB, axis=1)
    assert relative[whole].max(initial=0.0) <= 1e-14
    assert relative.max() <= 3e-6
    assert avg_sqrt_crb(window, 1) == pytest.approx(1 / np.sqrt(fi), rel=2e-8)


@pytest.mark.parametrize("window", [make_cosine(2), make_bartlett(3)], ids=["cosine-2", "bartlett-3"])
def test_zero_variance_window_has_degenerate_fisher_information(window):
    assert closed_form_fisher(window) == 0.0
    with pytest.raises(ValueError, match="degenerate FI"):
        avg_sqrt_crb(window, 1)
