import numpy as np
import pytest
from hypothesis import given, settings, strategies as st

from phasekit.io import load_weights_csv
from phasekit.windows import (
    WindowVector,
    make_bartlett,
    make_cosine,
    make_custom,
    make_rectangular,
    make_window,
)


def test_rectangular_values():
    w = make_rectangular(4)
    np.testing.assert_allclose(w.weights, [0.5, 0.5, 0.5, 0.5], atol=1e-15)
    w2 = make_rectangular(2)
    np.testing.assert_allclose(w2.weights, [1 / np.sqrt(2)] * 2, atol=1e-15)
    w128 = make_rectangular(128)
    assert abs(np.linalg.norm(w128.weights) - 1) < 1e-12


def test_cosine_values():
    w = make_cosine(4)
    np.testing.assert_allclose(w.weights, [0.0, 0.5, 1 / np.sqrt(2), 0.5], atol=1e-15)
    np.testing.assert_allclose(make_cosine(2).weights, [0.0, 1.0], atol=1e-15)


def test_cosine_first_weight_zero():
    for n in (2, 7, 64, 129):
        assert make_cosine(n).weights[0] == 0.0


def test_bartlett_values():
    np.testing.assert_allclose(make_bartlett(3).weights, [0.0, 1.0, 0.0], atol=1e-15)
    expected = np.array([0.0, 0.5, 1.0, 0.5, 0.0]) / np.sqrt(1.5)
    np.testing.assert_allclose(make_bartlett(5).weights, expected, atol=1e-15)


def test_bartlett_symmetric():
    w = make_bartlett(12).weights
    np.testing.assert_allclose(w, w[::-1], atol=0)


def test_custom_normalizes():
    np.testing.assert_allclose(make_custom([3.0, 4.0]).weights, [0.6, 0.8], atol=1e-15)
    np.testing.assert_allclose(
        make_custom([1.0, 1.0, 1.0, 1.0]).weights, make_rectangular(4).weights, atol=1e-15
    )


@pytest.mark.parametrize("bad", [[0.0, 0.0], [1.0, np.nan], [np.inf, 1.0], [1.0]])
def test_custom_rejects_degenerate(bad):
    with pytest.raises(ValueError):
        make_custom(bad)


@pytest.mark.parametrize("maker", [make_rectangular, make_cosine, make_bartlett])
def test_short_lengths_rejected(maker):
    with pytest.raises(ValueError):
        maker(1)
    # A length is a Python or numpy integer: 4.0 would reach numpy.
    for bad in (4.0, 2.5, "4", True):
        with pytest.raises(ValueError, match="record length must be an integer"):
            maker(bad)
    assert maker(np.int64(4)).weights.tolist() == maker(4).weights.tolist()
    assert type(maker(np.int64(4)).n_points) is int


@pytest.mark.parametrize("maker", [make_rectangular, make_cosine, make_bartlett])
@pytest.mark.parametrize("int_type", [np.int8, np.uint8, np.int16, np.uint16, np.int32,
                                      np.uint32, np.int64, np.uint64])
def test_numpy_integer_lengths_make_the_python_int_window(maker, int_type):
    # np.sqrt of an int8 is a float16: make_window("rect", np.int8(8)) was
    # "not unit-norm".
    window = maker(int_type(8))
    assert window.weights.tobytes() == maker(8).weights.tobytes()
    assert type(window.n_points) is int
    assert make_window(window.kind, int_type(8)).weights.tobytes() == window.weights.tobytes()


@pytest.mark.parametrize("n, weights, message", [
    (3, [0.5] * 4, "weights must be a vector of length 3"),
    (1, [1.0], "record length must be >= 2"),
    (2, [np.nan, 1.0], "window weights must be finite"),
])
def test_window_vector_rejects_malformed_weights(n, weights, message):
    with pytest.raises(ValueError, match=message):
        WindowVector(n, np.array(weights))


def test_window_vector_rejects_bad_norm():
    with pytest.raises(ValueError):
        WindowVector(3, np.array([1.0, 1.0, 1.0]))


def test_window_vector_with_overflowing_norm_is_a_value_error():
    # The sum of squares overflows: the module's own error, not numpy's warning.
    with pytest.raises(ValueError, match="not unit-norm"):
        WindowVector(2, [1e308, 1e308])


@pytest.mark.parametrize("tiny", [1e-160, 1e-200, 5e-324])
def test_tiny_custom_weights_normalize_like_unit_weights(tiny):
    # Their squares go subnormal or underflow to zero.
    expected = make_custom([1.0, 1.0]).weights
    assert np.array_equal(make_custom([tiny, tiny]).weights, expected)
    assert np.array_equal(make_custom([-tiny, 0.0, tiny]).weights,
                          make_custom([-1.0, 0.0, 1.0]).weights)


@settings(max_examples=40, deadline=None)
@given(st.integers(min_value=2, max_value=1024))
def test_unit_norm_all_constructors(n):
    makers = [make_rectangular, make_cosine] + ([make_bartlett] if n > 2 else [])
    for maker in makers:
        assert abs(np.linalg.norm(maker(n).weights) - 1.0) < 1e-12


def test_bartlett_degenerate_at_two():
    with pytest.raises(ValueError):
        make_bartlett(2)


@settings(max_examples=30, deadline=None)
@given(st.integers(min_value=2, max_value=1024))
def test_cosine_midpoint_symmetry(n):
    # weight_y = weight_{N-y} for y >= 1; the zero first weight stands alone
    w = make_cosine(n).weights
    y = np.arange(1, n)
    np.testing.assert_allclose(w[y], w[n - y], atol=1e-15)


@settings(max_examples=30, deadline=None)
@given(
    st.lists(
        st.floats(min_value=-10, max_value=10, allow_nan=False).filter(lambda x: abs(x) > 1e-3),
        min_size=2,
        max_size=64,
    )
)
def test_custom_idempotent(weights):
    once = make_custom(weights)
    twice = make_custom(once.weights)
    assert np.max(np.abs(once.weights - twice.weights)) <= 1e-15


def test_make_window_dispatch():
    assert make_window("rect", 8).kind == "rect"
    assert make_window("cosine", 8).kind == "cosine"
    assert make_window("bartlett", 8).kind == "bartlett"
    assert make_window("custom", weights=[1, 2, 2]).kind == "custom"
    with pytest.raises(ValueError):
        make_window("hann", 8)
    with pytest.raises(ValueError):
        make_window("rect")
    with pytest.raises(ValueError):
        make_window("custom")


def test_load_weights_csv(tmp_path):
    path = tmp_path / "w.csv"
    path.write_text("1.0\n2.0\n2.0\n")
    np.testing.assert_allclose(load_weights_csv(path), [1.0, 2.0, 2.0])
    with_header = tmp_path / "wh.csv"
    with_header.write_text("weight\n3.0\n4.0\n")
    np.testing.assert_allclose(load_weights_csv(with_header), [3.0, 4.0])
