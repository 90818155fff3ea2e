import hashlib
import re

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


def test_make_window_refuses_the_argument_its_kind_does_not_take():
    # make_window("custom", 8, weights=[1, 2, 3]) returned a 3-point window,
    # and a built-in kind ignored its weights.
    with pytest.raises(ValueError, match="n_points 8 differs from the 3 weights"):
        make_window("custom", 8, weights=[1, 2, 3])
    for kind in ("rect", "cosine", "bartlett"):
        with pytest.raises(ValueError, match=f"window kind '{kind}' takes no weights"):
            make_window(kind, 4, weights=[1, 2, 3, 4])
    as_count = make_window("custom", np.int64(3), weights=[1, 2, 2])
    assert as_count.weights.tobytes() == make_window("custom", weights=[1, 2, 2]).weights.tobytes()


def test_load_weights_csv(tmp_path):
    path = tmp_path / "w.csv"
    path.write_text("1.0\n2.0\n2.0\n")
    np.testing.assert_allclose(load_weights_csv(path), [1.0, 2.0, 2.0])
    with_header = tmp_path / "wh.csv"
    with_header.write_text("weight\n3.0\n4.0\n")
    np.testing.assert_allclose(load_weights_csv(with_header), [3.0, 4.0])


def test_window_vector_kind_cannot_contradict_its_weights():
    # A non-flat "rect" was accepted, and distribution gave it the flat
    # window's closed form ([0.892, 0.057, 0.020, 0.031] at 0.3 instead of
    # [0.761, 0.145, 0.041, 0.052]) while fisher_information read its weights.
    with pytest.raises(ValueError, match="a rect window's weights must all be equal"):
        WindowVector(4, make_custom([1, 2, 3, 4]).weights, kind="rect")
    # An unknown kind was accepted as a label; it now fails as make_window fails.
    for kind in ("banana", "Rect", "", None, ["rect"]):
        message = (f"unknown window kind {kind!r}; "
                   "expected one of ('rect', 'cosine', 'bartlett', 'custom')")
        with pytest.raises(ValueError, match=re.escape(message)):
            WindowVector(2, make_custom([1, 2]).weights, kind=kind)
        if isinstance(kind, str):
            with pytest.raises(ValueError, match=re.escape(message)):
                make_window(kind, 4)
    # Only "rect" is read by a computation, so only "rect" checks its weights.
    flat = make_rectangular(4).weights
    assert WindowVector(4, flat, kind="rect").kind == "rect"
    assert WindowVector(4, flat, kind="cosine").kind == "cosine"


# sha256 of each maker's weights, as the makers computed them before the
# built-in windows moved into one table; make_window must give the same bytes.
_MAKERS = {
    "rect": make_rectangular,
    "cosine": make_cosine,
    "bartlett": make_bartlett,
    "custom": lambda n: make_custom(np.arange(1.0, n + 1)),
}
_WEIGHT_DIGESTS = {
    ("rect", 2): "d6974b80c320e46e362b0172f08283aea0ee3fb046880b968530260620110901",
    ("rect", 3): "9a4ab85ea2e66db8d6ab3741b38de0e58f0074ec566c3b30f1bc9ecc1ff7a376",
    ("rect", 4): "5e5c794534608bdcc5f3c19fd8d94ad66ab3aedaeb79694b00adab9d1df8e25f",
    ("rect", 100): "5c980e641affcba084a4ae58819a6144f8cc04b20e31b7b7bf23bb5829135503",
    ("rect", 128): "0e535cbf78a2c9f4edc9e89457b3b1e80b7f71a59c690e9c7bf4573b0c6791e0",
    ("rect", 1024): "d128f3626bba28bfe5aa704199f4887feeb328ec47c611d34fccae09b41dc613",
    ("rect", 2 ** 20): "988167d99f739e44a10ea3c0b2ea04d1982d47280c277672b30475d7c4815544",
    ("cosine", 2): "fc62429c3e69001d65972cdeb94fb9aa18a7d9c16bc449e1e474e7e41bb95a7d",
    ("cosine", 3): "1ced28a09a805eb39386c8707f4bf8f804c0f1d2ac313f0788f3492d56b5c2f9",
    ("cosine", 4): "dd1b00830d793d15c77f7417fdf5945f2cad4fc9c84819c12a0e1e92eb7933cc",
    ("cosine", 100): "905ff8780103b2cb1970392bc9c1aeddf8975f296c5ea55a6c6ca71a3ae09a6f",
    ("cosine", 128): "200d6a65d47babc82a40c44c4357de39d28b64c5d2a453cdce594714d0b6b691",
    ("cosine", 1024): "8155ba41e4c42256a7d8b92aaa495a12e9bd6b9f56a86e21421e3e9b9c11230e",
    ("cosine", 2 ** 20): "bcba2d72f51cf73f891c4414bd53281d39196e1fe06d517a1065466c33652991",
    ("bartlett", 3): "17550ce418055ff4cd54b803e704300eac4212c3edcef00f92f1e6e506a5b069",
    ("bartlett", 4): "8e5d05362134f64a33aaf0b99162e9b57bb4840c0170dc0d77cc9b43a6587929",
    ("bartlett", 100): "4a8714d1a7b9c6f49ae84dbeac65371cf7bbb9d517704a3bff61e578730743bb",
    ("bartlett", 128): "50ad086bcd4831534eb8213deb73e07028334f522b9fe476bfced1cf11c3d651",
    ("bartlett", 1024): "d8c02d584b483992d0617604684dfef27cae2b909d201007fa86445c9d3fb923",
    ("bartlett", 2 ** 20): "d592b17edee3854ee5d52af1737b27bdfe771a3ff17996fb5dfbc98dee544b19",
    ("custom", 2): "06c05b44ea66a632e9d1b4f1a2e504423c5eff8dc13e995f64b52e0b325c6dbd",
    ("custom", 3): "af8c5e76f3c85685e851f30f54e45a03ac325b5bfafbccbfc59786e0a755ddf9",
    ("custom", 4): "875813307196e28399aaa1be57dc6c3212b029d95035b502f41f26337dbbc02c",
    ("custom", 100): "bc33dc095c18754788cb13a614c95c58fab857003acc91b7f8fb3c5dd62811f7",
    ("custom", 128): "e0da56481356d6a873ac7dba251857ce8ed18c88d77b1e6ef9d1cb3154716953",
    ("custom", 1024): "867f23d0f0b7f1372cdfa0ba4a2214121e1a8dca619e4af29152b8b9ed37959a",
    ("custom", 2 ** 20): "c0246d040ef1d2db4c00044258aa5d728ce0b8552f66ed788a5621e69ebd283d",
}


@pytest.mark.parametrize("kind, n", list(_WEIGHT_DIGESTS))
def test_maker_weights_are_byte_identical(kind, n):
    window = _MAKERS[kind](n)
    if kind == "custom":
        by_name = make_window(kind, weights=np.arange(1.0, n + 1))
    else:
        by_name = make_window(kind, n)
    for made in (window, by_name):
        assert made.kind == kind
        assert hashlib.sha256(made.weights.tobytes()).hexdigest() == _WEIGHT_DIGESTS[kind, n]
