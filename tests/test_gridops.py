"""Feature-map numerics against naive-loop oracles."""

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from regionkit.gridops import (
    FeatureMap,
    Kernel,
    bilinear_resize,
    bilinear_resize_grad,
    concat_channels,
    conv2d,
    conv2d_backward,
    deconv2d,
    deconv2d_backward,
    resize_matrix,
)


# ------------------------------------------------------------- oracles

def oracle_bilinear_sample(plane: np.ndarray, y: float, x: float) -> float:
    """Evaluate the continuous bilinear surface of one 2-D plane at (y, x),
    clamping to the edges."""
    h, w = plane.shape
    y = min(max(y, 0.0), h - 1.0)
    x = min(max(x, 0.0), w - 1.0)
    y0, x0 = int(np.floor(y)), int(np.floor(x))
    y1, x1 = min(y0 + 1, h - 1), min(x0 + 1, w - 1)
    dy, dx = y - y0, x - x0
    return (
        plane[y0, x0] * (1 - dy) * (1 - dx)
        + plane[y0, x1] * (1 - dy) * dx
        + plane[y1, x0] * dy * (1 - dx)
        + plane[y1, x1] * dy * dx
    )


def oracle_resize(data: np.ndarray, out_h: int, out_w: int) -> np.ndarray:
    c, in_h, in_w = data.shape
    out = np.zeros((c, out_h, out_w))
    for ci in range(c):
        for oy in range(out_h):
            for ox in range(out_w):
                sy = (oy + 0.5) * in_h / out_h - 0.5
                sx = (ox + 0.5) * in_w / out_w - 0.5
                out[ci, oy, ox] = oracle_bilinear_sample(data[ci], sy, sx)
    return out


def oracle_conv(data: np.ndarray, weights: np.ndarray, bias: np.ndarray, stride: int, padding: int) -> np.ndarray:
    c_out, c_in, kh, kw = weights.shape
    _, h, w = data.shape
    padded = np.pad(data, ((0, 0), (padding, padding), (padding, padding)))
    oh = (h + 2 * padding - kh) // stride + 1
    ow = (w + 2 * padding - kw) // stride + 1
    out = np.zeros((c_out, oh, ow))
    for o in range(c_out):
        for oy in range(oh):
            for ox in range(ow):
                acc = bias[o]
                for i in range(c_in):
                    for dy in range(kh):
                        for dx in range(kw):
                            acc += padded[i, oy * stride + dy, ox * stride + dx] * weights[o, i, dy, dx]
                out[o, oy, ox] = acc
    return out


def oracle_deconv(data: np.ndarray, weights: np.ndarray, bias: np.ndarray, stride: int) -> np.ndarray:
    c_out, c_in, kh, kw = weights.shape
    _, h, w = data.shape
    out = np.zeros((c_out, (h - 1) * stride + kh, (w - 1) * stride + kw))
    for o in range(c_out):
        for i in range(c_in):
            for y in range(h):
                for x in range(w):
                    for dy in range(kh):
                        for dx in range(kw):
                            out[o, y * stride + dy, x * stride + dx] += data[i, y, x] * weights[o, i, dy, dx]
    out += bias[:, None, None]
    return out


def random_map(rng, c, h, w):
    return FeatureMap(c, h, w, rng.normal(size=(c, h, w)))


def uniform_kernel(out_c, in_c, k_h, k_w, rng):
    """A kernel with weights, then bias, uniform in +-1/sqrt(in_c * k_h * k_w)."""
    bound = 1.0 / np.sqrt(in_c * k_h * k_w)
    w = rng.uniform(-bound, bound, size=(out_c, in_c, k_h, k_w))
    return Kernel(out_c, in_c, k_h, k_w, w, rng.uniform(-bound, bound, size=out_c))


# ------------------------------------------------------------ FeatureMap

def test_feature_map_validates_length():
    with pytest.raises(ValueError):
        FeatureMap(2, 2, 2, np.zeros(7))


def test_feature_map_rejects_non_finite():
    data = np.zeros((1, 2, 2))
    data[0, 0, 0] = np.nan
    with pytest.raises(ValueError):
        FeatureMap(1, 2, 2, data)


def test_kernel_validates_weight_length():
    with pytest.raises(ValueError):
        Kernel(2, 2, 3, 3, np.zeros(5))


# --------------------------------------------------------------- resize

def test_resize_constant_map_stays_constant():
    m = FeatureMap.full(2, 3, 3, 5.0)
    out = bilinear_resize(m, 7, 2)
    np.testing.assert_allclose(out.data, 5.0)


def test_resize_identity_size_is_identity():
    rng = np.random.default_rng(1)
    m = random_map(rng, 2, 5, 6)
    out = bilinear_resize(m, 5, 6)
    np.testing.assert_allclose(out.data, m.data, atol=1e-12)


def test_resize_2x2_to_1x1_matches_oracle():
    m = FeatureMap(1, 2, 2, np.array([[[1.0, 2.0], [3.0, 4.0]]]))
    out = bilinear_resize(m, 1, 1)
    expected = oracle_resize(m.data, 1, 1)
    np.testing.assert_allclose(out.data, expected, atol=1e-9)
    # center of the bilinear surface of [[1,2],[3,4]] is its mean
    np.testing.assert_allclose(out.data, [[[2.5]]], atol=1e-12)


@pytest.mark.parametrize("shape,target", [((2, 4, 6), (7, 3)), ((1, 5, 5), (2, 9)), ((3, 2, 3), (5, 5))])
def test_resize_matches_oracle(shape, target):
    rng = np.random.default_rng(hash(target) % 2**32)
    m = random_map(rng, *shape)
    out = bilinear_resize(m, *target)
    np.testing.assert_allclose(out.data, oracle_resize(m.data, *target), atol=1e-9)


def test_resize_rejects_bad_target():
    m = FeatureMap.full(1, 2, 2, 0.0)
    with pytest.raises(ValueError):
        bilinear_resize(m, 0, 3)


def test_resize_down_then_up_constant_identity():
    m = FeatureMap.full(3, 8, 8, 1.25)
    down = bilinear_resize(m, 3, 3)
    up = bilinear_resize(down, 8, 8)
    np.testing.assert_allclose(up.data, m.data, atol=1e-12)


def test_resize_grad_is_adjoint():
    rng = np.random.default_rng(7)
    m = random_map(rng, 2, 5, 4)
    g = rng.normal(size=(2, 9, 3))
    out = bilinear_resize(m, 9, 3)
    lhs = np.sum(out.data * g)
    rhs = np.sum(m.data * bilinear_resize_grad(g, 5, 4))
    assert abs(lhs - rhs) < 1e-10


def test_resize_matrix_is_shared_and_read_only():
    mat = resize_matrix(5, 9)
    assert resize_matrix(5, 9) is mat
    with pytest.raises(ValueError):
        mat[0, 0] = 2.0
    with pytest.raises(ValueError):
        mat += 1.0
    np.testing.assert_allclose(mat.sum(axis=1), 1.0, atol=1e-12)


# ----------------------------------------------------------- convolution

def test_conv_identity_kernel():
    rng = np.random.default_rng(2)
    m = random_map(rng, 3, 6, 5)
    out = conv2d(m, Kernel.identity(3))
    np.testing.assert_allclose(out.data, m.data, atol=1e-12)


def test_conv_zero_kernel_gives_bias():
    m = FeatureMap.full(2, 4, 4, 3.0)
    k = Kernel(3, 2, 2, 2, np.zeros((3, 2, 2, 2)), np.array([1.0, -2.0, 0.5]))
    out = conv2d(m, k)
    for o, b in enumerate([1.0, -2.0, 0.5]):
        np.testing.assert_allclose(out.data[o], b)


@pytest.mark.parametrize("stride,padding", [(1, 0), (1, 1), (2, 1), (3, 0)])
def test_conv_matches_oracle(stride, padding):
    rng = np.random.default_rng(10 + stride * 7 + padding)
    m = random_map(rng, 2, 5, 5)
    k = uniform_kernel(3, 2, 3, 3, rng)
    out = conv2d(m, k, stride=stride, padding=padding)
    np.testing.assert_allclose(
        out.data, oracle_conv(m.data, k.weights, k.bias, stride, padding), atol=1e-9
    )


def test_conv_rejects_channel_mismatch():
    m = FeatureMap.full(2, 4, 4, 0.0)
    k = uniform_kernel(1, 3, 1, 1, np.random.default_rng(0))
    with pytest.raises(ValueError):
        conv2d(m, k)


def test_conv_rejects_degenerate_output():
    m = FeatureMap.full(1, 2, 2, 0.0)
    k = uniform_kernel(1, 1, 3, 3, np.random.default_rng(0))
    with pytest.raises(ValueError):
        conv2d(m, k)


@settings(max_examples=25, deadline=None)
@given(
    c=st.integers(1, 3),
    h=st.integers(2, 6),
    w=st.integers(2, 6),
    seed=st.integers(0, 10_000),
)
def test_conv_identity_kernel_property(c, h, w, seed):
    m = random_map(np.random.default_rng(seed), c, h, w)
    out = conv2d(m, Kernel.identity(c))
    np.testing.assert_allclose(out.data, m.data, atol=1e-12)


def test_conv_backward_matches_finite_differences():
    rng = np.random.default_rng(11)
    m = random_map(rng, 2, 5, 5)
    k = uniform_kernel(2, 2, 3, 3, rng)
    g = rng.normal(size=conv2d(m, k, stride=2, padding=1).shape)

    d_w, d_b, d_in = conv2d_backward(m, k, g, stride=2, padding=1)
    eps = 1e-6

    def loss(weights, bias, data):
        kk = Kernel(2, 2, 3, 3, weights, bias)
        mm = FeatureMap(2, 5, 5, data)
        return np.sum(conv2d(mm, kk, stride=2, padding=1).data * g)

    for arr, grad, name in ((k.weights, d_w, "w"), (k.bias, d_b, "b"), (m.data, d_in, "x")):
        flat = arr.ravel()
        picks = np.random.default_rng(5).choice(flat.size, size=min(10, flat.size), replace=False)
        for i in picks:
            orig = flat[i]
            flat[i] = orig + eps
            up = loss(k.weights, k.bias, m.data)
            flat[i] = orig - eps
            down = loss(k.weights, k.bias, m.data)
            flat[i] = orig
            num = (up - down) / (2 * eps)
            assert abs(num - grad.ravel()[i]) < 1e-6, name


# ---------------------------------------------------------------- deconv

def test_deconv_single_pixel_expansion():
    m = FeatureMap(1, 1, 1, np.array([[[3.0]]]))
    k = Kernel(1, 1, 2, 2, np.ones((1, 1, 2, 2)), np.array([0.25]))
    out = deconv2d(m, k, stride=2)
    np.testing.assert_allclose(out.data, 3.0 + 0.25)
    assert out.shape == (1, 2, 2)


def test_deconv_identity_kernel():
    rng = np.random.default_rng(3)
    m = random_map(rng, 2, 4, 4)
    out = deconv2d(m, Kernel.identity(2), stride=1)
    np.testing.assert_allclose(out.data, m.data, atol=1e-12)


@pytest.mark.parametrize("stride", [1, 2, 3])
def test_deconv_matches_oracle(stride):
    rng = np.random.default_rng(20 + stride)
    m = random_map(rng, 2, 4, 3)
    k = uniform_kernel(3, 2, 2, 2, rng)
    out = deconv2d(m, k, stride=stride)
    np.testing.assert_allclose(out.data, oracle_deconv(m.data, k.weights, k.bias, stride), atol=1e-9)


def test_deconv_rejects_channel_mismatch():
    m = FeatureMap.full(2, 3, 3, 0.0)
    k = uniform_kernel(2, 3, 2, 2, np.random.default_rng(0))
    with pytest.raises(ValueError):
        deconv2d(m, k)


@pytest.mark.parametrize("stride", [1, 2])
def test_deconv_is_adjoint_of_conv(stride):
    """<conv(x), y> == <x, deconv(y)> with the channel-swapped zero-bias kernel."""
    rng = np.random.default_rng(30 + stride)
    x = random_map(rng, 3, 6, 6)
    k = Kernel(2, 3, 2, 2, rng.normal(size=(2, 3, 2, 2)))
    conv_out = conv2d(x, k, stride=stride)
    y = random_map(rng, *conv_out.shape)
    lhs = np.sum(conv_out.data * y.data)
    rhs = np.sum(x.data * deconv2d(y, k.swap_channels(), stride=stride).data)
    assert abs(lhs - rhs) < 1e-8


def test_deconv_backward_matches_finite_differences():
    rng = np.random.default_rng(12)
    m = random_map(rng, 2, 3, 3)
    k = uniform_kernel(2, 2, 2, 2, rng)
    g = rng.normal(size=deconv2d(m, k, stride=2).shape)
    d_w, d_b, d_in = deconv2d_backward(m, k, g, stride=2)
    eps = 1e-6

    def loss():
        return np.sum(deconv2d(m, k, stride=2).data * g)

    for arr, grad in ((k.weights, d_w), (k.bias, d_b), (m.data, d_in)):
        flat = arr.ravel()
        for i in range(flat.size):
            orig = flat[i]
            flat[i] = orig + eps
            up = loss()
            flat[i] = orig - eps
            down = loss()
            flat[i] = orig
            assert abs((up - down) / (2 * eps) - grad.ravel()[i]) < 1e-6


# ---------------------------------------------------------------- concat

def test_concat_single_map_identity():
    rng = np.random.default_rng(4)
    m = random_map(rng, 2, 3, 3)
    out = concat_channels([m])
    np.testing.assert_array_equal(out.data, m.data)


def test_concat_preserves_order_and_counts():
    rng = np.random.default_rng(5)
    a = random_map(rng, 2, 3, 4)
    b = random_map(rng, 3, 3, 4)
    out = concat_channels([a, b])
    assert out.channels == 5
    np.testing.assert_array_equal(out.data[2], b.data[0])
    np.testing.assert_array_equal(out.data[:2], a.data)


def test_concat_four_maps_channel_additivity():
    rng = np.random.default_rng(6)
    maps = [random_map(rng, c, 2, 2) for c in (1, 2, 3, 4)]
    assert concat_channels(maps).channels == 10


def test_concat_bijective_index_mapping():
    rng = np.random.default_rng(8)
    maps = [random_map(rng, c, 3, 3) for c in (2, 1, 3)]
    out = concat_channels(maps)
    offset = 0
    for m in maps:
        np.testing.assert_array_equal(out.data[offset : offset + m.channels], m.data)
        offset += m.channels


def test_concat_rejects_mismatched_sizes_and_empty():
    with pytest.raises(ValueError):
        concat_channels([])
    a = FeatureMap.full(1, 2, 2, 0.0)
    b = FeatureMap.full(1, 3, 2, 0.0)
    with pytest.raises(ValueError):
        concat_channels([a, b])
