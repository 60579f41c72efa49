"""Region pooling against a brute-force sampling oracle."""

import numpy as np
import pytest

from regionkit.gridops import FeatureMap
from regionkit.roialign import (
    Box,
    RoiConfig,
    pooled_apply,
    pooled_axis_weight_table,
    pooled_weights,
    roi_align,
    roi_align_pooled,
)


# ------------------------------------------------------------- oracle

def oracle_sample(plane: np.ndarray, y: float, x: float) -> float:
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


def oracle_roi_align(data: np.ndarray, box: Box, cfg: RoiConfig) -> np.ndarray:
    """Naive loops over bins and sample points, with the aligned transform
    u * size - 0.5 and edge clamping."""
    c, h, w = data.shape
    p, r = cfg.pool_size, cfg.sampling_ratio
    y_start = box.y1 * h - 0.5
    x_start = box.x1 * w - 0.5
    bin_h = (box.y2 - box.y1) * h / p
    bin_w = (box.x2 - box.x1) * w / p
    out = np.zeros((c, p, p))
    for ci in range(c):
        for by in range(p):
            for bx in range(p):
                acc = 0.0
                for sy in range(r):
                    for sx in range(r):
                        y = y_start + bin_h * (by + (sy + 0.5) / r)
                        x = x_start + bin_w * (bx + (sx + 0.5) / r)
                        acc += oracle_sample(data[ci], y, x)
                out[ci, by, bx] = acc / (r * r)
    return out


def single_axis_pool_weights(lo: np.ndarray, hi: np.ndarray, size: int, cfg: RoiConfig) -> np.ndarray:
    """(N, size) mean bilinear weights along one axis: the per-axis pass
    ``pooled_axis_weight_table`` ran once per axis before it did both in one."""
    start = lo * size - 0.5
    bin_len = (hi - lo) * size / cfg.pool_size
    r = cfg.sampling_ratio
    unit = (np.arange(cfg.pool_size)[:, None] + (np.arange(r)[None, :] + 0.5) / r).ravel()
    coords = np.clip(start[:, None] + unit[None, :] * bin_len[:, None], 0.0, size - 1)
    i0 = np.floor(coords).astype(int)
    i1 = np.minimum(i0 + 1, size - 1)
    frac = coords - i0
    n, samples = i0.shape
    row = np.arange(n)[:, None] * size
    cells = np.concatenate([(row + i0).ravel(), (row + i1).ravel()])
    sums = np.bincount(cells, weights=np.concatenate([(1.0 - frac).ravel(), frac.ravel()]), minlength=n * size)
    return sums.reshape(n, size) / samples


def random_box(rng) -> Box:
    x1, x2 = np.sort(rng.uniform(0, 1, size=2))
    y1, y2 = np.sort(rng.uniform(0, 1, size=2))
    return Box(float(x1), float(y1), float(x2), float(y2))


# ----------------------------------------------------------------- Box

def test_box_clamps_coordinates():
    b = Box(-0.5, 0.2, 0.7, 1.8)
    assert b.x1 == 0.0 and b.y2 == 1.0


def test_box_rejects_misordered_corners():
    with pytest.raises(ValueError):
        Box(0.8, 0.1, 0.2, 0.5)


def test_box_rejects_bad_score():
    with pytest.raises(ValueError):
        Box(0.1, 0.1, 0.5, 0.5, score=1.5)


# ------------------------------------------------------------ roi_align

def test_constant_map_pools_to_constant():
    m = FeatureMap.full(3, 8, 8, 4.5)
    out = roi_align(m, Box(0.1, 0.3, 0.6, 0.9))
    np.testing.assert_allclose(out.data, 4.5, atol=1e-12)


def test_zero_area_box_at_pixel_center_samples_that_pixel():
    rng = np.random.default_rng(0)
    data = rng.normal(size=(2, 8, 8))
    m = FeatureMap.from_array(data)
    # pixel (3, 5) has center ((5+0.5)/8, (3+0.5)/8) in normalized coordinates
    cx, cy = (5 + 0.5) / 8, (3 + 0.5) / 8
    out = roi_align(m, Box(cx, cy, cx, cy))
    for c in range(2):
        np.testing.assert_allclose(out.data[c], data[c, 3, 5], atol=1e-12)


def test_roi_align_matches_oracle_200_random_cases():
    rng = np.random.default_rng(42)
    cfg = RoiConfig()
    worst = 0.0
    for _ in range(200):
        data = rng.normal(size=(3, 8, 8))
        m = FeatureMap.from_array(data)
        box = random_box(rng)
        got = roi_align(m, box, cfg).data
        want = oracle_roi_align(data, box, cfg)
        worst = max(worst, float(np.max(np.abs(got - want))))
    assert worst < 1e-9


def test_roi_align_custom_config():
    rng = np.random.default_rng(1)
    data = rng.normal(size=(1, 6, 7))
    cfg = RoiConfig(pool_size=3, sampling_ratio=4)
    box = random_box(rng)
    got = roi_align(FeatureMap.from_array(data), box, cfg).data
    np.testing.assert_allclose(got, oracle_roi_align(data, box, cfg), atol=1e-9)


# ----------------------------------------------------------- pooled form

def test_pooled_rows_are_mean_of_bins():
    rng = np.random.default_rng(2)
    m = FeatureMap.from_array(rng.normal(size=(3, 8, 8)))
    boxes = [random_box(rng) for _ in range(5)]
    pooled = roi_align_pooled(m, boxes)
    assert pooled.shape == (5, 3)
    for i, b in enumerate(boxes):
        bins = roi_align(m, b)
        np.testing.assert_allclose(pooled[i], bins.data.mean(axis=(1, 2)), atol=1e-9)


def test_full_image_box_on_2x2_matches_oracle():
    m = FeatureMap(1, 2, 2, np.array([[[1.0, 2.0], [3.0, 4.0]]]))
    cfg = RoiConfig()
    pooled = roi_align_pooled(m, [Box(0, 0, 1, 1)], cfg)
    want = oracle_roi_align(m.data, Box(0, 0, 1, 1), cfg).mean(axis=(1, 2))
    np.testing.assert_allclose(pooled[0], want, atol=1e-9)
    # symmetric sampling of the bilinear plane averages to its center value
    np.testing.assert_allclose(pooled[0], [2.5], atol=1e-9)


def test_identical_boxes_give_identical_rows():
    rng = np.random.default_rng(3)
    m = FeatureMap.from_array(rng.normal(size=(2, 8, 8)))
    b = random_box(rng)
    pooled = roi_align_pooled(m, [b, b])
    np.testing.assert_array_equal(pooled[0], pooled[1])


def test_constant_map_pooled_rows_constant():
    m = FeatureMap.full(4, 6, 6, 5.0)
    rng = np.random.default_rng(4)
    pooled = roi_align_pooled(m, [random_box(rng) for _ in range(3)])
    np.testing.assert_allclose(pooled, 5.0, atol=1e-12)


def test_one_pass_axis_weights_equal_two_single_axis_passes_bitwise():
    rng = np.random.default_rng(11)
    for h, w in [(3, 17), (17, 3), (8, 64), (64, 8), (1, 5), (9, 9), (33, 12)]:
        for cfg in (RoiConfig(), RoiConfig(pool_size=3, sampling_ratio=1), RoiConfig(pool_size=2, sampling_ratio=3)):
            boxes = [random_box(rng) for _ in range(int(rng.integers(1, 9)))]
            a_y, a_x = pooled_axis_weight_table([(h, w)], boxes, cfg)[h, w]
            want_y = single_axis_pool_weights(np.array([b.y1 for b in boxes]), np.array([b.y2 for b in boxes]), h, cfg)
            want_x = single_axis_pool_weights(np.array([b.x1 for b in boxes]), np.array([b.x2 for b in boxes]), w, cfg)
            assert a_y.shape == want_y.shape and a_y.tobytes() == want_y.tobytes()
            assert a_x.shape == want_x.shape and a_x.tobytes() == want_x.tobytes()


def test_pooled_requires_boxes():
    m = FeatureMap.full(1, 4, 4, 0.0)
    with pytest.raises(ValueError):
        roi_align_pooled(m, [])


def test_pooled_weights_linearity():
    """pooled_apply(weights, .) reproduces roi_align_pooled for any map."""
    rng = np.random.default_rng(5)
    boxes = [random_box(rng) for _ in range(4)]
    w = pooled_weights(8, 8, boxes)
    for _ in range(3):
        data = rng.normal(size=(2, 8, 8))
        m = FeatureMap.from_array(data)
        np.testing.assert_allclose(pooled_apply(w, data), roi_align_pooled(m, boxes), atol=1e-12)


def test_pooled_within_channel_min_max():
    rng = np.random.default_rng(6)
    data = rng.normal(size=(3, 8, 8))
    m = FeatureMap.from_array(data)
    pooled = roi_align_pooled(m, [random_box(rng) for _ in range(10)])
    for c in range(3):
        assert np.all(pooled[:, c] >= data[c].min() - 1e-12)
        assert np.all(pooled[:, c] <= data[c].max() + 1e-12)


def test_whole_pixel_translation_invariance():
    """Shifting map content and box by one pixel leaves pooling unchanged
    when no clamping is engaged."""
    rng = np.random.default_rng(7)
    h = w = 10
    data = rng.normal(size=(2, h, w))
    shifted = np.roll(data, shift=(1, 1), axis=(1, 2))
    box = Box(0.25, 0.25, 0.55, 0.55)
    box_shifted = Box(0.25 + 1 / w, 0.25 + 1 / h, 0.55 + 1 / w, 0.55 + 1 / h)
    a = roi_align_pooled(FeatureMap.from_array(data), [box])
    b = roi_align_pooled(FeatureMap.from_array(shifted), [box_shifted])
    np.testing.assert_allclose(a, b, atol=1e-9)
