"""Pyramid construction and auxiliary fusion."""

import numpy as np
import pytest

from regionkit.config import ExperimentConfig
from regionkit.gridops import FeatureMap, concat_channels, conv2d, deconv2d
from regionkit.pyramid import SimpleFPParams, aux_fuse, simple_fp


def test_config_dimension_contract():
    """The pyramid's levels carry fp_channels each, so a region's pooled
    pyramid feature has the config's d_p = 4 * fp_channels entries."""
    for fp in (512, 8):
        assert ExperimentConfig(fp_channels=fp).d_p == 4 * fp
    params = SimpleFPParams.seeded(3, 8, np.random.default_rng(0))
    levels = simple_fp(FeatureMap.full(3, 4, 4, 1.0), params)
    assert sum(level.channels for level in levels) == ExperimentConfig(fp_channels=8).d_p


@pytest.mark.parametrize("h", [8, 16, 32])
def test_simple_fp_spatial_scales(h):
    rng = np.random.default_rng(h)
    params = SimpleFPParams.seeded(3, 4, rng)
    m = FeatureMap.from_array(rng.normal(size=(3, h, h)))
    levels = simple_fp(m, params)
    assert [lv.shape for lv in levels] == [
        (4, h // 2, h // 2),
        (4, h, h),
        (4, 2 * h, 2 * h),
        (4, 4 * h, 4 * h),
    ]


def test_simple_fp_zero_input_zero_bias_gives_zero_maps():
    rng = np.random.default_rng(0)
    params = SimpleFPParams.seeded(2, 2, rng)
    for k in params.kernels.values():
        k.bias[:] = 0.0
    m = FeatureMap.full(2, 8, 8, 0.0)
    for level in simple_fp(m, params):
        np.testing.assert_allclose(level.data, 0.0)


def test_simple_fp_equals_manual_branch_composition():
    """Each level equals composing the grid ops by hand."""
    rng = np.random.default_rng(1)
    params = SimpleFPParams.seeded(2, 3, rng)
    m = FeatureMap.from_array(rng.normal(size=(2, 8, 8)))
    levels = simple_fp(m, params)
    k = params.kernels
    np.testing.assert_array_equal(levels[0].data, conv2d(m, k["down"], stride=2, padding=1).data)
    np.testing.assert_array_equal(levels[1].data, conv2d(m, k["same"]).data)
    np.testing.assert_array_equal(levels[2].data, deconv2d(m, k["up2"], stride=2).data)
    np.testing.assert_array_equal(
        levels[3].data, deconv2d(deconv2d(m, k["up4_a"], stride=2), k["up4_b"], stride=2).data
    )


def test_simple_fp_rejects_tiny_input():
    rng = np.random.default_rng(2)
    params = SimpleFPParams.seeded(1, 2, rng)
    with pytest.raises(ValueError):
        simple_fp(FeatureMap.full(1, 3, 3, 0.0), params)


# --------------------------------------------------------------- aux_fuse

def test_aux_fuse_same_size_is_pure_concat():
    rng = np.random.default_rng(4)
    maps = [FeatureMap.from_array(rng.normal(size=(c, 6, 6))) for c in (1, 2, 3, 4)]
    fused = aux_fuse(maps)
    np.testing.assert_array_equal(fused.data, concat_channels(maps).data)


def test_aux_fuse_channel_additivity():
    rng = np.random.default_rng(5)
    sizes = [16, 8, 4, 2]
    maps = [
        FeatureMap.from_array(rng.normal(size=(c, s, s)))
        for c, s in zip((192, 384, 768, 1536), sizes)
    ]
    fused = aux_fuse(maps)
    assert fused.channels == 2880
    assert (fused.height, fused.width) == (16, 16)


def test_aux_fuse_constant_blocks_keep_values():
    maps = [FeatureMap.full(1, s, s, v) for s, v in zip((8, 4, 2, 8), (1.0, 2.0, 3.0, 4.0))]
    fused = aux_fuse(maps)
    for c, v in enumerate((1.0, 2.0, 3.0, 4.0)):
        np.testing.assert_allclose(fused.data[c], v, atol=1e-12)


def test_aux_fuse_accepts_any_order():
    rng = np.random.default_rng(6)
    maps = [FeatureMap.from_array(rng.normal(size=(1, s, s))) for s in (4, 16, 8, 2)]
    fused = aux_fuse(maps)
    assert (fused.height, fused.width) == (16, 16)


def test_aux_fuse_rejects_wrong_count():
    maps = [FeatureMap.full(1, 4, 4, 0.0)] * 3
    with pytest.raises(ValueError):
        aux_fuse(maps)


def test_aux_fuse_rejects_ambiguous_largest():
    maps = [
        FeatureMap.full(1, 8, 2, 0.0),
        FeatureMap.full(1, 2, 8, 0.0),
        FeatureMap.full(1, 2, 2, 0.0),
        FeatureMap.full(1, 4, 2, 0.0),
    ]
    with pytest.raises(ValueError):
        aux_fuse(maps)
