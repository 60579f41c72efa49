"""The pooled-tap products against the stacked-product oracle.

``pool_oracle`` keeps ``pooled_taps``, ``simple_fp_taps`` and
``aux_fuse_taps`` as they were before the y contraction became one 2-D
product and the auxiliary resizes one product per axis.  Every part that
``prepare_sample`` builds must equal the oracle's to 1e-12 relative: at
the default and tiny configs, at an encoder whose primary and auxiliary
sizes share none (primary 9, auxiliary 40), and with the pyramid off, on
scenes of one box and of 14 as well as the eval scenes.  The configs take
turns, so the zero-bordered buffers kept per shape are reused across them.
"""

import dataclasses

import numpy as np
import pool_oracle
import pytest

from regionkit import pyramid, training
from regionkit.config import ExperimentConfig
from regionkit.experiments import EvalScene, make_eval_scenes
from regionkit.gridops import resize_matrix
from regionkit.roialign import Box, pooled_taps
from regionkit.simworld import EncoderConfig
from regionkit.training import init_model_params, prepare_sample


def _configs(default_config, tiny_config):
    odd = dataclasses.replace(default_config, encoder=EncoderConfig(primary_resolution=9, aux_base_resolution=40))
    no_fp = dataclasses.replace(default_config, streams="hybrid_no_fp")
    return {"default": default_config, "tiny": tiny_config, "odd_encoder": odd, "no_fp": no_fp,
            "default_again": default_config}


def _scenes(config: ExperimentConfig, n: int) -> list[EvalScene]:
    """``n`` eval scenes, then a scene's first proposal alone, one drawn box
    alone and 14 drawn boxes on the first scene."""
    scenes = make_eval_scenes(config, n_scenes=n)
    rng = np.random.default_rng(22)
    corners, sizes = rng.uniform(0.0, 0.8, size=(14, 2)), rng.uniform(0.02, 0.2, size=(14, 2))
    drawn = [Box(x, y, x + w, y + h) for (x, y), (w, h) in zip(corners.tolist(), sizes.tolist())]
    first = scenes[0].scene
    return scenes + [EvalScene(first, scenes[0].proposals[:1]), EvalScene(first, drawn[:1]), EvalScene(first, drawn)]


def _oracle_parts(params, scene, config):
    with pytest.MonkeyPatch.context() as mp:
        mp.setattr(training, "pooled_taps", pool_oracle.pooled_taps)
        mp.setattr(training, "simple_fp_taps", pool_oracle.simple_fp_taps)
        mp.setattr(training, "aux_fuse_taps", pool_oracle.aux_fuse_taps)
        return prepare_sample(params, scene, config).parts


def test_prepared_parts_match_the_stacked_product_oracle(default_config, tiny_config):
    box_counts = set()
    for name, config in _configs(default_config, tiny_config).items():
        params = init_model_params(config)
        for scene in _scenes(config, 40):
            box_counts.add(len(scene.proposals))
            got = prepare_sample(params, scene, config).parts
            want = _oracle_parts(params, scene, config)
            assert [g for g, _ in got] == [g for g, _ in want]
            for (_, arrays), (_, oracle_arrays) in zip(got, want):
                assert len(arrays) == len(oracle_arrays)
                for a, b in zip(arrays, oracle_arrays):
                    assert a.shape == b.shape, name
                    assert np.max(np.abs(a - b)) <= 1e-12 * np.max(np.abs(b)), name
    assert 1 in box_counts and 14 in box_counts


def test_pooled_taps_match_the_oracle_at_every_tap_count():
    """One box and 14, one to three taps per axis, on a map that is not square."""
    rng = np.random.default_rng(5)
    data = rng.normal(size=(7, 11, 13))
    for n in (1, 14):
        for t_y, t_x in ((1, 1), (2, 3), (3, 1)):
            g_y, g_x = rng.uniform(size=(n, t_y, 11)), rng.uniform(size=(n, t_x, 13))
            got, want = pooled_taps(data, g_y, g_x), pool_oracle.pooled_taps(data, g_y, g_x)
            assert got.shape == want.shape == (n, t_y * t_x * 7)
            assert np.max(np.abs(got - want)) <= 1e-12 * np.max(np.abs(want))


def test_stacked_resize_holds_the_identity_for_the_fused_size():
    """The fused map's block is exactly the identity, so its pooling weights
    pass through the stacked product unchanged; the others are the resize
    matrices, side by side."""
    stacked = pyramid._stacked_resize((40, 20, 10, 5), 40)
    assert stacked.shape == (40, 75) and not stacked.flags.writeable
    np.testing.assert_array_equal(stacked[:, :40], np.eye(40))
    np.testing.assert_array_equal(stacked[:, 40:60], resize_matrix(20, 40))
    np.testing.assert_array_equal(stacked[:, 70:], resize_matrix(5, 40))
