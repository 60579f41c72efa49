"""Coordinate-regression baseline mechanics."""

import numpy as np
import pytest

from regionkit.baseline import (
    POOL,
    _loss_and_grads,
    _slot_targets,
    decode_baseline,
    grid_pool,
    init_baseline,
    regression_baseline_eval,
    scene_feature,
    train_baseline,
)
from regionkit.simworld import generate_scene, make_training_set
from regionkit.training import TrainingDivergence


def test_grid_pool_constant():
    data = np.full((2, 16, 16), 3.0)
    feat = grid_pool(data, 4)
    assert feat.shape == (32,)
    np.testing.assert_allclose(feat, 3.0)


def test_grid_pool_block_means():
    data = np.zeros((1, 4, 4))
    data[0, :2, :2] = 1.0
    feat = grid_pool(data, 2)
    np.testing.assert_allclose(feat, [1.0, 0.0, 0.0, 0.0])


@pytest.mark.parametrize("h", range(1, 13))
def test_grid_pool_cells_are_never_empty(h):
    """At every side from 1 to 12, on a square map and beside a side of 13
    minus it, each cell is the mean of a non-empty block that starts at the
    cell's cut; where both sides are ``POOL`` or more, every cell is cut as
    ``(i * h) // POOL`` cuts it, bitwise, and none is empty."""
    for w in (h, 13 - h):
        data = np.random.default_rng(h).normal(size=(2, h, w))
        feat = grid_pool(data, POOL).reshape(2, POOL, POOL)
        for i in range(POOL):
            y0, y1 = (i * h) // POOL, ((i + 1) * h) // POOL
            for j in range(POOL):
                x0, x1 = (j * w) // POOL, ((j + 1) * w) // POOL
                if h >= POOL and w >= POOL:
                    assert feat[:, i, j].tobytes() == data[:, y0:y1, x0:x1].mean(axis=(1, 2)).tobytes()
                block = data[:, y0 : max(y1, y0 + 1), x0 : max(x1, x0 + 1)]
                assert block.size > 0
                assert feat[:, i, j].tobytes() == block.mean(axis=(1, 2)).tobytes()


def test_slot_targets_reading_order(tiny_config):
    scene = generate_scene(5, tiny_config.world)
    boxes, obj_t, cat_t = _slot_targets(scene, 8, tiny_config.n_categories)
    n = len(scene.objects)
    assert obj_t[:n].sum() == n and obj_t[n:].sum() == 0
    xs = boxes[:n, 0] - boxes[:n, 2] / 2
    assert list(xs) == sorted(xs)
    assert np.all(cat_t[:n].sum(axis=1) == 1)


def test_baseline_gradients_match_finite_differences(tiny_config):
    head = init_baseline(tiny_config, np.random.default_rng(0))
    scene = generate_scene(4, tiny_config.world)
    feat = scene_feature(scene, tiny_config)[None]
    _, grads = _loss_and_grads(head, feat, scene)
    rng = np.random.default_rng(1)
    for name in ("w1", "b1", "w2", "b2"):
        arr = getattr(head.mlp, name)
        flat = arr.ravel()
        g = grads[name].ravel()
        for i in rng.choice(flat.size, size=min(8, flat.size), replace=False):
            orig = flat[i]
            h = 1e-6
            flat[i] = orig + h
            up, _ = _loss_and_grads(head, feat, scene)
            flat[i] = orig - h
            down, _ = _loss_and_grads(head, feat, scene)
            flat[i] = orig
            num = (up - down) / (2 * h)
            assert abs(num - g[i]) / max(abs(num), abs(g[i]), 1e-5) < 1e-3, name


def test_decode_emits_valid_boxes(tiny_config):
    head = init_baseline(tiny_config, np.random.default_rng(2))
    head.steps_trained = 1
    scene = generate_scene(6, tiny_config.world)
    for det in decode_baseline(head, scene_feature(scene, tiny_config), 0.4):
        assert 0.0 <= det.box.x1 <= det.box.x2 <= 1.0
        assert 0.0 <= det.box.y1 <= det.box.y2 <= 1.0
        assert det.label in tiny_config.world.categories


def test_untrained_baseline_rejected(tiny_config):
    head = init_baseline(tiny_config, np.random.default_rng(3))
    with pytest.raises(ValueError):
        regression_baseline_eval(head, [generate_scene(0, tiny_config.world)], tiny_config)


def test_baseline_trains_and_evaluates(tiny_config):
    cfg = tiny_config.replace(stage1_steps=150, stage2_steps=0, n_train_scenes=10)
    head, losses = train_baseline(cfg)
    assert head.steps_trained == 150
    assert np.mean(losses[-10:]) < np.mean(losses[:10])
    scenes = [generate_scene(1000 + k, cfg.world) for k in range(5)]
    report = regression_baseline_eval(head, scenes, cfg)
    assert 0.0 <= report.ap_mean <= 1.0


def test_baseline_trains_on_the_retrieval_heads_scenes(tiny_config):
    cfg = tiny_config.replace(stage1_steps=1, stage2_steps=0)
    head, _ = train_baseline(cfg)
    dataset = make_training_set(
        cfg.n_train_scenes, cfg.rejection_fraction, seed=np.random.SeedSequence(cfg.seed).spawn(2)[0],
        scene_config=cfg.world, proposal_config=cfg.proposals,
    )
    feats = np.stack([scene_feature(s.scene, cfg) for s in dataset])
    assert feats.shape[1] == cfg.primary_channels * POOL**2
    np.testing.assert_array_equal(head.feat_mean, feats.mean(axis=0))


def test_divergent_baseline_raises_with_stage_and_step(tiny_config):
    # the sigmoid outputs bound the gradients, so the loss only stops being
    # finite once a single update overflows (1e300 leaves it near 1e301)
    with np.errstate(over="ignore", invalid="ignore"), pytest.raises(TrainingDivergence) as info:
        train_baseline(tiny_config.replace(stage1_lr=1e308))
    assert (info.value.stage, info.value.step) == (1, 2)
    assert not np.isfinite(info.value.loss)
    assert "at stage 1 step 2" in str(info.value)
