"""Synthetic world: determinism, rendering properties, proposal statistics."""

import numpy as np
import pytest

from regionkit.metrics import box_recall, iou
from regionkit.roialign import Box, roi_align_pooled
from regionkit.simworld import (
    EncoderConfig,
    ProposalSimConfig,
    SceneConfig,
    generate_scene,
    make_training_set,
    simulate_opn,
    toy_encode,
    vocabulary,
)


def test_vocabulary_shape():
    assert vocabulary(3) == ("ball", "block", "tree")
    assert len(vocabulary(10)) == 10
    assert vocabulary(10)[8] == "thing8"


# ------------------------------------------------------------- generation

def test_same_seed_identical_scene():
    cfg = SceneConfig()
    a = generate_scene(123, cfg)
    b = generate_scene(123, cfg)
    assert a == b


def test_zero_objects_config():
    cfg = SceneConfig(min_objects=0, max_objects=0)
    assert generate_scene(5, cfg).objects == ()


def test_objects_valid_and_not_degenerate():
    cfg = SceneConfig()
    for seed in range(30):
        scene = generate_scene(seed, cfg)
        for _, b in scene.objects:
            assert b.area >= 1e-4
            assert 0.0 <= b.x1 <= b.x2 <= 1.0


def test_category_frequencies_multinomial():
    """Empirical frequencies over 1000 scenes stay within 3 sigma of uniform."""
    cfg = SceneConfig(n_categories=4, min_objects=2, max_objects=4)
    counts = {name: 0 for name in cfg.categories}
    total = 0
    for seed in range(1000):
        for cat, _ in generate_scene(seed, cfg).objects:
            counts[cat] += 1
            total += 1
    p = 1.0 / 4
    sigma = np.sqrt(total * p * (1 - p))
    for name, n in counts.items():
        assert abs(n - total * p) < 3 * sigma, (name, n, total)


# --------------------------------------------------------------- encoding

def test_encode_deterministic():
    scene = generate_scene(9, SceneConfig())
    pa, auxa = toy_encode(scene)
    pb, auxb = toy_encode(scene)
    np.testing.assert_array_equal(pa.data, pb.data)
    for a, b in zip([pa, *auxa], [pb, *auxb]):
        assert not np.shares_memory(a.data, b.data)  # two renders, not one compared with itself
        np.testing.assert_array_equal(a.data, b.data)


def test_encode_shapes_and_scales():
    cfg = SceneConfig(n_categories=8)
    scene = generate_scene(1, cfg)
    primary, aux = toy_encode(scene)
    assert primary.shape == (16, 16, 16)
    assert [m.shape for m in aux] == [(6, 64, 64), (6, 32, 32), (6, 16, 16), (6, 8, 8)]


def test_empty_scene_background_only():
    scene = generate_scene(2, SceneConfig(min_objects=0, max_objects=0, clutter_density=0.0))
    primary, _ = toy_encode(scene)
    n_cat = scene.n_categories
    # signature channels carry only the seeded noise floor
    assert np.max(np.abs(primary.data[:n_cat])) < 0.06
    # background channel is near one
    assert np.min(primary.data[n_cat]) > 0.9


def test_single_object_signature_channel_is_maximal():
    """Pooling the primary map over an object's box peaks at its category channel."""
    enc = EncoderConfig()
    for seed in range(12):
        cfg = SceneConfig(min_objects=1, max_objects=1)
        scene = generate_scene(seed, cfg)
        (cat, box), = scene.objects
        primary, _ = toy_encode(scene, enc)
        pooled = roi_align_pooled(primary, [box])[0]
        sig = pooled[: scene.n_categories]
        names = vocabulary(scene.n_categories)
        assert names[int(np.argmax(sig))] == cat


def test_aux_levels_share_texture_between_paired_categories():
    cfg = SceneConfig(n_categories=4, min_objects=1, max_objects=1, clutter_density=0.0)
    scene = generate_scene(3, cfg)
    (cat, box), = scene.objects
    _, aux = toy_encode(scene)
    names = vocabulary(4)
    group = names.index(cat) // 2
    pooled = roi_align_pooled(aux[0], [box])[0]
    n_groups = (4 + 1) // 2
    assert int(np.argmax(pooled[:n_groups])) == group


# -------------------------------------------------------------- proposals

def test_noiseless_proposals_equal_ground_truth():
    scene = generate_scene(11, SceneConfig())
    cfg = ProposalSimConfig(jitter_sigma=0.0, drop_rate=0.0, clutter_rate=0.0)
    props = simulate_opn(scene, cfg, seed=0)
    gt = [b for _, b in scene.objects]
    assert len(props) == len(gt)
    for p, g in zip(props, gt):
        assert (p.x1, p.y1, p.x2, p.y2) == (g.x1, g.y1, g.x2, g.y2)
        assert p.score == 1.0
    for thr in (0.5, 0.75, 0.95):
        assert box_recall(props, gt, thr) == 1.0


def test_full_drop_leaves_only_clutter():
    scene = generate_scene(12, SceneConfig())
    cfg = ProposalSimConfig(jitter_sigma=0.0, drop_rate=1.0, clutter_rate=3.0)
    props = simulate_opn(scene, cfg, seed=1)
    gt_coords = {(b.x1, b.y1, b.x2, b.y2) for _, b in scene.objects}
    for p in props:
        assert (p.x1, p.y1, p.x2, p.y2) not in gt_coords
        assert p.score <= 0.3


def test_proposals_sorted_and_truncated():
    scene = generate_scene(13, SceneConfig())
    cfg = ProposalSimConfig(jitter_sigma=0.02, drop_rate=0.0, clutter_rate=20.0, max_proposals=10)
    props = simulate_opn(scene, cfg, seed=2)
    assert len(props) == 10
    scores = [p.score for p in props]
    assert scores == sorted(scores, reverse=True)


def test_jitter_recall_matches_monte_carlo_oracle():
    """Measured recall@IoU0.5 under jitter agrees with an independent
    Monte-Carlo estimate of the same jitter model within 2 percent."""
    sigma = 0.02
    scene_cfg = SceneConfig()
    prop_cfg = ProposalSimConfig(jitter_sigma=sigma, drop_rate=0.0, clutter_rate=0.0)

    hits = 0
    total = 0
    for seed in range(500):
        scene = generate_scene(seed, scene_cfg)
        props = simulate_opn(scene, prop_cfg, seed=10_000 + seed)
        for _, g in scene.objects:
            total += 1
            if any(iou(p, g) >= 0.5 for p in props):
                hits += 1
    measured = hits / total

    # independent oracle: directly perturb the same ground-truth boxes
    rng = np.random.default_rng(77)
    mc_hits = 0
    mc_total = 0
    for seed in range(500):
        scene = generate_scene(seed, scene_cfg)
        for _, g in scene.objects:
            mc_total += 1
            j = rng.normal(0, sigma, size=4)
            x1, y1, x2, y2 = np.clip([g.x1 + j[0], g.y1 + j[1], g.x2 + j[2], g.y2 + j[3]], 0, 1)
            x1, x2 = sorted((x1, x2))
            y1, y2 = sorted((y1, y2))
            if iou(Box(x1, y1, x2, y2), g) >= 0.5:
                mc_hits += 1
    expected = mc_hits / mc_total
    assert abs(measured - expected) < 0.02


# ------------------------------------------------------------ training set

def test_rejection_fraction_zero_all_present():
    samples = make_training_set(50, rejection_fraction=0.0, seed=1)
    for s in samples:
        present = set(s.scene.present_categories)
        assert all(q in present for q in s.queries)
        assert not s.is_rejection


def test_rejection_fraction_binomial_bound():
    n = 1000
    samples = make_training_set(n, rejection_fraction=0.2, seed=2)
    count = sum(s.is_rejection for s in samples)
    sigma = np.sqrt(n * 0.2 * 0.8)
    assert abs(count - 0.2 * n) < 3 * sigma


def test_rejection_queries_have_all_negative_targets():
    samples = make_training_set(100, rejection_fraction=0.5, seed=3)
    saw_rejection = False
    for s in samples:
        present = set(s.scene.present_categories)
        for q_idx, q in enumerate(s.queries):
            if q not in present:
                saw_rejection = True
                assert np.all(s.targets[:, q_idx] == 0.0)
    assert saw_rejection


def test_targets_mark_overlapping_same_category_proposals():
    samples = make_training_set(20, rejection_fraction=0.0, seed=4,
                                proposal_config=ProposalSimConfig(jitter_sigma=0.0, drop_rate=0.0, clutter_rate=0.0))
    for s in samples:
        for q_idx, q in enumerate(s.queries):
            gt = s.scene.boxes_of(q)
            for i, p in enumerate(s.proposals):
                expect = 1.0 if any(iou(p, g) > 0.5 for g in gt) else 0.0
                assert s.targets[i, q_idx] == expect


def test_target_assignment_symmetric_under_proposal_order():
    from regionkit.simworld import assignment_targets

    rng = np.random.default_rng(8)
    scene = generate_scene(17, SceneConfig())
    props = simulate_opn(scene, ProposalSimConfig(jitter_sigma=0.02, clutter_rate=3.0), seed=4)
    queries = list(scene.present_categories)
    base = assignment_targets(props, scene, queries)
    perm = rng.permutation(len(props))
    permuted = assignment_targets([props[i] for i in perm], scene, queries)
    np.testing.assert_array_equal(permuted, base[perm])


def test_training_set_deterministic():
    a = make_training_set(10, seed=5)
    b = make_training_set(10, seed=5)
    for x, y in zip(a, b):
        assert x.scene == y.scene
        assert x.proposals == y.proposals
        assert x.queries == y.queries
        np.testing.assert_array_equal(x.targets, y.targets)


def test_proposal_config_validation():
    with pytest.raises(ValueError):
        ProposalSimConfig(drop_rate=1.5)
    with pytest.raises(ValueError):
        ProposalSimConfig(max_proposals=0)
    with pytest.raises(ValueError):
        ProposalSimConfig(jitter_sigma=-0.1)
