"""Acceptance suite.

One test per criterion, each printing a PASS/FAIL line (run with
``pytest tests/test_acceptance.py -v -s`` to see them live).  Training-heavy
criteria share the session-scoped default seed-7 run and the default
five-seed ablation.
"""

import functools
import itertools
import time

import numpy as np
import pytest

from grammar_tools import mutate_invalid, random_response
from naive_eval import naive_report
from regionkit.config import ExperimentConfig
from regionkit.experiments import (
    make_eval_scenes,
    recall_ceiling_check,
    rejection_stats,
    counting_stats,
)
from regionkit.baseline import regression_baseline_eval, train_baseline
from regionkit.gridops import FeatureMap
from regionkit.metrics import COCO_IOU_THRESHOLDS, coco_map
from regionkit.pyramid import (
    SimpleFPParams,
    aux_fuse,
    aux_fuse_size,
    aux_fuse_taps,
    simple_fp,
    simple_fp_sizes,
    simple_fp_taps,
)
from regionkit.regionenc import positional_embedding_matrix
from regionkit.retrieval import Detection
from regionkit.roialign import (
    Box,
    RoiConfig,
    apply_taps,
    pooled_axis_weight_table,
    pooled_taps,
    roi_align,
    roi_align_pooled,
)
from regionkit.simworld import EncoderConfig, ProposalSimConfig, SceneConfig
from regionkit.tokenproto import ParseError, parse_grounded, serialize_grounded
from regionkit.training import (
    GROUP_AUX,
    GROUP_CONNECTOR,
    GROUP_NEW_VOCAB,
    GROUP_ORIG_VOCAB,
    GROUP_PRIMARY,
    GROUP_SIMPLEFP,
    ModelParams,
    grad_check,
    init_model_params,
)
from test_roialign import oracle_roi_align, random_box


def _report(num: int, ok: bool, detail: str):
    print(f"ACCEPTANCE {num:02d}: {'PASS' if ok else 'FAIL'} - {detail}")
    assert ok, detail


def test_criterion_01_roialign_oracle_equivalence():
    rng = np.random.default_rng(42)
    cfg = RoiConfig()
    start = time.time()
    worst = worst_pooled = 0.0
    for _ in range(200):
        data = rng.normal(size=(3, 8, 8))
        box = random_box(rng)
        want = oracle_roi_align(data, box, cfg)
        got = roi_align(FeatureMap.from_array(data), box, cfg).data
        worst = max(worst, float(np.max(np.abs(got - want))))
        # the per-axis path the system pools with, against the oracle's bin mean
        a_y, a_x = pooled_axis_weight_table([(8, 8)], [box], cfg)[8, 8]
        pooled = pooled_taps(data, a_y[:, None], a_x[:, None])[0]
        worst_pooled = max(worst_pooled, float(np.max(np.abs(pooled - want.mean(axis=(1, 2))))))
    elapsed = time.time() - start
    _report(1, worst < 1e-9 and worst_pooled < 1e-9 and elapsed < 5.0,
            f"200 random cases, max |diff| vs naive oracle {worst:.2e} (roi_align), "
            f"{worst_pooled:.2e} (pooled_axis_weight_table + pooled_taps), {elapsed:.1f}s")


def test_criterion_02_gradient_verification():
    cfg = ExperimentConfig(
        seed=3,
        world=SceneConfig(n_categories=4, min_objects=2, max_objects=3),
        proposals=ProposalSimConfig(jitter_sigma=0.01, drop_rate=0.0, clutter_rate=1.0, max_proposals=8),
        encoder=EncoderConfig(primary_resolution=8, aux_base_resolution=16),
        fp_channels=2,
        d_llm=8,
    )
    start = time.time()
    report = grad_check(cfg)
    elapsed = time.time() - start
    required = {GROUP_CONNECTOR, GROUP_NEW_VOCAB, GROUP_AUX}
    ok = (
        required <= set(report.per_group)
        and report.max_rel_error < 1e-4
        and elapsed < 30.0
    )
    _report(2, ok, f"max rel err {report.max_rel_error:.2e} over "
                   f"{sorted(report.per_group)} in {elapsed:.1f}s")


def test_criterion_03_grammar_round_trip_and_fuzz():
    rng = np.random.default_rng(2024)
    n = 10_000
    for _ in range(n):
        resp = random_response(rng)
        s = serialize_grounded(resp)
        assert serialize_grounded(parse_grounded(s, 16)) == s
    errors = 0
    for _ in range(n):
        base = serialize_grounded(random_response(rng))
        mutant = mutate_invalid(rng, base, 16)
        try:
            parse_grounded(mutant, 16)
        except ParseError as exc:
            assert isinstance(exc.offset, int) and exc.production
            errors += 1
    _report(3, errors == n, f"{n} round-trips byte-identical; {errors}/{n} mutants raised structured errors")


def test_criterion_04_reference_dimension_contract():
    rng = np.random.default_rng(0)
    h = 8
    params = SimpleFPParams.seeded(512, 512, rng)
    last = FeatureMap.from_array(rng.normal(size=(512, h, h)) * 0.1)
    levels = simple_fp(last, params)
    shapes = [lv.shape for lv in levels]
    shape_ok = shapes == [(512, h // 2, h // 2), (512, h, h), (512, 2 * h, 2 * h), (512, 4 * h, 4 * h)]

    aux_maps = [
        FeatureMap.from_array(rng.normal(size=(c, s, s)) * 0.1)
        for c, s in zip((256, 512, 1024, 2048), (16, 8, 4, 2))
    ]
    fused = aux_fuse(aux_maps)
    boxes = [Box(0.1, 0.2, 0.6, 0.7), Box(0.3, 0.1, 0.9, 0.5)]
    f_pri = np.concatenate([roi_align_pooled(level, boxes) for level in levels], axis=1)
    f_aux = roi_align_pooled(fused, boxes)
    d_total = f_pri.shape[1] + f_aux.shape[1]
    f_hybrid = np.concatenate([f_pri, f_aux], axis=1) + positional_embedding_matrix(boxes, d_total)
    dims_ok = (
        f_pri.shape == (2, 2048)
        and f_aux.shape == (2, 3840)
        and all(row.shape == (5888,) for row in f_hybrid)
    )

    # the factored path the system runs: pooled taps of the primary map,
    # which the paper-scale identity primary mix leaves as it is, and of
    # each aux map with a ones channel for its mix bias, contracted with
    # the effective kernels
    def with_ones(data):
        return np.concatenate([data, np.ones((1,) + data.shape[1:])])

    def identity_mix(c):
        return np.eye(c, c + 1)

    # the branch arrays stored as the trainer stores them, each kernel one block
    fp = ModelParams({GROUP_SIMPLEFP: {f"{b}_{part}": getattr(k, attr) for b, k in params.kernels.items()
                                       for part, attr in (("w", "weights"), ("b", "bias"))}})
    fuse_size = aux_fuse_size([(m.height, m.width) for m in aux_maps])
    weights = pooled_axis_weight_table(simple_fp_sizes(h, h) + [fuse_size], boxes)
    pri_taps = simple_fp_taps(last.data, weights)
    aux_taps = aux_fuse_taps([with_ones(m.data) for m in aux_maps], weights)
    # each branch's kernel block times its taps; up4_b's taps are up4_a's
    # output per box, then the row-sum column
    kernel = functools.partial(fp.kernel, GROUP_SIMPLEFP)
    *level_taps, up4_block, up4_sum = pri_taps
    pooled = [apply_taps(t, kernel(b)) for t, b in zip(level_taps, ("down", "same", "up2"))]
    mid = apply_taps(up4_block, kernel("up4_a")).reshape(len(boxes), -1)
    pooled.append(apply_taps(np.concatenate([mid, up4_sum], axis=1), kernel("up4_b")))
    p_pri = np.concatenate(pooled, axis=1)
    p_aux = np.concatenate([apply_taps(t, identity_mix(m.channels)) for t, m in zip(aux_taps, aux_maps)], axis=1)
    factored_diff = max(float(np.max(np.abs(p_pri - f_pri))), float(np.max(np.abs(p_aux - f_aux))))
    factored_ok = p_pri.shape == (2, 2048) and p_aux.shape == (2, 3840) and factored_diff <= 1e-12
    _report(4, shape_ok and dims_ok and factored_ok,
            f"SimpleFP scales {shapes}; D_p=2048, D_a=3840, f_hybrid length "
            f"{f_hybrid[0].shape[0]}; factored path D_p={p_pri.shape[1]}, D_a={p_aux.shape[1]}, "
            f"max |diff| {factored_diff:.1e} vs dense")


def test_criterion_05_freeze_schedule_bitwise(trained_default):
    _, log = trained_default
    ok = True
    for group in (GROUP_PRIMARY, GROUP_ORIG_VOCAB):
        ok &= (
            log.checksums["init"][group]
            == log.checksums["after_stage1"][group]
            == log.checksums["after_stage2"][group]
        )
    _report(5, ok, "primary-encoder and original-embedding groups bitwise constant across both stages")


def test_criterion_06_recall_ceiling_invariant():
    rng = np.random.default_rng(99)
    scenes_checked = 0
    ok = True
    while scenes_checked < 200:
        cfg = ExperimentConfig(
            seed=int(rng.integers(100_000)),
            world=SceneConfig(n_categories=4, min_objects=1, max_objects=4),
            proposals=ProposalSimConfig(
                jitter_sigma=float(rng.uniform(0, 0.06)),
                drop_rate=float(rng.uniform(0, 0.7)),
                clutter_rate=float(rng.uniform(0, 5)),
                max_proposals=int(rng.integers(4, 16)),
            ),
            encoder=EncoderConfig(primary_resolution=8, aux_base_resolution=16),
            fp_channels=2,
            d_llm=8,
            threshold=float(rng.uniform(0.2, 0.8)),
            n_eval_scenes=10,
        )
        params = init_model_params(cfg)
        eval_scenes = make_eval_scenes(cfg)
        ok &= recall_ceiling_check(params, cfg, eval_scenes)
        scenes_checked += len(eval_scenes)
    _report(6, ok, f"detection recall <= proposal recall at all 10 IoU thresholds over {scenes_checked} scenes")


def test_criterion_07_head_to_head_five_seeds(default_config, default_ablation):
    """The retrieval APs are the default ablation's hybrid row: the same
    configs, seeds and held-out scenes, so those models train only once."""
    retrieval_aps = {r.variant: r.ap_per_seed for r in default_ablation}["hybrid"]
    start = time.time()
    results = []
    for offset, retrieval_ap in enumerate(retrieval_aps):
        cfg = default_config.replace(seed=default_config.seed + offset)
        eval_scenes = make_eval_scenes(cfg)
        head, _ = train_baseline(cfg)
        baseline = regression_baseline_eval(head, [e.scene for e in eval_scenes], cfg)
        results.append((cfg.seed, retrieval_ap, baseline.ap_mean))
    elapsed = time.time() - start
    ok = all(r >= 0.60 and (r - b) >= 0.15 for _, r, b in results) and elapsed < 600
    detail = "; ".join(f"seed {s}: retrieval {r:.3f} vs baseline {b:.3f}" for s, r, b in results)
    _report(7, ok, f"{detail} ({elapsed:.0f}s)")


def test_criterion_08_ablation_orderings(default_ablation):
    rows = {r.variant: r.ap_mean for r in default_ablation}
    ok = (
        rows["hybrid"] >= rows["primary_only"]
        and rows["hybrid"] >= rows["auxiliary_only"]
        and rows["primary_only"] >= rows["primary_only_no_fp"]
        and rows["primary_only_no_fp"] == min(rows["primary_only"], rows["primary_only_no_fp"])
    )
    _report(8, ok, "mean AP over 5 seeds: " + ", ".join(f"{k}={v:.3f}" for k, v in rows.items()))


def test_criterion_09_rejection_and_counting(default_config, trained_default):
    params, _ = trained_default
    rej = rejection_stats(params, default_config)
    cnt = counting_stats(params, default_config)
    ok = rej["fp_rate"] < 0.05 and cnt["accuracy"] >= 0.90
    _report(9, ok,
            f"absent-category FP rate {rej['fp_rate']:.3f} over {int(rej['n_queries'])} queries; "
            f"detect-then-count accuracy {cnt['accuracy']:.3f} on the noiseless world")


def _sweep_layouts():
    g = [
        Box(0.05, 0.05, 0.25, 0.25),
        Box(0.35, 0.05, 0.55, 0.3),
        Box(0.65, 0.1, 0.9, 0.35),
        Box(0.1, 0.55, 0.4, 0.85),
    ]
    near = Box(0.07, 0.05, 0.27, 0.26)
    off = Box(0.6, 0.6, 0.8, 0.85)
    yield g[:1], [g[0]]
    yield g[:2], [g[0]]                          # the 51/101 configuration
    yield g[:2], [near, off]
    yield g[:3], [g[0], g[1], off, near]
    yield g[:4], [g[0], g[1], g[2], g[3], off, near]
    yield g[:1], []
    yield g[:4], [off, off, near]


def test_criterion_10_map_evaluator_equivalence():
    worst = 0.0
    checked = 0
    for gts, det_boxes in _sweep_layouts():
        n = len(det_boxes)
        for perm in itertools.permutations(range(n)):
            confs = [0.9 - 0.12 * perm[i] for i in range(n)]
            gt = {0: [("obj", b) for b in gts]}
            dets = {0: [Detection(box=b, label="obj", confidence=c, source_region=0)
                        for b, c in zip(det_boxes, confs)]}
            report = coco_map(dets, gt)
            naive = naive_report({0: [("obj", b, c) for b, c in zip(det_boxes, confs)]}, gt)
            worst = max(worst, abs(report.ap_mean - naive["ap_mean"]))
            for thr in COCO_IOU_THRESHOLDS:
                worst = max(worst, abs(report.ap_per_iou[thr] - naive["ap_per_iou"][thr]))
            checked += 1

    # the two-ground-truth, one-true-positive staircase
    gt = {0: [("obj", Box(0.05, 0.05, 0.25, 0.25)), ("obj", Box(0.6, 0.6, 0.8, 0.8))]}
    dets = {0: [Detection(box=Box(0.05, 0.05, 0.25, 0.25), label="obj", confidence=0.9, source_region=0)]}
    ap = coco_map(dets, gt).ap_per_iou[0.5]
    fixture_ok = abs(ap - 51.0 / 101.0) < 1e-12
    _report(10, worst < 1e-9 and fixture_ok,
            f"{checked} exhaustive small cases within {worst:.1e} of the naive evaluator; "
            f"2GT/1TP AP = {ap:.6f} = 51/101")
