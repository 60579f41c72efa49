"""Evaluation metrics against the naive reference evaluator."""

import itertools

import numpy as np
import pytest

from naive_eval import naive_report
from regionkit import metrics
from regionkit.metrics import (
    COCO_IOU_THRESHOLDS,
    EvalReport,
    box_recall,
    coco_map,
    counting_accuracy,
    iou,
)
from regionkit.retrieval import Detection
from regionkit.roialign import Box


def B(x1, y1, x2, y2):
    return Box(x1, y1, x2, y2)


def D(box, label, conf):
    return Detection(box=box, label=label, confidence=conf, source_region=0)


# --------------------------------------------------------------------- IoU

def test_iou_identical():
    assert iou(B(0.1, 0.1, 0.5, 0.5), B(0.1, 0.1, 0.5, 0.5)) == 1.0


def test_iou_disjoint():
    assert iou(B(0, 0, 0.2, 0.2), B(0.5, 0.5, 0.9, 0.9)) == 0.0


def test_iou_hand_geometry_third():
    v = iou(B(0, 0, 0.5, 0.5), B(0, 0.25, 0.5, 0.75))
    assert abs(v - 1.0 / 3.0) < 1e-12


def test_iou_zero_union():
    assert iou(B(0.3, 0.3, 0.3, 0.3), B(0.3, 0.3, 0.3, 0.3)) == 0.0


# ---------------------------------------------------------------------- AP

def single_category_ap(dets, gt, thr):
    """``coco_map``'s AP at one IoU threshold for detections of one category
    given as (image_id, box, confidence) and its boxes per image."""
    detections = {}
    for img, box, conf in dets:
        detections.setdefault(img, []).append(D(box, "c", conf))
    truth = {img: [("c", b) for b in boxes] for img, boxes in gt.items()}
    return coco_map(detections, truth).ap_per_iou[thr]


def test_ap_perfect_single():
    gt = {0: [B(0.1, 0.1, 0.4, 0.4)]}
    dets = [(0, B(0.1, 0.1, 0.4, 0.4), 0.9)]
    assert single_category_ap(dets, gt, 0.5) == 1.0


def test_ap_no_detections():
    assert single_category_ap([], {0: [B(0.1, 0.1, 0.4, 0.4)]}, 0.5) == 0.0


def test_ap_two_gt_one_true_positive_is_51_over_101():
    gt = {0: [B(0.1, 0.1, 0.3, 0.3), B(0.6, 0.6, 0.9, 0.9)]}
    dets = [(0, B(0.1, 0.1, 0.3, 0.3), 0.8)]
    ap = single_category_ap(dets, gt, 0.5)
    assert abs(ap - 51.0 / 101.0) < 1e-12


def test_ap_rescaling_invariance():
    rng = np.random.default_rng(0)
    gt = {0: [B(0.0, 0.0, 0.3, 0.3), B(0.5, 0.5, 0.8, 0.8)], 1: [B(0.2, 0.2, 0.6, 0.6)]}
    dets = []
    for img in (0, 1):
        for _ in range(4):
            x1, y1 = rng.uniform(0, 0.5, size=2)
            dets.append((img, B(x1, y1, x1 + 0.3, y1 + 0.3), float(rng.uniform(0.1, 0.9))))
    base = single_category_ap(dets, gt, 0.5)
    scaled = [(img, b, c * 0.37) for img, b, c in dets]
    assert single_category_ap(scaled, gt, 0.5) == base


def test_ap_monotone_in_threshold():
    rng = np.random.default_rng(1)
    gt = {0: [B(0.1, 0.1, 0.45, 0.45), B(0.5, 0.5, 0.85, 0.85)]}
    dets = [
        (0, B(0.12, 0.1, 0.44, 0.46), 0.9),
        (0, B(0.55, 0.5, 0.8, 0.86), 0.8),
        (0, B(0.3, 0.3, 0.6, 0.6), 0.7),
    ]
    aps = [single_category_ap(dets, gt, t) for t in COCO_IOU_THRESHOLDS]
    for a, b in zip(aps, aps[1:]):
        assert b <= a + 1e-12


def _interpolated_ap_per_point(tp: np.ndarray, n_gt: int) -> float:
    """The oracle: at each recall point, the max precision over the ranks
    that reach it, summed left to right."""
    if n_gt == 0:
        return 0.0
    if len(tp) == 0:
        return 0.0
    cum_tp = np.cumsum(tp)
    cum_fp = np.cumsum(1.0 - tp)
    recall = cum_tp / n_gt
    precision = cum_tp / (cum_tp + cum_fp)
    ap = 0.0
    for r in metrics.RECALL_POINTS:
        mask = recall >= r
        ap += precision[mask].max() if mask.any() else 0.0
    return ap / len(metrics.RECALL_POINTS)


def test_interpolated_ap_equals_the_per_point_oracle():
    rng = np.random.default_rng(19)
    cases = [(np.zeros(0), 3), (np.ones(4), 0), (np.zeros(5), 2), (np.ones(3), 3), (np.ones(1), 100)]
    for _ in range(2000):
        tp = (rng.random(int(rng.integers(1, 60))) < rng.random()).astype(float)
        cases.append((tp, int(tp.sum()) + int(rng.integers(0, 8))))
    for tp, n_gt in cases:
        got, want = metrics._interpolated_ap(tp, n_gt), _interpolated_ap_per_point(tp, n_gt)
        assert float.hex(float(got)) == float.hex(float(want)), (tp, n_gt)


# ----------------------------------------------------------------- reports

def _scene_records():
    gt = {
        0: [("car", B(0.1, 0.1, 0.4, 0.4)), ("car", B(0.6, 0.6, 0.9, 0.9)), ("dog", B(0.2, 0.5, 0.5, 0.8))],
        1: [("dog", B(0.3, 0.3, 0.7, 0.7))],
    }
    return gt


def test_perfect_detections_score_one():
    gt = _scene_records()
    dets = {
        img: [D(b, c, 0.9) for c, b in recs]
        for img, recs in gt.items()
    }
    report = coco_map(dets, gt)
    assert report.ap_mean == 1.0
    assert report.recall == 1.0
    assert set(report.per_category) == {"car", "dog"}


def test_empty_detections_zero_report():
    report = coco_map({0: [], 1: []}, _scene_records())
    assert report.ap_mean == 0.0
    assert report.recall == 0.0


def test_unknown_category_rejected():
    gt = _scene_records()
    dets = {0: [D(B(0.1, 0.1, 0.4, 0.4), "spaceship", 0.9)], 1: []}
    with pytest.raises(ValueError):
        coco_map(dets, gt)


def test_explicit_vocabulary_allows_absent_categories():
    gt = _scene_records()
    dets = {0: [D(B(0.1, 0.1, 0.4, 0.4), "tree", 0.9)], 1: []}
    report = coco_map(dets, gt, categories=["car", "dog", "tree"])
    assert "tree" not in report.per_category


def test_category_named_twice_is_scored_twice():
    """A vocabulary that names a category twice scores it each time, so the
    macro averages weigh it double."""
    gt = _scene_records()
    dets = {0: [D(B(0.1, 0.1, 0.4, 0.4), "car", 0.9), D(B(0.2, 0.5, 0.5, 0.8), "dog", 0.8)],
            1: [D(B(0.35, 0.3, 0.7, 0.7), "dog", 0.7)]}
    once = coco_map(dets, gt, categories=["car", "dog"])
    twice = coco_map(dets, gt, categories=["car", "dog", "car"])
    assert twice.per_category == once.per_category
    car, dog = once.per_category["car"], once.per_category["dog"]
    assert car != dog
    assert twice.ap_mean == pytest.approx((2 * car + dog) / 3, rel=1e-12)


def test_report_invariants_enforced():
    full = {t: 0.4 for t in COCO_IOU_THRESHOLDS}
    assert EvalReport(ap_per_iou=full, ap_mean=0.4, recall=0.5).tsv_line()
    with pytest.raises(ValueError, match="not the mean"):
        EvalReport(ap_per_iou=full, ap_mean=0.9, recall=0.5)
    with pytest.raises(ValueError, match="must lie in"):
        EvalReport(ap_per_iou={**full, 0.5: 1.2}, ap_mean=0.48, recall=0.5)
    # a partial or empty AP table, which tsv_line could not write
    for partial in ({0.5: 0.4}, {0.5: 0.4, 0.55: 0.6}, {}):
        with pytest.raises(ValueError, match="exactly the IoU thresholds"):
            EvalReport(ap_per_iou=partial, ap_mean=0.4, recall=0.5)


def test_report_tsv_shape():
    report = coco_map({0: []}, {0: [("car", B(0.1, 0.1, 0.4, 0.4))]})
    header = EvalReport.tsv_header().split("\t")
    line = report.tsv_line().split("\t")
    # ap_mean, recall, then one AP column per IoU threshold
    assert len(header) == len(line) == 12
    assert "counting_accuracy" not in header
    assert "counting_accuracy" not in report.to_json()


# ------------------------------------------------- naive-evaluator sweep

def _tiny_cases():
    """Small single-category layouts with every confidence ordering."""
    g1 = B(0.05, 0.05, 0.3, 0.3)
    g2 = B(0.4, 0.4, 0.7, 0.7)
    g3 = B(0.75, 0.1, 0.95, 0.35)
    near_g1 = B(0.08, 0.05, 0.32, 0.31)
    off = B(0.1, 0.65, 0.3, 0.9)
    layouts = [
        ([g1], [g1]),
        ([g1], [near_g1, off]),
        ([g1, g2], [g1]),
        ([g1, g2], [g1, g1, off]),
        ([g1, g2, g3], [near_g1, g2, off]),
        ([g1], []),
        ([g1, g2], [off, off]),
    ]
    for gts, det_boxes in layouts:
        n = len(det_boxes)
        for perm in itertools.permutations(range(n)):
            confs = [0.9 - 0.1 * perm[i] for i in range(n)]
            yield gts, list(zip(det_boxes, confs))


def test_coco_map_matches_naive_reference_on_small_sweep():
    for gts, dets in _tiny_cases():
        gt = {0: [("obj", b) for b in gts]}
        det_map = {0: [D(b, "obj", c) for b, c in dets]}
        report = coco_map(det_map, gt)
        naive = naive_report({0: [("obj", b, c) for b, c in dets]}, gt)
        assert abs(report.ap_mean - naive["ap_mean"]) < 1e-9
        assert abs(report.recall - naive["recall"]) < 1e-9
        for thr in COCO_IOU_THRESHOLDS:
            assert abs(report.ap_per_iou[thr] - naive["ap_per_iou"][thr]) < 1e-9


def test_coco_map_matches_naive_on_random_multi_category():
    rng = np.random.default_rng(5)
    for _ in range(20):
        gt = {}
        dets = {}
        for img in range(2):
            recs = []
            drecs = []
            for _ in range(int(rng.integers(0, 4))):
                x1, y1 = rng.uniform(0, 0.6, size=2)
                w, h = rng.uniform(0.1, 0.35, size=2)
                cat = str(rng.choice(["a", "b"]))
                recs.append((cat, B(x1, y1, min(1, x1 + w), min(1, y1 + h))))
            for _ in range(int(rng.integers(0, 5))):
                x1, y1 = rng.uniform(0, 0.6, size=2)
                w, h = rng.uniform(0.1, 0.35, size=2)
                cat = str(rng.choice(["a", "b"]))
                drecs.append((cat, B(x1, y1, min(1, x1 + w), min(1, y1 + h)), float(rng.uniform(0.05, 0.95))))
            gt[img] = recs
            dets[img] = drecs
        if not any(gt.values()):
            continue
        known = sorted({c for recs in gt.values() for c, _ in recs})
        det_map = {img: [D(b, c, s) for c, b, s in recs if c in known] for img, recs in dets.items()}
        naive_in = {img: [(c, b, s) for c, b, s in recs if c in known] for img, recs in dets.items()}
        report = coco_map(det_map, gt)
        naive = naive_report(naive_in, gt)
        assert abs(report.ap_mean - naive["ap_mean"]) < 1e-9


def test_coco_map_matches_naive_with_absent_truths_and_unmatched_detections():
    """Images without a category's truth, or without any, that still hold
    detections of it; detections that overlap no truth, or too little to
    match; several detections near one truth: all as the naive evaluator
    counts them."""
    rng = np.random.default_rng(31)
    g1, g2 = B(0.1, 0.1, 0.4, 0.4), B(0.5, 0.5, 0.9, 0.8)
    fixed_gt = {0: [("a", g1)], 1: [("b", g2)], 2: [], 3: [("a", g2), ("b", g1)]}
    fixed_dets = {
        0: [("a", B(0.3, 0.3, 0.6, 0.6), 0.9), ("b", g1, 0.8)],  # IoU 1/17 with its truth; no b truth here
        1: [("a", g2, 0.95), ("b", B(0.52, 0.5, 0.9, 0.8), 0.6)],  # no a truth here
        2: [("a", g1, 0.7), ("b", g2, 0.7)],  # an image with no truth at all
        3: [("a", B(0.0, 0.85, 0.1, 0.95), 0.5), ("a", g2, 0.4), ("a", B(0.51, 0.5, 0.9, 0.8), 0.4)],
    }
    cases = [(fixed_dets, fixed_gt)]
    for _ in range(60):
        gt, dets = {}, {}
        for img in range(5):
            truths = []
            for _ in range(int(rng.integers(0, 3))):
                x1, y1 = rng.uniform(0, 0.6, size=2)
                w, h = rng.uniform(0.1, 0.35, size=2)
                truths.append((str(rng.choice(["a", "b"])), B(x1, y1, x1 + w, y1 + h)))
            found = []
            for _ in range(int(rng.integers(0, 5))):
                if truths and rng.uniform() < 0.6:  # near a truth, perhaps under another label
                    c, t = truths[int(rng.integers(len(truths)))]
                    dx, dy = rng.normal(0.0, 0.04, size=2)
                    box = B(max(0.0, t.x1 + dx), max(0.0, t.y1 + dy), min(1.0, t.x2 + dx), min(1.0, t.y2 + dy))
                    c = c if rng.uniform() < 0.8 else str(rng.choice(["a", "b"]))
                else:
                    x1, y1 = rng.uniform(0, 0.9, size=2)
                    box, c = B(x1, y1, x1 + 0.1, y1 + 0.1), str(rng.choice(["a", "b"]))
                found.append((c, box, float(rng.choice([0.3, 0.6, 0.9]))))
            gt[img], dets[img] = truths, found
        if {c for recs in gt.values() for c, _ in recs} == {"a", "b"}:
            cases.append((dets, gt))
    assert len(cases) > 30
    for dets, gt in cases:
        report = coco_map({img: [D(b, c, s) for c, b, s in recs] for img, recs in dets.items()}, gt)
        naive = naive_report(dets, gt)
        assert abs(report.ap_mean - naive["ap_mean"]) < 1e-9
        assert abs(report.recall - naive["recall"]) < 1e-9
        for thr in COCO_IOU_THRESHOLDS:
            assert abs(report.ap_per_iou[thr] - naive["ap_per_iou"][thr]) < 1e-9


def oracle_match(dets, gts, thr):
    """``metrics._match`` as it was: one threshold per call, every IoU
    computed again at each."""
    n_gt = sum(len(v) for v in gts.values())
    order = sorted(range(len(dets)), key=lambda i: (-dets[i][2], i))
    matched = {img: set() for img in gts}
    tp = np.zeros(len(dets))
    for rank, i in enumerate(order):
        img, box, _conf = dets[i]
        candidates = gts.get(img, [])
        best_iou, best_j = 0.0, -1
        for j, g in enumerate(candidates):
            if j in matched.get(img, set()):
                continue
            v = iou(box, g)
            if v > best_iou:
                best_iou, best_j = v, j
        if best_j >= 0 and best_iou >= thr:
            matched[img].add(best_j)
            tp[rank] = 1.0
    return tp, n_gt


def test_coco_map_equals_matching_each_threshold_on_its_own(monkeypatch):
    """One IoU pass for all ten thresholds gives reports equal to matching
    each threshold with its own IoUs, with tied confidences, repeated boxes
    and equal IoUs."""
    rng = np.random.default_rng(17)
    # exact binary fractions, so that IoUs tie exactly: boxes of one size a
    # step apart (one between two others has equal IoUs with both), and
    # half boxes (IoU 0.5 with the whole)
    grid = [B(x, y, x + w, y + h) for x in (0.0, 0.125, 0.25, 0.375) for y in (0.0, 0.125)
            for w in (0.5, 0.625) for h in (w, w / 2)]

    def box():
        if rng.uniform() < 0.7:
            return grid[int(rng.integers(len(grid)))]
        x1, y1 = rng.uniform(0, 0.5, size=2)
        return B(x1, y1, x1 + rng.uniform(0.1, 0.5), y1 + rng.uniform(0.1, 0.5))

    def cat():
        return str(rng.choice(["a", "b"]))

    cases = []
    for _ in range(300):
        gt = {img: [(cat(), box()) for _ in range(int(rng.integers(0, 5)))] for img in range(3)}
        dets = {img: [D(box(), cat(), float(rng.choice([0.3, 0.5, 0.7]))) for _ in range(int(rng.integers(0, 7)))]
                for img in range(3)}
        cases.append((dets, gt))
    # the middle detection ties between both truths, and which it takes
    # decides the second at IoU 0.65 to 0.75; a half box has IoU 0.5
    g1, g2, mid = B(0.0, 0.0, 0.5, 0.5), B(0.125, 0.0, 0.625, 0.5), B(0.0625, 0.0, 0.5625, 0.5)
    cases.append(({0: [D(mid, "a", 0.9), D(g1, "a", 0.5)]}, {0: [("a", g1), ("a", g2)]}))
    cases.append(({0: [D(B(0.0, 0.0, 0.5, 0.25), "a", 0.9)]}, {0: [("a", g1)]}))
    got = [coco_map(dets, gt, categories=["a", "b"]) for dets, gt in cases]
    monkeypatch.setattr(
        metrics, "_match", lambda dets, gts: {thr: oracle_match(dets, gts, thr)[0] for thr in COCO_IOU_THRESHOLDS}
    )
    want = [coco_map(dets, gt, categories=["a", "b"]) for dets, gt in cases]
    assert got == want
    assert len({r.ap_mean for r in want}) > 20  # the cases reach many different reports


# --------------------------------------------------------------- counting

def test_counting_accuracy_cases():
    assert counting_accuracy([1, 2, 3], [1, 2, 3]) == 1.0
    assert counting_accuracy([0, 0], [1, 2]) == 0.0
    assert counting_accuracy([1, 2, 3, 5], [1, 2, 3, 4]) == 0.75
    with pytest.raises(ValueError):
        counting_accuracy([1], [1, 2])
    with pytest.raises(ValueError, match="no counts"):
        counting_accuracy([], [])


# ------------------------------------------------------------- box recall

def test_box_recall_basics():
    gt = [B(0.1, 0.1, 0.4, 0.4), B(0.6, 0.6, 0.9, 0.9)]
    assert box_recall(gt, gt, 0.95) == 1.0
    assert box_recall([gt[0]], gt, 0.5) == 0.5
    assert box_recall([], gt, 0.5) == 0.0
    assert box_recall([], [], 0.5) == 1.0
