"""Detection evaluation: IoU, COCO-style AP/recall, counting accuracy.

Average precision follows the COCO convention: greedy one-to-one matching
in confidence order (each ground-truth box matched at most once, ties
between equal confidences resolved by original detection rank, ties
between ground-truth candidates by higher IoU), and 101-point interpolated
AP — the mean over recall thresholds {0.00, 0.01, ..., 1.00} of the
maximum precision at recall >= threshold.  Reports average AP over the ten
IoU thresholds 0.50:0.05:0.95 and recall at IoU 0.5, macro-averaged over
the categories present in the ground truth.
"""

from __future__ import annotations

from dataclasses import dataclass, field

import numpy as np

from .retrieval import Detection
from .roialign import Box

__all__ = [
    "COCO_IOU_THRESHOLDS",
    "EvalReport",
    "iou",
    "coco_map",
    "counting_accuracy",
    "box_recall",
]

COCO_IOU_THRESHOLDS = tuple(round(0.5 + 0.05 * i, 2) for i in range(10))

RECALL_POINTS = np.array([i / 100.0 for i in range(101)])


def iou(a: Box, b: Box) -> float:
    """Intersection over union of two boxes; 0 when the union is empty."""
    ax1, ay1, ax2, ay2, bx1, by1, bx2, by2 = a.x1, a.y1, a.x2, a.y2, b.x1, b.y1, b.x2, b.y2
    # min and max written out as the builtins pick; an axis that does not
    # overlap gives 0, as max(0, ...) there would
    ix = (bx2 if bx2 < ax2 else ax2) - (bx1 if bx1 > ax1 else ax1)
    iy = (by2 if by2 < ay2 else ay2) - (by1 if by1 > ay1 else ay1)
    if ix <= 0.0 or iy <= 0.0:
        return 0.0
    inter = ix * iy
    union = (ax2 - ax1) * (ay2 - ay1) + (bx2 - bx1) * (by2 - by1) - inter
    return inter / union if union > 0 else 0.0


@dataclass
class EvalReport:
    """Evaluation summary; every value lies in [0, 1]."""

    ap_per_iou: dict[float, float]
    ap_mean: float
    recall: float
    per_category: dict[str, float] = field(default_factory=dict)

    def __post_init__(self):
        values = list(self.ap_per_iou.values()) + [
            self.ap_mean,
            self.recall,
            *self.per_category.values(),
        ]
        if any(not (0.0 <= v <= 1.0) for v in values):
            raise ValueError("report values must lie in [0, 1]")
        if self.ap_per_iou:
            mean = sum(self.ap_per_iou.values()) / len(self.ap_per_iou)
            if abs(mean - self.ap_mean) > 1e-12:
                raise ValueError("ap_mean is not the mean of ap_per_iou")

    def to_json(self) -> dict:
        return {
            "ap_per_iou": {f"{t:.2f}": v for t, v in self.ap_per_iou.items()},
            "ap_mean": self.ap_mean,
            "recall": self.recall,
            "per_category": dict(self.per_category),
        }

    @staticmethod
    def tsv_header() -> str:
        cols = ["ap_mean", "recall"] + [f"ap@{t:.2f}" for t in COCO_IOU_THRESHOLDS]
        return "\t".join(cols)

    def tsv_line(self) -> str:
        cols = [self.ap_mean, self.recall] + [self.ap_per_iou[t] for t in COCO_IOU_THRESHOLDS]
        return "\t".join(f"{v:.6f}" for v in cols)


def _match(dets: list[tuple[int, Box, float]], gts: dict[int, list[Box]]) -> dict[float, np.ndarray]:
    """Greedy matching for one category at every COCO IoU threshold: {thr:
    tp flags in rank order}.  Each (detection, ground truth) IoU is computed
    once; a pair below the lowest threshold can match at none, nor stop a
    better pair from matching, so it is dropped, and so is a detection left
    with no pair.  Images match on their own, each with a matched set made
    afresh at each threshold."""
    order = sorted(range(len(dets)), key=lambda i: (-dets[i][2], i))
    lowest = min(COCO_IOU_THRESHOLDS)
    by_image: dict[int, list] = {}
    for rank, i in enumerate(order):
        img, box, _conf = dets[i]
        candidates = [(j, v) for j, v in ((j, iou(box, g)) for j, g in enumerate(gts.get(img, ()))) if v >= lowest]
        if candidates:
            by_image.setdefault(img, []).append((rank, candidates))
    tp_by_thr = {}
    for thr in COCO_IOU_THRESHOLDS:
        tp = np.zeros(len(dets))
        for ranked in by_image.values():
            matched = set()
            for rank, candidates in ranked:
                best_iou, best_j = 0.0, -1
                for j, v in candidates:
                    if v > best_iou and j not in matched:
                        best_iou, best_j = v, j
                if best_j >= 0 and best_iou >= thr:
                    matched.add(best_j)
                    tp[rank] = 1.0
        tp_by_thr[thr] = tp
    return tp_by_thr


def _interpolated_ap(tp: np.ndarray, n_gt: int) -> float:
    if n_gt == 0:
        return 0.0
    if len(tp) == 0:
        return 0.0
    cum_tp = np.cumsum(tp)
    cum_fp = np.cumsum(1.0 - tp)
    recall = cum_tp / n_gt
    precision = cum_tp / (cum_tp + cum_fp)
    # the max precision at recall >= r is the envelope (a running max from
    # the right) at the first rank that reaches r, and 0 past the last rank
    envelope = np.append(np.maximum.accumulate(precision[::-1])[::-1], 0.0)
    ap = 0.0
    for p in envelope[np.searchsorted(recall, RECALL_POINTS, side="left")].tolist():
        ap += p
    return ap / len(RECALL_POINTS)


def coco_map(
    detections: dict[int, list[Detection]],
    ground_truth: dict[int, list[tuple[str, Box]]],
    categories: list[str] | None = None,
) -> EvalReport:
    """Full evaluation over images and categories.

    ``categories`` is the query vocabulary; detections outside it are an
    error.  Categories with no ground truth anywhere are excluded from the
    macro averages (by default the vocabulary is exactly the ground-truth
    categories).
    """
    gt_cats = sorted({c for recs in ground_truth.values() for c, _ in recs})
    if categories is None:
        categories = gt_cats
    known = set(categories)
    for img, dets in detections.items():
        for d in dets:
            if d.label not in known:
                raise ValueError(f"unknown category {d.label!r} in detections for image {img}")

    eval_cats = [c for c in categories if c in set(gt_cats)]
    if not eval_cats:
        zero = {t: 0.0 for t in COCO_IOU_THRESHOLDS}
        return EvalReport(ap_per_iou=zero, ap_mean=0.0, recall=0.0)

    # one pass over the detections, in image order: per category, its images
    # and its detections, as references; a tuple per detection for every
    # category at once would hold ~0.4 MB more at the peak, for 1000 scenes
    by_cat: dict[str, tuple[list, list]] = {c: ([], []) for c in eval_cats}
    for img, img_dets in sorted(detections.items()):
        for d in img_dets:
            if d.label in by_cat:
                imgs, dets = by_cat[d.label]
                imgs.append(img)
                dets.append(d)

    ap_by_cat_thr: dict[str, dict[float, float]] = {}
    recall_by_cat: dict[str, float] = {}
    for cat in eval_cats:
        gts: dict[int, list[Box]] = {}  # only the images that hold the category
        for img, recs in ground_truth.items():
            for c, b in recs:
                if c == cat:
                    gts.setdefault(img, []).append(b)
        n_gt = sum(len(v) for v in gts.values())
        imgs, dets = by_cat[cat]
        tp_by_thr = _match([(img, d.box, d.confidence) for img, d in zip(imgs, dets)], gts)
        ap_by_cat_thr[cat] = {thr: _interpolated_ap(tp, n_gt) for thr, tp in tp_by_thr.items()}
        recall_by_cat[cat] = float(tp_by_thr[0.5].sum()) / n_gt if n_gt else 0.0

    ap_per_iou = {
        thr: float(np.mean([ap_by_cat_thr[c][thr] for c in eval_cats])) for thr in COCO_IOU_THRESHOLDS
    }
    per_category = {c: float(np.mean(list(ap_by_cat_thr[c].values()))) for c in eval_cats}
    return EvalReport(
        ap_per_iou=ap_per_iou,
        ap_mean=float(np.mean(list(ap_per_iou.values()))),
        recall=float(np.mean(list(recall_by_cat.values()))),
        per_category=per_category,
    )


def counting_accuracy(predicted: list[int], true: list[int]) -> float:
    """Fraction of exact count matches over paired lists; empty lists have
    no accuracy and raise ValueError."""
    if len(predicted) != len(true):
        raise ValueError("count lists must have equal length")
    if not predicted:
        raise ValueError("no counts: accuracy needs at least one pair")
    hits = sum(1 for p, t in zip(predicted, true) if int(p) == int(t))
    return hits / len(predicted)


def box_recall(candidates: list[Box], gt_boxes: list[Box], thr: float) -> float:
    """Label-agnostic recall: fraction of ground-truth boxes covered by some
    candidate at IoU >= thr.  1.0 when there is no ground truth."""
    if not gt_boxes:
        return 1.0
    hit = 0
    for g in gt_boxes:
        if any(iou(c, g) >= thr for c in candidates):
            hit += 1
    return hit / len(gt_boxes)
