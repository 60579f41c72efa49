"""Coordinate-regression baseline.

The comparison model embodies the generate-the-numbers paradigm: from a
grid-pooled global primary feature it regresses ``SLOTS`` box slots
directly, each slot carrying (cx, cy, w, h) through sigmoids, an
objectness logit, and per-category logits.  Slots are assigned to
ground-truth objects in a fixed reading order (sorted by coordinates),
which is exactly the brittleness of emitting an ordered coordinate
sequence: with several instances the slot that should own an object
changes whenever any other object moves.

It is built from the retrieval head's parts, so the head-to-head
comparison differs only in the paradigm: the connector MLP, the stable
logistic and binary cross-entropy, the training scenes of ``train``, and
its two-stage schedule of step budgets and learning rates.
"""

from __future__ import annotations

from dataclasses import dataclass

import numpy as np

from .config import ExperimentConfig
from .gridops import check_finite
from .metrics import EvalReport, coco_map
from .regionenc import Connector, connector_backward, connector_forward
from .retrieval import Detection, logistic
from .roialign import Box
from .simworld import Scene, render, reused_canvas, vocabulary
from .training import TrainingDivergence, bce_with_logits, seeded_training_set

__all__ = ["BaselineHead", "init_baseline", "train_baseline", "decode_baseline", "regression_baseline_eval"]

#: Regression slots per image.
SLOTS = 8
#: The primary map is average-pooled to a POOL x POOL grid.
POOL = 8
_BOX_LOSS_WEIGHT = 20.0


@dataclass
class BaselineHead:
    """The connector MLP from a pooled primary feature to ``SLOTS`` slots of
    (4 box, 1 objectness, C category) outputs.

    Inputs are standardized with mean/std computed over the training
    features (stored on the head), the usual treatment for a small MLP
    regressor on raw pooled features.
    """

    mlp: Connector
    n_categories: int
    feat_mean: np.ndarray
    feat_std: np.ndarray
    steps_trained: int = 0

    def normalize(self, feat: np.ndarray) -> np.ndarray:
        return (feat - self.feat_mean) / self.feat_std


def init_baseline(config: ExperimentConfig, rng: np.random.Generator) -> BaselineHead:
    """A seeded head with identity standardization."""
    feat_dim = config.primary_channels * POOL**2
    mlp = Connector.seeded(feat_dim, SLOTS * (5 + config.n_categories), rng, hidden_dim=config.d_llm)
    return BaselineHead(mlp, config.n_categories, np.zeros(feat_dim), np.ones(feat_dim))


def grid_pool(map_data: np.ndarray, grid: int) -> np.ndarray:
    """Adaptive average pool of a (C, H, W) array down to C * grid * grid
    features.  A side shorter than ``grid`` would leave some cells empty;
    such a cell takes the one row or column it starts at."""
    c, h, w = map_data.shape
    out = np.empty((c, grid, grid))
    for i in range(grid):
        y0 = (i * h) // grid
        y1 = max(((i + 1) * h) // grid, y0 + 1)
        for j in range(grid):
            x0 = (j * w) // grid
            x1 = max(((j + 1) * w) // grid, x0 + 1)
            out[:, i, j] = map_data[:, y0:y1, x0:x1].mean(axis=(1, 2))
    return out.ravel()


def scene_feature(scene: Scene, config: ExperimentConfig) -> np.ndarray:
    canvas = render(scene, config.encoder, reused_canvas(scene.n_categories, config.encoder))
    return grid_pool(check_finite(canvas.primary[:-1], "the primary map"), POOL)


def _slot_targets(scene: Scene, n_slots: int, n_categories: int) -> tuple[np.ndarray, np.ndarray, np.ndarray]:
    """Reading-order slot assignment: (box targets, objectness, one-hot categories)."""
    names = vocabulary(n_categories)
    cat_index = {n: i for i, n in enumerate(names)}
    objs = sorted(scene.objects, key=lambda ob: (ob[1].x1, ob[1].y1, ob[1].x2, ob[1].y2, ob[0]))
    boxes = np.zeros((n_slots, 4))
    obj_t = np.zeros(n_slots)
    cat_t = np.zeros((n_slots, n_categories))
    for k, (cat, b) in enumerate(objs[:n_slots]):
        boxes[k] = [(b.x1 + b.x2) / 2, (b.y1 + b.y2) / 2, b.width, b.height]
        obj_t[k] = 1.0
        cat_t[k, cat_index[cat]] = 1.0
    return boxes, obj_t, cat_t


def _loss_and_grads(head: BaselineHead, feat: np.ndarray, scene: Scene) -> tuple[float, dict[str, np.ndarray]]:
    # (SLOTS, 5 + C) slot outputs of the standardized feature, a (1, D) row
    out, hidden = connector_forward(head.mlp, feat)
    slots = out.reshape(SLOTS, -1)
    box_t, obj_t, cat_t = _slot_targets(scene, SLOTS, head.n_categories)
    assigned = (obj_t > 0)[:, None]

    box_pred = logistic(slots[:, :4])
    box_err = (box_pred - box_t) * assigned
    loss = (
        _BOX_LOSS_WEIGHT * float(np.sum(box_err**2))
        + float(np.sum(bce_with_logits(slots[:, 4], obj_t)))
        + float(np.sum(bce_with_logits(slots[:, 5:], cat_t) * assigned))
    )

    d_slots = np.empty_like(slots)
    d_slots[:, :4] = (2.0 * _BOX_LOSS_WEIGHT) * box_err * box_pred * (1 - box_pred)
    d_slots[:, 4] = logistic(slots[:, 4]) - obj_t
    d_slots[:, 5:] = (logistic(slots[:, 5:]) - cat_t) * assigned
    grads, _ = connector_backward(head.mlp, feat, d_slots.reshape(1, -1), hidden, input_grad=False)
    return loss, grads


def train_baseline(config: ExperimentConfig) -> tuple[BaselineHead, list[float]]:
    """Train on the retrieval head's training scenes with its schedule."""
    scenes = [sample.scene for sample in seeded_training_set(config)]
    head = init_baseline(config, np.random.default_rng(np.random.SeedSequence(config.seed).spawn(2)[1]))
    raw = np.stack([scene_feature(s, config) for s in scenes])
    head.feat_mean = raw.mean(axis=0)
    head.feat_std = np.maximum(raw.std(axis=0), 1e-6)
    feats = head.normalize(raw)
    losses = []
    for stage, steps, lr in config.stages:
        for _ in range(steps):
            i = head.steps_trained % len(scenes)
            head.steps_trained += 1
            loss, grads = _loss_and_grads(head, feats[i : i + 1], scenes[i])
            if not np.isfinite(loss):
                raise TrainingDivergence(stage, head.steps_trained, loss)
            for name, d in grads.items():
                getattr(head.mlp, name)[...] -= lr * d
            losses.append(loss)
    return head, losses


def decode_baseline(head: BaselineHead, feat: np.ndarray, threshold: float) -> list[Detection]:
    """Slots above the objectness threshold become detections; ``feat`` is raw."""
    slots = connector_forward(head.mlp, head.normalize(feat)[None])[0].reshape(SLOTS, -1)
    names = vocabulary(head.n_categories)
    out = []
    for k, slot in enumerate(slots):
        conf = float(logistic(slot[4:5])[0])
        if conf <= threshold:
            continue
        cx, cy, w, h = logistic(slot[:4])
        box = Box(
            float(np.clip(cx - w / 2, 0, 1)),
            float(np.clip(cy - h / 2, 0, 1)),
            float(np.clip(cx + w / 2, 0, 1)),
            float(np.clip(cy + h / 2, 0, 1)),
        )
        label = names[int(np.argmax(slot[5:]))]
        out.append(Detection(box=box, label=label, confidence=conf, source_region=k))
    return out


def regression_baseline_eval(
    head: BaselineHead, scenes: list[Scene], config: ExperimentConfig
) -> EvalReport:
    """Evaluate the trained baseline on held-out scenes with the COCO protocol;
    scenes that hold no ground-truth object have no AP and raise ValueError."""
    if head.steps_trained == 0:
        raise ValueError("baseline has not been trained")
    if not any(scene.objects for scene in scenes):
        raise ValueError(f"regression_baseline_eval needs at least one scene, got none with an object in "
                         f"{len(scenes)} scenes")
    detections = {}
    ground_truth = {}
    for scene in scenes:
        feat = scene_feature(scene, config)
        detections[scene.image_id] = decode_baseline(head, feat, config.threshold)
        ground_truth[scene.image_id] = [(c, b) for c, b in scene.objects]
    return coco_map(detections, ground_truth, categories=list(vocabulary(config.n_categories)))
