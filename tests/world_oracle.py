"""Reference implementations of the synthetic world's draws.

These are the per-value forms of ``simworld.generate_scene``,
``simworld.simulate_opn``, ``simworld.assignment_targets``, ``metrics.iou``
and ``Box`` validation: one numpy call per random value, ``rng.choice``
with an explicit uniform ``p``, ``np.clip`` and ``np.linalg.norm`` per
proposal, ``np.isfinite`` per coordinate.  The production code draws the same values from the same streams in far
fewer calls; the tests compare the two bit for bit.  Only ``Box``,
``Scene`` and the config types are shared.
"""

from __future__ import annotations

import numpy as np

from regionkit.roialign import Box
from regionkit.simworld import ProposalSimConfig, Scene, SceneConfig

TARGET_IOU_THRESHOLD = 0.5


def box_post_init(self):
    """``Box.__post_init__`` with one ``np.isfinite`` per coordinate; run on
    any object whose attributes it may set."""
    for name in ("x1", "y1", "x2", "y2"):
        v = float(getattr(self, name))
        if not np.isfinite(v):
            raise ValueError(f"box coordinate {name} is not finite")
        object.__setattr__(self, name, min(1.0, max(0.0, v)))
    if self.x1 > self.x2 or self.y1 > self.y2:
        raise ValueError("box corners out of order (x1 <= x2 and y1 <= y2 required)")
    if self.score is not None:
        s = float(self.score)
        if not (0.0 <= s <= 1.0):
            raise ValueError("box score must lie in [0, 1]")
        object.__setattr__(self, "score", s)


def iou(a: Box, b: Box) -> float:
    """Intersection over union of two boxes; 0 when the union is empty."""
    ix = max(0.0, min(a.x2, b.x2) - max(a.x1, b.x1))
    iy = max(0.0, min(a.y2, b.y2) - max(a.y1, b.y1))
    inter = ix * iy
    union = a.area + b.area - inter
    return inter / union if union > 0 else 0.0


def generate_scene(seed: int, config: SceneConfig = SceneConfig()) -> Scene:
    rng = np.random.default_rng(seed)
    names = config.categories
    n = config.n_categories
    n_obj = int(rng.integers(config.min_objects, config.max_objects + 1))
    objects: list[tuple[str, Box]] = []
    for _ in range(n_obj):
        # an explicit uniform p: choice without p draws differently
        cat = names[int(rng.choice(n, p=np.full(n, 1.0 / n)))]
        for _attempt in range(50):
            w = float(rng.uniform(config.min_size, config.max_size))
            h = float(rng.uniform(config.min_size, config.max_size))
            x1 = float(rng.uniform(0.0, 1.0 - w))
            y1 = float(rng.uniform(0.0, 1.0 - h))
            box = Box(x1, y1, x1 + w, y1 + h, label=cat)
            if all(iou(box, b) <= config.max_overlap for _, b in objects):
                objects.append((cat, box))
                break
    return Scene(
        image_id=int(seed),
        objects=tuple(objects),
        clutter_density=config.clutter_density,
        seed=int(seed),
        n_categories=config.n_categories,
    )


def simulate_opn(scene: Scene, cfg: ProposalSimConfig = ProposalSimConfig(), seed: int = 0) -> list[Box]:
    rng = np.random.default_rng(seed)
    proposals: list[Box] = []
    for _, box in scene.objects:
        drop = rng.uniform() < cfg.drop_rate
        jitter = rng.normal(0.0, cfg.jitter_sigma, size=4) if cfg.jitter_sigma > 0 else np.zeros(4)
        if drop:
            continue
        x1, y1, x2, y2 = np.clip(
            [box.x1 + jitter[0], box.y1 + jitter[1], box.x2 + jitter[2], box.y2 + jitter[3]], 0.0, 1.0
        )
        x1, x2 = sorted((x1, x2))
        y1, y2 = sorted((y1, y2))
        score = float(np.exp(-10.0 * np.linalg.norm(jitter)))
        proposals.append(Box(float(x1), float(y1), float(x2), float(y2), score=score))
    for _ in range(int(rng.poisson(cfg.clutter_rate))):
        w = float(rng.uniform(0.05, 0.30))
        h = float(rng.uniform(0.05, 0.30))
        x1 = float(rng.uniform(0.0, 1.0 - w))
        y1 = float(rng.uniform(0.0, 1.0 - h))
        proposals.append(Box(x1, y1, x1 + w, y1 + h, score=float(rng.uniform(0.0, 0.3))))
    proposals.sort(key=lambda b: -b.score)
    return proposals[: cfg.max_proposals]


def assignment_targets(proposals: list[Box], scene: Scene, queries: list[str]) -> np.ndarray:
    targets = np.zeros((len(proposals), len(queries)))
    for q, name in enumerate(queries):
        gt = scene.boxes_of(name)
        if not gt:
            continue
        for i, p in enumerate(proposals):
            if any(iou(p, g) > TARGET_IOU_THRESHOLD for g in gt):
                targets[i, q] = 1.0
    return targets

