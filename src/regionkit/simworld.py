"""Synthetic scenes, toy dual encoders, and a simulated proposal network.

This module is the desk-scale stand-in for real images, pretrained vision
backbones, and an external proposal detector.  Scenes are boxes with
category labels on a unit square; "encoding" renders them into feature
grids whose channel layout makes the learning problem solvable by a linear
head while still exercising the full pipeline:

* the primary encoder is low-resolution and semantic: one coverage channel
  per category, blurred, plus background, coordinate ramps, and inert
  noise channels;
* the auxiliary encoder is high-resolution and perceptual: sharp texture
  channels that merge category pairs (it can localize crisply but cannot
  tell paired categories apart), plus edge channels, rendered at four
  scales.

The split mirrors a semantics-rich global encoder paired with a
detail-specialist tower: either stream alone is handicapped, together they
are complementary.  All randomness flows from explicit seeds; everything
here is replayable bit for bit.

Draw order is part of that contract.  Each scene and each proposal list
has its own generator, dropped after the call, so drawing its doubles in
blocks past the last one used changes nothing.  Those doubles replay
per-value ``rng.choice(n, p=uniform)`` (one double searched in the CDF
``choice`` builds) and ``rng.uniform(lo, hi)`` (``lo + (hi - lo) * u``) bit
for bit; ``tests/world_oracle.py`` keeps the per-value generator as the
oracle the tests compare against.
"""

from __future__ import annotations

from bisect import bisect_right
from dataclasses import dataclass, field
from functools import lru_cache
from itertools import chain

import numpy as np

from .gridops import FeatureMap
from .metrics import iou
from .roialign import Box

__all__ = [
    "CATEGORY_WORDS",
    "vocabulary",
    "SceneConfig",
    "EncoderConfig",
    "ProposalSimConfig",
    "Scene",
    "TrainingSample",
    "generate_scene",
    "Canvas",
    "reused_canvas",
    "render",
    "toy_encode",
    "simulate_opn",
    "make_training_set",
    "scenes_to_json",
]

CATEGORY_WORDS = ("ball", "block", "tree", "car", "person", "sign", "lamp", "bird")
#: The most categories a world may have: a render paints a channel per
#: category at every resolution.
MAX_CATEGORIES = 256
#: The highest clutter density.  A scene draws Poisson(8 * density)
#: distractors; at 10 their ~80 smudges cover about a third of the image.
MAX_CLUTTER_DENSITY = 10.0
#: The most objects a scene may hold.  A draw tests each placement against
#: every object placed, up to 50 tries an object, so its time grows with
#: the square of the count: at 256, about 0.1 s a scene at the default sizes.
MAX_OBJECTS = 256
#: The highest proposal clutter rate.  A proposal list draws its
#: Poisson(clutter_rate) clutter boxes before ``max_proposals`` truncates
#: it; at 1000 that is ten times the default ``max_proposals``.
MAX_CLUTTER_RATE = 1000.0
#: The highest encoder resolution.  A render paints every category at each
#: resolution; at 512 the largest paint (256 categories x 512^2 float64) is
#: 512 MiB.
MAX_RESOLUTION = 512


def vocabulary(n_categories: int) -> tuple[str, ...]:
    """The first n category names of the fixed toy vocabulary."""
    if n_categories < 1:
        raise ValueError("need at least one category")
    names = list(CATEGORY_WORDS[:n_categories])
    names += [f"thing{k}" for k in range(len(names), n_categories)]
    return tuple(names)


@dataclass(frozen=True)
class SceneConfig:
    """Scene sampling distribution: object counts, sizes, overlap, clutter."""

    n_categories: int = 8
    min_objects: int = 5
    max_objects: int = 8
    min_size: float = 0.12
    max_size: float = 0.32
    max_overlap: float = 0.2
    clutter_density: float = 0.05

    def __post_init__(self):
        if self.n_categories < 1:
            raise ValueError(f"n_categories must be >= 1, got {self.n_categories}")
        if self.n_categories > MAX_CATEGORIES:
            raise ValueError(f"n_categories must be <= {MAX_CATEGORIES}, got {self.n_categories}")
        if self.min_objects < 0:
            raise ValueError(f"min_objects must be >= 0, got {self.min_objects}")
        if self.max_objects > MAX_OBJECTS:
            raise ValueError(f"max_objects must be <= {MAX_OBJECTS}, got {self.max_objects}")
        if self.min_objects > self.max_objects:
            raise ValueError(f"min_objects {self.min_objects} exceeds max_objects {self.max_objects}")
        if not self.min_size > 0.0:
            raise ValueError(f"min_size must be > 0, got {self.min_size}")
        if self.min_size > self.max_size:
            raise ValueError(f"min_size {self.min_size} exceeds max_size {self.max_size}")
        if self.max_size > 1.0:
            raise ValueError(f"max_size must be <= 1, got {self.max_size}")
        if not 0.0 <= self.max_overlap <= 1.0:
            raise ValueError(f"max_overlap must lie in [0, 1], got {self.max_overlap}")
        if not 0 <= self.clutter_density <= MAX_CLUTTER_DENSITY:
            raise ValueError(f"clutter_density must lie in [0, {MAX_CLUTTER_DENSITY}], got {self.clutter_density}")

    @property
    def categories(self) -> tuple[str, ...]:
        return vocabulary(self.n_categories)


@dataclass(frozen=True)
class EncoderConfig:
    """Toy dual-encoder rendering parameters."""

    primary_resolution: int = 16
    aux_base_resolution: int = 64
    noise_sigma: float = 0.01
    distractor_intensity: float = 0.3

    def __post_init__(self):
        if self.primary_resolution < 1:
            raise ValueError("primary_resolution must be >= 1")
        if self.aux_base_resolution < 8:
            raise ValueError("aux_base_resolution must be >= 8: the coarsest auxiliary level is 1/8 of it")
        for name in ("primary_resolution", "aux_base_resolution"):
            if getattr(self, name) > MAX_RESOLUTION:
                raise ValueError(f"{name} must be <= {MAX_RESOLUTION}, got {getattr(self, name)}")
        if not 0 <= self.noise_sigma < float("inf"):
            raise ValueError(f"noise_sigma must be a finite number >= 0, got {self.noise_sigma}")
        if not 0 <= self.distractor_intensity <= 1:
            raise ValueError(f"distractor_intensity must lie in [0, 1], got {self.distractor_intensity}")

    @staticmethod
    def primary_channels(n_categories: int) -> int:
        # signatures + background + two ramps, padded to a multiple of 8
        base = n_categories + 3
        return ((base + 7) // 8) * 8

    @staticmethod
    def aux_channels(n_categories: int) -> int:
        # paired-category texture channels + two edge channels
        return (n_categories + 1) // 2 + 2

    @staticmethod
    def aux_total_dim(n_categories: int) -> int:
        return 4 * EncoderConfig.aux_channels(n_categories)


@dataclass(frozen=True)
class ProposalSimConfig:
    """Simulated proposal-network behavior."""

    jitter_sigma: float = 0.005
    drop_rate: float = 0.0
    clutter_rate: float = 2.0
    max_proposals: int = 100

    def __post_init__(self):
        if self.jitter_sigma < 0:
            raise ValueError("jitter_sigma must be >= 0")
        if not (0.0 <= self.drop_rate <= 1.0):
            raise ValueError("drop_rate must lie in [0, 1]")
        if not 0.0 <= self.clutter_rate <= MAX_CLUTTER_RATE:
            raise ValueError(f"clutter_rate must lie in [0, {MAX_CLUTTER_RATE}], got {self.clutter_rate}")
        if self.max_proposals < 1:
            raise ValueError("max_proposals must be >= 1")


@dataclass(frozen=True)
class Scene:
    """One synthetic image: labeled object boxes on the unit square."""

    image_id: int
    objects: tuple[tuple[str, Box], ...]
    clutter_density: float
    seed: int
    n_categories: int

    def boxes_of(self, category: str) -> list[Box]:
        return [b for c, b in self.objects if c == category]

    @property
    def present_categories(self) -> tuple[str, ...]:
        order = {name: i for i, name in enumerate(vocabulary(self.n_categories))}
        present = sorted({c for c, _ in self.objects}, key=order.get)
        return tuple(present)


@lru_cache(maxsize=MAX_CATEGORIES)
def _uniform_cdf(n: int) -> tuple[float, ...]:
    """The CDF that ``rng.choice(n, p=np.full(n, 1 / n))`` searches, built as
    it builds it; ``bisect_right`` finds the index its ``searchsorted`` does."""
    cdf = np.full(n, 1.0 / n).cumsum()
    return tuple((cdf / cdf[-1]).tolist())


def generate_scene(seed: int, config: SceneConfig = SceneConfig()) -> Scene:
    """Sample one scene, deterministic in the seed.

    Objects are rejected (up to a fixed retry budget) when they overlap an
    already-placed object too much, so scenes stay readable.
    """
    rng = np.random.default_rng(seed)
    names = config.categories
    n_obj = int(rng.integers(config.min_objects, config.max_objects + 1))
    # rng.choice and rng.uniform read one double each (see the module
    # docstring): the generator's doubles in turn, drawn 64 at a time
    draw = chain.from_iterable(iter(lambda: rng.random(64).tolist(), None)).__next__
    cdf = _uniform_cdf(config.n_categories)
    lo, span = config.min_size, config.max_size - config.min_size
    objects: list[tuple[str, Box]] = []
    for _ in range(n_obj):
        cat = names[bisect_right(cdf, draw())]
        for _attempt in range(50):
            w = lo + span * draw()
            h = lo + span * draw()
            x1 = (1.0 - w) * draw()
            y1 = (1.0 - h) * draw()
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


# ------------------------------------------------------------- rendering

_BLUR_WEIGHTS = {
    (-1, -1): 1, (-1, 0): 2, (-1, 1): 1, (0, -1): 2, (0, 0): 4, (0, 1): 2, (1, -1): 1, (1, 0): 2, (1, 1): 1,
}


class Canvas:
    """The buffers :func:`render` renders into, for one category count
    and encoder config.  A render overwrites every value it reads back, so
    a canvas carries buffers from scene to scene, never a scene's values.

    ``primary`` and ``aux`` are the output maps, each (C + 1, H, W) with a
    constant ones channel last, so that a 1x1 mix's (C', C + 1) kernel
    block acts on a map, or on its taps, bias and all.  The five lie end to
    end in one buffer, ``maps``, so one pass over it checks a render.  The
    other buffers are the noise of all five maps, the paint and a plane per
    distinct resolution, the blur's zero-bordered input and its addend, and
    the cells.
    """

    def __init__(self, n_categories: int, enc: EncoderConfig):
        self.key = (n_categories, enc)
        self.cat_index = {name: i for i, name in enumerate(vocabulary(n_categories))}
        pr = enc.primary_resolution
        self.aux_res = [enc.aux_base_resolution // (2**level) for level in range(4)]
        shapes = [(enc.primary_channels(n_categories), pr, pr)]
        shapes += [(EncoderConfig.aux_channels(n_categories), res, res) for res in self.aux_res]
        self.maps = np.empty(sum((c + 1) * h * w for c, h, w in shapes))
        maps = _split(self.maps, [(c + 1, h, w) for c, h, w in shapes])
        for m in maps:
            m[-1] = 1.0
        self.primary, self.aux = maps[0], maps[1:]
        self.noise = np.empty(sum(c * h * w for c, h, w in shapes))
        self.noise_of = _split(self.noise, shapes)
        self.paint = {res: np.empty((n_categories, res, res)) for res in {pr, *self.aux_res}}
        # per resolution: a box's coverage while painting, then the occupancy
        self.plane = {res: np.empty((res, res)) for res in self.paint}
        # (low, high) edges of every cell, and the size of its grid
        self.cell_edges = np.hstack([(e[:-1], e[1:]) for e in (np.arange(res + 1) / res for res in self.paint)])
        self.cell_res = np.concatenate([np.full(res, float(res)) for res in self.paint])
        self.blur_in = np.zeros((n_categories, pr + 2, pr + 2))
        self.blur_term = np.empty((n_categories, pr, pr))
        ramp = (np.arange(pr) + 0.5) / pr
        self.ramps = np.stack([np.tile(ramp, (pr, 1)), np.tile(ramp[:, None], (1, pr))])


def _split(flat: np.ndarray, shapes: list[tuple[int, int, int]]) -> list[np.ndarray]:
    """Views of ``flat``, end to end, one of each shape."""
    sizes = [c * h * w for c, h, w in shapes]
    return [a.reshape(shape) for a, shape in zip(np.split(flat, np.cumsum(sizes)[:-1]), shapes)]


@lru_cache(maxsize=1)
def reused_canvas(n_categories: int, enc: EncoderConfig) -> Canvas:
    """The canvas of the last (category count, encoder config) asked for:
    one slot, replaced when either changes."""
    return Canvas(n_categories, enc)


def _blur3(pad: np.ndarray, out: np.ndarray, term: np.ndarray) -> None:
    """3x3 binomial blur of every (H, W) slice of the (C, H + 2, W + 2)
    zero-bordered stack ``pad``, written into the (C, H, W) ``out``; a tap
    of weight 1 is added as it is (1 * x is x), each other goes through
    ``term``."""
    h, w = out.shape[1:]
    out.fill(0.0)
    for (dy, dx), wt in _BLUR_WEIGHTS.items():
        tap = pad[:, 1 + dy : 1 + dy + h, 1 + dx : 1 + dx + w]
        out += tap if wt == 1 else np.multiply(tap, wt, out=term)
    out /= 16.0


def render(scene: Scene, enc: EncoderConfig, canvas: Canvas) -> Canvas:
    """Render a scene into ``canvas`` (for its category count and ``enc``)
    and return it: its ``primary`` last map and four ``aux`` maps, until the
    next render into it.  One render at a time may use a canvas.

    Deterministic in the scene seed: the maps are a function of the scene.
    Every box's row and column coverage at every paint resolution comes
    from one pass over the canvas's cells.  Each resolution is painted
    once: per box, the outer product of its row and column coverage, added
    into its category channel in box order (the objects, then the
    distractors at ``distractor_intensity``).
    """
    n_cat = scene.n_categories
    if canvas.key != (n_cat, enc):
        raise ValueError("the canvas was made for another category count or encoder config")
    rng = np.random.default_rng([scene.seed, 0xE0C0DE])

    # distractor smudges shared by both streams
    n_distract = int(rng.poisson(scene.clutter_density * 8))
    boxes = [box for _, box in scene.objects]
    channels = [canvas.cat_index[cat] for cat, _ in scene.objects]
    for _ in range(n_distract):
        w = float(rng.uniform(0.03, 0.10))
        h = float(rng.uniform(0.03, 0.10))
        x1 = float(rng.uniform(0.0, 1.0 - w))
        y1 = float(rng.uniform(0.0, 1.0 - h))
        channels.append(int(rng.integers(n_cat)))
        boxes.append(Box(x1, y1, x1 + w, y1 + h))
    # every map's noise, in map order: what rng.normal(0, sigma) draws per map
    rng.standard_normal(out=canvas.noise)
    canvas.noise *= enc.noise_sigma
    # (box, axis) edge pairs, the y axis first
    lo = np.array([(b.y1, b.x1) for b in boxes], dtype=np.float64).reshape(-1, 2)
    hi = np.array([(b.y2, b.x2) for b in boxes], dtype=np.float64).reshape(-1, 2)
    n_obj = len(scene.objects)
    # the fraction of each cell's row (or column) that each edge pair covers
    cell_lo, cell_hi = canvas.cell_edges
    coverage = np.maximum(np.minimum(hi[..., None], cell_hi) - np.maximum(lo[..., None], cell_lo), 0.0)
    coverage *= canvas.cell_res

    start = 0
    for res, sig in canvas.paint.items():
        rows, cols = coverage[:, :, start : start + res].transpose(1, 0, 2)
        start += res
        cover = canvas.plane[res]
        sig.fill(0.0)
        for k, (c, row, col) in enumerate(zip(channels, rows, cols)):
            np.multiply(row[:, None], col, out=cover)
            if k >= n_obj:
                cover *= enc.distractor_intensity
            sig[c] += cover

    # primary stream: blurred semantics at low resolution
    pr, primary = enc.primary_resolution, canvas.primary
    sig = canvas.paint[pr]
    canvas.blur_in[:, 1:-1, 1:-1] = sig
    _blur3(canvas.blur_in, primary[:n_cat], canvas.blur_term)
    background = primary[n_cat]
    np.subtract(1.0, sig.sum(axis=0, out=background), out=background)
    np.maximum(background, 0.0, out=background)
    primary[n_cat + 1 : n_cat + 3] = canvas.ramps
    primary[n_cat + 3 : -1] = 0.0
    primary[:-1] += canvas.noise_of[0]

    # auxiliary stream: sharp paired-category textures plus edges, four scales
    n_groups = (n_cat + 1) // 2
    for level_map, res, noise in zip(canvas.aux, canvas.aux_res, canvas.noise_of[1:]):
        sig = canvas.paint[res]
        # category c joins texture c // 2: the even member first
        level_map[:n_groups] = sig[0::2]
        level_map[: n_cat // 2] += sig[1::2]
        # edge channels: central differences of the occupancy, zero on the border
        occ = sig.sum(axis=0, out=canvas.plane[res])
        edges = level_map[n_groups : n_groups + 2]
        edges[0, 0] = edges[0, -1] = edges[1, :, 0] = edges[1, :, -1] = 0.0
        np.subtract(occ[2:, :], occ[:-2, :], out=edges[0, 1:-1, :])
        np.subtract(occ[:, 2:], occ[:, :-2], out=edges[1, :, 1:-1])
        np.abs(edges, out=edges)
        edges /= 2.0
        level_map[:-1] += noise

    return canvas


def toy_encode(
    scene: Scene, enc: EncoderConfig = EncoderConfig(), canvas: Canvas | None = None
) -> tuple[FeatureMap, list[FeatureMap]]:
    """:func:`render` as (primary last map, four auxiliary maps), checked
    :class:`FeatureMap` views without the ones channels.  Without a canvas,
    a new one is made, so the maps returned are the caller's alone."""
    canvas = render(scene, enc, Canvas(scene.n_categories, enc) if canvas is None else canvas)
    return FeatureMap.from_array(canvas.primary[:-1]), [FeatureMap.from_array(m[:-1]) for m in canvas.aux]


# ------------------------------------------------------------- proposals

def simulate_opn(scene: Scene, cfg: ProposalSimConfig = ProposalSimConfig(), seed: int = 0) -> list[Box]:
    """Simulate a proposal network over the scene's ground truth.

    Each object survives with probability 1 - drop_rate and is emitted with
    Gaussian coordinate jitter; the proposal score decays with the jitter
    magnitude.  Poisson(clutter_rate) spurious low-score boxes are added,
    and the list is sorted by score and truncated to max_proposals.
    """
    rng = np.random.default_rng(seed)
    proposals: list[Box] = []
    for _, box in scene.objects:
        drop = rng.random() < cfg.drop_rate  # the double rng.uniform() returns
        jitter = rng.normal(0.0, cfg.jitter_sigma, size=4) if cfg.jitter_sigma > 0 else np.zeros(4)
        if drop:
            continue
        dx1, dy1, dx2, dy2 = jitter.tolist()
        # Box clamps to [0, 1], and clamping commutes with ordering a pair
        x1, x2 = sorted((box.x1 + dx1, box.x2 + dx2))
        y1, y2 = sorted((box.y1 + dy1, box.y2 + dy2))
        # np.linalg.norm of a 1-D vector is this square root
        score = float(np.exp(-10.0 * np.sqrt(jitter.dot(jitter))))
        proposals.append(Box(x1, y1, x2, y2, score=score))
    # each clutter box is five rng.uniform draws: w, h, x1, y1, score
    n_clutter = int(rng.poisson(cfg.clutter_rate))
    for uw, uh, ux, uy, us in rng.random((n_clutter, 5)).tolist():
        w = 0.05 + (0.30 - 0.05) * uw
        h = 0.05 + (0.30 - 0.05) * uh
        x1 = (1.0 - w) * ux
        y1 = (1.0 - h) * uy
        proposals.append(Box(x1, y1, x1 + w, y1 + h, score=0.3 * us))
    proposals.sort(key=lambda b: -b.score)
    return proposals[: cfg.max_proposals]


# ---------------------------------------------------------- training data

#: A proposal is a positive for a query above this IoU with a same-category object.
TARGET_IOU_THRESHOLD = 0.5
#: Absent categories a rejection sample queries, at most.
REJECTION_QUERIES = 2


@dataclass(frozen=True)
class TrainingSample:
    """One training record: a scene, its proposals, the queried categories,
    each once, and the (proposal, query) target matrix."""

    scene: Scene
    proposals: tuple[Box, ...]
    queries: tuple[str, ...]
    targets: np.ndarray = field(repr=False)
    is_rejection: bool = False

    def __post_init__(self):
        for i, q in enumerate(self.queries):
            if q in self.queries[:i]:
                raise ValueError(f"a training sample queries each category once, but {q!r} twice")


def assignment_targets(proposals: list[Box], scene: Scene, queries: list[str]) -> np.ndarray:
    """(N, Q) binary targets: proposal i is positive for query q when it
    overlaps a same-category ground-truth box with IoU above
    ``TARGET_IOU_THRESHOLD``."""
    targets = np.zeros((len(proposals), len(queries)))
    for name, g in scene.objects:
        columns = [q for q, query in enumerate(queries) if query == name]
        if columns:
            for i, p in enumerate(proposals):
                if iou(p, g) > TARGET_IOU_THRESHOLD:
                    targets[i, columns] = 1.0
    return targets


def make_training_set(
    n_scenes: int,
    rejection_fraction: float = 0.2,
    seed: int = 0,
    scene_config: SceneConfig = SceneConfig(),
    proposal_config: ProposalSimConfig = ProposalSimConfig(),
) -> list[TrainingSample]:
    """Build a replayable dataset of (scene, proposals, queries, targets).

    A ``rejection_fraction`` share of samples additionally queries up to
    ``REJECTION_QUERIES`` categories absent from the scene; their targets
    are all-negative by construction.
    """
    if not (0.0 <= rejection_fraction <= 1.0):
        raise ValueError("rejection_fraction must lie in [0, 1]")
    rng = np.random.default_rng(seed)
    names = scene_config.categories
    samples = []
    for _ in range(n_scenes):
        scene_seed = int(rng.integers(2**31))
        prop_seed = int(rng.integers(2**31))
        want_rejection = bool(rng.uniform() < rejection_fraction)
        scene = generate_scene(scene_seed, scene_config)
        proposals = simulate_opn(scene, proposal_config, prop_seed)
        if not proposals:
            proposals = [Box(0.0, 0.0, 1.0, 1.0, score=0.0)]
        queries = list(scene.present_categories)
        is_rejection = False
        if want_rejection:
            absent = [n for n in names if n not in queries]
            if absent:
                picked = rng.choice(len(absent), size=min(REJECTION_QUERIES, len(absent)), replace=False)
                queries.extend(absent[i] for i in sorted(picked))
                is_rejection = True
        targets = assignment_targets(proposals, scene, queries)
        samples.append(
            TrainingSample(scene, tuple(proposals), tuple(queries), targets, is_rejection)
        )
    return samples


# ----------------------------------------------------------- persistence

def scenes_to_json(scenes: list[Scene], proposals: dict[int, list[Box]]) -> dict:
    """COCO-like record: a list of images with objects, plus each image's
    proposals keyed by image id.

    A scene file is written, never read back: every command draws its
    scenes from the config seed, so ``regionkit gen``'s file is a function
    of the config its manifest records.
    """
    return {
        "images": [
            {
                "id": s.image_id,
                "seed": s.seed,
                "n_categories": s.n_categories,
                "clutter_density": s.clutter_density,
                "objects": [
                    {"category": c, "bbox": [b.x1, b.y1, b.width, b.height]} for c, b in s.objects
                ],
            }
            for s in scenes
        ],
        "proposals": {str(k): [b.to_json() for b in v] for k, v in proposals.items()},
    }
