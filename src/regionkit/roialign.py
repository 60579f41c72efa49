"""Region-of-interest feature extraction by aligned bilinear sampling.

Boxes live in normalized [0, 1] image coordinates and are scaled to each
feature map's resolution inside the op, so one box representation serves
every pyramid level.  The coordinate transform is the aligned one: a
normalized coordinate u maps to the continuous array coordinate
``u * size - 0.5`` (pixel i has its center at (i + 0.5) / size), with no
rounding anywhere.  Samples falling outside the map clamp to the edge.

``roi_align`` produces the C x P x P bin grid; ``roi_align_pooled`` means
over the bins, which equals a fixed linear functional of the map.  The
samples form a separable grid, so that functional is rank 1 per box: the
outer product of one weight vector per axis.
:func:`pooled_axis_weight_table` computes those vectors at one or several
map sizes in one pass, and :func:`pooled_weights` is their outer product
at one size as an (N, H * W) matrix.
:func:`pooled_taps` contracts a map with per-axis tap weights, the y axis
in one 2-D product over all (box, tap) rows, and a box's row does not
depend on its position; :func:`apply_taps` applies a kernel to the taps,
which is how the training forward pools without building any level map.
"""

from __future__ import annotations

import math
from dataclasses import dataclass
from functools import lru_cache

import numpy as np

from .gridops import FeatureMap

__all__ = [
    "Box",
    "RoiConfig",
    "roi_align",
    "roi_align_pooled",
    "pooled_axis_weight_table",
    "pooled_weights",
    "pooled_apply",
    "pooled_taps",
    "apply_taps",
]


@dataclass(frozen=True)
class Box:
    """Axis-aligned rectangle in normalized coordinates, with optional score/label.

    Coordinates are clamped to [0, 1] at construction; x1 <= x2 and y1 <= y2
    must hold after clamping.
    """

    x1: float
    y1: float
    x2: float
    y2: float
    score: float | None = None
    label: str | None = None

    def __post_init__(self):
        for name in ("x1", "y1", "x2", "y2"):
            v = getattr(self, name)
            if type(v) is not float or not 0.0 < v < 1.0:  # else float() and the clamp return v itself
                v = float(v)
                if not math.isfinite(v):
                    raise ValueError(f"box coordinate {name} is not finite")
                object.__setattr__(self, name, min(1.0, max(0.0, v)))
        if self.x1 > self.x2 or self.y1 > self.y2:
            raise ValueError("box corners out of order (x1 <= x2 and y1 <= y2 required)")
        if self.score is not None:
            s = float(self.score)
            if not (0.0 <= s <= 1.0):
                raise ValueError("box score must lie in [0, 1]")
            if s is not self.score:
                object.__setattr__(self, "score", s)

    @property
    def width(self) -> float:
        return self.x2 - self.x1

    @property
    def height(self) -> float:
        return self.y2 - self.y1

    @property
    def area(self) -> float:
        return self.width * self.height

    def to_json(self) -> list:
        return [self.x1, self.y1, self.x2, self.y2, self.score, self.label]


#: The finest pooling grid and sampling.  The pooling-weight pass holds a
#: few arrays of pool_size * sampling_ratio samples per box, map size and
#: axis: at 32 x 8, 256, which is 2 MiB an array for 100 boxes at five sizes.
MAX_POOL_SIZE, MAX_SAMPLING_RATIO = 32, 8


@dataclass(frozen=True)
class RoiConfig:
    """Pooling grid size P and per-bin samples per axis."""

    pool_size: int = 7
    sampling_ratio: int = 2

    def __post_init__(self):
        for name, most in (("pool_size", MAX_POOL_SIZE), ("sampling_ratio", MAX_SAMPLING_RATIO)):
            if not 1 <= getattr(self, name) <= most:
                raise ValueError(f"{name} must lie in [1, {most}], got {getattr(self, name)}")


@lru_cache(maxsize=8)
def _sample_unit(cfg: RoiConfig) -> np.ndarray:
    """(P * ratio,) read-only sample positions in bin lengths from a box's
    low edge: sample s of bin b sits at b + (s + 0.5) / ratio."""
    r = cfg.sampling_ratio
    unit = (np.arange(cfg.pool_size)[:, None] + (np.arange(r)[None, :] + 0.5) / r).ravel()
    unit.flags.writeable = False
    return unit


def _sample_coords(
    lo: np.ndarray, hi: np.ndarray, size: int | np.ndarray, last: int | np.ndarray, cfg: RoiConfig
) -> np.ndarray:
    """(N, P * ratio) continuous array coordinates of the samples along one axis.

    lo/hi are (N,) box edges in normalized [0, 1]; ``size`` is the axis
    length, one for all rows or an (N,) array of one per row, and ``last``
    its last index, ``size - 1``, as a scalar or an (N, 1) column.
    Returned coordinates are clamped to [0, last].
    """
    start = lo * size - 0.5
    bin_len = (hi - lo) * size / cfg.pool_size
    coords = start[:, None] + _sample_unit(cfg)[None, :] * bin_len[:, None]
    return np.clip(coords, 0.0, last)


def _axis_weights(
    coords: np.ndarray, last: int | np.ndarray
) -> tuple[np.ndarray, np.ndarray, np.ndarray, np.ndarray]:
    lo = np.floor(coords).astype(int)
    hi = np.minimum(lo + 1, last)
    frac = coords - lo
    return lo, hi, 1.0 - frac, frac


def roi_align(fmap: FeatureMap, box: Box, cfg: RoiConfig = RoiConfig()) -> FeatureMap:
    """Extract a C x P x P grid for one box.

    Each bin is the average of sampling_ratio^2 bilinear samples taken at
    regularly spaced points inside the bin.
    """
    p, r = cfg.pool_size, cfg.sampling_ratio
    ys = _sample_coords(np.array([box.y1]), np.array([box.y2]), fmap.height, fmap.height - 1, cfg)[0]
    xs = _sample_coords(np.array([box.x1]), np.array([box.x2]), fmap.width, fmap.width - 1, cfg)[0]
    y0, y1, wy0, wy1 = _axis_weights(ys, fmap.height - 1)
    x0, x1, wx0, wx1 = _axis_weights(xs, fmap.width - 1)
    d = fmap.data
    # samples: (C, P*r, P*r) via separable bilinear weights
    samples = (
        d[:, y0[:, None], x0[None, :]] * (wy0[:, None] * wx0[None, :])
        + d[:, y0[:, None], x1[None, :]] * (wy0[:, None] * wx1[None, :])
        + d[:, y1[:, None], x0[None, :]] * (wy1[:, None] * wx0[None, :])
        + d[:, y1[:, None], x1[None, :]] * (wy1[:, None] * wx1[None, :])
    )
    bins = samples.reshape(fmap.channels, p, r, p, r).mean(axis=(2, 4))
    return FeatureMap(fmap.channels, p, p, bins)


@lru_cache(maxsize=64)
def _table_rows(sizes: tuple[tuple[int, int], ...], n: int) -> tuple[np.ndarray, np.ndarray, np.ndarray, int]:
    """What a table of ``n`` boxes at ``sizes`` knows before it sees a box,
    one row per (size, axis, box), each size's y rows then its x rows, row
    k's cells following row k - 1's: (the (M,) axis size of each row, the
    (M, 1) last index of each, the (M, 1) index of each row's first cell,
    the cell count), read-only."""
    size = np.repeat(np.ravel(sizes), n)
    last = size[:, None] - 1
    first = (np.cumsum(size) - size)[:, None]
    for a in (size, last, first):
        a.flags.writeable = False
    return size, last, first, int(size.sum())


def _axis_pool_weights(lo: np.ndarray, hi: np.ndarray, rows: tuple, cfg: RoiConfig) -> np.ndarray:
    """Mean bilinear weights of the P * ratio samples of each edge pair
    (lo[k], hi[k]) along an axis of ``rows``' k-th size (:func:`_table_rows`),
    flat: row k's cells follow row k - 1's."""
    size, last, first, total = rows
    i0, i1, w0, w1 = _axis_weights(_sample_coords(lo, hi, size, last, cfg), last)
    # each row's weights sum in the same order wherever the row sits
    cells = np.concatenate([(first + i0).ravel(), (first + i1).ravel()])
    sums = np.bincount(cells, weights=np.concatenate([w0.ravel(), w1.ravel()]), minlength=total)
    return sums / i0.shape[1]


def pooled_axis_weight_table(
    sizes: list[tuple[int, int]], boxes: list[Box], cfg: RoiConfig = RoiConfig()
) -> dict[tuple[int, int], tuple[np.ndarray, np.ndarray]]:
    """Per-axis pooling weights (a_y (N, h), a_x (N, w)) at every (h, w) in
    ``sizes``, keyed by size: box n pools a map as sum_{y, x} a_y[n, y] *
    a_x[n, x] * map[c, y, x].  One pass computes all: per distinct size, the
    y rows of all boxes, then the x rows.  A row's weights do not depend on
    where it sits, so each entry is bitwise that of a table of its size alone.
    The row sizes and offsets depend on the sizes and box count alone and
    are built once for each (:func:`_table_rows`)."""
    if not boxes:
        raise ValueError("at least one box is required")
    n = len(boxes)
    sizes = tuple(dict.fromkeys(sizes))
    lo = np.array(([b.y1 for b in boxes] + [b.x1 for b in boxes]) * len(sizes), dtype=np.float64)
    hi = np.array(([b.y2 for b in boxes] + [b.x2 for b in boxes]) * len(sizes), dtype=np.float64)
    flat = _axis_pool_weights(lo, hi, _table_rows(sizes, n), cfg)
    table, start = {}, 0
    for h, w in sizes:
        a_y = flat[start : start + n * h].reshape(n, h)
        start += n * h
        a_x = flat[start : start + n * w].reshape(n, w)
        start += n * w
        table[h, w] = (a_y, a_x)
    return table


def pooled_weights(height: int, width: int, boxes: list[Box], cfg: RoiConfig = RoiConfig()) -> np.ndarray:
    """(N, height * width) weights W with pooled[n, c] = sum_p W[n, p] * map[c, p].

    Mean-over-bins pooling averages all P^2 * ratio^2 samples with equal
    weight, so the pooled vector is this fixed linear functional of the map:
    per box, the outer product of the per-axis weights.
    """
    a_y, a_x = pooled_axis_weight_table([(height, width)], boxes, cfg)[height, width]
    return (a_y[:, :, None] * a_x[:, None, :]).reshape(len(boxes), height * width)


def pooled_apply(weights: np.ndarray, map_data: np.ndarray) -> np.ndarray:
    """Apply cached pooling weights to a (C, H, W) array, yielding (N, C)."""
    c = map_data.shape[0]
    return weights @ map_data.reshape(c, -1).T


def pooled_taps(map_data: np.ndarray, g_y: np.ndarray, g_x: np.ndarray) -> np.ndarray:
    """(N, T_y * T_x * C) taps[n, (ty, tx, c)] = sum_{y, x} g_y[n, ty, y] g_x[n, tx, x] map[c, y, x].

    ``map_data`` is (C, H, W), ``g_y`` is (N, T_y, H) and ``g_x`` is
    (N, T_x, W).  The y contraction is one 2-D product over all (box, tap)
    rows, the x contraction is batched over the box axis, and neither sums
    across rows: a box's row does not depend on where it sits among them.
    """
    c, h, w = map_data.shape
    n, t_y, t_x = g_y.shape[0], g_y.shape[1], g_x.shape[1]
    rows = g_y.reshape(n * t_y, h) @ map_data.transpose(1, 0, 2).reshape(h, c * w)  # (N * T_y, C * W)
    taps = np.matmul(rows.reshape(n, t_y * c, w), g_x.transpose(0, 2, 1))  # (N, T_y * C, T_x)
    return taps.reshape(n, t_y, c, t_x).transpose(0, 1, 3, 2).reshape(n, -1)


def apply_taps(taps: np.ndarray, kernel: np.ndarray) -> np.ndarray:
    """(N, O) features taps @ kernel.T for (N, K) taps and an (O, K) kernel,
    or (N, R, O) for (N, R, K) taps.

    A stacked product computes each row on its own; one (N, K) matrix
    product may round a row differently depending on where it sits.
    """
    return np.matmul(taps[..., None, :], kernel.T)[..., 0, :]


def roi_align_pooled(fmap: FeatureMap, boxes: list[Box], cfg: RoiConfig = RoiConfig()) -> np.ndarray:
    """Mean-pooled region features: one row of length ``channels`` per box."""
    w = pooled_weights(fmap.height, fmap.width, boxes, cfg)
    return pooled_apply(w, fmap.data)
