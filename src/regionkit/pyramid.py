"""Multi-scale feature stacks.

Two constructions feed region pooling:

* :func:`simple_fp` expands a single-scale map into a 4-level pyramid via
  strided branches {2, 1, 1/2, 1/4} — a stride-2 3x3 convolution, a 1x1
  convolution, one 2x2 transposed convolution, and two chained 2x2
  transposed convolutions.  Every level carries ``fp_channels`` channels,
  so the concatenated per-region feature has dimension 4 * fp_channels.
* :func:`aux_fuse` upsamples four maps to the largest spatial size and
  concatenates them along channels, so the fused region feature dimension
  is the sum of the four channel counts.

Branches are plain linear maps (no normalization or nonlinearity);
parameters draw from a seeded uniform (:func:`initial_kernels`).
:func:`simple_fp_backward` and :func:`aux_fuse_backward` are their
adjoints.

Because every step from a raw map to a mean-pooled region feature is
linear, the pooled levels also have a factored form, which is what
training and evaluation run.  Per sample, :func:`simple_fp_taps` and
:func:`aux_fuse_taps` pool their input maps into a few "taps" per box: which
input pixels each kernel tap reaches, weighted by pooling.  They take the
boxes' pooling weights at the sizes they pool at (:func:`simple_fp_sizes`,
:func:`aux_fuse_size`), which a caller computes in one pass for both
(:func:`roialign.pooled_axis_weight_table`).  The pyramid's input is the
primary encoder's output, a map whose mix does not train, so the taps are
of that map; the fused maps' mixes train, so their taps are of the
unmixed maps with a ones channel for the mix bias.  Every tap block is
what one kernel multiplies, ``roialign.apply_taps(taps, kernel)``: a fused
map's 1x1 mix, or a pyramid branch's own kernel.  The two branches of up4
chain: ``up4_b``'s taps are ``up4_a``'s output followed by a bias column.
A kernel's gradient is the transposed product ``d_out.T @ taps``.  The
dense functions above are the oracle these are tested against; the branch
wiring and the fuse rule are stated only in this module.
"""

from __future__ import annotations

from dataclasses import dataclass, field
from functools import lru_cache

import numpy as np

from .gridops import (
    FeatureMap,
    Kernel,
    bilinear_resize,
    bilinear_resize_grad,
    concat_channels,
    conv2d,
    conv2d_backward,
    deconv2d,
    deconv2d_backward,
    resize_matrix,
)
from .roialign import pooled_taps

__all__ = [
    "BRANCHES",
    "SimpleFPParams",
    "initial_kernels",
    "simple_fp",
    "simple_fp_backward",
    "aux_fuse",
    "aux_fuse_backward",
    "simple_fp_sizes",
    "simple_fp_taps",
    "aux_fuse_size",
    "aux_fuse_taps",
]

# the pyramid's branches, in the order of its levels and of their taps
BRANCHES = ("down", "same", "up2", "up4_a", "up4_b")


@dataclass
class SimpleFPParams:
    """The five branch kernels of the pyramid, keyed by branch name."""

    kernels: dict[str, Kernel] = field(default_factory=dict)

    def __post_init__(self):
        missing = [b for b in BRANCHES if b not in self.kernels]
        if missing:
            raise ValueError(f"missing pyramid branches: {missing}")

    @classmethod
    def seeded(cls, in_channels: int, fp_channels: int, rng: np.random.Generator) -> "SimpleFPParams":
        drawn = initial_kernels(in_channels, fp_channels, rng)
        return cls({b: Kernel(*drawn[f"{b}_w"].shape, drawn[f"{b}_w"], drawn[f"{b}_b"]) for b in BRANCHES})


def initial_kernels(in_channels: int, fp_channels: int, rng: np.random.Generator) -> dict[str, np.ndarray]:
    """Initial weights and biases of the five branch kernels, keyed ``<branch>_w`` and
    ``<branch>_b`` as the ``simplefp`` group holds them; drawn in :data:`BRANCHES` order,
    weights then bias, each uniform in +-1/sqrt(fan_in), fan_in = in * kh * kw."""
    shapes = ((in_channels, 3), (in_channels, 1), (in_channels, 2), (in_channels, 2), (fp_channels, 2))
    drawn = {}
    for branch, (inp, k) in zip(BRANCHES, shapes):
        bound = 1.0 / np.sqrt(inp * k * k)
        drawn[f"{branch}_w"] = rng.uniform(-bound, bound, size=(fp_channels, inp, k, k))
        drawn[f"{branch}_b"] = rng.uniform(-bound, bound, size=fp_channels)
    return drawn


def simple_fp(last_map: FeatureMap, params: SimpleFPParams) -> list[FeatureMap]:
    """Build the 4-level pyramid {H/2 x W/2, H x W, 2H x 2W, 4H x 4W}."""
    if min(last_map.height, last_map.width) < 4:
        raise ValueError("input map must be at least 4x4 for the stride-2 branch")
    k = params.kernels
    down = conv2d(last_map, k["down"], stride=2, padding=1)
    same = conv2d(last_map, k["same"], stride=1, padding=0)
    up2 = deconv2d(last_map, k["up2"], stride=2)
    up4 = deconv2d(deconv2d(last_map, k["up4_a"], stride=2), k["up4_b"], stride=2)
    return [down, same, up2, up4]


def simple_fp_backward(
    last_map: FeatureMap, params: SimpleFPParams, level_grads: list[np.ndarray]
) -> tuple[dict[str, tuple[np.ndarray, np.ndarray]], np.ndarray]:
    """Adjoint of :func:`simple_fp` for upstream gradients on its four levels.

    Returns ({branch: (d_weights, d_bias)}, d_input).  The up4 branch's
    intermediate map is recomputed here rather than kept from the forward.
    """
    k = params.kernels
    d_down, d_same, d_up2, d_up4 = level_grads
    mid = deconv2d(last_map, k["up4_a"], stride=2)
    d_w, d_b, d_mid = deconv2d_backward(mid, k["up4_b"], d_up4, stride=2)
    grads = {"up4_b": (d_w, d_b)}
    branches = (
        ("down", conv2d_backward(last_map, k["down"], d_down, stride=2, padding=1)),
        ("same", conv2d_backward(last_map, k["same"], d_same)),
        ("up2", deconv2d_backward(last_map, k["up2"], d_up2, stride=2)),
        ("up4_a", deconv2d_backward(last_map, k["up4_a"], d_mid, stride=2)),
    )
    d_input = np.zeros_like(last_map.data)
    for branch, (d_w, d_b, d_in) in branches:
        grads[branch] = (d_w, d_b)
        d_input += d_in
    return grads, d_input


def aux_fuse_size(sizes: list[tuple[int, int]]) -> tuple[int, int]:
    """The size four auxiliary maps of these sizes are fused at: the largest
    one's.  :func:`aux_fuse_taps` pools at it."""
    if len(sizes) != 4:
        raise ValueError(f"aux_fuse expects exactly 4 maps, got {len(sizes)}")
    biggest = max(h * w for h, w in sizes)
    targets = {(h, w) for h, w in sizes if h * w == biggest}
    if len(targets) != 1:
        raise ValueError("largest map is ambiguous: maximal-area maps differ in shape")
    return targets.pop()


def aux_fuse(maps: list[FeatureMap]) -> FeatureMap:
    """Resize four maps to the largest spatial size and concatenate channels."""
    th, tw = aux_fuse_size([(m.height, m.width) for m in maps])
    resized = [m if (m.height, m.width) == (th, tw) else bilinear_resize(m, th, tw) for m in maps]
    return concat_channels(resized)


def aux_fuse_backward(maps: list[FeatureMap], d_fused: np.ndarray) -> list[np.ndarray]:
    """Adjoint of :func:`aux_fuse`: split a (C, H, W) gradient on the fused map
    into one gradient per input map."""
    out = []
    c0 = 0
    for m in maps:
        d = d_fused[c0 : c0 + m.channels]
        c0 += m.channels
        out.append(d if (m.height, m.width) == d.shape[1:] else bilinear_resize_grad(d, m.height, m.width))
    return out


# ------------------------------------------------------ factored (pooled taps)

def _conv_gather(a: np.ndarray, k: int, stride: int, in_size: int) -> np.ndarray:
    """(N, k, in_size) tap weights of a conv along one axis: output pixel y
    reads input (padded) index stride * y + t for tap t."""
    g = np.zeros((a.shape[0], k, in_size))
    for t in range(k):
        g[:, t, t : t + stride * a.shape[1] : stride] = a
    return g


def _deconv_gather(a: np.ndarray, stride: int) -> np.ndarray:
    """(N, stride, in) tap weights of a stride-sized transposed conv (or a
    chain of them) along one axis: input y writes output stride * y + t."""
    return a.reshape(a.shape[0], -1, stride).transpose(0, 2, 1)


@lru_cache(maxsize=4)
def _zero_bordered(shape: tuple[int, int, int]) -> np.ndarray:
    """A buffer for a (C, H, W) map whose one-cell border stays zero; each user overwrites the inside."""
    return np.zeros((shape[0], shape[1] + 2, shape[2] + 2))


@lru_cache(maxsize=8)
def _stacked_resize(sizes: tuple[int, ...], target: int) -> np.ndarray:
    """(target, sum(sizes)) matrix: the resize matrix of each size to
    ``target``, side by side; the block of ``target`` itself is the identity."""
    mat = np.hstack([resize_matrix(size, target) for size in sizes])
    mat.flags.writeable = False
    return mat


def _row_sums(a_y: np.ndarray, a_x: np.ndarray) -> np.ndarray:
    """(N, 1) total pooling weight per box: what a constant bias pools to."""
    return (a_y.sum(axis=1) * a_x.sum(axis=1))[:, None]


def simple_fp_sizes(height: int, width: int) -> list[tuple[int, int]]:
    """The (height, width) of :func:`simple_fp`'s four levels for an input map
    of this size: what :func:`simple_fp_taps` pools at."""
    return [((height - 1) // 2 + 1, (width - 1) // 2 + 1), (height, width), (2 * height, 2 * width),
            (4 * height, 4 * width)]


def simple_fp_taps(raw: np.ndarray, weights: dict) -> list[np.ndarray]:
    """Pooled taps of :func:`simple_fp`'s four levels on the (C, H, W) map
    ``raw``: one array per branch, in :data:`BRANCHES` order.

    ``weights`` maps each size of :func:`simple_fp_sizes` to the boxes'
    per-axis pooling weights (:func:`roialign.pooled_axis_weight_table`).
    A caller whose 1x1 input mix trains, and so acts on the taps rather
    than on the map, appends a ones channel to ``raw`` for the mix bias;
    the zero padding of the ``down`` branch pads that channel with zeros
    too, so it doubles as the mask that keeps the bias out of the padding.

    Each array is what its branch's (O, kh * kw * C + 1) kernel block
    multiplies: (tap_y, tap_x, channel) products, then the bias columns.
    ``down``, ``same`` and ``up2`` pool to ``apply_taps(taps, kernel)``:

    * ``down``: (N, 9 C + 1), 3 x 3 taps at index 2y + t of the zero-padded
      map, then the row sum S that carries the branch bias;
    * ``same``: (N, C + 1), 1 tap, then S;
    * ``up2``: (N, 4 C + 1), 2 x 2 taps by output parity, then S.

    up4 chains two branches, and its two arrays are what each reads.
    ``up4_a``'s is an (N, 4, 4 C + 1) block with one row per output parity
    (c, d) of ``up4_b``: the 2 x 2 (a, b) taps at index 4y + 2a + c, then
    the parity sum R[c, d] that carries ``up4_a``'s bias.  ``up4_b``'s is
    the (N, 1) column S, which follows ``up4_a``'s (N, 4, F) output
    flattened per box: up4 pools to ``apply_taps([apply_taps(block,
    up4_a) | S], up4_b)``.
    """
    c, h, w = raw.shape
    if min(h, w) < 4:
        raise ValueError("input map must be at least 4x4 for the stride-2 branch")
    down, same, up2, up4 = (weights[size] for size in simple_fp_sizes(h, w))
    levels = []
    a_y, a_x = down
    padded = _zero_bordered(raw.shape)
    padded[:, 1:-1, 1:-1] = raw
    taps = pooled_taps(padded, _conv_gather(a_y, 3, 2, h + 2), _conv_gather(a_x, 3, 2, w + 2))
    levels.append(np.concatenate([taps, _row_sums(a_y, a_x)], axis=1))
    a_y, a_x = same
    levels.append(np.concatenate([pooled_taps(raw, a_y[:, None], a_x[:, None]), _row_sums(a_y, a_x)], axis=1))
    a_y, a_x = up2
    taps = pooled_taps(raw, _deconv_gather(a_y, 2), _deconv_gather(a_x, 2))
    levels.append(np.concatenate([taps, _row_sums(a_y, a_x)], axis=1))
    a_y, a_x = up4
    n = a_y.shape[0]
    taps = pooled_taps(raw, _deconv_gather(a_y, 4), _deconv_gather(a_x, 4)).reshape(n, 2, 2, 2, 2, c)
    parity = a_y.reshape(n, -1, 2).sum(axis=1)[:, :, None] * a_x.reshape(n, -1, 2).sum(axis=1)[:, None, :]
    # columns (a, c, b, d, C) to rows (c, d) of columns (a, b, C)
    block = np.concatenate([taps.transpose(0, 2, 4, 1, 3, 5).reshape(n, 4, 4 * c), parity.reshape(n, 4, 1)], axis=2)
    return levels + [block, _row_sums(a_y, a_x)]


def aux_fuse_taps(raw_maps: list[np.ndarray], weights: dict) -> list[np.ndarray]:
    """Pooled taps of :func:`aux_fuse`: per input map, the (N, J) pooling of
    that map resized to the fused size.

    ``weights`` maps the fused size (:func:`aux_fuse_size`) to the boxes'
    per-axis pooling weights (:func:`roialign.pooled_axis_weight_table`).
    The resize is folded into those weights, by one product per axis with
    the stacked resize matrices (:func:`_stacked_resize`).  Map l's part of
    the fused feature is ``apply_taps(taps[l], mix)`` for its 1x1 mix.
    """
    heights, widths = zip(*(m.shape[1:] for m in raw_maps))
    th, tw = aux_fuse_size(list(zip(heights, widths)))
    a_y, a_x = weights[th, tw]
    g_y, g_x = a_y @ _stacked_resize(heights, th), a_x @ _stacked_resize(widths, tw)
    taps, y0, x0 = [], 0, 0
    for m, h, w in zip(raw_maps, heights, widths):
        taps.append(pooled_taps(m, g_y[:, None, y0 : y0 + h], g_x[:, None, x0 : x0 + w]))
        y0, x0 = y0 + h, x0 + w
    return taps
