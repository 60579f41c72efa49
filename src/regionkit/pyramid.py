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
parameters initialize from a seeded uniform so runs are reproducible.
:func:`simple_fp_backward` and :func:`aux_fuse_backward` are their
adjoints.

Because every step from a raw map to a mean-pooled region feature is
linear, the pooled levels also have a factored form, which is what
training and evaluation run.  Per sample, :func:`simple_fp_taps` and
:func:`aux_fuse_taps` pool the raw maps into a few "taps" per box: which
input pixels each kernel tap reaches, weighted by pooling.  They take the
boxes' pooling weights at the sizes they pool at (:func:`simple_fp_sizes`,
:func:`aux_fuse_size`), which a caller computes in one pass for both
(:func:`roialign.pooled_axis_weight_table`).  A pooled level is
then the taps times an effective kernel built from the parameters
(:func:`simple_fp_pooled`, :func:`aux_fuse_pooled`), and the gradients
are the transposed products (:func:`simple_fp_pooled_backward`,
:func:`aux_fuse_pooled_backward`).  The dense functions above are the
oracle these are tested against; the branch wiring and the fuse rule are
stated only in this module.
"""

from __future__ import annotations

from dataclasses import dataclass, field

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
from .roialign import apply_taps, pooled_taps

__all__ = [
    "SimpleFPParams",
    "simple_fp",
    "simple_fp_backward",
    "aux_fuse",
    "aux_fuse_backward",
    "simple_fp_sizes",
    "simple_fp_taps",
    "simple_fp_pooled",
    "simple_fp_pooled_backward",
    "aux_fuse_size",
    "aux_fuse_taps",
    "aux_fuse_pooled",
    "aux_fuse_pooled_backward",
]

_BRANCHES = ("down", "same", "up2", "up4_a", "up4_b")


@dataclass
class SimpleFPParams:
    """The five branch kernels of the pyramid, keyed by branch name."""

    kernels: dict[str, Kernel] = field(default_factory=dict)

    def __post_init__(self):
        missing = [b for b in _BRANCHES if b not in self.kernels]
        if missing:
            raise ValueError(f"missing pyramid branches: {missing}")

    @classmethod
    def seeded(cls, in_channels: int, fp_channels: int, rng: np.random.Generator) -> "SimpleFPParams":
        return cls(
            {
                "down": Kernel.seeded_uniform(fp_channels, in_channels, 3, 3, rng),
                "same": Kernel.seeded_uniform(fp_channels, in_channels, 1, 1, rng),
                "up2": Kernel.seeded_uniform(fp_channels, in_channels, 2, 2, rng),
                "up4_a": Kernel.seeded_uniform(fp_channels, in_channels, 2, 2, rng),
                "up4_b": Kernel.seeded_uniform(fp_channels, fp_channels, 2, 2, rng),
            }
        )


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


def _row_sums(a_y: np.ndarray, a_x: np.ndarray) -> np.ndarray:
    """(N, 1) total pooling weight per box: what a constant bias pools to."""
    return (a_y.sum(axis=1) * a_x.sum(axis=1))[:, None]


def simple_fp_sizes(height: int, width: int) -> list[tuple[int, int]]:
    """The (height, width) of :func:`simple_fp`'s four levels for an input map
    of this size: what :func:`simple_fp_taps` pools at."""
    return [((height - 1) // 2 + 1, (width - 1) // 2 + 1), (height, width), (2 * height, 2 * width),
            (4 * height, 4 * width)]


def simple_fp_taps(raw: np.ndarray, weights: dict) -> list[np.ndarray]:
    """Pooled taps of :func:`simple_fp`'s four levels, one (N, K) array each.

    ``raw`` is the (J, H, W) map the pyramid's (C, J) input mix acts on;
    a caller whose mix has a bias appends a ones channel to it.  The zero
    padding of the ``down`` branch pads that channel with zeros too, so it
    doubles as the mask that keeps the bias out of the padding.
    ``weights`` maps each size of :func:`simple_fp_sizes` to the boxes'
    per-axis pooling weights (:func:`roialign.pooled_axis_weight_table`).

    Level l pools to ``taps[l] @ effective kernel.T``
    (:func:`simple_fp_pooled`).  The columns are (tap_y, tap_x, channel)
    products, then the level's bias columns:

    * ``down``: 3 x 3 taps at index 2y + t of the zero-padded map, then
      the row sum S that carries the branch bias;
    * ``same``: 1 tap, then S;
    * ``up2``: 2 x 2 taps by output parity, then S;
    * ``up4``: 4 x 4 taps at index 4y + 2a + c (a from ``up4_a``, c from
      ``up4_b``), then the per-parity sums R[c, d] that carry ``up4_a``'s
      bias, then S.
    """
    _, h, w = raw.shape
    if min(h, w) < 4:
        raise ValueError("input map must be at least 4x4 for the stride-2 branch")
    down, same, up2, up4 = (weights[size] for size in simple_fp_sizes(h, w))
    levels = []
    a_y, a_x = down
    padded = np.pad(raw, ((0, 0), (1, 1), (1, 1)))
    taps = pooled_taps(padded, _conv_gather(a_y, 3, 2, h + 2), _conv_gather(a_x, 3, 2, w + 2))
    levels.append(np.concatenate([taps, _row_sums(a_y, a_x)], axis=1))
    a_y, a_x = same
    levels.append(np.concatenate([pooled_taps(raw, a_y[:, None], a_x[:, None]), _row_sums(a_y, a_x)], axis=1))
    a_y, a_x = up2
    taps = pooled_taps(raw, _deconv_gather(a_y, 2), _deconv_gather(a_x, 2))
    levels.append(np.concatenate([taps, _row_sums(a_y, a_x)], axis=1))
    a_y, a_x = up4
    taps = pooled_taps(raw, _deconv_gather(a_y, 4), _deconv_gather(a_x, 4))
    n = a_y.shape[0]
    parity = _deconv_gather(a_y, 2).sum(axis=2)[:, :, None] * _deconv_gather(a_x, 2).sum(axis=2)[:, None, :]
    levels.append(np.concatenate([taps, parity.reshape(n, 4), _row_sums(a_y, a_x)], axis=1))
    return levels


def _tap_major(w: np.ndarray) -> np.ndarray:
    """(O, C, kh, kw) kernel as (O, kh, kw, C), the taps' column order."""
    return w.transpose(0, 2, 3, 1)


def _fp_kernels(mix: np.ndarray, fp: dict[str, np.ndarray]) -> list[np.ndarray]:
    """Effective (O, K) kernels of the four levels for (C, J) input ``mix``."""
    o = fp["same_b"].shape[0]
    bias = {b: fp[f"{b}_b"][:, None] for b in ("down", "same", "up2", "up4_b")}
    down = (_tap_major(fp["down_w"]) @ mix).reshape(o, -1)
    same = fp["same_w"][:, :, 0, 0] @ mix
    up2 = (_tap_major(fp["up2_w"]) @ mix).reshape(o, -1)
    mid = _tap_major(fp["up4_a_w"]) @ mix  # (F, a, b, J)
    outer = _tap_major(fp["up4_b_w"]).reshape(4 * o, -1)  # rows (o, c, d)
    up4 = (outer @ mid.reshape(mid.shape[0], -1)).reshape(o, 2, 2, 2, 2, -1)
    up4 = up4.transpose(0, 3, 1, 4, 2, 5).reshape(o, -1)  # columns (a, c, b, d, J)
    mid_bias = (outer @ fp["up4_a_b"]).reshape(o, 4)  # columns (c, d)
    return [
        np.concatenate([down, bias["down"]], axis=1),
        np.concatenate([same, bias["same"]], axis=1),
        np.concatenate([up2, bias["up2"]], axis=1),
        np.concatenate([up4, mid_bias, bias["up4_b"]], axis=1),
    ]


def simple_fp_pooled(taps: list[np.ndarray], mix: np.ndarray, fp: dict[str, np.ndarray]) -> list[np.ndarray]:
    """The four pooled levels of :func:`simple_fp` on ``mix`` applied to the
    tapped map: (N, O) each.  ``fp`` holds the branch arrays by name
    (``down_w``, ``down_b``, ...)."""
    return [apply_taps(t, k) for t, k in zip(taps, _fp_kernels(mix, fp))]


def simple_fp_pooled_backward(
    taps: list[np.ndarray], mix: np.ndarray, fp: dict[str, np.ndarray], d_pooled: list[np.ndarray]
) -> dict[str, np.ndarray]:
    """Adjoint of :func:`simple_fp_pooled` in the branch arrays for (N, O)
    gradients on its four levels: {``down_w``: ..., ``down_b``: ..., ...}.
    The input ``mix`` is held fixed."""
    mid = _tap_major(fp["up4_a_w"]) @ mix  # (F, a, b, J), as in the forward
    d_down, d_same, d_up2, d_up4 = (d.T @ t for d, t in zip(d_pooled, taps))
    o = fp["same_w"].shape[0]
    grads = {"down_b": d_down[:, -1], "same_b": d_same[:, -1], "up2_b": d_up2[:, -1]}

    outer = _tap_major(fp["up4_b_w"]).reshape(4 * o, -1)
    d_up4, d_mid_bias, grads["up4_b_b"] = d_up4[:, :-5], d_up4[:, -5:-1].reshape(-1), d_up4[:, -1]
    d_prod = d_up4.reshape(o, 2, 2, 2, 2, -1).transpose(0, 2, 4, 1, 3, 5).reshape(4 * o, -1)
    d_outer = d_prod @ mid.reshape(mid.shape[0], -1).T + np.outer(d_mid_bias, fp["up4_a_b"])
    grads["up4_b_w"] = d_outer.reshape(o, 2, 2, -1).transpose(0, 3, 1, 2)
    grads["up4_a_b"] = outer.T @ d_mid_bias

    # each branch's effective kernel is its tap-major weights times the mix
    d_kernels = {"down": d_down[:, :-1], "same": d_same[:, :-1], "up2": d_up2[:, :-1], "up4_a": outer.T @ d_prod}
    for branch, d_k in d_kernels.items():
        n_out, _, kh, kw = fp[f"{branch}_w"].shape
        grads[f"{branch}_w"] = (d_k.reshape(n_out, kh, kw, -1) @ mix.T).transpose(0, 3, 1, 2)
    return grads


def aux_fuse_taps(raw_maps: list[np.ndarray], weights: dict) -> list[np.ndarray]:
    """Pooled taps of :func:`aux_fuse`: per input map, the (N, J) pooling of
    that map resized to the fused size.

    ``weights`` maps the fused size (:func:`aux_fuse_size`) to the boxes'
    per-axis pooling weights (:func:`roialign.pooled_axis_weight_table`).
    The resize is folded into those weights, box by box.
    """
    sizes = [m.shape[1:] for m in raw_maps]
    th, tw = aux_fuse_size(sizes)
    a_y, a_x = weights[th, tw]
    taps = []
    for m, (h, w) in zip(raw_maps, sizes):
        g_y, g_x = a_y[:, None], a_x[:, None]
        if (h, w) != (th, tw):
            g_y, g_x = g_y @ resize_matrix(h, th), g_x @ resize_matrix(w, tw)
        taps.append(pooled_taps(m, g_y, g_x))
    return taps


def aux_fuse_pooled(taps: list[np.ndarray], mixes: list[np.ndarray]) -> np.ndarray:
    """Pooled :func:`aux_fuse` of the mixed maps: (N, sum of mix widths),
    where mix l is an (O_l, J_l) 1x1 kernel with its bias as last column."""
    return np.concatenate([apply_taps(t, m) for t, m in zip(taps, mixes)], axis=1)


def aux_fuse_pooled_backward(
    taps: list[np.ndarray], mixes: list[np.ndarray], d_pooled: np.ndarray
) -> list[np.ndarray]:
    """Adjoint of :func:`aux_fuse_pooled`: the gradient of each mix."""
    cols = np.cumsum([0] + [m.shape[0] for m in mixes])
    return [d_pooled[:, c0:c1].T @ t for t, c0, c1 in zip(taps, cols[:-1], cols[1:])]
