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
adjoints, so the branch wiring and the fuse rule are stated only here.
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
)

__all__ = ["SimpleFPParams", "simple_fp", "simple_fp_backward", "aux_fuse", "aux_fuse_backward"]

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


def aux_fuse(maps: list[FeatureMap]) -> FeatureMap:
    """Resize four maps to the largest spatial size and concatenate channels."""
    if len(maps) != 4:
        raise ValueError(f"aux_fuse expects exactly 4 maps, got {len(maps)}")
    areas = [m.height * m.width for m in maps]
    biggest = max(areas)
    target_shapes = {(m.height, m.width) for m, a in zip(maps, areas) if a == biggest}
    if len(target_shapes) != 1:
        raise ValueError("largest map is ambiguous: maximal-area maps differ in shape")
    (th, tw) = target_shapes.pop()
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
