"""Dense feature-map numerics.

A :class:`FeatureMap` is a channels-by-height-by-width grid of real values,
the substrate every other module operates on.  The operations here are the
usual detection-stack primitives — bilinear resizing with half-pixel
centers, strided cross-correlation, transposed convolution, and channel
concatenation — implemented with plain numpy so each one can be checked
against a naive-loop oracle.

Conventions fixed here, once:

* resizing maps destination pixel centers to source coordinates via
  ``src = (dst + 0.5) * (in / out) - 0.5`` and clamps samples to the edge;
* ``conv2d`` is cross-correlation (no kernel flip), zero padding only;
* ``deconv2d`` scatters with integer stride; with the kernel's channel
  axes swapped it is the exact adjoint of ``conv2d``.

All arrays are float64 and all operations are pure functions.
"""

from __future__ import annotations

from dataclasses import dataclass, field
from functools import lru_cache

import numpy as np

__all__ = [
    "FeatureMap",
    "NonFiniteError",
    "check_finite",
    "Kernel",
    "bilinear_resize",
    "resize_matrix",
    "conv2d",
    "conv2d_backward",
    "deconv2d",
    "deconv2d_backward",
    "concat_channels",
]


def _as_grid(data: np.ndarray, channels: int, height: int, width: int) -> np.ndarray:
    arr = np.asarray(data, dtype=np.float64)
    if arr.shape != (channels, height, width):
        raise ValueError(f"data shape {arr.shape} does not match ({channels}, {height}, {width})")
    return np.ascontiguousarray(arr)


class NonFiniteError(ValueError):
    """A feature map or connector was built from values that are not all finite."""


def check_finite(data: np.ndarray, what: str) -> np.ndarray:
    """``data``, once it holds only finite values; else NonFiniteError naming ``what``."""
    if not np.isfinite(data).all():
        raise NonFiniteError(f"{what} contains non-finite values")
    return data


@dataclass
class FeatureMap:
    """A dense C x H x W grid of finite real values, row-major in (c, y, x)."""

    channels: int
    height: int
    width: int
    data: np.ndarray = field(repr=False)

    def __post_init__(self):
        if self.channels < 1 or self.height < 1 or self.width < 1:
            raise ValueError("FeatureMap dimensions must be positive")
        shape = (self.channels, self.height, self.width)
        self.data = check_finite(_as_grid(self.data, *shape), "x".join(map(str, shape)) + " FeatureMap")

    @classmethod
    def from_array(cls, arr: np.ndarray) -> "FeatureMap":
        arr = np.asarray(arr, dtype=np.float64)
        if arr.ndim != 3:
            raise ValueError("expected a (channels, height, width) array")
        return cls(arr.shape[0], arr.shape[1], arr.shape[2], arr)

    @classmethod
    def full(cls, channels: int, height: int, width: int, value: float = 0.0) -> "FeatureMap":
        return cls(channels, height, width, np.full((channels, height, width), float(value)))

    @property
    def shape(self) -> tuple[int, int, int]:
        return (self.channels, self.height, self.width)


@dataclass
class Kernel:
    """Convolution weights (out_channels, in_channels, k_h, k_w) plus bias."""

    out_channels: int
    in_channels: int
    k_h: int
    k_w: int
    weights: np.ndarray = field(repr=False)
    bias: np.ndarray = field(repr=False, default=None)

    def __post_init__(self):
        for n in (self.out_channels, self.in_channels, self.k_h, self.k_w):
            if n < 1:
                raise ValueError("Kernel dimensions must be positive")
        w = np.asarray(self.weights, dtype=np.float64)
        expect = (self.out_channels, self.in_channels, self.k_h, self.k_w)
        if w.shape != expect:
            raise ValueError(f"kernel weights shape {w.shape}, expected {expect}")
        self.weights = np.ascontiguousarray(w)
        if self.bias is None:
            self.bias = np.zeros(self.out_channels)
        else:
            b = np.asarray(self.bias, dtype=np.float64)
            if b.shape != (self.out_channels,):
                raise ValueError("bias length must equal out_channels")
            self.bias = b.copy()

    @classmethod
    def identity(cls, channels: int) -> "Kernel":
        """1x1 kernel mapping each channel to itself, zero bias."""
        w = np.eye(channels).reshape(channels, channels, 1, 1)
        return cls(channels, channels, 1, 1, w)

    def swap_channels(self) -> "Kernel":
        """Kernel with out/in channel axes transposed (adjoint pairing), zero bias."""
        return Kernel(
            self.in_channels,
            self.out_channels,
            self.k_h,
            self.k_w,
            np.transpose(self.weights, (1, 0, 2, 3)),
        )


# ---------------------------------------------------------------- resizing

@lru_cache(maxsize=256)
def resize_matrix(in_size: int, out_size: int) -> np.ndarray:
    """1-D interpolation matrix R with out[d] = sum_s R[d, s] * in[s].

    Half-pixel-center mapping with edge clamping; each row has at most two
    non-zero entries that sum to 1.  Built once per (in, out) pair and
    shared, so the array is read-only.
    """
    if out_size < 1:
        raise ValueError("target size must be >= 1")
    dst = np.arange(out_size, dtype=np.float64)
    src = (dst + 0.5) * (in_size / out_size) - 0.5
    src = np.clip(src, 0.0, in_size - 1)
    lo = np.floor(src).astype(int)
    hi = np.minimum(lo + 1, in_size - 1)
    frac = src - lo
    mat = np.zeros((out_size, in_size))
    rows = np.arange(out_size)
    # (rows, lo) pairs are distinct, as are (rows, hi); where hi == lo the
    # second statement adds onto the first
    mat[rows, lo] += 1.0 - frac
    mat[rows, hi] += frac
    mat.flags.writeable = False
    return mat


def bilinear_resize(fmap: FeatureMap, out_h: int, out_w: int) -> FeatureMap:
    """Resize to out_h x out_w by separable bilinear interpolation."""
    if out_h < 1 or out_w < 1:
        raise ValueError("target size must be >= 1")
    ry = resize_matrix(fmap.height, out_h)
    rx = resize_matrix(fmap.width, out_w)
    return FeatureMap(fmap.channels, out_h, out_w, ry @ fmap.data @ rx.T)


def bilinear_resize_grad(
    grad: np.ndarray, in_h: int, in_w: int
) -> np.ndarray:
    """Adjoint of :func:`bilinear_resize`: scatter an upstream (C, oh, ow) gradient
    back to a (C, in_h, in_w) gradient."""
    ry = resize_matrix(in_h, grad.shape[1])
    rx = resize_matrix(in_w, grad.shape[2])
    return ry.T @ grad @ rx


# ------------------------------------------------------------- convolution

def _conv_out_size(in_size: int, k: int, stride: int, padding: int) -> int:
    return (in_size + 2 * padding - k) // stride + 1


def _im2col(padded: np.ndarray, k_h: int, k_w: int, stride: int, out_h: int, out_w: int) -> np.ndarray:
    """Stack (C, k_h, k_w, out_h, out_w) patch views of a padded map."""
    c = padded.shape[0]
    cols = np.empty((c, k_h, k_w, out_h, out_w))
    for dy in range(k_h):
        for dx in range(k_w):
            cols[:, dy, dx] = padded[:, dy : dy + stride * out_h : stride, dx : dx + stride * out_w : stride]
    return cols


def conv2d(fmap: FeatureMap, kernel: Kernel, stride: int = 1, padding: int = 0) -> FeatureMap:
    """Strided cross-correlation with zero padding.

    Output spatial size is floor((in + 2*padding - k) / stride) + 1 per axis.
    """
    if stride < 1:
        raise ValueError("stride must be >= 1")
    if padding < 0:
        raise ValueError("padding must be >= 0")
    if kernel.in_channels != fmap.channels:
        raise ValueError(
            f"kernel expects {kernel.in_channels} input channels, map has {fmap.channels}"
        )
    out_h = _conv_out_size(fmap.height, kernel.k_h, stride, padding)
    out_w = _conv_out_size(fmap.width, kernel.k_w, stride, padding)
    if out_h < 1 or out_w < 1:
        raise ValueError("convolution output would be empty")
    padded = np.pad(fmap.data, ((0, 0), (padding, padding), (padding, padding)))
    cols = _im2col(padded, kernel.k_h, kernel.k_w, stride, out_h, out_w)
    out = np.tensordot(kernel.weights, cols, axes=([1, 2, 3], [0, 1, 2]))
    out += kernel.bias[:, None, None]
    return FeatureMap(kernel.out_channels, out_h, out_w, out)


def conv2d_backward(
    fmap: FeatureMap, kernel: Kernel, grad: np.ndarray, stride: int = 1, padding: int = 0
) -> tuple[np.ndarray, np.ndarray, np.ndarray]:
    """Gradients of conv2d for upstream ``grad`` of shape (out_c, out_h, out_w).

    Returns (d_weights, d_bias, d_input).
    """
    out_c, out_h, out_w = grad.shape
    padded = np.pad(fmap.data, ((0, 0), (padding, padding), (padding, padding)))
    cols = _im2col(padded, kernel.k_h, kernel.k_w, stride, out_h, out_w)
    d_w = np.tensordot(grad, cols, axes=([1, 2], [3, 4]))
    d_b = grad.sum(axis=(1, 2))
    d_padded = np.zeros_like(padded)
    for dy in range(kernel.k_h):
        for dx in range(kernel.k_w):
            d_padded[:, dy : dy + stride * out_h : stride, dx : dx + stride * out_w : stride] += np.tensordot(
                kernel.weights[:, :, dy, dx], grad, axes=([0], [0])
            )
    if padding:
        d_in = d_padded[:, padding:-padding, padding:-padding]
    else:
        d_in = d_padded
    return d_w, d_b, np.ascontiguousarray(d_in)


# ------------------------------------------------- transposed convolution

def deconv2d(fmap: FeatureMap, kernel: Kernel, stride: int = 1) -> FeatureMap:
    """Transposed convolution: output size (in - 1) * stride + k per axis.

    Each input value scatters a kernel-weighted footprint into the output;
    realizes a fractional stride 1/stride of the forward convolution.
    """
    if stride < 1:
        raise ValueError("stride must be >= 1")
    if kernel.in_channels != fmap.channels:
        raise ValueError(
            f"kernel expects {kernel.in_channels} input channels, map has {fmap.channels}"
        )
    h, w = fmap.height, fmap.width
    out_h = (h - 1) * stride + kernel.k_h
    out_w = (w - 1) * stride + kernel.k_w
    out = np.zeros((kernel.out_channels, out_h, out_w))
    for dy in range(kernel.k_h):
        for dx in range(kernel.k_w):
            out[:, dy : dy + stride * h : stride, dx : dx + stride * w : stride] += np.tensordot(
                kernel.weights[:, :, dy, dx], fmap.data, axes=([1], [0])
            )
    out += kernel.bias[:, None, None]
    return FeatureMap(kernel.out_channels, out_h, out_w, out)


def deconv2d_backward(
    fmap: FeatureMap, kernel: Kernel, grad: np.ndarray, stride: int = 1
) -> tuple[np.ndarray, np.ndarray, np.ndarray]:
    """Gradients of deconv2d for upstream ``grad`` of shape (out_c, out_h, out_w).

    Returns (d_weights, d_bias, d_input).
    """
    h, w = fmap.height, fmap.width
    d_w = np.empty_like(kernel.weights)
    d_in = np.zeros_like(fmap.data)
    for dy in range(kernel.k_h):
        for dx in range(kernel.k_w):
            g = grad[:, dy : dy + stride * h : stride, dx : dx + stride * w : stride]
            d_w[:, :, dy, dx] = np.tensordot(g, fmap.data, axes=([1, 2], [1, 2]))
            d_in += np.tensordot(kernel.weights[:, :, dy, dx], g, axes=([0], [0]))
    d_b = grad.sum(axis=(1, 2))
    return d_w, d_b, d_in


# ----------------------------------------------------------- concatenation

def concat_channels(maps: list[FeatureMap]) -> FeatureMap:
    """Stack maps along the channel axis, preserving list order."""
    if not maps:
        raise ValueError("concat_channels requires at least one map")
    h, w = maps[0].height, maps[0].width
    for m in maps[1:]:
        if (m.height, m.width) != (h, w):
            raise ValueError("all maps must share spatial dimensions")
    data = np.concatenate([m.data for m in maps], axis=0)
    return FeatureMap(data.shape[0], h, w, data)
