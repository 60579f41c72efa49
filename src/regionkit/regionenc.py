"""Hybrid region encoding: the pieces between pooled features and region tokens.

Per region the model pools a primary feature (concatenated over the four
pyramid scales) and an auxiliary feature (pooled from the fused map),
concatenates them, adds a sine-cosine embedding of the box coordinates,
and projects through a small two-layer connector into the token space.
This module holds the embedding and the connector; the one composition of
the whole stage is ``training.region_token_matrix``.  The connector takes
(N, in_dim) rows, one per region, and returns (output, tanh activations),
the second for its backward; it refuses a 1-D input.

The positional embedding follows transformer convention: the vector splits
into four equal blocks, one per coordinate in (x1, y1, x2, y2) order; block
entry 2i is sin(v * w_i) and 2i+1 is cos(v * w_i), where v is the
normalized coordinate scaled by 2*pi and w_i = 10000 ** (-2i / block).
"""

from __future__ import annotations

from dataclasses import dataclass
from functools import lru_cache

import numpy as np

from .gridops import NonFiniteError
from .roialign import Box

__all__ = [
    "Connector",
    "positional_embedding_matrix",
    "connector_forward",
    "connector_backward",
]


@lru_cache(maxsize=8)
def _frequencies(dim: int) -> np.ndarray:
    """The (dim / 8,) read-only w_i of a ``dim``-wide embedding."""
    block = dim // 4
    freqs = 10000.0 ** (-2.0 * np.arange(block // 2) / block)
    freqs.flags.writeable = False
    return freqs


def positional_embedding_matrix(boxes: list[Box], dim: int) -> np.ndarray:
    """(N, dim) sine-cosine embeddings of the boxes' coordinates, one row per box.

    ``dim`` must be divisible by 8 (four coordinate blocks of sin/cos pairs).
    """
    if dim % 8 != 0:
        raise ValueError("embedding dimension must be divisible by 8")
    freqs = _frequencies(dim)
    coords = np.array([(b.x1, b.y1, b.x2, b.y2) for b in boxes], dtype=np.float64).reshape(-1, 4)
    phase = (2.0 * np.pi * coords)[:, :, None] * freqs  # (N, 4, block / 2)
    out = np.empty(phase.shape + (2,))
    out[..., 0] = np.sin(phase)
    out[..., 1] = np.cos(phase)
    return out.reshape(len(coords), dim)


@dataclass
class Connector:
    """Two affine layers with a tanh between, projecting features to token space."""

    w1: np.ndarray
    b1: np.ndarray
    w2: np.ndarray
    b2: np.ndarray

    def __post_init__(self):
        if self.w1.shape[0] != self.b1.shape[0] or self.w2.shape[0] != self.b2.shape[0]:
            raise ValueError("bias lengths must match layer output widths")
        if self.w2.shape[1] != self.w1.shape[0]:
            raise ValueError("layer widths are inconsistent")
        for arr in (self.w1, self.b1, self.w2, self.b2):
            if not np.isfinite(arr).all():
                raise NonFiniteError("connector parameters must be finite")

    @property
    def in_dim(self) -> int:
        return self.w1.shape[1]

    @property
    def out_dim(self) -> int:
        return self.w2.shape[0]

    @classmethod
    def seeded(
        cls, in_dim: int, out_dim: int, rng: np.random.Generator, hidden_dim: int | None = None
    ) -> "Connector":
        hidden = out_dim if hidden_dim is None else hidden_dim
        s1 = 1.0 / np.sqrt(in_dim)
        s2 = 1.0 / np.sqrt(hidden)
        return cls(
            w1=rng.uniform(-s1, s1, size=(hidden, in_dim)),
            b1=rng.uniform(-s1, s1, size=hidden),
            w2=rng.uniform(-s2, s2, size=(out_dim, hidden)),
            b2=rng.uniform(-s2, s2, size=out_dim),
        )


def connector_forward(conn: Connector, rows: np.ndarray) -> tuple[np.ndarray, np.ndarray]:
    """Row-wise affine -> tanh -> affine on the (N, in_dim) ``rows``.

    Returns (output, tanh activations): the second is what
    :func:`connector_backward` takes as ``hidden``.

    Each product is an ``np.dot`` of 2-D arrays: it reaches the same BLAS
    routine as ``np.matmul`` (``@``), with the same bytes, without the
    ufunc dispatch, which is a sizable part of a product this small.
    """
    if np.ndim(rows) != 2:
        raise ValueError(f"the connector expects rows, a 2-D array, got {np.ndim(rows)} dimensions")
    if rows.shape[1] != conn.in_dim:
        raise ValueError(f"input width {rows.shape[1]} does not match connector ({conn.in_dim})")
    hidden = np.dot(rows, conn.w1.T)
    hidden += conn.b1
    np.tanh(hidden, out=hidden)
    out = np.dot(hidden, conn.w2.T)
    out += conn.b2
    return out, hidden


def connector_backward(
    conn: Connector,
    rows: np.ndarray,
    upstream: np.ndarray,
    hidden: np.ndarray,
    input_grad: bool = True,
    out: dict[str, np.ndarray] | None = None,
) -> tuple[dict[str, np.ndarray], np.ndarray | None]:
    """Analytic gradients of :func:`connector_forward`.

    Returns ({"w1", "b1", "w2", "b2"}, d_input) for an upstream gradient of
    the same shape as the forward output.  ``hidden`` is the forward's tanh
    activations on these rows; d_input is None without ``input_grad``.  Given
    ``out``, arrays by the same names, each gradient it names (and d_input,
    at ``"input"``) is written into and returned as its array; those of the
    products (``w1``, ``w2`` and ``"input"``) must be C-contiguous, as
    ``np.dot`` writes only into such an array.  The products are ``np.dot``
    calls, for the reason :func:`connector_forward` gives.
    """
    if np.ndim(rows) != 2 or np.ndim(upstream) != 2:
        raise ValueError("the connector's backward expects rows: a 2-D input and a 2-D upstream gradient")
    if rows.shape[1] != conn.in_dim:
        raise ValueError("input width does not match connector")
    if upstream.shape != (rows.shape[0], conn.out_dim):
        raise ValueError("upstream gradient shape does not match forward output")
    out = out or {}
    d_w2 = np.dot(upstream.T, hidden, out=out.get("w2"))
    d_b2 = upstream.sum(axis=0, out=out.get("b2"))
    d_pre = np.dot(upstream, conn.w2)
    d_pre *= 1.0 - hidden**2
    d_w1 = np.dot(d_pre.T, rows, out=out.get("w1"))
    d_b1 = d_pre.sum(axis=0, out=out.get("b1"))
    grads = {"w1": d_w1, "b1": d_b1, "w2": d_w2, "b2": d_b2}
    return grads, (np.dot(d_pre, conn.w1, out=out.get("input")) if input_grad else None)
