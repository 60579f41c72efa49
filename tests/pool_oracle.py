"""Reference implementations of the pooled-tap products.

These are ``roialign.pooled_taps``, ``pyramid.simple_fp_taps`` and
``pyramid.aux_fuse_taps`` in their stacked-product form: the y contraction
is an (N, T_y, H) @ (H, C * W) product batched over the boxes, the down
branch pads the map with a fresh ``np.pad`` and each auxiliary map's
resize is folded into its weights with its own product.  The production
code computes the same sums in fewer, larger products; the tests compare
the two to 1e-12 relative.  The gather helpers and sizes are shared.
"""

from __future__ import annotations

import numpy as np

from regionkit.gridops import resize_matrix
from regionkit.pyramid import _conv_gather, _deconv_gather, _row_sums, aux_fuse_size, simple_fp_sizes


def pooled_taps(map_data: np.ndarray, g_y: np.ndarray, g_x: np.ndarray) -> np.ndarray:
    """(N, T_y * T_x * C) taps[n, (ty, tx, c)] = sum_{y, x} g_y[n, ty, y] g_x[n, tx, x] map[c, y, x].

    ``map_data`` is (C, H, W), ``g_y`` is (N, T_y, H) and ``g_x`` is
    (N, T_x, W).  Every product is batched over the box axis, so a box's
    row does not depend on where it sits among the boxes.
    """
    c, h, w = map_data.shape
    n, t_y, t_x = g_y.shape[0], g_y.shape[1], g_x.shape[1]
    rows = np.matmul(g_y, map_data.transpose(1, 0, 2).reshape(h, c * w))  # (N, T_y, C * W)
    taps = np.matmul(rows.reshape(n, t_y * c, w), g_x.transpose(0, 2, 1))  # (N, T_y * C, T_x)
    return taps.reshape(n, t_y, c, t_x).transpose(0, 1, 3, 2).reshape(n, -1)


def simple_fp_taps(raw: np.ndarray, weights: dict) -> list[np.ndarray]:
    """Pooled taps of the pyramid's four levels on the (C, H, W) map ``raw``:
    one array per branch, in ``BRANCHES`` order."""
    c, h, w = raw.shape
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
    n = a_y.shape[0]
    taps = pooled_taps(raw, _deconv_gather(a_y, 4), _deconv_gather(a_x, 4)).reshape(n, 2, 2, 2, 2, c)
    parity = _deconv_gather(a_y, 2).sum(axis=2)[:, :, None] * _deconv_gather(a_x, 2).sum(axis=2)[:, None, :]
    # columns (a, c, b, d, C) to rows (c, d) of columns (a, b, C)
    block = np.concatenate([taps.transpose(0, 2, 4, 1, 3, 5).reshape(n, 4, 4 * c), parity.reshape(n, 4, 1)], axis=2)
    return levels + [block, _row_sums(a_y, a_x)]


def aux_fuse_taps(raw_maps: list[np.ndarray], weights: dict) -> list[np.ndarray]:
    """Pooled taps of the fused auxiliary map: per input map, the (N, J)
    pooling of that map resized to the fused size."""
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
