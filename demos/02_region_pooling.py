"""Region-of-interest pooling with aligned bilinear sampling.

Paints a bright square onto a feature grid and shows how boxes in
normalized coordinates pull out fixed-size region features regardless of
where or how large the box is.
"""

import numpy as np

from regionkit.gridops import FeatureMap
from regionkit.roialign import Box, RoiConfig, roi_align, roi_align_pooled


def main():
    data = np.zeros((1, 16, 16))
    data[0, 4:10, 6:12] = 1.0  # a bright block
    m = FeatureMap.from_array(data)

    on_target = Box(6 / 16, 4 / 16, 12 / 16, 10 / 16)
    nearby = Box(0.0, 0.0, 0.3, 0.3)

    grid = roi_align(m, on_target, RoiConfig(pool_size=3))
    print("3x3 bins over the block:\n", np.round(grid.data[0], 2))

    pooled = roi_align_pooled(m, [on_target, nearby])
    print("pooled mean on the block:   ", round(float(pooled[0, 0]), 3))
    print("pooled mean off the block:  ", round(float(pooled[1, 0]), 3))

    # pooled values are convex combinations of map values
    assert data.min() <= pooled.min() and pooled.max() <= data.max()

    # a zero-area box at a pixel center reads that pixel exactly
    cx, cy = (8 + 0.5) / 16, (5 + 0.5) / 16
    point = roi_align_pooled(m, [Box(cx, cy, cx, cy)])
    print("point sample at (5, 8):     ", float(point[0, 0]))


if __name__ == "__main__":
    main()
