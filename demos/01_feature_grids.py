"""Feature-map basics: grids, resizing, convolution, concatenation.

Everything downstream (pyramids, pooling, training) is built from these
four operations, so this demo walks them end to end on tiny arrays where
the numbers are easy to eyeball.
"""

import numpy as np

from regionkit.gridops import FeatureMap, Kernel, bilinear_resize, concat_channels, conv2d, deconv2d


def main():
    # a 1-channel 2x2 grid; values indexed (channel, y, x)
    m = FeatureMap(1, 2, 2, np.array([[[1.0, 2.0], [3.0, 4.0]]]))
    print("input grid:\n", m.data[0])

    # half-pixel-center bilinear resize; shrinking to 1x1 lands on the
    # center of the bilinear surface, the mean of the four corners here
    tiny = bilinear_resize(m, 1, 1)
    print("resized to 1x1:", tiny.data.ravel())

    up = bilinear_resize(m, 4, 4)
    print("resized to 4x4:\n", np.round(up.data[0], 2))

    # cross-correlation with an identity kernel is the identity
    same = conv2d(m, Kernel.identity(1))
    print("identity conv unchanged:", np.array_equal(same.data, m.data))

    # a stride-2 transposed convolution doubles the grid
    k = Kernel(1, 1, 2, 2, np.ones((1, 1, 2, 2)))
    grown = deconv2d(m, k, stride=2)
    print("deconv output shape:", grown.shape)

    stacked = concat_channels([m, same])
    print("concat channels:", stacked.channels)


if __name__ == "__main__":
    main()
