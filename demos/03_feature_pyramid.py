"""Multi-scale feature stacks and the hybrid region feature contract.

The pyramid turns one map into four scales {H/2, H, 2H, 4H}; the auxiliary
path upsamples four maps to a common size and concatenates channels.  With
the reference widths (512 per pyramid scale; auxiliary levels summing to
3840) the hybrid per-region feature comes out at exactly 5888 dimensions.
"""

import numpy as np

from regionkit.gridops import FeatureMap
from regionkit.pyramid import SimpleFPParams, aux_fuse, simple_fp
from regionkit.regionenc import positional_embedding_matrix
from regionkit.roialign import Box, roi_align_pooled


def main():
    rng = np.random.default_rng(0)

    params = SimpleFPParams.seeded(512, 512, rng)
    last_map = FeatureMap.from_array(rng.normal(size=(512, 8, 8)) * 0.1)
    levels = simple_fp(last_map, params)
    print("pyramid scales:", [lv.shape for lv in levels])
    print("per-region pyramid feature dimension:", sum(lv.channels for lv in levels))

    aux_levels = [
        FeatureMap.from_array(rng.normal(size=(c, s, s)) * 0.1)
        for c, s in zip((256, 512, 1024, 2048), (16, 8, 4, 2))
    ]
    fused = aux_fuse(aux_levels)
    print("fused auxiliary map:", fused.shape)

    boxes = [Box(0.1, 0.2, 0.6, 0.7)]
    f_pri = np.concatenate([roi_align_pooled(level, boxes) for level in levels], axis=1)
    f_aux = roi_align_pooled(fused, boxes)
    features = np.concatenate([f_pri, f_aux], axis=1)
    e_pos = positional_embedding_matrix(boxes, features.shape[1])
    f_hybrid = features + e_pos
    print("f_pri", f_pri.shape, "+ f_aux", f_aux.shape, "->", f_hybrid[0].shape)

    # the hybrid vector decomposes exactly into features plus box embedding
    assert np.allclose(f_hybrid - e_pos, features)


if __name__ == "__main__":
    main()
