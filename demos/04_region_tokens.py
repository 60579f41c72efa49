"""From a synthetic scene to region tokens and the model input sequence.

Runs the whole encoding path at desk scale: render a scene with the toy
dual encoders, build the pyramid, pool per-proposal features from both
streams, add box positional embeddings, project through the connector,
and interleave the resulting region tokens into an input sequence.
"""

import numpy as np

from regionkit import (
    Connector,
    RegionToken,
    SimpleFPParams,
    aux_fuse,
    build_input_sequence,
    connector_forward,
    generate_scene,
    roi_align_pooled,
    simple_fp,
    simulate_opn,
    toy_encode,
)
from regionkit.regionenc import positional_embedding_matrix
from regionkit.simworld import SceneConfig


def main():
    rng = np.random.default_rng(1)
    world = SceneConfig(min_objects=3, max_objects=3)
    scene = generate_scene(11, world)
    print("scene objects:", [(c, round(b.x1, 2), round(b.y1, 2)) for c, b in scene.objects])

    proposals = simulate_opn(scene, seed=5)
    print(f"{len(proposals)} proposals, top score {proposals[0].score:.2f}")

    primary, aux_maps = toy_encode(scene)
    pyramid = simple_fp(primary, SimpleFPParams.seeded(primary.channels, 8, rng))
    fused = aux_fuse(aux_maps)

    pooled = [roi_align_pooled(m, proposals) for m in pyramid + [fused]]
    features = np.concatenate(pooled, axis=1)
    f_hybrid = features + positional_embedding_matrix(proposals, features.shape[1])
    print("hybrid feature length:", f_hybrid.shape[1])

    connector = Connector.seeded(f_hybrid.shape[1], 64, rng)
    tokens = [RegionToken(row, i) for i, row in enumerate(connector_forward(connector, f_hybrid))]
    print("region tokens:", len(tokens), "x", tokens[0].embedding.shape[0])

    seq = build_input_sequence(4, tokens, ["find ", "every ", "object"])
    print("input sequence:")
    print(seq.render())


if __name__ == "__main__":
    main()
