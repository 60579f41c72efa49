"""From a synthetic scene to region tokens, scores and detections.

Runs the path the system runs, at desk scale: render a scene with the toy
dual encoders, apply the frozen primary mix and pool both streams into
per-proposal taps (``prepare_sample``), turn the taps into one region
token per proposal (``region_token_matrix``: pyramid and fused-map
features, box positional embeddings, connector), score every token against every category query
(``score_matrix``) and keep the pairs above the threshold
(``decode_detections``).  The model here is freshly initialized, so its
scores sit near one half; ``08_train_and_benchmark.py`` trains one.
"""

import numpy as np

from regionkit import ExperimentConfig, decode_detections, generate_scene, score_matrix, simulate_opn, vocabulary
from regionkit.experiments import EvalScene
from regionkit.training import GROUP_NEW_VOCAB, init_model_params, prepare_sample, region_token_matrix


def main():
    config = ExperimentConfig(seed=1)
    scene = generate_scene(11, config.world)
    print("scene objects:", [(c, round(b.x1, 2), round(b.y1, 2)) for c, b in scene.objects])

    proposals = simulate_opn(scene, config.proposals, seed=5)
    print(f"{len(proposals)} proposals, top score {proposals[0].score:.2f}")

    params = init_model_params(config)
    sample = prepare_sample(params, EvalScene(scene, proposals), config)
    # SimpleFP's up4_a block has one row of taps per output parity; the four aux maps' blocks are stacked
    for group, blocks in sample.parts:
        shapes = " ".join("x".join(map(str, t.shape[1:])) for t in blocks)
        print(f"pooled taps of {group}, per proposal: {shapes}")
    print(f"hybrid feature length: {config.d_p} primary + {config.d_a} auxiliary = {config.d_total}")

    tokens = region_token_matrix(params, sample)
    print("region tokens:", tokens.shape[0], "x", tokens.shape[1])

    queries = params.groups[GROUP_NEW_VOCAB]["queries"]
    scores = score_matrix(tokens, queries)
    print("category queries:", queries.shape[0], "x", queries.shape[1])
    print("score range:", np.round(scores.min(), 3), "to", np.round(scores.max(), 3))

    dets = decode_detections(scores, proposals, vocabulary(config.n_categories), config.threshold)
    print(f"{len(dets)} of {scores.size} (region, category) pairs pass threshold {config.threshold}")
    for d in dets[:3]:
        print(f"  {d.label:8s} at region {d.source_region} (conf {d.confidence:.3f})")


if __name__ == "__main__":
    main()
