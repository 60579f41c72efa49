"""Detection as retrieval: score region tokens against category queries.

No coordinates are ever generated.  Region tokens are the rows of a token
matrix and category queries the rows of a query table; each (region,
category) pair gets an independent logistic score, pairs above the
threshold become detections that reuse the proposal geometry, absent
categories simply stay silent, and counting is just decoding, then
counting a category's detections.
"""

import numpy as np

from regionkit import Box, decode_detections, detect_then_count, score_matrix
from regionkit.retrieval import emit_grounded_summary, grounded_to_detections
from regionkit.tokenproto import parse_grounded


def main():
    rng = np.random.default_rng(3)
    # a hand-built token matrix: three regions lean toward 'cat', one toward 'dog'
    cat_axis = rng.normal(size=8)
    dog_axis = rng.normal(size=8)
    tokens = np.stack([cat_axis * 1.5, dog_axis * 1.5, cat_axis * 1.2, cat_axis * 1.1])
    labels = ["cat", "dog", "pelican"]
    # an untrained category sits at logistic(0) = 0.5 for every region,
    # below any threshold above one half: rejection by silence
    queries = np.stack([cat_axis, dog_axis, np.zeros(8)])
    proposals = [Box(0.1 * i, 0.2, 0.1 * i + 0.08, 0.35) for i in range(4)]

    scores = score_matrix(tokens, queries)
    print(f"score matrix, one row per region, columns {labels}:\n", np.round(scores, 2))

    dets = decode_detections(scores, proposals, labels, threshold=0.7)
    for d in dets:
        print(f"detected {d.label:8s} at region {d.source_region} (conf {d.confidence:.2f})")

    # counting is decode-then-count: one decode serves every category
    print("cat count:", detect_then_count(dets, "cat"))
    print("pelican count:", detect_then_count(dets, "pelican"))

    # detections can be voiced as a grounded response and parsed right back
    summary = emit_grounded_summary(dets)
    print("summary:", summary)
    recovered = grounded_to_detections(parse_grounded(summary, len(proposals)), proposals)
    print("recovered", len(recovered), "detections from the summary")


if __name__ == "__main__":
    main()
